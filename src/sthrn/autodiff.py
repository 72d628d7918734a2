"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each operation returns a new ``Tensor`` whose value is computed
eagerly by one module-level forward function of its static arguments
and its parents' arrays.  Every op hands that value and the forward to
``_apply``, which decides what the result is: while gradients are
enabled, a tape node recording the op's parents, its forward, its vjp
and the values the vjp needs; inside ``no_grad()``, a bare value with
no parents.  ``backward`` walks the tape once, in reverse topological
order, from a scalar root, and every vjp adds its gradients into the
parents through ``_acc``.  ``grad_check`` re-runs the recorded
forwards of the nodes a perturbed leaf reaches instead of the whole
function, for a batch of probes on a leading axis per pass (``_cone``
and ``_replay``), in float64 and again in long double for the
components it refines.
"""

from __future__ import annotations

import time

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonScalarRoot(ValueError):
    """backward() was called on a tensor with more than one element."""


_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus its place on the tape.

    ``op`` is "leaf" for a tensor built directly (a parameter, or a
    value-only result), "const" for an array an op took as an operand,
    or else the op that made this tape node.  A node holds its
    ``parents``, its forward ``fwd`` and static ``args`` (its value is
    ``fwd(*args, *parent arrays)``), its ``vjp`` and the values the vjp
    reads (``saved``).  ``backward`` gives leaves a ``grad``, never
    consts, and leaves None on interior nodes, which are rebuilt every
    forward pass.
    """

    __slots__ = ("data", "grad", "op", "parents", "vjp", "saved", "fwd", "args", "__weakref__")

    def __init__(self, data, op: str = "leaf"):
        # Numpy scalars become 0-d arrays.  Tape nodes do not come through
        # here: ``_apply`` makes every one (``_result``).
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self.parents = ()
        self.vjp = None
        self.saved = ()
        self.fwd = None
        self.args = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, key):
        return narrow(self, key)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


_new_object = object.__new__


def _result(out, op: str = "leaf", parents: tuple = (), vjp=None, saved: tuple = (),
            fwd=None, args: tuple = ()) -> Tensor:
    """A Tensor for an op's value, built without ``Tensor.__init__``.
    An op's value is a float array, or a numpy scalar from a full
    reduction, in its operands' precision: float64, or long double
    downstream of a leaf grad_check widened.  It needs none of
    __init__'s conversions, which would round it to float64, and
    skipping the call keeps the per-op cost down."""
    t = _new_object(Tensor)
    t.data = out if type(out) is np.ndarray else np.asarray(out)
    t.grad = None
    t.op = op
    t.parents = parents
    t.vjp = vjp
    t.saved = saved
    t.fwd = fwd
    t.args = args
    return t


def _cat(arrays, axis: int) -> np.ndarray:
    """``np.concatenate`` along ``axis``.  In a replay pass some arrays
    carry a leading probe axis and the rest, which the probed leaf does
    not reach, are broadcast across it first."""
    if len({a.ndim for a in arrays}) > 1:
        big = max(arrays, key=np.ndim)
        arrays = [a if a.ndim == big.ndim else np.broadcast_to(a, big.shape[:1] + a.shape)
                  for a in arrays]
    return np.concatenate(arrays, axis=axis)


def _value(out):
    """A forward's result as a node's value: a cell's (h, c, *saved)
    becomes [h | c]."""
    return _cat(out[:2], -1) if type(out) is tuple else out


def _apply(out, op: str, parents: tuple, vjp, fwd, *args):
    """An op's value ``out = fwd(*args, *parent arrays)``, which the op
    computes by calling ``fwd`` itself, as a tape node, or inside
    ``no_grad()`` as a bare Tensor with no parents: the one place that
    decides.  The node keeps ``fwd`` and ``args``, so replay re-runs
    the very forward that made it.

    ``vjp(node, g)`` adds the op's gradients into ``node.parents``
    through ``_acc``, reading ``node.args`` and ``node.saved``.  A fused
    cell's forward returns (h, c, *saved) and the cell comes back as an
    (h, c) pair: taped, one node holds [h | c], keeps the rest as
    ``saved``, and the two states are narrows of it.
    """
    if type(out) is tuple:
        if not _grad_enabled:
            return _result(out[0]), _result(out[1])
        node = _result(_value(out), op, parents, vjp, out[2:], fwd, args)
        d = out[0].shape[1]
        return _narrow(node, np.s_[:, :d]), _narrow(node, np.s_[:, d:])
    if not _grad_enabled:
        return _result(out)
    return _result(out, op, parents, vjp, (), fwd, args)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _acc(t: Tensor, g: np.ndarray, key: tuple | None = None) -> None:
    """Add ``g``, summed back to ``t``'s shape where it was broadcast, into
    ``t.grad`` (its ``key`` part if given), allocating zeros on the first
    write; the one owner of gradient writes.  Consts never get one."""
    if t.op == "const":
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if key is None:
        t.grad += _unbroadcast(g, t.data.shape)
    else:
        t.grad[key] += g


# -- arithmetic -------------------------------------------------------------
#
# The binary ops' forwards are numpy's own ufuncs: ``a + b`` is np.add.


def _add_vjp(node, g):
    a, b = node.parents
    _acc(a, g)
    _acc(b, g)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(np.add(a.data, b.data), "add", (a, b), _add_vjp, np.add)


def _tree_sum(parts):
    """Pairwise sum: adjacent pairs first, then pairs of those, and so on.

    [a, b, c] gives (a + b) + c and six parts ((a + b) + (c + d)) + (e + f).
    ``parts`` may be a generator; pairs are added as soon as both exist,
    so at most one partial sum per level is alive at a time.
    """
    stack: list[tuple[int, object]] = []  # (parts summed, partial sum)
    for part in parts:
        size = 1
        while stack and stack[-1][0] == size:
            part = stack.pop()[1] + part
            size *= 2
        stack.append((size, part))
    total = stack.pop()[1]
    while stack:
        total = stack.pop()[1] + total
    return total


def _sub_vjp(node, g):
    a, b = node.parents
    _acc(a, g)
    _acc(b, -g)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(np.subtract(a.data, b.data), "sub", (a, b), _sub_vjp, np.subtract)


def _mul_vjp(node, g):
    a, b = node.parents
    _acc(a, g * b.data)
    _acc(b, g * a.data)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(np.multiply(a.data, b.data), "mul", (a, b), _mul_vjp, np.multiply)


def _scale_fwd(s, a):
    return a * s


def _scale_vjp(node, g):
    _acc(node.parents[0], g * node.args[0])


def scale(a, s: float) -> Tensor:
    """Product with a python scalar (no tape node for the scalar)."""
    a = _as_tensor(a)
    return _apply(_scale_fwd(s, a.data), "scale", (a,), _scale_vjp, _scale_fwd, s)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")


def _matmul_vjp(node, g):
    a, b = node.parents
    _acc(a, g @ b.data.T)
    _acc(b, a.data.T @ g)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul(a, b)
    return _apply(np.matmul(a.data, b.data), "matmul", (a, b), _matmul_vjp, np.matmul)


def _affine(x, w, b):
    return x @ w + b


def _linear_vjp(node, g):
    x, w, b = node.parents
    _acc(x, g @ w.data.T)
    _acc(w, x.data.T @ g)
    _acc(b, g)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, ``b`` broadcast as in ``add``: the
    value of ``add(matmul(x, w), b)``."""
    x, w, b = parents = tuple(map(_as_tensor, (x, w, b)))
    _check_matmul(x, w)
    return _apply(_affine(x.data, w.data, b.data), "linear", parents, _linear_vjp, _affine)


# -- shape ------------------------------------------------------------------


def _reshape_fwd(shape, a):
    return a.reshape(shape)


def _reshape_vjp(node, g):
    a = node.parents[0]
    _acc(a, g.reshape(a.data.shape))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _apply(_reshape_fwd(shape, a.data), "reshape", (a,), _reshape_vjp, _reshape_fwd,
                  shape)


def _concat_fwd(axis, *arrays):
    try:
        return _cat(arrays, axis)
    except ValueError as exc:
        raise ShapeMismatch(f"concat: {[a.shape for a in arrays]}") from exc


def _concat_vjp(node, g):
    axis = node.args[0]
    lead = (slice(None),) * (axis % g.ndim)
    lo = 0
    for p in node.parents:
        hi = lo + p.data.shape[axis]
        _acc(p, g[(*lead, slice(lo, hi))])
        lo = hi


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if len({p.data.ndim for p in parts}) > 1:  # _cat would broadcast the lower rank
        raise ShapeMismatch(f"concat: {[p.data.shape for p in parts]}")
    return _apply(_concat_fwd(axis, *[p.data for p in parts]), "concat", tuple(parts),
                  _concat_vjp, _concat_fwd, axis)


_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


def _narrow_fwd(key, a):
    return a[key]


def _narrow_vjp(node, g):
    _acc(node.parents[0], g, node.args[0])


def narrow(a, key) -> Tensor:
    """Basic indexing (ints, slices, ``...``, ``None`` or a tuple of them)
    selects each element at most once, so its gradient adds into the
    selected part; any other key raises ShapeMismatch."""
    key = key if type(key) is tuple else (key,)
    for k in key:
        if not isinstance(k, _BASIC_INDEX) or isinstance(k, bool):
            raise ShapeMismatch(f"narrow: {k!r} is not a basic index")
    return _narrow(_as_tensor(a), key)


def _narrow(a: Tensor, key: tuple) -> Tensor:
    """``narrow`` for a key already known to be a tuple of basic indices."""
    return _apply(_narrow_fwd(key, a.data), "narrow", (a,), _narrow_vjp, _narrow_fwd, key)


# -- reductions -------------------------------------------------------------


def _sum_fwd(axis, a):
    return a.sum(axis=axis)


def _sum_vjp(node, g):
    a, axis = node.parents[0], node.args[0]
    if axis is not None:
        g = np.expand_dims(g, axis)
    _acc(a, np.broadcast_to(g, a.data.shape))


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    return _apply(_sum_fwd(axis, a.data), "sum", (a,), _sum_vjp, _sum_fwd, axis)


def _pool(grid_shape: tuple, axis: int, x: np.ndarray) -> np.ndarray:
    """Sum of the rows ``x``, (..., rows, d), viewed as ``grid_shape``
    over ``axis``, as rows again; leading (probe) axes stay in front."""
    lead = x.shape[:-2]
    pooled = x.reshape(lead + grid_shape).sum(axis=axis - len(grid_shape))
    return pooled.reshape(lead + (-1, grid_shape[-1]))


def _spread(grid_shape: tuple, axis: int, g: np.ndarray) -> np.ndarray:
    """Transpose of ``_pool``: each row of ``g`` copied back over ``axis``,
    as rows."""
    lead = g.shape[:-2]
    copies = np.repeat(g.reshape(lead + grid_shape[:axis] + (1, -1)), grid_shape[axis], axis=-2)
    return copies.reshape(lead + (-1, grid_shape[-1]))


def _mean_fwd(grid_shape, axis, a):
    return _pool(grid_shape, axis, a.reshape(-1, grid_shape[-1])) * (1.0 / grid_shape[axis])


def _mean_vjp(node, g):
    a, (grid_shape, axis) = node.parents[0], node.args
    s = 1.0 / grid_shape[axis]
    _acc(a, _spread(grid_shape, axis, g * s).reshape(a.data.shape))


def mean_rows(a, grid_shape: tuple, axis: int) -> Tensor:
    """Mean of ``a`` viewed as ``grid_shape`` over ``axis``, returned as
    one row per remaining grid index: a (B, T, K, h) grid pooled over
    frames (axis 1) gives (B * K, h)."""
    a = _as_tensor(a)
    return _apply(_mean_fwd(grid_shape, axis, a.data), "mean", (a,), _mean_vjp, _mean_fwd,
                  grid_shape, axis)


def _l2norm_fwd(axis, a):
    return np.sqrt((a * a).sum(axis=axis))


def _l2norm_vjp(node, g):
    a, axis = node.parents[0], node.args[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g == 0.0, 0.0, g / node.data)
        _acc(a, np.expand_dims(ratio, axis) * a.data)


def l2norm(a, axis: int = -1) -> Tensor:
    """Euclidean norm along one axis.

    The gradient at an exactly zero vector is NaN by construction (the
    norm has a kink there); grad_check reports such components as
    non-differentiable instead of comparing them.  A norm the root does
    not depend on (zero incoming gradient) passes back zeros, kink or
    not: in a batch, another row's kink must not poison this one.
    """
    a = _as_tensor(a)
    return _apply(_l2norm_fwd(axis, a.data), "l2norm", (a,), _l2norm_vjp, _l2norm_fwd, axis)


# -- rotation wrap ----------------------------------------------------------

_TWO_PI = 2.0 * np.pi


def _wrap_shift(w3: np.ndarray):
    """None when no row of the (rows, 3) ``w3`` has a norm above pi, else
    (norms, q, safe norms) with q the angle shift over the safe norm: a
    row wraps to w + w * q.  Rows at or below pi shift by zero and keep
    their values; a NaN norm takes this branch, as ``norms.max() <= pi``
    is False for it."""
    norms = np.sqrt((w3 * w3).sum(axis=1))
    if norms.max() <= np.pi:
        return None
    over = (norms > np.pi).astype(np.float64)[:, None]
    turns = np.round(norms / _TWO_PI)[:, None]
    safe = norms[:, None] + (1.0 - over)  # keep unwrapped rows off zero
    return norms, -_TWO_PI * turns * over / safe, safe


def _wrap_fwd(a):
    w3 = a.reshape(-1, 3)
    shift = _wrap_shift(w3)
    if shift is None:
        return a
    return (w3 + w3 * shift[1]).reshape(a.shape)


def _wrap_vjp(node, g):
    a = node.parents[0]
    if node.data is a.data:  # no row exceeded pi
        _acc(a, g)
        return
    w3 = a.data.reshape(-1, 3)
    norms, q, safe = _wrap_shift(w3)
    g3 = g.reshape(-1, 3)
    # the gradient of w + w * q with the wrap count held constant, its
    # terms summed in the order the vjps of the add/mul/div/l2norm
    # composition this op replaces summed them: bit-identical gradients
    d_norm = (-(g3 * w3).sum(axis=1, keepdims=True) * q / safe).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d_norm == 0.0, 0.0, d_norm / norms)
    _acc(a, ((g3 + g3 * q) + ratio[:, None] * w3).reshape(a.data.shape))


def wrap_rows(a) -> Tensor:
    """Re-wrap each 3-vector of ``a``'s rows (B poses of K Lie entries,
    (B, 3K)) to norm <= pi.

    When no entry exceeds pi the value is ``a``'s own array and the
    gradient passes through unchanged.  Otherwise the wrap count is a
    constant per evaluation and the scaling stays differentiable;
    entries that need no wrap keep their exact values.
    """
    a = _as_tensor(a)
    return _apply(_wrap_fwd(a.data), "wrap", (a,), _wrap_vjp, _wrap_fwd)


# -- fused cells ------------------------------------------------------------
#
# A gated cell sums gate-weighted inputs into a new cell state c and
# exposes h = out * tanh(c).  Its pre-activation columns hold one
# sigmoid gate per input (the tanh candidate first, then each given
# source), the sigmoid output gate, and the candidate's pre-activation,
# each ``hidden`` wide.  The fused ops below compute exactly the values
# of the equivalent narrow/sigmoid/tanh/mul/add composition, adding the
# gated inputs in ``_tree_sum`` order, at one tape node: the node
# holds [h | c] and the two states are narrows of it.


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gated_fwd(pre: np.ndarray, *sources):
    """(h, c, gates, candidate, tanh(c)) of a gated cell."""
    n = len(sources) + 1
    d = pre.shape[-1] // (n + 2)
    s = _sigmoid(pre[..., :(n + 1) * d])
    cand = np.tanh(pre[..., (n + 1) * d:])
    inputs = [cand, *sources]
    c = _tree_sum(s[..., k * d:(k + 1) * d] * inputs[k] for k in range(n))
    tc = np.tanh(c)
    return s[..., n * d:] * tc, c, s, cand, tc


def _gated_backward(grad: np.ndarray, s, cand, sources: list, tc):
    """Gradients of a gated cell's [h | c] w.r.t. its pre-activations
    and each source, given the gradient ``grad`` of [h | c]."""
    n, d = len(sources) + 1, cand.shape[1]
    gh, gc = grad[:, :d], grad[:, d:]
    dc = gc + gh * s[:, n * d:] * (1.0 - tc * tc)
    inputs = [cand, *sources]
    ds = np.concatenate([dc * x for x in inputs] + [gh * tc], axis=1) * s * (1.0 - s)
    dcand = dc * s[:, :d] * (1.0 - cand * cand)
    dsources = [dc * s[:, k * d:(k + 1) * d] for k in range(1, n)]
    return np.concatenate([ds, dcand], axis=1), dsources


def _lstm_fwd(x, h, c, w, b):
    """(h, c, [x | h], gates, candidate, tanh(c)) of one LSTM step."""
    xh = _cat([x, h], -1)
    h_new, c_new, s, cand, tc = _gated_fwd(xh @ w + b, c)
    return h_new, c_new, xh, s, cand, tc


def _lstm_vjp(node, grad):
    x, h, c, w, b = node.parents
    xh, s, cand, tc = node.saved
    dz, (dc,) = _gated_backward(grad, s, cand, [c.data], tc)
    _acc(b, dz)
    _acc(w, xh.T @ dz)
    dxh = dz @ w.data.T
    nx = x.data.shape[1]
    _acc(x, dxh[:, :nx])
    _acc(h, dxh[:, nx:])
    _acc(c, dc)


def lstm_cell(x, h, c, w, b) -> tuple[Tensor, Tensor]:
    """One LSTM step as a single tape node; returns the new (h, c).

    ``w`` is (in + hidden, 4 * hidden) over the rows of [x | h] and
    ``b`` is (4 * hidden,), gate columns ordered input, forget, output,
    candidate: a gated cell whose one source is the previous cell state.
    The values are bit-identical to composing concat, matmul, add,
    sigmoid, tanh and mul, at one node instead of fifteen.
    """
    x, h, c, w, b = parents = tuple(map(_as_tensor, (x, h, c, w, b)))
    return _apply(_lstm_fwd(x.data, h.data, c.data, w.data, b.data), "lstm_cell", parents,
                  _lstm_vjp, _lstm_fwd)


def _pooled_fwd(grid_shape, axis, h, c, g_prev, c_prev,
                w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o):
    """(g, c, cell gates, mean h, forget gate, out gate, tanh(c)) of a
    pooled cell."""
    cell = _sigmoid((h @ w_c + _spread(grid_shape, axis, g_prev) @ z_c) + b_c)
    contrib = _pool(grid_shape, axis, cell * c)
    h_mean = _pool(grid_shape, axis, h) * (1.0 / grid_shape[axis])
    f = _sigmoid((h_mean @ w_f + g_prev @ z_f) + b_f)
    out = _sigmoid((h_mean @ w_o + g_prev @ z_o) + b_o)
    c_new = contrib + f * c_prev
    tc = np.tanh(c_new)
    return out * tc, c_new, cell, h_mean, f, out, tc


def _pooled_vjp(node, grad):
    h, c, g_prev, c_prev, w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = node.parents
    grid_shape, axis = node.args
    cell, h_mean, f, out, tc = node.saved
    d = out.shape[1]
    gg, gc = grad[:, :d], grad[:, d:]
    dc = gc + gg * out * (1.0 - tc * tc)
    d_f = dc * c_prev.data * f * (1.0 - f)
    d_o = gg * tc * out * (1.0 - out)
    for dz, tw, tz, tb in ((d_f, w_f, z_f, b_f), (d_o, w_o, z_o, b_o)):
        _acc(tw, h_mean.T @ dz)
        _acc(tz, g_prev.data.T @ dz)
        _acc(tb, dz)
    d_mean = (d_f @ w_f.data.T + d_o @ w_o.data.T) * (1.0 / grid_shape[axis])
    spread = _spread(grid_shape, axis, dc).reshape(h.data.shape)
    _acc(c, spread * cell)
    d_cell = spread * c.data * cell * (1.0 - cell)
    _acc(w_c, h.data.T @ d_cell)
    _acc(z_c, _spread(grid_shape, axis, g_prev.data).T @ d_cell)
    _acc(b_c, d_cell)
    d_rows = _pool(grid_shape, axis, d_cell @ z_c.data.T)
    _acc(h, d_cell @ w_c.data.T)
    _acc(h, _spread(grid_shape, axis, d_mean).reshape(h.data.shape))
    # the previous states in the order the walk of the composition this
    # op replaces added them, since g_prev is c_prev at the first layer:
    # the out gate, the spread of g_prev, the kept cell, the forget gate
    _acc(g_prev, d_o @ z_o.data.T)
    _acc(g_prev, d_rows)
    _acc(c_prev, dc * f)
    _acc(g_prev, d_f @ z_f.data.T)


def pooled_cell(h, c, g_prev, c_prev, weights, grid_shape, axis: int) -> tuple[Tensor, Tensor]:
    """A global state pooled from a grid of cells; returns the new (g, c).

    ``h`` and ``c`` are the grid's (rows, hidden) states, ``grid_shape``
    their (..., hidden) view, for example (B, T, K, hidden) for B
    windows, and the pool runs over ``axis`` of it.  ``g_prev`` and
    ``c_prev`` are the previous global states, one row per remaining
    grid index in row-major order.  ``weights`` is (w_c, z_c, b_c, w_f,
    z_f, b_f, w_o, z_o, b_o):

        cell = sigmoid(h w_c + g_rows z_c + b_c)      per grid cell
        f    = sigmoid(mean(h) w_f + g_prev z_f + b_f)
        out  = sigmoid(mean(h) w_o + g_prev z_o + b_o)
        c'   = sum(cell . c) + f . c_prev,   g' = out . tanh(c')

    with means and sums over ``axis``, and ``g_rows`` the op's own spread
    of ``g_prev`` to one row per grid cell; values are bit-identical to
    the composition of a spread, matmul, add, sigmoid, mul, reshape,
    tsum, scale and tanh that spells this out.
    """
    parents = tuple(map(_as_tensor, (h, c, g_prev, c_prev, *weights)))
    out = _pooled_fwd(grid_shape, axis, *[t.data for t in parents])
    return _apply(out, "pooled_cell", parents, _pooled_vjp, _pooled_fwd, grid_shape, axis)


def _shift_blocks(n: int, block: int, x: np.ndarray) -> np.ndarray:
    """Rows moved down by ``n`` (up for negative ``n``) within each run
    of ``block`` consecutive rows; the rows left empty are zeros and
    nothing crosses from one run into the next."""
    rows = x.shape[-2]
    k = min(abs(n), block)
    out = np.zeros(x.shape, dtype=x.dtype)
    if n >= 0:
        out[..., k:, :] = x[..., :rows - k, :]
    else:
        out[..., :rows - k, :] = x[..., k:, :]
    if block < rows:  # clear the rows shifted in from a neighbouring block
        runs = out.reshape(-1, block, x.shape[-1])
        if n >= 0:
            runs[:, :k] = 0.0
        else:
            runs[:, block - k:] = 0.0
    return out


def _grid_sources(grid_shape, sp_mask, x: np.ndarray):
    """Each grid row's frame neighbours (left, right) and chain
    predecessor, masked off at chain heads: rows of window b's frame i
    sit at (b*T + i)*K, so frame neighbours are K rows away within the
    window's T*K rows and the predecessor one row up."""
    _, T, K, _ = grid_shape
    return (_shift_blocks(K, T * K, x), _shift_blocks(-K, T * K, x),
            _shift_blocks(1, x.shape[-2], x) * sp_mask)


def _grid_sources_vjp(grid_shape, sp_mask, g_left, g_right, g_sp):
    """Transpose of ``_grid_sources``: each source's gradient moved back
    onto the rows it came from, in the order (left, right, spatial)."""
    _, T, K, _ = grid_shape
    return (_shift_blocks(-K, T * K, g_left), _shift_blocks(K, T * K, g_right),
            _shift_blocks(-1, g_sp.shape[0], g_sp * sp_mask))


def _grid_globals(grid_shape, g_s, g_t):
    """The per-frame ``g_s`` and per-bone ``g_t`` spread to one row per
    grid cell."""
    return _spread(grid_shape, 2, g_s), _spread(grid_shape, 1, g_t)


def _grid_fwd(grid_shape, sp_mask, h, c, p_proj, g_s, g_t, w, z, gs, gt, b, c_gs, c_gt):
    """(h, c, gates, candidate, tanh(c)) of an encoder layer's grid cells."""
    h_left, h_right, h_sp = _grid_sources(grid_shape, sp_mask, h)
    triple = np.concatenate([h_left, h_right, h], axis=-1)
    gs_rows, gt_rows = _grid_globals(grid_shape, g_s, g_t)
    # the six terms in ``_tree_sum`` order, as the composition adds them
    pre = ((p_proj + triple @ w) + (h_sp @ z + gs_rows @ gs)) + (gt_rows @ gt + b)
    c_left, c_right, c_sp = _grid_sources(grid_shape, sp_mask, c)
    return _gated_fwd(pre, c_left, c, c_right, c_sp, *_grid_globals(grid_shape, c_gs, c_gt))


def _grid_vjp(node, grad):
    h, c, p_proj, g_s, g_t, w, z, gs, gt, b, c_gs, c_gt = node.parents
    grid_shape, sp_mask = node.args
    s, cand, tc = node.saved
    c_left, c_right, c_sp = _grid_sources(grid_shape, sp_mask, c.data)
    dpre, (dc_left, dc_same, dc_right, dc_sp, dcgs, dcgt) = _gated_backward(
        grad, s, cand, [c_left, c.data, c_right, c_sp,
                        *_grid_globals(grid_shape, c_gs.data, c_gt.data)], tc)
    # each parent's gradients in the order the walk of the composition
    # this op replaces added them, since h is c (and g_s is c_gs) at the
    # first layer: the cell's own c, the linear terms, h through its own
    # block of the triple and then its three shifts, c through its shifts,
    # and last each global state through its spread
    _acc(c, dc_same)
    d_cgs, d_cgt = _pool(grid_shape, 2, dcgs), _pool(grid_shape, 1, dcgt)
    h_left, h_right, h_sp = _grid_sources(grid_shape, sp_mask, h.data)
    triple = np.concatenate([h_left, h_right, h.data], axis=1)
    _acc(p_proj, dpre)
    d_left, d_right, d_self = np.split(dpre @ w.data.T, 3, axis=1)
    _acc(w, triple.T @ dpre)
    d_sp = dpre @ z.data.T
    _acc(z, h_sp.T @ dpre)
    gs_rows, gt_rows = _grid_globals(grid_shape, g_s.data, g_t.data)
    d_gs = _pool(grid_shape, 2, dpre @ gs.data.T)
    _acc(gs, gs_rows.T @ dpre)
    d_gt = _pool(grid_shape, 1, dpre @ gt.data.T)
    _acc(gt, gt_rows.T @ dpre)
    _acc(b, dpre)
    _acc(h, d_self)
    for g in _grid_sources_vjp(grid_shape, sp_mask, d_left, d_right, d_sp):
        _acc(h, g)
    for g in _grid_sources_vjp(grid_shape, sp_mask, dc_left, dc_right, dc_sp):
        _acc(c, g)
    for state, g in ((g_s, d_gs), (g_t, d_gt), (c_gs, d_cgs), (c_gt, d_cgt)):
        _acc(state, g)


def grid_cell(h, c, p_proj, g_s, g_t, weights, c_gs, c_gt, grid_shape,
              sp_mask) -> tuple[Tensor, Tensor]:
    """One encoder layer's update of every cell of a (B, T, K, hidden)
    ``grid_shape`` grid with (rows, hidden) states ``h``, ``c``; returns (h, c):

        pre = p_proj + [h_left | h_right | h] w + h_sp z + gs_rows gs + gt_rows gt + b
        (h', c') = gated cell of pre over [c_left, c, c_right, c_sp, cgs_rows, cgt_rows]

    ``weights`` is (w, z, gs, gt, b); the global states ``g_s``, ``c_gs``
    (B*T, hidden) and ``g_t``, ``c_gt`` (B*K, hidden) enter as ``*_rows``,
    spread to one row per cell, and left, right and sp are the sources
    of ``_grid_sources``, with ``sp_mask`` (rows, 1) 0 at chain heads.
    Values and gradients are bit-identical to that composition with one
    spread node per global state; the node saves the gates, the
    candidate and tanh(c'), and its vjp recomputes the shifted and
    spread copies.
    """
    parents = tuple(map(_as_tensor, (h, c, p_proj, g_s, g_t, *weights, c_gs, c_gt)))
    out = _grid_fwd(grid_shape, sp_mask, *[t.data for t in parents])
    return _apply(out, "grid_cell", parents, _grid_vjp, _grid_fwd, grid_shape, sp_mask)


# -- tape walk --------------------------------------------------------------


def _tape_order(root: Tensor) -> tuple[list[Tensor], set[int]]:
    """Every tensor ``root`` depends on, each after its parents, ``root``
    last; and the set of their ids."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order, seen


def backward(root: Tensor, leaves=()) -> None:
    """Populate ``.grad`` on the tensors that ``root`` depends on.

    After the walk, every leaf the root depends on (a tensor with no
    vjp that is not a const, such as a parameter) and every tensor in
    ``leaves`` holds its gradient; consts and interior nodes end with
    ``grad = None``.  A buffer is allocated by the first vjp that
    writes into it (``_acc``) and an interior node's is released once
    its own vjp has run.  Gradients are freshly assigned on each call
    and the tape is left intact, so repeated calls from the same root
    give identical results.  Tensors in ``leaves`` that the root does
    not depend on get zero gradients instead of None.
    """
    if root.data.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.data.shape}")
    leaves = tuple(leaves)
    keep = {id(leaf) for leaf in leaves}
    order, seen = _tape_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.vjp is None:
            continue
        node.vjp(node, node.grad)
        if id(node) not in keep:
            node.grad = None
    for leaf in leaves:
        if id(leaf) not in seen:
            leaf.grad = np.zeros_like(leaf.data)


# -- re-evaluating a recorded tape ------------------------------------------
#
# A replay pass re-runs one leaf's cone for P probes at once.  The leaf's
# probed values are stacked on a leading probe axis, and each cone node
# runs its recorded forward once, on its parents' values: with the probe
# axis where the leaf reaches the parent, as recorded otherwise.  Numpy
# runs an elementwise op or a matmul over the probe axis one slice at a
# time, so each probe's values equal, bit for bit, those of one
# unbatched forward.  A parent the leaf reaches enters a node as
# (P, *its recorded shape), padded with ones to the node's rank where
# the node broadcasts it: a (4h,) bias is probed as (P, 1, 4h).  The
# ops whose static arguments name absolute axes, keys or shapes take
# them from this table instead, given P and the recorded rank ``nd`` of
# the op's first parent; a mean's rows come out as (P * rows, d), and
# its readers take them as (P, rows, d).
_PROBE_ARGS = {
    "reshape": lambda P, nd, shape: ((P, *shape),),
    "concat": lambda P, nd, axis: (axis % nd - nd,),
    "narrow": lambda P, nd, key: ((slice(None), *key),),
    "sum": lambda P, nd, axis: (tuple(range(-nd, 0)) if axis is None else axis % nd - nd,),
    "mean": lambda P, nd, grid_shape, axis: ((P, *grid_shape), axis + 1),
    "l2norm": lambda P, nd, axis: (axis % nd - nd,),
}

# A pass's memory grows with P times its cone's recorded bytes, so a
# float64 pass takes as many probes as this budget allows, and at least
# two: 8 to 36 on the criterion-4 fixture, whose cones record 7 to 32
# KB.  A sweep in a wider dtype scales that by 8 bytes over its width:
# half as many in a 16-byte long double.  The budget counts the cone, not
# the P stacked copies of the leaf: a decoder weight's copies dwarf its
# cone (1.77 of the 1.92 MB one dec.arm.w pass peaks at), so counting
# them shrinks the decoder weights' passes to 4 to 6 probes: tried on
# criterion 4, its 1,764 passes became 8,177 and its 4.0 s 7.2-7.3 s.
_PASS_BYTES = 1 << 18


def _cone(order: list[Tensor], leaf: Tensor):
    """The nodes of ``order`` that depend on ``leaf`` as replay steps, in
    tape order, and how many components of the leaf one float64 pass
    probes (``_PASS_BYTES`` over twice their recorded bytes); None when
    one of them has no forward to re-run (``_apply`` recorded it
    without one).

    A step is (forward, its ``_PROBE_ARGS`` rule or None, static args,
    recorded rank of its first parent, parent arrays, [(parent position,
    value index, shape)] of the parents the leaf reaches, [value indices
    no later step reads]); value 0 is the leaf's, value k + 1 step k's.
    Every other node is read through its recorded array; a node the
    root does not depend on is not in ``order``.
    """
    value_of = {id(leaf): 0}
    steps, last_read, nbytes = [], {}, 0
    for node in order:
        hits = [(i, value_of[id(p)]) for i, p in enumerate(node.parents) if id(p) in value_of]
        if not hits:
            continue
        if node.fwd is None:
            return None
        rule = _PROBE_ARGS.get(node.op)
        inputs = []
        for i, k in hits:
            shape = node.parents[i].data.shape
            pad = () if rule else (1,) * (node.data.ndim - len(shape))
            inputs.append((i, k, (-1, *pad, *shape)))
            last_read[k] = len(steps)
        value_of[id(node)] = len(steps) + 1
        steps.append((node.fwd, rule, node.args, node.parents[0].data.ndim,
                      [p.data for p in node.parents], inputs, []))
        nbytes += node.data.nbytes
    for k, j in last_read.items():
        steps[j][-1].append(k)
    return steps, max(1, _PASS_BYTES // (2 * max(nbytes, 1)))


def _replay(steps, root: Tensor, leaf: Tensor, index, step: float,
            dtype=np.float64) -> np.ndarray:
    """The root's values at P = 2 * len(index) probes, in one pass
    through the ``_cone`` steps with the leaf widened to ``dtype``: probe
    2j moves component index[j] of ``leaf`` to ``orig + step`` and probe
    2j + 1 to ``orig - step``.  Each value is dropped once its last
    reader has run.  With no steps the root is the leaf or does not
    depend on it."""
    flat = leaf.data.reshape(-1).astype(dtype, copy=False)
    P = 2 * len(index)
    probes = np.repeat(flat[None], P, axis=0)
    probes[np.arange(P), np.repeat(index, 2)] = np.stack(
        [flat[index] + step, flat[index] - step], axis=1).reshape(-1)
    vals = [probes.reshape(P, *leaf.data.shape)]
    del probes  # dropped with vals[0], after its last reader
    for fwd, rule, args, nd, arrays, inputs, done in steps:
        arrays = arrays.copy()
        for i, k, shape in inputs:
            arrays[i] = vals[k].reshape(shape)
        vals.append(_value(fwd(*(rule(P, nd, *args) if rule else args), *arrays)))
        for k in done:
            vals[k] = None
    if steps or root is leaf:
        return vals[-1].reshape(P)
    return np.repeat(root.data.reshape(-1), P)


# -- gradient checking ------------------------------------------------------


class GradCheckReport:
    """Outcome of comparing tape gradients against central differences,
    and what the comparison cost."""

    def __init__(self, max_rel_error, per_leaf, skipped, forward_calls, replays, passes,
                 fallbacks, refined, seconds):
        self.max_rel_error = max_rel_error
        self.per_leaf = per_leaf          # name -> worst relative error
        self.skipped = skipped            # (name, flat index) of NaN/inf grads
        self.forward_calls = forward_calls  # calls of f(), the taped one included
        self.replays = replays            # losses re-evaluated on the recorded tape
        self.passes = passes              # batched replay passes that made them
        self.fallbacks = fallbacks        # leaves probed by calling f() alone
        self.refined = refined            # components re-probed in extended precision
        self.seconds = seconds            # wall time of the whole check

    def __repr__(self) -> str:
        return (
            f"GradCheckReport(max_rel_error={self.max_rel_error!r}, "
            f"skipped={len(self.skipped)}, forward_calls={self.forward_calls}, "
            f"replays={self.replays}, passes={self.passes}, fallbacks={self.fallbacks}, "
            f"refined={self.refined}, seconds={self.seconds:.3f})"
        )


# Central differences in float64 carry cancellation noise of roughly
# |f| * eps / (2 * step); at step 1e-5 that floor sits near 5e-12 and
# swamps gradient components below ~1e-7.  Components flagged by the
# float64 sweep are re-probed in extended precision when the platform
# long double is actually wider than double (x86-64 yes, arm64 no).
_REFINE_AVAILABLE = np.finfo(np.longdouble).eps < 1e-18


def _quotient(fp, fm, step: float):
    """The central difference of the losses fp and fm, in their own
    precision."""
    return (fp - fm) / (2.0 * fp.dtype.type(step))


def _by_f(f, leaf: Tensor, index, step: float, dtype) -> np.ndarray:
    """The losses of ``f()`` with each component ``index`` of ``leaf``
    moved to orig + step and then orig - step, as (len(index), 2).

    ``f()`` sees a copy of the leaf widened to ``dtype``, never the
    leaf's own array, and ``leaf.data`` is restored even if it raises.
    Rounding error upstream of the perturbed component is the same at
    both probes and cancels in fp - fm; widening just this leaf promotes
    everything downstream of it, the only part of the computation where
    the two probes differ.
    """
    original = leaf.data
    leaf.data = original.astype(dtype)
    flat = leaf.data.reshape(-1)
    losses = []
    try:
        for i in index:
            base = flat[i]
            for value in (base + step, base - step):
                flat[i] = value
                losses.append(f().data)
            flat[i] = base
    finally:
        leaf.data = original
    return np.array(losses).reshape(-1, 2)


def grad_check(
    f,
    leaves: dict[str, Tensor],
    step: float = 1e-5,
    refine_threshold: float | None = 2e-5,
) -> GradCheckReport:
    """Compare tape gradients of ``f()`` against central differences.

    ``f`` must rebuild its tape from the current leaf values on every
    call.  Each leaf component is perturbed by +-step on a copy of the
    leaf, which ``f`` reads through ``leaf.data``; the leaf's own array
    is never written.  The relative error uses max(|analytic|,
    |numeric|, 1e-8) as denominator.  Components whose analytic gradient
    is NaN or inf are reported in ``skipped`` rather than compared: the
    function is not differentiable there.

    A leaf is measured by one sweep, and again by a second one in
    extended precision for the components whose float64 relative error
    exceeds ``refine_threshold`` (a float64 difference quotient is
    noise-limited once the component is small; pass None to keep the raw
    float64 numbers).  A sweep replays the tape of the one taped ``f()``
    call with the leaf in the sweep's dtype: only the nodes that depend
    on the leaf re-run their recorded forwards, for a whole batch of
    probes per pass (``_replay``), and every other node keeps its value.
    That is exact when every decision that depends on a value lives
    inside an op.  As a guard, some components are also measured by
    calling ``f()``: the first and last of the float64 sweep, the first
    of the extended one.  If the replayed losses are not in the sweep's
    dtype or differ from f()'s at a guard at all, a pass raises, or the
    leaf reaches a node with no recorded forward, the sweep measures
    the other components by calling ``f()`` too, and so does the
    extended sweep of a leaf whose float64 sweep fell back; the leaf
    counts once as a fallback.
    """
    start = time.perf_counter()
    out = f()
    backward(out, leaves=leaves.values())
    analytic = {name: t.grad.copy() for name, t in leaves.items()}
    order, _ = _tape_order(out)
    per_leaf: dict[str, float] = {}
    skipped: list[tuple[str, int]] = []
    refine = refine_threshold is not None and _REFINE_AVAILABLE
    calls, replays, passes, fallbacks, refined = 1, 0, 0, 0, 0

    def sweep(t, cone, index, guards, dtype):
        """The central differences of ``t``'s components ``index`` in
        ``dtype``: ``index[guards]`` by calling f(), and all of them by
        replaying ``cone`` in passes of its size scaled to the dtype's
        width; and the cone, or None once the sweep fell back."""
        nonlocal calls, replays, passes
        guarded = np.zeros(len(index), dtype=bool)
        guarded[guards] = True
        by_f = _by_f(f, t, index[guarded], step, dtype)
        calls += by_f.size
        losses = None
        if cone is not None:
            steps, size = cone
            size = max(1, size * 8 // np.dtype(dtype).itemsize)
            parts = []
            try:
                for lo in range(0, len(index), size):
                    parts.append(_replay(steps, out, t, index[lo:lo + size], step, dtype))
                    passes += 1
                    replays += parts[-1].size
                losses = np.concatenate(parts).reshape(-1, 2)
            except (ValueError, TypeError, IndexError):
                pass  # a forward that cannot take the probe axis: f() decides
        if losses is None or losses.dtype != dtype or not np.array_equal(losses[guarded], by_f):
            cone = None  # and every other component by calling f()
            losses = np.empty((len(index), 2), by_f.dtype)
            losses[guarded] = by_f
            losses[~guarded] = rest = _by_f(f, t, index[~guarded], step, dtype)
            calls += rest.size
        return _quotient(losses[:, 0], losses[:, 1], step), cone

    def rel_errors(a, fd):
        return np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)

    with no_grad():
        for name, t in leaves.items():
            aflat = analytic[name].reshape(-1)
            finite = np.isfinite(aflat)
            skipped += [(name, int(i)) for i in np.flatnonzero(~finite)]
            probed = np.flatnonzero(finite)
            errors = np.zeros(0)
            if probed.size:
                fds, cone = sweep(t, _cone(order, t), probed, [0, -1], np.float64)
                errors = rel_errors(aflat[probed], fds)
                flagged = np.flatnonzero(errors > refine_threshold) if refine else []
                if len(flagged):
                    fds[flagged], cone = sweep(t, cone, probed[flagged], [0], np.longdouble)
                    errors = rel_errors(aflat[probed], fds)
                    refined += len(flagged)
                fallbacks += cone is None
            per_leaf[name] = max([0.0, *errors[errors > 0.0]])
    return GradCheckReport(max([0.0, *per_leaf.values()]), per_leaf, skipped, calls, replays,
                           passes, fallbacks, refined, time.perf_counter() - start)
