"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each operation returns a new ``Tensor`` whose value is computed
eagerly.  Every op hands its value to ``_apply``, which decides what
the result is: while gradients are enabled, a tape node recording the
op's parents, its vjp and the values the vjp needs; inside
``no_grad()``, a bare value with no parents, which is what
finite-difference probing uses.  ``backward`` walks the tape once, in
reverse topological order, from a scalar root, and every vjp adds its
gradients into the parents through ``_acc``.
"""

from __future__ import annotations

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
    or else the op that made this tape node, which holds its
    ``parents``, its ``vjp`` and the values the vjp reads (``saved``).
    ``backward`` gives leaves a ``grad``, never consts, and leaves None
    on interior nodes, which are rebuilt every forward pass.
    """

    __slots__ = ("data", "grad", "op", "parents", "vjp", "saved")

    def __init__(self, data, op: str = "leaf", parents: tuple = (), vjp=None,
                 saved: tuple = ()):
        # float64 is the working dtype; wider floats are passed through so
        # grad_check can re-probe finite differences in extended precision.
        # Full reductions hand back numpy scalars, hence np.generic.  Op
        # results are float arrays already and take the first branch.
        if type(data) is np.ndarray and data.dtype.kind == "f":
            self.data = data
        elif isinstance(data, (np.ndarray, np.generic)) and data.dtype.kind == "f":
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.saved = saved

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

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, key):
        return narrow(self, key)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def _apply(out, op: str, parents: tuple, vjp, *saved):
    """An op's value ``out`` as a tape node, or inside ``no_grad()`` as a
    bare Tensor with no parents: the one place that decides.

    ``vjp(node, g)`` adds the op's gradients into ``node.parents``
    through ``_acc``, reading ``saved`` as ``node.saved``.  A fused
    cell's (h, c) pair comes back as a pair: taped, one node holds
    [h | c] and the two states are narrows of it.
    """
    if type(out) is tuple:
        if not _grad_enabled:
            return Tensor(out[0]), Tensor(out[1])
        node = Tensor(np.concatenate(out, axis=1), op, parents, vjp, saved)
        d = out[0].shape[1]
        return narrow(node, np.s_[:, :d]), narrow(node, np.s_[:, d:])
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, op, parents, vjp, saved)


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


def _add_vjp(node, g):
    a, b = node.parents
    _acc(a, g)
    _acc(b, g)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(a.data + b.data, "add", (a, b), _add_vjp)


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
    return _apply(a.data - b.data, "sub", (a, b), _sub_vjp)


def _mul_vjp(node, g):
    a, b = node.parents
    _acc(a, g * b.data)
    _acc(b, g * a.data)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(a.data * b.data, "mul", (a, b), _mul_vjp)


def _div_vjp(node, g):
    a, b = node.parents
    _acc(a, g / b.data)
    _acc(b, -g * node.data / b.data)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply(a.data / b.data, "div", (a, b), _div_vjp)


def _scale_vjp(node, g):
    _acc(node.parents[0], g * node.saved[0])


def scale(a, s: float) -> Tensor:
    """Product with a python scalar (no tape node for the scalar)."""
    a = _as_tensor(a)
    return _apply(a.data * s, "scale", (a,), _scale_vjp, s)


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
    return _apply(a.data @ b.data, "matmul", (a, b), _matmul_vjp)


def _linear_vjp(node, g):
    for x, w in node.saved[0]:
        if w is None:
            _acc(x, g)
        else:
            _acc(x, g @ w.data.T)
            _acc(w, x.data.T @ g)


def linear(terms) -> Tensor:
    """Sum of several terms as one node.

    A term is a tensor, broadcast as in ``add``, or an ``(x, w)`` pair
    standing for ``matmul(x, w)``.  Terms are added in ``_tree_sum``
    order, so ``linear([(x, w), (y, v), b])`` has exactly the value of
    ``add(add(matmul(x, w), matmul(y, v)), b)``.
    """
    pairs: list[tuple[Tensor, Tensor | None]] = []
    parents: list[Tensor] = []
    for term in terms:
        if isinstance(term, tuple):
            x, w = _as_tensor(term[0]), _as_tensor(term[1])
            _check_matmul(x, w)
            parents += x, w
        else:
            x, w = _as_tensor(term), None
            parents.append(x)
        pairs.append((x, w))
    out = _tree_sum(x.data if w is None else x.data @ w.data for x, w in pairs)
    return _apply(out, "linear", tuple(parents), _linear_vjp, pairs)


# -- shape ------------------------------------------------------------------


def _reshape_vjp(node, g):
    a = node.parents[0]
    _acc(a, g.reshape(a.data.shape))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _apply(a.data.reshape(shape), "reshape", (a,), _reshape_vjp)


def _concat_vjp(node, g):
    axis = node.saved[0]
    moved = np.moveaxis(g, axis, 0)
    lo = 0
    for p in node.parents:
        hi = lo + p.data.shape[axis]
        _acc(p, np.moveaxis(moved[lo:hi], 0, axis))
        lo = hi


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeMismatch(f"concat: {[p.data.shape for p in parts]}") from exc
    return _apply(out, "concat", tuple(parts), _concat_vjp, axis)


_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


def _narrow_vjp(node, g):
    _acc(node.parents[0], g, node.saved[0])


def narrow(a, key) -> Tensor:
    """Basic indexing (ints, slices, ``...``, ``None`` or a tuple of them)
    selects each element at most once, so its gradient adds into the
    selected part; any other key raises ShapeMismatch."""
    key = key if type(key) is tuple else (key,)
    for k in key:
        if not isinstance(k, _BASIC_INDEX) or isinstance(k, bool):
            raise ShapeMismatch(f"narrow: {k!r} is not a basic index")
    a = _as_tensor(a)
    return _apply(a.data[key], "narrow", (a,), _narrow_vjp, key)


def _shift_blocks(x: np.ndarray, n: int, block: int) -> np.ndarray:
    rows = x.shape[0]
    k = min(abs(n), block)
    out = np.zeros(x.shape, dtype=x.dtype)
    if n >= 0:
        out[k:] = x[:rows - k]
    else:
        out[:rows - k] = x[k:]
    if block < rows:  # clear the rows shifted in from a neighbouring block
        runs = out.reshape(rows // block, block, -1)
        if n >= 0:
            runs[:, :k] = 0.0
        else:
            runs[:, block - k:] = 0.0
    return out


def _shift_vjp(node, g):
    n, block = node.saved
    _acc(node.parents[0], _shift_blocks(g, -n, block))


def shift_rows(a, n: int, block: int | None = None) -> Tensor:
    """Rows moved down by ``n`` (up for negative ``n``) within each run
    of ``block`` consecutive rows (default: all rows as one run).  The
    rows left empty are zeros and rows pushed past the end of a run are
    dropped, so nothing crosses from one run into the next."""
    a = _as_tensor(a)
    block = a.data.shape[0] if block is None else block
    return _apply(_shift_blocks(a.data, n, block), "shift", (a,), _shift_vjp, n, block)


# -- reductions -------------------------------------------------------------


def _sum_vjp(node, g):
    a, axis = node.parents[0], node.saved[0]
    if axis is not None:
        g = np.expand_dims(g, axis)
    _acc(a, np.broadcast_to(g, a.data.shape))


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    return _apply(a.data.sum(axis=axis), "sum", (a,), _sum_vjp, axis)


def _pool(x: np.ndarray, grid_shape: tuple, axis: int) -> np.ndarray:
    """Sum of ``x`` viewed as ``grid_shape`` over ``axis``, as 2-D rows."""
    return x.reshape(grid_shape).sum(axis=axis).reshape(-1, grid_shape[-1])


def _spread(g: np.ndarray, grid_shape: tuple, axis: int) -> np.ndarray:
    """Transpose of ``_pool``: each row of ``g`` copied back over ``axis``,
    as 2-D rows."""
    copies = np.repeat(g.reshape(grid_shape[:axis] + (1, -1)), grid_shape[axis], axis=axis)
    return copies.reshape(-1, grid_shape[-1])


def _mean_vjp(node, g):
    a, (grid_shape, axis) = node.parents[0], node.saved
    s = 1.0 / grid_shape[axis]
    _acc(a, _spread(g * s, grid_shape, axis).reshape(a.data.shape))


def mean_rows(a, grid_shape: tuple, axis: int) -> Tensor:
    """Mean of ``a`` viewed as ``grid_shape`` over ``axis``, returned as
    one row per remaining grid index: a (B, T, K, h) grid pooled over
    frames (axis 1) gives (B * K, h)."""
    a = _as_tensor(a)
    out = _pool(a.data, grid_shape, axis) * (1.0 / grid_shape[axis])
    return _apply(out, "mean", (a,), _mean_vjp, grid_shape, axis)


def _spread_vjp(node, g):
    _acc(node.parents[0], _pool(g, *node.saved))


def spread_rows(a, grid_shape: tuple, axis: int) -> Tensor:
    """Transpose of ``mean_rows`` without the scale: each row of ``a``
    copied over ``axis`` of ``grid_shape``, one row per grid index.  Over
    frames (axis 1) of a (B, T, K, h) grid, (B * K, h) rows tile each
    window's K rows T times; over bones (axis 2), (B * T, h) rows repeat."""
    a = _as_tensor(a)
    return _apply(_spread(a.data, grid_shape, axis), "spread", (a,), _spread_vjp,
                  grid_shape, axis)


def _l2norm_vjp(node, g):
    a, axis = node.parents[0], node.saved[0]
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
    return _apply(np.sqrt((a.data * a.data).sum(axis=axis)), "l2norm", (a,), _l2norm_vjp,
                  axis)


# -- nonlinearities ---------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_vjp(node, g):
    _acc(node.parents[0], g * node.data * (1.0 - node.data))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    return _apply(_sigmoid(a.data), "sigmoid", (a,), _sigmoid_vjp)


def _tanh_vjp(node, g):
    _acc(node.parents[0], g * (1.0 - node.data * node.data))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    return _apply(np.tanh(a.data), "tanh", (a,), _tanh_vjp)


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


def _gated_forward(pre: np.ndarray, sources: list):
    """(gates, candidate, c, tanh(c), h) of a gated cell."""
    n = len(sources) + 1
    d = pre.shape[1] // (n + 2)
    s = _sigmoid(pre[:, :(n + 1) * d])
    cand = np.tanh(pre[:, (n + 1) * d:])
    inputs = [cand, *sources]
    c = _tree_sum(s[:, k * d:(k + 1) * d] * inputs[k] for k in range(n))
    tc = np.tanh(c)
    return s, cand, c, tc, s[:, n * d:] * tc


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


def _gated_vjp(node, grad):
    pre, *sources = node.parents
    s, cand, tc = node.saved
    dpre, dsources = _gated_backward(grad, s, cand, [t.data for t in sources], tc)
    _acc(pre, dpre)
    for t, g in zip(sources, dsources):
        _acc(t, g)


def gated_cell(pre, sources) -> tuple[Tensor, Tensor]:
    """A gated cell over ``sources`` (each (rows, hidden)); returns (h, c).

    ``pre`` is (rows, (len(sources) + 3) * hidden), laid out as in the
    section comment above.
    """
    pre = _as_tensor(pre)
    sources = list(map(_as_tensor, sources))
    s, cand, c, tc, h = _gated_forward(pre.data, [t.data for t in sources])
    return _apply((h, c), "gated_cell", (pre, *sources), _gated_vjp, s, cand, tc)


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
    x, h, c, w, b = map(_as_tensor, (x, h, c, w, b))
    xh = np.concatenate([x.data, h.data], axis=1)
    s, cand, c_new, tc, h_new = _gated_forward(xh @ w.data + b.data, [c.data])
    return _apply((h_new, c_new), "lstm_cell", (x, h, c, w, b), _lstm_vjp, xh, s, cand, tc)


def _pooled_vjp(node, grad):
    h, c, g_prev, c_prev, g_rows, w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = node.parents
    cell, h_mean, f, out, tc, grid_shape, axis = node.saved
    d = out.shape[1]
    gg, gc = grad[:, :d], grad[:, d:]
    dc = gc + gg * out * (1.0 - tc * tc)
    _acc(c_prev, dc * f)
    d_f = dc * c_prev.data * f * (1.0 - f)
    d_o = gg * tc * out * (1.0 - out)
    for dz, tw, tz, tb in ((d_f, w_f, z_f, b_f), (d_o, w_o, z_o, b_o)):
        _acc(tw, h_mean.T @ dz)
        _acc(tz, g_prev.data.T @ dz)
        _acc(tb, dz)
        _acc(g_prev, dz @ tz.data.T)
    d_mean = (d_f @ w_f.data.T + d_o @ w_o.data.T) * (1.0 / grid_shape[axis])
    spread = _spread(dc, grid_shape, axis).reshape(h.data.shape)
    _acc(c, spread * cell)
    d_cell = spread * c.data * cell * (1.0 - cell)
    _acc(w_c, h.data.T @ d_cell)
    _acc(z_c, g_rows.data.T @ d_cell)
    _acc(b_c, d_cell)
    _acc(g_rows, d_cell @ z_c.data.T)
    _acc(h, d_cell @ w_c.data.T)
    _acc(h, _spread(d_mean, grid_shape, axis).reshape(h.data.shape))


def pooled_cell(h, c, g_prev, c_prev, g_rows, weights, grid_shape,
                axis: int) -> tuple[Tensor, Tensor]:
    """A global state pooled from a grid of cells; returns the new (g, c).

    ``h`` and ``c`` are the grid's (rows, hidden) states, ``grid_shape``
    their (..., hidden) view, for example (B, T, K, hidden) for B
    windows, and the pool runs over ``axis`` of it.  ``g_prev`` and
    ``c_prev`` are the previous global states, one row per remaining
    grid index in row-major order, and ``g_rows`` is ``g_prev`` expanded
    to one row per grid cell.  ``weights`` is (w_c, z_c, b_c, w_f, z_f,
    b_f, w_o, z_o, b_o):

        cell = sigmoid(h w_c + g_rows z_c + b_c)      per grid cell
        f    = sigmoid(mean(h) w_f + g_prev z_f + b_f)
        out  = sigmoid(mean(h) w_o + g_prev z_o + b_o)
        c'   = sum(cell . c) + f . c_prev,   g' = out . tanh(c')

    with means and sums over ``axis``; values are bit-identical to the
    composition of linear, sigmoid, mul, reshape, tsum, scale, add and
    tanh that spells this out.
    """
    parents = tuple(map(_as_tensor, (h, c, g_prev, c_prev, g_rows, *weights)))
    h, c, g_prev, c_prev, g_rows, w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = (
        t.data for t in parents)
    cell = _sigmoid((h @ w_c + g_rows @ z_c) + b_c)
    contrib = _pool(cell * c, grid_shape, axis)
    h_mean = _pool(h, grid_shape, axis) * (1.0 / grid_shape[axis])
    f = _sigmoid((h_mean @ w_f + g_prev @ z_f) + b_f)
    out = _sigmoid((h_mean @ w_o + g_prev @ z_o) + b_o)
    c_new = contrib + f * c_prev
    tc = np.tanh(c_new)
    return _apply((out * tc, c_new), "pooled_cell", parents, _pooled_vjp,
                  cell, h_mean, f, out, tc, grid_shape, axis)


# -- tape walk --------------------------------------------------------------


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
        node.grad = None
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
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


# -- gradient checking ------------------------------------------------------


class GradCheckReport:
    """Outcome of comparing tape gradients against central differences."""

    def __init__(self, max_rel_error, per_leaf, skipped):
        self.max_rel_error = max_rel_error
        self.per_leaf = per_leaf          # name -> worst relative error
        self.skipped = skipped            # (name, flat index) of NaN/inf grads

    def __repr__(self) -> str:
        return (
            f"GradCheckReport(max_rel_error={self.max_rel_error!r}, "
            f"skipped={len(self.skipped)})"
        )


# Central differences in float64 carry cancellation noise of roughly
# |f| * eps / (2 * step); at step 1e-5 that floor sits near 5e-12 and
# swamps gradient components below ~1e-7.  Components flagged by the
# float64 sweep are re-probed in extended precision when the platform
# long double is actually wider than double (x86-64 yes, arm64 no).
_REFINE_AVAILABLE = np.finfo(np.longdouble).eps < 1e-18


def _refine_fd(f, leaf: Tensor, index: int, step: float) -> float:
    """Re-evaluate one central difference with the probed leaf widened.

    Rounding error upstream of the perturbed component is identical in
    both evaluations and cancels in fp - fm; widening just this leaf
    promotes everything downstream of it, which is the only part of the
    computation where the two runs differ.
    """
    original = leaf.data
    leaf.data = original.astype(np.longdouble)
    flat = leaf.data.reshape(-1)
    base = flat[index]
    try:
        flat[index] = base + step
        fp = f().data
        flat[index] = base - step
        fm = f().data
    finally:
        leaf.data = original
    return float((fp - fm) / (2.0 * np.longdouble(step)))


def grad_check(
    f,
    leaves: dict[str, Tensor],
    step: float = 1e-5,
    refine_threshold: float | None = 2e-5,
) -> GradCheckReport:
    """Compare tape gradients of ``f()`` against central differences.

    ``f`` must rebuild its tape from the current leaf values on every
    call.  Each leaf component is perturbed by +-step in place and the
    relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    Components whose analytic gradient is NaN or inf are reported in
    ``skipped`` rather than compared: the function is not differentiable
    there.

    A float64 difference quotient is noise-limited once the component is
    small, so any component whose relative error exceeds
    ``refine_threshold`` is re-measured in extended precision before it
    is scored.  Pass ``refine_threshold=None`` to keep the raw float64
    numbers.
    """
    out = f()
    backward(out, leaves=leaves.values())
    analytic = {name: t.grad.copy() for name, t in leaves.items()}
    per_leaf: dict[str, float] = {}
    skipped: list[tuple[str, int]] = []
    worst = 0.0
    refine = refine_threshold is not None and _REFINE_AVAILABLE
    with no_grad():
        for name, t in leaves.items():
            flat = t.data.reshape(-1)
            aflat = analytic[name].reshape(-1)
            leaf_worst = 0.0
            for i in range(flat.size):
                a = aflat[i]
                if not np.isfinite(a):
                    skipped.append((name, i))
                    continue
                orig = flat[i]
                flat[i] = orig + step
                fp = float(f().data)
                flat[i] = orig - step
                fm = float(f().data)
                flat[i] = orig
                fd = (fp - fm) / (2.0 * step)
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                if refine and err > refine_threshold:
                    fd = _refine_fd(f, t, i, step)
                    err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                if err > leaf_worst:
                    leaf_worst = err
            per_leaf[name] = leaf_worst
            if leaf_worst > worst:
                worst = leaf_worst
    return GradCheckReport(worst, per_leaf, skipped)
