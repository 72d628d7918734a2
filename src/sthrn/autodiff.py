"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each operation returns a new ``Tensor`` whose value is computed
eagerly; when gradients are enabled the output also records its parent
tensors and a closure that accumulates vector-Jacobian products into
them.  ``backward`` walks that dynamic tape once, in reverse
topological order, from a scalar root.  Inside ``no_grad()`` the same
operations run value-only, which is what finite-difference probing
uses.
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

    ``grad`` is populated by ``backward``, which leaves it None on
    interior nodes; leaves kept in a model are long-lived while interior
    nodes are rebuilt every forward pass.
    """

    __slots__ = ("data", "grad", "op", "parents", "vjp")

    def __init__(self, data, op: str = "leaf", parents: tuple = (), vjp=None):
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


def _acc(t: Tensor, g: np.ndarray) -> None:
    t.grad += _unbroadcast(g, t.data.shape)


# -- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        _acc(a, g)
        _acc(b, g)

    return Tensor(out_data, "add", (a, b), vjp)


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


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        _acc(a, g)
        _acc(b, -g)

    return Tensor(out_data, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return Tensor(out_data, "mul", (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data / b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        _acc(a, g / b.data)
        _acc(b, -g * out_data / b.data)

    return Tensor(out_data, "div", (a, b), vjp)


def scale(a, s: float) -> Tensor:
    """Product with a python scalar (no tape node for the scalar)."""
    a = _as_tensor(a)
    out_data = a.data * s
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += g * s

    return Tensor(out_data, "scale", (a,), vjp)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_matmul(a, b)
    out_data = a.data @ b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return Tensor(out_data, "matmul", (a, b), vjp)


def linear(terms) -> Tensor:
    """Sum of several terms as one node.

    A term is a tensor, broadcast as in ``add``, or an ``(x, w)`` pair
    standing for ``matmul(x, w)``.  Terms are added in ``_tree_sum``
    order, so ``linear([(x, w), (y, v), b])`` has exactly the value of
    ``add(add(matmul(x, w), matmul(y, v)), b)``.
    """
    pairs: list[tuple[Tensor, Tensor | None]] = []
    for term in terms:
        if isinstance(term, tuple):
            x, w = _as_tensor(term[0]), _as_tensor(term[1])
            _check_matmul(x, w)
            pairs.append((x, w))
        else:
            pairs.append((_as_tensor(term), None))
    out_data = _tree_sum(x.data if w is None else x.data @ w.data for x, w in pairs)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        for x, w in pairs:
            if w is None:
                _acc(x, g)
            else:
                x.grad += g @ w.data.T
                w.grad += x.data.T @ g

    parents = tuple(t for pair in pairs for t in pair if t is not None)
    return Tensor(out_data, "linear", parents, vjp)


# -- shape ------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += g.reshape(a.data.shape)

    return Tensor(out_data, "reshape", (a,), vjp)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeMismatch(f"concat: {[p.data.shape for p in parts]}") from exc
    if not _grad_enabled:
        return Tensor(out_data)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.grad += np.moveaxis(moved[lo:hi], 0, axis)

    return Tensor(out_data, "concat", tuple(parts), vjp)


def narrow(a, key) -> Tensor:
    """Basic (non-repeating) indexing; gradient scatters into zeros."""
    a = _as_tensor(a)
    out_data = a.data[key]
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad[key] += g

    return Tensor(out_data, "narrow", (a,), vjp)


def mask_mul(t: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise product with a constant 0/1 mask (no tape leaf)."""
    out_data = t.data * mask
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        t.grad += g * mask

    return Tensor(out_data, "mask", (t,), vjp)


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


def shift_rows(a, n: int, block: int | None = None) -> Tensor:
    """Rows moved down by ``n`` (up for negative ``n``) within each run
    of ``block`` consecutive rows (default: all rows as one run).  The
    rows left empty are zeros and rows pushed past the end of a run are
    dropped, so nothing crosses from one run into the next."""
    a = _as_tensor(a)
    block = a.data.shape[0] if block is None else block
    out_data = _shift_blocks(a.data, n, block)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += _shift_blocks(g, -n, block)

    return Tensor(out_data, "shift", (a,), vjp)


# -- reductions -------------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.grad += np.broadcast_to(g, a.data.shape)

    return Tensor(out_data, "sum", (a,), vjp)


def _pool(x: np.ndarray, grid_shape: tuple, axis: int) -> np.ndarray:
    """Sum of ``x`` viewed as ``grid_shape`` over ``axis``, as 2-D rows."""
    return x.reshape(grid_shape).sum(axis=axis).reshape(-1, grid_shape[-1])


def _spread(g: np.ndarray, grid_shape: tuple, axis: int) -> np.ndarray:
    """Transpose of ``_pool``: each row of ``g`` copied back over ``axis``,
    as 2-D rows."""
    copies = np.repeat(g.reshape(grid_shape[:axis] + (1, -1)), grid_shape[axis], axis=axis)
    return copies.reshape(-1, grid_shape[-1])


def mean_rows(a, grid_shape: tuple, axis: int) -> Tensor:
    """Mean of ``a`` viewed as ``grid_shape`` over ``axis``, returned as
    one row per remaining grid index: a (B, T, K, h) grid pooled over
    frames (axis 1) gives (B * K, h)."""
    a = _as_tensor(a)
    s = 1.0 / grid_shape[axis]
    out_data = _pool(a.data, grid_shape, axis) * s
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += _spread(g * s, grid_shape, axis).reshape(a.data.shape)

    return Tensor(out_data, "mean", (a,), vjp)


def spread_rows(a, grid_shape: tuple, axis: int) -> Tensor:
    """Transpose of ``mean_rows`` without the scale: each row of ``a``
    copied over ``axis`` of ``grid_shape``, one row per grid index.  Over
    frames (axis 1) of a (B, T, K, h) grid, (B * K, h) rows tile each
    window's K rows T times; over bones (axis 2), (B * T, h) rows repeat."""
    a = _as_tensor(a)
    out_data = _spread(a.data, grid_shape, axis)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += _pool(g, grid_shape, axis)

    return Tensor(out_data, "spread", (a,), vjp)


def l2norm(a, axis: int = -1) -> Tensor:
    """Euclidean norm along one axis.

    The gradient at an exactly zero vector is NaN by construction (the
    norm has a kink there); grad_check reports such components as
    non-differentiable instead of comparing them.  A norm the root does
    not depend on (zero incoming gradient) passes back zeros, kink or
    not: in a batch, another row's kink must not poison this one.
    """
    a = _as_tensor(a)
    out_data = np.sqrt((a.data * a.data).sum(axis=axis))
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(g == 0.0, 0.0, g / out_data)
            a.grad += np.expand_dims(ratio, axis) * a.data

    return Tensor(out_data, "l2norm", (a,), vjp)


# -- nonlinearities ---------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += g * out_data * (1.0 - out_data)

    return Tensor(out_data, "sigmoid", (a,), vjp)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    if not _grad_enabled:
        return Tensor(out_data)

    def vjp(g):
        a.grad += g * (1.0 - out_data * out_data)

    return Tensor(out_data, "tanh", (a,), vjp)


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


def _cell_outputs(h, c, op: str, parents: tuple, vjp) -> tuple[Tensor, Tensor]:
    if not _grad_enabled:
        return Tensor(h), Tensor(c)
    d = h.shape[1]
    node = Tensor(np.concatenate([h, c], axis=1), op, parents, vjp)
    return narrow(node, np.s_[:, :d]), narrow(node, np.s_[:, d:])


def gated_cell(pre, sources) -> tuple[Tensor, Tensor]:
    """A gated cell over ``sources`` (each (rows, hidden)); returns (h, c).

    ``pre`` is (rows, (len(sources) + 3) * hidden), laid out as in the
    section comment above.
    """
    pre = _as_tensor(pre)
    sources = list(map(_as_tensor, sources))
    src = [t.data for t in sources]
    s, cand, c, tc, h = _gated_forward(pre.data, src)

    def vjp(grad):
        dpre, dsources = _gated_backward(grad, s, cand, src, tc)
        pre.grad += dpre
        for t, g in zip(sources, dsources):
            _acc(t, g)

    return _cell_outputs(h, c, "gated_cell", (pre, *sources), vjp)


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
    z = xh @ w.data + b.data
    s, cand, c_new, tc, h_new = _gated_forward(z, [c.data])
    nx = x.data.shape[1]

    def vjp(grad):
        dz, (dc,) = _gated_backward(grad, s, cand, [c.data], tc)
        _acc(b, dz)
        w.grad += xh.T @ dz
        dxh = dz @ w.data.T
        x.grad += dxh[:, :nx]
        h.grad += dxh[:, nx:]
        c.grad += dc

    return _cell_outputs(h_new, c_new, "lstm_cell", (x, h, c, w, b), vjp)


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
    h, c, g_prev, c_prev, g_rows = map(_as_tensor, (h, c, g_prev, c_prev, g_rows))
    weights = tuple(map(_as_tensor, weights))
    w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = (t.data for t in weights)
    n = grid_shape[axis]
    cell = _sigmoid((h.data @ w_c + g_rows.data @ z_c) + b_c)
    contrib = _pool(cell * c.data, grid_shape, axis)
    h_mean = _pool(h.data, grid_shape, axis) * (1.0 / n)
    f = _sigmoid((h_mean @ w_f + g_prev.data @ z_f) + b_f)
    out = _sigmoid((h_mean @ w_o + g_prev.data @ z_o) + b_o)
    c_new = contrib + f * c_prev.data
    tc = np.tanh(c_new)
    g_new = out * tc

    def vjp(grad):
        tw_c, tz_c, tb_c, tw_f, tz_f, tb_f, tw_o, tz_o, tb_o = weights
        d = g_new.shape[1]
        gg, gc = grad[:, :d], grad[:, d:]
        dc = gc + gg * out * (1.0 - tc * tc)
        c_prev.grad += dc * f
        d_f = dc * c_prev.data * f * (1.0 - f)
        d_o = gg * tc * out * (1.0 - out)
        for dz, tw, tz, tb in ((d_f, tw_f, tz_f, tb_f), (d_o, tw_o, tz_o, tb_o)):
            tw.grad += h_mean.T @ dz
            tz.grad += g_prev.data.T @ dz
            _acc(tb, dz)
            g_prev.grad += dz @ tz.data.T
        d_mean = (d_f @ tw_f.data.T + d_o @ tw_o.data.T) * (1.0 / n)
        spread = _spread(dc, grid_shape, axis).reshape(h.data.shape)
        c.grad += spread * cell
        d_cell = spread * c.data * cell * (1.0 - cell)
        tw_c.grad += h.data.T @ d_cell
        tz_c.grad += g_rows.data.T @ d_cell
        _acc(tb_c, d_cell)
        g_rows.grad += d_cell @ tz_c.data.T
        h.grad += d_cell @ tw_c.data.T
        h.grad += _spread(d_mean, grid_shape, axis).reshape(h.data.shape)

    parents = (h, c, g_prev, c_prev, g_rows, *weights)
    return _cell_outputs(g_new, c_new, "pooled_cell", parents, vjp)


# -- tape walk --------------------------------------------------------------


def backward(root: Tensor, leaves=()) -> None:
    """Populate ``.grad`` on the tensors that ``root`` depends on.

    After the walk, tensors without a vjp (parameters, inputs, consts)
    and every tensor in ``leaves`` hold their gradient; interior nodes
    end with ``grad = None``.  A node's buffer is allocated just before
    the first vjp writes into it and released once its own vjp has run.
    Gradients are freshly assigned on each call and the tape is left
    intact, so repeated calls from the same root give identical
    results.  Tensors in ``leaves`` that the root does not depend on
    get zero gradients instead of None.
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
        for parent in node.parents:
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
        node.vjp(node.grad)
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
