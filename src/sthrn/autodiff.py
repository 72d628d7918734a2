"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each operation returns a new ``Tensor`` whose value one module-level
forward function computes eagerly from the op's static arguments and
its parents' arrays.  An op checks its operands and hands its parents,
vjp, forward and static arguments to ``_apply``, which runs the
forward and decides what the result is: while gradients are enabled, a
tape node recording the op's parents, its forward, its vjp and the
values the vjp needs; inside ``no_grad()``, a bare value with no
parents.  The ops are the only way to make a tape value.

``backward`` walks the tape once, in reverse topological order, from a
scalar root, and every vjp adds its gradients into the parents through
``_acc``, with one exception: an LSTM cell reads its leaf weight at
every step, so its vjp hands the walk the pair ([x | h], d
pre-activation) instead (``_defer``), and the walk adds the leaf's
pairs as one matmul, or one per stack of as many rows as the weight
has (``_flush``).  ``grad_check`` re-runs the recorded forwards of the
nodes a perturbed leaf reaches instead of the whole function, for a
batch of probes on a leading axis per pass (``_cone`` and
``_replay``), in float64 and again in long double for the components
it refines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    """A float64 array plus its place on the tape; it has no arithmetic:
    the ops build every new value.

    ``op`` is "leaf" for a tensor built directly (a parameter, or a
    value-only result), "const" for an array an op took as an operand,
    or else the op that made this tape node.  A node holds its
    ``parents``, the forward ``fwd`` and static ``args`` that made its
    value, ``fwd(*args, *parent arrays)``, its ``vjp`` and the values
    the vjp reads (``saved``).  ``backward`` gives leaves a ``grad``,
    never consts, and leaves None on interior nodes, which are rebuilt
    every forward pass.
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

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


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
    """``np.concatenate`` along ``axis``, in C order and the arrays'
    result dtype.  In a replay pass some arrays carry a leading probe
    axis and the rest, which the probed leaf does not reach, are
    broadcast across it as they are written into their part of the
    result; ``axis`` then counts from the last axis.  A sum over an
    array laid out otherwise than in C order adds in another order."""
    if len({a.ndim for a in arrays}) == 1:
        return np.ascontiguousarray(np.concatenate(arrays, axis=axis))
    shape = list(max(arrays, key=np.ndim).shape)
    shape[axis] = sum(a.shape[axis] for a in arrays)
    out = np.empty(shape, np.result_type(*arrays))
    lo, tail = 0, (slice(None),) * (-axis - 1)
    for a in arrays:
        out[(..., slice(lo, lo + a.shape[axis]), *tail)] = a
        lo += a.shape[axis]
    return out


def _value(out):
    """A forward's result as a node's value: a cell's (h, c, *saved)
    becomes [h | c]."""
    return _cat(out[:2], -1) if type(out) is tuple else out


def _apply(op: str, parents: tuple, vjp, fwd, *args):
    """Run ``fwd(*args, *parent arrays)`` and return its value as a tape
    node, or inside ``no_grad()`` as a bare Tensor with no parents: the
    one place where a value is made and where that is decided.  The node
    keeps ``fwd`` and ``args``, so replay re-runs the very forward that
    made it.

    ``vjp(node, g)`` adds the op's gradients into ``node.parents``
    through ``_acc`` (or ``_defer``), reading ``node.args`` and
    ``node.saved``.  A fused cell's forward returns (h, c, *saved) and
    the cell comes back as an (h, c) pair: taped, one node holds
    [h | c], keeps the rest as ``saved``, and the two states are
    narrows of it.
    """
    out = fwd(*args, *[p.data for p in parents])
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


# Leaf weights whose products the walk adds later: id -> [leaf, rows,
# xs, dzs], the pairs (x, dz) of its deferred x.T @ dz in walk order.
_deferred: dict[int, list] = {}


def _defer(w: Tensor, x: np.ndarray, dz: np.ndarray) -> None:
    """Add ``x.T @ dz`` into ``w``: at once if ``w`` is a tape node,
    whose own vjp reads its gradient during the walk; else keep the pair.
    A leaf's kept pairs are added as one product once they stack to as
    many rows as ``w`` has, and the rest by ``_flush``: a weight read at
    each of T steps costs one product per ``w``-high stack, not T
    weight-sized products and adds, and its pairs never hold more rows
    than it has."""
    if w.vjp is not None:
        _acc(w, x.T @ dz)
        return
    entry = _deferred.setdefault(id(w), [w, 0, [], []])
    entry[1] += x.shape[0]
    entry[2].append(x)
    entry[3].append(dz)
    if entry[1] >= w.data.shape[0]:
        del _deferred[id(w)]
        _acc(w, np.concatenate(entry[2]).T @ np.concatenate(entry[3]))


def _flush() -> None:
    """Add every leaf's kept pairs, one product per leaf, and drop them.
    Whatever runs vjps calls it when it stops, also when a vjp raised,
    so no pair outlives its walk."""
    pending = list(_deferred.values())
    _deferred.clear()
    for w, _, xs, dzs in pending:
        _acc(w, np.concatenate(xs).T @ np.concatenate(dzs))


# -- arithmetic -------------------------------------------------------------
#
# The binary ops' forwards are numpy's own ufuncs: ``a + b`` is np.add.


def _add_vjp(node, g):
    a, b = node.parents
    _acc(a, g)
    _acc(b, g)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply("add", (a, b), _add_vjp, np.add)


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


def _mul_vjp(node, g):
    a, b = node.parents
    _acc(a, g * b.data)
    _acc(b, g * a.data)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _apply("mul", (a, b), _mul_vjp, np.multiply)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")


def _affine(x, w, b):
    return x @ w + b


def _linear_vjp(node, g):
    x, w, b = node.parents
    _acc(x, g @ w.data.T)
    _acc(w, x.data.T @ g)
    _acc(b, g)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, ``b`` broadcast as in ``add``."""
    x, w, b = parents = tuple(map(_as_tensor, (x, w, b)))
    _check_matmul(x, w)
    return _apply("linear", parents, _linear_vjp, _affine)


# -- shape ------------------------------------------------------------------


def _from_last(axis: int, nd: int, error=IndexError) -> int:
    """``axis`` of an ``nd``-axis operand counted from the last axis, as a
    forward records it, or ``error`` if the operand has no such axis."""
    if not -nd <= axis < nd:
        raise error(f"axis {axis} is out of range for {nd} axes")
    return axis % nd - nd


def _reshape_fwd(nd, shape, a):
    return a.reshape(a.shape[:a.ndim - nd] + shape)


def _reshape_vjp(node, g):
    a = node.parents[0]
    _acc(a, g.reshape(a.data.shape))


def reshape(a, shape: tuple) -> Tensor:
    a = _as_tensor(a)
    return _apply("reshape", (a,), _reshape_vjp, _reshape_fwd, a.data.ndim, tuple(shape))


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
    """``parts`` joined along ``axis``; a single part is returned as it is."""
    parts = tuple(map(_as_tensor, parts))
    if len({p.data.ndim for p in parts}) != 1:  # _cat would broadcast the lower rank
        raise ShapeMismatch(f"concat: {[p.data.shape for p in parts]}")
    axis = _from_last(axis, parts[0].data.ndim, ShapeMismatch)
    return parts[0] if len(parts) == 1 else _apply("concat", parts, _concat_vjp, _concat_fwd, axis)


def _narrow_fwd(nd, key, a):
    return a[(slice(None),) * (a.ndim - nd) + key]


def _narrow_vjp(node, g):
    _acc(node.parents[0], g, node.args[1])


def _narrow(a: Tensor, key: tuple) -> Tensor:
    """``a[key]`` for a tuple of basic indices (ints, slices, ``...``,
    ``None``), which select each element at most once, so its gradient
    adds into the selected part."""
    return _apply("narrow", (a,), _narrow_vjp, _narrow_fwd, a.data.ndim, key)


# -- reductions -------------------------------------------------------------


def _sum_fwd(axis, a):
    return a.sum(axis=axis)


def _sum_vjp(node, g):
    a = node.parents[0]
    _acc(a, np.broadcast_to(np.expand_dims(g, node.args[0]), a.data.shape))


def tsum(a, axis: int | None = None) -> Tensor:
    """Sum along one axis, or over all of them."""
    a = _as_tensor(a)
    nd = a.data.ndim
    axis = tuple(range(-nd, 0)) if axis is None else _from_last(axis, nd)
    return _apply("sum", (a,), _sum_vjp, _sum_fwd, axis)


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
    return _apply("l2norm", (a,), _l2norm_vjp, _l2norm_fwd, _from_last(axis, a.data.ndim))


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
    return _apply("wrap", (_as_tensor(a),), _wrap_vjp, _wrap_fwd)


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
    _defer(w, xh, dz)
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
    return _apply("lstm_cell", tuple(map(_as_tensor, (x, h, c, w, b))), _lstm_vjp, _lstm_fwd)


def _pooled_fwd(grid_shape, axis, h, c, g_prev, c_prev, w, b):
    """(g, c, cell gates, mean h, forget gate, out gate, tanh(c)) of a
    pooled cell."""
    n = h.shape[-1]
    g_part = g_prev @ w[..., n:, :]  # every gate's g_prev product, at pooled rows
    cell = _sigmoid((h @ w[..., :n, :n] + _spread(grid_shape, axis, g_part[..., :n]))
                    + b[..., :n])
    h_mean = _pool(grid_shape, axis, h) * (1.0 / grid_shape[axis])
    fo = _sigmoid((h_mean @ w[..., :n, n:] + g_part[..., n:]) + b[..., n:])
    f, out = fo[..., :n], fo[..., n:]
    c_new = _pool(grid_shape, axis, cell * c) + f * c_prev
    tc = np.tanh(c_new)
    return out * tc, c_new, cell, h_mean, f, out, tc


def _pooled_vjp(node, grad):
    h, c, g_prev, c_prev, w, b = node.parents
    grid_shape, axis = node.args
    cell, h_mean, f, out, tc = node.saved
    n = out.shape[1]
    gg, gc = grad[:, :n], grad[:, n:]
    dc = gc + gg * out * (1.0 - tc * tc)
    d_fo = np.concatenate([dc * c_prev.data * f * (1.0 - f), gg * tc * out * (1.0 - out)], axis=1)
    spread = _spread(grid_shape, axis, dc).reshape(h.data.shape)
    d_cell = spread * c.data * cell * (1.0 - cell)
    # the three gates' pre-activation gradients at pooled rows, as g_prev
    # and the bias read them
    d_pooled = np.concatenate([_pool(grid_shape, axis, d_cell), d_fo], axis=1)
    wc, wfo, z = w.data[:n, :n], w.data[:n, n:], w.data[n:]
    d_mean = (d_fo @ wfo.T) * (1.0 / grid_shape[axis])
    _acc(h, d_cell @ wc.T + _spread(grid_shape, axis, d_mean).reshape(h.data.shape))
    _acc(c, spread * cell)
    _acc(g_prev, d_pooled @ z.T)
    _acc(c_prev, dc * f)
    _acc(w, np.concatenate([np.concatenate([h.data.T @ d_cell, h_mean.T @ d_fo], axis=1),
                            g_prev.data.T @ d_pooled]))
    _acc(b, d_pooled)


def pooled_cell(h, c, g_prev, c_prev, w, b, grid_shape, axis: int) -> tuple[Tensor, Tensor]:
    """A global state pooled from a grid of cells; returns the new (g, c).

    ``h`` and ``c`` are the grid's (rows, n) states, ``grid_shape``
    their (..., n) view, for example (B, T, K, n) for B windows, and the
    pool runs over ``axis`` of it.  ``g_prev`` and ``c_prev`` are the
    previous global states, one row per remaining grid index in
    row-major order.  ``w`` is the (2n, 3n) stack [[w_c, w_f, w_o], [z_c,
    z_f, z_o]] and ``b`` the (3n,) bias [b_c, b_f, b_o], both built once
    for all of an encoder's layers:

        [zc | zf | zo] = g_prev [z_c, z_f, z_o]         per global row
        cell = sigmoid(h w_c + spread(zc) + b_c)        per grid cell
        [f | out] = sigmoid(mean(h) [w_f, w_o] + [zf | zo] + [b_f, b_o])
        c'   = sum(cell . c) + f . c_prev,   g' = out . tanh(c')

    with means and sums over ``axis`` and ``spread`` copying each global
    row back over it: ``g_prev`` is multiplied once, at pooled rows.
    The vjp likewise pools the cell gate's gradient before its products
    with ``g_prev`` and the bias, so those gradients differ from the
    per-cell composition's at round-off.
    """
    parents = tuple(map(_as_tensor, (h, c, g_prev, c_prev, w, b)))
    return _apply("pooled_cell", parents, _pooled_vjp, _pooled_fwd, grid_shape, axis)


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


def _grid_block(grid_shape, sp_mask, p, h, g_s, g_t) -> np.ndarray:
    """Each grid row's sources side by side, [p | h_left | h_right | h |
    h_sp | gs_rows | gt_rows], in the operands' dtype: the rows that
    the stacked gate weights multiply."""
    h_left, h_right, h_sp = _grid_sources(grid_shape, sp_mask, h)
    return _cat([p, h_left, h_right, h, h_sp, *_grid_globals(grid_shape, g_s, g_t)], -1)


def _grid_fwd(grid_shape, sp_mask, h, c, p, g_s, g_t, w, b, c_gs, c_gt):
    """(h, c, gates, candidate, tanh(c)) of an encoder layer's grid cells."""
    pre = _grid_block(grid_shape, sp_mask, p, h, g_s, g_t) @ w + b
    c_left, c_right, c_sp = _grid_sources(grid_shape, sp_mask, c)
    return _gated_fwd(pre, c_left, c, c_right, c_sp, *_grid_globals(grid_shape, c_gs, c_gt))


def _grid_vjp(node, grad):
    h, c, p, g_s, g_t, w, b, c_gs, c_gt = node.parents
    grid_shape, sp_mask = node.args
    s, cand, tc = node.saved
    c_left, c_right, c_sp = _grid_sources(grid_shape, sp_mask, c.data)
    dpre, (dc_left, dc_same, dc_right, dc_sp, dcgs, dcgt) = _gated_backward(
        grad, s, cand, [c_left, c.data, c_right, c_sp,
                        *_grid_globals(grid_shape, c_gs.data, c_gt.data)], tc)
    # each parent's gradients in the order the walk of the composition
    # this op replaces added them, since h is c (and g_s is c_gs) at the
    # first layer: the cell's own c, the weight and the bias, the
    # block's p and h, h through its three shifts, c through its shifts,
    # and last each global state through its spread
    _acc(c, dc_same)
    _acc(w, _grid_block(grid_shape, sp_mask, p.data, h.data, g_s.data, g_t.data).T @ dpre)
    _acc(b, dpre)
    src_bounds = p.data.shape[1] + h.data.shape[1] * np.arange(6)  # p | l | r | h | sp | gs | gt
    d_p, d_left, d_right, d_self, d_sp, d_gs, d_gt = np.split(dpre @ w.data.T, src_bounds, axis=1)
    _acc(p, d_p)
    _acc(h, d_self)
    for g in _grid_sources_vjp(grid_shape, sp_mask, d_left, d_right, d_sp):
        _acc(h, g)
    for g in _grid_sources_vjp(grid_shape, sp_mask, dc_left, dc_right, dc_sp):
        _acc(c, g)
    for state, g, axis in ((g_s, d_gs, 2), (g_t, d_gt, 1), (c_gs, dcgs, 2), (c_gt, dcgt, 1)):
        _acc(state, _pool(grid_shape, axis, g))


def grid_cell(h, c, p, g_s, g_t, w, b, c_gs, c_gt, grid_shape,
              sp_mask) -> tuple[Tensor, Tensor]:
    """One encoder layer's update of every cell of a (B, T, K, hidden)
    ``grid_shape`` grid with (rows, hidden) states ``h``, ``c`` and
    (rows, 3) inputs ``p``; returns (h, c):

        block = [p | h_left | h_right | h | h_sp | gs_rows | gt_rows]
        pre = block w + b
        (h', c') = gated cell of pre over [c_left, c, c_right, c_sp, cgs_rows, cgt_rows]

    ``w`` is the (3 + 6 * hidden, 9 * hidden) stack of the gate weights
    on p, on the neighbour triple, on h_sp, on gs and on gt, in the
    block's row order, and ``b`` the (9 * hidden,) bias, both built once
    for all of an encoder's layers; the global states
    ``g_s``, ``c_gs`` (B*T, hidden) and ``g_t``, ``c_gt`` (B*K, hidden)
    enter as ``*_rows``, spread to one row per cell, and left, right and
    sp are the sources of ``_grid_sources``, with ``sp_mask`` (rows, 1)
    0 at chain heads.  Values and gradients are bit-identical to that
    composition with one spread node per global state; the node saves
    the gates, the candidate and tanh(c'), and its vjp recomputes the
    block and the shifted and spread copies of c.
    """
    parents = tuple(map(_as_tensor, (h, c, p, g_s, g_t, w, b, c_gs, c_gt)))
    return _apply("grid_cell", parents, _grid_vjp, _grid_fwd, grid_shape, sp_mask)


# -- tape walk --------------------------------------------------------------


def _tape_order(root: Tensor) -> list[Tensor]:
    """Every tensor ``root`` depends on, each after its parents, ``root``
    last."""
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
    return order


def backward(root: Tensor, leaves=(), grads=None) -> list[Tensor]:
    """Populate ``.grad`` on the tensors that ``root`` depends on.

    After the walk, every leaf the root depends on (a tensor with no
    vjp that is not a const, such as a parameter) and every tensor in
    ``leaves`` holds its gradient; consts and interior nodes end with
    ``grad = None``.  A tensor in ``leaves`` starts the walk with a
    zero gradient: a fresh array on each call or, when ``grads`` is
    given, its entry there; ``grads`` holds one zeroed array per leaf,
    in the same order and shapes, such as the leaves' views of one flat
    gradient buffer.  Any other buffer is allocated by the first vjp
    that writes into it (``_acc``) and an interior node's is released
    once its own vjp has run.  A leaf LSTM weight is the exception: its
    vjps defer their products (``_defer``), and ``_flush`` adds those
    still kept after the last vjp, also when a vjp raises.  The tape is
    left intact, so repeated calls from the same root give identical
    results.  Tensors in ``leaves`` that the root does not depend on
    keep zero gradients.  Returns the tape it walked, in ``_tape_order``.
    """
    if root.data.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.data.shape}")
    leaves = tuple(leaves)
    keep = {id(leaf) for leaf in leaves}
    order = _tape_order(root)
    for node in order:
        node.grad = None
    fresh = (np.zeros_like(leaf.data) for leaf in leaves)
    for leaf, g in zip(leaves, fresh if grads is None else grads, strict=True):
        leaf.grad = g
    root.grad = np.ones_like(root.data)
    try:
        for node in reversed(order):
            if node.vjp is None:
                continue
            node.vjp(node, node.grad)
            if id(node) not in keep:
                node.grad = None
    finally:
        _flush()
    return order


# -- re-evaluating a recorded tape ------------------------------------------
#
# A replay pass re-runs one leaf's cone for P probes at once.  The leaf's
# probed values are stacked on a leading probe axis, and each cone node
# runs its recorded forward once, on its parents' values: with the probe
# axis where the leaf reaches the parent, as recorded otherwise.  Numpy
# runs an elementwise op or a matmul over the probe axis one slice at a
# time, so each probe's values equal, bit for bit, those of one
# unbatched forward.  A parent the leaf reaches enters a node as
# (P, *its recorded shape), padded with ones to the rank of the node's
# widest parent: a (4h,) bias is probed as (P, 1, 4h).  Every forward
# is written over trailing axes, so it runs unchanged on the probe axis:
# axis arguments count from the last axis, and ``reshape`` and
# ``narrow`` record their operand's rank and act on that many trailing
# axes.

# A float64 probe holds its stacked copy of the leaf and its cone's
# values, counted at twice the cone's recorded bytes for the forwards'
# temporaries, so a float64 pass takes as many probes as this budget
# over their sum allows, and at least two.  A sweep in a wider dtype
# scales that by 8 bytes over its width: half as many in a 16-byte long
# double.  Counting the copies keeps a pass near the budget whatever the
# leaf's size (a 2,048-value leaf read by one ``tsum`` peaks at 1.6 MB,
# where one pass sized by the cone alone held 64 MB), and it pays because
# the budget was raised with it, from 256 KB to 1.5 MB: the criterion-4
# fixture's passes hold 22 to 112 probes and peak at 1.26 MB at most.
_PASS_BYTES = 3 << 19


def _cone(order: list[Tensor], leaf: Tensor):
    """The nodes of ``order`` that depend on ``leaf`` as replay steps, in
    tape order, and how many components of the leaf one float64 pass
    probes: ``_PASS_BYTES`` over the bytes of two probes, each the
    leaf's stacked copy and twice the steps' recorded bytes.

    A step is (forward, static args, parent arrays, [(parent position,
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
        nd = max(p.data.ndim for p in node.parents)
        inputs = []
        for i, k in hits:
            shape = node.parents[i].data.shape
            inputs.append((i, k, (-1, *(1,) * (nd - len(shape)), *shape)))
            last_read[k] = len(steps)
        value_of[id(node)] = len(steps) + 1
        steps.append((node.fwd, node.args, [p.data for p in node.parents], inputs, []))
        nbytes += node.data.nbytes
    for k, j in last_read.items():
        steps[j][-1].append(k)
    return steps, max(1, _PASS_BYTES // (2 * (leaf.data.nbytes + 2 * nbytes)))


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
    for fwd, args, arrays, inputs, done in steps:
        arrays = arrays.copy()
        for i, k, shape in inputs:
            arrays[i] = vals[k].reshape(shape)
        vals.append(_value(fwd(*args, *arrays)))
        for k in done:
            vals[k] = None
    if steps or root is leaf:
        return vals[-1].reshape(P)
    return np.repeat(root.data.reshape(-1), P)


# -- gradient checking ------------------------------------------------------


@dataclass(repr=False)
class GradCheckReport:
    """Outcome of comparing tape gradients against central differences,
    and what the comparison cost."""

    max_rel_error: float
    per_leaf: dict[str, float]        # name -> worst relative error
    skipped: list[tuple[str, int]]    # (name, flat index) of NaN/inf grads
    forward_calls: int                # calls of f(), the taped one included
    replays: int                      # losses re-evaluated on the recorded tape
    passes: int                       # batched replay passes that made them
    fallbacks: int                    # leaves probed by calling f() alone
    refined: int                      # components re-probed in extended precision
    seconds: float                    # wall time of the whole check

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
    dtype or differ from f()'s at a guard at all, or a pass raises, the
    sweep measures the other components by calling ``f()`` too, and so
    does the extended sweep of a leaf whose float64 sweep fell back; the
    leaf counts once as a fallback.
    """
    start = time.perf_counter()
    out = f()
    order = backward(out, leaves=leaves.values())
    analytic = {name: t.grad.copy() for name, t in leaves.items()}
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
            except (ValueError, IndexError):
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
