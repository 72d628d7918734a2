"""Tape ops the package no longer has, kept as test oracles.

``sthrn.autodiff.grid_cell`` fuses one encoder layer's composition of
``spread_rows`` of each global state, ``shift_rows``, ``mul`` by the
chain-head mask, ``concat``, ``linear`` and ``gated_cell`` into one
node, and ``sthrn.autodiff.pooled_cell`` a ``spread_rows`` of the
previous global state and the op-by-op global update.  Those
compositions, and the ones that the LSTM cell and ``wrap_rows``
replace, also take ``sigmoid``, ``tanh`` and ``div`` nodes; the
composed grid cell's ``linear`` adds its six terms at one node, so
that ``grid_cell``'s gradients match its vjp's order of adds.  The ops
below are those of the compositions, built the way the package builds
its own ops (through ``_apply`` and ``_acc``).
``composed_grid_cell`` and ``unfused_pooled`` spell the two cells out
with them, taking the spread global states as arguments, and
``composed_encode`` is the encoder built from them, with one spread
node per global state that the grid cell and the pooled cell share,
as before the fusion.
"""

import numpy as np

import sthrn.autodiff as ad
from sthrn.encoder import EncoderState, _fused_gate_params, init_states


def _sigmoid_vjp(node, g):
    ad._acc(node.parents[0], g * node.data * (1.0 - node.data))


def sigmoid(a):
    a = ad._as_tensor(a)
    return ad._apply(ad._sigmoid(a.data), "sigmoid", (a,), _sigmoid_vjp, ad._sigmoid)


def _tanh_vjp(node, g):
    ad._acc(node.parents[0], g * (1.0 - node.data * node.data))


def tanh(a):
    a = ad._as_tensor(a)
    return ad._apply(np.tanh(a.data), "tanh", (a,), _tanh_vjp, np.tanh)


def _div_vjp(node, g):
    a, b = node.parents
    ad._acc(a, g / b.data)
    ad._acc(b, -g * node.data / b.data)


def div(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    return ad._apply(np.true_divide(a.data, b.data), "div", (a, b), _div_vjp, np.true_divide)


def _linear_fwd(pairs, *arrays):
    """``pairs[k]`` says whether term k is a product of the next two
    arrays or the next array alone."""
    it = iter(arrays)
    return ad._tree_sum(next(it) @ next(it) if pair else next(it) for pair in pairs)


def _linear_vjp(node, g):
    it = iter(node.parents)
    for pair in node.args[0]:
        x = next(it)
        if pair:
            w = next(it)
            ad._acc(x, g @ w.data.T)
            ad._acc(w, x.data.T @ g)
        else:
            ad._acc(x, g)


def linear(terms):
    """Sum of several terms as one node.

    A term is a tensor, broadcast as in ``add``, or an ``(x, w)`` pair
    standing for ``matmul(x, w)``.  Terms are added in ``_tree_sum``
    order, so ``linear([(x, w), (y, v), b])`` has exactly the value of
    ``add(add(matmul(x, w), matmul(y, v)), b)``.
    """
    pairs, parents = [], []
    for term in terms:
        pair = isinstance(term, tuple)
        operands = tuple(map(ad._as_tensor, term if pair else (term,)))
        if pair:
            ad._check_matmul(*operands)
        parents += operands
        pairs.append(pair)
    pairs = tuple(pairs)
    return ad._apply(_linear_fwd(pairs, *[t.data for t in parents]), "linear", tuple(parents),
                     _linear_vjp, _linear_fwd, pairs)


def _spread_vjp(node, g):
    ad._acc(node.parents[0], ad._pool(*node.args, g))


def spread_rows(a, grid_shape: tuple, axis: int):
    """Transpose of ``mean_rows`` without the scale: each row of ``a``
    copied over ``axis`` of ``grid_shape``, one row per grid index."""
    a = ad._as_tensor(a)
    return ad._apply(ad._spread(grid_shape, axis, a.data), "spread", (a,), _spread_vjp,
                     ad._spread, grid_shape, axis)


def _shift_vjp(node, g):
    n, block = node.args
    ad._acc(node.parents[0], ad._shift_blocks(-n, block, g))


def shift_rows(a, n: int, block: int | None = None):
    """Rows moved down by ``n`` (up for negative ``n``) within each run
    of ``block`` consecutive rows (default: all rows as one run)."""
    a = ad._as_tensor(a)
    block = a.data.shape[0] if block is None else block
    return ad._apply(ad._shift_blocks(n, block, a.data), "shift", (a,), _shift_vjp,
                     ad._shift_blocks, n, block)


def _gated_vjp(node, grad):
    pre, *sources = node.parents
    s, cand, tc = node.saved
    dpre, dsources = ad._gated_backward(grad, s, cand, [t.data for t in sources], tc)
    ad._acc(pre, dpre)
    for t, g in zip(sources, dsources):
        ad._acc(t, g)


def gated_cell(pre, sources):
    """A gated cell over ``sources`` (each (rows, hidden)); returns (h, c).
    ``pre`` is (rows, (len(sources) + 3) * hidden): one sigmoid gate per
    input (the tanh candidate first), the output gate, the candidate."""
    parents = (ad._as_tensor(pre), *map(ad._as_tensor, sources))
    return ad._apply(ad._gated_fwd(*[t.data for t in parents]), "gated_cell", parents,
                     _gated_vjp, ad._gated_fwd)


def composed_grid_cell(h, c, p_proj, gs_rows, gt_rows, weights, cgs_rows, cgt_rows,
                       grid_shape, sp_mask):
    """``ad.grid_cell`` op by op, with the same arguments."""
    _, T, K, _ = grid_shape
    w, z, gs, gt, b = weights
    h_left = shift_rows(h, K, T * K)
    h_right = shift_rows(h, -K, T * K)
    h_sp = ad.mul(shift_rows(h, 1), sp_mask)
    triple = ad.concat([h_left, h_right, h], axis=1)
    pre = linear([p_proj, (triple, w), (h_sp, z), (gs_rows, gs), (gt_rows, gt), b])
    c_left = shift_rows(c, K, T * K)
    c_right = shift_rows(c, -K, T * K)
    c_sp = ad.mul(shift_rows(c, 1), sp_mask)
    return gated_cell(pre, [c_left, c, c_right, c_sp, cgs_rows, cgt_rows])


def unfused_pooled(h, c, g_prev, c_prev, g_rows, weights, grid_shape, axis):
    """The op-by-op global-state update that ``ad.pooled_cell`` fuses;
    ``g_rows`` is ``g_prev`` spread over ``axis``."""
    w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = weights
    n, rows = grid_shape[axis], (-1, grid_shape[-1])

    def pool(x):
        return ad.reshape(ad.tsum(ad.reshape(x, grid_shape), axis=axis), rows)

    cell = sigmoid(ad.add(ad.add(ad.matmul(h, w_c), ad.matmul(g_rows, z_c)), b_c))
    contrib = pool(ad.mul(cell, c))
    h_mean = ad.scale(pool(h), 1.0 / n)
    f = sigmoid(ad.add(ad.add(ad.matmul(h_mean, w_f), ad.matmul(g_prev, z_f)), b_f))
    out = sigmoid(ad.add(ad.add(ad.matmul(h_mean, w_o), ad.matmul(g_prev, z_o)), b_o))
    c_next = ad.add(contrib, ad.mul(f, c_prev))
    return ad.mul(out, tanh(c_next)), c_next


def composed_encode(p, params, layout, layers, global_temporal=True, global_spatial=True):
    """``sthrn.encoder.encode`` for B stacked (B, T, K, 3) windows, built
    from the oracles: per layer one ``spread_rows`` per global state,
    ``composed_grid_cell`` and ``unfused_pooled``, the latter reading
    the grid cell's spread of its own previous state."""
    state = init_states(p, params, layout, global_temporal, global_spatial)
    B, T, K = state.windows, state.frames, state.entries
    fused = _fused_gate_params(params)
    p_proj = ad.matmul(np.asarray(p, dtype=np.float64).reshape(B * T * K, 3), fused[0])
    sp_mask = np.tile((layout.spatial_prev() >= 0).astype(np.float64), B * T)[:, None]
    for _ in range(layers):
        grid = state.grid_shape
        gs_rows = spread_rows(state.g_s, grid, 2)
        gt_rows = spread_rows(state.g_t, grid, 1)
        cgs_rows = spread_rows(state.c_gs, grid, 2)
        cgt_rows = spread_rows(state.c_gt, grid, 1)
        h, c = composed_grid_cell(state.h, state.c, p_proj, gs_rows, gt_rows, fused[1:],
                                  cgs_rows, cgt_rows, grid, sp_mask)
        g_t, c_gt, g_s, c_gs = state.g_t, state.c_gt, state.g_s, state.c_gs
        if global_temporal:
            g_t, c_gt = unfused_pooled(h, c, g_t, c_gt, gt_rows, params.gtemp.weights(),
                                       grid, 1)
        if global_spatial:
            g_s, c_gs = unfused_pooled(h, c, g_s, c_gs, gs_rows, params.gspat.weights(),
                                       grid, 2)
        state = EncoderState(h=h, c=c, g_t=g_t, c_gt=c_gt, g_s=g_s, c_gs=c_gs,
                             frames=T, entries=K, windows=B)
    return state
