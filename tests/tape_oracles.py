"""Tape ops the package no longer has, kept as test oracles.

``sthrn.autodiff.grid_cell`` fuses one encoder layer's composition of
``shift_rows``, ``mul`` by the chain-head mask, ``concat``, ``linear``
and ``gated_cell`` into one node.  The two ops below are those of the
composition, built the way the package builds its own ops (through
``_apply`` and ``_acc``), and ``composed_grid_cell`` spells the layer
out with them, as the encoder did before the fusion.
"""

import sthrn.autodiff as ad


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
    pre = ad.linear([p_proj, (triple, w), (h_sp, z), (gs_rows, gs), (gt_rows, gt), b])
    c_left = shift_rows(c, K, T * K)
    c_right = shift_rows(c, -K, T * K)
    c_sp = ad.mul(shift_rows(c, 1), sp_mask)
    return gated_cell(pre, [c_left, c, c_right, c_sp, cgs_rows, cgt_rows])
