"""Tape op and reverse-pass checks against hand-derived gradients."""

from contextlib import nullcontext
from functools import reduce

import numpy as np
import pytest

import sthrn.autodiff as ad
from sthrn.autodiff import (
    NonScalarRoot,
    ShapeMismatch,
    Tensor,
    backward,
    grad_check,
    no_grad,
)
from sthrn.encoder import ChainLayout
from sthrn.model import ModelConfig, ModelParams, forward, frames_tensor
from sthrn.skeleton import builtin_topology, synth_motion
from sthrn.training import bone_weights, weighted_loss

import tape_oracles as oracle
from test_training import traced_peak


def leaf(x):
    return Tensor(np.asarray(x, dtype=np.float64))


# -- values ------------------------------------------------------------------


def test_tensor_stores_float64():
    for data in (np.array([0.1, 2.0], dtype=np.float32), np.float32(0.1),
                 np.array([0.1], dtype=np.longdouble), [1, 2], 3):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))


def test_arithmetic_values():
    a, b = leaf([1.0, 2.0]), leaf([3.0, 5.0])
    assert np.array_equal(ad.add(a, b).data, [4.0, 7.0])
    assert np.array_equal(ad.add(a, -b.data).data, [-2.0, -3.0])
    assert np.array_equal(ad.mul(a, b).data, [3.0, 10.0])
    assert np.array_equal(ad.mul(a, -1.0).data, [-1.0, -2.0])
    assert np.array_equal(ad.mul(a, 2.0).data, [2.0, 4.0])
    assert np.array_equal(ad.add(1.0, ad.mul(a, -1.0)).data, [0.0, -1.0])


def test_matmul_value_matches_naive_loops():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
    naive = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for k in range(3):
                naive[i, j] += x[i, k] * y[k, j]
    assert np.allclose(oracle.matmul(leaf(x), leaf(y)).data, naive, atol=1e-12)


def test_shape_op_values():
    a = leaf(np.arange(6.0))
    assert np.array_equal(ad.reshape(a, (2, 3)).data, np.arange(6.0).reshape(2, 3))
    b = leaf([[1.0, 2.0]])
    c = leaf([[3.0, 4.0]])
    assert np.array_equal(ad.concat([b, c], axis=0).data, [[1, 2], [3, 4]])
    assert np.array_equal(ad.concat([b, c], axis=1).data, [[1, 2, 3, 4]])
    m = leaf(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(ad._narrow(m, np.s_[1:, :2]).data, [[4.0, 5.0], [8.0, 9.0]])


def test_reduction_values():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    assert ad.tsum(a).data == 10.0
    assert np.array_equal(ad.tsum(a, axis=0).data, [4.0, 6.0])
    assert np.array_equal(ad.tsum(a, axis=1).data, [3.0, 7.0])
    v = leaf([[3.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(ad.l2norm(v, axis=1).data, [5.0, 0.0])


def test_nonlinearity_values():
    x = leaf([0.0, 1.0, -1.0])
    assert np.allclose(oracle.sigmoid(x).data, 1.0 / (1.0 + np.exp([0.0, -1.0, 1.0])))
    assert np.allclose(oracle.tanh(x).data, np.tanh([0.0, 1.0, -1.0]))
    assert oracle.sigmoid(leaf(0.0)).data == 0.5


# -- hand-derived gradients -----------------------------------------------------


def test_mul_sum_gradient_by_hand():
    a, b = leaf([1.0, 2.0, 3.0]), leaf([4.0, 5.0, 6.0])
    backward(ad.tsum(ad.mul(a, b)), leaves=[a, b])
    assert np.array_equal(a.grad, b.data)
    assert np.array_equal(b.grad, a.data)


def test_fanout_accumulates():
    x = leaf([3.0])
    backward(ad.tsum(ad.add(x, x)), leaves=[x])
    assert np.array_equal(x.grad, [2.0])
    y = leaf([2.0])
    backward(ad.tsum(ad.mul(ad.mul(y, y), y)), leaves=[y])
    assert np.allclose(y.grad, [12.0])  # d/dy y^3 = 3 y^2


def test_broadcast_gradient_unbroadcasts():
    # row vector broadcast over 3 rows: its gradient sums over the rows
    row = leaf([1.0, 2.0])
    m = leaf(np.ones((3, 2)))
    backward(ad.tsum(ad.mul(m, row)), leaves=[row, m])
    assert np.array_equal(row.grad, [3.0, 3.0])
    assert np.array_equal(m.grad, np.broadcast_to(row.data, (3, 2)))


def test_matmul_gradient_by_hand():
    rng = np.random.default_rng(1)
    a, b = leaf(rng.normal(size=(2, 3))), leaf(rng.normal(size=(3, 4)))
    backward(ad.tsum(oracle.matmul(a, b)), leaves=[a, b])
    g = np.ones((2, 4))
    assert np.allclose(a.grad, g @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ g, atol=1e-12)


def test_div_gradient_by_hand():
    a, b = leaf([6.0]), leaf([3.0])
    backward(ad.tsum(oracle.div(a, b)), leaves=[a, b])
    assert np.allclose(a.grad, [1.0 / 3.0])
    assert np.allclose(b.grad, [-6.0 / 9.0])


def test_narrow_scatters_gradient():
    m = leaf(np.arange(6.0).reshape(2, 3))
    backward(ad.tsum(ad._narrow(m, np.s_[0, 1:])), leaves=[m])
    assert np.array_equal(m.grad, [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_concat_splits_gradient():
    a, b = leaf([[1.0, 2.0]]), leaf([[3.0, 4.0], [5.0, 6.0]])
    out = ad.concat([a, b], axis=0)
    backward(ad.tsum(ad.mul(out, leaf([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))), leaves=[a, b])
    assert np.array_equal(a.grad, [[1.0, 1.0]])
    assert np.array_equal(b.grad, [[2.0, 2.0], [3.0, 3.0]])


def test_concat_of_one_part_is_that_part():
    a = leaf([[1.0, 2.0]])
    out = ad.concat([a], axis=1)
    assert out is a
    backward(ad.tsum(ad.mul(out, leaf([[3.0, 4.0]]))), leaves=[a])
    assert np.array_equal(a.grad, [[3.0, 4.0]])
    with pytest.raises(ad.ShapeMismatch):
        ad.concat([a], axis=2)


def test_l2norm_gradient_is_unit_direction():
    v = leaf([[3.0, 4.0]])
    backward(ad.tsum(ad.l2norm(v, axis=1)), leaves=[v])
    assert np.allclose(v.grad, [[0.6, 0.8]])


def test_sigmoid_tanh_gradients():
    x = leaf([0.3, -1.2])
    backward(ad.tsum(oracle.sigmoid(x)), leaves=[x])
    s = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(x.grad, s * (1.0 - s), atol=1e-12)
    backward(ad.tsum(oracle.tanh(x)), leaves=[x])
    assert np.allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-12)


def test_lstm_cell_matches_unfused_composition():
    rng = np.random.default_rng(30)
    nx, d = 4, 3
    x, h, c = (leaf(rng.normal(size=(1, n))) for n in (nx, d, d))
    w = leaf(rng.normal(size=(nx + d, 4 * d)))
    b = leaf(rng.normal(size=4 * d) * 0.5)
    leaves = {"x": x, "h": h, "c": c, "w": w, "b": b}
    for mode in (nullcontext, no_grad):  # taped and value-only
        with mode():
            got = ad.lstm_cell(x, h, c, w, b)
            want = oracle.unfused_lstm(x, h, c, w, b)
        for g_t, w_t in zip(got, want):
            assert g_t.data.shape == (1, d)
            assert np.array_equal(g_t.data, w_t.data)

    # two chained steps, so the fused node also receives gradient
    # through its own (h, c) outputs
    head = leaf(rng.normal(size=(1, 4 * d)))

    def loss(cell):
        def f():
            h1, c1 = cell(x, h, c, w, b)
            h2, c2 = cell(x, h1, c1, w, b)
            return ad.tsum(ad.mul(ad.concat([h1, c1, h2, c2], axis=1), head))
        return f

    report = grad_check(loss(ad.lstm_cell), leaves)
    assert report.skipped == []
    assert set(report.per_leaf) == set(leaves)
    for name, err in report.per_leaf.items():
        assert err < 1e-6, name

    backward(loss(oracle.unfused_lstm)(), leaves=leaves.values())
    want_grads = {name: t.grad.copy() for name, t in leaves.items()}
    backward(loss(ad.lstm_cell)(), leaves=leaves.values())
    for name, t in leaves.items():
        assert np.allclose(t.grad, want_grads[name], rtol=1e-12, atol=1e-15), name


@pytest.mark.parametrize("steps", [1, 3, 10])
@pytest.mark.parametrize("batch", [1, 4])
def test_lstm_chain_weight_gradient_moves_only_at_round_off(steps, batch):
    # a chain of steps sharing (w, b), as the decoder runs its cells: the
    # fused walk adds w's products one matmul per stack of 9 rows (w's
    # height) and the rest after the walk, the unfused one a product at
    # every step; every other gradient takes the same adds in one order
    rng = np.random.default_rng(31 + steps + batch)
    nx, d = 4, 5
    xs = [leaf(rng.normal(size=(batch, nx))) for _ in range(steps)]
    h0, c0 = (leaf(rng.normal(size=(batch, d))) for _ in range(2))
    w = leaf(rng.normal(size=(nx + d, 4 * d)) * 0.5)
    b = leaf(rng.normal(size=4 * d) * 0.5)
    head = leaf(rng.normal(size=(batch, 2 * d)))
    leaves = {**{f"x{t}": x for t, x in enumerate(xs)}, "h0": h0, "c0": c0, "w": w, "b": b,
              "head": head}

    def loss(cell):
        h, c = h0, c0
        for x in xs:
            h, c = cell(x, h, c, w, b)
        return ad.tsum(ad.mul(ad.concat([h, c], axis=1), head))

    backward(loss(oracle.unfused_lstm), leaves=leaves.values())
    want = {name: t.grad.copy() for name, t in leaves.items()}
    backward(loss(ad.lstm_cell), leaves=leaves.values())
    for name, t in leaves.items():
        if name != "w" or steps == 1:
            assert np.array_equal(t.grad, want[name]), name
    # each entry of w.grad sums steps * batch products: one rounding per term
    bound = steps * batch * np.finfo(np.float64).eps * np.abs(want["w"]).max()
    assert np.abs(w.grad - want["w"]).max() <= bound


@pytest.mark.parametrize("steps", [1, 3])
def test_lstm_chain_adds_a_taped_weight_product_at_every_step(steps):
    # a weight that is a tape node gets each step's product at once, as
    # the unfused matmul adds it, since its own vjp reads its gradient
    # during the walk: every gradient is bit-identical, the leaf's too
    rng = np.random.default_rng(34 + steps)
    nx, d = 4, 5
    xs = [leaf(rng.normal(size=(2, nx))) for _ in range(steps)]
    h0, c0 = (leaf(rng.normal(size=(2, d))) for _ in range(2))
    w_leaf = leaf(rng.normal(size=(nx + d, 4 * d)) * 0.5)
    b = leaf(rng.normal(size=4 * d) * 0.5)
    head = leaf(rng.normal(size=(2, 2 * d)))
    leaves = {**{f"x{t}": x for t, x in enumerate(xs)}, "h0": h0, "c0": c0, "w_leaf": w_leaf,
              "b": b, "head": head}

    def loss(cell):
        w = ad.mul(w_leaf, 1.0)
        h, c = h0, c0
        for x in xs:
            h, c = cell(x, h, c, w, b)
        return ad.tsum(ad.mul(ad.concat([h, c], axis=1), head))

    backward(loss(oracle.unfused_lstm), leaves=leaves.values())
    want = {name: t.grad.copy() for name, t in leaves.items()}
    backward(loss(ad.lstm_cell), leaves=leaves.values())
    for name, t in leaves.items():
        assert np.array_equal(t.grad, want[name]), name


def unfused_gated(pre, sources):
    """Narrow, sigmoid, tanh, mul and add spelled out: the gated-cell oracle."""
    d = sources[0].data.shape[1]
    n = len(sources) + 1
    gates = [oracle.sigmoid(ad._narrow(pre, np.s_[:, k * d:(k + 1) * d])) for k in range(n + 1)]
    cand = oracle.tanh(ad._narrow(pre, np.s_[:, (n + 1) * d:]))
    prods = [ad.mul(g, x) for g, x in zip(gates, [cand, *sources])]
    while len(prods) > 1:  # adjacent pairs, then pairs of pairs
        prods = [ad.add(prods[i], prods[i + 1]) if i + 1 < len(prods) else prods[i]
                 for i in range(0, len(prods), 2)]
    return ad.mul(gates[n], oracle.tanh(prods[0])), prods[0]


def test_gated_cell_matches_unfused_composition():
    rng = np.random.default_rng(31)
    rows, d, n_src = 3, 2, 6
    pre = leaf(rng.normal(size=(rows, (n_src + 3) * d)))
    sources = [leaf(rng.normal(size=(rows, d))) for _ in range(n_src)]
    leaves = {"pre": pre, **{f"src{k}": t for k, t in enumerate(sources)}}
    for mode in (nullcontext, no_grad):
        with mode():
            got = oracle.gated_cell(pre, sources)
            want = unfused_gated(pre, sources)
        for g_t, w_t in zip(got, want):
            assert np.array_equal(g_t.data, w_t.data)
    head = leaf(rng.normal(size=(rows, 2 * d)))

    def f():
        h, c = oracle.gated_cell(pre, sources)
        return ad.tsum(ad.mul(ad.concat([h, c], axis=1), head))

    report = grad_check(f, leaves)
    assert report.skipped == []
    for name, err in report.per_leaf.items():
        assert err < 1e-6, name


def spread_grid_composition(h, c, p, g_s, g_t, w, b, c_gs, c_gt, grid, sp_mask):
    """``ad.grid_cell``'s composition with one spread node per global
    state, taking the op's arguments."""
    spread = [oracle.spread_rows(g, grid, axis)
              for g, axis in ((g_s, 2), (g_t, 1), (c_gs, 2), (c_gt, 1))]
    return oracle.composed_grid_cell(h, c, p, spread[0], spread[1], w, b,
                                     spread[2], spread[3], grid, sp_mask)


@pytest.mark.parametrize("topo", ["fork7", "chain3"])
@pytest.mark.parametrize("windows", [1, 3])
@pytest.mark.parametrize("first_layer", [True, False])
@pytest.mark.parametrize("ablated", [None, "temporal", "spatial"])
def test_grid_cell_matches_its_composition(topo, windows, first_layer, ablated):
    """Values, taped and value-only, and every parent's gradient equal
    the composition the op fuses, one spread node per global state
    included, bit for bit.  At the first layer h is c and each global
    state is its own cell (as ``encode`` makes them at layer 0), so the
    fused vjp has to add into the shared tensors in the order the
    composition's walk did; an ablated global state is a zero const.
    The five weight fields are leaves stacked by one concat node, so
    each keeps its own gradient."""
    layout = ChainLayout.from_topology(builtin_topology(topo))
    T, K, d = 2, layout.num_entries, 3
    grid, rows = (windows, T, K, d), windows * T * K
    rng = np.random.default_rng(61)
    h = leaf(rng.normal(size=(rows, d)))
    c = h if first_layer else leaf(rng.normal(size=(rows, d)))
    states = {}
    for name, n in (("s", windows * T), ("t", windows * K)):
        if ablated == {"s": "spatial", "t": "temporal"}[name]:
            states[name] = (Tensor(np.zeros((n, d)), op="const"),) * 2
        else:
            g = leaf(rng.normal(size=(n, d)))
            states[name] = (g, g if first_layer else leaf(rng.normal(size=(n, d))))
    (g_s, c_gs), (g_t, c_gt) = states["s"], states["t"]
    p = leaf(rng.normal(size=(rows, 3)))
    weights = (leaf(0.3 * rng.normal(size=(3, 9 * d))), leaf(0.3 * rng.normal(size=(3 * d, 9 * d))),
               *[leaf(0.3 * rng.normal(size=(d, 9 * d))) for _ in range(3)],
               leaf(rng.normal(size=9 * d)))
    sp_mask = np.tile((layout.spatial_prev() >= 0).astype(np.float64), windows * T)[:, None]
    heads = [rng.normal(size=(rows, d)) for _ in range(2)]

    def run(cell):
        w = ad.concat(weights[:5], axis=0)
        args = (h, c, p, g_s, g_t, w, weights[5], c_gs, c_gt, grid, sp_mask)
        with no_grad():
            bare = cell(*args)
        out = cell(*args)
        root = ad.add(ad.tsum(ad.mul(out[0], heads[0])), ad.tsum(ad.mul(out[1], heads[1])))
        parents = [h, c, g_s, c_gs, g_t, c_gt, p, *weights]
        backward(root, leaves=parents)
        grads = [None if t.grad is None else t.grad.copy() for t in parents]
        return [t.data for t in (*out, *bare)], grads

    got_values, got_grads = run(ad.grid_cell)
    want_values, want_grads = run(spread_grid_composition)
    for got, want in zip(got_values, want_values, strict=True):
        assert np.array_equal(got, want)
    for k, (got, want) in enumerate(zip(got_grads, want_grads, strict=True)):
        assert (got is None) == (want is None), k
        assert got is None or np.array_equal(got, want), k


@pytest.mark.parametrize("wide", ["h", "u", "gs", "b"])
def test_grid_cell_keeps_long_double(wide):
    """One operand in long double, as grad_check's refinement widens a
    leaf: both states and that operand's gradient come out long double
    and equal the composition's, also in long double, bit for bit.  A
    source block written in float64 would round a long-double h."""
    layout = ChainLayout.from_topology(builtin_topology("fork7"))
    T, K, d = 2, layout.num_entries, 3
    grid, rows = (1, T, K, d), T * K
    rng = np.random.default_rng(63)
    h, c = leaf(rng.normal(size=(rows, d))), leaf(rng.normal(size=(rows, d)))
    g_s, c_gs = (leaf(rng.normal(size=(T, d))) for _ in range(2))
    g_t, c_gt = (leaf(rng.normal(size=(K, d))) for _ in range(2))
    p = rng.normal(size=(rows, 3))
    weights = dict(zip(("u", "w", "z", "gs", "gt"),
                       (leaf(0.3 * rng.normal(size=(m, 9 * d))) for m in (3, 3 * d, d, d, d))))
    weights["b"] = leaf(rng.normal(size=9 * d))
    target = h if wide == "h" else weights[wide]
    target.data = target.data.astype(np.longdouble)
    sp_mask = np.tile((layout.spatial_prev() >= 0).astype(np.float64), T)[:, None]
    heads = [rng.normal(size=(rows, d)) for _ in range(2)]

    def run(cell):
        w = ad.concat([weights[f] for f in ("u", "w", "z", "gs", "gt")], axis=0)
        out = cell(h, c, p, g_s, g_t, w, weights["b"], c_gs, c_gt, grid, sp_mask)
        root = ad.add(ad.tsum(ad.mul(out[0], heads[0])), ad.tsum(ad.mul(out[1], heads[1])))
        backward(root, leaves=[target])
        return [t.data for t in out], target.grad.copy()

    got_values, got_grad = run(ad.grid_cell)
    want_values, want_grad = run(spread_grid_composition)
    for got, want in zip(got_values, want_values, strict=True):
        assert got.dtype == np.longdouble
        assert np.array_equal(got, want)
    assert got_grad.dtype == np.longdouble
    assert np.array_equal(got_grad, want_grad)


def stack_global(*weights):
    """A global updater's nine weights, in ``unfused_pooled`` order, as
    the stacked (w, b) that ``ad.pooled_cell`` takes."""
    w_row, z_row, b = (ad.concat(weights[k::3], axis=-1) for k in range(3))
    return ad.concat([w_row, z_row], axis=0), b


@pytest.mark.parametrize("axis", [0, 1])
def test_pooled_cell_matches_unfused_composition(axis):
    """Values, taped and value-only, equal the op-by-op update on a
    spread node of ``g_prev`` with nine weights, bit for bit, and every
    parent's gradient equals the composition's up to round-off: the
    cell takes ``g_prev``'s products at pooled rows, so the cell gate's
    gradient is pooled before its products with ``g_prev`` and the
    bias.  Also when ``g_prev`` is ``c_prev`` (the first layer)."""
    rng = np.random.default_rng(32 + axis)
    T, K, d = 3, 4, 2
    grid, kept = (T, K, d), K if axis == 0 else T
    h, c = leaf(rng.normal(size=(T * K, d))), leaf(rng.normal(size=(T * K, d)))
    g_prev = leaf(rng.normal(size=(kept, d)))
    weights = [leaf(rng.normal(size=(d, d)) if k % 3 < 2 else rng.normal(size=d))
               for k in range(9)]
    head = rng.normal(size=(kept, 2 * d))
    bound = 2 * d * np.finfo(np.float64).eps

    def fused(h, c, g_prev, c_prev, weights, grid, axis):
        return ad.pooled_cell(h, c, g_prev, c_prev, *stack_global(*weights), grid, axis)

    def composed(h, c, g_prev, c_prev, weights, grid, axis):
        g_rows = oracle.spread_rows(g_prev, grid, axis)
        return oracle.unfused_pooled(h, c, g_prev, c_prev, g_rows, weights, grid, axis)

    for c_prev in (leaf(rng.normal(size=(kept, d))), g_prev):
        parents = [h, c, g_prev, c_prev, *weights]

        def run(cell):
            args = (h, c, g_prev, c_prev, weights, grid, axis)
            with no_grad():
                bare = cell(*args)
            out = cell(*args)
            backward(ad.tsum(ad.mul(ad.concat(out, axis=1), head)), leaves=parents)
            return [t.data for t in (*out, *bare)], [t.grad.copy() for t in parents]

        got_values, got_grads = run(fused)
        want_values, want_grads = run(composed)
        for got, want in zip(got_values, want_values, strict=True):
            assert got.shape == (kept, d)
            assert np.array_equal(got, want)
        for k, (got, want) in enumerate(zip(got_grads, want_grads, strict=True)):
            assert np.abs(got - want).max() <= bound * np.abs(want).max(), k


def test_linear_matches_nested_adds():
    rng = np.random.default_rng(33)
    xs = [leaf(0.3 * rng.normal(size=(3, 4))) for _ in range(4)]  # keep tanh off saturation
    ws = [leaf(rng.normal(size=(4, 5))) for _ in range(4)]
    extra, bias = leaf(rng.normal(size=(3, 5))), leaf(rng.normal(size=5))
    leaves = {"extra": extra, "bias": bias, "x0": xs[0], "w3": ws[3]}
    terms = [extra] + list(zip(xs, ws)) + [bias]
    prods = [oracle.matmul(x, w) for x, w in zip(xs, ws)]
    want = ad.add(ad.add(ad.add(extra, prods[0]), ad.add(prods[1], prods[2])),
                  ad.add(prods[3], bias))
    assert np.array_equal(oracle.linear(terms).data, want.data)
    three = ad.add(ad.add(prods[0], prods[1]), bias)
    assert np.array_equal(oracle.linear([(xs[0], ws[0]), (xs[1], ws[1]), bias]).data, three.data)
    assert np.array_equal(ad.linear(xs[0], ws[0], bias).data, ad.add(prods[0], bias).data)
    with pytest.raises(ShapeMismatch):
        oracle.linear([(xs[0], xs[1])])
    with pytest.raises(ShapeMismatch):
        ad.linear(xs[0], xs[1], bias)

    report = grad_check(lambda: ad.tsum(oracle.tanh(oracle.linear(terms))), leaves)
    assert report.max_rel_error < 1e-6
    assert report.skipped == []


def test_shift_rows_past_the_end_gives_zeros():
    t = leaf(np.arange(6.0).reshape(3, 2))
    assert np.array_equal(oracle.shift_rows(t, 0).data, t.data)
    assert np.array_equal(oracle.shift_rows(t, 5).data, np.zeros((3, 2)))
    assert np.array_equal(oracle.shift_rows(t, -3).data, np.zeros((3, 2)))
    backward(ad.tsum(oracle.shift_rows(t, 4)), leaves=[t])
    assert np.array_equal(t.grad, np.zeros((3, 2)))


def test_shift_rows_stays_within_blocks():
    t = leaf(np.arange(12.0).reshape(6, 2))
    rows = [None, None, 0, None, None, 3]           # down 2 in blocks of 3
    want = np.stack([t.data[r] if r is not None else np.zeros(2) for r in rows])
    down = oracle.shift_rows(t, 2, block=3)
    assert np.array_equal(down.data, want)
    up = oracle.shift_rows(t, -1, block=3)
    assert np.array_equal(up.data, t.data[[1, 2, 0, 4, 5, 0]] * [[1], [1], [0], [1], [1], [0]])
    w = np.arange(1.0, 13.0).reshape(6, 2)
    backward(ad.tsum(ad.mul(down, leaf(w))), leaves=[t])
    assert np.array_equal(t.grad, w[[2, 0, 0, 5, 0, 0]] * [[1], [0], [0], [1], [0], [0]])


@pytest.mark.parametrize("axis", [1, 2])
def test_spread_rows_copies_within_each_window(axis):
    grid = (2, 3, 4, 2)
    rows = 2 * (4 if axis == 1 else 3)
    x = np.random.default_rng(6).normal(size=(rows, 2))
    t = leaf(x.copy())
    out = oracle.spread_rows(t, grid, axis)
    if axis == 1:  # each window's 4 bone rows tiled over its 3 frames
        want = np.concatenate([np.tile(x[4 * b:4 * b + 4], (3, 1)) for b in range(2)])
    else:  # each frame row repeated for its 4 bones
        want = np.repeat(x, 4, axis=0)
    assert np.array_equal(out.data, want)
    weights = leaf(np.random.default_rng(7).normal(size=(24, 2)))
    report = grad_check(lambda: ad.tsum(ad.mul(oracle.spread_rows(t, grid, axis), weights)),
                        {"t": t})
    assert report.max_rel_error < 1e-6


def test_reshape_transposes_gradient_back():
    a = leaf(np.arange(4.0))
    out = ad.reshape(a, (2, 2))
    backward(ad.tsum(ad.mul(out, leaf([[1.0, 2.0], [3.0, 4.0]]))), leaves=[a])
    assert np.array_equal(a.grad, [1.0, 2.0, 3.0, 4.0])


# -- every op through the one path ------------------------------------------------


_TABLE_RNG = np.random.default_rng(40)


def _r(*shape):
    return _TABLE_RNG.normal(size=shape)


def _entries(*norms):
    """One row of 3-vectors with the given norms."""
    w3 = _r(len(norms), 3)
    return (w3 * (np.array(norms)[:, None] / np.linalg.norm(w3, axis=1, keepdims=True))).reshape(1, -1)


# op, or op/form of its static arguments -> (call on operands, operand
# arrays); each operand is passed either as a leaf Tensor or as a raw
# array, which the op takes as a const
OPS = {
    "add": (ad.add, [_r(3, 2), _r(2)]),
    "mul": (ad.mul, [_r(3, 2), _r(1, 2)]),
    "mul/number": (lambda a: ad.mul(a, -1.5), [_r(3, 2)]),
    "div": (oracle.div, [_r(3, 2), 2.0 + np.abs(_r(3, 2))]),
    "matmul": (oracle.matmul, [_r(3, 4), _r(4, 2)]),
    "linear_terms": (lambda x, w, y, v, b: oracle.linear([(x, w), b, (y, v)]),
               [_r(3, 4), _r(4, 2), _r(3, 1), _r(1, 2), _r(2)]),
    "reshape": (lambda a: ad.reshape(a, (2, 3)), [_r(3, 2)]),
    "reshape/raise-rank": (lambda a: ad.reshape(a, (2, 3, 2)), [_r(6, 2)]),
    "reshape/lower-rank": (lambda a: ad.reshape(a, (6, 2)), [_r(2, 3, 2)]),
    "concat": (lambda a, b, c: ad.concat([a, b, c], axis=1), [_r(3, 2), _r(3, 1), _r(3, 2)]),
    "concat/axis-0": (lambda a, b: ad.concat([a, b], axis=0), [_r(2, 3), _r(1, 3)]),
    "narrow": (lambda a: ad._narrow(ad._as_tensor(a), np.s_[1:, ::2]), [_r(3, 4)]),
    "narrow/int-none-ellipsis": (lambda a: ad._narrow(ad._as_tensor(a), np.s_[1, None, ..., ::2]),
                                 [_r(3, 4, 5)]),
    "shift_rows": (lambda a: oracle.shift_rows(a, -1, block=2), [_r(4, 2)]),
    "tsum": (lambda a: ad.tsum(a, axis=0), [_r(3, 2)]),
    "tsum/all-axes": (ad.tsum, [_r(3, 2)]),
    "tsum/negative-axis": (lambda a: ad.tsum(a, axis=-2), [_r(2, 3, 2)]),
    "l2norm": (lambda a: ad.l2norm(a, axis=1), [_r(3, 2)]),
    "l2norm/axis-0": (lambda a: ad.l2norm(a, axis=0), [_r(3, 2)]),
    "sigmoid": (oracle.sigmoid, [_r(3, 2)]),
    "tanh": (oracle.tanh, [_r(3, 2)]),
    "wrap_rows": (ad.wrap_rows, [np.concatenate([_entries(0.5, 4.0), _entries(2.0, 7.0)])]),
    "gated_cell": (lambda pre, s0, s1: oracle.gated_cell(pre, [s0, s1]),
                   [0.3 * _r(3, 10), _r(3, 2), _r(3, 2)]),
    "lstm_cell": (ad.lstm_cell, [_r(2, 3), _r(2, 2), _r(2, 2), 0.3 * _r(5, 8), _r(8)]),
    "pooled_cell": (lambda h, c, gp, cp, *w: ad.pooled_cell(h, c, gp, cp, *stack_global(*w),
                                                            (3, 2, 2), 0),
                    [_r(6, 2), _r(6, 2), _r(2, 2), _r(2, 2)]
                    + [0.3 * _r(2, 2), 0.3 * _r(2, 2), _r(2)] * 3),
    "grid_cell": (lambda h, c, p, g_s, g_t, u, w, z, gs, gt, b, c_gs, c_gt: ad.grid_cell(
                      h, c, p, g_s, g_t, ad.concat([u, w, z, gs, gt], axis=0), b, c_gs, c_gt,
                      (1, 2, 3, 2), np.array([[0.0], [1.0], [1.0]] * 2)),
                  [_r(6, 2), _r(6, 2), _r(6, 3), _r(2, 2), _r(3, 2)]
                  + [0.3 * _r(3, 18), 0.3 * _r(6, 18)] + [0.3 * _r(2, 18) for _ in range(3)]
                  + [_r(18), _r(2, 2), _r(3, 2)]),
    "linear": (ad.linear, [_r(3, 4), _r(4, 2), _r(2)]),
}
# the test-local oracle ops take the same checks, since the tests of the
# fused ops and of the wrap trust their values and gradients
ORACLE_OPS = {"div", "sigmoid", "tanh", "matmul", "shift_rows", "gated_cell", "linear_terms"}


def test_op_table_covers_every_public_op():
    public = {name for name, value in vars(ad).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == ad.__name__
              and not isinstance(value, type)}
    # narrow is ``_narrow``, which the fused cells call inside the module
    ops = {row.split("/")[0] for row in OPS} - ORACLE_OPS - {"narrow"}
    assert public - {"backward", "grad_check"} == ops


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("leaf_parity", [0, 1])
def test_every_op_takes_the_one_path(op, leaf_parity):
    """Taped and value-only values agree, each node's recorded forward
    gives its value again, a value-only result keeps no parents, consts
    end without a gradient and leaves get the right one."""
    call, arrays = OPS[op]
    leaves = {f"x{i}": leaf(a.copy()) for i, a in enumerate(arrays) if i % 2 == leaf_parity}
    operands = [leaves.get(f"x{i}", a) for i, a in enumerate(arrays)]

    def outputs():
        out = call(*operands)
        return out if isinstance(out, tuple) else (out,)

    taped = outputs()
    with no_grad():
        bare = outputs()
    for t, b in zip(taped, bare, strict=True):
        assert np.array_equal(t.data, b.data)
        assert b.parents == ()
    for node in {id(n): n for t in taped for n in tape_nodes(t) if n.parents}.values():
        again = ad._value(node.fwd(*node.args, *[p.data for p in node.parents]))
        assert np.array_equal(again, node.data), node
    rng = np.random.default_rng(41)
    heads = [rng.normal(size=t.data.shape) for t in taped]

    def f():
        return reduce(ad.add, [ad.tsum(ad.mul(t, h)) for t, h in zip(outputs(), heads)])

    root = f()
    backward(root, leaves=leaves.values())
    consts = [t for t in tape_nodes(root) if t.op == "const"]
    assert len(consts) >= len(arrays) - len(leaves) + len(heads)
    assert all(t.grad is None for t in consts)
    if leaves:
        # a component the bound would reject is first re-measured in
        # extended precision: float64 differences of a component near
        # 1e-5 of the largest carry noise above 1e-6
        report = grad_check(f, leaves, refine_threshold=1e-6)
        assert report.skipped == []
        assert report.max_rel_error < 1e-6, report.per_leaf
        # the batched replay of every op matched f() at the guard
        assert report.fallbacks == 0


# -- backward mechanics -----------------------------------------------------------


def test_unreached_leaf_gets_zero_grad():
    x, unused = leaf([1.0, 2.0]), leaf(np.ones((2, 2)))
    backward(ad.tsum(ad.mul(x, x)), leaves=[x, unused])
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_is_idempotent():
    x = leaf([1.0, 2.0])
    root = ad.tsum(ad.mul(x, x))
    backward(root, leaves=[x])
    first = x.grad.copy()
    backward(root, leaves=[x])
    assert np.array_equal(x.grad, first)


def tape_nodes(root):
    """Every tensor the root depends on, itself included."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def eager_backward(root, leaves=()):
    """Oracle: the walk that gives every tape node a zero gradient up
    front and keeps them all afterwards (``_acc`` leaves a const's at
    zero).  Like ``backward`` it ends with ``_flush``, which adds the
    leaf LSTM weights' deferred products."""
    order, seen = [], set()
    stack = [(root, False)]
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
    for node in order:
        node.grad = np.zeros_like(node.data)
    root.grad = np.ones_like(root.data)
    try:
        for node in reversed(order):
            if node.vjp is not None:
                node.vjp(node, node.grad)
    finally:
        ad._flush()
    for t in leaves:
        if id(t) not in seen:
            t.grad = np.zeros_like(t.data)


def model_loss_fn(topo_name, config, windows, observed, horizon, seed, biases=None):
    """A closure that rebuilds the loss of a batched forward pass from the
    current parameters, and the model's named leaves; ``biases`` maps
    leaf names to the values they are set to first."""
    topo = builtin_topology(topo_name)
    layout = ChainLayout.from_topology(topo)
    params = ModelParams.init(config, layout, seed=seed)
    named = params.named()
    for name, value in (biases or {}).items():
        named[name].data[...] = value
    seq = synth_motion("sinusoid", observed + horizon + windows - 1, topo, seed=3)
    frames = np.stack([seq.frames[i:i + observed + horizon] for i in range(windows)])
    k = layout.num_entries
    theta = bone_weights(topo.entry_lengths())

    def f():
        outs = forward(params, config, layout, frames[:, :observed], horizon)
        return weighted_loss(frames_tensor(outs, k), frames[:, observed:].reshape(-1, k, 3),
                             theta)

    return f, named


def model_loss(*args, **kwargs):
    """Root of a batched forward pass and the model's named leaves."""
    f, named = model_loss_fn(*args, **kwargs)
    return f(), named


LOSS_FIXTURES = {
    # test_acceptance.tiny_loss_fixture: fork7, hidden 6, 2 layers, 6 -> 3 frames
    "criterion-4": lambda: model_loss("fork7", ModelConfig(hidden_size=6, layers=2),
                                      windows=1, observed=6, horizon=3, seed=7),
    "human-batch-3": lambda: model_loss("human", ModelConfig(hidden_size=3),
                                        windows=3, observed=6, horizon=3, seed=11),
}


@pytest.mark.parametrize("fixture", sorted(LOSS_FIXTURES))
def test_backward_matches_eager_walk_and_frees_interior_gradients(fixture):
    root, named = LOSS_FIXTURES[fixture]()
    nodes = tape_nodes(root)
    eager_backward(root, named.values())
    want = {id(t): t.grad.copy() for t in nodes if t.vjp is None and t.op != "const"}
    assert {id(t) for t in named.values()} <= set(want)
    assert any(t.op == "const" for t in nodes)
    for _ in range(2):  # repeated calls from the same root agree
        backward(root, leaves=named.values())
        for t in nodes:
            if id(t) in want:
                assert np.array_equal(t.grad, want[id(t)]), t
            else:  # interior nodes and consts
                assert t.grad is None, t


def test_every_node_of_a_model_tape_holds_the_forward_that_made_it():
    root, _ = LOSS_FIXTURES["criterion-4"]()
    nodes = [t for t in tape_nodes(root) if t.op not in ("leaf", "const")]
    assert {"grid_cell", "pooled_cell", "lstm_cell", "wrap", "sum"} <= {t.op for t in nodes}
    for node in nodes:
        assert callable(node.fwd), node
        again = ad._value(node.fwd(*node.args, *[p.data for p in node.parents]))
        assert np.array_equal(again, node.data), node


def test_walk_that_raises_leaves_nothing_to_the_next_walk():
    rng = np.random.default_rng(32)
    xs = [leaf(rng.normal(size=(2, 3))) for _ in range(3)]
    h0, c0 = (leaf(rng.normal(size=(2, 4))) for _ in range(2))
    w, b = leaf(rng.normal(size=(7, 16))), leaf(rng.normal(size=16))
    leaves = [*xs, h0, c0, w, b]

    def boom(node, g):
        raise RuntimeError("boom")

    def loss(first):
        h, c = h0, c0
        for x in (first, *xs[1:]):
            h, c = ad.lstm_cell(x, h, c, w, b)
        return ad.tsum(ad.mul(h, c))

    backward(loss(xs[0]), leaves=leaves)
    want = [t.grad.copy() for t in leaves]
    # the copy's vjp runs after every step's, with w's products pending
    copied = ad._apply("copy", (xs[0],), boom, np.copy)
    with pytest.raises(RuntimeError, match="boom"):
        backward(loss(copied), leaves=leaves)
    backward(loss(xs[0]), leaves=leaves)
    for t, g in zip(leaves, want):
        assert np.array_equal(t.grad, g), t


def test_backward_keeps_gradients_of_listed_tensors():
    x, unused = leaf([1.0, 2.0]), leaf(np.ones((2, 2)))
    u = ad.mul(x, x)
    root = ad.tsum(ad.mul(u, u))
    backward(root, leaves=[x, u, unused])
    assert np.array_equal(u.grad, 2.0 * u.data)
    assert np.array_equal(x.grad, 4.0 * x.data ** 3)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert root.grad is None
    backward(root, leaves=[x])
    assert u.grad is None
    assert np.array_equal(x.grad, 4.0 * x.data ** 3)


def test_backward_rejects_non_scalar_root():
    x = leaf([1.0, 2.0])
    with pytest.raises(NonScalarRoot):
        backward(ad.mul(x, x), leaves=[x])


def test_no_grad_detaches():
    x = leaf([1.0])
    with no_grad():
        y = ad.mul(x, x)
    assert y.parents == ()
    z = ad.tsum(ad.mul(x, x))
    backward(z, leaves=[x])
    assert np.array_equal(x.grad, [2.0])


def test_composite_chain_hand_gradient():
    # f = sum((x y + z)^2): df/dx = 2(xy+z) y, df/dy = 2(xy+z) x, df/dz = 2(xy+z)
    x, y, z = leaf([2.0]), leaf([3.0]), leaf([1.0])
    u = ad.add(ad.mul(x, y), z)
    backward(ad.tsum(ad.mul(u, u)), leaves=[x, y, z])
    assert np.allclose(x.grad, [2.0 * 7.0 * 3.0])
    assert np.allclose(y.grad, [2.0 * 7.0 * 2.0])
    assert np.allclose(z.grad, [2.0 * 7.0])


# -- shape errors ------------------------------------------------------------------


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        oracle.matmul(leaf(np.ones(3)), leaf(np.ones((3, 2))))
    with pytest.raises(ShapeMismatch):
        oracle.matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 2))))


def test_reductions_refuse_an_axis_out_of_range():
    a = leaf(np.ones((2, 3)))
    for call in (lambda: ad.tsum(a, axis=2), lambda: ad.tsum(a, axis=-3),
                 lambda: ad.l2norm(a, axis=2)):
        with pytest.raises(IndexError):
            call()


def test_concat_shape_error():
    with pytest.raises(ShapeMismatch):
        ad.concat([leaf(np.ones((2, 3))), leaf(np.ones((2, 4)))], axis=0)
    with pytest.raises(ShapeMismatch):  # ranks must agree too
        ad.concat([leaf(np.ones((2, 3))), leaf(np.ones(3))], axis=0)
    with pytest.raises(ShapeMismatch):
        ad.concat([leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))], axis=-3)


# -- finite-difference checking ------------------------------------------------------


def test_grad_check_passes_smooth_function():
    rng = np.random.default_rng(2)
    x = leaf(rng.normal(size=(3, 4)))
    w = leaf(rng.normal(size=(4, 2)))

    def f():
        return ad.tsum(oracle.sigmoid(oracle.matmul(x, w)))

    report = grad_check(f, {"x": x, "w": w})
    assert report.max_rel_error < 1e-6
    assert report.skipped == []


def test_grad_check_catches_wrong_gradient():
    # an op with a deliberately wrong vjp must be flagged
    x = leaf([0.5, -0.3])

    def bad_vjp(node, g):
        ad._acc(node.parents[0], 3.0 * g)  # wrong on purpose: the factor is 2

    def double(a):
        return a * 2.0

    def bad_double(t):
        return ad._apply("bad", (t,), bad_vjp, double)

    def f():
        return ad.tsum(bad_double(x))

    report = grad_check(f, {"x": x})
    assert report.max_rel_error > 0.3


def test_grad_check_skips_kinks():
    # l2norm of an exactly zero vector has a NaN gradient by construction
    v = leaf(np.zeros((1, 3)))

    def f():
        return ad.tsum(ad.l2norm(v, axis=1))

    report = grad_check(f, {"v": v})
    assert len(report.skipped) == 3
    assert report.max_rel_error == 0.0


def test_grad_check_without_refinement():
    x = leaf([0.25])

    def f():
        return ad.tsum(ad.mul(x, x))

    report = grad_check(f, {"x": x}, refine_threshold=None)
    assert report.max_rel_error < 1e-6


def test_grad_check_restores_leaf_values():
    x = leaf([1.0, -2.0])
    before = x.data.copy()

    def f():
        return ad.tsum(oracle.tanh(x))

    grad_check(f, {"x": x})
    assert np.array_equal(x.data, before)
    assert x.data.dtype == np.float64


def test_grad_check_leaves_the_leaf_whole_when_f_raises():
    # the probes move components of a copy of the leaf: f() raising in
    # the middle of a probe leaves no component of the leaf moved
    x = leaf([0.5, 1.0])
    original, before = x.data, x.data.copy()
    calls = 0

    def f():
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("third call")
        return ad.tsum(oracle.tanh(x))

    with pytest.raises(RuntimeError, match="third call"):
        grad_check(f, {"x": x})
    assert x.data is original
    assert np.array_equal(x.data, before)


def test_grad_check_report_counts_its_cost():
    rng = np.random.default_rng(3)
    x = leaf(rng.normal(size=(3, 4)))
    w = leaf(rng.normal(size=(4, 2)))

    def f():
        return ad.tsum(oracle.sigmoid(oracle.matmul(x, w)))

    report = grad_check(f, {"x": x, "w": w}, refine_threshold=None)
    # the taped call, then the first and last component of each leaf at
    # +-step by calling f(); every component is replayed at +-step, each
    # leaf's in one pass
    assert report.forward_calls == 1 + 2 * 2 * 2
    assert report.replays == 2 * (12 + 8)
    assert report.passes == 2
    assert (report.fallbacks, report.refined) == (0, 0)
    assert report.seconds > 0.0
    for field in ("forward_calls=9", "replays=40", "passes=2", "fallbacks=0", "refined=0",
                  "seconds="):
        assert field in repr(report)


def test_grad_check_sizes_its_passes_by_the_cone_bytes():
    # each probe counts its copy of x and twice the two (n, 3) float64
    # values of its cone, so two components fit the budget up to n =
    # _PASS_BYTES / 384 and one past it
    x = leaf([0.3, -0.2, 0.5])
    rng = np.random.default_rng(4)
    for n, components in ((ad._PASS_BYTES // 384 - 1, 2), (ad._PASS_BYTES // 384 + 1, 1)):
        big = rng.normal(size=(n, 3))

        def f():
            return ad.tsum(oracle.tanh(ad.mul(x, big)))

        assert ad._cone(ad._tape_order(f()), x)[1] == components
    report = grad_check(f, {"x": x}, refine_threshold=None)
    assert (report.replays, report.passes, report.fallbacks) == (6, 3, 0)
    assert report.max_rel_error < 1e-6


def test_grad_check_counts_the_leaf_copies_in_a_pass():
    # a 2,048-value leaf read by one sum has a cone of 8 bytes: its
    # stacked copies are all a pass holds
    x = leaf(np.random.default_rng(5).normal(size=2048))
    report, peak = traced_peak(lambda: grad_check(lambda: ad.tsum(x), {"x": x},
                                                  refine_threshold=None))
    assert peak < 2 * ad._PASS_BYTES
    assert report.passes > 1
    assert report.max_rel_error < 1e-6


def test_grad_check_passes_stay_within_the_budget_on_the_criterion_4_fixture():
    # each leaf's first float64 pass, the largest it makes, holds at most
    # 1.5 MB: a dec.arm.w pass held 1.92 MB when only the cone counted
    root, named = LOSS_FIXTURES["criterion-4"]()
    order = ad._tape_order(root)
    with no_grad():
        for name, t in named.items():
            steps, size = ad._cone(order, t)
            index = np.arange(min(size, t.data.size))
            _, peak = traced_peak(lambda: ad._replay(steps, root, t, index, 1e-5))
            assert peak <= 1.5 * 2**20, name


def test_grad_check_of_the_benchmark_leaves_takes_few_passes():
    # the criterion-4 fixture's six leaves that gradcheck-tiny checks: a
    # float64 sweep of each fits two or three passes, and the calls of
    # f() and the refined components do not depend on the pass size
    f, named = model_loss_fn("fork7", ModelConfig(hidden_size=6, layers=2), windows=1,
                             observed=6, horizon=3, seed=7)
    names = ("enc.gate.gs.gs", "enc.gt.w_f", "enc.gs.w_f", "enc.gs.z_o", "dec.spine.b",
             "dec.proj.1.w")
    report = grad_check(f, {name: named[name] for name in names})
    assert report.passes <= 20
    if ad._REFINE_AVAILABLE:
        assert (report.forward_calls, report.refined) == (29, 16)
    assert report.max_rel_error < 1e-4


@pytest.mark.skipif(not ad._REFINE_AVAILABLE,
                    reason="long double is no wider than float64 here")
def test_grad_check_counts_refinements_as_calls_of_f():
    # a gradient of 1e-7 on a loss near 1 sits under float64's
    # cancellation noise, so its difference quotient is re-probed
    x = leaf([0.5])

    def f():
        return ad.tsum(ad.add(ad.mul(x, 1e-7), 1.0))

    report = grad_check(f, {"x": x})
    assert report.refined == 1
    assert report.forward_calls == 1 + 2 + 2
    assert report.max_rel_error < 1e-6


def probed_by_f_alone(monkeypatch, f, leaves):
    """grad_check's report when every replay pass raises: every component
    is probed by calling f()."""
    def raising(*args):
        raise ValueError("no replay")

    with monkeypatch.context() as patch:
        patch.setattr(ad, "_replay", raising)
        return grad_check(f, leaves)


def same_report(a, b):
    return (a.max_rel_error, a.per_leaf, a.skipped) == (b.max_rel_error, b.per_leaf, b.skipped)


def test_grad_check_falls_back_where_f_branches_outside_any_op(monkeypatch):
    x = leaf([0.0, 1.0, 2.0])

    def f():
        y = ad.mul(x, 1.0)
        # a decision on a value outside any op: the tape records the
        # branch taken at x[0] = 0, and x[0] + step takes the other one
        if y.data[0] > 0.0:
            return ad.tsum(ad.mul(y, y))
        return ad.tsum(y)

    report = grad_check(f, {"x": x})
    assert report.fallbacks == 1
    alone = probed_by_f_alone(monkeypatch, f, {"x": x})
    assert alone.fallbacks == 1
    assert same_report(report, alone)
    assert report.max_rel_error > 0.5


def test_grad_check_falls_back_where_a_node_leaves_a_parent_off(monkeypatch):
    x, y = leaf([0.5, -0.3, 0.8]), leaf([1.5, 2.0, -1.0])

    def leaky_vjp(node, g):
        ad._acc(node.parents[0], g * y.data)

    def leaky_mul(a, b):
        # x * y with only x on its node: y's changes never reach a replay
        return ad._apply("leaky_mul", (a,), leaky_vjp, np.multiply, b.data)

    def f():
        return ad.tsum(oracle.tanh(leaky_mul(x, y)))

    leaves = {"x": x, "y": y}
    report = grad_check(f, leaves)
    assert report.fallbacks == 1
    assert same_report(report, probed_by_f_alone(monkeypatch, f, leaves))
    assert report.per_leaf["x"] < 1e-6
    assert report.per_leaf["y"] > 0.5


@pytest.mark.skipif(not ad._REFINE_AVAILABLE,
                    reason="long double is no wider than float64 here")
def test_grad_check_refines_by_f_where_a_forward_drops_long_double(monkeypatch):
    x, y = leaf([0.5, -0.3]), leaf([0.2, 0.7, -0.4])

    def identity_vjp(node, g):
        ad._acc(node.parents[0], g)

    def as_float64(a):
        return np.asarray(a, dtype=np.float64)

    def to_float64(a):
        # an op made by hand whose forward rounds its result to float64:
        # x's long-double replay comes back in float64, as noisy as the
        # float64 sweep that flagged its components
        return ad._apply("to_float64", (a,), identity_vjp, as_float64)

    def f():
        # gradients of 1e-7 on a loss near 1: every component is refined
        x_part = to_float64(ad.mul(x, 1e-7))
        return ad.tsum(ad.add(ad.add(x_part, ad.tsum(ad.mul(y, 1e-7))), 1.0))

    leaves = {"x": x, "y": y}
    report = grad_check(f, leaves)
    assert (report.refined, report.fallbacks) == (5, 1)
    # the taped call, the float64 guards' 2 * 2 * 2, then x's long-double
    # guard and its other component by f(), and y's long-double guard
    assert report.forward_calls == 1 + 8 + 2 + 2 + 2
    assert same_report(report, probed_by_f_alone(monkeypatch, f, leaves))
    assert report.per_leaf["y"] < 1e-6 < report.per_leaf["x"]


# -- replay against calling f() ------------------------------------------------------

TINY = dict(hidden_size=6, layers=2)
# Head biases that make the criterion-4 decoder wrap an entry past pi at
# two of its three steps, no entry within 0.48 of pi (as in
# tools/fingerprint.py)
WRAP_BIASES = {"dec.proj.0.b": [1.8, 0.3, 0.3, 0.2, 0.3, 0.2],
               "dec.proj.1.b": [1.4, 0.3, 0.3, 0.2, 0.3, 0.2]}


def first_step_wraps(f) -> bool:
    """Whether the first decoder step of ``f``'s tape wraps an entry."""
    order = ad._tape_order(f())
    wrap = next(n for n in order if n.op == "wrap")
    return wrap.data is not wrap.parents[0].data


def at_pi_biases(config, step=1e-5):
    """A head bias that puts pose entry 0 of the criterion-4 decoder's
    first step at (pi - step / 2, 0, 0): at +step on ``dec.proj.0.b[0]``
    it wraps, at -step it does not."""
    f, _ = model_loss_fn("fork7", config, windows=1, observed=6, horizon=3, seed=7)
    order = ad._tape_order(f())
    before_wrap = next(n for n in order if n.op == "wrap").parents[0].data  # bias 0
    bias = np.zeros(6)
    bias[:3] = np.array([np.pi - step / 2, 0.0, 0.0]) - before_wrap[0, :3]
    return {"dec.proj.0.b": bias}


# name -> (config, head biases or a function of the config giving them,
# decoder steps that wrap on the recorded tape)
REPLAY_FIXTURES = {
    "criterion-4": (ModelConfig(**TINY), None, 0),
    "no-global-temporal": (ModelConfig(**TINY, global_temporal=False), None, 0),
    "no-global-spatial": (ModelConfig(**TINY, global_spatial=False), None, 0),
    "plain-decoder": (ModelConfig(**TINY, decoder="plain"), None, 0),
    "wrap-past-pi": (ModelConfig(**TINY), WRAP_BIASES, 2),
    "wrap-at-pi": (ModelConfig(**TINY), at_pi_biases, 1),
}


@pytest.mark.parametrize("fixture", sorted(REPLAY_FIXTURES))
def test_replayed_losses_equal_calling_f(fixture):
    """The oracle for grad_check's replay: every probe's loss from a
    batched pass through the recorded tape is np.array_equal to the loss
    f() returns at that probe.  Each leaf is probed as grad_check probes
    it, in passes of the size its cone gives, at a number of components
    that is not a multiple of it: the first, last and seeded others to
    fill one pass and one component of a second (a smaller leaf whole)."""
    config, biases, recorded_wraps = REPLAY_FIXTURES[fixture]
    f, named = model_loss_fn("fork7", config, windows=1, observed=6, horizon=3, seed=7,
                             biases=biases(config) if callable(biases) else biases)
    root = f()
    order = ad._tape_order(root)
    wraps = [n for n in order if n.op == "wrap" and n.data is not n.parents[0].data]
    assert len(wraps) == recorded_wraps
    if fixture == "wrap-at-pi":  # one component's two probes fall on both sides of pi
        b = named["dec.proj.0.b"].data
        orig, outcomes = b[0], []
        for value in (orig + 1e-5, orig - 1e-5):
            b[0] = value
            outcomes.append(first_step_wraps(f))
        b[0] = orig
        assert outcomes == [True, False]
    rng = np.random.default_rng(51)
    with no_grad():
        for name, t in named.items():
            steps, size = ad._cone(order, t)
            # every value but the root's is dropped after its last reader
            assert sorted(k for *_, done in steps for k in done) == list(range(len(steps)))
            flat = t.data.reshape(-1)
            n = flat.size
            picks = list(range(n))
            if n > size + 1:
                others = rng.choice(np.arange(1, n - 1), size - 1, replace=False)
                picks = sorted({0, n - 1, *others.tolist()})
            for lo in range(0, len(picks), size):
                index = picks[lo:lo + size]
                losses = ad._replay(steps, root, t, index, 1e-5)
                assert losses.shape == (2 * len(index),)
                for j, i in enumerate(index):
                    orig = flat[i]
                    for k, value in enumerate((orig + 1e-5, orig - 1e-5)):
                        flat[i] = value
                        assert np.array_equal(losses[2 * j + k], f().data), (name, i, k)
                    flat[i] = orig


@pytest.mark.skipif(not ad._REFINE_AVAILABLE,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("fixture", sorted(REPLAY_FIXTURES))
def test_long_double_replay_equals_refine_fd(fixture):
    """The oracle for grad_check's refinement: with the leaf widened to
    long double, the losses of a replay pass through its cone are
    np.array_equal to the ones ``_by_f`` gets by calling f() on a widened
    copy of the leaf.  Each leaf's first, last and one seeded component
    are probed in passes of half its cone's float64 size, as grad_check
    refines, and the losses are long double wherever the leaf reaches
    the root."""
    config, biases, _ = REPLAY_FIXTURES[fixture]
    f, named = model_loss_fn("fork7", config, windows=1, observed=6, horizon=3, seed=7,
                             biases=biases(config) if callable(biases) else biases)
    root = f()
    order = ad._tape_order(root)
    rng = np.random.default_rng(53)
    with no_grad():
        for name, t in named.items():
            steps, size = ad._cone(order, t)
            n = t.data.size
            picks = sorted({0, n - 1, int(rng.integers(n))})
            size = max(1, size // 2)
            losses = np.concatenate([
                ad._replay(steps, root, t, picks[lo:lo + size], 1e-5, np.longdouble)
                for lo in range(0, len(picks), size)])
            if steps:  # a cone holds the root whenever the leaf reaches it
                assert losses.dtype == np.longdouble, name
            by_f = ad._by_f(f, t, picks, 1e-5, np.longdouble)
            assert np.array_equal(losses.reshape(-1, 2), by_f), name


# cell forward -> (static args, operand arrays), the operands as in OPS
CELL_FORWARDS = {
    "gated": (ad._gated_fwd, (), OPS["gated_cell"][1]),
    "lstm": (ad._lstm_fwd, (), OPS["lstm_cell"][1]),
    "pooled": (ad._pooled_fwd, ((3, 2, 2), 0),
               [*OPS["pooled_cell"][1][:4],
                *(t.data for t in stack_global(*OPS["pooled_cell"][1][4:]))]),
    "grid": (ad._grid_fwd, ((1, 2, 3, 2), np.array([[0.0], [1.0], [1.0]] * 2)),
             [*OPS["grid_cell"][1][:5], np.concatenate(OPS["grid_cell"][1][5:10]),
              *OPS["grid_cell"][1][10:]]),
}


@pytest.mark.parametrize("cell", sorted(CELL_FORWARDS))
def test_cell_forward_over_a_probe_axis_equals_stacked_calls(cell):
    """A cell forward given some operands with a leading probe axis (a
    1-D bias padded to (P, 1, n), as replay passes it) returns, for each
    probe, exactly the values of the unbatched call on that probe's
    operands; values the probed operands do not reach keep no probe axis."""
    fwd, args, arrays = CELL_FORWARDS[cell]
    rng = np.random.default_rng(52)
    P = 3
    for probed in [[k] for k in range(len(arrays))] + [list(range(len(arrays)))]:
        probes = [[a + (0.01 * p * rng.normal(size=a.shape) if k in probed else 0.0)
                   for k, a in enumerate(arrays)] for p in range(P)]
        batched = [np.stack([probe[k] for probe in probes]).reshape(P, *(1,) * (2 - a.ndim),
                                                                     *a.shape)
                   if k in probed else a for k, a in enumerate(arrays)]
        got = fwd(*args, *batched)
        for p in range(P):
            want = fwd(*args, *probes[p])
            for g, w in zip((*got, ad._value(got)), (*want, ad._value(want)), strict=True):
                assert np.array_equal(g[p] if g.ndim > w.ndim else g, w), (probed, p)
