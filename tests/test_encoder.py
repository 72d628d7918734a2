"""Encoder grid/global update checks against independent calculators."""

from functools import partial, reduce

import numpy as np
import pytest
from scipy.special import expit

import sthrn.autodiff as ad
import sthrn.model
from sthrn.autodiff import Tensor, backward, grad_check
from sthrn.encoder import (
    GATE_ORDER,
    ChainLayout,
    GLOBAL_FIELDS,
    encode,
)
from sthrn.model import ModelConfig, ModelParams, forward, frames_tensor
from sthrn.skeleton import builtin_topology, synth_motion
from sthrn.training import bone_weights, weighted_loss

import tape_oracles as oracle
from encoder_reference import encode_reference, local_cell_step


def fork_layout():
    return ChainLayout.from_topology(builtin_topology("fork7"))


def random_params(hidden, seed):
    """The encoder's entries of a seeded model's parameter table."""
    named = ModelParams.init(ModelConfig(hidden_size=hidden), ChainLayout((1,)), seed).named()
    return {name: t for name, t in named.items() if name.startswith("enc.")}


def zero_global_weights(hidden):
    """A global updater's stacked weight and bias, all zero, as
    ``ad.pooled_cell`` takes them."""
    return Tensor(np.zeros((2 * hidden, 3 * hidden))), Tensor(np.zeros(3 * hidden))


# -- layout ---------------------------------------------------------------------


def test_layout_entry_bookkeeping():
    lay = ChainLayout((2, 2))
    assert lay.num_entries == 4
    assert np.array_equal(lay.spatial_prev(), [-1, 0, -1, 2])


def test_layout_from_topologies():
    assert fork_layout().entry_counts == (2, 2)
    human = ChainLayout.from_topology(builtin_topology("human"))
    assert human.entry_counts == (4, 2, 2, 2, 2)
    assert np.array_equal(
        human.spatial_prev(), [-1, 0, 1, 2, -1, 4, -1, 6, -1, 8, -1, 10]
    )


def test_layout_rejects_empty_chains():
    with pytest.raises(ValueError):
        ChainLayout(())
    with pytest.raises(ValueError):
        ChainLayout((2, 0))
    with pytest.raises(ValueError, match="whole number"):
        ChainLayout((2.0, 2))


# -- layer 0 --------------------------------------------------------------------


def test_layer_zero_embed_and_means():
    lay = fork_layout()
    params = random_params(5, seed=0)
    rng = np.random.default_rng(1)
    p = rng.normal(size=(3, 4, 3))
    st = encode(p, params, lay, 0)
    e = p.reshape(12, 3) @ params["enc.embed.w"].data + params["enc.embed.b"].data
    assert np.allclose(st.h.data, e, atol=1e-15)
    assert np.array_equal(st.h.data, st.c.data)
    grid = e.reshape(3, 4, 5)
    assert np.allclose(st.g_t.data, grid.mean(axis=0), atol=1e-15)
    assert np.allclose(st.g_s.data, grid.mean(axis=1), atol=1e-15)
    assert np.array_equal(st.g_t.data, st.c_gt.data)
    assert np.array_equal(st.g_s.data, st.c_gs.data)


def test_layer_zero_disabled_globals_are_zero():
    lay = fork_layout()
    params = random_params(5, seed=2)
    p = np.random.default_rng(3).normal(size=(3, 4, 3))
    st = encode(p, params, lay, 0, global_temporal=False, global_spatial=False)
    assert np.array_equal(st.g_t.data, np.zeros((4, 5)))
    assert np.array_equal(st.g_s.data, np.zeros((3, 5)))


def test_parameter_count_formula():
    # embed 4h; nine gates at 6h^2 + 4h each; two global updaters at
    # 6h^2 + 3h each: total 66h^2 + 46h
    for hidden in (2, 6):
        params = random_params(hidden, seed=4)
        total = sum(t.data.size for t in params.values())
        assert total == 66 * hidden * hidden + 46 * hidden


def test_named_covers_every_tensor_once():
    params = random_params(3, seed=5)
    assert len(params) == 2 + 9 * 6 + 2 * 9
    ids = [id(t) for t in params.values()]
    assert len(set(ids)) == len(ids)


# -- single cell against an independent calculator ------------------------------------


def independent_cell(i, j, h, c, g_t, c_gt, g_s, c_gs, p, params, layout):
    """Bone-by-bone recomputation with its own gate loop and expit."""
    T, K, hidden = h.shape
    prev = layout.spatial_prev()[j]
    neighbors = {
        "left": h[i - 1, j] if i - 1 >= 0 else np.zeros(hidden),
        "right": h[i + 1, j] if i + 1 <= T - 1 else np.zeros(hidden),
        "same": h[i, j],
        "sp": h[i, prev] if prev != -1 else np.zeros(hidden),
    }
    stacked = np.concatenate([neighbors["left"], neighbors["right"], neighbors["same"]])
    acts = {}
    for name in GATE_ORDER:
        gp = {f: params[f"enc.gate.{name}.{f}"].data for f in ("u", "w", "z", "gs", "gt", "bias")}
        pre = gp["bias"].copy()
        pre += p[i, j] @ gp["u"]
        pre += stacked @ gp["w"]
        pre += neighbors["sp"] @ gp["z"]
        pre += g_s[i] @ gp["gs"]
        pre += g_t[j] @ gp["gt"]
        acts[name] = np.tanh(pre) if name == "cand" else expit(pre)
    c_terms = [
        acts["in"] * acts["cand"],
        acts["left"] * (c[i - 1, j] if i - 1 >= 0 else 0.0),
        acts["same"] * c[i, j],
        acts["right"] * (c[i + 1, j] if i + 1 <= T - 1 else 0.0),
        acts["spatial"] * (c[i, prev] if prev != -1 else 0.0),
        acts["gs"] * c_gs[i],
        acts["gt"] * c_gt[j],
    ]
    c_new = np.sum(c_terms, axis=0)
    return acts["out"] * np.tanh(c_new), c_new


def test_local_cell_step_matches_independent_calculator():
    lay = fork_layout()
    hidden = 4
    params = random_params(hidden, seed=6)
    rng = np.random.default_rng(7)
    T, K = 3, lay.num_entries
    h = rng.normal(size=(T, K, hidden))
    c = rng.normal(size=(T, K, hidden))
    g_t, c_gt = rng.normal(size=(2, K, hidden))
    g_s, c_gs = rng.normal(size=(2, T, hidden))
    p = rng.normal(size=(T, K, 3))
    for i in range(T):
        for j in range(K):
            got_h, got_c = local_cell_step(
                i, j, h, c, g_t, c_gt, g_s, c_gs, p, params, lay)
            want_h, want_c = independent_cell(
                i, j, h, c, g_t, c_gt, g_s, c_gs, p, params, lay)
            assert np.allclose(got_h, want_h, atol=1e-12), (i, j)
            assert np.allclose(got_c, want_c, atol=1e-12), (i, j)


# -- global state update ----------------------------------------------------------------


def test_global_step_zero_params_spatial_six_cells():
    # zero parameters make every sigmoid 1/2: with six equal cell states
    # and no previous global cell, the new cell is 0.5 * 6 * c0 = 3 c0
    hidden, T, K = 2, 1, 6
    c0 = np.array([0.8, -1.4])
    c_new = Tensor(np.tile(c0, (T * K, 1)))
    h_new = Tensor(np.random.default_rng(8).normal(size=(T * K, hidden)))
    g_prev = Tensor(np.zeros((T, hidden)))
    c_prev = Tensor(np.zeros((T, hidden)))
    g, c = ad.pooled_cell(h_new, c_new, g_prev, c_prev, *zero_global_weights(hidden),
                          (T, K, hidden), axis=1)
    assert np.allclose(c.data, 3.0 * c0, atol=1e-14)
    assert np.allclose(g.data, 0.5 * np.tanh(3.0 * c0), atol=1e-14)


def test_global_step_zero_params_temporal_four_frames():
    # axis 0 with four frames: cell contribution 2 c0 plus half the
    # previous global cell
    hidden, T, K = 3, 4, 1
    c0 = np.array([0.3, -0.2, 1.1])
    prev = np.array([[2.0, 4.0, -6.0]])
    c_new = Tensor(np.tile(c0, (T * K, 1)))
    h_new = Tensor(np.random.default_rng(9).normal(size=(T * K, hidden)))
    g, c = ad.pooled_cell(
        Tensor(h_new.data), c_new, Tensor(prev.copy()), Tensor(prev.copy()),
        *zero_global_weights(hidden), (T, K, hidden), axis=0,
    )
    assert np.allclose(c.data, 2.0 * c0 + 0.5 * prev, atol=1e-14)
    assert np.allclose(g.data, 0.5 * np.tanh(2.0 * c0 + 0.5 * prev), atol=1e-14)


# -- full encode: vectorized vs looped reference ----------------------------------------


@pytest.mark.parametrize(
    "global_temporal,global_spatial",
    [(True, True), (False, True), (True, False), (False, False)],
)
def test_encode_matches_reference(global_temporal, global_spatial):
    lay = fork_layout()
    params = random_params(5, seed=10)
    p = np.random.default_rng(11).normal(size=(4, 4, 3)) * 0.7
    state = encode(p, params, lay, layers=3,
                   global_temporal=global_temporal, global_spatial=global_spatial)
    ref = encode_reference(p, params, lay, layers=3,
                           global_temporal=global_temporal,
                           global_spatial=global_spatial)
    T, K, hidden = 4, 4, 5
    assert np.allclose(state.h.data.reshape(T, K, hidden), ref["h"], atol=1e-12)
    assert np.allclose(state.c.data.reshape(T, K, hidden), ref["c"], atol=1e-12)
    assert np.allclose(state.g_t.data, ref["g_t"], atol=1e-12)
    assert np.allclose(state.g_s.data, ref["g_s"], atol=1e-12)


def test_cell_visitation_order_is_irrelevant():
    # every cell reads only previous-layer state, so a permuted sweep is
    # bit-identical, not merely close
    lay = fork_layout()
    params = random_params(4, seed=12)
    p = np.random.default_rng(13).normal(size=(5, 4, 3))
    T, K = 5, 4
    default = encode_reference(p, params, lay, layers=2)
    rng = np.random.default_rng(14)
    cells = [(i, j) for i in range(T) for j in range(K)]
    for _ in range(3):
        rng.shuffle(cells)
        permuted = encode_reference(p, params, lay, layers=2, cell_order=list(cells))
        for key in default:
            assert np.array_equal(default[key], permuted[key]), key


def test_disabled_globals_stay_zero_through_layers():
    lay = fork_layout()
    params = random_params(4, seed=15)
    p = np.random.default_rng(16).normal(size=(3, 4, 3))
    state = encode(p, params, lay, layers=4,
                   global_temporal=False, global_spatial=False)
    assert np.array_equal(state.g_t.data, np.zeros((4, 4)))
    assert np.array_equal(state.g_s.data, np.zeros((3, 4)))
    assert np.array_equal(state.c_gt.data, np.zeros((4, 4)))
    assert np.array_equal(state.c_gs.data, np.zeros((3, 4)))


def test_hidden_states_are_bounded():
    # h = sigmoid * tanh and the globals pass an output sigmoid and tanh,
    # so both stay inside (-1, 1) no matter how many layers run
    lay = fork_layout()
    params = random_params(6, seed=17)
    p = np.random.default_rng(18).normal(size=(4, 4, 3)) * 3.0
    state = encode(p, params, lay, layers=10)
    assert np.all(np.abs(state.h.data) < 1.0)
    assert np.all(np.abs(state.g_t.data) < 1.0)
    assert np.all(np.abs(state.g_s.data) < 1.0)


def test_encode_rejects_bad_input_shape():
    lay = fork_layout()
    params = random_params(3, seed=19)
    with pytest.raises(ad.ShapeMismatch):
        encode(np.zeros((4, 3, 3)), params, lay, layers=1)


def test_encode_refuses_a_negative_layer_count():
    params = random_params(3, seed=19)
    p = np.zeros((3, 4, 3))
    with pytest.raises(ValueError, match=r"^layers must be at least 0, got -1$"):
        encode(p, params, fork_layout(), layers=-1)


# -- custom grid ops carry correct gradients ----------------------------------------------


def test_mask_mul_gradient():
    t = Tensor(np.arange(6.0).reshape(3, 2))
    mask = np.array([[1.0], [0.0], [1.0]])
    out = ad.mul(t, mask)  # a raw mask enters as a const: no gradient of its own
    backward(ad.tsum(out), leaves=[t])
    assert np.array_equal(t.grad, np.broadcast_to(mask, (3, 2)))
    assert out.parents[1].op == "const" and out.parents[1].grad is None


def test_repeat_rows_gradient():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = oracle.spread_rows(t, (1, 2, 3, 2), axis=2)  # each frame's row over 3 bones
    assert np.array_equal(out.data, np.repeat(t.data, 3, axis=0))
    w = Tensor(np.arange(12.0).reshape(6, 2))
    backward(ad.tsum(ad.mul(out, w)), leaves=[t])
    assert np.array_equal(t.grad, w.data.reshape(2, 3, 2).sum(axis=1))


def test_tile_rows_gradient():
    t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = oracle.spread_rows(t, (1, 3, 2, 2), axis=1)  # the 2 bone rows over 3 frames
    assert np.array_equal(out.data, np.tile(t.data, (3, 1)))
    w = Tensor(np.arange(12.0).reshape(6, 2))
    backward(ad.tsum(ad.mul(out, w)), leaves=[t])
    assert np.array_equal(t.grad, w.data.reshape(3, 2, 2).sum(axis=0))


def test_shift_gradients_shift_back():
    t = Tensor(np.arange(8.0).reshape(4, 2))
    w = Tensor(np.arange(8.0).reshape(4, 2) + 1.0)
    down_out = oracle.shift_rows(t, 1)
    assert np.array_equal(down_out.data, np.vstack([np.zeros((1, 2)), t.data[:-1]]))
    backward(ad.tsum(ad.mul(down_out, w)), leaves=[t])
    down = t.grad.copy()
    assert np.array_equal(down, np.vstack([w.data[1:], np.zeros((1, 2))]))
    up_out = oracle.shift_rows(t, -1)
    assert np.array_equal(up_out.data, np.vstack([t.data[1:], np.zeros((1, 2))]))
    backward(ad.tsum(ad.mul(up_out, w)), leaves=[t])
    assert np.array_equal(t.grad, np.vstack([np.zeros((1, 2)), w.data[:-1]]))


STATE_FIELDS = ("h", "c", "g_t", "c_gt", "g_s", "c_gs")


def interior_nodes(state):
    """Every tape node the encoder state's tensors depend on."""
    nodes, stack = {}, [getattr(state, name) for name in STATE_FIELDS]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return [n for n in nodes.values() if n.parents]


def test_taped_layer_is_one_grid_cell_and_two_pooled_cells():
    # each layer adds one grid_cell, two pooled_cell and their six
    # outputs; the global states enter the cells without spread copies
    lay = fork_layout()
    params = random_params(3, seed=24)
    p = np.random.default_rng(25).normal(size=(2, 3, 4, 3))
    ops = [[n.op for n in interior_nodes(encode(p, params, lay, layers=layers))]
           for layers in (2, 3)]
    assert "spread" not in ops[1]
    assert len(ops[1]) - len(ops[0]) == 9
    assert sorted(ops[1]) == sorted(ops[0] + ["grid_cell"] + ["pooled_cell"] * 2
                                    + ["out"] * 6)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_every_grid_cell_reads_one_stacked_weight_and_bias(layers):
    # encode stacks the gate weights once: every layer's grid cell reads
    # the same (3 + 6n, 9n) node, the five fields' gate columns stacked
    # by rows in block order, and the same bias node
    lay = fork_layout()
    hidden = 3
    params = random_params(hidden, seed=30)
    p = np.random.default_rng(31).normal(size=(2, 3, 4, 3))
    cells = [n for n in interior_nodes(encode(p, params, lay, layers=layers))
             if n.op == "grid_cell"]
    assert len(cells) == layers
    w, b = cells[0].parents[5:7]
    assert all(len(n.parents) == 9 and n.parents[5] is w and n.parents[6] is b for n in cells)
    stacked = np.concatenate([
        np.concatenate([params[f"enc.gate.{gate}.{field}"].data for gate in GATE_ORDER], axis=1)
        for field in ("u", "w", "z", "gs", "gt")])
    assert w.data.shape == (3 + 6 * hidden, 9 * hidden)
    assert np.array_equal(w.data, stacked)
    assert np.array_equal(b.data, np.concatenate(
        [params[f"enc.gate.{gate}.bias"].data for gate in GATE_ORDER]))


@pytest.mark.parametrize("topo", ["fork7", "chain3"])
@pytest.mark.parametrize("ablated", [None, "temporal", "spatial"])
def test_encode_matches_spread_node_layout(topo, ablated):
    """The encoder built from the oracles, with one spread node per
    global state that the grid cell and the pooled cell share, gives
    the same states bit for bit.  Each fused cell pools its own spread
    gradient, where the shared node pooled their sum, so leaf gradients
    differ only by that reassociation: round-off."""
    lay = ChainLayout.from_topology(builtin_topology(topo))
    params = random_params(4, seed=26)
    rng = np.random.default_rng(27)
    B, T, K, d = 2, 3, lay.num_entries, 4
    p = rng.normal(size=(B, T, K, 3))
    heads = [rng.normal(size=(rows, d))
             for rows in (B * T * K,) * 2 + (B * K,) * 2 + (B * T,) * 2]
    flags = {"global_temporal": ablated != "temporal", "global_spatial": ablated != "spatial"}
    leaves = list(params.values())

    def run(build):
        state = build(p, params, lay, 3, **flags)
        outs = [getattr(state, name) for name in STATE_FIELDS]
        root = reduce(ad.add, [ad.tsum(ad.mul(t, w)) for t, w in zip(outs, heads)])
        backward(root, leaves=leaves)
        return [t.data for t in outs], [t.grad.copy() for t in leaves]

    got_states, got_grads = run(encode)
    want_states, want_grads = run(oracle.composed_encode)
    for name, got, want in zip(STATE_FIELDS, got_states, want_states, strict=True):
        assert np.array_equal(got, want), name
    for name, got, want in zip(params, got_grads, want_grads, strict=True):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def assert_moves_only_at_round_off(topo, build, summed, monkeypatch):
    """A hidden-8, 3-layer model on ``topo`` gives the same six states
    of two windows, weighted loss and leaf gradients with ``encode`` as
    its encoder as with ``build``, each within ``summed(hidden)``
    roundings of its largest magnitude."""
    skeleton = builtin_topology(topo)
    lay = ChainLayout.from_topology(skeleton)
    config = ModelConfig(hidden_size=8, layers=3)
    params = ModelParams.init(config, lay, seed=28)
    named = params.named()
    k = lay.num_entries
    seq = synth_motion("sinusoid", 12, skeleton, seed=29).frames
    frames = np.stack([seq[:10], seq[2:]])  # two windows of 6 observed and 4 future frames
    theta = bone_weights(skeleton.entry_lengths())
    bound = summed(config.hidden_size) * np.finfo(np.float64).eps

    def run(build):
        monkeypatch.setattr(sthrn.model, "encode", build)
        state = build(frames[:, :5], named, lay, config.layers)
        outs = forward(params, config, lay, frames[:, :6], 4)
        loss = weighted_loss(frames_tensor(outs, k), frames[:, 6:].reshape(-1, k, 3), theta)
        backward(loss, leaves=named.values())
        return ([getattr(state, name).data for name in STATE_FIELDS] + [loss.data],
                [t.grad.copy() for t in named.values()])

    got_values, got_grads = run(encode)
    want_values, want_grads = run(build)
    for name, got, want in zip(STATE_FIELDS + ("loss",), got_values, want_values, strict=True):
        assert np.abs(got - want).max() <= bound * np.abs(want).max(), name
    for name, got, want in zip(named, got_grads, want_grads, strict=True):
        assert np.abs(got - want).max() <= bound * np.abs(want).max(), name


@pytest.mark.parametrize("topo", ["fork7", "human"])
def test_source_block_moves_the_model_only_at_round_off(topo, monkeypatch):
    """``encode`` against the six-term layout it had before the grid
    cell multiplied one source block (``composed_encode`` with
    ``six_terms``: one ``matmul`` node of U p that every layer reads,
    and the six terms of each pre-activation added in ``_tree_sum``
    order).  One product sums each entry's 3 + 6 * hidden products in
    another order, so the model moves by at most one rounding per
    summed product."""
    assert_moves_only_at_round_off(topo, partial(oracle.composed_encode, six_terms=True),
                                   lambda n: 3 + 6 * n, monkeypatch)


@pytest.mark.parametrize("topo", ["fork7", "human"])
def test_global_update_moves_the_model_only_at_round_off(topo, monkeypatch):
    """``encode`` against ``composed_encode``, whose global updates are
    ``unfused_pooled`` with nine weights on a spread node of each
    previous global state.  The pooled cell multiplies that state at
    pooled rows and pools its cell gate's gradient before the products
    with it and the bias, so the model moves by at most one rounding
    per summed product of a gate's 2 * hidden inputs."""
    assert_moves_only_at_round_off(topo, oracle.composed_encode, lambda n: 2 * n, monkeypatch)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_every_pooled_cell_reads_its_updaters_stacked_weight_and_bias(layers):
    # encode stacks each global updater's weights once: every layer's
    # pooled cell over frames reads the same (2n, 3n) node [[w_c, w_f,
    # w_o], [z_c, z_f, z_o]] of "enc.gt", over bones that of "enc.gs",
    # and the same (3n,) bias node [b_c, b_f, b_o]
    lay = fork_layout()
    hidden = 3
    params = random_params(hidden, seed=32)
    p = np.random.default_rng(33).normal(size=(2, 3, 4, 3))
    cells = [n for n in interior_nodes(encode(p, params, lay, layers=layers))
             if n.op == "pooled_cell"]
    assert len(cells) == 2 * layers
    for prefix, axis in (("enc.gt", 1), ("enc.gs", 2)):
        mine = [n for n in cells if n.args[1] == axis]
        assert len(mine) == layers
        w, b = mine[0].parents[4:]
        assert all(len(n.parents) == 6 and n.parents[4] is w and n.parents[5] is b
                   for n in mine)
        field = {f: params[f"{prefix}.{f}"].data for f in GLOBAL_FIELDS}
        assert np.array_equal(w.data, np.block([[field["w_c"], field["w_f"], field["w_o"]],
                                                [field["z_c"], field["z_f"], field["z_o"]]]))
        assert np.array_equal(b.data, np.concatenate([field["b_c"], field["b_f"], field["b_o"]]))


@pytest.mark.parametrize("ablated", ["temporal", "spatial"])
def test_an_ablated_global_state_stacks_no_updater_weight(ablated, monkeypatch):
    # an updater whose global state is off is never run, so encode must
    # not build its stacked (w, b): four concat nodes (three rows and
    # their stack) fewer, and no concat reads one of its parameters
    lay = fork_layout()
    params = random_params(3, seed=34)
    p = np.random.default_rng(35).normal(size=(2, 3, 4, 3))
    made, concat = [], ad.concat

    def spy(parts, axis=0):
        made.append(out := concat(parts, axis))
        return out

    monkeypatch.setattr(ad, "concat", spy)
    counts = {}
    for off in (None, ablated):
        made.clear()
        encode(p, params, lay, layers=2, global_temporal=off != "temporal",
               global_spatial=off != "spatial")
        counts[off] = sum(n.op == "concat" for n in made)
    assert counts[None] - counts[ablated] == 4
    prefix = {"temporal": "enc.gt.", "spatial": "enc.gs."}[ablated]
    unread = {id(t) for name, t in params.items() if name.startswith(prefix)}
    assert not any(id(q) in unread for n in made for q in n.parents)


def test_encoder_gradients_against_differences():
    # a scalar of every state field exercises each custom op's vjp
    lay = ChainLayout((2,))
    params = random_params(3, seed=20)
    p = np.random.default_rng(21).normal(size=(3, 2, 3))
    leaves = {
        k: v for k, v in params.items()
        if k in ("enc.embed.w", "enc.gate.spatial.z", "enc.gate.gt.gt",
                 "enc.gt.w_c", "enc.gs.z_f", "enc.gate.out.bias")
    }

    def f():
        st = encode(p, params, lay, layers=2)
        return ad.add(ad.add(ad.tsum(st.h), ad.tsum(st.g_t)), ad.tsum(st.g_s))

    report = grad_check(f, leaves)
    assert report.max_rel_error < 1e-4
    assert report.skipped == []
