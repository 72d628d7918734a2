"""Whole-model forward/predict behavior."""

import re

import numpy as np
import pytest

import sthrn.autodiff as ad
from sthrn.autodiff import backward
from sthrn.encoder import GATE_ORDER, ChainLayout, encode
from sthrn.model import ModelConfig, ModelParams, forward, frames_tensor, param_table, predict
from sthrn.skeleton import builtin_topology, synth_motion
from sthrn.training import bone_weights, weighted_loss

TOPO = builtin_topology("fork7")
LAYOUT = ChainLayout.from_topology(TOPO)
CFG = ModelConfig(hidden_size=4, layers=2)


def observed_frames(frames, seed=0):
    return synth_motion("sinusoid", frames, TOPO, seed=seed).frames


def test_predict_shape_and_determinism():
    params = ModelParams.init(CFG, LAYOUT, seed=1)
    obs = observed_frames(6)
    a = predict(params, CFG, LAYOUT, obs, horizon=4)
    b = predict(params, CFG, LAYOUT, obs, horizon=4)
    assert a.shape == (4, 4, 3)
    assert np.array_equal(a, b)


def test_param_init_deterministic_by_seed():
    a = ModelParams.init(CFG, LAYOUT, seed=7).named()
    b = ModelParams.init(CFG, LAYOUT, seed=7).named()
    c = ModelParams.init(CFG, LAYOUT, seed=8).named()
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key].data, b[key].data), key
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


@pytest.mark.parametrize("kind", ["structured", "plain"])
@pytest.mark.parametrize("topo", ["fork7", "human", "one-chain"])
@pytest.mark.parametrize("ablated", [None, "temporal", "spatial"])
def test_param_table_lists_init_names_shapes_and_order(kind, topo, ablated):
    layout = ChainLayout((1,)) if topo == "one-chain" else ChainLayout.from_topology(
        builtin_topology(topo))
    config = ModelConfig(hidden_size=3, layers=1, decoder=kind,
                         global_temporal=ablated != "temporal",
                         global_spatial=ablated != "spatial")
    named = ModelParams.init(config, layout, seed=5).named()
    assert list(param_table(config, layout).items()) == [
        (name, t.data.shape) for name, t in named.items()]


def test_param_init_draws_in_its_documented_order():
    """Seeded values depend on the draw order, which is not the table's:
    the gates' matrices, the embedding, the temporal then spatial global
    updaters, the decoder cells in wiring order, then the heads; every
    vector (a bias) starts at zero."""
    table = param_table(CFG, LAYOUT)
    drawn = ([f"enc.gate.{gate}.{f}" for gate in GATE_ORDER for f in ("u", "w", "z", "gs", "gt")]
             + ["enc.embed.w"]
             + [f"{prefix}.{f}" for prefix in ("enc.gt", "enc.gs")
                for f in ("w_c", "z_c", "w_f", "z_f", "w_o", "z_o")]
             + ["dec.overall.w", "dec.spine.w", "dec.arm.w", "dec.proj.0.w", "dec.proj.1.w"])
    rng = np.random.default_rng(9)
    want = {name: rng.normal(0.0, 0.1, size=table[name]) for name in drawn}
    named = ModelParams.init(CFG, LAYOUT, seed=9).named()
    assert sorted(named) == sorted(table)
    for name, t in named.items():
        assert np.array_equal(t.data, want.get(name, np.zeros(table[name]))), name


def test_forward_matches_predict_values():
    params = ModelParams.init(CFG, LAYOUT, seed=2)
    obs = observed_frames(5)
    outs = forward(params, CFG, LAYOUT, obs, horizon=3)
    stacked = frames_tensor(outs, LAYOUT.num_entries)
    assert stacked.data.shape == (3, 4, 3)
    assert np.array_equal(stacked.data, predict(params, CFG, LAYOUT, obs, 3))


def test_teacher_forcing_with_own_outputs_is_identity():
    # feeding the model its own previous outputs must match free running
    params = ModelParams.init(CFG, LAYOUT, seed=3)
    obs = observed_frames(5)
    free = predict(params, CFG, LAYOUT, obs, horizon=4)
    outs = forward(params, CFG, LAYOUT, obs, horizon=4, feed=free)
    assert np.array_equal(np.concatenate([t.data for t in outs]).reshape(4, 4, 3), free)


def test_teacher_forcing_changes_later_steps():
    params = ModelParams.init(CFG, LAYOUT, seed=4)
    seq = observed_frames(10, seed=5)
    obs, target = seq[:5], seq[5:9]
    free = predict(params, CFG, LAYOUT, obs, horizon=4)
    forced = forward(params, CFG, LAYOUT, obs, horizon=4, feed=target)
    forced = np.concatenate([t.data for t in forced]).reshape(4, 4, 3)
    assert np.array_equal(forced[0], free[0])      # first step sees the same input
    assert not np.allclose(forced[1:], free[1:])   # later steps see the truth


def test_forward_input_validation():
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    with pytest.raises(ad.ShapeMismatch):
        forward(params, CFG, LAYOUT, np.zeros((5, 3, 3)), 2)
    with pytest.raises(ad.ShapeMismatch):
        forward(params, CFG, LAYOUT, np.zeros((1, 4, 3)), 2)
    with pytest.raises(ValueError):
        forward(params, CFG, LAYOUT, observed_frames(4), 0)


@pytest.mark.parametrize("shape", [(0, 5, 4, 3), (1, 0, 4, 3), (0, 4, 3)],
                         ids=["no-windows", "no-frames", "one-window-no-frames"])
@pytest.mark.parametrize("run", [
    lambda params, observed: encode(observed, params.tensors, LAYOUT, CFG.layers),
    lambda params, observed: forward(params, CFG, LAYOUT, observed, 2),
    lambda params, observed: predict(params, CFG, LAYOUT, observed, 2),
], ids=["encode", "forward", "predict"])
def test_empty_windows_are_refused_naming_their_shape(run, shape):
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    with pytest.raises(ad.ShapeMismatch, match=re.escape(f"got {shape}")):
        run(params, np.zeros(shape))


@pytest.mark.parametrize("observed, where", [((6, 4, 3), "frame 2"),
                                             ((2, 6, 4, 3), "window 1 frame 2")],
                         ids=["one-window", "stacked"])
def test_predict_names_the_first_frame_that_is_not_finite(observed, where):
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    bad = np.zeros(observed)
    windows = bad.reshape(-1, 6, 4, 3)  # a view: a single window is window 0
    windows[-1, 2, 3, 1] = np.nan
    windows[-1, 4, 0, 0] = np.inf
    with pytest.raises(ValueError, match=f"^observed {where} is not finite$"):
        predict(params, CFG, LAYOUT, bad, 2)


@pytest.mark.parametrize("observed, where", [((6, 4, 3), "frame 2"),
                                             ((2, 6, 4, 3), "window 1 frame 2")],
                         ids=["one-window", "stacked"])
def test_forward_names_the_first_observed_frame_that_is_not_finite(observed, where):
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    bad = np.zeros(observed)
    bad.reshape(-1, 6, 4, 3)[-1, 2, 3, 1] = np.nan
    with pytest.raises(ValueError, match=f"^observed {where} is not finite$"):
        forward(params, CFG, LAYOUT, bad, 2)


@pytest.mark.parametrize("feed, message", [
    ((3, 5, 3), r"got \(3, 5, 3\)"),
    ((1, 4, 3), r"^feed needs 1 window\(s\) of at least 2 frames, got \(1, 4, 3\)$"),
    ((2, 2, 4, 3), r"^feed needs 1 window\(s\) of at least 2 frames, got \(2, 2, 4, 3\)$"),
], ids=["bad-entries", "too-few-frames", "too-many-windows"])
def test_forward_refuses_a_feed_of_the_wrong_shape(feed, message):
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    with pytest.raises(ad.ShapeMismatch, match=message):
        forward(params, CFG, LAYOUT, observed_frames(5), 3, feed=np.zeros(feed))


@pytest.mark.parametrize("observed, feed, where", [
    ((5, 4, 3), (3, 4, 3), "frame 1"),
    ((2, 5, 4, 3), (2, 3, 4, 3), "window 1 frame 1"),
], ids=["one-window", "stacked"])
def test_forward_names_the_first_feed_frame_that_is_not_finite(observed, feed, where):
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    bad = np.zeros(feed)
    bad.reshape(-1, 3, 4, 3)[-1, 1, 2, 0] = np.nan
    with pytest.raises(ValueError, match=f"^feed {where} is not finite$"):
        forward(params, CFG, LAYOUT, np.zeros(observed), 3, feed=bad)


def test_forward_reads_only_the_feed_frames_it_feeds():
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    obs, target = observed_frames(5, seed=3), observed_frames(3, seed=4)
    unused = target.copy()
    unused[2] = np.nan  # the last step's output is never fed back
    want = forward(params, CFG, LAYOUT, obs, 3, feed=target)
    got = forward(params, CFG, LAYOUT, obs, 3, feed=unused[:2])
    assert all(np.array_equal(g.data, w.data) for g, w in zip(got, want))
    got = forward(params, CFG, LAYOUT, obs, 3, feed=unused)
    assert all(np.array_equal(g.data, w.data) for g, w in zip(got, want))


def test_predict_checks_the_rank_before_the_values():
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    bad = np.zeros((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ad.ShapeMismatch, match=r"got \(5, 3\)"):
        predict(params, CFG, LAYOUT, bad, 2)


@pytest.mark.parametrize("key, value", [("global_temporal", "false"), ("global_spatial", 1),
                                        ("hidden_size", 4.0), ("layers", True),
                                        ("decoder", None)])
def test_model_config_rejects_mistyped_fields(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        ModelConfig(**{key: value})


def test_ablation_configs_run():
    obs = observed_frames(5)
    for cfg in (
        ModelConfig(hidden_size=4, layers=2, global_temporal=False),
        ModelConfig(hidden_size=4, layers=2, global_spatial=False),
        ModelConfig(hidden_size=4, layers=2, decoder="plain"),
    ):
        params = ModelParams.init(cfg, LAYOUT, seed=7)
        out = predict(params, cfg, LAYOUT, obs, horizon=2)
        assert out.shape == (2, 4, 3)
        assert np.all(np.isfinite(out))


def test_ablations_change_the_prediction():
    obs = observed_frames(6, seed=8)
    base_cfg = ModelConfig(hidden_size=4, layers=2)
    base = predict(ModelParams.init(base_cfg, LAYOUT, seed=9), base_cfg, LAYOUT, obs, 3)
    for cfg in (
        ModelConfig(hidden_size=4, layers=2, global_temporal=False),
        ModelConfig(hidden_size=4, layers=2, global_spatial=False),
    ):
        out = predict(ModelParams.init(cfg, LAYOUT, seed=9), cfg, LAYOUT, obs, 3)
        assert not np.allclose(out, base)


def test_predicted_entries_stay_wrapped():
    params = ModelParams.init(CFG, LAYOUT, seed=10)
    obs = observed_frames(6, seed=11)
    out = predict(params, CFG, LAYOUT, obs, horizon=20)
    assert np.all(np.linalg.norm(out, axis=2) <= np.pi + 1e-12)


# -- batched windows against per-window oracles ------------------------------------

H = 3
THETA = bone_weights(TOPO.entry_lengths())
BATCH_CONFIGS = {
    "structured": ModelConfig(hidden_size=4, layers=2),
    "plain": ModelConfig(hidden_size=4, layers=2, decoder="plain"),
    "no-global-temporal": ModelConfig(hidden_size=4, layers=2, global_temporal=False),
    "no-global-spatial": ModelConfig(hidden_size=4, layers=2, global_spatial=False),
}


def three_windows(t=6):
    """Three (t, K, 3) observed windows and their (H, K, 3) targets, cut
    from sequences unlike each other so a leak between windows shows."""
    seqs = [observed_frames(t + H + 7 * b, seed=30 + b)[7 * b:] for b in range(3)]
    return [s[:t] for s in seqs], [s[t:] for s in seqs]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("teacher", [False, True], ids=["free", "teacher"])
@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_batched_tape_matches_mean_of_window_tapes(name, teacher):
    cfg = BATCH_CONFIGS[name]
    params = ModelParams.init(cfg, LAYOUT, seed=12)
    named = params.named()
    k = LAYOUT.num_entries
    obs, targets = three_windows()

    def loss_of(observed, target, feed):
        outs = forward(params, cfg, LAYOUT, observed, H, feed=feed)
        return weighted_loss(frames_tensor(outs, k), target, THETA)

    want_loss = 0.0
    want = {n: np.zeros_like(t.data) for n, t in named.items()}
    for o, tg in zip(obs, targets):
        loss = loss_of(o, tg, tg if teacher else None)
        backward(loss, leaves=named.values())
        want_loss += float(loss.data) / 3
        for n, t in named.items():
            want[n] += t.grad / 3

    stacked = np.stack(targets)
    loss = loss_of(np.stack(obs), stacked.reshape(-1, k, 3), stacked if teacher else None)
    backward(loss, leaves=named.values())
    assert abs(float(loss.data) - want_loss) <= 1e-12 * abs(want_loss)
    for n, t in named.items():
        if not np.any(want[n]):
            assert not np.any(t.grad), n
        else:
            assert rel_err(t.grad, want[n]) <= 1e-12, n


@pytest.mark.parametrize("name", ["structured", "no-global-temporal", "no-global-spatial"])
def test_batched_encode_keeps_windows_apart(name):
    cfg = BATCH_CONFIGS[name]
    params = ModelParams.init(cfg, LAYOUT, seed=13)
    obs, _ = three_windows(t=5)
    args = (params.named(), LAYOUT, cfg.layers, cfg.global_temporal, cfg.global_spatial)
    batched = encode(np.stack(obs), *args)
    t, k = obs[0].shape[0], LAYOUT.num_entries
    assert batched.grid_shape == (3, t, k, cfg.hidden_size)
    rows = {"h": t * k, "c": t * k, "g_t": k, "c_gt": k, "g_s": t, "c_gs": t}
    for b, o in enumerate(obs):
        single = encode(o, *args)
        for field, n in rows.items():
            got = getattr(batched, field).data[b * n:(b + 1) * n]
            want = getattr(single, field).data
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want))), \
                (b, field)


def test_batched_predict_matches_stacked_predicts():
    params = ModelParams.init(CFG, LAYOUT, seed=14)
    obs, _ = three_windows()
    got = predict(params, CFG, LAYOUT, np.stack(obs), horizon=8)
    assert got.shape == (3, 8, 4, 3)
    want = np.stack([predict(params, CFG, LAYOUT, o, horizon=8) for o in obs])
    assert rel_err(got, want) <= 1e-12
    one = predict(params, CFG, LAYOUT, obs[0][None], horizon=8)
    assert one.shape == (1, 8, 4, 3)
    assert np.array_equal(one[0], want[0])
