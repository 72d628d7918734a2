"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints a "criterion N: PASS ..." line with its measured
numbers (visible under ``pytest -s``); under plain ``pytest -v`` the
per-test PASSED/FAILED status is the record.  Criteria 4, 7, and 9 do
real work (full-parameter finite differences, 500 training iterations)
and dominate the runtime of the suite.
"""

import time

import numpy as np
import pytest

from sthrn import autodiff
from sthrn.autodiff import grad_check
from sthrn.encoder import ChainLayout
from sthrn.evaluation import HORIZON_MS, horizon_frames, mae, zero_velocity
from sthrn.geometry import exp_map, log_map, rodrigues
from sthrn.model import ModelConfig, ModelParams, forward, frames_tensor, predict
from sthrn.skeleton import (
    MotionSequence,
    RootConfig,
    builtin_topology,
    lie_to_pose,
    pose_to_lie,
    synth_motion,
)
from sthrn.training import TrainConfig, bone_weights, train, weighted_loss

from encoder_reference import encode_reference
from test_skeleton import root_from_pose

TINY = ModelConfig(hidden_size=6, layers=2)


def tiny_loss_fixture(config, seed=7):
    """Loss-through-everything closure on the smallest honest model:
    K=4 entries over 2 chains, 5 encoder frames, horizon 3."""
    topo = builtin_topology("fork7")
    layout = ChainLayout.from_topology(topo)
    params = ModelParams.init(config, layout, seed=seed)
    seq = synth_motion("sinusoid", 9, topo, seed=3)
    observed, target = seq.frames[:6], seq.frames[6:9]
    theta = bone_weights(topo.entry_lengths())
    k = layout.num_entries

    def f():
        outs = forward(params, config, layout, observed, 3)
        return weighted_loss(frames_tensor(outs, k), target, theta)

    return f, params, layout, observed


def cost(report):
    """What a gradient check cost, as its report counts it."""
    return (f"{report.forward_calls} calls of f, {report.replays} replays in "
            f"{report.passes} passes, {report.fallbacks} fallbacks, {report.refined} refined")


def test_criterion_01_exp_log_roundtrip():
    rng = np.random.default_rng(101)
    axes = rng.normal(size=(1000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(1e-3, np.pi - 1e-3, size=1000)
    start = time.perf_counter()
    worst = 0.0
    for axis, angle in zip(axes, angles):
        r = exp_map(axis * angle)
        back = exp_map(log_map(r))
        worst = max(worst, float(np.linalg.norm(back - r)))
        assert np.linalg.norm(back - r) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS 1000 roundtrips, worst Frobenius error "
          f"{worst:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_02_rodrigues_validity():
    rng = np.random.default_rng(102)
    worst_orth = worst_det = 0.0
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rodrigues(axis, rng.uniform(-2 * np.pi, 2 * np.pi))
        orth = np.abs(r.T @ r - np.eye(3)).max()
        det = abs(np.linalg.det(r) - 1.0)
        worst_orth = max(worst_orth, orth)
        worst_det = max(worst_det, det)
        assert orth < 1e-10
        assert det < 1e-10
    print(f"\ncriterion 2: PASS 1000 matrices, worst |R'R-I| {worst_orth:.2e}, "
          f"worst |det-1| {worst_det:.2e}")


def test_criterion_03_fk_roundtrip_human():
    topo = builtin_topology("human")
    assert len(topo.chains) == 5
    k = topo.num_entries()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=(k, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        w *= rng.uniform(1e-3, np.pi - 0.2, size=(k, 1))
        joints = lie_to_pose(w, topo, RootConfig.canonical(topo))
        back = lie_to_pose(
            pose_to_lie(joints, topo), topo, root_from_pose(joints, topo)
        )
        err = float(np.abs(back - joints).max())
        worst = max(worst, err)
        assert err < 1e-8
    print(f"\ncriterion 3: PASS 100 poses on 5-chain human, worst joint "
          f"error {worst:.2e}")


def test_criterion_04_full_gradient_check():
    f, params, _, _ = tiny_loss_fixture(TINY)
    leaves = params.named()
    n = sum(t.data.size for t in leaves.values())
    start = time.perf_counter()
    report = grad_check(f, leaves, step=1e-5)
    elapsed = time.perf_counter() - start
    assert report.max_rel_error < 1e-4
    assert not report.skipped
    assert elapsed < 60.0
    print(f"\ncriterion 4: PASS {n} parameters, max rel error "
          f"{report.max_rel_error:.3e}, {elapsed:.1f} s, {cost(report)}")


@pytest.mark.skipif(not autodiff._REFINE_AVAILABLE,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("name", ["enc.gate.in.u", "enc.gs.w_o", "dec.overall.w"])
def test_criterion_04_refinement_stays_extended(name):
    # criterion 4 re-probes noisy components with one leaf widened to long
    # double; an op that cast its result to float64 would make that
    # re-probe as noisy as the first one without failing the check
    f, params, _, _ = tiny_loss_fixture(TINY)
    leaf = params.named()[name]
    original = leaf.data
    leaf.data = original.astype(np.longdouble)
    try:
        out = f().data
    finally:
        leaf.data = original
    assert out.dtype == np.longdouble


def test_criterion_05_zero_decoder_is_zero_velocity():
    topo = builtin_topology("fork7")
    layout = ChainLayout.from_topology(topo)
    params = ModelParams.init(TINY, layout, seed=11)
    for name, t in params.named().items():
        if name.startswith("dec."):
            t.data[...] = 0.0
    delta = 0.01
    seq = synth_motion("linear-sweep", 60, topo, seed=1, delta=delta)
    obs, target = seq.frames[:30], seq.frames[30:55]
    pred = predict(params, TINY, layout, obs, 25)
    baseline = zero_velocity(obs, 25)
    assert np.array_equal(pred, baseline)
    errors = mae(pred, target)
    frames = dict(zip(HORIZON_MS, horizon_frames()))
    for ms, value in errors.items():
        assert abs(value - frames[ms] * delta) < 1e-12
    print("\ncriterion 5: PASS zero-decoder predict is bit-identical to the "
          "zero-velocity baseline; sweep MAE matches n*delta at all 8 horizons")


def test_criterion_06_loss_weight_law():
    rng = np.random.default_rng(106)
    theta = bone_weights(rng.uniform(0.5, 2.0, size=5))
    assert np.all(np.diff(theta) < 0.0)
    assert np.array_equal(bone_weights(np.ones(3)), [6.0, 3.0, 1.0])

    from sthrn.autodiff import Tensor

    k = theta.size
    target = np.zeros((1, k, 3))
    first = np.zeros((1, k, 3))
    first[0, 0, 0] = 1.0  # unit-norm error at the first entry
    last = np.zeros((1, k, 3))
    last[0, k - 1, 0] = 1.0
    loss_first = float(weighted_loss(Tensor(first), target, theta).data)
    loss_last = float(weighted_loss(Tensor(last), target, theta).data)
    assert loss_first / loss_last == theta[0] / theta[-1]
    print(f"\ncriterion 6: PASS strictly decreasing weights, unit K=3 gives "
          f"(6, 3, 1), equal-norm loss ratio exactly {theta[0] / theta[-1]:.6f}")


def test_criterion_07_desk_scale_learning():
    topo = builtin_topology("fork7")
    layout = ChainLayout.from_topology(topo)
    seq = synth_motion("sinusoid", 200, topo, seed=21)
    held_out = 180  # training never sees a window crossing this frame
    train_seq = MotionSequence(fps=seq.fps, frames=seq.frames[:held_out], kind="lie")
    theta = bone_weights(topo.entry_lengths())
    tc = TrainConfig(iterations=500, batch_size=16, learning_rate=5e-3,
                     observed=10, horizon=10, seed=2)
    start = time.perf_counter()
    result = train([train_seq], layout, theta, TINY, tc)
    elapsed = time.perf_counter() - start
    first, final = result.metrics[0][1], result.metrics[-1][1]
    assert final <= 0.5 * first
    assert elapsed < 600.0

    obs = seq.frames[held_out:held_out + 10]
    target = seq.frames[held_out + 10:held_out + 20]
    model_mae = mae(predict(result.params, TINY, layout, obs, 10), target)
    zv_mae = mae(zero_velocity(obs, 10), target)
    assert model_mae[400] < zv_mae[400]  # frame 10 at 25 fps
    print(f"\ncriterion 7: PASS loss {first:.3f} -> {final:.3f} "
          f"({100 * final / first:.0f}%), held-out horizon-10 MAE "
          f"{model_mae[400]:.4f} < zero-velocity {zv_mae[400]:.4f}, "
          f"{elapsed:.0f} s")


def test_criterion_08_simultaneous_update_invariance():
    _, params, layout, observed = tiny_loss_fixture(TINY)
    p = observed[:-1]
    base = encode_reference(p, params.named(), layout, TINY.layers)
    k, t = layout.num_entries, p.shape[0]
    rng = np.random.default_rng(108)
    orders = [
        [(i, j) for j in range(k) for i in range(t)],  # frame-minor
        [tuple(pair) for pair in rng.permutation([(i, j) for i in range(t)
                                                  for j in range(k)])],
    ]
    for order in orders:
        other = encode_reference(p, params.named(), layout, TINY.layers,
                                 cell_order=order)
        for key in base:
            assert np.array_equal(base[key], other[key]), key
    print("\ncriterion 8: PASS transposed and shuffled cell visitation "
          "orders leave all encoder states bit-identical")


def test_criterion_09_ablation_gradients():
    ablations = {
        "no-global-temporal": ModelConfig(hidden_size=6, layers=2,
                                          global_temporal=False),
        "no-global-spatial": ModelConfig(hidden_size=6, layers=2,
                                         global_spatial=False),
        "plain-decoder": ModelConfig(hidden_size=6, layers=2, decoder="plain"),
    }
    lines = []
    for name, config in ablations.items():
        f, params, layout, observed = tiny_loss_fixture(config)
        pred = predict(params, config, layout, observed, 3)
        assert np.all(np.isfinite(pred))
        start = time.perf_counter()
        report = grad_check(f, params.named(), step=1e-5)
        elapsed = time.perf_counter() - start
        assert report.max_rel_error < 1e-4
        assert not report.skipped
        assert elapsed < 60.0
        lines.append(f"{name} {report.max_rel_error:.2e} in {elapsed:.0f} s ({cost(report)})")
    print("\ncriterion 9: PASS " + "; ".join(lines))


def test_criterion_10_scope_and_horizon_grid():
    assert HORIZON_MS == (80, 160, 320, 400, 560, 640, 720, 1000)
    assert horizon_frames(25.0) == (2, 4, 8, 10, 14, 16, 18, 25)
    print("\ncriterion 10: PASS published benchmark MAE tables are not "
          "reproduced here: those numbers need the full mocap corpus and "
          "long training runs; this suite asserts the internal-consistency "
          "properties above plus the 8-point horizon grid at 25 fps")
