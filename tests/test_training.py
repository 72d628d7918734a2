"""Loss, optimizer, training-loop, and checkpoint checks."""

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import sthrn
import sthrn.autodiff as ad
import sthrn.training as training
from sthrn.autodiff import Tensor, backward
from sthrn.encoder import ChainLayout
from sthrn.model import ModelConfig, ModelParams, flat_views, param_table, predict
from sthrn.skeleton import (MotionSequence, ParseError, SequenceTooShort, ValidationError,
                            builtin_topology, synth_motion)
from tape_oracles import looped_checkpoint, looped_first_nonfinite, looped_train
from sthrn.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    bone_weights,
    clip_gradients,
    first_nonfinite,
    l2_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    weighted_loss,
    write_metrics,
)

TOPO = builtin_topology("fork7")
LAYOUT = ChainLayout.from_topology(TOPO)
CFG = ModelConfig(hidden_size=3, layers=1)


# -- bone weights -----------------------------------------------------------------


def test_bone_weights_unit_k3_frozen():
    assert np.array_equal(bone_weights(np.ones(3)), [6.0, 3.0, 1.0])


def test_bone_weights_unit_k4_frozen():
    assert np.array_equal(bone_weights(np.ones(4)), [10.0, 6.0, 3.0, 1.0])


def test_bone_weights_nonunit_frozen():
    # lengths (2, 1, 3): terms (3*2, 2*1, 1*3) accumulate to (11, 5, 3)
    assert np.array_equal(bone_weights([2.0, 1.0, 3.0]), [11.0, 5.0, 3.0])


def test_bone_weights_strictly_decreasing():
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = bone_weights(rng.uniform(0.1, 3.0, size=7))
        assert np.all(np.diff(theta) < 0.0)


def test_bone_weights_difference_law():
    # Theta(z) - Theta(z+1) = (K + 1 - z) * l_z with 1-based z
    rng = np.random.default_rng(1)
    lengths = rng.uniform(0.2, 2.0, size=6)
    theta = bone_weights(lengths)
    k = lengths.size
    for z in range(k - 1):
        want = (k - z) * lengths[z]
        assert abs((theta[z] - theta[z + 1]) - want) < 1e-12


# -- losses -----------------------------------------------------------------------


def test_weighted_loss_single_entry_frozen():
    # unit K=3 chain: weight 6 on the first entry; error norm 0.1 -> 0.6
    theta = bone_weights(np.ones(3))
    pred = np.zeros((1, 3, 3))
    pred[0, 0] = [0.1, 0.0, 0.0]
    loss = weighted_loss(Tensor(pred), np.zeros((1, 3, 3)), theta)
    assert abs(loss.data - 0.6) < 1e-12


def test_weighted_loss_averages_frames():
    theta = bone_weights(np.ones(2))
    diff = np.zeros((2, 2, 3))
    diff[0, 1] = [0.0, 0.3, 0.0]  # entry weight 1, only in frame 0
    loss = weighted_loss(Tensor(diff), np.zeros((2, 2, 3)), theta)
    assert abs(loss.data - 0.15) < 1e-12


def test_weighted_loss_gradient_is_weighted_direction():
    theta = bone_weights(np.ones(3))
    rng = np.random.default_rng(13)
    pred = Tensor(rng.normal(size=(1, 3, 3)))
    target = rng.normal(size=(1, 3, 3))
    loss = weighted_loss(pred, target, theta)
    backward(loss, leaves=[pred])
    diff = pred.data - target
    want = theta[:, None] * diff[0] / np.linalg.norm(diff[0], axis=1, keepdims=True)
    assert np.allclose(pred.grad[0], want, atol=1e-12)


def test_weighted_loss_gradient_nan_at_exact_zero_diff():
    # the norm has a kink at zero difference; the gradient is NaN there
    # by design so finite-difference checks skip instead of comparing
    theta = bone_weights(np.ones(2))
    pred = Tensor(np.zeros((1, 2, 3)))
    pred.data[0, 0] = [0.1, 0.0, 0.0]
    loss = weighted_loss(pred, np.zeros((1, 2, 3)), theta)
    backward(loss, leaves=[pred])
    assert np.all(np.isfinite(pred.grad[0, 0]))
    assert np.all(np.isnan(pred.grad[0, 1]))


def test_l2_loss_frozen_and_mean():
    pred = np.zeros((1, 2, 3))
    pred[0, 0] = [0.3, 0.4, 0.0]  # squared norm 0.25
    assert abs(l2_loss(Tensor(pred), np.zeros((1, 2, 3))).data - 0.25) < 1e-15
    two = np.concatenate([pred, np.zeros((1, 2, 3))])
    assert abs(l2_loss(Tensor(two), np.zeros((2, 2, 3))).data - 0.125) < 1e-15


def test_loss_shape_mismatch():
    with pytest.raises(ad.ShapeMismatch):
        weighted_loss(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 3, 3)), np.ones(2))
    with pytest.raises(ad.ShapeMismatch):
        l2_loss(Tensor(np.zeros((1, 2, 3))), np.zeros((2, 2, 3)))


# -- adam -------------------------------------------------------------------------


def reference_adam(p0, grads, lr, beta1, beta2, eps):
    """Textbook moment recursion with explicit bias correction."""
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    p = p0.copy()
    for s, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** s)
        vhat = v / (1.0 - beta2 ** s)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_first_step_size_is_learning_rate():
    # bias correction makes the first update lr-sized for any gradient
    # scale large against epsilon
    for g in (1.0, 100.0):
        p = np.array([0.0])
        adam_step(p, np.array([g]), AdamState.init(1), lr=0.05)
        assert abs(abs(p[0]) - 0.05) < 1e-6


def test_adam_matches_reference_trace():
    rng = np.random.default_rng(2)
    p0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]
    p = p0.reshape(-1).copy()
    state = AdamState.init(p.size)
    for g in grads:
        adam_step(p, g.reshape(-1).copy(), state, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    want = reference_adam(p0, grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    assert np.allclose(p.reshape(p0.shape), want, atol=1e-12)
    assert state.step == 5


def test_adam_updates_every_tensor():
    params = ModelParams(np.zeros(6), {"a": (2,), "b": (2, 2)})
    a, b = params.tensors["a"], params.tensors["b"]
    adam_step(params.flat, np.ones(6), AdamState.init(6), lr=0.1)
    assert np.all(a.data != 0.0)
    assert np.all(b.data != 0.0)


# -- gradient clipping --------------------------------------------------------------


def test_clip_leaves_small_gradients_alone():
    g = np.array([0.3, 0.4, 0.0])
    total = clip_gradients(g, [g], max_norm=5.0)
    assert abs(total - 0.5) < 1e-12
    assert np.array_equal(g, [0.3, 0.4, 0.0])


def test_clip_scales_to_max_norm():
    g = np.array([3.0, 4.0])
    a, b = g[:1], g[1:]  # two parameters' views of the flat gradient
    total = clip_gradients(g, [a, b], max_norm=1.0)
    assert abs(total - 5.0) < 1e-12
    clipped = math.hypot(a[0], b[0])
    assert abs(clipped - 1.0) < 1e-12
    assert abs(a[0] / b[0] - 0.75) < 1e-12  # direction kept


def test_clip_zero_max_norm_disables():
    g = np.array([10.0])
    clip_gradients(g, [g], max_norm=0.0)
    assert g[0] == 10.0


# -- training loop -------------------------------------------------------------------


def tiny_train_config(**kw):
    base = dict(iterations=3, batch_size=2, observed=4, horizon=2, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def test_train_runs_and_records_metrics():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=3)]
    theta = bone_weights(TOPO.entry_lengths())
    result = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    assert [it for it, _, _ in result.metrics] == [0, 1, 2]
    assert all(np.isfinite(loss) for _, loss, _ in result.metrics)
    assert all(ms >= 0.0 for _, _, ms in result.metrics)
    assert result.adam.step == 3


def test_train_is_seed_deterministic():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=4)]
    theta = bone_weights(TOPO.entry_lengths())
    r1 = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    r2 = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    # losses agree exactly; wallclock is measured and may not
    assert [(it, loss) for it, loss, _ in r1.metrics] == [
        (it, loss) for it, loss, _ in r2.metrics
    ]
    for key, t in r1.params.named().items():
        assert np.array_equal(t.data, r2.params.named()[key].data), key


def test_train_l2_and_teacher_forcing_paths():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=6)]
    theta = bone_weights(TOPO.entry_lengths())
    r = train(seqs, LAYOUT, theta, CFG, tiny_train_config(loss="l2"))
    assert len(r.metrics) == 3
    r = train(seqs, LAYOUT, theta, CFG, tiny_train_config(teacher_forcing=True))
    assert len(r.metrics) == 3


def test_train_holds_one_tape_at_a_time():
    # each iteration's tape must be gone before the next forward pass
    # builds one, so three iterations peak no higher than one does
    topo = builtin_topology("human")
    layout = ChainLayout.from_topology(topo)
    seqs = [synth_motion("sinusoid", 40, topo, seed=3)]
    theta = bone_weights(topo.entry_lengths())

    def traced_peak(iterations):
        tracemalloc.start()
        try:
            train(seqs, layout, theta, ModelConfig(hidden_size=4, layers=2),
                  TrainConfig(iterations=iterations, batch_size=2, observed=20, horizon=5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = traced_peak(1), traced_peak(3)
    assert three <= 1.05 * one, (one, three)


def test_train_frees_the_tape_before_the_optimizer(monkeypatch):
    # once backward has left the gradients on the parameters, the tape
    # is dead weight: the Adam step must run with no loss node alive,
    # and the loss curve must be the losses that were computed
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=8)]
    theta = bone_weights(TOPO.entry_lengths())
    unpatched = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    losses, values, alive = [], [], []

    def loss_spy(*args):
        loss = weighted_loss(*args)
        losses.append(weakref.ref(loss))
        values.append(float(loss.data))
        return loss

    def adam_spy(*args, **kwargs):
        alive.append(losses[-1]() is not None)
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(training, "weighted_loss", loss_spy)
    monkeypatch.setattr(training, "adam_step", adam_spy)
    result = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    assert alive == [False, False, False]
    assert [loss for _, loss, _ in result.metrics] == values
    assert values == [loss for _, loss, _ in unpatched.metrics]


# -- flat buffers ---------------------------------------------------------------------

FORK7_TINY = ModelConfig(hidden_size=6, layers=2)  # criterion 7's model
HUMAN = ChainLayout.from_topology(builtin_topology("human"))
MB = 1 << 20


@pytest.mark.parametrize("clip_norm", [30.0, 0.0])
def test_flat_optimizer_matches_the_looped_oracle(tmp_path, clip_norm):
    """Twenty fork7-tiny iterations on the flat parameter, gradient and
    moment buffers give, bit for bit, the looped per-tensor path's
    losses, parameters, moments and checkpoint bytes.  ``grad_norms``
    are its norms before clipping, which exceed ``clip_norm`` exactly on
    the iterations it clipped: some of them at 30, none with 0."""
    seqs = [synth_motion("sinusoid", 60, TOPO, seed=21)]
    theta = bone_weights(TOPO.entry_lengths())
    config = TrainConfig(iterations=20, batch_size=16, learning_rate=5e-3, observed=10,
                         horizon=10, seed=2, clip_norm=clip_norm)
    start = ModelParams.init(FORK7_TINY, LAYOUT, seed=2)
    losses, norms, clipped, params, m, v = looped_train(seqs, LAYOUT, theta, FORK7_TINY,
                                                        config, start)
    result = train(seqs, LAYOUT, theta, FORK7_TINY, config, params=start)
    assert [loss for _, loss, _ in result.metrics] == losses
    assert result.grad_norms == norms
    assert [clip_norm > 0.0 and n > clip_norm for n in result.grad_norms] == clipped
    assert 0 < sum(clipped) < 20 if clip_norm else not any(clipped)
    table = param_table(FORK7_TINY, LAYOUT)
    got_m, got_v = flat_views(result.adam.m, table), flat_views(result.adam.v, table)
    for name, t in result.params.named().items():
        assert np.array_equal(t.data, params[name]), name
        assert np.array_equal(got_m[name], m[name]), name
        assert np.array_equal(got_v[name], v[name]), name
    save_checkpoint(tmp_path / "flat.ckpt", result.params, FORK7_TINY, LAYOUT, iteration=20,
                    adam=result.adam)
    looped_checkpoint(tmp_path / "looped.ckpt", params, m, v, 20, FORK7_TINY, LAYOUT, 20)
    assert (tmp_path / "flat.ckpt").read_bytes() == (tmp_path / "looped.ckpt").read_bytes()


def test_first_nonfinite_names_the_tensor_the_looped_check_names():
    params = ModelParams.init(CFG, LAYOUT, seed=3)
    params.grad = np.ones_like(params.flat)
    grads = flat_views(params.grad, param_table(CFG, LAYOUT))
    for name, t in params.tensors.items():
        t.grad = grads[name]
    assert first_nonfinite(params.grad, grads.items()) is None
    params.grad[:] = 1e200  # finite, though its squares overflow
    assert first_nonfinite(params.grad, grads.items()) is None
    for name, value in (("enc.gate.in.u", np.nan), ("dec.proj.0.b", -np.inf)):
        grads[name].reshape(-1)[-1] = value
        want = looped_first_nonfinite(params.tensors)
        assert want == "enc.gate.in.u"
        assert first_nonfinite(params.grad, grads.items()) == want


def traced_peak(fn):
    """``fn()`` and the peak bytes it held allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_human_params_are_drawn_and_loaded_into_one_buffer(tmp_path):
    """Neither ``ModelParams.init`` nor ``load_checkpoint`` of the human
    model peaks more than 1 MB above its flat buffer: a drawn or read
    temporary per tensor, copied in and freed, would add the largest
    tensor's bytes and lift a later peak RSS through glibc's heap."""
    config = ModelConfig()
    params, peak = traced_peak(lambda: ModelParams.init(config, HUMAN, seed=7))
    assert peak <= params.flat.nbytes + MB, (peak, params.flat.nbytes)
    assert all(np.shares_memory(t.data, params.flat) for t in params.tensors.values())
    save_checkpoint(tmp_path / "human.ckpt", params, config, HUMAN)
    ck, peak = traced_peak(lambda: load_checkpoint(tmp_path / "human.ckpt"))
    assert peak <= ck.params.flat.nbytes + MB, (peak, ck.params.flat.nbytes)
    assert np.array_equal(ck.params.flat, params.flat)


def test_adam_step_on_the_human_model_allocates_at_most_1_mb():
    params = ModelParams.init(ModelConfig(), HUMAN, seed=7)
    grad = np.full(params.flat.size, 1e-3)
    state = AdamState.init(params.flat.size)
    _, peak = traced_peak(lambda: adam_step(params.flat, grad, state))
    assert peak <= MB, peak
    assert state.step == 1


def test_a_human_training_iteration_peaks_under_114_mb():
    """One ``train()`` iteration of the default human model at batch 4,
    with its gradient buffer and Adam moments, peaks at 108.3 MB traced
    while the fused cells keep no tanh(c') and the pooled cell no cell
    gate, and ``_grid_vjp`` drops each temporary after its last reader;
    it peaked at 119.4 MB while they did not."""
    topo = builtin_topology("human")
    seqs = [synth_motion("sinusoid", 200, topo, seed=3)]
    params = ModelParams.init(ModelConfig(), HUMAN, seed=7)
    config = TrainConfig(iterations=1, batch_size=4, seed=2)
    _, peak = traced_peak(lambda: train(seqs, HUMAN, bone_weights(topo.entry_lengths()),
                                        ModelConfig(), config, params=params))
    assert peak <= 114 * MB, peak / MB


def test_a_second_train_call_keeps_the_gradient_buffer():
    """The flat gradient is allocated by the first ``train()`` on a model
    and reused by the next: a buffer per call would keep the previous
    one alive, through the leaves' ``.grad`` views, while the tape peaks."""
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=3)]
    theta = bone_weights(TOPO.entry_lengths())
    params = ModelParams.init(CFG, LAYOUT, seed=4)
    assert params.grad is None
    train(seqs, LAYOUT, theta, CFG, tiny_train_config(), params=params)
    grad = params.grad
    assert grad.shape == params.flat.shape
    train(seqs, LAYOUT, theta, CFG, tiny_train_config(seed=6), params=params)
    assert params.grad is grad
    assert all(np.shares_memory(t.grad, grad) for t in params.tensors.values())


def test_grad_check_restores_each_leaf_to_its_view_of_the_buffer():
    """``grad_check`` probes a widened copy of a leaf and puts back the
    leaf's own array, the view of the model's flat buffer, after a normal
    return and after an ``f()`` that raises; the buffer's bytes are
    unchanged, and a later ``train()`` updates the model through it."""
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=3)]
    theta = bone_weights(TOPO.entry_lengths())
    params = ModelParams.init(CFG, LAYOUT, seed=6)
    leaves = {name: params.tensors[name] for name in ("enc.gt.w_f", "dec.proj.0.b")}
    views = {name: t.data for name, t in leaves.items()}
    saved = params.flat.tobytes()
    frames = seqs[0].frames
    calls = []

    def loss(fail_at=None):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("probe failed")
        outs = sthrn.forward(params, CFG, LAYOUT, frames[:6], 3)
        return weighted_loss(sthrn.model.frames_tensor(outs, LAYOUT.num_entries),
                             frames[6:9], theta)

    def restored():
        for name, t in leaves.items():
            assert t.data is views[name], name
            assert np.shares_memory(t.data, params.flat), name
        assert params.flat.tobytes() == saved

    ad.grad_check(loss, leaves)
    restored()
    calls.clear()
    with pytest.raises(RuntimeError, match="probe failed"):
        ad.grad_check(lambda: loss(fail_at=2), leaves)  # the first probe after the taped call
    restored()
    before = {name: view.copy() for name, view in views.items()}
    train(seqs, LAYOUT, theta, CFG, tiny_train_config(), params=params)
    for name, t in leaves.items():
        assert t.data is views[name], name
        assert not np.array_equal(t.data, before[name]), name


def test_train_rejects_unknown_loss():
    with pytest.raises(ValueError):
        train([], LAYOUT, np.ones(4), CFG, tiny_train_config(loss="huber"))


def test_train_raises_on_divergence():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=7)]
    theta = bone_weights(TOPO.entry_lengths())
    params = ModelParams.init(CFG, LAYOUT, seed=0)
    params.named()["enc.embed.w"].data[:] = np.nan
    with pytest.raises(TrainingDiverged):
        train(seqs, LAYOUT, theta, CFG, tiny_train_config(), params=params)


def test_train_refuses_non_finite_frames():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=s) for s in (7, 8)]
    seqs[1].frames[12, 0, 2] = -np.inf
    with pytest.raises(ValidationError, match="sequence 1: frame 12 is not finite"):
        train(seqs, LAYOUT, bone_weights(TOPO.entry_lengths()), CFG, tiny_train_config())


def test_train_refuses_a_sequence_shorter_than_a_window_before_drawing(monkeypatch):
    # the sampler alone would refuse it only once a seeded draw picks it
    seqs = [synth_motion("sinusoid", frames, TOPO, seed=7) for frames in (30, 30, 5, 30)]

    def drawn(*args):
        raise AssertionError("a window was drawn")

    monkeypatch.setattr(training, "sample_windows", drawn)
    with pytest.raises(SequenceTooShort, match="sequence 2: 5 frames, need at least 6"):
        train(seqs, LAYOUT, bone_weights(TOPO.entry_lengths()), CFG, tiny_train_config())


def test_train_refuses_no_sequences():
    with pytest.raises(ValueError, match="^train needs at least one sequence$"):
        train([], LAYOUT, bone_weights(TOPO.entry_lengths()), CFG, tiny_train_config())


def test_write_metrics_roundtrips_loss_column(tmp_path):
    path = tmp_path / "metrics.csv"
    metrics = [(0, 1.5, 12.345), (1, 0.3333333333333333, 8.1)]
    write_metrics(path, metrics)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,loss,wallclock_ms"
    for (it, loss, _), line in zip(metrics, lines[1:]):
        cols = line.split(",")
        assert int(cols[0]) == it
        assert float(cols[1]) == loss  # repr column is exact


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = ModelParams.init(CFG, LAYOUT, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT, iteration=17)
    ck = load_checkpoint(path)
    assert ck.config == CFG
    assert ck.layout == LAYOUT
    assert ck.iteration == 17
    assert ck.adam is None
    reloaded = ck.params.named()
    for name, t in params.named().items():
        assert np.array_equal(t.data, reloaded[name].data), name


def test_checkpoint_save_writes_each_tensor_without_a_copy(tmp_path):
    # a freed bytes copy of a large tensor moves glibc's mmap threshold and,
    # with it, where later loads put their arrays
    layout = ChainLayout.from_topology(builtin_topology("human"))
    config = ModelConfig(hidden_size=8, layers=1)
    params = ModelParams.init(config, layout, seed=8)
    largest = max(t.data.nbytes for t in params.named().values())
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "model.ckpt", params, config, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest / 2, (peak, largest)
    reloaded = load_checkpoint(tmp_path / "model.ckpt").params.named()
    for name, t in params.named().items():
        assert np.array_equal(t.data, reloaded[name].data), name


def test_a_failed_checkpoint_save_keeps_the_earlier_file(tmp_path):
    class Unwritable:
        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

    params = ModelParams.init(CFG, LAYOUT, seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT, iteration=5)
    before = path.read_bytes()
    params.flat += 1.0
    # raises after the header, the parameters and the first moments went out
    adam = AdamState(step=3, m=np.zeros(params.flat.size), v=Unwritable())
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, params, CFG, LAYOUT, iteration=6, adam=adam)
    assert path.read_bytes() == before
    assert load_checkpoint(path).iteration == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_roundtrip_with_adam(tmp_path):
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=9)]
    theta = bone_weights(TOPO.entry_lengths())
    result = train(seqs, LAYOUT, theta, CFG, tiny_train_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, CFG, LAYOUT, iteration=3, adam=result.adam)
    ck = load_checkpoint(path)
    assert ck.adam is not None
    assert ck.adam.step == 3
    assert np.array_equal(ck.adam.m, result.adam.m)
    assert np.array_equal(ck.adam.v, result.adam.v)


def test_checkpoint_reload_predicts_identically(tmp_path):
    params = ModelParams.init(CFG, LAYOUT, seed=10)
    obs = synth_motion("sinusoid", 6, TOPO, seed=11).frames
    want = predict(params, CFG, LAYOUT, obs, horizon=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT)
    ck = load_checkpoint(path)
    got = predict(ck.params, ck.config, ChainLayout(ck.layout.entry_counts), obs, 3)
    assert np.array_equal(got, want)


def test_checkpoint_header_lists_the_param_table_then_the_adam_moments(tmp_path):
    params = ModelParams.init(CFG, LAYOUT, seed=15)
    path = tmp_path / "model.ckpt"
    table = [[name, list(shape)] for name, shape in param_table(CFG, LAYOUT).items()]
    for adam, moments in ((None, []), (AdamState.init(params.flat.size), ["adam.m.", "adam.v."])):
        save_checkpoint(path, params, CFG, LAYOUT, adam=adam)
        data = path.read_bytes()
        header = json.loads(data[15:15 + struct.unpack("<Q", data[7:15])[0]])
        assert [[t["name"], t["shape"]] for t in header["tensors"]] == table + [
            [prefix + name, shape] for prefix in moments for name, shape in table]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTSTHRN" + b"\x00" * 64)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    blob = json.dumps({"version": 2}).encode()
    path = tmp_path / "v2.ckpt"
    path.write_bytes(b"STHRN1\n" + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = ModelParams.init(CFG, LAYOUT, seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ParseError):
        load_checkpoint(path)


# Loads the valid checkpoint named first on the command line, then each
# of the others, printing their errors, and last how far those raised
# the process's peak RSS over the valid load, in MB.  The peak is the
# kernel's VmHWM: on Linux a child's ru_maxrss starts at its parent's
# peak, here the test runner's, which would hide any growth below it.
_LOAD_AND_MEASURE = """
import sys
from sthrn.skeleton import ParseError
from sthrn.training import load_checkpoint

def peak_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

load_checkpoint(sys.argv[1])
before = peak_kb()
for path in sys.argv[2:]:
    try:
        load_checkpoint(path)
    except ParseError as exc:
        print(exc)
print((peak_kb() - before) / 1024)
"""


def test_checkpoint_refuses_a_config_too_big_to_build(tmp_path):
    """A header whose hidden size implies weights its file does not hold,
    from hidden 250 up to 10**8 (213 PiB with the Adam moments), is
    refused by its tensor list before anything is allocated: with one
    message, naming the first difference and counting them, whatever
    the host's memory policy, and with no more peak RSS than loading the
    valid file it was made from.  A header that also lists the tensors
    of hidden 10**8 is refused by its byte count, as early."""
    params = ModelParams.init(CFG, LAYOUT, seed=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT, adam=AdamState.init(params.flat.size))
    data = path.read_bytes()
    size = 7 + 8 + struct.unpack("<Q", data[7:15])[0]
    header = json.loads(data[15:size])
    paths, hiddens = [], (10**5, 10**8, 250, 1000)
    for hidden in hiddens:
        header["config"]["hidden_size"] = hidden
        blob = json.dumps(header).encode()
        paths.append(tmp_path / f"hidden{hidden}.ckpt")
        paths[-1].write_bytes(data[:7] + struct.pack("<Q", len(blob)) + blob + data[size:])
    table = param_table(ModelConfig(hidden_size=10**8, layers=1), LAYOUT)
    listed = [{"name": prefix + name, "shape": list(shape)}
              for prefix in ("", "adam.m.", "adam.v.") for name, shape in table.items()]
    header["config"]["hidden_size"] = 10**8
    blob = json.dumps({**header, "tensors": listed}).encode()
    paths.append(tmp_path / "listed.ckpt")
    paths[-1].write_bytes(data[:7] + struct.pack("<Q", len(blob)) + blob + data[size:])
    src = os.path.dirname(os.path.dirname(sthrn.__file__))
    run = subprocess.run([sys.executable, "-c", _LOAD_AND_MEASURE, str(path), *map(str, paths)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    *errors, grown_mb = run.stdout.splitlines()
    # every entry's shape follows the hidden size but the two head biases',
    # each listed three times (parameter and Adam moments)
    n = len(header["tensors"])
    for bad, hidden, error in zip(paths[:-1], hiddens, errors[:-1], strict=True):
        assert error == (f"{bad}: header tensors differ from its config's at {n - 6} of {n} "
                         f"entries; the first lists ('enc.embed.w', (3, 3)) where the config "
                         f"implies ('enc.embed.w', (3, {hidden}))")
    need = 8 * 3 * sum(math.prod(shape) for shape in table.values())
    assert errors[-1] == (f"{paths[-1]}: truncated: its tensors take {need:,} bytes and "
                          f"{len(data) - size:,} follow the header")
    assert float(grown_mb) < 1.0


def test_checkpoint_load_makes_no_random_draws(tmp_path, monkeypatch):
    params = ModelParams.init(CFG, LAYOUT, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, CFG, LAYOUT)

    class Refusing(np.random.Generator):
        def normal(self, *args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

    def default_rng(seed=None):  # numpy passes a Generator through unaltered
        return seed if isinstance(seed, np.random.Generator) else Refusing(
            np.random.PCG64(seed))

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    reloaded = load_checkpoint(path).params.named()
    for name, t in params.named().items():
        assert np.array_equal(t.data, reloaded[name].data), name


def test_train_stops_at_a_nan_gradient_before_touching_params():
    # A zero decoder predicts the last observed pose again; on static
    # motion that is the target exactly, where the weighted loss is 0 and
    # its gradient NaN (the norm's kink).  Clipping would pass the NaN
    # norm through and Adam would poison every parameter.
    frame = synth_motion("sinusoid", 1, TOPO, seed=7).frames[0]
    seqs = [MotionSequence(fps=25.0, frames=np.repeat(frame[None], 30, axis=0), kind="lie")]
    theta = bone_weights(TOPO.entry_lengths())
    params = ModelParams.init(CFG, LAYOUT, seed=0)
    for name, t in params.named().items():
        if name.startswith("dec."):
            t.data[:] = 0.0
    before = {n: t.data.copy() for n, t in params.named().items()}
    with pytest.raises(TrainingDiverged, match="non-finite gradient of enc.embed.w"):
        train(seqs, LAYOUT, theta, CFG, tiny_train_config(), params=params)
    for n, t in params.named().items():
        assert np.array_equal(t.data, before[n]), n


@pytest.mark.parametrize("field", ["batch_size", "iterations", "observed", "horizon"])
def test_train_rejects_empty_runs(field):
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=3)]
    least = 2 if field == "observed" else 1
    with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {least - 1}$"):
        train(seqs, LAYOUT, np.ones(4), CFG, tiny_train_config(**{field: least - 1}))


@pytest.mark.parametrize("key, value, message", [
    ("teacher_forcing", "false", "teacher_forcing must be bool"),
    ("batch_size", 2.0, "batch_size must be int"),
    ("clip_norm", True, "clip_norm must be float"),
    ("loss", "huber", "unknown loss 'huber'"),
    ("seed", -1, "^seed must be at least 0, got -1$"),
])
def test_train_config_rejects_bad_fields(key, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, values", [
    ("learning_rate", [0.0, -1e-3, math.nan, math.inf]),
    ("beta1", [1.0, -0.1, math.nan]),
    ("beta2", [1.0, 1.5, math.nan]),
    ("epsilon", [0.0, -1e-8, math.nan, math.inf]),
    ("clip_norm", [-1.0, math.nan, math.inf]),
])
def test_train_config_refuses_settings_that_break_adam(key, values):
    """Adam would write non-finite parameters under these, and a negative
    clip norm would silently switch clipping off."""
    for value in values:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            TrainConfig(**{key: value})


def test_train_config_keeps_the_edge_values():
    config = TrainConfig(beta1=0.0, beta2=0.0, clip_norm=0.0, learning_rate=1e-300,
                         epsilon=5e-324)
    assert (config.beta1, config.clip_norm) == (0.0, 0.0)


def test_checkpoint_refuses_non_finite_tensors(tmp_path):
    params = ModelParams.init(CFG, LAYOUT, seed=14)
    named = params.named()
    adam = AdamState.init(params.flat.size)
    first, last = list(named)[0], list(named)[-1]
    path = tmp_path / "model.ckpt"
    for name, array, value in ((first, named[first].data, np.nan),
                               (last, named[last].data, np.inf),
                               (f"adam.v.{first}", flat_views(adam.v, param_table(CFG, LAYOUT))[first],
                                -np.inf)):
        saved = array.copy()
        array.reshape(-1)[-1] = value
        save_checkpoint(path, params, CFG, LAYOUT, adam=adam)
        array[...] = saved
        with pytest.raises(ParseError, match=f"tensor {name!r} is not finite"):
            load_checkpoint(path)


def test_train_config_accepts_int_for_float():
    seqs = [synth_motion("sinusoid", 30, TOPO, seed=3)]
    theta = bone_weights(TOPO.entry_lengths())
    ints = train(seqs, LAYOUT, theta, CFG, tiny_train_config(clip_norm=0, learning_rate=1))
    floats = train(seqs, LAYOUT, theta, CFG, tiny_train_config(clip_norm=0.0, learning_rate=1.0))
    assert [m[1] for m in ints.metrics] == [m[1] for m in floats.metrics]
