"""Decoder stack checks: LSTM cell, start states, residual wrap."""

import numpy as np
import pytest
from scipy.special import expit

import sthrn.autodiff as ad
from sthrn.autodiff import Tensor, backward, grad_check
from sthrn.decoder import DecoderState, LstmState, decode_step, init_decoder, wiring
from sthrn.encoder import ChainLayout, EncoderState
from sthrn.geometry import wrap_so3
from sthrn.model import ModelConfig, ModelParams, param_table

import tape_oracles as oracle


def human_layout():
    return ChainLayout((4, 2, 2, 2, 2))


def fork_layout():
    return ChainLayout((2, 2))


def decoder_params(layout, hidden, seed, kind="structured"):
    """A seeded model's parameter table, whose "dec." entries the
    decoder reads, and the decoder's wiring."""
    config = ModelConfig(hidden_size=hidden, decoder=kind)
    return ModelParams.init(config, layout, seed).named(), wiring(kind, layout)


def decoder_shapes(layout, hidden, kind="structured"):
    """The decoder's entries of the parameter table."""
    table = param_table(ModelConfig(hidden_size=hidden, decoder=kind), layout)
    return {name: shape for name, shape in table.items() if name.startswith("dec.")}


def random_encoder_state(t, k, hidden, seed):
    rng = np.random.default_rng(seed)
    return EncoderState(
        h=Tensor(rng.normal(size=(t * k, hidden))),
        c=Tensor(rng.normal(size=(t * k, hidden))),
        g_t=Tensor(rng.normal(size=(k, hidden))),
        c_gt=Tensor(rng.normal(size=(k, hidden))),
        g_s=Tensor(rng.normal(size=(t, hidden))),
        c_gs=Tensor(rng.normal(size=(t, hidden))),
        grid_shape=(1, t, k, hidden),
    )


# -- lstm cell ---------------------------------------------------------------


def independent_lstm(x, h, c, w, b):
    """Separate-gate recomputation of the fused cell."""
    hidden = h.shape[1]
    z = np.concatenate([x, h], axis=1) @ w + b
    i = expit(z[:, :hidden])
    f = expit(z[:, hidden:2 * hidden])
    o = expit(z[:, 2 * hidden:3 * hidden])
    g = np.tanh(z[:, 3 * hidden:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def test_lstm_step_matches_independent_cell():
    rng = np.random.default_rng(0)
    w, b = Tensor(rng.normal(0.0, 0.1, size=(4 + 3, 4 * 3))), Tensor(rng.normal(size=4 * 3))
    x = rng.normal(size=(1, 4))
    h0, c0 = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
    h, c = ad.lstm_cell(Tensor(x), Tensor(h0), Tensor(c0), w, b)
    want_h, want_c = independent_lstm(x, h0, c0, w.data, b.data)
    assert np.allclose(h.data, want_h, atol=1e-13)
    assert np.allclose(c.data, want_c, atol=1e-13)


def test_lstm_step_zero_params_halves_cell():
    # zero weights: every sigmoid is 1/2 and the candidate is 0, so
    # c' = c / 2 and h' = tanh(c / 2) / 2
    c0 = np.array([[1.0, -2.0]])
    h, c = ad.lstm_cell(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))), Tensor(c0),
                        Tensor(np.zeros((5, 8))), Tensor(np.zeros(8)))
    assert np.allclose(c.data, c0 / 2.0, atol=1e-15)
    assert np.allclose(h.data, 0.5 * np.tanh(c0 / 2.0), atol=1e-15)


# -- parameter layout -----------------------------------------------------------


def test_layout_decoder_groups():
    def groups(counts):  # (trunk, arm, leg) chain ids, read from the structured heads
        heads = wiring("structured", ChainLayout(counts))[1]
        return tuple(tuple(c for cell, (c,) in heads if cell == group)
                     for group in ("spine", "arm", "leg"))

    assert groups((4, 2, 2, 2, 2)) == ((0,), (1, 2), (3, 4))
    assert groups((2, 2)) == ((0,), (1,), ())
    assert groups((1, 1, 1, 1)) == ((0,), (1, 2), (3,))


def test_structured_params_five_chains():
    d = 12 * 2
    # cells sorted by name, each a fused-gate LSTM; heads in chain order
    assert decoder_shapes(human_layout(), 2) == {
        "dec.arm.w": (2 * d + d, 4 * d), "dec.arm.b": (4 * d,),
        "dec.leg.w": (2 * d + d, 4 * d), "dec.leg.b": (4 * d,),
        "dec.overall.w": (3 * 12 + d, 4 * d), "dec.overall.b": (4 * d,),
        "dec.spine.w": (d + d, 4 * d), "dec.spine.b": (4 * d,),
        "dec.proj.0.w": (d, 12), "dec.proj.0.b": (12,),
        **{f"dec.proj.{i}.{x}": s for i in range(1, 5) for x, s in (("w", (d, 6)), ("b", (6,)))},
    }
    assert list(decoder_shapes(human_layout(), 2))[:8:2] == [
        "dec.arm.w", "dec.leg.w", "dec.overall.w", "dec.spine.w"]


def test_structured_params_two_chains_has_no_leg():
    assert list(decoder_shapes(fork_layout(), 3))[::2] == [
        "dec.arm.w", "dec.overall.w", "dec.spine.w", "dec.proj.0.w", "dec.proj.1.w"]
    # one chain (chain3): the trunk alone, no arm or leg cell
    shapes = decoder_shapes(ChainLayout((1,)), 3)
    assert list(shapes)[::2] == ["dec.overall.w", "dec.spine.w", "dec.proj.0.w"]
    assert shapes["dec.proj.0.w"] == (3, 3)


def test_plain_params_single_head():
    d = 12 * 2
    assert decoder_shapes(human_layout(), 2, kind="plain") == {
        "dec.layer0.w": (3 * 12 + d, 4 * d), "dec.layer0.b": (4 * d,),
        "dec.layer1.w": (d + d, 4 * d), "dec.layer1.b": (4 * d,),
        "dec.proj.0.w": (d, 36), "dec.proj.0.b": (36,),
    }


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="^unknown decoder kind 'gru'; known kinds: "
                                         "structured, plain$"):
        ModelConfig(decoder="gru")


def test_named_tensors_unique():
    named, _ = decoder_params(human_layout(), 2, seed=5)
    dec = [t for name, t in named.items() if name.startswith("dec.")]
    assert len(dec) == 4 * 2 + 5 * 2
    assert len({id(t) for t in dec}) == len(dec)


# -- start states ------------------------------------------------------------------


def test_init_decoder_start_state_oracle():
    t, k, hidden = 5, 4, 3
    enc = random_encoder_state(t, k, hidden, seed=6)
    state = init_decoder(enc, wiring("structured", ChainLayout((2, 2))))
    rows_h = enc.h.data.reshape(t, k * hidden)
    rows_c = enc.c.data.reshape(t, k * hidden)
    assert np.allclose(state.cells["overall"].h.data, rows_h.mean(axis=0), atol=1e-14)
    assert np.allclose(state.cells["overall"].c.data, rows_c.mean(axis=0), atol=1e-14)
    want_second = (rows_h.sum(axis=0) + enc.g_t.data.reshape(-1)) / (t + 1)
    assert np.allclose(state.cells["spine"].h.data, want_second, atol=1e-14)
    assert np.allclose(state.cells["spine"].c.data, rows_c.mean(axis=0), atol=1e-14)
    assert np.array_equal(state.cells["arm"].h.data, np.zeros((1, k * hidden)))
    assert np.array_equal(state.cells["arm"].c.data, np.zeros((1, k * hidden)))


def test_init_decoder_plain_uses_same_recipe():
    t, k, hidden = 4, 4, 2
    enc = random_encoder_state(t, k, hidden, seed=8)
    state = init_decoder(enc, wiring("plain", ChainLayout((2, 2))))
    rows_h = enc.h.data.reshape(t, k * hidden)
    assert np.allclose(state.cells["layer0"].h.data, rows_h.mean(axis=0), atol=1e-14)
    want = (rows_h.sum(axis=0) + enc.g_t.data.reshape(-1)) / (t + 1)
    assert np.allclose(state.cells["layer1"].h.data, want, atol=1e-14)


# -- output wrap -------------------------------------------------------------------


def wrap_rows_composition(w: Tensor, k: int) -> Tensor:
    """The wrap as it was composed before it became one op, with its
    branch on the norms outside any op: the oracle for ``ad.wrap_rows``."""
    rows = w.data.shape[0] * k
    w3 = w.data.reshape(rows, 3)
    norms = np.sqrt((w3 * w3).sum(axis=1))
    if norms.max() <= np.pi:
        return w
    over = (norms > np.pi).astype(np.float64)[:, None]
    turns = np.round(norms / (2.0 * np.pi))[:, None]
    adj = -(2.0 * np.pi) * turns * over
    grid = ad.reshape(w, (rows, 3))
    theta = ad.reshape(ad.l2norm(grid, axis=1), (rows, 1))
    theta_safe = ad.add(theta, 1.0 - over)
    wrapped = ad.add(grid, ad.mul(grid, oracle.div(adj, theta_safe)))
    return ad.reshape(wrapped, w.data.shape)


def pose_with_norms(norms, seed):
    """One (1, 3K) pose whose K entries have the given norms."""
    rng = np.random.default_rng(seed)
    w3 = rng.normal(size=(len(norms), 3))
    w3 *= np.asarray(norms, dtype=np.float64)[:, None] / np.linalg.norm(w3, axis=1, keepdims=True)
    return w3.reshape(1, -1)


# entry norms of one pose: the first entry of "at-pi" is set to exactly
# (pi, 0, 0), and the first entry of "nan-entry" to NaN
WRAP_CASES = {
    "below-pi": [0.3, 1.0, 2.5, 3.1],
    "at-pi": [1.0, 1.0, 0.0, 2.0],
    "past-pi": [0.5, 4.0, 1.3, 7.5, 11.0],
    "past-pi-with-zero-entry": [3.5, 0.0, 1.0],
    "nan-entry": [1.0, 4.0, 1.0],
    "nan-entry-below-pi": [1.0, 2.0, 1.0],
}


@pytest.mark.parametrize("case", sorted(WRAP_CASES))
def test_wrap_rows_is_bit_identical_to_its_composition(case):
    w = pose_with_norms(WRAP_CASES[case], seed=14)
    if case == "at-pi":
        w[0, :3] = [np.pi, 0.0, 0.0]
    if case.startswith("nan"):
        w[0, :3] = np.nan
    head = np.random.default_rng(15).normal(size=w.shape)
    got, want = Tensor(w.copy()), Tensor(w.copy())
    out, ref = ad.wrap_rows(got), wrap_rows_composition(want, w.shape[1] // 3)
    assert np.array_equal(out.data, ref.data, equal_nan=True)
    backward(ad.tsum(ad.mul(out, head)), leaves=[got])
    backward(ad.tsum(ad.mul(ref, head)), leaves=[want])
    assert np.array_equal(got.grad, want.grad, equal_nan=True)


def test_wrap_rows_identity_below_pi_passes_values_and_gradient_through():
    rng = np.random.default_rng(10)
    w3 = rng.normal(size=(4, 3))
    w3 *= (0.9 * np.pi / np.linalg.norm(w3, axis=1, keepdims=True)) * rng.uniform(
        0.1, 1.0, size=(4, 1))
    t = Tensor(w3.reshape(1, 12))
    out = ad.wrap_rows(t)
    assert np.array_equal(out.data, t.data)
    head = rng.normal(size=(1, 12))
    backward(ad.tsum(ad.mul(out, head)), leaves=[t])
    assert np.array_equal(t.grad, head)


def test_wrap_rows_matches_geometry_wrap():
    rng = np.random.default_rng(11)
    w3 = rng.normal(size=(5, 3))
    w3 *= np.array([[0.5], [2.0], [1.3], [0.8], [1.7]]) * np.pi / np.linalg.norm(
        w3, axis=1, keepdims=True)
    out = ad.wrap_rows(Tensor(w3.reshape(1, 15).copy()))
    assert np.allclose(out.data.reshape(5, 3), wrap_so3(w3), atol=1e-12)


def test_wrap_rows_gradient_away_from_boundary():
    rng = np.random.default_rng(12)
    w3 = rng.normal(size=(2, 3))
    w3 *= np.array([[1.5], [0.4]]) * np.pi / np.linalg.norm(w3, axis=1, keepdims=True)
    leaf = Tensor(w3.reshape(1, 6))

    def f():
        return ad.tsum(ad.mul(ad.wrap_rows(leaf), Tensor(np.arange(1.0, 7.0)[None, :])))

    report = grad_check(f, {"w": leaf})
    assert report.max_rel_error < 1e-4
    assert report.skipped == []


def test_wrap_rows_batch_wraps_each_window_alone():
    # one window needs a wrap and the other does not; the second keeps
    # its exact values and passes its gradient through unchanged, even
    # at an entry that is exactly zero
    rng = np.random.default_rng(13)
    w3 = rng.normal(size=(2, 2, 3))
    w3 *= np.array([[[1.5], [0.4]], [[0.7], [0.0]]]) * np.pi / np.linalg.norm(
        w3, axis=2, keepdims=True)
    batch = Tensor(w3.reshape(2, 6))
    out = ad.wrap_rows(batch)
    assert np.array_equal(out.data[0], ad.wrap_rows(Tensor(w3[0].reshape(1, 6))).data[0])
    assert np.array_equal(out.data[1], batch.data[1])
    weights = np.arange(1.0, 13.0).reshape(2, 6)
    backward(ad.tsum(ad.mul(out, Tensor(weights))), leaves=[batch])
    assert np.array_equal(batch.grad[1], weights[1])


# -- decode step -------------------------------------------------------------------


def zero_state(params, wired):
    d = params["dec.proj.0.w"].data.shape[0]
    return DecoderState(cells={
        name: LstmState(Tensor(np.zeros((1, d))), Tensor(np.zeros((1, d))))
        for name, _ in wired[0]
    }, wiring=wired)


def test_decode_step_shapes_and_state_advance():
    lay = human_layout()
    params, wired = decoder_params(lay, 2, seed=13)
    state = zero_state(params, wired)
    w0 = Tensor(np.random.default_rng(14).normal(size=(1, 36)) * 0.3)
    w1, s1 = decode_step(w0, state, params)
    assert w1.data.shape == (1, 36)
    assert list(s1.cells) == ["overall", "spine", "arm", "leg"]
    for name in s1.cells:
        assert not np.array_equal(s1.cells[name].h.data, state.cells[name].h.data)
    w2, _ = decode_step(w1, s1, params)
    assert not np.allclose(w2.data, w1.data)


def test_zero_projection_heads_hold_pose():
    # zero heads emit zero residuals regardless of the LSTM states, so
    # the pose passes through bit-exactly
    lay = fork_layout()
    params, wired = decoder_params(lay, 3, seed=15)
    for i in range(len(wired[1])):
        params[f"dec.proj.{i}.w"].data[:] = 0.0
    w0 = Tensor(np.random.default_rng(16).normal(size=(1, 12)) * 0.5)
    state = zero_state(params, wired)
    w1, state = decode_step(w0, state, params)
    w2, _ = decode_step(w1, state, params)
    assert np.array_equal(w1.data, w0.data)
    assert np.array_equal(w2.data, w0.data)


def test_decode_step_plain_kind():
    lay = fork_layout()
    params, wired = decoder_params(lay, 2, seed=17, kind="plain")
    w0 = Tensor(np.zeros((1, 12)))
    w1, s1 = decode_step(w0, zero_state(params, wired), params)
    assert w1.data.shape == (1, 12)
    assert set(s1.cells) == {"layer0", "layer1"}


def test_chain_heads_route_by_group():
    # zeroing one group's head freezes exactly that group's entries
    lay = human_layout()
    params, wired = decoder_params(lay, 2, seed=18)
    arms = [ci for cell, (ci,) in wired[1] if cell == "arm"]
    for ci in arms:
        params[f"dec.proj.{ci}.w"].data[:] = 0.0
        params[f"dec.proj.{ci}.b"].data[:] = 0.0
    w0 = Tensor(np.random.default_rng(19).normal(size=(1, 36)) * 0.2)
    w1, _ = decode_step(w0, zero_state(params, wired), params)
    got = w1.data.reshape(12, 3)
    was = w0.data.reshape(12, 3)
    entry_chain = np.repeat(np.arange(len(lay.entry_counts)), lay.entry_counts)
    arm_entries = np.isin(entry_chain, arms)
    assert np.array_equal(got[arm_entries], was[arm_entries])
    assert not np.allclose(got[~arm_entries], was[~arm_entries])
