"""Autoregressive decoders over full-pose Lie vectors.

The structured decoder is a stack of LSTMs shaped like the skeleton:
an overall LSTM consumes the previous pose, a trunk LSTM consumes the
overall hidden state, and one shared arm LSTM plus one shared leg LSTM
each consume the overall and trunk hidden states.  Per-chain linear
heads read from their group's hidden state and emit residuals that are
added to the previous pose; every LSTM is as wide as the flattened
encoder grid (K * encoder hidden).  A plain two-layer LSTM over the
full pose vector with a single residual head is available as a
drop-in replacement.

Decoding is fully autoregressive: each step consumes the previous
step's own (wrapped) output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import ChainLayout, EncoderState

_TWO_PI = 2.0 * np.pi


@dataclass
class LstmParams:
    """Fused gate parameters; columns ordered input, forget, out, cand."""

    w: Tensor  # (in + hidden, 4 * hidden)
    b: Tensor  # (4 * hidden,)

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: np.random.Generator,
             sigma: float = 0.1) -> "LstmParams":
        return cls(
            w=Tensor(rng.normal(0.0, sigma, size=(in_dim + hidden, 4 * hidden))),
            b=Tensor(np.zeros(4 * hidden)),
        )


@dataclass
class LstmState:
    h: Tensor  # (B, hidden)
    c: Tensor  # (B, hidden)


def lstm_step(x: Tensor, state: LstmState, p: LstmParams) -> LstmState:
    h, c = ad.lstm_cell(x, state.h, state.c, p.w, p.b)
    return LstmState(h=h, c=c)


@dataclass
class DecoderParams:
    kind: str                     # "structured" | "plain"
    cells: dict[str, LstmParams]  # structured: overall/spine/arm/leg, plain: layer0/layer1
    proj_w: list[Tensor]          # structured: one head per chain; plain: one head
    proj_b: list[Tensor]
    hidden: int                   # K * encoder hidden

    @classmethod
    def init(cls, layout: ChainLayout, enc_hidden: int, rng: np.random.Generator,
             kind: str = "structured", sigma: float = 0.1) -> "DecoderParams":
        k = layout.num_entries
        hidden = k * enc_hidden
        cells: dict[str, LstmParams] = {}
        proj_w: list[Tensor] = []
        proj_b: list[Tensor] = []
        if kind == "structured":
            _, arms, legs = layout.decoder_groups()
            cells["overall"] = LstmParams.init(3 * k, hidden, rng, sigma)
            cells["spine"] = LstmParams.init(hidden, hidden, rng, sigma)
            if arms:
                cells["arm"] = LstmParams.init(2 * hidden, hidden, rng, sigma)
            if legs:
                cells["leg"] = LstmParams.init(2 * hidden, hidden, rng, sigma)
            for kc in layout.entry_counts:
                proj_w.append(Tensor(rng.normal(0.0, sigma, size=(hidden, 3 * kc))))
                proj_b.append(Tensor(np.zeros(3 * kc)))
        elif kind == "plain":
            cells["layer0"] = LstmParams.init(3 * k, hidden, rng, sigma)
            cells["layer1"] = LstmParams.init(hidden, hidden, rng, sigma)
            proj_w.append(Tensor(rng.normal(0.0, sigma, size=(hidden, 3 * k))))
            proj_b.append(Tensor(np.zeros(3 * k)))
        else:
            raise ValueError(f"unknown decoder kind {kind!r}")
        return cls(kind=kind, cells=cells, proj_w=proj_w, proj_b=proj_b, hidden=hidden)

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in sorted(self.cells):
            out[f"dec.{name}.w"] = self.cells[name].w
            out[f"dec.{name}.b"] = self.cells[name].b
        for ci, (w, b) in enumerate(zip(self.proj_w, self.proj_b)):
            out[f"dec.proj.{ci}.w"] = w
            out[f"dec.proj.{ci}.b"] = b
        return out


@dataclass
class DecoderState:
    cells: dict[str, LstmState]


def init_decoder(enc: EncoderState, params: DecoderParams) -> DecoderState:
    """Decoder start state from the encoder's final layer, one row per
    window.

    With t observed frames the encoder saw t - 1 of them; per frame its
    grid states concatenate (bone-major) to rows of width K * hidden.
    Layer 0 starts from the mean of a window's rows (hidden and cell
    alike); layer 1 starts from the same mean cell and from
    (sum of hidden rows + flattened g_t) / t.  Remaining LSTMs start
    at zero.
    """
    b, t_minus_1, k = enc.windows, enc.frames, enc.entries
    hidden = enc.h.data.shape[1]
    d = k * hidden
    h_sum = ad.tsum(ad.reshape(enc.h, (b, t_minus_1, d)), axis=1)
    c_mean = ad.mean_rows(enc.c, (b, t_minus_1, d), axis=1)
    h_mean = ad.scale(h_sum, 1.0 / t_minus_1)
    gt_flat = ad.reshape(enc.g_t, (b, d))
    h_second = ad.scale(ad.add(h_sum, gt_flat), 1.0 / (t_minus_1 + 1))

    def zeros():
        return LstmState(h=Tensor(np.zeros((b, d))), c=Tensor(np.zeros((b, d))))

    cells: dict[str, LstmState] = {}
    first, second = (("overall", "spine") if params.kind == "structured"
                     else ("layer0", "layer1"))
    cells[first] = LstmState(h=h_mean, c=c_mean)
    cells[second] = LstmState(h=h_second, c=c_mean)
    for name in params.cells:
        if name not in cells:
            cells[name] = zeros()
    return DecoderState(cells=cells)


def _wrap_rows(w: Tensor, k: int) -> Tensor:
    """Re-wrap each 3-entry of a (B, 3K) batch of poses to norm <= pi.

    A no-op (the identical tensor) when no entry exceeds pi, so the
    common path adds nothing to the tape.  Otherwise the wrap count is
    a constant per evaluation and the scaling stays differentiable;
    entries that need no wrap keep their exact values.
    """
    rows = w.data.shape[0] * k
    w3 = w.data.reshape(rows, 3)
    norms = np.sqrt((w3 * w3).sum(axis=1))
    if norms.max() <= np.pi:  # False for NaN, as np.all(norms <= pi) is
        return w
    over = (norms > np.pi).astype(np.float64)[:, None]
    turns = np.round(norms / _TWO_PI)[:, None]
    adj = Tensor(-_TWO_PI * turns * over)             # per-entry angle shift
    grid = ad.reshape(w, (rows, 3))
    theta = ad.reshape(ad.l2norm(grid, axis=1), (rows, 1))
    theta_safe = ad.add(theta, Tensor(1.0 - over))    # keep unwrapped rows off zero
    wrapped = ad.add(grid, ad.mul(grid, ad.div(adj, theta_safe)))
    return ad.reshape(wrapped, w.data.shape)


def decode_step(w_prev: Tensor, state: DecoderState, params: DecoderParams,
                layout: ChainLayout) -> tuple[Tensor, DecoderState]:
    """One autoregressive step: new pose and advanced LSTM states."""
    k = layout.num_entries
    s = state.cells
    new: dict[str, LstmState] = {}
    if params.kind == "structured":
        new["overall"] = lstm_step(w_prev, s["overall"], params.cells["overall"])
        new["spine"] = lstm_step(new["overall"].h, s["spine"], params.cells["spine"])
        if "arm" in params.cells or "leg" in params.cells:
            limb_x = ad.concat([new["overall"].h, new["spine"].h], axis=1)
        for name in ("arm", "leg"):
            if name in params.cells:
                new[name] = lstm_step(limb_x, s[name], params.cells[name])
        trunk, arms, _ = layout.decoder_groups()
        deltas = []
        for ci in range(len(layout.entry_counts)):
            if ci in trunk:
                src = new["spine"].h
            elif ci in arms:
                src = new["arm"].h
            else:
                src = new["leg"].h
            deltas.append(ad.linear([(src, params.proj_w[ci]), params.proj_b[ci]]))
        delta = deltas[0] if len(deltas) == 1 else ad.concat(deltas, axis=1)
    else:
        new["layer0"] = lstm_step(w_prev, s["layer0"], params.cells["layer0"])
        new["layer1"] = lstm_step(new["layer0"].h, s["layer1"], params.cells["layer1"])
        delta = ad.linear([(new["layer1"].h, params.proj_w[0]), params.proj_b[0]])
    w_next = _wrap_rows(ad.add(w_prev, delta), k)
    return w_next, DecoderState(cells=new)
