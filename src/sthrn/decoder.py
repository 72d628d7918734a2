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
from .encoder import INIT_SIGMA, ChainLayout, EncoderState


@dataclass
class LstmParams:
    """Fused gate parameters; columns ordered input, forget, out, cand."""

    w: Tensor  # (in + hidden, 4 * hidden)
    b: Tensor  # (4 * hidden,)

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "LstmParams":
        return cls(
            w=Tensor(rng.normal(0.0, INIT_SIGMA, size=(in_dim + hidden, 4 * hidden))),
            b=Tensor(np.zeros(4 * hidden)),
        )


@dataclass
class LstmState:
    h: Tensor  # (B, hidden)
    c: Tensor  # (B, hidden)


def wiring(kind: str, layout: ChainLayout):
    """The decoder wiring table for ``layout``, as (cells, heads).

    Cells, in random-draw and step order, are (name, sources): "pose" is
    the previous pose, a cell name that cell's new h; several sources are
    concatenated.  Heads, in chain order, are (source cell, chain ids
    written); a structured head per chain reads its ``decoder_groups``
    group's cell.  Cells nothing reads (no arm or leg chains) are dropped.
    """
    trunk, arms, _ = layout.decoder_groups()
    chains = tuple(range(len(layout.entry_counts)))
    table = {
        "structured": ((("overall", ("pose",)), ("spine", ("overall",)),
                        ("arm", ("overall", "spine")), ("leg", ("overall", "spine"))),
                       tuple(("spine" if c in trunk else "arm" if c in arms else "leg", (c,))
                             for c in chains)),
        "plain": ((("layer0", ("pose",)), ("layer1", ("layer0",))), (("layer1", chains),)),
    }
    if kind not in table:
        raise ValueError(f"unknown decoder kind {kind!r}")
    cells, heads = table[kind]
    read = {s for _, sources in cells for s in sources} | {cell for cell, _ in heads}
    return tuple(cell for cell in cells if cell[0] in read), heads


@dataclass
class DecoderParams:
    cells: dict[str, LstmParams]  # in wiring order
    proj_w: list[Tensor]          # one head per wiring head
    proj_b: list[Tensor]
    wiring: tuple                 # wiring(kind, layout), resolved once

    @classmethod
    def init(cls, layout: ChainLayout, enc_hidden: int, rng: np.random.Generator,
             kind: str = "structured") -> "DecoderParams":
        cell_sources, heads = wired = wiring(kind, layout)
        k = layout.num_entries
        hidden = k * enc_hidden
        cells = {
            name: LstmParams.init(sum(3 * k if s == "pose" else hidden for s in sources),
                                  hidden, rng)
            for name, sources in cell_sources
        }
        widths = [3 * sum(layout.entry_counts[c] for c in chains) for _, chains in heads]
        proj_w = [Tensor(rng.normal(0.0, INIT_SIGMA, size=(hidden, n))) for n in widths]
        proj_b = [Tensor(np.zeros(n)) for n in widths]
        return cls(cells=cells, proj_w=proj_w, proj_b=proj_b, wiring=wired)

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
    The first cell of the wiring starts from the mean of a window's rows
    (hidden and cell alike); the second starts from the same mean cell
    and from (sum of hidden rows + flattened g_t) / t.  Remaining cells
    start at zero.
    """
    b, t_minus_1, k = enc.windows, enc.frames, enc.entries
    hidden = enc.h.data.shape[1]
    d = k * hidden
    h_sum = ad.tsum(ad.reshape(enc.h, (b, t_minus_1, d)), axis=1)
    c_mean = ad.mean_rows(enc.c, (b, t_minus_1, d), axis=1)
    h_mean = ad.scale(h_sum, 1.0 / t_minus_1)
    gt_flat = ad.reshape(enc.g_t, (b, d))
    h_second = ad.scale(ad.add(h_sum, gt_flat), 1.0 / (t_minus_1 + 1))

    zero = Tensor(np.zeros((b, d)), op="const")
    starts = [LstmState(h=h_mean, c=c_mean), LstmState(h=h_second, c=c_mean),
              *[LstmState(h=zero, c=zero)] * (len(params.cells) - 2)]
    return DecoderState(cells=dict(zip(params.cells, starts)))  # in wiring order


def decode_step(w_prev: Tensor | np.ndarray, state: DecoderState,
                params: DecoderParams) -> tuple[Tensor, DecoderState]:
    """One autoregressive step: new pose and advanced LSTM states."""
    new: dict[str, LstmState] = {}
    inputs: dict[tuple[str, ...], Tensor] = {}  # one concat per source list
    cell_sources, heads = params.wiring
    for name, sources in cell_sources:
        if sources not in inputs:
            parts = [w_prev if s == "pose" else new[s].h for s in sources]
            inputs[sources] = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
        p, s = params.cells[name], state.cells[name]
        new[name] = LstmState(*ad.lstm_cell(inputs[sources], s.h, s.c, p.w, p.b))
    deltas = [ad.linear(new[cell].h, w, b)
              for (cell, _), w, b in zip(heads, params.proj_w, params.proj_b)]
    delta = deltas[0] if len(deltas) == 1 else ad.concat(deltas, axis=1)
    return ad.wrap_rows(ad.add(w_prev, delta)), DecoderState(cells=new)
