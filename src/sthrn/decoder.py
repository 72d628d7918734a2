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

DECODER_KINDS = ("structured", "plain")


@dataclass
class LstmState:
    h: Tensor  # (B, hidden)
    c: Tensor  # (B, hidden)


def wiring(kind: str, layout: ChainLayout):
    """The decoder wiring table for ``layout``, as (cells, heads).

    ``kind`` is one of ``DECODER_KINDS``.  Cells, in random-draw and step
    order, are (name, sources): "pose" is the previous pose, a cell name
    that cell's new h; several sources are concatenated.  Heads, in chain
    order, are (source cell, chain ids written).  A structured head per
    chain reads its group's cell: chain 0 is the trunk ("spine"); of n
    chains, chains 1 to n // 2 are arms and the rest legs (for the
    five-chain human: arms are chains 1-2, legs chains 3-4).  Cells
    nothing reads (no arm or leg chains) are dropped.  Each cell is an
    LSTM with fused gate columns ordered input, forget, out, cand.
    """
    chains = tuple(range(len(layout.entry_counts)))
    arms = chains[1:1 + len(chains) // 2]
    table = {
        "structured": ((("overall", ("pose",)), ("spine", ("overall",)),
                        ("arm", ("overall", "spine")), ("leg", ("overall", "spine"))),
                       tuple(("spine" if c == 0 else "arm" if c in arms else "leg", (c,))
                             for c in chains)),
        "plain": ((("layer0", ("pose",)), ("layer1", ("layer0",))), (("layer1", chains),)),
    }
    cells, heads = table[kind]
    read = {s for _, sources in cells for s in sources} | {cell for cell, _ in heads}
    return tuple(cell for cell in cells if cell[0] in read), heads


@dataclass
class DecoderState:
    cells: dict[str, LstmState]  # in wiring order
    wiring: tuple                # wiring(kind, layout), resolved once


def init_decoder(enc: EncoderState, wired: tuple) -> DecoderState:
    """Decoder start state from the encoder's final layer, one row per
    window.

    With t observed frames the encoder saw t - 1 of them; per frame its
    grid states concatenate (bone-major) to rows of width K * hidden.
    The first cell of ``wired`` starts from the mean of a window's rows
    (hidden and cell alike); the second starts from the same mean cell
    and from (sum of hidden rows + flattened g_t) / t.  Remaining cells
    start at zero.
    """
    b, t_minus_1, k, hidden = enc.grid_shape
    d = k * hidden
    h_sum = ad.tsum(ad.reshape(enc.h, (b, t_minus_1, d)), axis=1)
    h_mean = ad.mul(h_sum, 1.0 / t_minus_1)
    c_mean = ad.mul(ad.tsum(ad.reshape(enc.c, (b, t_minus_1, d)), axis=1), 1.0 / t_minus_1)
    gt_flat = ad.reshape(enc.g_t, (b, d))
    h_second = ad.mul(ad.add(h_sum, gt_flat), 1.0 / (t_minus_1 + 1))

    zero = Tensor(np.zeros((b, d)), op="const")
    starts = [LstmState(h=h_mean, c=c_mean), LstmState(h=h_second, c=c_mean),
              *[LstmState(h=zero, c=zero)] * (len(wired[0]) - 2)]
    return DecoderState(cells={name: s for (name, _), s in zip(wired[0], starts)},
                        wiring=wired)


def decode_step(w_prev: Tensor | np.ndarray, state: DecoderState,
                params: dict[str, Tensor]) -> tuple[Tensor, DecoderState]:
    """One autoregressive step: new pose and advanced LSTM states.

    ``params`` is a model's name -> Tensor table; cell ``name`` reads
    "dec.<name>.w" / ".b" and head i "dec.proj.<i>.w" / ".b".
    """
    new: dict[str, LstmState] = {}
    inputs: dict[tuple[str, ...], Tensor] = {}  # one concat per source list
    cell_sources, heads = state.wiring
    for name, sources in cell_sources:
        if sources not in inputs:
            inputs[sources] = ad.concat([w_prev if s == "pose" else new[s].h for s in sources],
                                        axis=1)
        s = state.cells[name]
        new[name] = LstmState(*ad.lstm_cell(inputs[sources], s.h, s.c,
                                            params[f"dec.{name}.w"], params[f"dec.{name}.b"]))
    delta = ad.concat([ad.linear(new[cell].h, params[f"dec.proj.{i}.w"], params[f"dec.proj.{i}.b"])
                       for i, (cell, _) in enumerate(heads)], axis=1)
    return ad.wrap_rows(ad.add(w_prev, delta)), DecoderState(cells=new, wiring=state.wiring)
