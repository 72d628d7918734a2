"""Hierarchical spatio-temporal recurrent encoder.

The encoder runs L recurrent layers over a fixed (frame, bone) grid of
Lie-vector entries.  Every cell (i, j) holds a hidden and a cell state
and is updated from layer l-1 state only, so all cells of a layer can
be computed in any order or at once.  Nine gates mix the cell's own
history with its temporal neighbors (frames i-1 and i+1), its spatial
predecessor along the kinematic chain (j-1), a per-frame global
spatial state g_s, and a per-bone global temporal state g_t:

    gate  = act(U p_ij + W [h_l, h_r, h] + Z h_sp + B g_s_i + G g_t_j + b)
    c_new = in.cand + l.c_left + f.c_same + r.c_right + s.c_sp
            + gs.c_gs_i + gt.c_gt_j
    h_new = out . tanh(c_new)

with sigmoid activations everywhere except the tanh candidate.  The
global states are LSTM-like summaries updated after each layer from
the new grid states; one parameter set is shared across frames, bones,
and layers, and the raw inputs p are re-fed at every layer.  Out-of-
grid neighbors contribute zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SIGMA = 0.1  # standard deviation of every initial weight, encoder and decoder

GATE_ORDER = ("in", "left", "same", "right", "spatial", "gs", "gt", "out", "cand")


@dataclass(frozen=True)
class ChainLayout:
    """How the K Lie entries split into kinematic chains.

    ``entry_counts[c]`` is the number of entries of chain c; entries
    are laid out chain-major, matching the Lie-vector column order.
    """

    entry_counts: tuple[int, ...]

    def __post_init__(self):
        if not self.entry_counts or any(k < 1 for k in self.entry_counts):
            raise ValueError("every chain needs at least one Lie entry")

    @property
    def num_entries(self) -> int:
        return sum(self.entry_counts)

    @classmethod
    def from_topology(cls, topo) -> "ChainLayout":
        return cls(tuple(topo.entry_counts()))

    def spatial_prev(self) -> np.ndarray:
        """Within-chain predecessor entry of each entry, -1 at chain heads."""
        out = np.empty(self.num_entries, dtype=np.int64)
        z = 0
        for k in self.entry_counts:
            out[z] = -1
            for d in range(1, k):
                out[z + d] = z + d - 1
            z += k
        return out

    def decoder_groups(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(trunk, arm, leg) chain ids for the structured decoder.

        Chain 0 is the trunk; the remaining chains split in half, first
        half arms, second half legs (for the five-chain human: arms are
        chains 1-2, legs chains 3-4).
        """
        rest = list(range(1, len(self.entry_counts)))
        half = (len(rest) + 1) // 2
        return (0,), tuple(rest[:half]), tuple(rest[half:])


@dataclass
class GateParams:
    """One gate head.  u: input, w: temporal neighbor triple, z: spatial
    predecessor, gs / gt: global states, bias."""

    u: Tensor   # (3, hidden)
    w: Tensor   # (3 * hidden, hidden)
    z: Tensor   # (hidden, hidden)
    gs: Tensor  # (hidden, hidden)
    gt: Tensor  # (hidden, hidden)
    bias: Tensor  # (hidden,)


@dataclass
class GlobalParams:
    """One global-state updater (temporal or spatial).

    w_c / z_c / b_c gate each grid cell's contribution, w_f / z_f / b_f
    is the forget gate on the previous global cell, w_o / z_o / b_o the
    output gate.  The w_* act on new layer-l grid states, the z_* on
    the previous global hidden state.
    """

    w_c: Tensor
    z_c: Tensor
    b_c: Tensor
    w_f: Tensor
    z_f: Tensor
    b_f: Tensor
    w_o: Tensor
    z_o: Tensor
    b_o: Tensor

    def weights(self) -> tuple[Tensor, ...]:
        """The nine weights in field order, as ``ad.pooled_cell`` takes them."""
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class EncoderParams:
    embed_w: Tensor  # (3, hidden)
    embed_b: Tensor  # (hidden,)
    gates: dict[str, GateParams]
    gtemp: GlobalParams
    gspat: GlobalParams

    @property
    def hidden(self) -> int:
        return self.embed_w.data.shape[1]

    @classmethod
    def init(cls, hidden: int, rng: np.random.Generator) -> "EncoderParams":
        def w(*shape):
            return Tensor(rng.normal(0.0, INIT_SIGMA, size=shape))

        def b(*shape):
            return Tensor(np.zeros(shape))

        gates = {
            name: GateParams(
                u=w(3, hidden), w=w(3 * hidden, hidden), z=w(hidden, hidden),
                gs=w(hidden, hidden), gt=w(hidden, hidden), bias=b(hidden),
            )
            for name in GATE_ORDER
        }

        def glob():
            return GlobalParams(
                w_c=w(hidden, hidden), z_c=w(hidden, hidden), b_c=b(hidden),
                w_f=w(hidden, hidden), z_f=w(hidden, hidden), b_f=b(hidden),
                w_o=w(hidden, hidden), z_o=w(hidden, hidden), b_o=b(hidden),
            )

        return cls(
            embed_w=w(3, hidden), embed_b=b(hidden),
            gates=gates, gtemp=glob(), gspat=glob(),
        )

    def named(self) -> dict[str, Tensor]:
        out = {"enc.embed.w": self.embed_w, "enc.embed.b": self.embed_b}
        groups = [(f"enc.gate.{name}", self.gates[name]) for name in GATE_ORDER]
        for prefix, g in groups + [("enc.gt", self.gtemp), ("enc.gs", self.gspat)]:
            for f in fields(g):
                out[f"{prefix}.{f.name}"] = getattr(g, f.name)
        return out


@dataclass
class EncoderState:
    """Grid and global states of B windows after some number of layers.

    Rows are window-major: h and c are (B*T*K, hidden) with row
    (b*T + i)*K + j holding cell (i, j) of window b; g_t / c_gt are per
    window and bone (B*K, hidden), g_s / c_gs per window and frame
    (B*T, hidden).
    """

    h: Tensor
    c: Tensor
    g_t: Tensor
    c_gt: Tensor
    g_s: Tensor
    c_gs: Tensor
    frames: int
    entries: int
    windows: int = 1

    @property
    def grid_shape(self) -> tuple[int, int, int, int]:
        return (self.windows, self.frames, self.entries, self.h.data.shape[1])


def _as_windows(p: np.ndarray, k: int) -> np.ndarray:
    """(B, T, K, 3) inputs; a single (T, K, 3) window is B = 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 3:
        p = p[None]
    if p.ndim != 4 or p.shape[2:] != (k, 3):
        raise ad.ShapeMismatch(f"expected (T, {k}, 3) or (B, T, {k}, 3) inputs, "
                               f"got {p.shape}")
    return p


def init_states(p: np.ndarray, params: EncoderParams, layout: ChainLayout,
                global_temporal: bool = True, global_spatial: bool = True) -> EncoderState:
    """Layer-0 states: h = c = embed(p), globals = means of those.

    ``p`` is one (T, K, 3) window or B of them stacked as (B, T, K, 3).
    """
    p = _as_windows(p, layout.num_entries)
    B, T, K, _ = p.shape
    e = ad.add(ad.matmul(p.reshape(B * T * K, 3), params.embed_w), params.embed_b)
    grid_shape = (B, T, K, params.hidden)
    grid = ad.reshape(e, grid_shape)
    if global_temporal:
        g_t = ad.mean_rows(grid, grid_shape, axis=1)
    else:
        g_t = Tensor(np.zeros((B * K, params.hidden)), op="const")
    if global_spatial:
        g_s = ad.mean_rows(grid, grid_shape, axis=2)
    else:
        g_s = Tensor(np.zeros((B * T, params.hidden)), op="const")
    return EncoderState(h=e, c=e, g_t=g_t, c_gt=g_t, g_s=g_s, c_gs=g_s,
                        frames=T, entries=K, windows=B)


def _fused_gate_params(params: EncoderParams):
    """Each ``GateParams`` field of the nine gates side by side, in
    ``GATE_ORDER``."""
    gates = [params.gates[name] for name in GATE_ORDER]
    return tuple(ad.concat([getattr(g, f.name) for g in gates], axis=-1)
                 for f in fields(GateParams))


def _layer_step(state: EncoderState, p_proj: Tensor, fused, params: EncoderParams,
                sp_mask: np.ndarray,
                global_temporal: bool, global_spatial: bool) -> EncoderState:
    """One layer over the whole grid; ``p_proj`` is the layer-invariant
    input projection U p, computed once per encode.  The global temporal
    state pools the new grid over frames (axis 1), the spatial one over
    bones (axis 2)."""
    grid = state.grid_shape
    # GATE_ORDER is the grid cell's column layout: the "in" gate on the
    # candidate, one gate per cell source, "out", then "cand"
    h_new, c_new = ad.grid_cell(state.h, state.c, p_proj, state.g_s, state.g_t, fused[1:],
                                state.c_gs, state.c_gt, grid, sp_mask)
    g_t, c_gt, g_s, c_gs = state.g_t, state.c_gt, state.g_s, state.c_gs
    if global_temporal:
        g_t, c_gt = ad.pooled_cell(h_new, c_new, g_t, c_gt, params.gtemp.weights(),
                                   grid, axis=1)
    if global_spatial:
        g_s, c_gs = ad.pooled_cell(h_new, c_new, g_s, c_gs, params.gspat.weights(),
                                   grid, axis=2)
    return EncoderState(h=h_new, c=c_new, g_t=g_t, c_gt=c_gt, g_s=g_s, c_gs=c_gs,
                        frames=state.frames, entries=state.entries, windows=state.windows)


def encode(p: np.ndarray, params: EncoderParams, layout: ChainLayout,
           layers: int, global_temporal: bool = True,
           global_spatial: bool = True) -> EncoderState:
    """Run the full encoder over (T, K, 3) Lie-entry inputs, or over B
    windows at once stacked as (B, T, K, 3).

    Windows never see each other: each window's states are those of its
    own (T, K, 3) encode.  Disabling a global state replaces its gate
    inputs and cell contributions with zeros and skips its updates.
    """
    state = init_states(p, params, layout, global_temporal, global_spatial)
    B, T, K = state.windows, state.frames, state.entries
    fused = _fused_gate_params(params)
    p_proj = ad.matmul(np.reshape(p, (B * T * K, 3)), fused[0])
    sp_mask = (layout.spatial_prev() >= 0).astype(np.float64)
    sp_mask = np.tile(sp_mask, B * T)[:, None]  # (B*T*K, 1), 0 at chain heads
    for _ in range(layers):
        state = _layer_step(state, p_proj, fused, params, sp_mask,
                            global_temporal, global_spatial)
    return state
