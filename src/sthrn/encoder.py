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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

GATE_ORDER = ("in", "left", "same", "right", "spatial", "gs", "gt", "out", "cand")
# one gate head's weights: u on the input, w on the temporal neighbor
# triple, z on the spatial predecessor, gs / gt on the global states
GATE_FIELDS = ("u", "w", "z", "gs", "gt", "bias")
# one global-state updater: w_c / z_c / b_c gate each grid cell's
# contribution, w_f / z_f / b_f forget the previous global cell, w_o /
# z_o / b_o are the output gate; the w_* act on the new grid states, the
# z_* on the previous global hidden state
GLOBAL_FIELDS = ("w_c", "z_c", "b_c", "w_f", "z_f", "b_f", "w_o", "z_o", "b_o")


@dataclass(frozen=True)
class ChainLayout:
    """How the K Lie entries split into kinematic chains.

    ``entry_counts[c]`` is the number of entries of chain c; entries
    are laid out chain-major, matching the Lie-vector column order.
    """

    entry_counts: tuple[int, ...]

    def __post_init__(self):
        if not self.entry_counts or any(type(k) is not int or k < 1 for k in self.entry_counts):
            raise ValueError(f"every chain needs a whole number of Lie entries, at least one; "
                             f"got {self.entry_counts}")

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
    """(B, T, K, 3) inputs with B, T >= 1; a single (T, K, 3) window is
    B = 1.  The one check of a window's shape."""
    p = np.asarray(p, dtype=np.float64)
    windows = p[None] if p.ndim == 3 else p
    if windows.ndim != 4 or windows.shape[2:] != (k, 3) or 0 in windows.shape[:2]:
        raise ad.ShapeMismatch(f"expected (T, {k}, 3) or (B, T, {k}, 3) inputs with "
                               f"B, T >= 1, got {p.shape}")
    return windows


def init_states(p: np.ndarray, params: dict[str, Tensor], layout: ChainLayout,
                global_temporal: bool = True, global_spatial: bool = True) -> EncoderState:
    """Layer-0 states: h = c = embed(p), globals = means of those.

    ``p`` is one (T, K, 3) window or B of them stacked as (B, T, K, 3);
    ``params`` is a model's name -> Tensor table.
    """
    p = _as_windows(p, layout.num_entries)
    B, T, K, _ = p.shape
    e = ad.linear(p.reshape(B * T * K, 3), params["enc.embed.w"], params["enc.embed.b"])
    hidden = e.data.shape[1]
    grid = ad.reshape(e, (B, T, K, hidden))

    def mean(axis, on, rows):
        if not on:
            return Tensor(np.zeros((rows, hidden)), op="const")
        pooled = ad.mul(ad.tsum(grid, axis), 1.0 / grid.data.shape[axis])
        return ad.reshape(pooled, (rows, hidden))

    g_t, g_s = mean(1, global_temporal, B * K), mean(2, global_spatial, B * T)
    return EncoderState(h=e, c=e, g_t=g_t, c_gt=g_t, g_s=g_s, c_gs=g_s,
                        frames=T, entries=K, windows=B)


def _fused_gate_params(params: dict[str, Tensor]):
    """Each ``GATE_FIELDS`` weight of the nine gates side by side, in
    ``GATE_ORDER``."""
    return tuple(ad.concat([params[f"enc.gate.{name}.{f}"] for name in GATE_ORDER], axis=-1)
                 for f in GATE_FIELDS)


def _global_weights(params: dict[str, Tensor], prefix: str) -> tuple[Tensor, ...]:
    """A global updater's nine weights ("enc.gt" or "enc.gs") in
    ``GLOBAL_FIELDS`` order, as ``ad.pooled_cell`` takes them."""
    return tuple(params[f"{prefix}.{f}"] for f in GLOBAL_FIELDS)


def _layer_step(state: EncoderState, p_proj: Tensor, fused, params: dict[str, Tensor],
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
        g_t, c_gt = ad.pooled_cell(h_new, c_new, g_t, c_gt, _global_weights(params, "enc.gt"),
                                   grid, axis=1)
    if global_spatial:
        g_s, c_gs = ad.pooled_cell(h_new, c_new, g_s, c_gs, _global_weights(params, "enc.gs"),
                                   grid, axis=2)
    return EncoderState(h=h_new, c=c_new, g_t=g_t, c_gt=c_gt, g_s=g_s, c_gs=c_gs,
                        frames=state.frames, entries=state.entries, windows=state.windows)


def encode(p: np.ndarray, params: dict[str, Tensor], layout: ChainLayout,
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
