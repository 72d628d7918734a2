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
the new grid states, g_t pooled over frames and g_s over bones:

    cell_ij = sigmoid(W_c h_ij + Z_c g + b_c)
    f, out  = sigmoid(W_{f,o} mean(h) + Z_{f,o} g + b_{f,o})
    c_g'    = sum_ij cell_ij . c_ij + f . c_g,   g' = out . tanh(c_g')

One parameter set is shared across frames, bones, and layers, and the
raw inputs p are re-fed at every layer.  Out-of-grid neighbors
contribute zeros.  ``encode`` hands the grid cell and each updater one
stacked weight and bias, built once per call from the named parameters.
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
# z_* on the previous global hidden state; GLOBAL_FIELDS[k::3] is the
# row of w, z or b
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


@dataclass
class EncoderState:
    """Grid and global states of B windows after some number of layers.

    Rows are window-major: h and c are (B*T*K, hidden) with row
    (b*T + i)*K + j holding cell (i, j) of window b; g_t / c_gt are per
    window and bone (B*K, hidden), g_s / c_gs per window and frame
    (B*T, hidden).  ``grid_shape`` is (B, T, K, hidden).
    """

    h: Tensor
    c: Tensor
    g_t: Tensor
    c_gt: Tensor
    g_s: Tensor
    c_gs: Tensor
    grid_shape: tuple[int, int, int, int]


def _as_windows(p: np.ndarray, k: int) -> np.ndarray:
    """(B, T, K, 3) inputs with B, T >= 1; a single (T, K, 3) window is
    B = 1.  The one check of a window's shape."""
    p = np.asarray(p, dtype=np.float64)
    windows = p[None] if p.ndim == 3 else p
    if windows.ndim != 4 or windows.shape[2:] != (k, 3) or 0 in windows.shape[:2]:
        raise ad.ShapeMismatch(f"expected (T, {k}, 3) or (B, T, {k}, 3) inputs with "
                               f"B, T >= 1, got {p.shape}")
    return windows


def _stacked(params: dict[str, Tensor], rows) -> tuple[Tensor, Tensor]:
    """A fused cell's (w, b) from rows of parameter names: each row's
    parameters side by side, the rows stacked into w but the last, which
    is the bias b."""
    *w, b = (ad.concat([params[name] for name in row], axis=-1) for row in rows)
    return ad.concat(w, axis=0), b


def encode(p: np.ndarray, params: dict[str, Tensor], layout: ChainLayout,
           layers: int, global_temporal: bool = True,
           global_spatial: bool = True) -> EncoderState:
    """Run the encoder over (T, K, 3) Lie-entry inputs, or over B windows
    at once stacked as (B, T, K, 3); ``params`` is a model's name ->
    Tensor table.

    Layer 0 (``layers=0``) is h = c = embed(p), each global state the
    mean of those over its axis: frames for g_t, bones for g_s.  Each
    of the ``layers`` layers then updates the whole grid, and after it
    the global states: g_t pools the new grid over frames (axis 1), g_s
    over bones (axis 2).  Windows never see each other: each window's
    states are those of its own (T, K, 3) encode.  Disabling a global
    state replaces its gate inputs and cell contributions with zeros
    and skips its updates.
    """
    if layers < 0:
        raise ValueError(f"layers must be at least 0, got {layers}")
    p = _as_windows(p, layout.num_entries)
    B, T, K, _ = p.shape
    rows = p.reshape(B * T * K, 3)
    h = c = ad.linear(rows, params["enc.embed.w"], params["enc.embed.b"])
    grid = (B, T, K, h.data.shape[1])
    embedded = ad.reshape(h, grid)  # one node both means read

    def mean(axis, on):
        pooled_rows = (B * T * K // grid[axis], grid[3])
        if not on:
            return Tensor(np.zeros(pooled_rows), op="const")
        return ad.reshape(ad.mul(ad.tsum(embedded, axis), 1.0 / grid[axis]), pooled_rows)

    g_t = c_gt = mean(1, global_temporal)
    g_s = c_gs = mean(2, global_spatial)
    # the grid cell's rows are the source block's fields; an updater's
    # columns are its gates c, f and o, its rows w, z and the bias
    w, b = _stacked(params, [[f"enc.gate.{gate}.{f}" for gate in GATE_ORDER]
                             for f in GATE_FIELDS])
    gt, gs = (_stacked(params, [[f"{prefix}.{f}" for f in GLOBAL_FIELDS[k::3]] for k in range(3)])
              if on else None
              for prefix, on in (("enc.gt", global_temporal), ("enc.gs", global_spatial)))
    sp_mask = (layout.spatial_prev() >= 0).astype(np.float64)
    sp_mask = np.tile(sp_mask, B * T)[:, None]  # (B*T*K, 1), 0 at chain heads
    for _ in range(layers):
        # GATE_ORDER is the grid cell's column layout: the "in" gate on the
        # candidate, one gate per cell source, "out", then "cand"
        h, c = ad.grid_cell(h, c, rows, g_s, g_t, w, b, c_gs, c_gt, grid, sp_mask)
        if global_temporal:
            g_t, c_gt = ad.pooled_cell(h, c, g_t, c_gt, *gt, grid, axis=1)
        if global_spatial:
            g_s, c_gs = ad.pooled_cell(h, c, g_s, c_gs, *gs, grid, axis=2)
    return EncoderState(h=h, c=c, g_t=g_t, c_gt=c_gt, g_s=g_s, c_gs=c_gs, grid_shape=grid)
