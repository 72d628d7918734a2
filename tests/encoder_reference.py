"""The encoder as a looped numpy reference, kept as a test oracle.

``sthrn.encoder.encode`` updates every grid cell of a layer at once.
This looped twin updates one cell at a time, each from layer l-1
arrays only, which makes the simultaneous-update contract directly
testable: any visitation order gives bit-identical results.
"""

import numpy as np

from sthrn.encoder import GATE_FIELDS, GATE_ORDER, GLOBAL_FIELDS, ChainLayout


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def local_cell_step(i: int, j: int, h: np.ndarray, c: np.ndarray,
                    g_t: np.ndarray, c_gt: np.ndarray,
                    g_s: np.ndarray, c_gs: np.ndarray,
                    p: np.ndarray, params: dict,
                    layout: ChainLayout) -> tuple[np.ndarray, np.ndarray]:
    """One grid cell's update from layer l-1 arrays.

    h, c are (T, K, hidden); g_t, c_gt are (K, hidden); g_s, c_gs are
    (T, hidden); p is (T, K, 3); ``params`` is a model's name -> Tensor
    table.  Returns the cell's new (h, c).
    """
    T, K, hidden = h.shape
    zero = np.zeros(hidden)
    sp = layout.spatial_prev()[j]
    h_l = h[i - 1, j] if i > 0 else zero
    h_r = h[i + 1, j] if i + 1 < T else zero
    h_s = h[i, sp] if sp >= 0 else zero
    triple = np.concatenate([h_l, h_r, h[i, j]])

    def pre(gate: str) -> np.ndarray:
        gp = {f: params[f"enc.gate.{gate}.{f}"].data for f in GATE_FIELDS}
        return (p[i, j] @ gp["u"] + triple @ gp["w"] + h_s @ gp["z"]
                + g_s[i] @ gp["gs"] + g_t[j] @ gp["gt"] + gp["bias"])

    g = {name: _sigmoid(pre(name)) for name in GATE_ORDER[:-1]}
    cand = np.tanh(pre("cand"))
    c_l = c[i - 1, j] if i > 0 else zero
    c_r = c[i + 1, j] if i + 1 < T else zero
    c_s = c[i, sp] if sp >= 0 else zero
    c_new = (g["in"] * cand + g["left"] * c_l + g["same"] * c[i, j]
             + g["right"] * c_r + g["spatial"] * c_s
             + g["gs"] * c_gs[i] + g["gt"] * c_gt[j])
    h_new = g["out"] * np.tanh(c_new)
    return h_new, c_new


def _global_step(h_new, c_new, g_prev, c_prev, params: dict, prefix: str, axis: int):
    gp = {f: params[f"{prefix}.{f}"].data for f in GLOBAL_FIELDS}
    n = h_new.shape[axis]
    if axis == 0:
        prev_rows = g_prev[None, :, :]  # broadcast per bone
    else:
        prev_rows = g_prev[:, None, :]  # broadcast per frame
    f_cell = _sigmoid(h_new @ gp["w_c"] + prev_rows @ gp["z_c"] + gp["b_c"])
    contrib = (f_cell * c_new).sum(axis=axis)
    h_mean = h_new.sum(axis=axis) / n
    f_glob = _sigmoid(h_mean @ gp["w_f"] + g_prev @ gp["z_f"] + gp["b_f"])
    out = _sigmoid(h_mean @ gp["w_o"] + g_prev @ gp["z_o"] + gp["b_o"])
    c_next = contrib + f_glob * c_prev
    return out * np.tanh(c_next), c_next


def encode_reference(p: np.ndarray, params: dict, layout: ChainLayout,
                     layers: int, global_temporal: bool = True,
                     global_spatial: bool = True,
                     cell_order=None) -> dict[str, np.ndarray]:
    """Looped numpy twin of ``encode`` for one (T, K, 3) window.

    ``cell_order`` is a sequence of (i, j) grid coordinates fixing the
    within-layer visitation order (default row-major).  Because cells
    only read layer l-1 state, the result is identical for every
    permutation.
    """
    p = np.asarray(p, dtype=np.float64)
    T, K, hidden = p.shape[0], layout.num_entries, params["enc.embed.w"].data.shape[1]
    e = (p.reshape(T * K, 3) @ params["enc.embed.w"].data + params["enc.embed.b"].data)
    h = e.reshape(T, K, hidden).copy()
    c = h.copy()
    g_t = h.mean(axis=0) if global_temporal else np.zeros((K, hidden))
    c_gt = g_t.copy()
    g_s = h.mean(axis=1) if global_spatial else np.zeros((T, hidden))
    c_gs = g_s.copy()
    if cell_order is None:
        cell_order = [(i, j) for i in range(T) for j in range(K)]
    for _ in range(layers):
        h_new = np.empty_like(h)
        c_new = np.empty_like(c)
        for i, j in cell_order:
            h_new[i, j], c_new[i, j] = local_cell_step(
                i, j, h, c, g_t, c_gt, g_s, c_gs, p, params, layout)
        if global_temporal:
            g_t, c_gt = _global_step(h_new, c_new, g_t, c_gt, params, "enc.gt", axis=0)
        if global_spatial:
            g_s, c_gs = _global_step(h_new, c_new, g_s, c_gs, params, "enc.gs", axis=1)
        h, c = h_new, c_new
    return {"h": h, "c": c, "g_t": g_t, "c_gt": c_gt, "g_s": g_s, "c_gs": c_gs}
