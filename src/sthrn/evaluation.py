"""Mean angle error evaluation and the comparison report.

Predictions are scored against ground truth at a fixed grid of
millisecond horizons; at 25 fps the grid lands on predicted frames
2, 4, 8, 10, 14, 16, 18, and 25.  The error at one horizon is the
mean over Lie entries of the Euclidean distance between the predicted
and true scaled-axis vectors.  The zero-velocity baseline repeats the
last observed frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DimensionMismatch
from .skeleton import ValidationError

HORIZON_MS = (80, 160, 320, 400, 560, 640, 720, 1000)


def horizon_frames(fps: float = 25.0) -> tuple[int, ...]:
    """1-based predicted-frame index of each millisecond horizon."""
    if not 0.0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    return tuple(int(round(ms * fps / 1000.0)) for ms in HORIZON_MS)


def mae(pred: np.ndarray, target: np.ndarray, fps: float = 25.0) -> dict[int, float]:
    """Per-horizon mean angle error of one prediction.

    ``pred`` and ``target`` are (H, K, 3); horizons whose frame index
    exceeds H are omitted from the result.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 3 or pred.shape[-1] != 3:
        raise DimensionMismatch(f"mae shapes {pred.shape} vs {target.shape}")
    frames = pred.shape[0]
    out: dict[int, float] = {}
    for ms, n in zip(HORIZON_MS, horizon_frames(fps)):
        if 1 <= n <= frames:
            out[ms] = float(np.linalg.norm(pred[n - 1] - target[n - 1], axis=1).mean())
    return out


def zero_velocity(observed: np.ndarray, horizon: int) -> np.ndarray:
    """Baseline prediction: the last observed frame, repeated."""
    observed = np.asarray(observed, dtype=np.float64)
    return np.repeat(observed[-1][None], horizon, axis=0)


# ---------------------------------------------------------------------------
# report
#
# CSV with one row per (activity, method) pair, sorted by activity then
# method; header "activity,method,h80,...,h1000"; horizons without a
# value hold "_".
# ---------------------------------------------------------------------------

_REPORT_HEADER = "activity,method," + ",".join(f"h{ms}" for ms in HORIZON_MS)


@dataclass
class ReportRow:
    activity: str
    method: str
    values: dict[int, float] = field(default_factory=dict)


def write_report(path, rows: list[ReportRow]) -> None:
    """Write ``rows`` as the report CSV; an activity or method name that
    holds a comma or a line break would not read back, so it raises
    ValidationError before the file is opened."""
    for row in rows:
        for field, name in (("activity", row.activity), ("method", row.method)):
            if any(ch in name for ch in ",\r\n"):
                raise ValidationError(f"report {field} {name!r} holds a comma or line break")
    ordered = sorted(rows, key=lambda r: (r.activity, r.method))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_REPORT_HEADER + "\n")
        for row in ordered:
            cells = [
                repr(float(row.values[ms])) if ms in row.values else "_"
                for ms in HORIZON_MS
            ]
            fh.write(f"{row.activity},{row.method}," + ",".join(cells) + "\n")


def format_report(rows: list[ReportRow]) -> str:
    """Fixed-width table of the report for terminal output."""
    ordered = sorted(rows, key=lambda r: (r.activity, r.method))
    acts = max([len("activity")] + [len(r.activity) for r in ordered])
    meths = max([len("method")] + [len(r.method) for r in ordered])
    lines = [
        f"{'activity':<{acts}}  {'method':<{meths}}  "
        + "  ".join(f"{ms:>7}" for ms in HORIZON_MS)
    ]
    for row in ordered:
        cells = [
            f"{row.values[ms]:7.3f}" if ms in row.values else f"{'_':>7}"
            for ms in HORIZON_MS
        ]
        lines.append(f"{row.activity:<{acts}}  {row.method:<{meths}}  " + "  ".join(cells))
    return "\n".join(lines)
