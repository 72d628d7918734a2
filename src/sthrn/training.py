"""Losses, the Adam optimizer, the training loop, and checkpoints.

The primary loss weights each Lie entry by the total bone length its
error swings: entry z carries Theta(z) = sum_{j=z..K} (K + 1 - j) * l_j
over the chain-major entry order, so errors near a chain root (which
displace every downstream bone, repeatedly) cost more than errors at
the tips.  Theta is constant once bone lengths are normalized.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .encoder import ChainLayout
from .model import ModelConfig, ModelParams, check_field_types, forward, frames_tensor
from .skeleton import MotionSequence, ParseError, sample_windows

_MAGIC = b"STHRN1\n"


class TrainingDiverged(RuntimeError):
    """The loss or a gradient became NaN or infinite."""


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def bone_weights(entry_lengths: np.ndarray) -> np.ndarray:
    """Accumulated weights Theta(z), strictly decreasing in z.

    Theta(z) = sum_{j=z..K} (K + 1 - j) * l_j with 1-based z; for K = 3
    and unit lengths this is (6, 3, 1).
    """
    lengths = np.asarray(entry_lengths, dtype=np.float64)
    k = lengths.size
    terms = (k - np.arange(k)) * lengths  # (K + 1 - j) * l_j, j = 1..K
    return np.cumsum(terms[::-1])[::-1]


def _error(pred: Tensor, target: np.ndarray) -> tuple[Tensor, int]:
    """``pred - target`` for a (frames, K, 3) target, and the frame count."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ad.ShapeMismatch(f"loss shapes {pred.data.shape} vs {target.shape}")
    return ad.sub(pred, target), target.shape[0]


def weighted_loss(pred: Tensor, target: np.ndarray, theta: np.ndarray) -> Tensor:
    """Mean over frames of sum_z Theta(z) * ||pred_z - target_z||_2.

    ``pred`` and ``target`` are (frames, K, 3); the frames of B windows
    stacked window-major, as ``frames_tensor`` gives them, make this
    the mean over windows of each window's loss.
    """
    diff, frames = _error(pred, target)
    norms = ad.l2norm(diff, axis=2)                      # (frames, K)
    weighted = ad.mul(norms, theta)                      # broadcast over frames
    return ad.scale(ad.tsum(weighted), 1.0 / frames)


def l2_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over frames of the summed squared entry errors; like
    ``weighted_loss``, stacked windows average over windows too."""
    diff, frames = _error(pred, target)
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / frames)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, named: dict[str, Tensor]) -> "AdamState":
        return cls(
            step=0,
            m={name: np.zeros_like(t.data) for name, t in named.items()},
            v={name: np.zeros_like(t.data) for name, t in named.items()},
        )


def adam_step(named: dict[str, Tensor], state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place on the parameter data."""
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, t in named.items():
        g = t.grad
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def first_nonfinite(named: dict[str, Tensor]) -> str | None:
    """Name of the first tensor whose gradient holds a NaN or inf."""
    for name, t in named.items():
        if not np.isfinite(t.grad).all():
            return name
    return None


def clip_gradients(named: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = float(np.sqrt(sum(float((t.grad * t.grad).sum()) for t in named.values())))
    if max_norm > 0.0 and total > max_norm:
        factor = max_norm / total
        for t in named.values():
            t.grad *= factor
    return total


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 500
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 5.0
    observed: int = 50     # frames fed to the model, last one seeds the decoder
    horizon: int = 10
    loss: str = "weighted"  # or "l2"
    seed: int = 0
    teacher_forcing: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.loss not in ("weighted", "l2"):
            raise ValueError(f"unknown loss {self.loss!r}")
        for key in ("batch_size", "iterations"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        # settings under which Adam would write non-finite parameters, or
        # clipping would silently switch off
        for key, ok, rule in (
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0,
             "finite and positive"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("epsilon", math.isfinite(self.epsilon) and self.epsilon > 0, "finite and positive"),
            ("clip_norm", math.isfinite(self.clip_norm) and self.clip_norm >= 0,
             "finite and at least 0 (0 turns clipping off)"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list[tuple[int, float, float]]  # (iteration, loss, wallclock_ms)
    adam: AdamState


def train(sequences: list[MotionSequence], layout: ChainLayout, theta: np.ndarray,
          model_config: ModelConfig, train_config: TrainConfig,
          params: ModelParams | None = None) -> TrainResult:
    """Seeded minibatch training over uniformly sampled windows.

    Each iteration stacks its ``batch_size`` windows and runs them as
    one batch: one forward pass, one loss (the mean over windows) and
    one tape walk.  The tape is released as soon as the walk has left
    its gradients on the parameters, so the gradient checks, clipping
    and the Adam step run with no tape alive.  The same seed reproduces
    the exact loss curve.
    Raises TrainingDiverged when the loss or a gradient stops being
    finite, before the parameters are touched.
    """
    rng = np.random.default_rng(train_config.seed)
    if params is None:
        params = ModelParams.init(model_config, layout, seed=train_config.seed)
    named = params.named()
    adam = AdamState.init(named)
    k = layout.num_entries
    metrics: list[tuple[int, float, float]] = []
    for it in range(train_config.iterations):
        t0 = time.perf_counter()
        windows = []
        for _ in range(train_config.batch_size):
            si = int(rng.integers(len(sequences)))
            windows.append(sample_windows(sequences[si], train_config.observed,
                                          train_config.horizon, 1, rng)[0])
        targets = np.stack([w.target for w in windows])
        feed = targets if train_config.teacher_forcing else None
        outs = forward(params, model_config, layout,
                       np.stack([w.observed for w in windows]),
                       train_config.horizon, feed=feed)
        pred, target = frames_tensor(outs, k), targets.reshape(-1, k, 3)
        if train_config.loss == "weighted":
            loss = weighted_loss(pred, target, theta)
        else:
            loss = l2_loss(pred, target)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at iteration {it}")
        backward(loss, leaves=named.values())
        loss_value = float(loss.data)
        del outs, pred, loss  # free the tape: only the leaves' gradients are needed now
        bad = first_nonfinite(named)
        if bad is not None:
            raise TrainingDiverged(f"non-finite gradient of {bad} at iteration {it}")
        clip_gradients(named, train_config.clip_norm)
        adam_step(named, adam, lr=train_config.learning_rate,
                  beta1=train_config.beta1, beta2=train_config.beta2,
                  eps=train_config.epsilon)
        metrics.append((it, loss_value, (time.perf_counter() - t0) * 1000.0))
    return TrainResult(params=params, metrics=metrics, adam=adam)


def write_metrics(path, metrics: list[tuple[int, float, float]]) -> None:
    """CSV loss curve: iteration,loss,wallclock_ms.

    Loss values are written with repr and are seed-deterministic; the
    wallclock column is measured and varies between runs.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,loss,wallclock_ms\n")
        for it, loss, ms in metrics:
            fh.write(f"{it},{loss!r},{ms:.3f}\n")


# ---------------------------------------------------------------------------
# checkpoints
#
# Binary container, version 1:
#   magic b"STHRN1\n"
#   uint64 little-endian header length, then that many bytes of JSON
#   the tensors back to back, row-major little-endian float64
# The JSON header records the model config, the chain layout, the
# iteration count, and each tensor's name and shape in write order.
# Optimizer moments ride along as "adam.m.*" / "adam.v.*" tensors.
# ---------------------------------------------------------------------------


class _ZeroDraws(np.random.Generator):
    """Seeds ``ModelParams.init`` to build zeros without drawing a number."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)


def _tensors(params: ModelParams, adam: AdamState | None) -> dict[str, np.ndarray]:
    """A checkpoint's tensors in file order: parameters, then Adam moments."""
    named = {name: t.data for name, t in params.named().items()}
    if adam is None:
        return named
    return {**named, **{f"adam.m.{n}": adam.m[n] for n in named},
            **{f"adam.v.{n}": adam.v[n] for n in named}}


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    layout: ChainLayout, iteration: int = 0,
                    adam: AdamState | None = None) -> None:
    tensors = _tensors(params, adam)
    header = {
        "version": 1,
        "config": asdict(config),
        "chains": list(layout.entry_counts),
        "iteration": iteration,
        "adam_step": adam.step if adam is not None else None,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for a in tensors.values():
            # straight from the array: a freed bytes copy of a large tensor
            # raises glibc's dynamic mmap threshold, later loads then put
            # their arrays on the heap, and the peak RSS of a process that
            # saves and then loads the human model read 86 or 94 MB by heap
            # layout alone
            fh.write(np.ascontiguousarray(a, dtype="<f8").view(np.uint8).reshape(-1))


@dataclass
class Checkpoint:
    params: ModelParams
    config: ModelConfig
    layout: ChainLayout
    iteration: int
    adam: AdamState | None


def load_checkpoint(path) -> Checkpoint:
    """Bit-exact reload of a saved checkpoint.

    The header must list exactly the tensors, in save order, that its
    config and chains imply; each is built from its shape and bytes,
    with no random draws, and must be finite.  Any other file raises
    ParseError naming the path.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        try:
            (size,) = struct.unpack("<Q", fh.read(8))
            blob = fh.read(min(size, os.fstat(fh.fileno()).st_size))  # never past the end
            header = json.loads(blob.decode("utf-8"))
            if header["version"] != 1:
                raise ParseError(f"unsupported checkpoint version {header['version']!r}")
            config = ModelConfig(**header["config"])
            layout = ChainLayout(tuple(header["chains"]))
            iteration = int(header["iteration"])
            listed = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
            params = ModelParams.init(config, layout, seed=_ZeroDraws())
            adam_step = header.get("adam_step")
            adam = None if adam_step is None else replace(AdamState.init(params.named()),
                                                           step=int(adam_step))
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise ParseError(f"{path}: bad header ({type(exc).__name__}: {exc})") from exc
        tensors = _tensors(params, adam)  # zeros, filled in place below
        implied = [(name, a.shape) for name, a in tensors.items()]
        if listed != implied:
            differ = [x for x in listed + implied if (x in listed) != (x in implied)]
            raise ParseError(f"{path}: header tensors differ from its config's: "
                             f"{differ or 'in order'}")
        for name, a in tensors.items():
            # straight into the array: a bytes copy per tensor, freed
            # between the arrays that stay, fragments the heap and lifts RSS
            if fh.readinto(a.view(np.uint8).reshape(-1)) != a.nbytes:
                raise ParseError(f"{path}: truncated tensor {name!r}")
            if not np.little_endian:
                a.byteswap(inplace=True)
            # min and max make no temporary array; NaN propagates through both
            if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise ParseError(f"{path}: tensor {name!r} is not finite")
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after the last tensor")
    return Checkpoint(params=params, config=config, layout=layout,
                      iteration=iteration, adam=adam)
