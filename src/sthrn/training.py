"""Losses, the Adam optimizer, the training loop, and checkpoints.

The primary loss weights each Lie entry by the total bone length its
error swings: entry z carries Theta(z) = sum_{j=z..K} (K + 1 - j) * l_j
over the chain-major entry order, so errors near a chain root (which
displace every downstream bone, repeatedly) cost more than errors at
the tips.  Theta is constant once bone lengths are normalized.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .encoder import ChainLayout
from .model import (ModelConfig, ModelParams, check_field_types, flat_views, forward,
                    frames_tensor, param_table)
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
    return ad.add(pred, -target), target.shape[0]


def weighted_loss(pred: Tensor, target: np.ndarray, theta: np.ndarray) -> Tensor:
    """Mean over frames of sum_z Theta(z) * ||pred_z - target_z||_2.

    ``pred`` and ``target`` are (frames, K, 3); the frames of B windows
    stacked window-major, as ``frames_tensor`` gives them, make this
    the mean over windows of each window's loss.
    """
    diff, frames = _error(pred, target)
    norms = ad.l2norm(diff, axis=2)                      # (frames, K)
    weighted = ad.mul(norms, theta)                      # broadcast over frames
    return ad.mul(ad.tsum(weighted), 1.0 / frames)


def l2_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over frames of the summed squared entry errors; like
    ``weighted_loss``, stacked windows average over windows too."""
    diff, frames = _error(pred, target)
    return ad.mul(ad.tsum(ad.mul(diff, diff)), 1.0 / frames)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's step count and its two moments, flat arrays laid out as the
    parameters' flat array."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, size: int) -> "AdamState":
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


# Adam runs over this many values at a time: a chunk of the parameters,
# gradient, moments and two scratch arrays stays in cache, where passes
# over the whole human model's 2.1 M values run from memory.
_ADAM_CHUNK = 1 << 15


def adam_step(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of the flat parameters ``flat`` from
    their flat gradient ``grad``, in place, chunk by chunk, rounding as
    ``m += (1 - beta1) * (g - m)``, ``v += (1 - beta2) * (g * g - v)``
    and ``flat -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` do."""
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    a = np.empty(min(_ADAM_CHUNK, flat.size))
    b = np.empty_like(a)
    for lo in range(0, flat.size, _ADAM_CHUNK):
        p, g, m, v = (x[lo:lo + _ADAM_CHUNK] for x in (flat, grad, state.m, state.v))
        s, t = a[:p.size], b[:p.size]
        m += np.multiply(np.subtract(g, m, out=s), 1.0 - beta1, out=s)
        v += np.multiply(np.subtract(np.multiply(g, g, out=s), v, out=s), 1.0 - beta2, out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=t), out=t), eps, out=t)
        p -= np.divide(np.multiply(np.divide(m, bc1, out=s), lr, out=s), t, out=s)


def first_nonfinite(flat: np.ndarray, named) -> str | None:
    """Name of the first of the (name, array) pairs ``named``, views that
    cover ``flat``, that holds a NaN or inf, or None.  ``flat`` decides
    first, in one min and one max, which make no temporary array and
    propagate NaN; only a non-finite ``flat`` has its views looked at."""
    def finite(a: np.ndarray) -> bool:
        return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))
    return None if finite(flat) else next(name for name, a in named if not finite(a))


def clip_gradients(grad: np.ndarray, parts, max_norm: float) -> float:
    """Scale the flat gradient ``grad`` so its global norm is at most
    max_norm, and return the norm before scaling; ``parts`` are its
    per-parameter views, whose sums of squares add up in their order."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in parts)))
    if max_norm > 0.0 and total > max_norm:
        grad *= max_norm / total
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
        for key, least in (("batch_size", 1), ("iterations", 1), ("observed", 2), ("horizon", 1),
                           ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
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
    grad_norms: list[float]  # global gradient norm before clipping, per iteration


def train(sequences: list[MotionSequence], layout: ChainLayout, theta: np.ndarray,
          model_config: ModelConfig, train_config: TrainConfig,
          params: ModelParams | None = None) -> TrainResult:
    """Seeded minibatch training over uniformly sampled windows.

    Each iteration draws its ``batch_size`` windows as one array, splits
    it into the observed frames and the targets, and runs them as one
    batch: one forward pass, one loss (the mean over windows) and one
    tape walk.  The tape is released as soon as the walk has left its
    gradients on the parameters, so the gradient checks, clipping and
    the Adam step run with no tape alive.  The same seed reproduces the
    exact loss curve.
    No sequences raise ValueError, a sequence with a frame that is not
    finite ValidationError, and one shorter than a window
    SequenceTooShort, all before anything is drawn.  Raises
    TrainingDiverged when the loss or a gradient stops being finite,
    before the parameters are touched.
    """
    if not sequences:
        raise ValueError("train needs at least one sequence")
    need = train_config.observed + train_config.horizon
    for i, seq in enumerate(sequences):
        seq.check_finite(f"sequence {i}").check_length(f"sequence {i}", need)
    rng = np.random.default_rng(train_config.seed)
    if params is None:
        params = ModelParams.init(model_config, layout, seed=train_config.seed)
    named = params.named()
    if params.grad is None:
        # kept for later calls: a new buffer per call would keep the last
        # one alive, through the leaves' .grad, while the next tape peaks
        params.grad = np.zeros_like(params.flat)
    grads = flat_views(params.grad, {name: t.data.shape for name, t in named.items()})
    adam = AdamState.init(params.flat.size)
    k = layout.num_entries
    metrics: list[tuple[int, float, float]] = []
    grad_norms: list[float] = []
    for it in range(train_config.iterations):
        t0 = time.perf_counter()
        observed, targets = np.split(sample_windows(sequences, need, train_config.batch_size, rng),
                                     [train_config.observed], axis=1)
        feed = targets if train_config.teacher_forcing else None
        outs = forward(params, model_config, layout, observed, train_config.horizon, feed=feed)
        pred, target = frames_tensor(outs, k), targets.reshape(-1, k, 3)
        if train_config.loss == "weighted":
            loss = weighted_loss(pred, target, theta)
        else:
            loss = l2_loss(pred, target)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at iteration {it}")
        params.grad.fill(0.0)
        backward(loss, named.values(), grads.values())
        loss_value = float(loss.data)
        # free the tape and the batch: a batch held to the next draw quintupled page faults
        del outs, pred, loss, observed, targets, target, feed
        bad = first_nonfinite(params.grad, grads.items())
        if bad is not None:
            raise TrainingDiverged(f"non-finite gradient of {bad} at iteration {it}")
        grad_norms.append(clip_gradients(params.grad, grads.values(), train_config.clip_norm))
        adam_step(params.flat, params.grad, adam, lr=train_config.learning_rate,
                  beta1=train_config.beta1, beta2=train_config.beta2,
                  eps=train_config.epsilon)
        metrics.append((it, loss_value, (time.perf_counter() - t0) * 1000.0))
    return TrainResult(params=params, metrics=metrics, adam=adam, grad_norms=grad_norms)


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
# Optimizer moments ride along as "adam.m.*" / "adam.v.*" tensors.  The
# tensors back to back are the flat parameter array, then Adam's flat
# moments, each in ``param_table`` order.
# ---------------------------------------------------------------------------


def _file_order(table: dict, moments: bool) -> dict:
    """A checkpoint's entries, name -> shape, in file order: the
    parameters, then Adam's first and second moments if ``moments``."""
    prefixes = ("", "adam.m.", "adam.v.") if moments else ("",)
    return {f"{prefix}{name}": shape for prefix in prefixes for name, shape in table.items()}


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    layout: ChainLayout, iteration: int = 0,
                    adam: AdamState | None = None) -> None:
    shapes = {name: t.data.shape for name, t in params.tensors.items()}
    header = {
        "version": 1,
        "config": asdict(config),
        "chains": list(layout.entry_counts),
        "iteration": iteration,
        "adam_step": adam.step if adam is not None else None,
        "tensors": [{"name": n, "shape": list(s)}
                    for n, s in _file_order(shapes, adam is not None).items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"  # path is replaced only once the whole file is written
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<Q", len(blob)) + blob)
            for a in (params.flat,) if adam is None else (params.flat, adam.m, adam.v):
                # straight from the array: a freed bytes copy of a large array raises
                # glibc's dynamic mmap threshold, later loads then put their arrays on the
                # heap, and the peak RSS of a process that saves and then loads the human
                # model read 86 or 94 MB by heap layout alone
                fh.write(np.ascontiguousarray(a, dtype="<f8").view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    config and chains imply (``param_table``, then the Adam moments when
    it records an Adam step), and the bytes after the header must be
    exactly those tensors': both are checked before any array is
    allocated, so a header cannot make the load take memory its file
    does not back.  The tensors are read straight into one flat array,
    with no random draws, and must be finite; the parameters view its
    first part and Adam's moments the rest.  Any other file raises
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
            table = param_table(config, layout)
            adam_step = header.get("adam_step")
            adam_step = None if adam_step is None else int(adam_step)
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise ParseError(f"{path}: bad header ({type(exc).__name__}: {exc})") from exc
        implied = _file_order(table, adam_step is not None)
        if listed != list(implied.items()):
            pairs = list(itertools.zip_longest(listed, implied.items()))
            differ = [(got, want) for got, want in pairs if got != want]
            raise ParseError(f"{path}: header tensors differ from its config's at "
                             f"{len(differ)} of {len(pairs)} entries; the first lists "
                             f"{differ[0][0] or 'nothing'} where the config implies "
                             f"{differ[0][1] or 'nothing'}")
        need = 8 * sum(math.prod(shape) for shape in implied.values())
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != have:
            raise ParseError(f"{path}: {'truncated' if need > have else 'trailing bytes'}: "
                             f"its tensors take {need:,} bytes and {have:,} follow the header")
        # straight into one buffer: a bytes copy per tensor, freed between
        # the arrays that stay, fragments the heap and lifts RSS
        flat = np.empty(need // 8)
        if fh.readinto(flat.view(np.uint8)) != need:
            raise ParseError(f"{path}: truncated tensors")
        if not np.little_endian:
            flat.byteswap(inplace=True)
        bad = first_nonfinite(flat, flat_views(flat, implied).items())
        if bad is not None:
            raise ParseError(f"{path}: tensor {bad!r} is not finite")
    count = sum(math.prod(shape) for shape in table.values())
    adam = None if adam_step is None else AdamState(
        step=adam_step, m=flat[count:2 * count], v=flat[2 * count:])
    return Checkpoint(params=ModelParams(flat[:count], table), config=config, layout=layout,
                      iteration=iteration, adam=adam)
