"""Whole-model composition: encode observed frames, decode the future."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import DECODER_KINDS, decode_step, init_decoder, wiring
from .encoder import GATE_FIELDS, GATE_ORDER, GLOBAL_FIELDS, ChainLayout, _as_windows, encode

INIT_SIGMA = 0.1  # standard deviation of every initial weight
# a model whose float64 parameters alone take more is refused before
# anything is drawn; training holds three more copies (gradients and
# Adam's two moments), chunk-sized scratch and the tape
MAX_PARAM_BYTES = 1 << 30
# the longest prediction ``forward`` makes: it keeps every step's output,
# so a horizon is refused before encoding rather than run out of memory
MAX_HORIZON = 100_000


_FIELD_TYPES = {kind.__name__: kind for kind in (int, float, str, bool)}


def field_types(config_class) -> dict[str, type]:
    """Each field of a config dataclass and its type: int, float, str or bool."""
    return {f.name: _FIELD_TYPES[f.type] for f in fields(config_class)}


def check_field_types(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose
    value is not of its type; an int is also accepted for a float."""
    for key, kind in field_types(type(config)).items():
        value = getattr(config, key)
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches; widths follow the encoder hidden size."""

    hidden_size: int = 20
    layers: int = 10
    global_temporal: bool = True
    global_spatial: bool = True
    decoder: str = "structured"

    def __post_init__(self):
        check_field_types(self)
        for key in ("hidden_size", "layers"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.decoder not in DECODER_KINDS:
            raise ValueError(f"unknown decoder kind {self.decoder!r}; known kinds: "
                             f"{', '.join(DECODER_KINDS)}")


def param_table(config: ModelConfig, layout: ChainLayout) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in checkpoint order.

    The encoder's embedding, its nine gate heads in ``GATE_ORDER`` and
    its temporal ("enc.gt") and spatial ("enc.gs") global updaters are
    as wide as ``hidden_size``; the decoder's cells, sorted by name, and
    its heads, in wiring order, are K * ``hidden_size`` wide.  Vectors
    are biases and start at zero; matrices are drawn.
    """
    n = config.hidden_size
    table = {"enc.embed.w": (3, n), "enc.embed.b": (n,)}
    gate_shapes = ((3, n), (3 * n, n), (n, n), (n, n), (n, n), (n,))
    for gate in GATE_ORDER:
        table.update({f"enc.gate.{gate}.{f}": s for f, s in zip(GATE_FIELDS, gate_shapes)})
    for prefix in ("enc.gt", "enc.gs"):
        table.update({f"{prefix}.{f}": (n,) if f.startswith("b") else (n, n)
                      for f in GLOBAL_FIELDS})
    cells, heads = wiring(config.decoder, layout)
    k = layout.num_entries
    d = k * n
    for name, sources in sorted(cells):
        width = sum(3 * k if s == "pose" else d for s in sources)
        table.update({f"dec.{name}.w": (width + d, 4 * d), f"dec.{name}.b": (4 * d,)})
    for i, (_, chains) in enumerate(heads):
        width = 3 * sum(layout.entry_counts[c] for c in chains)
        table.update({f"dec.proj.{i}.w": (d, width), f"dec.proj.{i}.b": (width,)})
    return table


def flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """``flat`` cut, in order, into one reshaped view per name -> shape."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
    return {name: part.reshape(shape)
            for (name, shape), part in zip(shapes.items(), np.split(flat, cuts))}


class ModelParams:
    """A model's parameters: one name -> Tensor table in checkpoint order,
    each tensor's data a reshaped view of one flat float64 array,
    ``flat``.  ``grad`` is their flat gradient array, in the same
    order: None until the first ``train()`` on them allocates it, and
    kept after that."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.flat = flat
        self.tensors = {name: Tensor(view) for name, view in flat_views(flat, shapes).items()}
        self.grad: np.ndarray | None = None

    @classmethod
    def init(cls, config: ModelConfig, layout: ChainLayout,
             seed: int | np.random.Generator) -> "ModelParams":
        """Seeded parameters; raises ValueError, before anything is drawn,
        when they would take more than ``MAX_PARAM_BYTES``."""
        table = param_table(config, layout)
        count = sum(math.prod(shape) for shape in table.values())
        if 8 * count > MAX_PARAM_BYTES:
            raise ValueError(f"a model of {count:,} parameters takes {8 * count:,} bytes; "
                             f"at most {MAX_PARAM_BYTES:,} bytes are allowed")
        # draw order: the gates, the embedding, the global updaters, the
        # decoder cells in wiring order, then the heads
        groups = ["enc.gate.", "enc.embed.", "enc.gt.", "enc.gs.",
                  *(f"dec.{name}." for name, _ in wiring(config.decoder, layout)[0]), "dec.proj."]
        rank = {name: next(i for i, g in enumerate(groups) if name.startswith(g)) for name in table}
        rng = np.random.default_rng(seed)
        params = cls(np.zeros(count), table)
        for name in sorted((n for n in table if len(table[n]) == 2), key=rank.get):
            # rng.normal(0.0, INIT_SIGMA)'s values, drawn straight into the
            # view: a drawn temporary, copied in and freed, raises glibc's
            # mmap threshold and, with it, a later peak RSS
            view = params.tensors[name].data
            rng.standard_normal(out=view)
            view *= INIT_SIGMA
        return params

    def named(self) -> dict[str, Tensor]:
        return dict(self.tensors)


def _check_finite(name: str, windows: np.ndarray, single: bool) -> None:
    """Raise ValueError naming the first frame of (B, t, K, 3) ``windows``
    that is not finite, and its window unless ``single``."""
    if not np.isfinite(windows).all():
        window, frame = np.argwhere(~np.isfinite(windows))[0][:2]
        where = f"frame {frame}" if single else f"window {window} frame {frame}"
        raise ValueError(f"{name} {where} is not finite")


def _check_observed(observed, k: int) -> np.ndarray:
    """``observed`` as float64 (B, t, K, 3) windows with t >= 2, all finite."""
    single = np.ndim(observed) == 3
    observed = _as_windows(observed, k)
    if observed.shape[1] < 2:
        raise ad.ShapeMismatch("need at least 2 observed frames")
    _check_finite("observed", observed, single)
    return observed


def forward(params: ModelParams, config: ModelConfig, layout: ChainLayout,
            observed: np.ndarray, horizon: int,
            feed: np.ndarray | None = None) -> list[Tensor]:
    """Predicted frames as one (B, 3K) tape tensor per step.

    ``observed`` is one window (t, K, 3), which is B = 1, or B windows
    stacked as (B, t, K, 3), with t >= 2 finite frames: the first t - 1
    drive the encoder and the last one seeds the decoder.  Decoding
    consumes its own outputs; passing ``feed`` (horizon, K, 3), or (B,
    horizon, K, 3), instead feeds the true previous frame at each step
    (teacher forcing); only its first horizon - 1 frames are read, and
    they must be finite.  A horizon above ``MAX_HORIZON`` is refused.
    """
    k = layout.num_entries
    observed = _check_observed(observed, k)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be 1 to {MAX_HORIZON:,} frames, got {horizon:,}")
    b = observed.shape[0]
    if feed is not None:
        windows = _as_windows(feed, k)[:, :horizon - 1]
        if windows.shape[:2] != (b, horizon - 1):
            raise ad.ShapeMismatch(f"feed needs {b} window(s) of at least {horizon - 1} frames, "
                                   f"got {np.shape(feed)}")
        _check_finite("feed", windows, np.ndim(feed) == 3)
        feed = windows
    enc = encode(observed[:, :-1], params.tensors, layout, config.layers,
                 config.global_temporal, config.global_spatial)
    state = init_decoder(enc, wiring(config.decoder, layout))
    w = observed[:, -1].reshape(b, 3 * k)
    outs: list[Tensor] = []
    for n in range(horizon):
        w, state = decode_step(w, state, params.tensors)
        outs.append(w)
        if feed is not None and n + 1 < horizon:
            w = feed[:, n].reshape(b, 3 * k)
    return outs


def frames_tensor(outs: list[Tensor], k: int) -> Tensor:
    """Stack step outputs into one (B * horizon, K, 3) tensor.

    Rows are window-major: window b's frames are rows b * horizon to
    (b + 1) * horizon - 1, so one window gives (horizon, K, 3).
    """
    stacked = ad.concat(outs, axis=1)
    return ad.reshape(stacked, (stacked.data.shape[0] * len(outs), k, 3))


def predict(params: ModelParams, config: ModelConfig, layout: ChainLayout,
            observed: np.ndarray, horizon: int) -> np.ndarray:
    """Value-only prediction of (horizon, K, 3) future Lie frames from a
    (t, K, 3) window, or (B, horizon, K, 3) from (B, t, K, 3) windows."""
    single = np.ndim(observed) == 3
    with ad.no_grad():
        outs = forward(params, config, layout, observed, horizon)
    k = layout.num_entries
    frames = np.stack([t.data.reshape(-1, k, 3) for t in outs], axis=1)
    return frames[0] if single else frames
