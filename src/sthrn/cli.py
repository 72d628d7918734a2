"""Command line interface.

Subcommands: preprocess (raw positions to Lie vectors), train, predict,
eval (horizon-grid error report), plot (stick-figure SVG).  Exit codes:
0 success, 1 numeric failure (training divergence), 2 usage or data
errors.  Every command is deterministic given its flags and seed; the
one documented exception is the measured wallclock_ms metrics column.

Config files hold one "key = value" per line with '#' comments.  The
training seed resolves in order: --seed flag, config file, STHRN_SEED
environment variable, default 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .encoder import ChainLayout
from .evaluation import ReportRow, format_report, mae, write_report
from .geometry import DimensionMismatch
from .model import ModelConfig, field_types, predict
from .skeleton import (
    MotionSequence,
    ParseError,
    RootConfig,
    SkeletonTopology,
    ValidationError,
    length_lines,
    lie_to_pose,
    load_motion,
    load_topology,
    normalize_lengths,
    pose_to_lie,
    read_lines,
    resample_fps,
    save_motion,
    with_lengths,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    bone_weights,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics,
)

CHAIN_COLORS = ("#1a1a1a", "#e0b400", "#2a9d2a", "#00b0b8", "#7a2fbf")

_MODEL_KEYS = field_types(ModelConfig)
_TRAIN_KEYS = field_types(TrainConfig)
_EXTRA_KEYS = {"topology": str}


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValidationError(f"config key {key!r}: expected a boolean, got {value!r}")


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def build_configs(values: dict[str, str]) -> tuple[ModelConfig, TrainConfig, dict[str, str]]:
    """Typed configs from raw config-file strings; unknown keys are errors."""
    model_kw: dict = {}
    train_kw: dict = {}
    extras: dict[str, str] = {}
    for key, value in values.items():
        if key in _MODEL_KEYS:
            model_kw[key] = _convert(_MODEL_KEYS[key], key, value)
        elif key in _TRAIN_KEYS:
            train_kw[key] = _convert(_TRAIN_KEYS[key], key, value)
        elif key in _EXTRA_KEYS:
            extras[key] = value
        else:
            raise ValidationError(f"unknown config key {key!r}")
    return ModelConfig(**model_kw), TrainConfig(**train_kw), extras


def _convert(conv, key: str, value: str):
    if conv is bool:
        return _parse_bool(value, key)
    try:
        return conv(value)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: bad value {value!r}") from exc


def _resolve_seed(flag_seed, config_values: dict[str, str]) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in config_values:
        return _convert(int, "seed", config_values["seed"])
    env = os.environ.get("STHRN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"STHRN_SEED is not an integer: {env!r}") from exc
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    topo = load_topology(args.topology)
    seq = load_motion(getattr(args, "in"), topo)
    if seq.kind != "joints":
        raise ValidationError("preprocess expects raw joint positions, got Lie vectors")
    seq.check_finite(getattr(args, "in"))
    if args.fps is not None:
        seq = resample_fps(seq, args.fps)
    topo = normalize_lengths([seq], topo)
    lie = pose_to_lie(seq.frames, topo)
    save_motion(args.out, MotionSequence(fps=seq.fps, frames=lie, kind="lie"))
    lengths_out = args.lengths_out or (str(args.out) + ".lengths")
    with open(lengths_out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["# normalized bone lengths", *length_lines(topo)]) + "\n")
    print(f"wrote {lie.shape[0]} frames, k={lie.shape[1]}, fps={seq.fps:g} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config_values = parse_config_file(args.config) if args.config else {}
    model_config, train_config, extras = build_configs(config_values)
    seed = _resolve_seed(args.seed, config_values)
    train_config = replace(train_config, seed=seed)
    if args.iterations is not None:
        train_config = replace(train_config, iterations=args.iterations)
    topo_path = args.topology or extras.get("topology")
    if topo_path is None:
        raise ValidationError("a topology is required (flag --topology or config key)")
    topo = load_topology(topo_path)
    if args.lengths:
        topo = with_lengths(args.lengths, read_lines(args.lengths), topo)
    layout = ChainLayout.from_topology(topo)
    sequences = [load_motion(path, topo) for path in args.data]
    for path, seq in zip(args.data, sequences):
        if seq.kind != "lie":
            raise ValidationError(f"{path}: training data must be Lie vectors")
        seq.check_finite(path).check_length(path, train_config.observed + train_config.horizon)
    theta = bone_weights(topo.entry_lengths())
    result = train(sequences, layout, theta, model_config, train_config)
    if args.out_checkpoint:
        save_checkpoint(args.out_checkpoint, result.params, model_config, layout,
                        iteration=train_config.iterations, adam=result.adam)
    if args.metrics:
        write_metrics(args.metrics, result.metrics)
    first, last = result.metrics[0][1], result.metrics[-1][1]
    count = sum(t.data.size for t in result.params.named().values())
    print(f"trained {train_config.iterations} iterations of {count:,} parameters, "
          f"loss {first:.6f} -> {last:.6f}")
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    seq = load_motion(args.data).check_finite(args.data)
    if seq.kind != "lie":
        raise ValidationError("predict expects Lie-vector data")
    k = ckpt.layout.num_entries
    if seq.frames.shape[1] != k:
        raise DimensionMismatch(
            f"data has {seq.frames.shape[1]} entries, checkpoint expects {k}")
    pred = predict(ckpt.params, ckpt.config, ckpt.layout, seq.frames, args.horizon)
    save_motion(args.out, MotionSequence(fps=seq.fps, frames=pred, kind="lie"))
    print(f"predicted {args.horizon} frames -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred = load_motion(args.pred).check_finite(args.pred)
    target = load_motion(args.target).check_finite(args.target)
    if pred.frames.shape != target.frames.shape:
        raise DimensionMismatch(
            f"prediction {pred.frames.shape} vs target {target.frames.shape}")
    fps = args.fps if args.fps is not None else pred.fps
    values = mae(pred.frames, target.frames, fps=fps)
    row = ReportRow(activity=Path(args.target).stem, method=Path(args.pred).stem,
                    values=values)
    write_report(args.out, [row])
    print(format_report([row]))
    return 0


def _parse_frames(spec: str, total: int) -> list[int]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() for p in parts):
            raise ValidationError(f"bad frame range {spec!r}")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ValidationError("frame range step must be positive")
        if start < stop and not 0 <= start < total:
            raise ValidationError(f"frame {start} out of range 0..{total - 1}")
        # of the indices past the last frame only the first is kept: it is refused below
        indices = list(range(start, min(stop, total + step), step))
    else:
        try:
            indices = [int(part) for part in spec.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad frame list {spec!r}") from exc
    if not indices:
        raise ValidationError("no frames selected")
    for idx in indices:
        if idx < 0 or idx >= total:
            raise ValidationError(f"frame {idx} out of range 0..{total - 1}")
    return indices


def render_svg(poses, topo: SkeletonTopology) -> str:
    """Stick figures of poses, each (J, 3), side by side, one color per
    chain, front (x, z) view."""
    index = topo.joint_index()
    spans = [pose[:, 0].max() - pose[:, 0].min() for pose in poses]
    slot = max(max(spans), 1e-6) * 1.25
    placed = []
    for n, pose in enumerate(poses):
        shifted = pose.copy()
        shifted[:, 0] += n * slot - pose[:, 0].min()
        placed.append(shifted)
    pts = np.concatenate(placed, axis=0)
    xs, zs = pts[:, 0], pts[:, 2]
    minx, maxx = xs.min(), xs.max()
    minz, maxz = zs.min(), zs.max()
    pad = 0.05 * max(maxx - minx, maxz - minz, 1e-6)
    width = (maxx - minx) + 2 * pad
    height = (maxz - minz) + 2 * pad
    stroke = 0.012 * height
    scale = 240.0 / height

    def fx(v: float) -> str:
        return f"{v:.4f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fx(width * scale)}" '
        f'height="{fx(height * scale)}" '
        f'viewBox="{fx(minx - pad)} {fx(-maxz - pad)} {fx(width)} {fx(height)}">',
        f'<rect x="{fx(minx - pad)}" y="{fx(-maxz - pad)}" width="{fx(width)}" '
        f'height="{fx(height)}" fill="#ffffff"/>',
    ]
    for pose in placed:
        for ci in range(len(topo.chains)):
            color = CHAIN_COLORS[ci % len(CHAIN_COLORS)]
            for parent, child in topo.chain_bones(ci):
                a, b = pose[index[parent]], pose[index[child]]
                lines.append(
                    f'<line x1="{fx(a[0])}" y1="{fx(-a[2])}" x2="{fx(b[0])}" '
                    f'y2="{fx(-b[2])}" stroke="{color}" stroke-width="{fx(stroke)}" '
                    f'stroke-linecap="round"/>'
                )
        for joint in topo.joints:
            p = pose[index[joint]]
            lines.append(
                f'<circle cx="{fx(p[0])}" cy="{fx(-p[2])}" r="{fx(stroke * 0.8)}" '
                f'fill="#555555"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    topo = load_topology(args.topology)
    seq = load_motion(args.data, topo).check_finite(args.data)
    indices = _parse_frames(args.frames, seq.frames.shape[0])
    poses = seq.frames[indices]
    if seq.kind == "lie":
        poses = lie_to_pose(poses, topo, RootConfig.canonical(topo))
    svg = render_svg(poses, topo)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"plotted frames {indices} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sthrn",
        description="Hierarchical recurrent motion prediction on Lie-algebra poses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw joint positions to Lie vectors")
    p.add_argument("--in", required=True, help="raw positions file (fps=... header)")
    p.add_argument("--topology", required=True)
    p.add_argument("--fps", type=float, default=None, help="target frame rate")
    p.add_argument("--out", required=True, help="Lie-vector output file")
    p.add_argument("--lengths-out", default=None,
                   help="normalized lengths sidecar (default: <out>.lengths)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on Lie-vector motion")
    p.add_argument("--data", required=True, nargs="+", help="Lie-vector file(s)")
    p.add_argument("--config", default=None, help="key = value settings file")
    p.add_argument("--topology", default=None)
    p.add_argument("--lengths", default=None, help="lengths sidecar from preprocess")
    p.add_argument("--out-checkpoint", default=None)
    p.add_argument("--metrics", default=None, help="loss curve CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="roll a trained model forward")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="observed Lie-vector frames")
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="horizon-grid error report")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fps", type=float, default=None,
                   help="grid frame rate (default: from the prediction file)")
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="stick-figure SVG of selected frames")
    p.add_argument("--data", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--frames", required=True, help='e.g. "0,5,10" or "0:50:10"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # covers parse/validation/dimension errors from every module, and
        # a model too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
