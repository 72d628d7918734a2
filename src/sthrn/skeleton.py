"""Skeleton topology, pose <-> Lie-vector conversion, and motion data.

A skeleton is a tree of joints organized as kinematic chains.  The
first chain starts at the root joint; every later chain starts at a
joint that already appeared in an earlier chain (its attachment).
Bones connect consecutive joints of a chain and are identified by
their child joint.  A pose is either raw joint positions ``(J, 3)`` or
the relative Lie vector ``(K, 3)`` holding, per chain, the scaled-axis
rotation carrying each bone direction onto the next one along the
chain.  With ``bones_c`` bones in chain ``c`` that is
``K_c = bones_c - 1`` entries, concatenated chain-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .geometry import DegenerateBone, DimensionMismatch, axis_angle_between, exp_map, inner

_MIN_BONE = 1e-9


class ParseError(ValueError):
    """A data file is syntactically malformed."""


class ValidationError(ValueError):
    """Parsed data violates a structural constraint."""


class EmptyInput(ValueError):
    """A motion file contains no frames."""


class UnsupportedRate(ValueError):
    """Requested frame rate is not reachable by integer decimation."""


class SequenceTooShort(ValueError):
    """Sequence has fewer frames than one observed + predicted window."""


@dataclass(frozen=True)
class SkeletonTopology:
    """Joint names, kinematic chains, and per-bone lengths.

    ``joints`` fixes the column order of raw-position files.  ``chains``
    are joint-name tuples, head first.  ``lengths`` is keyed by bone id,
    which is the bone's child joint name.
    """

    joints: tuple[str, ...]
    chains: tuple[tuple[str, ...], ...]
    lengths: dict[str, float]

    def joint_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.joints)}

    def chain_bones(self, chain: int) -> list[tuple[str, str]]:
        """(parent joint, child joint) pairs of one chain, in order."""
        names = self.chains[chain]
        return list(zip(names[:-1], names[1:]))

    def bones(self) -> list[tuple[str, str]]:
        """All bones in chain-major order."""
        out: list[tuple[str, str]] = []
        for c in range(len(self.chains)):
            out.extend(self.chain_bones(c))
        return out

    def entry_counts(self) -> tuple[int, ...]:
        """Lie entries per chain: one fewer than the chain's bone count."""
        return tuple(len(chain) - 2 for chain in self.chains)

    def num_entries(self) -> int:
        return sum(self.entry_counts())

    def entry_lengths(self) -> np.ndarray:
        """Per Lie entry, the length of the bone the entry rotates onto.

        Entry z of a chain sits between bone z and bone z + 1; the
        child bone's length is the one attributed to the entry.
        """
        out = []
        for c in range(len(self.chains)):
            bones = self.chain_bones(c)
            out.extend(self.lengths[child] for _, child in bones[1:])
        return np.array(out, dtype=np.float64)

    def validate(self) -> None:
        if not self.chains:
            raise ValidationError("topology needs at least one chain")
        if len(set(self.joints)) != len(self.joints):
            raise ValidationError("duplicate joint name in [joints]")
        seen: set[str] = set()
        for ci, chain in enumerate(self.chains):
            if len(chain) < 2:
                raise ValidationError(f"chain {ci} needs at least two joints")
            if len(set(chain)) != len(chain):
                raise ValidationError(f"chain {ci} repeats a joint")
            head, rest = chain[0], chain[1:]
            if ci == 0:
                seen.add(head)
            elif head not in seen:
                raise ValidationError(
                    f"chain {ci} is disconnected: head {head!r} not in any earlier chain"
                )
            for name in rest:
                if name in seen:
                    raise ValidationError(f"joint {name!r} appears in two chains")
                seen.add(name)
        if seen != set(self.joints):
            missing = sorted(seen.symmetric_difference(self.joints))
            raise ValidationError(f"[joints] and [chains] disagree on {missing}")
        for _, child in self.bones():
            length = self.lengths.get(child)
            if length is None:
                raise ValidationError(f"missing length for bone {child!r}")
            if error := _length_error(child, length):
                raise ValidationError(error)


def _length_error(bone: str, length: float) -> str | None:
    """Why ``length`` is no bone length, or None if it is one."""
    if not 0.0 < length < math.inf:
        return f"bone {bone!r} has length {length}; it must be positive and finite"
    return None


@dataclass(frozen=True)
class RootConfig:
    """Root joint position plus each chain's first-bone unit direction.

    This is the information a Lie vector cannot carry; holding it fixed
    while decoding keeps predicted poses anchored to the last observed
    frame.
    """

    position: np.ndarray
    directions: tuple[np.ndarray, ...]

    @classmethod
    def canonical(cls, topo: SkeletonTopology) -> "RootConfig":
        """Fixed fallback anchoring for data without raw positions."""
        base = [
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([-1.0, 0.0, 0.0]),
            np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0),
            np.array([-1.0, 0.0, -1.0]) / math.sqrt(2.0),
        ]
        dirs = tuple(base[c % len(base)] for c in range(len(topo.chains)))
        return cls(np.zeros(3), dirs)


@dataclass
class MotionSequence:
    """Frames at a fixed rate, either joint positions or Lie vectors."""

    fps: float
    frames: np.ndarray  # (F, J, 3) for kind "joints", (F, K, 3) for "lie"
    kind: str = "lie"

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.kind not in ("joints", "lie"):
            raise ValidationError(f"unknown sequence kind {self.kind!r}")
        if self.frames.ndim != 3 or self.frames.shape[-1] != 3:
            raise DimensionMismatch(
                f"frames must have shape (F, n, 3), got {self.frames.shape}"
            )
        if not 0.0 < self.fps < math.inf:
            raise ValidationError(f"fps must be positive and finite, got {self.fps}")

    def check_finite(self, where) -> MotionSequence:
        """This sequence, or a ValidationError naming ``where`` and its
        first frame that is not finite."""
        bad = np.flatnonzero(~np.isfinite(self.frames).all(axis=(1, 2)))
        if bad.size:
            raise ValidationError(f"{where}: frame {bad[0]} is not finite")
        return self

    def check_length(self, where, need: int) -> MotionSequence:
        """This sequence, or a SequenceTooShort naming ``where`` if it
        holds fewer than the ``need`` frames of one window."""
        if self.frames.shape[0] < need:
            raise SequenceTooShort(f"{where}: {self.frames.shape[0]} frames, need at least {need}")
        return self


# ---------------------------------------------------------------------------
# line-based text: topologies, config files and lengths sidecars
#
# '#' starts a comment, blank lines are ignored.  A topology has three
# sections; a lengths sidecar is the [lengths] lines alone:
#
#   [joints]   one joint name per line, fixing raw-file column order
#   [chains]   whitespace-separated joint names, head first
#   [lengths]  "<child joint> <length>" per bone
# ---------------------------------------------------------------------------

_SECTIONS = ("joints", "chains", "lengths")


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each line not blank once '#' comments go."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, start=1)]
    return [(n, text) for n, text in lines if text]


def with_lengths(path, lines, topo: SkeletonTopology) -> SkeletonTopology:
    """``topo``, validated, with the lengths that "<bone> <length>"
    ``lines``, numbered as ``read_lines`` gives them, set.  Each line
    names a bone of ``topo``, no bone twice, and a positive finite
    length.  Topology files and lengths sidecars both go through here,
    and every error names ``path``."""
    bones = {child for _, child in topo.bones()}
    lengths: dict[str, float] = {}
    for lineno, text in lines:
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected '<bone> <length>'")
        name = parts[0]
        if name not in bones:
            raise ParseError(f"{path}:{lineno}: {name!r} names no bone")
        if name in lengths:
            raise ParseError(f"{path}:{lineno}: second length for bone {name!r}")
        try:
            lengths[name] = length = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad length {parts[1]!r}") from exc
        if error := _length_error(name, length):
            raise ParseError(f"{path}:{lineno}: {error}")
    topo = replace(topo, lengths={**topo.lengths, **lengths})
    try:
        topo.validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return topo


def length_lines(topo: SkeletonTopology) -> list[str]:
    """One "<bone> <length>" line per bone, exact through repr."""
    return [f"{child} {float(topo.lengths[child])!r}" for _, child in topo.bones()]


def load_topology(path) -> SkeletonTopology:
    """Parse and validate a topology file."""
    joints: list[str] = []
    chains: list[tuple[str, ...]] = []
    length_rows: list[tuple[int, str]] = []
    section = None
    for lineno, line in read_lines(path):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"{path}:{lineno}: unknown section [{section}]")
        elif section is None:
            raise ParseError(f"{path}:{lineno}: content before any section header")
        elif section == "joints":
            if len(line.split()) != 1:
                raise ParseError(f"{path}:{lineno}: one joint name per line")
            joints.append(line)
        elif section == "chains":
            chains.append(tuple(line.split()))
        else:
            length_rows.append((lineno, line))
    return with_lengths(path, length_rows, SkeletonTopology(tuple(joints), tuple(chains), {}))


def builtin_topology(name: str) -> SkeletonTopology:
    """Load one of the shipped topologies: human, mouse, chain3, fork7,
    from this package's own ``data`` directory, whatever name the
    package was imported under."""
    ref = resources.files(__package__) / "data" / f"{name}.topo"
    if not ref.is_file():
        raise ValidationError(f"no builtin topology named {name!r}")
    with resources.as_file(ref) as path:
        return load_topology(path)


# ---------------------------------------------------------------------------
# pose <-> Lie vector
# ---------------------------------------------------------------------------


def _check_joints(joints, topo: SkeletonTopology) -> np.ndarray:
    joints = np.asarray(joints, dtype=np.float64)
    if joints.shape[-2:] != (len(topo.joints), 3):
        raise DimensionMismatch(
            f"expected (..., {len(topo.joints)}, 3) joint array, got {joints.shape}"
        )
    return joints


def _bone_directions(joints, topo: SkeletonTopology) -> np.ndarray:
    """Unit directions (..., B, 3) of the bones of poses (..., J, 3), in
    ``topo.bones()`` order.

    Raises:
        DegenerateBone: naming the first frame with a bone of near-zero
            length, and its first such bone.
    """
    joints = _check_joints(joints, topo)
    index = topo.joint_index()
    parents, children = np.array([(index[p], index[c]) for p, c in topo.bones()]).T
    v = joints[..., children, :] - joints[..., parents, :]
    n = np.sqrt(inner(v, v))
    bad = np.argwhere(n < _MIN_BONE)
    if bad.size:
        *frame, bone = bad[0]
        where = f"frame {', '.join(map(str, frame))}: " if frame else ""
        raise DegenerateBone(f"{where}bone {topo.bones()[bone][1]!r} has near-zero length")
    return v / n[..., None]


def pose_to_lie(joints, topo: SkeletonTopology) -> np.ndarray:
    """Relative Lie vectors (..., K, 3) of raw poses (..., J, 3).

    Per chain, each entry is the scaled axis of the rotation carrying
    bone direction b onto bone direction b + 1, as
    ``axis_angle_between`` gives it, antipodal pairs included.

    Raises:
        DegenerateBone: if any bone of any pose has near-zero length.
    """
    dirs = _bone_directions(joints, topo)
    # each entry's second bone, any but a chain's first; its first is the bone before
    firsts = {chain[1] for chain in topo.chains}
    onto = np.array([i for i, (_, child) in enumerate(topo.bones()) if child not in firsts], int)
    aa = axis_angle_between(dirs[..., onto - 1, :], dirs[..., onto, :])
    return aa.axis * aa.angle[..., None]


def lie_to_pose(w, topo: SkeletonTopology, root: RootConfig) -> np.ndarray:
    """Joint positions (..., J, 3) from Lie vectors (..., K, 3) and a root
    anchoring.

    One ``exp_map`` call turns every entry into a rotation.  Then each
    chain is walked once, for all frames together, from its attachment
    joint: the first bone follows the chain's anchored direction, and
    every entry rotates the running direction onto the next bone.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-2:] != (topo.num_entries(), 3):
        raise DimensionMismatch(
            f"expected (..., {topo.num_entries()}, 3) Lie vector, got {w.shape}"
        )
    if len(root.directions) != len(topo.chains):
        raise DimensionMismatch("root config has wrong number of chain directions")
    rot = exp_map(w)
    index = topo.joint_index()
    positions = np.zeros(w.shape[:-2] + (len(topo.joints), 3))
    known = {topo.chains[0][0]}
    positions[..., index[topo.chains[0][0]], :] = np.asarray(root.position, dtype=np.float64)
    z = 0
    for c, chain in enumerate(topo.chains):
        if chain[0] not in known:
            raise ValidationError(f"chain {c} attaches to an unplaced joint")
        p = positions[..., index[chain[0]], :]
        d = np.asarray(root.directions[c], dtype=np.float64)
        for b, (parent, child) in enumerate(topo.chain_bones(c)):
            if b > 0:
                d = (rot[..., z, :, :] @ d[..., None])[..., 0]
                z += 1
            p = p + topo.lengths[child] * d
            positions[..., index[child], :] = p
            known.add(child)
    return positions


# ---------------------------------------------------------------------------
# motion file IO
#
# Both dialects are comma-separated float rows under a one-line header:
#   raw positions:  "fps=<rate>"            rows of 3*J floats
#   Lie vectors:    "fps=<rate>,k=<K>"      rows of 3*K floats
# Floats are written with repr so load(save(x)) is bit-exact.
# ---------------------------------------------------------------------------


def _header_value(path, fields: dict[str, str], key: str, conv):
    try:
        return conv(fields[key])
    except ValueError as exc:
        raise ParseError(f"{path}:1: bad {key} value {fields[key]!r}") from exc


def load_motion(path, topo: SkeletonTopology | None = None) -> MotionSequence:
    """Read a motion file, inferring the dialect from its header.

    If ``topo`` is given, the column count is checked against it
    (raising DimensionMismatch), and raw files are additionally checked
    against the joint count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(
            part.split("=", 1) for part in header.split(",") if "=" in part
        )
        if "fps" not in fields:
            raise ParseError(f"{path}:1: header must declare fps=<rate>")
        fps = _header_value(path, fields, "fps", float)
        declared = _header_value(path, fields, "k", int) if "k" in fields else None
        if not 0.0 < fps < math.inf:
            raise ParseError(f"{path}:1: fps must be positive and finite, got {fps}")
        kind = "joints" if declared is None else "lie"
        rows = []
        width = None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width % 3 != 0:
                    raise ParseError(f"{path}:{lineno}: column count not a multiple of 3")
            elif len(parts) != width:
                raise ParseError(f"{path}:{lineno}: ragged row, expected {width} columns")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float") from exc
    if not rows:
        raise EmptyInput(f"{path}: no frames")
    frames = np.asarray(rows, dtype=np.float64).reshape(len(rows), -1, 3)
    if kind == "lie":
        if frames.shape[1] != declared:
            raise ParseError(f"{path}: header declares k={declared}, rows have {frames.shape[1]}")
    if topo is not None:
        expected = topo.num_entries() if kind == "lie" else len(topo.joints)
        if frames.shape[1] != expected:
            raise DimensionMismatch(
                f"{path}: {frames.shape[1]} columns of 3, topology expects {expected}"
            )
    return MotionSequence(fps=fps, frames=frames, kind=kind)


def save_motion(path, seq: MotionSequence) -> None:
    # repr of a python float is shortest-roundtrip, so load(save(x)) is
    # bit-exact
    if seq.kind == "lie":
        header = f"fps={float(seq.fps)!r},k={seq.frames.shape[1]}"
    else:
        header = f"fps={float(seq.fps)!r}"
    rows = seq.frames.reshape(seq.frames.shape[0], -1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def resample_fps(seq: MotionSequence, target_fps: float) -> MotionSequence:
    """Decimate to roughly ``target_fps`` by an integer stride.

    The stride is round(fps / target_fps) and the stored rate is the
    true resulting rate fps / stride.
    """
    if not target_fps > 0.0:
        raise UnsupportedRate(f"target frame rate must be positive, got {target_fps}")
    if target_fps > seq.fps:
        raise UnsupportedRate(f"cannot resample {seq.fps} fps up to {target_fps}")
    stride = int(round(seq.fps / target_fps))
    return MotionSequence(
        fps=seq.fps / stride,
        frames=seq.frames[::stride].copy(),
        kind=seq.kind,
    )


def normalize_lengths(
    seqs: list[MotionSequence], topo: SkeletonTopology
) -> SkeletonTopology:
    """Topology with lengths set to each bone's mean observed length."""
    index = topo.joint_index()
    sums = {child: 0.0 for _, child in topo.bones()}
    count = 0
    for seq in seqs:
        if seq.kind != "joints":
            raise ValidationError("length normalization needs raw joint positions")
        _ = _check_joints(seq.frames[0], topo)
        for parent, child in topo.bones():
            d = seq.frames[:, index[child]] - seq.frames[:, index[parent]]
            sums[child] += float(np.linalg.norm(d, axis=1).sum())
        count += seq.frames.shape[0]
    if count == 0:
        raise EmptyInput("no frames to normalize over")
    lengths = {name: total / count for name, total in sums.items()}
    for name, value in lengths.items():
        if not value >= _MIN_BONE:  # NaN too
            raise ValidationError(f"bone {name!r} has mean length {value}, not at least "
                                  f"{_MIN_BONE}")
    return replace(topo, lengths=lengths)


def sample_windows(sequences: list[MotionSequence], length: int, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """``count`` windows of ``length`` consecutive frames, drawn uniformly
    with replacement, as one (count, length, n, 3) array.

    Each window draws its sequence's index, then its start in that
    sequence.  Every sequence is checked first: one shorter than a
    window raises SequenceTooShort naming its index before any draw.
    """
    for i, seq in enumerate(sequences):
        seq.check_length(f"sequence {i}", length)
    batch = np.empty((count, length) + sequences[0].frames.shape[1:])
    for window in batch:
        frames = sequences[rng.integers(len(sequences))].frames
        start = rng.integers(0, frames.shape[0] - length + 1)
        window[...] = frames[start:start + length]
    return batch


# ---------------------------------------------------------------------------
# synthetic motion
# ---------------------------------------------------------------------------


def synth_motion(
    kind: str,
    frames: int,
    topo: SkeletonTopology,
    seed: int,
    fps: float = 25.0,
    delta: float = 0.01,
) -> MotionSequence:
    """Deterministic synthetic Lie-vector motion for tests and demos.

    kinds:
      constant:     one random pose repeated every frame
      linear-sweep: entry z at frame i is (i * delta) * axis_z
      sinusoid:     entry z is a_z * sin(2 pi i / p_z + phi_z) * axis_z
                    with amplitudes below pi and per-entry phases
    """
    k = topo.num_entries()
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(k, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    i = np.arange(frames, dtype=np.float64)[:, None]
    if kind == "constant":
        norms = rng.uniform(0.2, 2.5, size=k)
        data = np.broadcast_to(norms[:, None] * axes, (frames, k, 3)).copy()
    elif kind == "linear-sweep":
        data = (i * delta)[..., None] * axes[None, :, :]
    elif kind == "sinusoid":
        amp = rng.uniform(0.2, 1.0, size=k)
        period = rng.uniform(20.0, 40.0, size=k)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=k)
        signal = amp * np.sin(2.0 * math.pi * i / period + phase)  # (frames, k)
        data = signal[..., None] * axes[None, :, :]
    else:
        raise ValidationError(f"unknown synthetic motion kind {kind!r}")
    return MotionSequence(fps=fps, frames=data, kind="lie")
