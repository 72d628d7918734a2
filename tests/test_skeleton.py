"""Topology, pose conversion, motion IO, and sampling checks."""

import math
import re

import numpy as np
import pytest

from sthrn.geometry import DegenerateBone, DimensionMismatch
from sthrn.skeleton import (
    EmptyInput,
    MotionSequence,
    ParseError,
    RootConfig,
    SequenceTooShort,
    SkeletonTopology,
    UnsupportedRate,
    ValidationError,
    builtin_topology,
    lie_to_pose,
    load_motion,
    load_topology,
    normalize_lengths,
    pose_to_lie,
    resample_fps,
    sample_windows,
    save_motion,
    save_topology,
    synth_motion,
)


def two_bone_chain():
    return SkeletonTopology(
        joints=("a", "b", "c"),
        chains=(("a", "b", "c"),),
        lengths={"b": 1.0, "c": 1.0},
    )


# -- topology structure ---------------------------------------------------------


def test_builtin_human_shape():
    topo = builtin_topology("human")
    assert len(topo.joints) == 18
    assert len(topo.bones()) == 17
    assert topo.entry_counts() == (4, 2, 2, 2, 2)
    assert topo.num_entries() == 12
    topo.validate()


def test_builtin_small_rigs():
    chain3 = builtin_topology("chain3")
    assert chain3.entry_counts() == (1,)
    assert np.array_equal(chain3.entry_lengths(), [1.0])
    fork7 = builtin_topology("fork7")
    assert fork7.entry_counts() == (2, 2)
    assert fork7.num_entries() == 4


def test_builtin_unknown_name():
    with pytest.raises(ValidationError):
        builtin_topology("nonesuch")


def test_minimal_single_bone_topology():
    topo = SkeletonTopology(("a", "b"), (("a", "b"),), {"b": 0.5})
    topo.validate()
    assert topo.entry_counts() == (0,)
    assert topo.num_entries() == 0


def test_entry_lengths_skip_first_bone():
    # entry z sits between bones z and z+1 and carries the child length
    topo = SkeletonTopology(
        joints=("a", "b", "c", "d"),
        chains=(("a", "b", "c", "d"),),
        lengths={"b": 10.0, "c": 2.0, "d": 3.0},
    )
    topo.validate()
    assert np.array_equal(topo.entry_lengths(), [2.0, 3.0])


def test_validate_rejects_duplicate_joint():
    topo = SkeletonTopology(("a", "b", "a"), (("a", "b"),), {"b": 1.0})
    with pytest.raises(ValidationError):
        topo.validate()


def test_validate_rejects_short_chain():
    topo = SkeletonTopology(("a",), (("a",),), {})
    with pytest.raises(ValidationError):
        topo.validate()


def test_validate_rejects_disconnected_chain():
    topo = SkeletonTopology(
        ("a", "b", "c", "d"),
        (("a", "b"), ("c", "d")),
        {"b": 1.0, "d": 1.0},
    )
    with pytest.raises(ValidationError):
        topo.validate()


def test_validate_rejects_joint_in_two_chains():
    topo = SkeletonTopology(
        ("a", "b", "c"),
        (("a", "b", "c"), ("a", "c")),
        {"b": 1.0, "c": 1.0},
    )
    with pytest.raises(ValidationError):
        topo.validate()


def test_validate_rejects_missing_and_bad_lengths():
    topo = SkeletonTopology(("a", "b"), (("a", "b"),), {})
    with pytest.raises(ValidationError):
        topo.validate()
    topo = SkeletonTopology(("a", "b"), (("a", "b"),), {"b": -1.0})
    with pytest.raises(ValidationError):
        topo.validate()


@pytest.mark.parametrize("chains, lengths, message", [
    ((), {}, "topology needs at least one chain"),
    ((("a", "b", "a"),), {"b": 1.0}, "chain 0 repeats a joint"),
    ((("a", "b"),), {"b": math.inf}, "bone 'b' has length inf; it must be positive and finite"),
    ((("a", "b"),), {"b": math.nan}, "bone 'b' has length nan; it must be positive and finite"),
], ids=["no-chains", "repeated-joint", "inf-length", "nan-length"])
def test_validate_names_what_is_wrong(chains, lengths, message):
    topo = SkeletonTopology(("a", "b"), chains, lengths)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        topo.validate()


def test_validate_rejects_joint_list_mismatch():
    topo = SkeletonTopology(("a", "b", "zz"), (("a", "b"),), {"b": 1.0})
    with pytest.raises(ValidationError):
        topo.validate()


# -- topology file IO -------------------------------------------------------------


def test_topology_save_load_roundtrip(tmp_path):
    topo = builtin_topology("human")
    path = tmp_path / "rig.topo"
    save_topology(path, topo)
    back = load_topology(path)
    assert back.joints == topo.joints
    assert back.chains == topo.chains
    assert back.lengths == topo.lengths


def test_topology_parse_comments_and_blanks(tmp_path):
    path = tmp_path / "rig.topo"
    path.write_text(
        "# a rig\n[joints]\na\nb  # child\n\n[chains]\na b\n[lengths]\nb 2.5\n"
    )
    topo = load_topology(path)
    assert topo.joints == ("a", "b")
    assert topo.lengths == {"b": 2.5}


@pytest.mark.parametrize(
    "text",
    [
        "[nope]\n",                              # unknown section
        "a\n[joints]\n",                         # content before any section
        "[joints]\na b\n",                       # two names on a joint line
        "[joints]\na\nb\n[chains]\na b\n[lengths]\nb pi\n",  # bad float
        "[joints]\na\nb\n[chains]\na b\n[lengths]\nb\n",     # missing value
    ],
)
def test_topology_parse_errors(tmp_path, text):
    path = tmp_path / "bad.topo"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_topology(path)


@pytest.mark.parametrize("extra, message", [
    ("a0 5.0", "'a0' names no bone"),   # the root joint ends no bone
    ("zz 5.0", "'zz' names no bone"),
    ("a2 5.0", "second length for bone 'a2'"),
], ids=["root", "unknown", "twice"])
def test_topology_lengths_name_each_bone_once(tmp_path, extra, message):
    path = tmp_path / "fork7.topo"
    save_topology(path, builtin_topology("fork7"))
    text = path.read_text()
    path.write_text(text + extra + "\n")
    where = f"{path}:{len(text.splitlines()) + 1}: "
    with pytest.raises(ParseError, match=f"^{re.escape(where + message)}$"):
        load_topology(path)


# -- pose <-> lie -----------------------------------------------------------------


def test_pose_to_lie_quarter_turn_frozen():
    # bones z then x: cross(z, x) = y, so the entry is a quarter turn about +y
    joints = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    w = pose_to_lie(joints, two_bone_chain())
    assert w.shape == (1, 3)
    assert np.allclose(w[0], [0.0, np.pi / 2.0, 0.0], atol=1e-12)


def test_pose_to_lie_straight_chain_is_zero():
    joints = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    w = pose_to_lie(joints, two_bone_chain())
    assert np.array_equal(w, np.zeros((1, 3)))
    # and back: a zero entry turns the bone direction by the identity
    root = RootConfig.from_pose(joints, two_bone_chain())
    assert np.array_equal(lie_to_pose(w, two_bone_chain(), root), joints)


def test_pose_to_lie_antipodal_resolves_to_half_turn():
    # the second bone folds exactly back onto the first
    joints = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    w = pose_to_lie(joints, two_bone_chain())
    # antipodal_axis(z) = y, so the entry is pi * y
    assert np.allclose(w[0], [0.0, np.pi, 0.0], atol=1e-12)


def test_pose_to_lie_rejects_degenerate_bone():
    joints = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateBone):
        pose_to_lie(joints, two_bone_chain())
    with pytest.raises(DegenerateBone, match="bone 'b' has near-zero length"):
        RootConfig.from_pose(joints, two_bone_chain())


def test_pose_to_lie_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        pose_to_lie(np.zeros((2, 3)), two_bone_chain())


def test_root_config_from_pose_unit_directions():
    topo = builtin_topology("fork7")
    rng = np.random.default_rng(0)
    w = rng.uniform(-1.0, 1.0, size=(topo.num_entries(), 3))
    joints = lie_to_pose(w, topo, RootConfig.canonical(topo))
    root = RootConfig.from_pose(joints, topo)
    for d in root.directions:
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_root_config_canonical_frozen():
    topo = builtin_topology("human")
    root = RootConfig.canonical(topo)
    assert np.array_equal(root.position, np.zeros(3))
    s = 1.0 / math.sqrt(2.0)
    expected = [
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [s, 0.0, -s],
        [-s, 0.0, -s],
    ]
    for d, e in zip(root.directions, expected):
        assert np.allclose(d, e, atol=1e-15)


def test_fk_roundtrip_positions():
    # positions -> lie (+ root) -> positions must reproduce the pose
    topo = builtin_topology("human")
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.normal(size=(topo.num_entries(), 3))
        w *= (rng.uniform(0.1, 0.9 * np.pi, size=(topo.num_entries(), 1))
              / np.linalg.norm(w, axis=1, keepdims=True))
        joints = lie_to_pose(w, topo, RootConfig.canonical(topo))
        back = lie_to_pose(
            pose_to_lie(joints, topo), topo, RootConfig.from_pose(joints, topo)
        )
        assert np.max(np.abs(back - joints)) < 1e-8


def test_lie_pose_lie_is_idempotent():
    # pose_to_lie keeps only the minimal bone-to-bone rotation, so a
    # second conversion pass must be a fixed point and give the same pose
    topo = builtin_topology("fork7")
    rng = np.random.default_rng(2)
    w = rng.normal(size=(topo.num_entries(), 3))
    root = RootConfig.canonical(topo)
    p1 = lie_to_pose(w, topo, root)
    w1 = pose_to_lie(p1, topo)
    p2 = lie_to_pose(w1, topo, RootConfig.from_pose(p1, topo))
    assert np.max(np.abs(p2 - p1)) < 1e-10
    assert np.max(np.abs(pose_to_lie(p2, topo) - w1)) < 1e-10
    assert np.all(np.linalg.norm(w1, axis=1) <= np.pi)


def test_lie_to_pose_respects_bone_lengths():
    topo = builtin_topology("human")
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.0, 1.0, size=(topo.num_entries(), 3))
    joints = lie_to_pose(w, topo, RootConfig.canonical(topo))
    index = topo.joint_index()
    for parent, child in topo.bones():
        d = np.linalg.norm(joints[index[child]] - joints[index[parent]])
        assert abs(d - topo.lengths[child]) < 1e-10


def test_lie_to_pose_rejects_bad_shapes():
    topo = builtin_topology("chain3")
    root = RootConfig.canonical(topo)
    with pytest.raises(DimensionMismatch):
        lie_to_pose(np.zeros((2, 3)), topo, root)
    with pytest.raises(DimensionMismatch):
        lie_to_pose(np.zeros((1, 3)), topo, RootConfig(np.zeros(3), ()))


# -- motion file IO ----------------------------------------------------------------


def test_motion_roundtrip_lie_bit_exact(tmp_path):
    topo = builtin_topology("fork7")
    seq = synth_motion("sinusoid", 17, topo, seed=4)
    path = tmp_path / "m.csv"
    save_motion(path, seq)
    back = load_motion(path, topo)
    assert back.kind == "lie"
    assert back.fps == seq.fps
    assert np.array_equal(back.frames, seq.frames)


def test_motion_roundtrip_joints_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    seq = MotionSequence(fps=50.0, frames=rng.normal(size=(6, 18, 3)), kind="joints")
    path = tmp_path / "m.csv"
    save_motion(path, seq)
    back = load_motion(path, builtin_topology("human"))
    assert back.kind == "joints"
    assert back.fps == 50.0
    assert np.array_equal(back.frames, seq.frames)


def test_load_motion_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("fps=25.0,k=1\n# note\n\n0.1,0.2,0.3\n")
    seq = load_motion(path)
    assert seq.frames.shape == (1, 1, 3)


@pytest.mark.parametrize(
    "text",
    [
        "rate=25\n1.0,2.0,3.0\n",          # no fps key
        "fps=abc\n1.0,2.0,3.0\n",          # bad fps value
        "fps=25,k=2\n1.0,2.0,3.0\n",       # k disagrees with row width
        "fps=25\n1.0,2.0\n",               # columns not a multiple of 3
        "fps=25\n1.0,2.0,3.0\n1.0,2.0\n",  # ragged rows
        "fps=25\n1.0,x,3.0\n",             # bad float
        "fps=inf\n1.0,2.0,3.0\n",          # infinite fps
    ],
)
def test_load_motion_parse_errors(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_motion(path)


@pytest.mark.parametrize("header, message", [
    ("fps=1e400", "fps must be positive and finite, got inf"),
    ("fps=0", "fps must be positive and finite, got 0.0"),
    ("fps=nan", "fps must be positive and finite, got nan"),
    ("fps=25,k=x", "bad k value 'x'"),
])
def test_load_motion_header_errors_name_the_line(tmp_path, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1.0,2.0,3.0\n")
    with pytest.raises(ParseError) as err:
        load_motion(path)
    assert str(err.value) == f"{path}:1: {message}"


def test_load_motion_empty_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("fps=25,k=4\n")
    with pytest.raises(EmptyInput):
        load_motion(path)


def test_load_motion_checks_topology_width(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("fps=25,k=1\n0.1,0.2,0.3\n")
    with pytest.raises(DimensionMismatch):
        load_motion(path, builtin_topology("fork7"))


def test_motion_sequence_validation():
    with pytest.raises(ValidationError):
        MotionSequence(fps=25.0, frames=np.zeros((2, 3, 3)), kind="weird")
    with pytest.raises(DimensionMismatch):
        MotionSequence(fps=25.0, frames=np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        MotionSequence(fps=0.0, frames=np.zeros((2, 3, 3)))
    with pytest.raises(ValidationError):
        MotionSequence(fps=float("inf"), frames=np.zeros((2, 3, 3)))


# -- preprocessing -----------------------------------------------------------------


def test_resample_stride_and_true_rate():
    frames = np.arange(100, dtype=np.float64).reshape(100, 1, 1)
    frames = np.repeat(frames, 3, axis=2)
    seq = MotionSequence(fps=100.0, frames=frames, kind="lie")
    out = resample_fps(seq, 25.0)
    assert out.fps == 25.0
    assert np.array_equal(out.frames, seq.frames[::4])
    # 60 -> 25 rounds to stride 2, true rate 30
    seq60 = MotionSequence(fps=60.0, frames=frames, kind="lie")
    out60 = resample_fps(seq60, 25.0)
    assert out60.fps == 30.0
    assert np.array_equal(out60.frames, seq.frames[::2])


def test_resample_rejects_upsampling():
    seq = MotionSequence(fps=25.0, frames=np.zeros((4, 1, 3)), kind="lie")
    with pytest.raises(UnsupportedRate):
        resample_fps(seq, 50.0)


def test_normalize_lengths_means():
    topo = two_bone_chain()
    f1 = np.array([
        [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 4.0, 2.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 8.0, 4.0]],
    ])
    seq = MotionSequence(fps=25.0, frames=f1, kind="joints")
    out = normalize_lengths([seq], topo)
    assert out.lengths == {"b": 3.0, "c": 6.0}
    # the input topology is untouched
    assert topo.lengths == {"b": 1.0, "c": 1.0}


def test_normalize_lengths_rejects_lie_kind():
    topo = two_bone_chain()
    seq = MotionSequence(fps=25.0, frames=np.zeros((2, 1, 3)), kind="lie")
    with pytest.raises(ValidationError):
        normalize_lengths([seq], topo)


@pytest.mark.parametrize("joint_c", [[0.0, 0.0, 2.0], [np.nan] * 3], ids=["zero", "nan"])
def test_normalize_lengths_refuses_a_bone_without_a_length(joint_c):
    # joint "c" on top of joint "b", or not a number: bone "c" of length 0 or NaN
    frames = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], joint_c]] * 2)
    seq = MotionSequence(fps=25.0, frames=frames, kind="joints")
    with pytest.raises(ValidationError, match="bone 'c' has mean length"):
        normalize_lengths([seq], two_bone_chain())


def test_normalize_lengths_empty():
    with pytest.raises(EmptyInput):
        normalize_lengths([], two_bone_chain())


# -- window sampling ----------------------------------------------------------------


def _counting_sequence(frames):
    data = np.arange(frames, dtype=np.float64)[:, None, None] * np.ones((1, 2, 3))
    return MotionSequence(fps=25.0, frames=data, kind="lie")


def test_sample_windows_shapes_and_contiguity():
    seq = _counting_sequence(30)
    rng = np.random.default_rng(6)
    for win in sample_windows(seq, observed=5, horizon=3, count=20, rng=rng):
        assert win.observed.shape == (5, 2, 3)
        assert win.target.shape == (3, 2, 3)
        assert win.observed[0, 0, 0] == win.start
        # target frames continue exactly where observed stops
        assert win.target[0, 0, 0] == win.observed[-1, 0, 0] + 1.0
        assert 0 <= win.start <= 30 - 8


def test_sample_windows_deterministic_by_seed():
    seq = _counting_sequence(40)
    a = sample_windows(seq, 4, 2, 10, np.random.default_rng(7))
    b = sample_windows(seq, 4, 2, 10, np.random.default_rng(7))
    assert [w.start for w in a] == [w.start for w in b]


def test_sample_windows_too_short():
    seq = _counting_sequence(6)
    with pytest.raises(SequenceTooShort):
        sample_windows(seq, 5, 2, 1, np.random.default_rng(8))


def test_sample_windows_uniform_start_coverage():
    # 17 frames, window 8 -> exactly 10 possible starts; chi-square
    # goodness of fit at p = 0.01, dof 9; the critical value 21.666 is
    # the chi2 inverse CDF evaluated once offline.
    seq = _counting_sequence(17)
    rng = np.random.default_rng(123)
    wins = sample_windows(seq, 5, 3, 2000, rng)
    counts = np.bincount([w.start for w in wins], minlength=10)
    expected = 2000 / 10.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 21.665994333461924


# -- synthetic motion ----------------------------------------------------------------


def test_synth_constant_repeats_one_pose():
    topo = builtin_topology("fork7")
    seq = synth_motion("constant", 9, topo, seed=9)
    assert seq.kind == "lie"
    assert seq.frames.shape == (9, 4, 3)
    assert np.array_equal(seq.frames, np.broadcast_to(seq.frames[0], (9, 4, 3)))
    norms = np.linalg.norm(seq.frames[0], axis=1)
    assert np.all((norms >= 0.2) & (norms <= 2.5))


def test_synth_linear_sweep_constant_velocity():
    topo = builtin_topology("chain3")
    seq = synth_motion("linear-sweep", 12, topo, seed=10, delta=0.05)
    assert np.array_equal(seq.frames[0], np.zeros((1, 3)))
    steps = np.diff(seq.frames, axis=0)
    assert np.allclose(steps, steps[0], atol=1e-15)
    assert abs(np.linalg.norm(steps[0]) - 0.05) < 1e-12


def test_synth_sinusoid_bounded_and_deterministic():
    topo = builtin_topology("fork7")
    a = synth_motion("sinusoid", 50, topo, seed=11)
    b = synth_motion("sinusoid", 50, topo, seed=11)
    assert np.array_equal(a.frames, b.frames)
    assert np.all(np.linalg.norm(a.frames, axis=2) < np.pi)
    assert a.fps == 25.0


def test_synth_unknown_kind():
    with pytest.raises(ValidationError):
        synth_motion("brownian", 5, builtin_topology("chain3"), seed=0)
