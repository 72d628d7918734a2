"""The batched pose conversions and rotation maps hold to their per-frame
and per-vector oracles (``tests/pose_oracles.py``) bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pose_oracles as oracle
from sthrn.geometry import antipodal_axis, axis_angle_between, exp_map, hat, rodrigues
from sthrn.skeleton import RootConfig, builtin_topology, lie_to_pose, pose_to_lie

TOPOLOGIES = {name: builtin_topology(name) for name in ("human", "fork7")}
X = np.array([1.0, 0.0, 0.0])

# how the second bone of an entry's pair lies against the first
PAIRS = ("random", "parallel", "antipodal", "near-antipodal", "x-antipodal")
# entry norms: zero, below exp_map's 1e-12 cut, at it, ordinary, about pi,
# just past pi where wrapping starts, and several turns
NORMS = (0.0, 1e-13, 1e-12, None, np.pi - 1e-9, np.pi, np.pi + 1e-12, 4.0, 9.0)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def entry_pairs(topo):
    """(first bone, second bone) indices into ``topo.bones()`` per entry."""
    bones = [child for _, child in topo.bones()]
    return [(bones.index(a), bones.index(b))
            for c in range(len(topo.chains))
            for (_, a), (_, b) in zip(topo.chain_bones(c), topo.chain_bones(c)[1:])]


def poses_with(topo, pairs, rng):
    """Poses (F, J, 3) whose bone pairs lie as ``pairs`` (F, K) says."""
    frames, bones = pairs.shape[0], len(topo.bones())
    dirs = unit(rng.normal(size=(frames, bones, 3)))
    bone_pairs = entry_pairs(topo)
    for (f, e), kind in np.ndenumerate(pairs):
        a, b = bone_pairs[e]
        if kind == "x-antipodal":
            dirs[f, a] = X * rng.choice([-1.0, 1.0])
        if kind == "parallel":
            dirs[f, b] = dirs[f, a]
        elif kind in ("antipodal", "x-antipodal"):
            dirs[f, b] = -dirs[f, a]
        elif kind == "near-antipodal":
            off = rng.choice([1e-9, 1e-4, 1.4e-4, 1e-3]) * unit(rng.normal(size=3))
            dirs[f, b] = unit(off - dirs[f, a])
    index = topo.joint_index()
    joints = np.zeros((frames, len(topo.joints), 3))
    joints[:, index[topo.chains[0][0]]] = rng.normal(size=(frames, 3))
    for i, (parent, child) in enumerate(topo.bones()):
        length = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        joints[:, index[child]] = joints[:, index[parent]] + length * dirs[:, i]
    return joints


def lie_with(norms, rng):
    """Lie vectors (F, K, 3) with random axes and the entry ``norms``."""
    norms = np.array([rng.uniform(0.1, 3.0) if n is None else n for n in norms.ravel()])
    return unit(rng.normal(size=(norms.size, 3))) * norms[:, None]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(TOPOLOGIES)), frames=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batched_conversions_equal_the_oracles(name, frames, seed, data):
    topo = TOPOLOGIES[name]
    k = topo.num_entries()
    rng = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.sampled_from(PAIRS), min_size=frames * k,
                               max_size=frames * k))
    joints = poses_with(topo, np.array(kinds, dtype=object).reshape(frames, k), rng)
    norms = data.draw(st.lists(st.sampled_from(NORMS), min_size=frames * k,
                               max_size=frames * k))
    w = lie_with(np.array(norms, dtype=object), rng).reshape(frames, k, 3)
    root = RootConfig(rng.normal(size=3), tuple(unit(rng.normal(size=(len(topo.chains), 3)))))

    lie = pose_to_lie(joints, topo)
    assert np.array_equal(lie, np.stack([oracle.pose_to_lie(j, topo) for j in joints]))
    assert np.array_equal(lie_to_pose(w, topo, root),
                          np.stack([oracle.lie_to_pose(v, topo, root) for v in w]))

    pairs = np.array(entry_pairs(topo))
    index = topo.joint_index()
    bone_vec = np.stack([joints[:, index[c]] - joints[:, index[p]] for p, c in topo.bones()], 1)
    e_from, e_to = (unit(bone_vec[:, pairs[:, i]]).reshape(-1, 3) for i in (0, 1))
    aa = axis_angle_between(e_from, e_to)
    want = [oracle.axis_angle_between(a, b) for a, b in zip(e_from, e_to)]
    assert np.array_equal(aa.axis, np.stack([o.axis for o in want]))
    assert np.array_equal(aa.angle, np.array([o.angle for o in want]))
    assert np.array_equal(antipodal_axis(e_from),
                          np.stack([oracle.antipodal_axis(e) for e in e_from]))

    flat = w.reshape(-1, 3)
    assert np.array_equal(exp_map(w).reshape(-1, 3, 3),
                          np.stack([oracle.exp_map(v) for v in flat]))
    assert np.array_equal(hat(w).reshape(-1, 3, 3), np.stack([oracle.hat(v) for v in flat]))
    angles = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=len(e_from))
    assert np.array_equal(rodrigues(e_from, angles),
                          np.stack([oracle.rodrigues(a, t) for a, t in zip(e_from, angles)]))
