"""Per-vector rotation maps and per-frame pose conversions: the oracles
that the batched ``sthrn.geometry`` and ``sthrn.skeleton`` functions
must match bit for bit.

Each map here takes one 3-vector and each conversion one frame, and
every inner product and norm is ``np.dot`` or ``np.linalg.norm`` of one
vector, as the package computed them before it took whole sequences.
``axis_angle_between`` returns the half turn about ``antipodal_axis``
for an antipodal pair, the rule the per-frame ``pose_to_lie`` applied.
"""

from __future__ import annotations

import math

import numpy as np

from sthrn.geometry import _ANTIPODAL_MARGIN, _EPS, AxisAngle, DegenerateBone, wrap_so3
from sthrn.skeleton import _MIN_BONE

_X_HAT = np.array([1.0, 0.0, 0.0])
_Y_HAT = np.array([0.0, 1.0, 0.0])


def hat(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def rodrigues(axis, angle: float) -> np.ndarray:
    k = hat(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def antipodal_axis(e_from) -> np.ndarray:
    c = np.cross(e_from, _X_HAT)
    n = float(np.linalg.norm(c))
    if n < 1e-6:
        c = np.cross(e_from, _Y_HAT)
        n = float(np.linalg.norm(c))
    return c / n


def axis_angle_between(e_from, e_to) -> AxisAngle:
    d = float(np.dot(e_from, e_to))
    if d < -1.0 + _ANTIPODAL_MARGIN:
        return AxisAngle(antipodal_axis(e_from), math.pi)
    c = np.cross(e_from, e_to)
    s = float(np.linalg.norm(c))
    if s < _EPS:
        return AxisAngle(_X_HAT.copy(), 0.0)
    angle = float(np.arccos(np.clip(d, -1.0, 1.0)))
    return AxisAngle(c / s, angle)


def exp_map(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    theta = float(np.linalg.norm(w))
    if theta > np.pi:
        w = wrap_so3(w)
        theta = float(np.linalg.norm(w))
    if theta < _EPS:
        return np.eye(3)
    return rodrigues(w / theta, theta)


def _direction(joints, index, parent: str, child: str) -> np.ndarray:
    v = joints[index[child]] - joints[index[parent]]
    n = float(np.linalg.norm(v))
    if n < _MIN_BONE:
        raise DegenerateBone(f"bone {child!r} has near-zero length")
    return v / n


def pose_to_lie(joints, topo) -> np.ndarray:
    """Lie vector (K, 3) of one pose (J, 3)."""
    joints = np.asarray(joints, dtype=np.float64)
    index = topo.joint_index()
    out = np.zeros((topo.num_entries(), 3))
    z = 0
    for c in range(len(topo.chains)):
        dirs = [_direction(joints, index, *bone) for bone in topo.chain_bones(c)]
        for b in range(1, len(dirs)):
            aa = axis_angle_between(dirs[b - 1], dirs[b])
            out[z] = aa.axis * aa.angle
            z += 1
    return out


def lie_to_pose(w, topo, root) -> np.ndarray:
    """Joint positions (J, 3) of one Lie vector (K, 3)."""
    w = np.asarray(w, dtype=np.float64)
    index = topo.joint_index()
    positions = np.zeros((len(topo.joints), 3))
    positions[index[topo.chains[0][0]]] = np.asarray(root.position, dtype=np.float64)
    z = 0
    for c, chain in enumerate(topo.chains):
        p = positions[index[chain[0]]]
        d = np.asarray(root.directions[c], dtype=np.float64)
        for b, (_, child) in enumerate(topo.chain_bones(c)):
            if b > 0:
                d = exp_map(w[z]) @ d
                z += 1
            p = p + topo.lengths[child] * d
            positions[index[child]] = p
    return positions
