"""Rotation geometry on SO(3) and its axis-angle / Lie-algebra coordinates.

All rotations are 3x3 orthonormal matrices with determinant +1.  The
vector form of a rotation is the scaled axis ``omega = theta * n`` with
``n`` a unit axis and ``theta`` in ``[0, pi]``; ``exp_map`` and
``log_map`` convert between the two (Murray, Li and Sastry, *A
Mathematical Introduction to Robotic Manipulation*, 1994, ch. 2).
``axis_angle_between`` produces the rotation carrying one unit
direction onto another, which is the primitive underlying the
relative-bone pose representation.

Every map but ``log_map`` takes a stack of vectors, a ``(..., 3)``
array, and one vector is the single-item case.  Inner products and
norms go through ``inner``, so a stack rounds each row exactly as a
call on that one vector would.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = 1e-12
_SMALL_ANGLE = 1e-7        # below this, log_map returns the zero vector
_NEAR_PI = 1e-5            # within this of pi, use the diagonal axis recovery
_ANTIPODAL_MARGIN = 1e-8   # dot below -1 + margin counts as antipodal
_UNIT_TOL = 1e-6
_X_HAT = np.array([1.0, 0.0, 0.0])
_Y_HAT = np.array([0.0, 1.0, 0.0])


class DegenerateBone(ValueError):
    """A bone has (near) zero length, so its direction is undefined."""


class DimensionMismatch(ValueError):
    """Array shape does not match what the operation requires."""


class AxisAngle(NamedTuple):
    """Unit rotation axes (..., 3) and angles (...) in [0, pi]."""

    axis: np.ndarray
    angle: float | np.ndarray


def _as_vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise DimensionMismatch(f"{name} must have shape (..., 3), got {v.shape}")
    return v


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    n = _norm(v)
    off = np.abs(n - 1.0) > _UNIT_TOL
    if off.any():
        raise ValueError(f"{name} must be unit length, norm is {n[off][0]!r}")
    return v


def _check_rotation(rot) -> np.ndarray:
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3):
        raise DimensionMismatch(f"rotation must have shape (3, 3), got {rot.shape}")
    err = np.linalg.norm(rot @ rot.T - np.eye(3))
    if err > _UNIT_TOL or np.linalg.det(rot) < 0.0:
        raise ValueError("matrix is not a rotation (orthonormal, det +1)")
    return rot


def inner(a, b) -> np.ndarray:
    """Row-wise inner product of (..., 3) arrays.

    Each row is a stacked (1, 3) @ (3, 1) product, which rounds exactly
    as ``np.dot`` of that one pair does; ``(a * b).sum(-1)`` and
    ``einsum`` do not, nor does ``np.linalg.norm(axis=-1)`` match
    ``np.linalg.norm`` of one vector as ``sqrt(inner(v, v))`` does.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(inner(v, v))


def hat(v) -> np.ndarray:
    """Skew-symmetric matrices (..., 3, 3) such that hat(v) @ u == cross(v, u)."""
    v = _as_vec3(v, "v")
    k = np.zeros(v.shape[:-1] + (3, 3))
    k[..., [2, 0, 1], [1, 2, 0]] = v   # k[2, 1] = x, k[0, 2] = y, k[1, 0] = z
    k[..., [1, 2, 0], [2, 0, 1]] = -v
    return k


def rodrigues(axis, angle) -> np.ndarray:
    """Rotation matrices (..., 3, 3) for unit axes (..., 3) and angles (...).

    R = I + sin(angle) * hat(axis) + (1 - cos(angle)) * hat(axis)^2.
    """
    k = hat(_check_unit(_as_vec3(axis, "axis"), "axis"))
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def axis_angle_between(e_from, e_to) -> AxisAngle:
    """Axis-angle rotations carrying unit vectors ``e_from`` onto ``e_to``.

    The axis is ``cross(e_from, e_to)`` normalized and the angle is
    ``arccos`` of the clamped inner product.  Identical directions give
    a zero angle with a conventional axis, x.  Opposite directions, with
    an inner product below -1 + 1e-8, give the half turn about
    ``antipodal_axis(e_from)``: any axis orthogonal to the source
    realizes it, and this one is deterministic.
    """
    e_from = _check_unit(_as_vec3(e_from, "e_from"), "e_from")
    e_to = _check_unit(_as_vec3(e_to, "e_to"), "e_to")
    d = inner(e_from, e_to)
    c = np.cross(e_from, e_to)
    s = _norm(c)
    antipodal = d < -1.0 + _ANTIPODAL_MARGIN
    parallel = (s < _EPS) & ~antipodal
    axis = c / np.where(parallel | antipodal, 1.0, s)[..., None]
    axis = np.where(parallel[..., None], _X_HAT, axis)
    axis = np.where(antipodal[..., None], antipodal_axis(e_from), axis)
    angle = np.where(antipodal, np.pi, np.where(parallel, 0.0, np.arccos(np.clip(d, -1.0, 1.0))))
    return AxisAngle(axis, angle[()])


def antipodal_axis(e_from) -> np.ndarray:
    """Deterministic unit axes orthogonal to the rows of ``e_from``.

    The axis is ``normalize(cross(e_from, x_hat))``, falling back to
    ``y_hat`` when ``e_from`` is (anti)parallel to ``x_hat``.
    """
    e_from = _check_unit(_as_vec3(e_from, "e_from"), "e_from")
    c = np.cross(e_from, _X_HAT)
    c = np.where((_norm(c) < 1e-6)[..., None], np.cross(e_from, _Y_HAT), c)
    return c / _norm(c)[..., None]


def log_map(rot) -> np.ndarray:
    """Scaled-axis vector ``theta * n`` of a rotation matrix.

    theta = arccos((trace(R) - 1) / 2) with the argument clamped to
    [-1, 1].  Angles below 1e-7 return the zero vector.  Near pi the
    axis magnitudes come from the diagonal of (R + I) / 2 (largest
    diagonal picks the reference component) and signs from the
    off-diagonal entries, since the skew part vanishes there.
    """
    rot = _check_rotation(rot)
    tr = float(np.trace(rot))
    theta = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
    if theta < _SMALL_ANGLE:
        return np.zeros(3)
    v = np.array([
        rot[2, 1] - rot[1, 2],
        rot[0, 2] - rot[2, 0],
        rot[1, 0] - rot[0, 1],
    ])
    if theta > np.pi - _NEAR_PI:
        a = (rot + np.eye(3)) / 2.0
        diag = np.clip(np.diag(a), 0.0, None)
        i = int(np.argmax(diag))
        axis = a[i] / np.sqrt(diag[i])
        axis = axis / np.linalg.norm(axis)
        # v = 2 sin(theta) n fixes the sign while sin(theta) is nonzero.
        if float(v @ axis) < 0.0:
            axis = -axis
        return theta * axis
    return (theta / (2.0 * np.sin(theta))) * v


def exp_map(w) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of scaled-axis vectors (..., 3).

    Any norm is accepted; norms above pi are first wrapped into the
    equivalent [0, pi] representation, then Rodrigues is applied with
    axis w / ||w|| and angle ||w||.  Norms below 1e-12 give the identity.
    """
    w = _as_vec3(w, "w")
    theta = _norm(w)
    wrap = theta > np.pi
    if wrap.any():  # skipping a no-op wrap keeps one vector's call cheap
        w = np.where(wrap[..., None], wrap_so3(w), w)
        theta = _norm(w)
    small = theta < _EPS
    axis = np.where(small[..., None], _X_HAT, w / np.where(small, 1.0, theta)[..., None])
    return np.where(small[..., None, None], np.eye(3), rodrigues(axis, theta))


def wrap_so3(w) -> np.ndarray:
    """Equivalent scaled-axis vector with norm in [0, pi].

    Accepts any (..., 3) array.  Entries with norm at most pi are
    returned unchanged (bit-exact); larger norms are reduced modulo a
    full turn, flipping the axis when the reduced angle is negative.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != 3:
        raise DimensionMismatch(f"last axis must be 3, got {w.shape}")
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    turns = np.round(theta / (2.0 * np.pi))
    reduced = theta - 2.0 * np.pi * turns
    factor = np.where(theta > np.pi, reduced / np.maximum(theta, _EPS), 1.0)
    return w * factor
