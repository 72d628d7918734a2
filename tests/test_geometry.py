"""Rotation geometry checks against hand-frozen and independent oracles."""

import numpy as np
import pytest

from sthrn.geometry import (
    DimensionMismatch,
    antipodal_axis,
    axis_angle_between,
    exp_map,
    hat,
    log_map,
    rodrigues,
    wrap_so3,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def quaternion_rotation(axis, angle):
    """Independent rotation-matrix construction via unit quaternions."""
    w = np.cos(angle / 2.0)
    x, y, z = np.sin(angle / 2.0) * np.asarray(axis)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_units(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- hat ---------------------------------------------------------------------


def test_hat_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v, u = rng.normal(size=(2, 3))
        assert np.allclose(hat(v) @ u, np.cross(v, u), atol=1e-15)


def test_hat_is_antisymmetric():
    m = hat([1.0, 2.0, 3.0])
    assert np.array_equal(m, -m.T)


# -- rodrigues ----------------------------------------------------------------


def test_rodrigues_zero_angle_is_identity():
    assert np.allclose(rodrigues(Z, 0.0), np.eye(3), atol=1e-16)


def test_rodrigues_quarter_turns_frozen():
    # Hand-derived: a quarter turn about z maps x to y; about x maps y to z.
    assert np.allclose(
        rodrigues(Z, np.pi / 2.0),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        atol=1e-15,
    )
    assert np.allclose(
        rodrigues(X, np.pi / 2.0),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
        atol=1e-15,
    )


def test_rodrigues_matches_quaternion_route():
    rng = np.random.default_rng(1)
    axes = random_units(50, seed=2)
    angles = rng.uniform(0.0, np.pi, size=50)
    for axis, angle in zip(axes, angles):
        assert np.allclose(
            rodrigues(axis, angle), quaternion_rotation(axis, angle), atol=1e-13
        )


def test_rodrigues_orthonormal_det_one():
    rng = np.random.default_rng(3)
    for axis in random_units(100, seed=4):
        angle = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        r = rodrigues(axis, angle)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        rodrigues([1.0, 1.0, 0.0], 0.3)


def test_rodrigues_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        rodrigues([1.0, 0.0], 0.3)


# -- axis_angle_between --------------------------------------------------------


def test_axis_angle_between_quarter_turn_frozen():
    aa = axis_angle_between(X, Y)
    assert np.allclose(aa.axis, Z, atol=1e-15)
    assert abs(aa.angle - np.pi / 2.0) < 1e-15


def test_axis_angle_between_carries_from_onto_to():
    units = random_units(100, seed=5)
    for e_from, e_to in zip(units[::2], units[1::2]):
        aa = axis_angle_between(e_from, e_to)
        assert np.allclose(rodrigues(aa.axis, aa.angle) @ e_from, e_to, atol=1e-10)


def test_axis_angle_between_axis_orthogonal_to_both():
    units = random_units(40, seed=6)
    for e_from, e_to in zip(units[::2], units[1::2]):
        aa = axis_angle_between(e_from, e_to)
        assert abs(aa.axis @ e_from) < 1e-10
        assert abs(aa.axis @ e_to) < 1e-10
        assert abs(np.linalg.norm(aa.axis) - 1.0) < 1e-12


def test_axis_angle_between_parallel_is_exact_zero():
    for e in random_units(10, seed=7):
        aa = axis_angle_between(e, e)
        assert aa.angle == 0.0
        assert np.array_equal(aa.axis, X)


def test_axis_angle_between_antipodal_is_half_turn():
    # the half turn about antipodal_axis(e_from), bit for bit; x and -x
    # take the y fallback
    for e in [*random_units(10, seed=8), X, -X]:
        aa = axis_angle_between(e, -e)
        assert aa.angle == np.pi
        assert np.array_equal(aa.axis, antipodal_axis(e))


def test_axis_angle_between_rejects_non_unit():
    with pytest.raises(ValueError):
        axis_angle_between([2.0, 0.0, 0.0], Y)


# -- antipodal_axis -------------------------------------------------------------


def test_antipodal_axis_is_orthogonal_unit():
    for e in random_units(20, seed=9):
        a = antipodal_axis(e)
        assert abs(a @ e) < 1e-12
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_antipodal_axis_frozen_values():
    # cross(z, x) = y; x is parallel to the reference so falls back to
    # cross(x, y) = z.
    assert np.allclose(antipodal_axis(Z), Y, atol=1e-15)
    assert np.allclose(antipodal_axis(X), Z, atol=1e-15)


def test_antipodal_axis_realizes_half_turn():
    for e in random_units(20, seed=10):
        r = rodrigues(antipodal_axis(e), np.pi)
        assert np.allclose(r @ e, -e, atol=1e-12)


# -- log_map / exp_map ----------------------------------------------------------


def test_log_identity_is_exact_zero():
    assert np.array_equal(log_map(np.eye(3)), np.zeros(3))


def test_log_small_angle_returns_zero():
    r = rodrigues(Z, 1e-8)
    assert np.array_equal(log_map(r), np.zeros(3))


def test_exp_log_roundtrip_main_branch():
    rng = np.random.default_rng(11)
    axes = random_units(200, seed=12)
    angles = rng.uniform(1e-3, np.pi - 1e-3, size=200)
    w = axes * angles[:, None]
    for wi in w:
        back = log_map(exp_map(wi))
        assert np.linalg.norm(back - wi) < 1e-8 * max(1.0, np.linalg.norm(wi))


def test_log_exp_roundtrip_near_pi():
    # Axis recovery switches branch near pi; compare at the rotation level
    # because w and -w coincide at exactly pi.
    axes = random_units(20, seed=13)
    for angle in (np.pi - 1e-4, np.pi - 1e-6, np.pi):
        for axis in axes:
            r = rodrigues(axis, angle)
            assert np.allclose(exp_map(log_map(r)), r, atol=1e-7)


def test_log_map_angle_near_pi_magnitude():
    for axis in random_units(10, seed=14):
        w = log_map(rodrigues(axis, np.pi))
        assert abs(np.linalg.norm(w) - np.pi) < 1e-7
        # the recovered axis matches up to overall sign
        n = w / np.linalg.norm(w)
        assert min(np.linalg.norm(n - axis), np.linalg.norm(n + axis)) < 1e-6


def test_exp_map_wraps_long_vectors():
    for axis in random_units(10, seed=15):
        w = axis * 1.2 * np.pi
        assert np.allclose(exp_map(w), exp_map(wrap_so3(w)), atol=1e-12)


def test_log_map_rejects_non_rotation():
    with pytest.raises(ValueError):
        log_map(2.0 * np.eye(3))
    with pytest.raises(DimensionMismatch):
        log_map(np.eye(4))


# -- wrap_so3 --------------------------------------------------------------------


def test_wrap_identity_below_pi_is_bit_exact():
    rng = np.random.default_rng(16)
    w = random_units(50, seed=17) * rng.uniform(0.0, np.pi, size=(50, 1))
    assert np.array_equal(wrap_so3(w), w)


def test_wrap_removes_full_turns():
    for axis in random_units(10, seed=18):
        w = axis * (0.5 + 2.0 * np.pi)
        assert np.allclose(wrap_so3(w), axis * 0.5, atol=1e-12)


def test_wrap_flips_axis_past_pi():
    # 3pi/2 about n is -pi/2 about n.
    w = Z * (1.5 * np.pi)
    assert np.allclose(wrap_so3(w), -Z * (0.5 * np.pi), atol=1e-12)
    assert np.allclose(exp_map(w), exp_map(wrap_so3(w)), atol=1e-12)


def test_wrap_preserves_rotation():
    rng = np.random.default_rng(19)
    for axis in random_units(30, seed=20):
        w = axis * rng.uniform(0.0, 6.0 * np.pi)
        assert np.allclose(exp_map(w), exp_map(wrap_so3(w)), atol=1e-11)
        assert np.linalg.norm(wrap_so3(w)) <= np.pi + 1e-12


def test_wrap_batched_shape():
    rng = np.random.default_rng(21)
    w = rng.normal(size=(4, 5, 3)) * 3.0
    out = wrap_so3(w)
    assert out.shape == (4, 5, 3)
    norms = np.linalg.norm(out, axis=-1)
    assert np.all(norms <= np.pi + 1e-12)


def test_wrap_rejects_bad_last_axis():
    with pytest.raises(DimensionMismatch):
        wrap_so3(np.zeros((4, 2)))
