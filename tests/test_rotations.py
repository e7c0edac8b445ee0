import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mocapkit._kernels import rodrigues_batch
from mocapkit.errors import InvalidRotationError
from mocapkit.rotations import (canonicalize, is_rotation, right_jacobian, rodrigues,
                                rotation_to_axis_angle, unwrap)


def test_zero_vector_gives_identity():
    assert np.array_equal(rodrigues(np.zeros(3)), np.eye(3))


def test_quarter_turn_about_x():
    # closed-form: rotating (0,1,0) by pi/2 about x lands on (0,0,1)
    R = rodrigues(np.array([np.pi / 2, 0, 0]))
    np.testing.assert_allclose(R @ np.array([0, 1, 0]), [0, 0, 1], atol=1e-15)


def test_half_turn_about_z():
    # quaternion oracle via scipy
    aa = np.array([0, 0, np.pi])
    R = rodrigues(aa)
    np.testing.assert_allclose(R @ np.array([1, 0, 0]), [-1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(R, Rotation.from_rotvec(aa).as_matrix(), atol=1e-15)


def test_matches_scipy_on_random_vectors(rng):
    aa = rng.normal(scale=2.0, size=(200, 3))
    ours = rodrigues_batch(aa)
    ref = Rotation.from_rotvec(aa).as_matrix()
    np.testing.assert_allclose(ours, ref, atol=1e-13)


def test_outputs_are_orthonormal(rng):
    for R in rodrigues_batch(rng.normal(scale=3.0, size=(100, 3))):
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def test_identity_to_axis_angle():
    assert np.array_equal(rotation_to_axis_angle(np.eye(3)), np.zeros(3))


def test_round_trip_through_matrix():
    aa = np.array([0.3, -0.1, 0.2])
    np.testing.assert_allclose(rotation_to_axis_angle(rodrigues(aa)), aa, atol=1e-6)


def test_pi_about_z_sign_convention():
    # conjugation oracle: R = Q Rz(pi) Q^T for Q = identity is just Rz(pi)
    aa = rotation_to_axis_angle(rodrigues(np.array([0, 0, np.pi])))
    np.testing.assert_allclose(aa, [0, 0, np.pi], atol=1e-7)
    # axis with negative leading component canonicalizes to its positive mirror
    aa = rotation_to_axis_angle(rodrigues(np.array([0, 0, -np.pi])))
    np.testing.assert_allclose(aa, [0, 0, np.pi], atol=1e-7)


def test_rejects_non_rotation():
    with pytest.raises(InvalidRotationError):
        rotation_to_axis_angle(np.eye(3) * 1.01)


def test_round_trip_random(rng):
    for _ in range(500):
        R = Rotation.random(random_state=np.random.RandomState(int(rng.integers(1 << 31)))).as_matrix()
        aa = rotation_to_axis_angle(R)
        assert np.abs(rodrigues(aa) - R).max() < 1e-6


def test_near_identity_to_axis_angle_is_finite(rng):
    # R.T @ R is the identity up to rounding; its skew part is often exactly 0
    for R in rodrigues_batch(rng.normal(scale=2.0, size=(1000, 3))):
        aa = rotation_to_axis_angle(R.T @ R)
        assert np.all(np.isfinite(aa))
        assert np.linalg.norm(aa) < 1e-7


def test_round_trip_small_angles(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        aa = axis / np.linalg.norm(axis) * 10.0 ** rng.uniform(-10, -2)
        np.testing.assert_allclose(rotation_to_axis_angle(rodrigues(aa)), aa, rtol=1e-6, atol=0)


def test_round_trip_near_pi(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 10.0 ** rng.uniform(-12, -4)
        R = rodrigues(axis * angle)
        assert np.abs(rodrigues(rotation_to_axis_angle(R)) - R).max() < 1e-6


def test_canonicalize_idempotent(rng):
    for _ in range(100):
        aa = rng.normal(scale=4.0, size=3)
        c = canonicalize(aa)
        assert np.linalg.norm(c) <= np.pi + 1e-12
        np.testing.assert_allclose(canonicalize(c), c, atol=1e-12)
        np.testing.assert_allclose(rodrigues(c), rodrigues(aa), atol=1e-12)


def _canonicalize_one(aa):
    """Scalar reference: one 3-vector at a time."""
    angle = np.linalg.norm(aa)
    if angle < 1e-12:
        return np.zeros(3)
    axis = aa / angle
    angle = np.fmod(angle, 2.0 * np.pi)
    if angle > np.pi:
        angle = 2.0 * np.pi - angle
        axis = -axis
    if abs(angle - np.pi) < 1e-12:
        for c in axis:
            if c > 1e-12:
                break
            if c < -1e-12:
                axis = -axis
                break
    return axis * angle


def test_canonicalize_batch_matches_scalar_reference(rng):
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    axes[:4] = [[0, 0, -1], [0, -1, 0], [-1, 0, 0], [0, -0.6, -0.8]]
    multiples = np.arange(-3, 4)[:, None, None] * np.pi * axes[None, :8]
    batch = np.concatenate([
        rng.normal(scale=4.0, size=(200, 3)),
        np.zeros((2, 3)),
        np.full((1, 3), 1e-13),
        multiples.reshape(-1, 3),                                    # exact multiples of pi
        axes * rng.uniform(2 * np.pi, 20.0, size=(40, 1)),            # above 2 pi
        axes * (np.pi + rng.uniform(-1e-13, 1e-13, size=(40, 1))),    # within 1e-12 of pi
    ])
    expected = np.array([_canonicalize_one(v) for v in batch])
    got = canonicalize(batch)
    assert got.shape == batch.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(canonicalize(batch[None]), expected[None], rtol=0, atol=1e-14)
    for v, e in zip(batch[::7], expected[::7]):
        np.testing.assert_allclose(canonicalize(v), e, rtol=0, atol=1e-14)


def test_canonicalize_keeps_the_bits_of_canonical_vectors(rng):
    axes = rng.normal(size=(500, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([rng.uniform(0.0, np.pi, size=490), [1.5e-12, 1e-11, 1e-6]])
    at_pi = np.where(axes[:7, :1] < 0, -axes[:7], axes[:7]) * np.pi
    canonical = np.concatenate([axes[:493] * angles[:, None], at_pi, [[0.0, 0.0, np.pi]]])
    assert canonicalize(canonical).tobytes() == canonical.tobytes()
    for v in canonical[::50]:
        assert canonicalize(v).tobytes() == v.tobytes()


def test_canonicalize_is_bitwise_idempotent(rng):
    # random, zero, tiny, multiples of pi, above 2 pi and within 1e-12 of pi
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    axes[:4] = [[0, 0, -1], [0, -1, 0], [-1, 0, 0], [0, -0.6, -0.8]]
    multiples = np.arange(-5, 6)[:, None, None] * np.pi * axes[None, :8]
    once = canonicalize(np.concatenate([
        rng.normal(scale=4.0, size=(2000, 3)),
        np.zeros((2, 3)),
        np.full((1, 3), 1e-13),
        multiples.reshape(-1, 3),
        axes * rng.uniform(2 * np.pi, 20.0, size=(40, 1)),
        axes * (np.pi + rng.uniform(-1e-13, 1e-13, size=(40, 1))),
    ]))
    assert canonicalize(once).tobytes() == once.tobytes()


def _rotation_to_axis_angle_one(r):
    """Scalar reference: one matrix at a time, then canonicalized."""
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    angle = np.arctan2(np.linalg.norm(skew) / 2.0, (np.trace(r) - 1.0) / 2.0)
    if angle < 1e-12:
        return np.zeros(3)
    if np.pi - angle > 1e-7:
        return skew / np.linalg.norm(skew) * angle
    B = (r + np.eye(3)) / 2.0
    k = int(np.argmax(np.diag(B)))
    axis = B[:, k] / np.sqrt(max(B[k, k], 1e-300))
    axis /= np.linalg.norm(axis)
    if np.linalg.norm(skew) > 1e-9:
        if np.dot(skew, axis) < 0.0:
            axis = -axis
    else:
        for c in axis:
            if c > 1e-12:
                break
            if c < -1e-12:
                axis = -axis
                break
    return axis * angle


def test_rotation_to_axis_angle_batch_matches_scalar_reference(rng):
    axes = rng.normal(size=(60, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    negative = -np.abs(axes[:10])
    negative[:3] = [[0, 0, -1], [0, -1, 0], [-0.6, 0, -0.8]]
    aa = np.concatenate([
        rng.normal(scale=2.0, size=(200, 3)),
        axes * 10.0 ** rng.uniform(-10, -2, size=(60, 1)),
        axes[:20] * (np.pi - 1e-9),
        axes[20:40] * (np.pi - 1e-13),
        negative * np.pi,
    ])
    Rs = rodrigues_batch(aa)
    Rs = np.concatenate([Rs, np.eye(3)[None], np.swapaxes(Rs[:50], -1, -2) @ Rs[:50]])
    expected = np.array([_rotation_to_axis_angle_one(r) for r in Rs])
    got = rotation_to_axis_angle(Rs)
    assert got.shape == expected.shape
    # The batched norm need not round as the scalar one does: a few ulps.
    err = np.abs(got - expected).max(axis=-1)
    bound = 4 * np.finfo(float).eps * np.linalg.norm(expected, axis=-1)
    assert np.all(err <= bound)
    assert np.array_equal(got[-51:], np.zeros((51, 3)))
    assert canonicalize(got).tobytes() == got.tobytes()
    assert rotation_to_axis_angle(Rs.reshape(19, 19, 3, 3)).reshape(-1, 3).tobytes() == got.tobytes()
    for r, g in zip(Rs[::13], got[::13]):
        assert rotation_to_axis_angle(r).tobytes() == g.tobytes()


def test_rotation_to_axis_angle_rejects_a_stack_with_one_non_rotation(rng):
    Rs = rodrigues_batch(rng.normal(size=(5, 3)))
    Rs[3] *= 1.01
    with pytest.raises(InvalidRotationError):
        rotation_to_axis_angle(Rs)


def test_unwrap_makes_a_sweep_through_pi_continuous(rng):
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.radians(np.linspace(150.0, 230.0, 20))
    seq = canonicalize(angles[:, None, None] * axes)
    out = unwrap(seq)
    np.testing.assert_allclose(rodrigues_batch(out), rodrigues_batch(seq), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, angles[:, None, None] * axes, rtol=0, atol=1e-12)
    # a sequence that never jumps keeps its bits, signed zeros included
    calm = rng.normal(scale=0.3, size=(10, 5, 3))
    calm[3, 2] = -0.0
    assert unwrap(calm).tobytes() == calm.tobytes()


def test_right_jacobian_is_the_exp_map_derivative(rng):
    axes = rng.normal(size=(4, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    points = np.concatenate([np.zeros((1, 3)), 1e-5 * axes[:1], 1e-3 * axes[1:2],
                             rng.normal(size=(5, 3)), (np.pi - 1e-6) * axes[2:]])
    h = 1e-6
    for aa in points:
        R = rodrigues(aa)
        fd = np.empty((3, 3))
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            dR = (rodrigues(aa + d) - rodrigues(aa - d)) / (2 * h)
            skew = R.T @ dR          # [Jr e_i]x
            fd[:, i] = [skew[2, 1], skew[0, 2], skew[1, 0]]
        np.testing.assert_allclose(right_jacobian(aa), fd, atol=1e-8)
    np.testing.assert_allclose(right_jacobian(points), [right_jacobian(p) for p in points],
                               atol=1e-15)


def test_is_rotation_tolerance():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.eye(3) + 1e-5)
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1
    stack = np.stack([np.eye(3)] * 4)
    assert is_rotation(stack)
    stack[2, 0, 1] = 1e-5
    assert not is_rotation(stack)
