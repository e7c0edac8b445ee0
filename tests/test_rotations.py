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


def test_axis_angle_round_trip_is_exact_to_a_few_ulps_near_pi(rng):
    # Angles outside the at-pi rule's 1e-12 window keep their axis sign.
    axes = rng.normal(size=(100, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    for gap in 10.0 ** -np.arange(3, 12):
        aa = axes * (np.pi - gap)
        err = np.abs(rotation_to_axis_angle(rodrigues_batch(aa)) - aa).max()
        assert err <= 4 * np.finfo(float).eps * np.pi, gap


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
    assert not np.shares_memory(canonicalize(canonical), canonical)
    for v in canonical[::50]:
        assert canonicalize(v).tobytes() == v.tobytes()


def test_canonicalize_early_out_edges(rng):
    # A stack whose angles all lie in [1e-12, pi - 1e-12] is returned as it
    # is; one edge vector sends the whole stack down the full rule, which
    # must give the interior vectors the same bytes and the edge vector the
    # scalar reference's.  The edge vectors lie on an axis, so the
    # reference's ``axis * angle`` rebuild is exact.
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    interior = axes * rng.uniform(0.1, 3.0, size=(6, 1))
    below_pi = np.pi - 1e-12
    above_pi = np.pi + 2 * np.spacing(np.pi)
    edges = np.array([
        [0.0, 0.0, 0.0], [np.nextafter(1e-12, 0.0), 0.0, 0.0], [0.0, 1e-12, 0.0],
        [0.0, 0.0, -1e-12],
        [below_pi, 0.0, 0.0], [-below_pi, 0.0, 0.0], [0.0, -np.nextafter(below_pi, 4.0), 0.0],
        [0.0, -np.pi, 0.0], [-np.pi, 0.0, 0.0],
        [above_pi, 0.0, 0.0], [-above_pi, 0.0, 0.0],
        [0.0, 0.0, 7.0], [-7.0, 0.0, 0.0],
    ])
    expected = np.array([_canonicalize_one(v) for v in edges])
    # Within 4 ulps above pi a vector leading positive is kept, where the
    # reference folds it to pi - 2 ulps.
    expected[9] = edges[9]
    assert canonicalize(interior).tobytes() == interior.tobytes()
    for edge, want in zip(edges, expected):
        got = canonicalize(np.concatenate([interior[:3], edge[None], interior[3:]]))
        assert np.delete(got, 3, axis=0).tobytes() == interior.tobytes()
        assert got[3].tobytes() == want.tobytes()
    mixed = np.stack([np.concatenate([interior, edges]), np.concatenate([edges, interior])])
    want = np.stack([np.concatenate([interior, expected]), np.concatenate([expected, interior])])
    assert canonicalize(mixed).tobytes() == want.tobytes()


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


def test_rotation_to_axis_angle_batch_matches_scalar_reference(rng):
    # The reference is scipy's rotation vector, canonicalized; single
    # matrices must then give the batch's bytes.
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
    expected = canonicalize(Rotation.from_matrix(Rs).as_rotvec())
    got = rotation_to_axis_angle(Rs)
    assert got.shape == expected.shape
    # Both extract the same quaternion; the rounding may differ by a few ulps.
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


def _right_jacobian_reference(aa):
    """``I - c1 [aa]x + c2 [aa]x^2``, with the coefficients' series below 1e-3."""
    a = np.linalg.norm(aa)
    if a < 1e-3:
        c1, c2 = 0.5 - a * a / 24.0, 1.0 / 6.0 - a * a / 120.0
    else:
        c1, c2 = (1.0 - np.cos(a)) / a ** 2, (a - np.sin(a)) / a ** 3
    x, y, z = aa
    skew = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) - c1 * skew + c2 * (skew @ skew)


def test_right_jacobian_is_the_exp_map_derivative(rng):
    # At 0, on both sides of the series switch at 1e-3, and within 1e-9 of pi.
    axes = rng.normal(size=(12, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = [0.0, 1e-5, 1e-3 * (1 - 1e-9), 1e-3, 1e-3 * (1 + 1e-9), np.pi - 1e-6,
              np.pi - 1e-9, np.pi - 1e-10]
    points = np.concatenate([np.array(angles)[:, None] * axes[:len(angles)],
                             rng.normal(size=(4, 3))])
    h = 1e-6
    for aa in points:
        np.testing.assert_allclose(right_jacobian(aa), _right_jacobian_reference(aa),
                                   rtol=0, atol=1e-15)
        R = rodrigues(aa)
        fd = np.empty((3, 3))
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            dR = (rodrigues(aa + d) - rodrigues(aa - d)) / (2 * h)
            skew = R.T @ dR          # [Jr e_i]x
            fd[:, i] = [skew[2, 1], skew[0, 2], skew[1, 0]]
        np.testing.assert_allclose(right_jacobian(aa), fd, atol=1e-8)
    # a stack has the bits of one call per vector
    stacked = right_jacobian(points.reshape(3, 4, 3)).reshape(-1, 3, 3)
    for aa, many in zip(points, stacked):
        assert right_jacobian(aa).tobytes() == many.tobytes()


def test_is_rotation_tolerance():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.eye(3) + 1e-5)
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1
    stack = np.stack([np.eye(3)] * 4)
    assert is_rotation(stack)
    stack[2, 0, 1] = 1e-5
    assert not is_rotation(stack)
    for m in (np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.inf]), np.eye(2), np.eye(4)):
        assert not is_rotation(m)
