import numpy as np
import pytest
from scipy import ndimage

from mocapkit.dataprep import (KNUCKLE_JOINTS, BlurKernel, JointMap,
                               convolve2d, flip_axis_angle,
                               flip_keypoints_2d, motion_blur_kernel,
                               rescale_keypoints, reorder_joints)
from mocapkit.errors import DegenerateKeypointsError, DimensionError
from mocapkit.rotations import rodrigues


def test_rescale_sets_knuckle_length_exactly(rng):
    for _ in range(50):
        joints = rng.normal(scale=0.1, size=(21, 3))
        ref = float(rng.uniform(0.01, 0.1))
        out = rescale_keypoints(joints, ref)
        a, b = KNUCKLE_JOINTS
        got = np.linalg.norm(out[a] - out[b])
        assert abs(got - ref) / ref < 1e-12


def test_rescale_fixes_wrist_and_preserves_shape(rng):
    joints = rng.normal(size=(21, 3))
    out = rescale_keypoints(joints, 0.05)
    np.testing.assert_array_equal(out[0], joints[0])
    # uniform scaling about the wrist preserves all length ratios
    d_in = np.linalg.norm(joints[1:] - joints[0], axis=1)
    d_out = np.linalg.norm(out[1:] - out[0], axis=1)
    np.testing.assert_allclose(d_out / d_in, d_out[0] / d_in[0], atol=1e-12)


def test_rescale_degenerate_knuckle():
    joints = np.zeros((21, 3))
    with pytest.raises(DegenerateKeypointsError):
        rescale_keypoints(joints, 0.05)


@pytest.mark.parametrize("length", [np.nan, -0.05, 0.0, np.inf])
def test_rescale_rejects_a_reference_length_that_is_not_finite_and_positive(rng, length):
    with pytest.raises(DimensionError, match="reference knuckle length must be positive and finite"):
        rescale_keypoints(rng.normal(size=(21, 3)), length)


@pytest.mark.parametrize("shape", [(21, 2), (21,), (2, 21, 3)])
def test_rescale_needs_k_by_3_joints(shape):
    with pytest.raises(DimensionError, match=r"joints3d must be \(K, 3\)"):
        rescale_keypoints(np.ones(shape), 0.05)


def test_joint_map_reorder_and_inverse(rng):
    perm = np.array([2, 0, 1, 3])
    m = JointMap(perm)
    joints = rng.normal(size=(4, 3))
    out = reorder_joints(joints, m)
    for src, dst in enumerate(perm):
        np.testing.assert_array_equal(out[dst], joints[src])


def test_joint_map_drops_joints(rng):
    m = JointMap(np.array([1, -1, 0]))
    joints = rng.normal(size=(3, 2))
    out = reorder_joints(joints, m)
    assert out.shape == (2, 2)
    np.testing.assert_array_equal(out[1], joints[0])
    np.testing.assert_array_equal(out[0], joints[2])


def test_joint_map_validation():
    with pytest.raises(DimensionError):
        JointMap(np.array([0, 0, 1]))
    with pytest.raises(DimensionError):
        reorder_joints(np.zeros((3, 2)), JointMap(np.array([0, 2, -1])))  # gap at 1
    with pytest.raises(DimensionError):
        reorder_joints(np.zeros((2, 2)), JointMap(np.array([0, 1, 2])))
    # Integers >= -1 keeping a joint, whose kept targets are 0, ..., n - 1.
    for perm in ([], [-1, -1], [0, -2], [0.0, 1.0], [True, False], [[0, 1]], [1, 2]):
        with pytest.raises(DimensionError, match="^joint map must"):
            JointMap(perm)
    assert JointMap([-1, 1, -1, 0]).num_targets == 2


def test_flip_2d_involution(rng):
    # subpixel coordinates on a 1/8-px grid keep width - x exactly representable
    pts = np.round(rng.uniform(0, 640, size=(21, 2)) * 8) / 8
    conf = rng.uniform(0, 1, size=21)
    once_p, once_c = flip_keypoints_2d(pts, conf, 640.0)
    twice_p, twice_c = flip_keypoints_2d(once_p, once_c, 640.0)
    np.testing.assert_array_equal(twice_p, pts)
    np.testing.assert_array_equal(twice_c, conf)
    np.testing.assert_array_equal(once_p[:, 1], pts[:, 1])
    np.testing.assert_array_equal(once_p[:, 0], 640.0 - pts[:, 0])
    for width in (0.0, -640.0):
        with pytest.raises(DimensionError, match="image width must be positive"):
            flip_keypoints_2d(pts, conf, width)


@pytest.mark.parametrize("width", [np.nan, np.inf])
def test_flip_rejects_a_width_that_is_not_finite(rng, width):
    with pytest.raises(DimensionError, match="image width must be positive and finite"):
        flip_keypoints_2d(rng.uniform(0, 640, size=(21, 2)), np.ones(21), width)


def test_flip_axis_angle_involution(rng):
    aa = rng.normal(size=3)
    np.testing.assert_array_equal(flip_axis_angle(flip_axis_angle(aa)), aa)


def test_flip_axis_angle_mirror_conjugation(rng):
    # mirroring across the plane normal to x: R(flip(aa)) = M R(aa) M
    M = np.diag([-1.0, 1.0, 1.0])
    for _ in range(100):
        aa = rng.normal(scale=1.5, size=3)
        np.testing.assert_allclose(
            rodrigues(flip_axis_angle(aa)), M @ rodrigues(aa) @ M, atol=1e-9)


def test_blur_kernel_validation():
    with pytest.raises(DimensionError):
        BlurKernel(np.full((2, 2), 0.25))
    with pytest.raises(DimensionError):
        BlurKernel(np.full((3, 3), 0.2))
    with pytest.raises(DimensionError):
        BlurKernel(np.array([[1.5, 0.0, -0.5]] * 3) / 3.0)


def test_motion_blur_length_one_is_identity(rng):
    k = motion_blur_kernel(1, 0.7)
    np.testing.assert_array_equal(k.k, [[1.0]])
    img = rng.uniform(size=(12, 9))
    np.testing.assert_allclose(convolve2d(img, k), img, atol=1e-15)


def test_motion_blur_horizontal_thirds():
    k = motion_blur_kernel(3, 0.0)
    expected = np.zeros((3, 3))
    expected[1] = 1.0 / 3.0
    np.testing.assert_array_equal(k.k, expected)


def test_motion_blur_vertical():
    k = motion_blur_kernel(3, np.pi / 2)
    expected = np.zeros((3, 3))
    expected[:, 1] = 1.0 / 3.0
    np.testing.assert_allclose(k.k, expected, atol=1e-12)


def test_motion_blur_kernels_normalized(rng):
    for _ in range(20):
        length = float(rng.uniform(1.0, 15.0))
        angle = float(rng.uniform(0, 2 * np.pi))
        k = motion_blur_kernel(length, angle).k
        assert abs(k.sum() - 1.0) < 1e-9
        assert np.all(k >= 0)


def test_motion_blur_rejects_short_or_bad():
    with pytest.raises(DimensionError):
        motion_blur_kernel(0.5, 0.0)
    with pytest.raises(DimensionError):
        motion_blur_kernel(np.inf, 0.0)


def test_convolve_matches_manual_interior(rng):
    img = rng.uniform(size=(8, 8))
    k = np.zeros((3, 3))
    k[1] = 1.0 / 3.0
    out = convolve2d(img, BlurKernel(k))
    # interior pixels are plain horizontal 3-averages
    for r in range(8):
        for c in range(1, 7):
            assert out[r, c] == pytest.approx(img[r, c - 1:c + 2].mean(), abs=1e-12)


def test_convolve_channels_independent(rng):
    img = rng.uniform(size=(6, 6, 3))
    k = motion_blur_kernel(3, 0.0)
    out = convolve2d(img, k)
    for c in range(3):
        np.testing.assert_array_equal(out[:, :, c], convolve2d(img[:, :, c], k))


def test_convolve_matches_ndimage_reflect(rng):
    # Images with and without channels, with kernels up to 11 px: many
    # larger than the image, where the padding reflects more than once.
    for _ in range(200):
        rows, cols = rng.integers(1, 20, size=2)
        channels = int(rng.integers(0, 4))
        img = rng.uniform(-1.0, 1.0, size=(rows, cols) + ((channels,) if channels else ()))
        n = 2 * int(rng.integers(0, 6)) + 1
        k = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        k[n // 2, n // 2] += 0.1
        k /= k.sum()
        expected = ndimage.convolve(img, k.reshape(k.shape + (1,) * (img.ndim - 2)), mode="reflect")
        np.testing.assert_allclose(convolve2d(img, BlurKernel(k)), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(convolve2d(img, k), expected, rtol=0, atol=1e-12)


def test_convolve_preserves_mass_of_constant(rng):
    img = np.full((10, 10), 3.25)
    k = motion_blur_kernel(5, 0.3)
    np.testing.assert_allclose(convolve2d(img, k), img, atol=1e-12)


def test_convolve_rejects_bad_input():
    with pytest.raises(DimensionError):
        convolve2d(np.full((4, 4), np.nan), motion_blur_kernel(1, 0.0))
    with pytest.raises(DimensionError):
        convolve2d(np.zeros(5), motion_blur_kernel(1, 0.0))
    # A raw kernel is checked as a BlurKernel is.
    for bad in (np.full((2, 2), 0.25), np.full((3, 3), 0.2), np.array([[1.5, 0.0, -0.5]] * 3) / 3.0):
        with pytest.raises(DimensionError):
            convolve2d(np.zeros((4, 4)), bad)
