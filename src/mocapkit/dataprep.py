"""Dataset-harmonization math: rescaling, joint reordering, flipping, motion blur."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKeypointsError, DimensionError

# Middle-finger knuckle pair in the 21-joint hand layout
# (wrist, index1-3, middle1-3, pinky1-3, ring1-3, thumb1-3, 5 tips).
KNUCKLE_JOINTS = (4, 5)


@dataclass(frozen=True)
class JointMap:
    """Target index per source joint, -1 to drop it; the n kept joints fill 0, ..., n - 1."""

    permutation: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.permutation)
        if not (p.ndim == 1 and np.issubdtype(p.dtype, np.integer)
                and (p >= -1).all() and (p >= 0).any()):
            raise DimensionError("joint map must be integers >= -1 keeping a joint")
        object.__setattr__(self, "permutation", p.astype(np.int64))
        kept = np.sort(p[p >= 0])
        if not np.array_equal(kept, np.arange(kept.size)):
            raise DimensionError("joint map must send the kept joints to 0, 1, ... each once")

    @property
    def num_targets(self):
        return int(np.count_nonzero(self.permutation >= 0))

    def inverse(self):
        if np.any(self.permutation < 0):
            raise DimensionError("joint map with dropped joints has no inverse")
        return JointMap(np.argsort(self.permutation))


@dataclass(frozen=True)
class BlurKernel:
    """Odd-sized square kernel of nonnegative weights summing to 1."""

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=np.float64)
        object.__setattr__(self, "k", k)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % 2 == 0:
            raise DimensionError("kernel must be square with odd size")
        if np.any(k < 0) or abs(k.sum() - 1.0) > 1e-9:
            raise DimensionError("kernel weights must be nonnegative and sum to 1")


def rescale_keypoints(joints3d, reference_knuckle_length):
    """Uniformly scale hand joints about the wrist so the middle-finger knuckle
    bone matches the reference length."""
    joints3d = np.asarray(joints3d, dtype=np.float64)
    if joints3d.ndim != 2 or joints3d.shape[1] != 3:
        raise DimensionError("joints3d must be (K, 3)")
    a, b = KNUCKLE_JOINTS
    if len(joints3d) <= max(a, b):
        raise DimensionError(f"rescaling needs knuckle joints {a} and {b}; "
                             f"got {len(joints3d)} joints")
    length = np.linalg.norm(joints3d[a] - joints3d[b])
    if length < 1e-9:
        raise DegenerateKeypointsError("knuckle joints are coincident")
    scale = reference_knuckle_length / length
    wrist = joints3d[0]
    return wrist + scale * (joints3d - wrist)


def reorder_joints(joints, joint_map):
    """Place input[src] at output[joint_map.permutation[src]]."""
    joints = np.asarray(joints)
    perm = joint_map.permutation
    if joints.shape[0] != perm.shape[0]:
        raise DimensionError("joint map does not cover the input joints")
    kept = perm >= 0
    out = np.empty((joint_map.num_targets,) + joints.shape[1:], dtype=joints.dtype)
    out[perm[kept]] = joints[kept]
    return out


def flip_keypoints_2d(points, confidence, image_width):
    """Mirror 2D keypoints across the vertical image axis; confidences untouched."""
    if image_width <= 0:
        raise DimensionError("image width must be positive")
    points = np.asarray(points, dtype=np.float64)
    flipped = points.copy()
    flipped[:, 0] = image_width - flipped[:, 0]
    return flipped, np.asarray(confidence, dtype=np.float64).copy()


def flip_axis_angle(aa):
    """Mirror a rotation across the plane normal to image-x: (x, y, z) -> (x, -y, -z)."""
    aa = np.asarray(aa, dtype=np.float64)
    return aa * np.array([1.0, -1.0, -1.0])


def flip_hand_params(phi_h, theta_h):
    """Mirror a hand's global orientation and finger poses to the other side."""
    return flip_axis_angle(phi_h), flip_axis_angle(theta_h)


def motion_blur_kernel(length, angle):
    """Straight-line blur kernel: a rasterized centered segment of the given
    pixel length and orientation, normalized to unit mass."""
    if not (np.isfinite(length) and np.isfinite(angle)) or length < 1:
        raise DimensionError("length must be finite and >= 1")
    if length == 1:
        return BlurKernel(np.ones((1, 1)))
    n = 1000 * int(np.ceil(length))
    # Midpoint samples along the segment keep endpoints off cell boundaries.
    t = (np.arange(n) + 0.5) / n - 0.5
    xs = t * length * np.cos(angle)
    ys = t * length * np.sin(angle)
    ix = np.rint(xs).astype(np.int64)
    iy = np.rint(ys).astype(np.int64)
    half = int(max(np.abs(ix).max(), np.abs(iy).max()))
    size = 2 * half + 1
    k = np.zeros((size, size))
    np.add.at(k, (iy + half, ix + half), 1.0)
    return BlurKernel(k / n)


def convolve2d(image, kernel):
    """Filter an H×W or H×W×C image with reflect padding (``d c b a | a b c d |
    d c b a``); output size unchanged.  `kernel` is a BlurKernel or an array
    that BlurKernel accepts."""
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(image)):
        raise DimensionError("image must be finite")
    if image.ndim not in (2, 3):
        raise DimensionError("image must be H×W or H×W×C")
    k = (kernel if isinstance(kernel, BlurKernel) else BlurKernel(kernel)).k[::-1, ::-1]
    h = k.shape[0] // 2
    padded = np.pad(image, [(h, h), (h, h)] + [(0, 0)] * (image.ndim - 2), mode="symmetric")
    out = np.zeros_like(image)
    # Convolution is correlation with the flipped kernel `k`; its taps are
    # summed in C order, as ndimage sums them.
    for a, b in zip(*np.nonzero(k)):
        out += k[a, b] * padded[a:a + image.shape[0], b:b + image.shape[1]]
    return out
