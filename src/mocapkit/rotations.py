"""Axis-angle and rotation-matrix utilities.

Axis-angle vectors encode a rotation as ``axis * angle`` (angle in radians).
The canonical form has angle in [0, pi]; at exactly pi, where the axis sign is
ambiguous, the axis whose first nonzero component is positive is chosen.
"""

import numpy as np

from . import _kernels
from .errors import InvalidRotationError

ROTATION_INPUT_TOL = 1e-6


def canonicalize(aa):
    """Canonical axis-angle equivalent (..., 3) of each vector in `aa` (..., 3).

    Angles below 1e-12 give zero; others are reduced mod 2 pi and, above pi,
    replaced by the opposite axis with angle 2 pi - angle.  At pi the axis
    whose first component beyond 1e-12 in magnitude is positive is chosen.
    """
    aa = np.asarray(aa, dtype=np.float64)
    angle = np.linalg.norm(aa, axis=-1, keepdims=True)
    axis = np.divide(aa, angle, out=np.zeros_like(aa), where=angle >= 1e-12)
    angle = np.fmod(angle, 2.0 * np.pi)
    over = angle > np.pi
    angle = np.where(over, 2.0 * np.pi - angle, angle)
    axis = np.where(over, -axis, axis)
    lead = np.take_along_axis(axis, np.argmax(np.abs(axis) > 1e-12, axis=-1)[..., None], -1)
    axis = np.where((np.abs(angle - np.pi) < 1e-12) & (lead < -1e-12), -axis, axis)
    return axis * angle


def unwrap(seq):
    """Axis-angle sequence (T, ..., 3) with each vector replaced by its
    equivalent ``aa + 2 pi k axis`` nearest the previous, already unwrapped one.

    ``k = round((axis . prev - angle) / 2 pi)``; vectors with k = 0 keep
    their bits, so a sequence that never jumps is returned unchanged.
    """
    seq = np.array(seq, dtype=np.float64)
    for t in range(1, seq.shape[0]):
        aa = seq[t]
        angle = np.linalg.norm(aa, axis=-1, keepdims=True)
        axis = np.divide(aa, angle, out=np.zeros_like(aa), where=angle > 0)
        k = np.round(((axis * seq[t - 1]).sum(axis=-1, keepdims=True) - angle) / (2.0 * np.pi))
        seq[t] = np.where(k != 0, aa + 2.0 * np.pi * k * axis, aa)
    return seq


def _positive_leading(axis):
    for c in axis:
        if c > 1e-12:
            return axis
        if c < -1e-12:
            return -axis
    return axis


def rodrigues(aa):
    """Rotation matrix for an axis-angle vector; identity for the zero vector."""
    aa = np.asarray(aa, dtype=np.float64)
    return _kernels.rodrigues_batch(aa.reshape(1, 3))[0]


def right_jacobian(aa):
    """SO(3) right Jacobians (..., 3, 3) of axis-angle vectors (..., 3).

    ``rodrigues(aa + d) = rodrigues(aa) @ rodrigues(right_jacobian(aa) @ d)``
    to first order in d:
    ``Jr = I - (1 - cos a) / a^2 [aa]x + (a - sin a) / a^3 [aa]x^2``, with
    the coefficients' Taylor series below a = 1e-3.
    """
    aa = np.asarray(aa, dtype=np.float64)
    a2 = (aa * aa).sum(axis=-1)
    a = np.sqrt(a2)
    small = a < 1e-3
    safe = np.where(small, 1.0, a)
    c1 = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    c2 = np.where(small, 1.0 / 6.0 - a2 / 120.0, (safe - np.sin(safe)) / safe ** 3)
    x, y, z = np.moveaxis(aa, -1, 0)
    zero = np.zeros_like(x)
    skew = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(aa.shape + (3,))
    return (np.eye(3) - c1[..., None, None] * skew
            + c2[..., None, None] * (skew @ skew))


def is_rotation(m, tol=ROTATION_INPUT_TOL):
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        return False
    if not np.all(np.isfinite(m)):
        return False
    if np.abs(m.T @ m - np.eye(3)).max() > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


def rotation_to_axis_angle(r):
    """Canonical axis-angle vector of a rotation matrix.

    Raises InvalidRotationError if `r` fails orthonormality by more than 1e-6.
    """
    r = np.asarray(r, dtype=np.float64)
    if not is_rotation(r):
        raise InvalidRotationError("matrix is not a rotation within tolerance")
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    # |skew| = 2 sin(angle) and trace - 1 = 2 cos(angle); unlike arccos of the
    # trace alone, this gives angle 0 whenever the skew part is exactly 0.
    angle = np.arctan2(np.linalg.norm(skew) / 2.0, (np.trace(r) - 1.0) / 2.0)
    if angle < 1e-12:
        return np.zeros(3)
    # Within 1e-7 of pi the skew part has too few significant bits to give
    # the axis, and the symmetric part of R has only O(pi - angle)
    # contamination from the skew term.
    if np.pi - angle > 1e-7:
        return skew / np.linalg.norm(skew) * angle
    # Near pi the skew part vanishes; recover the axis from the symmetric part.
    B = (r + np.eye(3)) / 2.0
    k = int(np.argmax(np.diag(B)))
    axis = B[:, k] / np.sqrt(max(B[k, k], 1e-300))
    axis /= np.linalg.norm(axis)
    if np.linalg.norm(skew) > 1e-9:
        if np.dot(skew, axis) < 0.0:
            axis = -axis
    else:
        axis = _positive_leading(axis)
    return axis * angle
