"""Axis-angle and rotation-matrix utilities.

Axis-angle vectors encode a rotation as ``axis * angle`` (angle in radians).
The canonical form has angle in [0, pi]; within 1e-12 of pi, where the axis
sign is ambiguous, the axis whose first component beyond 1e-12 in magnitude is
positive is chosen.  `canonicalize` and `rotation_to_axis_angle` share that rule.
"""

import numpy as np

from . import _kernels
from .errors import InvalidRotationError

ROTATION_INPUT_TOL = 1e-6


def canonicalize(aa):
    """Canonical axis-angle equivalent (..., 3) of each vector in `aa` (..., 3).

    A canonical vector keeps its bits: angle in [1e-12, pi] (or up to 4 ulps
    above, where a rebuilt vector's norm can round) and, within 1e-12 of pi,
    a positive leading axis component.  Any other vector is rebuilt as
    ``axis * angle``: the angle is reduced mod 2 pi and, above pi, replaced
    by 2 pi - angle with the opposite axis; the at-pi rule fixes the sign;
    angles below 1e-12, before or after the reduction, give zero.
    """
    aa = np.asarray(aa, dtype=np.float64)
    norm = np.linalg.norm(aa, axis=-1, keepdims=True)
    axis = np.divide(aa, norm, out=np.zeros_like(aa), where=norm >= 1e-12)
    kept = ((norm >= 1e-12) & (norm <= np.pi + 4 * np.spacing(np.pi))
            & ~((np.abs(norm - np.pi) < 1e-12) & _leads_negative(axis)))
    angle = np.fmod(norm, 2.0 * np.pi)
    over = angle > np.pi
    angle = np.where(over, 2.0 * np.pi - angle, angle)
    axis = np.where(over, -axis, axis)
    axis = np.where((np.abs(angle - np.pi) < 1e-12) & _leads_negative(axis), -axis, axis)
    return np.where(kept, aa, np.where(angle < 1e-12, 0.0, axis * angle))


def _leads_negative(axis):
    """The at-pi sign rule: whether the first component of each axis (..., 3)
    beyond 1e-12 in magnitude is negative, as (..., 1)."""
    lead = np.take_along_axis(axis, np.argmax(np.abs(axis) > 1e-12, axis=-1)[..., None], -1)
    return lead < -1e-12


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
    """Whether `m` is (..., 3, 3) and each matrix in it is a finite rotation
    within `tol` (orthonormality and determinant)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return bool(np.all(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)) <= tol)
                and np.all(np.abs(np.linalg.det(m) - 1.0) <= tol))


def rotation_to_axis_angle(r):
    """Canonical axis-angle vectors (..., 3) of rotation matrices `r` (..., 3, 3).

    Raises InvalidRotationError if any matrix fails orthonormality by more
    than 1e-6.
    """
    r = np.asarray(r, dtype=np.float64)
    if not is_rotation(r):
        raise InvalidRotationError("matrix is not a rotation within tolerance")
    skew = np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                     r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    s = np.linalg.norm(skew, axis=-1, keepdims=True)
    # |skew| = 2 sin(angle) and trace - 1 = 2 cos(angle); unlike arccos of the
    # trace alone, this gives angle 0 whenever the skew part is exactly 0.
    angle = np.arctan2(s / 2.0, (np.trace(r, axis1=-2, axis2=-1)[..., None] - 1.0) / 2.0)
    axis = np.divide(skew, s, out=np.zeros_like(skew), where=s > 0)
    # Within 1e-7 of pi the skew part has too few significant bits to give
    # the axis, and the symmetric part of R has only O(pi - angle)
    # contamination from the skew term: take the axis from its largest column.
    B = (r + np.eye(3)) / 2.0
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    k = np.argmax(diag, axis=-1)[..., None]
    sym = np.take_along_axis(B, k[..., None], -1)[..., 0]
    sym = sym / np.sqrt(np.maximum(np.take_along_axis(diag, k, -1), 1e-300))
    sym = sym / np.linalg.norm(sym, axis=-1, keepdims=True)
    # The skew part still gives the sign unless it has vanished too.
    flip = np.where(s > 1e-9, (skew * sym).sum(axis=-1, keepdims=True) < 0.0,
                    _leads_negative(sym))
    axis = np.where(np.pi - angle > 1e-7, axis, np.where(flip, -sym, sym))
    return np.where(angle < 1e-12, 0.0, axis * angle)
