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
    norm = np.sqrt((aa * aa).sum(axis=-1, keepdims=True))
    # Away from 0 and pi every vector is canonical, as in most calls of a fit.
    # ``pi - norm`` is the at-pi test's ``|norm - pi|`` below pi, bit for bit.
    if ((norm >= 1e-12) & (np.pi - norm >= 1e-12)).all():
        return aa.copy()
    axis = np.divide(aa, norm, out=np.zeros_like(aa), where=norm >= 1e-12)
    lead = _leading_component(axis)
    kept = ((norm >= 1e-12) & (norm <= np.pi + 4 * np.spacing(np.pi))
            & ~((np.abs(norm - np.pi) < 1e-12) & (lead < -1e-12)))
    angle = np.fmod(norm, 2.0 * np.pi)
    over = angle > np.pi
    angle = np.where(over, 2.0 * np.pi - angle, angle)
    # -axis leads negative where axis leads positive.
    flip = over != ((np.abs(angle - np.pi) < 1e-12) & np.where(over, lead > 1e-12, lead < -1e-12))
    return np.where(kept, aa, np.where(angle < 1e-12, 0.0, np.where(flip, -axis, axis) * angle))


def _leading_component(axis):
    """The at-pi sign rule's test: the first component of each axis (..., 3)
    beyond 1e-12 in magnitude, as (..., 1); the first component if none is."""
    return np.take_along_axis(axis, np.argmax(np.abs(axis) > 1e-12, axis=-1)[..., None], -1)


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
    ``Jr = I - c1 [aa]x + c2 [aa]x^2 = (1 - c2 a^2) I - c1 [aa]x + c2 aa aa^T``
    with ``c1 = (1 - cos a) / a^2`` and ``c2 = (a - sin a) / a^3``, as the
    coefficients' Taylor series below a = 1e-3.  Each vector's matrix has
    the bits of its own call.
    """
    v = _kernels.components(np.asarray(aa, dtype=np.float64))
    a2 = (v * v).sum(axis=0)
    a = np.sqrt(a2)
    small = a < 1e-3
    safe = np.where(small, 1.0, a)
    c1 = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    c2 = np.where(small, 1.0 / 6.0 - a2 / 120.0, (safe - np.sin(safe)) / safe ** 3)
    out = (v[:, None] * (c2 * v)).reshape((9,) + a.shape)
    out[::4] += 1.0 - c2 * a2
    _kernels.add_cross(out, -c1 * v)
    return _kernels.matrices(out)


def is_rotation(m):
    """Whether `m` is (..., 3, 3) and each matrix in it is a finite rotation
    within `ROTATION_INPUT_TOL` (orthonormality and determinant)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return bool(np.all(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)) <= ROTATION_INPUT_TOL)
                and np.all(np.abs(np.linalg.det(m) - 1.0) <= ROTATION_INPUT_TOL))


def rotation_to_axis_angle(r):
    """Canonical axis-angle vectors (..., 3) of rotation matrices `r` (..., 3, 3).

    Raises InvalidRotationError if any matrix fails orthonormality by more
    than 1e-6.
    """
    r = np.asarray(r, dtype=np.float64)
    if not is_rotation(r):
        raise InvalidRotationError("matrix is not a rotation within tolerance")
    # Markley (J. Guid. Control Dyn., 2008): K = 4 q q^T for the unit
    # quaternion q = (v, w) of R, so the column of K with the largest
    # diagonal entry is the best-conditioned multiple of q at every angle.
    # The axis and the angle 2 atan2(|v|, w) need only its direction.
    tr = np.trace(r, axis1=-2, axis2=-1)[..., None, None]
    skew = np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                     r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    K = np.empty(r.shape[:-2] + (4, 4))
    K[..., :3, :3] = r + np.swapaxes(r, -1, -2) + (1.0 - tr) * np.eye(3)
    K[..., :3, 3] = K[..., 3, :3] = skew
    K[..., 3, 3] = 1.0 + tr[..., 0, 0]
    k = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, k[..., None, None], -1)[..., 0]
    q = np.where(q[..., 3:] < 0.0, -q, q)
    v = q[..., :3]
    s = np.linalg.norm(v, axis=-1, keepdims=True)
    axis = np.divide(v, s, out=np.zeros_like(v), where=s > 0)
    return canonicalize(axis * (2.0 * np.arctan2(s, q[..., 3:])))
