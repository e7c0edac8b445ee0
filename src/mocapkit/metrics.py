"""Training-loss formulas and PCK/AUC evaluation metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# 3D thresholds in mm and 2D thresholds in px used for benchmark-style AUC.
RANGE_3D_MM = (20.0, 50.0)
RANGE_2D_PX = (0.0, 30.0)
NUM_THRESHOLDS = 100

# The weights of the four terms of `overall_loss`.
LAMBDA_THETA = 10.0
LAMBDA_3D = 100.0
LAMBDA_2D = 10.0
LAMBDA_REG = 0.1


@dataclass(frozen=True)
class PckCurve:
    thresholds: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.shape != v.shape or t.shape[0] < 2:
            raise DimensionError("curve needs >= 2 matching thresholds and values")
        if np.any(np.diff(t) <= 0):
            raise DimensionError("thresholds must be strictly ascending")
        if np.any(v < 0) or np.any(v > 1):
            raise DimensionError("PCK values must lie in [0, 1]")


def _sq_diff(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    d = pred - gt
    return float((d * d).sum())


def loss_theta(pred, gt):
    """Sum of squared axis-angle differences."""
    return _sq_diff(pred, gt)


def loss_3d(pred, gt):
    """Sum of squared 3D joint differences."""
    return _sq_diff(pred, gt)


def loss_2d(pred, gt):
    """Sum of squared 2D keypoint differences."""
    return _sq_diff(pred, gt)


def loss_reg(beta):
    beta = np.asarray(beta, dtype=np.float64)
    return float((beta * beta).sum())


def overall_loss(l_theta, l_3d, l_2d, l_reg):
    return LAMBDA_THETA * l_theta + LAMBDA_3D * l_3d + LAMBDA_2D * l_2d + LAMBDA_REG * l_reg


def _joint_errors(pred, gt, alignment):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if alignment == "root-relative":
        # Each frame's joints relative to that frame's first joint.
        pred = pred - pred[..., :1, :]
        gt = gt - gt[..., :1, :]
    elif alignment != "none":
        raise DimensionError(f"unknown alignment mode {alignment!r}")
    return np.linalg.norm(pred - gt, axis=-1).ravel()


def pck(pred, gt, threshold, alignment="none"):
    """Fraction of joints with Euclidean error strictly below the threshold."""
    if not 0 < threshold < np.inf:
        raise DimensionError("threshold must be positive and finite")
    err = _joint_errors(pred, gt, alignment)
    return float((err < threshold).mean())


def pck_curve(pred, gt, lo, hi, alignment="none"):
    """PCK sampled at `NUM_THRESHOLDS` evenly spaced thresholds over [lo, hi] inclusive.

    The bounds must be finite with ``0 <= lo < hi``; a zero lower bound is
    nudged to a tiny positive value so every threshold stays valid.
    """
    if not 0 <= lo < hi < np.inf:
        raise DimensionError("PCK range must be finite with 0 <= lo < hi")
    thresholds = np.linspace(lo, hi, NUM_THRESHOLDS)
    if thresholds[0] <= 0:
        thresholds[0] = min(1e-12, hi / 1e6)
    err = _joint_errors(pred, gt, alignment)
    values = np.array([(err < t).mean() for t in thresholds])
    return PckCurve(thresholds, values)


def auc(curve):
    """Trapezoidal integral of PCK over threshold, normalized by the range."""
    span = curve.thresholds[-1] - curve.thresholds[0]
    return float(np.trapezoid(curve.values, curve.thresholds) / span)
