import numpy as np
import pytest

from mocapkit.errors import DimensionError
from mocapkit.metrics import (RANGE_2D_PX, RANGE_3D_MM, PckCurve,
                              _joint_errors, auc, loss_2d, loss_3d, loss_reg, loss_theta,
                              overall_loss, pck, pck_curve)


def brute_force_pck(pred, gt, threshold, root_relative=False):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if root_relative:
        pred = pred - pred[0]
        gt = gt - gt[0]
    hits = 0
    flat_p = pred.reshape(-1, pred.shape[-1])
    flat_g = gt.reshape(-1, gt.shape[-1])
    for p, g in zip(flat_p, flat_g):
        if np.sqrt(((p - g) ** 2).sum()) < threshold:
            hits += 1
    return hits / flat_p.shape[0]


def test_pck_matches_brute_force(rng):
    for _ in range(50):
        k = int(rng.integers(2, 30))
        pred = rng.normal(scale=10.0, size=(k, 3))
        gt = pred + rng.normal(scale=5.0, size=(k, 3))
        t = float(rng.uniform(0.5, 20.0))
        assert pck(pred, gt, t) == brute_force_pck(pred, gt, t)
        assert pck(pred, gt, t, alignment="root-relative") == brute_force_pck(
            pred, gt, t, root_relative=True)


@pytest.mark.parametrize("alignment", ["none", "root-relative"])
def test_stacked_errors_are_the_per_frame_errors(rng, alignment):
    pred = rng.normal(scale=10.0, size=(5, 7, 3))
    gt = pred + rng.normal(scale=5.0, size=(5, 7, 3))
    per_frame = np.concatenate([_joint_errors(p, g, alignment) for p, g in zip(pred, gt)])
    np.testing.assert_array_equal(_joint_errors(pred, gt, alignment), per_frame)


def test_pck_strict_inequality_at_threshold():
    pred = np.array([[0.0, 0.0, 0.0]])
    gt = np.array([[3.0, 4.0, 0.0]])  # error exactly 5
    assert pck(pred, gt, 5.0) == 0.0
    assert pck(pred, gt, 5.0 + 1e-9) == 1.0


def test_pck_perfect_and_empty_hit():
    pts = np.arange(12.0).reshape(4, 3)
    assert pck(pts, pts, 1e-9) == 1.0
    assert pck(pts, pts + 100.0, 1.0) == 0.0


def test_pck_validation():
    pts = np.zeros((3, 3))
    with pytest.raises(DimensionError):
        pck(pts, pts, 0.0)
    with pytest.raises(DimensionError):
        pck(pts, np.zeros((4, 3)), 1.0)
    with pytest.raises(DimensionError):
        pck(pts, pts, 1.0, alignment="procrustes")


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
def test_pck_rejects_a_threshold_that_is_not_finite_and_positive(threshold):
    pts = np.zeros((3, 3))
    with pytest.raises(DimensionError, match="threshold must be positive and finite"):
        pck(pts, pts, threshold)


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0),
                                    (-1.0, 30.0), (30.0, 20.0), (5.0, 5.0)])
def test_pck_curve_rejects_a_range_outside_its_domain(lo, hi):
    pts = np.zeros((3, 3))
    with pytest.raises(DimensionError, match="PCK range must be finite with 0 <= lo < hi"):
        pck_curve(pts, pts, lo, hi)


def test_pck_curve_sampling(rng):
    pred = rng.normal(scale=10.0, size=(20, 3))
    gt = pred + rng.normal(scale=8.0, size=(20, 3))
    curve = pck_curve(pred, gt, 20.0, 50.0)
    assert curve.thresholds.shape == (100,)
    assert curve.thresholds[0] == 20.0 and curve.thresholds[-1] == 50.0
    for t, v in zip(curve.thresholds, curve.values):
        assert v == pck(pred, gt, t)


def test_pck_curve_zero_lower_bound_nudged(rng):
    pred = rng.normal(size=(10, 2))
    curve = pck_curve(pred, pred + 1.0, *RANGE_2D_PX)
    assert curve.thresholds[0] > 0.0
    assert curve.values[0] == 0.0


def test_auc_perfect_prediction_is_one(rng):
    pts3 = rng.normal(scale=100.0, size=(30, 3))
    assert auc(pck_curve(pts3, pts3, *RANGE_3D_MM)) == 1.0
    pts2 = rng.normal(scale=100.0, size=(30, 2))
    # the nudged zero lower bound leaves a ~1e-16 trapezoid rounding residue
    assert auc(pck_curve(pts2, pts2, *RANGE_2D_PX)) == pytest.approx(1.0, abs=1e-12)


def test_auc_matches_trapezoid_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 50))
        t = np.sort(rng.uniform(1.0, 100.0, size=n))
        t += np.arange(n) * 1e-6  # enforce strict ascent
        v = np.sort(rng.uniform(0.0, 1.0, size=n))
        curve = PckCurve(t, v)
        # manual trapezoid sum
        total = 0.0
        for i in range(n - 1):
            total += 0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i])
        assert auc(curve) == pytest.approx(total / (t[-1] - t[0]), abs=1e-12)


def test_auc_constant_curve():
    curve = PckCurve(np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.25, 0.25]))
    assert auc(curve) == pytest.approx(0.25, abs=1e-15)


def test_curve_validation():
    with pytest.raises(DimensionError):
        PckCurve(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(DimensionError):
        PckCurve(np.array([1.0, 2.0]), np.array([0.0, 1.5]))
    with pytest.raises(DimensionError):
        PckCurve(np.array([1.0]), np.array([0.5]))


def test_difference_losses_vanish_iff_equal(rng):
    a = rng.normal(size=(10, 3))
    b = a + rng.normal(scale=0.1, size=(10, 3))
    for loss in (loss_theta, loss_3d, loss_2d):
        assert loss(a, a) == 0.0
        assert loss(a, b) > 0.0


def test_loss_2d_is_squared():
    a = np.zeros((1, 2))
    b = np.array([[3.0, 4.0]])
    assert loss_2d(a, b) == 25.0


def test_loss_reg():
    assert loss_reg(np.array([1.0, -2.0, 2.0])) == 9.0
    assert loss_reg(np.zeros(10)) == 0.0


def test_overall_loss_unit_parts():
    assert overall_loss(1.0, 1.0, 1.0, 1.0) == 120.1


def test_overall_loss_per_term():
    # lambda_theta, lambda_3d, lambda_2d and lambda_reg, each on its own term.
    assert overall_loss(2.0, 0.0, 0.0, 0.0) == 20.0
    assert overall_loss(0.0, 2.0, 0.0, 0.0) == 200.0
    assert overall_loss(0.0, 0.0, 2.0, 0.0) == 20.0
    assert overall_loss(0.0, 0.0, 0.0, 2.0) == 0.2


def test_loss_shape_mismatch(rng):
    with pytest.raises(DimensionError):
        loss_3d(np.zeros((3, 3)), np.zeros((4, 3)))
