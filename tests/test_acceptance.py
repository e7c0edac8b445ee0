"""Acceptance suite: one printed PASS/FAIL line per criterion (run with -s to
see them all; failures always show theirs)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import brute_force_fk, random_tree
from mocapkit import formats
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit.cli import main
from mocapkit.dataprep import (flip_axis_angle, flip_keypoints_2d,
                               motion_blur_kernel, convolve2d,
                               rescale_keypoints)
from mocapkit.fitting import (SMOOTH_KERNEL, FitConfig, KeypointSet2D, fit,
                              fit_jacobian, _ParamVector, _residuals,
                              temporal_smooth)
from mocapkit.integration import BodyPrediction, HandPrediction, WholeBodyParams, copy_paste
from mocapkit.kinematics import forward_kinematics
from mocapkit.metrics import (RANGE_2D_PX, RANGE_3D_MM, auc, loss_2d, loss_3d,
                              loss_reg, loss_theta, overall_loss, pck,
                              pck_curve)
from mocapkit.model import pose_joints, pose_mesh
from mocapkit.rotations import rodrigues, rotation_to_axis_angle


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] {label}: PASS", flush=True)


def render_keypoints(model, params, cam, noise=None, rng=None):
    joints = pose_joints(model, params.pose_w, params.beta_w)[: model.num_joints]
    pts = project(cam, joints)
    if noise is not None:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return KeypointSet2D(pts, np.ones(pts.shape[0]))


def test_criterion_1_kinematics_oracles():
    with criterion("1 kinematics oracle suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(500):
            tree = random_tree(rng, max_joints=20)
            rest = rng.normal(size=(tree.num_joints, 3))
            poses = rng.normal(scale=0.8, size=(tree.num_joints, 3))
            R, t = forward_kinematics(tree, rest, poses)
            oracle = brute_force_fk(tree, rest, poses)
            assert np.abs(R - oracle[:, :3, :3]).max() < 1e-12
            assert np.abs(t - oracle[:, :3, 3]).max() < 1e-12
        mats = Rotation.random(10_000, random_state=np.random.RandomState(2)).as_matrix()
        for R in mats:
            assert np.abs(rodrigues(rotation_to_axis_angle(R)) - R).max() < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_2_gamma_round_trip(toy):
    with criterion("2 global-to-local wrist round trip"):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            body = BodyPrediction(
                rng.normal(scale=0.6, size=3), rng.normal(scale=0.4, size=(21, 3)),
                rng.normal(scale=0.3, size=10),
                WeakPerspectiveCamera.identity())
            hands = {
                side: HandPrediction(
                    side, rng.normal(scale=1.0, size=3),
                    rng.normal(scale=0.4, size=(15, 3)),
                    np.zeros(10), WeakPerspectiveCamera.identity())
                for side in ("left", "right")
            }
            [params] = copy_paste(toy, [(body, hands["left"], hands["right"])])
            R, _ = forward_kinematics(toy.tree, toy.rest_joints(params.beta_w), params.pose_w)
            for side in ("left", "right"):
                wrist = toy.hand_joint_ids[side][0]
                assert np.abs(R[wrist] - rodrigues(hands[side].phi_h)).max() < 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_3_lbs_rigid_binding(toy):
    with criterion("3 rigid-binding skinning"):
        rng = np.random.default_rng(4)
        rigid = np.where(np.isclose(toy.skin_weights.max(axis=1), 1.0))[0]
        joint_of = np.argmax(toy.skin_weights[rigid], axis=1)
        assert rigid.size > 0
        for _ in range(100):
            pose = rng.normal(scale=0.5, size=(52, 3))
            verts, (R, t) = pose_mesh(toy, pose, return_fk=True)
            expected = np.einsum(
                "jab,jb->ja", R[joint_of], toy.template_vertices[rigid]
            ) + t[joint_of]
            assert np.abs(verts[rigid] - expected).max() < 1e-9


def _perturbed_fit(toy, seed, noise):
    rng = np.random.default_rng(seed)
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_pose = np.zeros((52, 3))
    gt_pose[toy.body_joints[1:]] = rng.normal(scale=0.1, size=(21, 3))
    gt_pose[0] = rng.normal(scale=0.1, size=3)
    gt = WholeBodyParams(gt_pose, np.zeros(10), cam)
    kp = render_keypoints(toy, gt, cam, noise=noise, rng=rng)

    init_pose = gt_pose.copy()
    wrists = [toy.hand_joint_ids[side][0] for side in ("left", "right")]
    for wrist in wrists:
        d = rng.normal(size=3)
        init_pose[wrist] += 0.3 * d / np.linalg.norm(d)
    body_nonwrist = np.array([j for j in toy.body_joints[1:] if j not in wrists])
    for joint in rng.choice(body_nonwrist, size=5, replace=False):
        d = rng.normal(size=3)
        init_pose[joint] += 0.1 * d / np.linalg.norm(d)
    init = WholeBodyParams(init_pose, np.zeros(10), cam)
    return fit(toy, init, kp, FitConfig(iterations=20))


def test_criterion_4_synthetic_fit_recovery(toy):
    with criterion("4 synthetic fit recovery"):
        start = time.perf_counter()
        clean = _perturbed_fit(toy, seed=100, noise=None)
        assert clean.final_rms_px < 0.5
        noisy = [_perturbed_fit(toy, seed=200 + s, noise=1.0).final_rms_px
                 for s in range(20)]
        assert np.median(noisy) <= 2.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"


def test_synthetic_fits_converge_without_wasted_trials(toy):
    # Criterion 4's 21 fits, held to tighter bars than the criterion's own.
    clean = _perturbed_fit(toy, seed=100, noise=None)
    assert clean.status == "ok" and clean.final_rms_px < 1e-2
    noisy = [_perturbed_fit(toy, seed=200 + s, noise=1.0) for s in range(20)]
    assert np.median([r.final_rms_px for r in noisy]) <= 1.121
    assert sum(r.rejected_steps for r in [clean] + noisy) <= 150


def test_criterion_5_gradient_check(toy):
    with criterion("5 optimizer gradient check"):
        rng = np.random.default_rng(6)
        config = FitConfig()
        cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
        for _ in range(100):
            anchor = WholeBodyParams(rng.normal(scale=0.2, size=(52, 3)), np.zeros(10), cam)
            kp = render_keypoints(toy, anchor, cam, noise=2.0, rng=rng)
            packer = _ParamVector(toy, anchor, cam, config)

            def residuals(x):
                return _residuals(toy, packer, anchor, kp, config, x)

            x = packer.pack(anchor, cam) + rng.normal(scale=0.01, size=packer.pack(anchor, cam).shape)
            J_opt = fit_jacobian(residuals, x, config.fd_step)
            J_ref = fit_jacobian(residuals, x, 1e-5)  # independent step size
            rel = np.linalg.norm(J_opt - J_ref) / max(np.linalg.norm(J_ref), 1e-12)
            assert rel < 1e-3


def test_criterion_6_smoothing_fixed_points_and_boundaries():
    with criterion("6 temporal smoothing (constants, boundary weights)"):
        rng = np.random.default_rng(7)
        for T in (1, 2, 5, 30):
            c = np.full((T, 4), float(rng.normal()))
            assert np.array_equal(temporal_smooth(c), c)
        # effective smoothing matrix: each column of eye(T) is an impulse
        A = temporal_smooth(np.eye(17))
        assert np.abs(A.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="raw kernel weights sum to 1.1; unit-sum renormalization (needed for "
           "constant preservation) rescales the interior impulse response to "
           "weights / 1.1, so it cannot equal the raw weights exactly",
)
def test_criterion_6_interior_impulse_equals_raw_weights():
    with criterion("6 temporal smoothing (raw-weight impulse response)"):
        seq = np.zeros(9)
        seq[4] = 1.0
        out = temporal_smooth(seq)
        assert np.array_equal(out[2:7], SMOOTH_KERNEL[::-1])


def test_criterion_7_metrics_oracles():
    with criterion("7 PCK/AUC oracle agreement"):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(3, 25))
            pred = rng.normal(scale=30.0, size=(k, 3))
            gt = pred + rng.normal(scale=20.0, size=(k, 3))
            t = float(rng.uniform(1.0, 60.0))
            err = np.linalg.norm(pred - gt, axis=1)
            assert abs(pck(pred, gt, t) - (err < t).mean()) < 1e-4
            curve = pck_curve(pred, gt, 20.0, 50.0)
            oracle = np.trapezoid(curve.values, curve.thresholds) / 30.0
            assert abs(auc(curve) - oracle) < 1e-4
        pts3 = rng.normal(scale=100.0, size=(40, 3))
        assert abs(auc(pck_curve(pts3, pts3, *RANGE_3D_MM)) - 1.0) < 1e-9
        pts2 = rng.normal(scale=100.0, size=(40, 2))
        assert abs(auc(pck_curve(pts2, pts2, *RANGE_2D_PX)) - 1.0) < 1e-9


def test_criterion_8_loss_formulas():
    with criterion("8 loss formulas"):
        assert overall_loss(1.0, 1.0, 1.0, 1.0) == 120.1
        rng = np.random.default_rng(9)
        a = rng.normal(size=(14, 3))
        b = a + rng.normal(scale=0.1, size=(14, 3))
        for loss in (loss_theta, loss_3d, loss_2d):
            assert loss(a, a) == 0.0
            assert loss(a, b) > 0.0
        assert loss_reg(np.zeros(10)) == 0.0
        assert loss_reg(rng.normal(size=10)) > 0.0


def test_criterion_9_dataprep():
    with criterion("9 dataset harmonization"):
        rng = np.random.default_rng(10)
        # flip involutivity: exact on axis-angles and on grid-subpixel 2D points
        for _ in range(100):
            aa = rng.normal(scale=2.0, size=3)
            assert np.array_equal(flip_axis_angle(flip_axis_angle(aa)), aa)
        pts = np.round(rng.uniform(0, 640, size=(21, 2)) * 8) / 8
        conf = rng.uniform(size=21)
        p1, c1 = flip_keypoints_2d(pts, conf, 640.0)
        p2, c2 = flip_keypoints_2d(p1, c1, 640.0)
        assert np.array_equal(p2, pts) and np.array_equal(c2, conf)
        # flip-conjugation identity
        M = np.diag([-1.0, 1.0, 1.0])
        for _ in range(1000):
            aa = rng.normal(scale=1.5, size=3)
            assert np.abs(rodrigues(flip_axis_angle(aa)) - M @ rodrigues(aa) @ M).max() < 1e-9
        # knuckle rescaling
        for _ in range(100):
            joints = rng.normal(scale=0.1, size=(21, 3))
            ref = float(rng.uniform(0.01, 0.1))
            out = rescale_keypoints(joints, ref)
            assert abs(np.linalg.norm(out[4] - out[5]) - ref) / ref < 1e-12
        # blur kernels
        for _ in range(20):
            k = motion_blur_kernel(float(rng.uniform(1, 12)), float(rng.uniform(0, 7))).k
            assert abs(k.sum() - 1.0) < 1e-9
        img = rng.uniform(size=(16, 16))
        assert np.abs(convolve2d(img, motion_blur_kernel(1, 0.0)) - img).max() < 1e-15


def test_criterion_10_cli_end_to_end(tmp_path):
    with criterion("10 end-to-end CLI pipeline"):
        start = time.perf_counter()
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            asset = d / "toy.json"
            assert main(["gen-toy", str(asset), "--seed", "0"]) == 0
            model = formats.load_model(asset)

            rng = np.random.default_rng(11)
            body = BodyPrediction(
                rng.normal(scale=0.2, size=3), rng.normal(scale=0.2, size=(21, 3)),
                np.zeros(10), WeakPerspectiveCamera(300.0, np.array([128.0, 128.0])))
            left = HandPrediction("left", rng.normal(size=3),
                                  rng.normal(scale=0.2, size=(15, 3)),
                                  np.zeros(10), WeakPerspectiveCamera.identity())
            right = HandPrediction("right", rng.normal(size=3),
                                   rng.normal(scale=0.2, size=(15, 3)),
                                   np.zeros(10), WeakPerspectiveCamera.identity())
            pred = d / "pred.json"
            formats.write_json(pred, formats.predictions_to_doc([(0, body, left, right)]))
            fused = d / "fused.json"
            assert main(["integrate", str(asset), str(pred), str(fused)]) == 0

            gt_joints = d / "gt_joints.json"
            assert main(["pose", str(asset), str(fused), str(gt_joints)]) == 0

            [(_, joints)] = formats.joints_from_doc(formats.read_json(gt_joints))
            cam = body.cam_b
            kp = d / "kp.json"
            formats.write_json(kp, formats.keypoints_to_doc([(0, project(cam, joints), None)]))
            fit_out = d / "fit.json"
            assert main(["fit", str(asset), str(fused), str(kp), str(fit_out),
                         "--iters", "5"]) == 0

            fit_joints = d / "fit_joints.json"
            assert main(["pose", str(asset), str(fit_out), str(fit_joints)]) == 0
            report = d / "report.json"
            assert main(["eval", str(fit_joints), str(gt_joints), str(report),
                         "--metric", "2d", "--range", "1", "30"]) == 0
            assert formats.read_json(report)["auc"] > 0.99

            # byte-identical file round trips
            fused_doc = formats.read_json(fused)
            rewritten = d / "fused2.json"
            formats.write_json(rewritten, formats.params_to_doc(
                formats.params_from_doc(fused_doc)))
            assert rewritten.read_bytes() == fused.read_bytes()
            outputs.append([(d / f).read_bytes() for f in
                            ("toy.json", "fused.json", "gt_joints.json",
                             "fit.json", "report.json")])
        assert outputs[0] == outputs[1]
        assert time.perf_counter() - start < 30.0
