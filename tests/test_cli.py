import json

import numpy as np
import pytest

from mocapkit import formats
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit.cli import main
from mocapkit.integration import BodyPrediction, HandPrediction, WholeBodyParams
from mocapkit.model import FRAME_GROUP, ShapeParams, pose_joints
from mocapkit.rotations import canonicalize, rodrigues


@pytest.fixture
def asset(tmp_path):
    path = tmp_path / "toy.json"
    assert main(["gen-toy", str(path), "--seed", "0"]) == 0
    return path


def params_file(tmp_path, model, name, frames):
    path = tmp_path / name
    formats.write_json(path, formats.params_to_doc(frames))
    return path


def test_gen_toy_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-toy", str(a), "--seed", "3"]) == 0
    assert main(["gen-toy", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["gen-toy", str(c), "--seed", "4"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_toy_size_classes(tmp_path):
    small = tmp_path / "small.json"
    large = tmp_path / "large.json"
    assert main(["gen-toy", str(small)]) == 0
    assert main(["gen-toy", str(large), "--size-class", "large"]) == 0
    assert (formats.load_model(large).num_vertices
            > formats.load_model(small).num_vertices)


def test_pose_outputs_joints_and_obj(asset, tmp_path, rng):
    model = formats.load_model(asset)
    params = WholeBodyParams(
        rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=(51, 3)),
        ShapeParams.zeros(10), WeakPerspectiveCamera.identity())
    pfile = params_file(tmp_path, model, "params.json", [(0, params, None)])
    joints_out = tmp_path / "joints.json"
    obj = tmp_path / "mesh.obj"
    assert main(["pose", str(asset), str(pfile), str(joints_out), "--obj", str(obj)]) == 0
    [(i, joints)] = formats.joints_from_doc(formats.read_json(joints_out))
    assert i == 0 and joints.shape == (52, 3)
    expected = pose_joints(model, params.pose(), params.beta_w)[:52]
    np.testing.assert_allclose(joints, expected, atol=1e-12)
    lines = obj.read_text().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == model.num_vertices
    assert sum(ln.startswith("f ") for ln in lines) == model.faces.shape[0]


@pytest.mark.parametrize("obj_name", ["mesh", "dir.obj.d/mesh.obj"])
def test_pose_obj_names_one_file_per_frame(asset, tmp_path, rng, obj_name):
    model = formats.load_model(asset)
    frames = [(i, WholeBodyParams(rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=(51, 3)),
                                  ShapeParams.zeros(10), WeakPerspectiveCamera.identity()), None)
              for i in (0, 7)]
    pfile = params_file(tmp_path, model, "params.json", frames)
    obj = tmp_path / obj_name
    obj.parent.mkdir(exist_ok=True)
    assert main(["pose", str(asset), str(pfile), str(tmp_path / "joints.json"), "--obj", str(obj)]) == 0
    written = sorted(p.name for p in obj.parent.iterdir() if p.name.startswith(obj.stem))
    assert written == [f"{obj.stem}_000000{obj.suffix}", f"{obj.stem}_000007{obj.suffix}"]


def test_integrate_end_to_end(asset, tmp_path, rng):
    model = formats.load_model(asset)
    body = BodyPrediction(rng.normal(scale=0.2, size=3), rng.normal(scale=0.2, size=(21, 3)),
                          ShapeParams.zeros(10), WeakPerspectiveCamera(100.0, np.zeros(2)))
    left = HandPrediction("left", rng.normal(size=3), rng.normal(scale=0.2, size=(15, 3)),
                          ShapeParams.zeros(10), WeakPerspectiveCamera.identity())
    pred_path = tmp_path / "pred.json"
    formats.write_json(pred_path, formats.predictions_to_doc([(0, body, left, None)]))
    out = tmp_path / "fused.json"
    assert main(["integrate", str(asset), str(pred_path), str(out)]) == 0
    [(_, fused, _)] = formats.params_from_doc(formats.read_json(out))
    assert fused.theta_w.shape == (51, 3)
    np.testing.assert_array_equal(fused.phi_w, body.phi_b)


def random_params(rng):
    return WholeBodyParams(rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=(51, 3)),
                           ShapeParams(rng.normal(scale=0.1, size=10)), WeakPerspectiveCamera.identity())


POSE_FAULTS = {
    "theta_rows": (lambda p: WholeBodyParams(p.phi_w, p.theta_w[:50], p.beta_w, p.cam_w),
                   "pose has wrong number of joints for this model"),
    "ragged_theta": (lambda p: WholeBodyParams(p.phi_w, np.vstack([p.theta_w, p.theta_w[:1]]),
                                               p.beta_w, p.cam_w),
                     "pose has wrong number of joints for this model"),
    "beta_length": (lambda p: WholeBodyParams(p.phi_w, p.theta_w, ShapeParams.zeros(9), p.cam_w),
                    "beta must have length 10"),
}


@pytest.mark.parametrize("fault", sorted(POSE_FAULTS))
def test_pose_checks_every_frame_before_writing(asset, tmp_path, capsys, rng, fault):
    # The bad frame is the last of more frames than one batched group holds.
    spoil, message = POSE_FAULTS[fault]
    frames = [(2 * k, random_params(rng), None) for k in range(FRAME_GROUP + 2)]
    i, params, _ = frames[-1]
    frames[-1] = (i, spoil(params), None)
    pfile = params_file(tmp_path, None, "params.json", frames)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["pose", str(asset), str(pfile), str(out / "joints.json"),
                 "--obj", str(out / "mesh.obj")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DimensionError", "message": f"frame {i}: {message}"}
    assert list(out.iterdir()) == []


def _spoil(record, key, field, value):
    record[key][field] = value


INTEGRATE_FAULTS = {
    "body_theta_rows": (lambda r: _spoil(r, "body", "theta", r["body"]["theta"][:20]), "SchemaError",
                        "body prediction must have phi (3,) and theta (21, 3)"),
    "body_beta_length": (lambda r: _spoil(r, "body", "beta", r["body"]["beta"][:9]), "DimensionError",
                         "beta must have length 10"),
    "hand_theta_rows": (lambda r: _spoil(r, "left_hand", "theta", r["left_hand"]["theta"][:14]),
                        "SchemaError", "hand prediction must have phi (3,) and theta (15, 3)"),
    "hand_phi": (lambda r: _spoil(r, "right_hand", "phi", [0.0, 1.0]), "SchemaError",
                 "hand prediction must have phi (3,) and theta (15, 3)"),
    "hand_side": (lambda r: _spoil(r, "left_hand", "side", "right"), "MocapkitError",
                  "prediction passed as left hand has side 'right'"),
}


@pytest.mark.parametrize("fault", sorted(INTEGRATE_FAULTS))
def test_integrate_checks_every_frame_before_writing(asset, tmp_path, capsys, rng, fault):
    spoil, kind, message = INTEGRATE_FAULTS[fault]
    frames = []
    for k in range(FRAME_GROUP + 2):
        body = BodyPrediction(rng.normal(scale=0.2, size=3), rng.normal(scale=0.2, size=(21, 3)),
                              ShapeParams(rng.normal(scale=0.1, size=10)), WeakPerspectiveCamera.identity())
        hands = [HandPrediction(side, rng.normal(size=3), rng.normal(scale=0.2, size=(15, 3)),
                                ShapeParams.zeros(10), WeakPerspectiveCamera.identity())
                 for side in ("left", "right")]
        frames.append((3 * k + 1, body, *hands))
    doc = formats.predictions_to_doc(frames)
    spoil(doc["frames"][-1])
    pred_path, out = tmp_path / "pred.json", tmp_path / "fused.json"
    formats.write_json(pred_path, doc)
    assert main(["integrate", str(asset), str(pred_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": kind, "message": f"frame {frames[-1][0]}: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("command", ["pose", "integrate"])
def test_empty_input_writes_an_empty_document(asset, tmp_path, command):
    if command == "pose":
        src, fmt = params_file(tmp_path, None, "params.json", []), "mocapkit-joints"
        extra = ["--obj", str(tmp_path / "mesh.obj")]
    else:
        src, fmt, extra = tmp_path / "pred.json", "mocapkit-params", []
        formats.write_json(src, formats.predictions_to_doc([]))
    out = tmp_path / "out.json"
    assert main([command, str(asset), str(src), str(out)] + extra) == 0
    assert json.loads(out.read_text()) == {"format": fmt, "schema_version": 1, "frames": []}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([src.name, out.name, "toy.json"])


def test_fit_and_eval_round_trip(asset, tmp_path, rng):
    model = formats.load_model(asset)
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_theta = np.zeros((51, 3))
    gt_theta[:5] = rng.normal(scale=0.15, size=(5, 3))
    gt = WholeBodyParams(np.zeros(3), gt_theta, ShapeParams.zeros(10), cam)
    joints = pose_joints(model, gt.pose(), gt.beta_w)[:52]
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, project(cam, joints), None)]))

    init_theta = gt_theta.copy()
    init_theta[:5] += rng.normal(scale=0.05, size=(5, 3))
    init = WholeBodyParams(np.zeros(3), init_theta, ShapeParams.zeros(10), cam)
    init_path = params_file(tmp_path, model, "init.json", [(0, init, None)])
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(fit_out),
                 "--iters", "8"]) == 0
    [(_, fitted, extras)] = formats.params_from_doc(formats.read_json(fit_out))
    assert extras["cost_trace"].shape == (8,)
    assert extras["final_rms_px"] < 0.5

    # evaluate the fitted joints against ground truth
    fitted_joints = pose_joints(model, fitted.pose(), fitted.beta_w)[:52]
    pred_path = tmp_path / "pred_joints.json"
    gt_path = tmp_path / "gt_joints.json"
    formats.write_json(pred_path, formats.joints_to_doc([(0, fitted_joints)]))
    formats.write_json(gt_path, formats.joints_to_doc([(0, joints)]))
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "curve.csv"
    assert main(["eval", str(pred_path), str(gt_path), str(report_path),
                 "--metric", "2d", "--range", "1", "30", "--csv", str(csv_path)]) == 0
    report = formats.read_json(report_path)
    assert report["auc"] > 0.99
    assert csv_path.read_text().startswith("threshold,pck\n")


def test_fit_rejects_non_finite_keypoint_naming_frame_and_joint(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose(), params.beta_w)[:52])
    bad = pts.copy()
    bad[11, 0] = np.nan
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(3, pts, None), (4, bad, None)]))
    assert "NaN" in kp_path.read_text()
    init_path = params_file(tmp_path, model, "init.json", [(3, params, None), (4, params, None)])
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(tmp_path / "fit.json")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DimensionError"
    assert err["message"].startswith("frame 4: joint 11:")


def test_fit_smooth_multi_frame(asset, tmp_path, rng):
    model = formats.load_model(asset)
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    frames_kp = []
    frames_init = []
    for t in range(3):
        params = WholeBodyParams(np.zeros(3), np.zeros((51, 3)), ShapeParams.zeros(10), cam)
        joints = pose_joints(model, params.pose(), params.beta_w)[:52]
        frames_kp.append((t, project(cam, joints), None))
        frames_init.append((t, params, None))
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(frames_kp))
    init_path = params_file(tmp_path, model, "init.json", frames_init)
    out = tmp_path / "out.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out),
                 "--iters", "2", "--smooth"]) == 0
    assert len(formats.params_from_doc(formats.read_json(out))) == 3


def test_prep_reorder_and_flip(asset, tmp_path, rng):
    pts = np.round(rng.uniform(0, 100, size=(3, 2)) * 8) / 8
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, pts, np.ones(3))]))
    config_path = tmp_path / "config.json"
    formats.write_json(config_path, {"reorder": [2, 0, 1], "flip_width": 100.0})
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 0
    [(_, prepped, conf)] = formats.keypoints_from_doc(formats.read_json(out))
    assert prepped[0][0] == 100.0 - pts[1][0]
    np.testing.assert_array_equal(conf, np.ones(3))


def test_prep_rescale_3d(tmp_path, rng):
    pts = rng.normal(size=(21, 3))
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, pts, None)]))
    config_path = tmp_path / "config.json"
    formats.write_json(config_path, {"rescale_reference": 0.03})
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 0
    [(_, prepped, _)] = formats.keypoints_from_doc(formats.read_json(out))
    assert np.linalg.norm(prepped[4] - prepped[5]) == pytest.approx(0.03, rel=1e-9)


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["pose", str(tmp_path / "nope.json"), "x", "y"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "OSError"


def test_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    formats.write_json(bad, {"format": "wrong", "schema_version": 1})
    assert main(["pose", str(bad), "x", "y"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaError"


def test_fit_rejects_keypoint_count_mismatch_naming_the_frame(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose(), params.beta_w)[:40])
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(7, pts, None)]))
    init_path = params_file(tmp_path, model, "init.json", [(7, params, None)])
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(tmp_path / "fit.json")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DimensionError"
    assert err["message"] == "frame 7: keypoint layout has 40 joints, model has 52"


FIT_FAULTS = {
    "zero_confidence": ("FitError", "all keypoint confidences are zero; the fit is unconstrained"),
    "nan_init": ("FitError", "initial cost is not finite"),
    "wrong_rows": ("DimensionError", "pose has wrong number of joints for this model"),
    "wrong_betas": ("DimensionError", "beta must have length 10"),
}


@pytest.mark.parametrize("fault", sorted(FIT_FAULTS))
@pytest.mark.parametrize("indices", [(0, 1, 2), (3, 5, 8)])
def test_fit_error_names_the_frame(asset, tmp_path, capsys, indices, fault):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose(), params.beta_w)[:52])
    conf = np.ones(52)
    bad = params
    if fault == "zero_confidence":
        conf = np.zeros(52)
    elif fault == "nan_init":
        theta = params.theta_w.copy()
        theta[4, 1] = np.nan
        bad = WholeBodyParams(params.phi_w, theta, params.beta_w, params.cam_w)
    elif fault == "wrong_rows":
        bad = WholeBodyParams(params.phi_w, params.theta_w[:-1], params.beta_w, params.cam_w)
    else:
        bad = WholeBodyParams(params.phi_w, params.theta_w, ShapeParams.zeros(9), params.cam_w)
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(
        [(indices[0], pts, None), (indices[1], pts, None), (indices[2], pts, conf)]))
    init_path = params_file(tmp_path, model, "init.json",
                            [(indices[0], params, None), (indices[1], params, None),
                             (indices[2], bad, None)])
    out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    kind, message = FIT_FAULTS[fault]
    assert err["type"] == kind
    assert err["message"] == f"frame {indices[2]}: {message}"
    assert not out.exists()


def test_fit_rejects_3d_keypoints_naming_the_frame(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    joints = pose_joints(model, params.pose(), params.beta_w)[:52]
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(
        [(2, project(params.cam_w, joints), None), (5, joints, None)]))
    init_path = params_file(tmp_path, model, "init.json", [(2, params, None), (5, params, None)])
    out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": "frame 5: fit requires 2D keypoints"}
    assert not out.exists()


PREP_FAULTS = {
    # config, the good frames' dimension, the bad frame's points, error
    "flip_3d": ({"flip_width": 100.0}, 2, np.ones((6, 3)),
                ("SchemaError", "flipping requires 2D keypoints")),
    "rescale_2d": ({"rescale_reference": 0.03}, 3, np.ones((6, 2)),
                   ("SchemaError", "rescaling requires 3D keypoints")),
    "short_frame": ({"reorder": [5, 4, 3, 2, 1, 0]}, 2, np.ones((5, 2)),
                    ("DimensionError", "joint map does not cover the input joints")),
    "knuckle": ({"rescale_reference": 0.03}, 3, np.arange(18.0).reshape(6, 3) % 3,
                ("DegenerateKeypointsError", "knuckle joints are coincident")),
}


@pytest.mark.parametrize("fault", sorted(PREP_FAULTS))
def test_prep_error_names_the_frame(tmp_path, capsys, rng, fault):
    config, dim, bad, (kind, message) = PREP_FAULTS[fault]
    good = rng.uniform(0, 100, size=(6, dim))
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(
        [(0, good, None), (4, good, None), (9, bad, None)]))
    config_path = tmp_path / "config.json"
    formats.write_json(config_path, config)
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": kind, "message": f"frame 9: {message}"}
    assert not out.exists()


def test_fit_smooth_follows_a_rotation_through_pi(asset, tmp_path):
    # The global orientation turns about z from 166 to 195 degrees; its
    # canonical axis-angle flips sign at 180, which smoothing must not average.
    model = formats.load_model(asset)
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    frames_kp, frames_init = [], []
    for t, deg in enumerate(np.linspace(166.0, 195.0, 30)):
        phi = canonicalize(np.radians(deg) * np.array([0.0, 0.0, 1.0]))
        params = WholeBodyParams(phi, np.zeros((51, 3)), ShapeParams.zeros(10), cam)
        joints = pose_joints(model, params.pose(), params.beta_w)[:52]
        frames_kp.append((t, project(cam, joints), None))
        frames_init.append((t, params, None))
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(frames_kp))
    init_path = params_file(tmp_path, model, "init.json", frames_init)
    raw_path, smooth_path = tmp_path / "raw.json", tmp_path / "smooth.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(raw_path), "--iters", "2"]) == 0
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(smooth_path),
                 "--iters", "2", "--smooth"]) == 0
    raw = formats.params_from_doc(formats.read_json(raw_path))
    smooth = formats.params_from_doc(formats.read_json(smooth_path))
    for (_, r, _), (_, s, _) in zip(raw, smooth):
        assert np.linalg.norm(s.phi_w) <= np.pi
        cos = (np.trace(rodrigues(r.phi_w).T @ rodrigues(s.phi_w)) - 1.0) / 2.0
        assert np.degrees(np.arccos(min(cos, 1.0))) < 1.0


EVAL_FAULTS = {
    "no_frames": ([], [], "no frames to evaluate"),
    "pred_joint_count": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3))), (5, np.zeros((3, 3)))],
                         [(0, np.zeros((4, 3))), (2, np.zeros((4, 3))), (5, np.zeros((4, 3)))],
                         "pred frame 5: joints are (3, 3), not (4, 3)"),
    "gt_joint_count": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3)))],
                       [(0, np.zeros((4, 3))), (2, np.zeros((6, 3)))],
                       "gt frame 2: joints are (6, 3), not (4, 3)"),
}


@pytest.mark.parametrize("fault", sorted(EVAL_FAULTS))
def test_eval_rejects_frames_it_cannot_stack(tmp_path, capsys, fault):
    pred, gt, message = EVAL_FAULTS[fault]
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    formats.write_json(pred_path, formats.joints_to_doc(pred))
    formats.write_json(gt_path, formats.joints_to_doc(gt))
    out = tmp_path / "report.json"
    assert main(["eval", str(pred_path), str(gt_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": message}
    assert not out.exists()
