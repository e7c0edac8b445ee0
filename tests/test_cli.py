import ast
import glob
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from conftest import write_input

import mocapkit
from mocapkit import fitting, formats
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit.cli import build_parser, main
from mocapkit.integration import BodyPrediction, HandPrediction, WholeBodyParams
from mocapkit.model import FRAME_GROUP, pose_joints
from mocapkit.rotations import canonicalize, rodrigues


@pytest.fixture
def asset(tmp_path):
    path = tmp_path / "toy.json"
    assert main(["gen-toy", str(path), "--seed", "0"]) == 0
    return path


def params_file(tmp_path, model, name, frames):
    path = tmp_path / name
    write_input(path, formats.params_to_doc(frames))
    return path


def test_cli_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the tests alone.
    src = os.path.dirname(os.path.dirname(mocapkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, mocapkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_sources_parse_at_the_oldest_supported_python():
    # 3.11-only syntax fails here, not first on a CI leg of the oldest Python.
    package = os.path.dirname(mocapkit.__file__)
    with open(os.path.join(package, "..", "..", "pyproject.toml"), encoding="utf-8") as f:
        major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', f.read()).groups()
    sources = sorted(glob.glob(os.path.join(package, "*.py")))
    assert sources
    for path in sources:
        with open(path, encoding="utf-8") as f:
            ast.parse(f.read(), path, feature_version=(int(major), int(minor)))


def test_sources_use_every_name_they_import():
    # An import that a refactor leaves behind fails here.  The package's
    # __init__ imports names to re-export them, so it is exempt.
    package = os.path.dirname(mocapkit.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.basename(path)}:{node.lineno} {name}"
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in (a.asname or a.name.split(".")[0] for a in node.names)
                   if name not in used]
    assert unused == []


def test_readme_python_blocks_run():
    # The README's examples must name only what the package still has.
    package = os.path.dirname(mocapkit.__file__)
    with open(os.path.join(package, "..", "..", "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.MULTILINE | re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    # A renamed or removed option fails here before it fails a reader.
    package = os.path.dirname(mocapkit.__file__)
    with open(os.path.join(package, "..", "..", "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```bash\n(.*?)^```", f.read(), re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "mocapkit"]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)


def test_gen_toy_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-toy", str(a), "--seed", "3"]) == 0
    assert main(["gen-toy", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["gen-toy", str(c), "--seed", "4"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_toy_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "toy.json"
    assert main(["gen-toy", str(out), "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DimensionError", "message": "seed must be >= 0"}
    assert not out.exists()


def test_gen_toy_size_classes(tmp_path):
    small = tmp_path / "small.json"
    large = tmp_path / "large.json"
    assert main(["gen-toy", str(small)]) == 0
    assert main(["gen-toy", str(large), "--size-class", "large"]) == 0
    assert (formats.load_model(large).num_vertices
            > formats.load_model(small).num_vertices)


def test_pose_outputs_joints_and_obj(asset, tmp_path, rng):
    model = formats.load_model(asset)
    params = WholeBodyParams(rng.normal(scale=0.1, size=(52, 3)), np.zeros(10),
                             WeakPerspectiveCamera.identity())
    pfile = params_file(tmp_path, model, "params.json", [(0, params, None)])
    joints_out = tmp_path / "joints.json"
    obj = tmp_path / "mesh.obj"
    assert main(["pose", str(asset), str(pfile), str(joints_out), "--obj", str(obj)]) == 0
    [(i, joints)] = formats.joints_from_doc(formats.read_json(joints_out))
    assert i == 0 and joints.shape == (52, 3)
    expected = pose_joints(model, params.pose_w, params.beta_w)[:52]
    np.testing.assert_allclose(joints, expected, atol=1e-12)
    lines = obj.read_text().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == model.num_vertices
    assert sum(ln.startswith("f ") for ln in lines) == model.faces.shape[0]


@pytest.mark.parametrize("obj_name", ["mesh", "dir.obj.d/mesh.obj"])
def test_pose_obj_names_one_file_per_frame(asset, tmp_path, rng, obj_name):
    model = formats.load_model(asset)
    frames = [(i, WholeBodyParams(rng.normal(scale=0.1, size=(52, 3)), np.zeros(10),
                                  WeakPerspectiveCamera.identity()), None)
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
                          np.zeros(10), WeakPerspectiveCamera(100.0, np.zeros(2)))
    left = HandPrediction("left", rng.normal(size=3), rng.normal(scale=0.2, size=(15, 3)),
                          np.zeros(10), WeakPerspectiveCamera.identity())
    pred_path = tmp_path / "pred.json"
    formats.write_json(pred_path, formats.predictions_to_doc([(0, body, left, None)]))
    out = tmp_path / "fused.json"
    assert main(["integrate", str(asset), str(pred_path), str(out)]) == 0
    [(_, fused, _)] = formats.params_from_doc(formats.read_json(out))
    assert fused.pose_w.shape == (52, 3)
    np.testing.assert_array_equal(fused.pose_w[0], body.phi_b)


def random_params(rng):
    return WholeBodyParams(rng.normal(scale=0.1, size=(52, 3)),
                           rng.normal(scale=0.1, size=10), WeakPerspectiveCamera.identity())


def _with_nan(values, index):
    values = np.array(values, dtype=np.float64)
    values[index] = np.nan
    return values


POSE_FAULTS = {
    "theta_rows": (lambda p: WholeBodyParams(p.pose_w[:51], p.beta_w, p.cam_w),
                   "pose must be (52, 3), got (51, 3)"),
    "ragged_theta": (lambda p: WholeBodyParams(np.vstack([p.pose_w, p.pose_w[1:2]]),
                                               p.beta_w, p.cam_w),
                     "pose must be (52, 3), got (53, 3)"),
    "beta_length": (lambda p: WholeBodyParams(p.pose_w, np.zeros(9), p.cam_w),
                    "beta must have length 10"),
    "nan_theta": (lambda p: WholeBodyParams(_with_nan(p.pose_w, (5, 1)), p.beta_w, p.cam_w),
                  "phi and theta must be finite"),
    "inf_phi": (lambda p: WholeBodyParams(np.vstack([[0.0, np.inf, 0.0], p.pose_w[1:]]),
                                          p.beta_w, p.cam_w),
                "phi and theta must be finite"),
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
    "hand_beta_empty": (lambda r: _spoil(r, "left_hand", "beta", []), "DimensionError",
                        "beta must have length 10"),
    "hand_beta_length": (lambda r: _spoil(r, "right_hand", "beta", r["right_hand"]["beta"][:9]),
                         "DimensionError", "beta must have length 10"),
    "body_theta_nan": (lambda r: r["body"]["theta"][3].__setitem__(1, np.nan), "SchemaError",
                       "body prediction phi and theta must be finite"),
    "hand_phi_nan": (lambda r: _spoil(r, "right_hand", "phi", [0.0, np.nan, 1.0]), "SchemaError",
                     "hand prediction phi and theta must be finite"),
    "hand_theta_inf": (lambda r: r["left_hand"]["theta"][7].__setitem__(0, -np.inf), "SchemaError",
                       "hand prediction phi and theta must be finite"),
}


@pytest.mark.parametrize("fault", sorted(INTEGRATE_FAULTS))
def test_integrate_checks_every_frame_before_writing(asset, tmp_path, capsys, rng, fault):
    spoil, kind, message = INTEGRATE_FAULTS[fault]
    frames = []
    for k in range(FRAME_GROUP + 2):
        body = BodyPrediction(rng.normal(scale=0.2, size=3), rng.normal(scale=0.2, size=(21, 3)),
                              rng.normal(scale=0.1, size=10), WeakPerspectiveCamera.identity())
        hands = [HandPrediction(side, rng.normal(size=3), rng.normal(scale=0.2, size=(15, 3)),
                                np.zeros(10), WeakPerspectiveCamera.identity())
                 for side in ("left", "right")]
        frames.append((3 * k + 1, body, *hands))
    doc = formats.predictions_to_doc(frames)
    spoil(doc["frames"][-1])
    pred_path, out = tmp_path / "pred.json", tmp_path / "fused.json"
    write_input(pred_path, doc)
    assert main(["integrate", str(asset), str(pred_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": kind, "message": f"frame {frames[-1][0]}: {message}"}
    assert not out.exists()


def run_on_a_spoilt_asset(asset, tmp_path, command, spoil):
    """Run `command` on one frame with the toy asset's document changed in
    place by `spoil`, and check that it exits 2 and writes no output."""
    model = formats.load_model(asset)
    doc = formats.read_json(asset)
    spoil(doc)
    bad = tmp_path / "bad.json"
    formats.write_json(bad, doc)
    params = WholeBodyParams.identity(model)
    if command == "integrate":
        body = BodyPrediction(np.zeros(3), np.zeros((21, 3)), np.zeros(10),
                              WeakPerspectiveCamera.identity())
        inputs = [tmp_path / "pred.json"]
        formats.write_json(inputs[0], formats.predictions_to_doc([(3, body, None, None)]))
    else:
        pts = project(params.cam_w, pose_joints(model, params.pose_w, params.beta_w)[:52])
        inputs = [params_file(tmp_path, model, "init.json", [(3, params, None)]), tmp_path / "kp.json"]
        formats.write_json(inputs[1], formats.keypoints_to_doc([(3, pts, None)]))
    out = tmp_path / "out.json"
    assert main([command, str(bad)] + [str(p) for p in inputs] + [str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["integrate", "fit"])
def test_a_model_without_both_hands_exits_2(asset, tmp_path, capsys, command):
    run_on_a_spoilt_asset(asset, tmp_path, command, lambda doc: doc["hand_joint_ids"].pop("right"))
    err = json.loads(capsys.readouterr().err)["error"]
    # The error is about the model, not a frame, so it names none.
    assert err == {"type": "DimensionError",
                   "message": "model must declare hand_joint_ids for both sides"}


def add_a_joint(doc):
    """Append a leaf joint under the root that no vertex is skinned to, with a
    one-hot regressor row: 52 posed rows less the 30 finger rows leaves 22 body rows."""
    j = len(doc["parents"])
    doc["parents"].append(0)
    doc["joint_names"].append("extra")
    doc["skin_weights"]["shape"][1] = j + 1
    reg = doc["joint_regressor"]
    reg["triplets"] = ([t for t in reg["triplets"] if t[0] < j] + [[j, 0, 1.0]]
                       + [[r + 1, c, w] for r, c, w in reg["triplets"] if r >= j])
    reg["shape"][0] += 1


# Malformed hand_joint_ids of the toy asset, whose sides are 16 distinct
# non-root joints each, and the message.  Each once gave a traceback, a fit,
# or fused wrists that miss their hands' orientations.
SIXTEEN_A_SIDE = ("hand_joint_ids must give each side 16 joints other than the root: "
                  "the wrist, then 15 finger joints")
HAND_ID_FAULTS = {
    "ten_ids": (lambda left, right: (left[:10], right), SIXTEEN_A_SIDE),
    "empty_side": (lambda left, right: (left, []), SIXTEEN_A_SIDE),
    "root_wrist": (lambda left, right: ([0] + left[1:], right), SIXTEEN_A_SIDE),
    "overlap": (lambda left, right: (left, right[:1] + left[1:2] + right[2:]),
                "hand_joint_ids must name 32 distinct joints"),
    "spine_finger": (lambda left, right: (left[:-1] + [3], right),
                     "hand_joint_ids: hand joint 3 is an ancestor of wrist 20"),
}


@pytest.mark.parametrize("command", ["integrate", "fit"])
@pytest.mark.parametrize("fault", sorted(HAND_ID_FAULTS))
def test_malformed_hand_joint_ids_exit_2(asset, tmp_path, capsys, fault, command):
    spoil, message = HAND_ID_FAULTS[fault]

    def spoil_ids(doc):
        ids = doc["hand_joint_ids"]
        ids["left"], ids["right"] = spoil(ids["left"], ids["right"])

    run_on_a_spoilt_asset(asset, tmp_path, command, spoil_ids)
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DimensionError", "message": message}


def test_integrate_needs_22_body_joints(asset, tmp_path, capsys):
    run_on_a_spoilt_asset(asset, tmp_path, "integrate", add_a_joint)
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DimensionError",
                   "message": "hand_joint_ids leave 22 body rows, but a body prediction carries 21"}


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
    # Besides its output, the command leaves only the asset's sidecar.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [src.name, out.name, "toy.json", "toy.json" + formats.CACHE_SUFFIX])


def test_fit_and_eval_round_trip(asset, tmp_path, rng):
    model = formats.load_model(asset)
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_pose = np.zeros((52, 3))
    gt_pose[1:6] = rng.normal(scale=0.15, size=(5, 3))
    gt = WholeBodyParams(gt_pose, np.zeros(10), cam)
    joints = pose_joints(model, gt.pose_w, gt.beta_w)[:52]
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, project(cam, joints), None)]))

    init_pose = gt_pose.copy()
    init_pose[1:6] += rng.normal(scale=0.05, size=(5, 3))
    init = WholeBodyParams(init_pose, np.zeros(10), cam)
    init_path = params_file(tmp_path, model, "init.json", [(0, init, None)])
    fit_out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(fit_out),
                 "--iters", "8"]) == 0
    [(_, fitted, extras)] = formats.params_from_doc(formats.read_json(fit_out))
    assert extras["cost_trace"].shape == (8,)
    assert extras["final_rms_px"] < 0.5
    assert extras["status"] == "ok" and extras["accepted_steps"] == 8
    assert extras["rejected_steps"] >= 0

    # evaluate the fitted joints against ground truth
    fitted_joints = pose_joints(model, fitted.pose_w, fitted.beta_w)[:52]
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


def test_a_stalled_fit_says_so_in_its_output(asset, tmp_path, monkeypatch):
    # A Jacobian of the wrong sign makes every step climb, and with the damping
    # cap at its floor every iteration stalls at its first trial: nothing
    # moves, and the file says so.
    exact = fitting._ParamVector.jacobian
    monkeypatch.setattr(fitting._ParamVector, "jacobian", lambda objective, x: -exact(objective, x))
    monkeypatch.setattr(fitting, "MAX_DAMPING", fitting.MIN_DAMPING)
    model = formats.load_model(asset)
    init = WholeBodyParams.identity(model)
    kp = project(init.cam_w, pose_joints(model, init.pose_w, init.beta_w)[:52]) + 3.0
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, kp, None), (1, kp, None)]))
    init_path = params_file(tmp_path, model, "init.json", [(0, init, None), (1, init, None)])
    out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out), "--iters", "3"]) == 0
    text = out.read_text()
    assert text.count('"status": "stalled"') == 2
    for _, _, extras in formats.params_from_doc(formats.read_json(out)):
        assert (extras["accepted_steps"], extras["rejected_steps"]) == (0, 3)
    # The fields read back and write out with the same bytes.
    assert formats.canonical_dumps(formats.params_to_doc(
        formats.params_from_doc(formats.read_json(out)))) == text


def test_fit_rejects_non_finite_keypoint_naming_frame_and_joint(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose_w, params.beta_w)[:52])
    bad = pts.copy()
    bad[11, 0] = np.nan
    kp_path = tmp_path / "kp.json"
    write_input(kp_path, formats.keypoints_to_doc([(3, pts, None), (4, bad, None)]))
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
        params = WholeBodyParams(np.zeros((52, 3)), np.zeros(10), cam)
        joints = pose_joints(model, params.pose_w, params.beta_w)[:52]
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


@pytest.mark.parametrize("config", [{"flip_width": 100.0}, {"reorder": [2, 0, 1]},
                                    {"reorder": [2, 0, 1], "flip_width": 100.0}])
def test_prep_keeps_a_null_confidence_null(tmp_path, rng, config):
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, rng.uniform(0, 100, size=(3, 2)), None)]))
    config_path = tmp_path / "config.json"
    formats.write_json(config_path, config)
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 0
    assert formats.read_json(out)["frames"][0]["confidence"] is None


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


MODEL_FAULTS = {
    # the path of a value in the toy asset document, how it is spoilt, and
    # the message, which names the asset's key
    "vertices_2d": (["vertices"], lambda v: [p[:2] for p in v], "vertices must be (N, 3)"),
    "shape_basis_rows": (["shape_basis"], lambda b: b[1:], "shape_basis must be (N, 3, B)"),
    "skin_weights_columns": (["skin_weights", "shape", 1], lambda j: j + 1,
                             "skin_weights must be (N, J)"),
    "regressor_columns": (["joint_regressor", "shape", 1], lambda n: n + 1,
                          "joint_regressor must be (J_reg >= J, N)"),
    "skin_weight_negative": (["skin_weights", "triplets", 0, 2], lambda w: -w,
                             "skin_weights must be nonnegative"),
    "skin_weight_row_sum": (["skin_weights", "triplets", 0, 2], lambda w: w / 2,
                            "skin_weights rows must sum to 1"),
    "regressor_row_sum": (["joint_regressor", "triplets", 0, 2], lambda w: w / 2,
                          "joint_regressor rows must sum to 1"),
    "face_index": (["faces", 0, 0], lambda i: -1, "face indices out of range"),
    "hand_joint_id": (["hand_joint_ids", "left", 0], lambda i: -1,
                      "hand_joint_ids[left] out of range"),
    "fingertip_vertex_id": (["fingertip_vertex_ids", "right", 4], lambda i: -1,
                            "fingertip_vertex_ids[right] out of range"),
    # A NaN passes the row-sum and sign checks, and a cast truncates a fraction.
    "regressor_nan": (["joint_regressor", "triplets", 0, 2], lambda w: float("nan"),
                      "joint_regressor must be finite"),
    "shape_basis_inf": (["shape_basis", 3, 1, 0], lambda b: float("inf"),
                        "shape_basis must be finite"),
    "vertex_nan": (["vertices", 2, 0], lambda x: float("nan"), "vertices must be finite"),
    "parent_fraction": (["parents", 5], lambda p: 1.5, "parents entry 1.5 is not an integer"),
    "face_fraction": (["faces", 0, 0], lambda i: 0.5, "faces entry 0.5 is not an integer"),
    "hand_joint_id_fraction": (["hand_joint_ids", "left", 0], lambda i: 20.5,
                               "hand_joint_ids[left] entry 20.5 is not an integer"),
    "fingertip_vertex_id_fraction": (["fingertip_vertex_ids", "right", 4], lambda i: 3.5,
                                     "fingertip_vertex_ids[right] entry 3.5 is not an integer"),
    # Each of these once left a traceback: OverflowError, AttributeError, IndexError.
    "parent_beyond_int64": (["parents", 5], lambda p: 2 ** 70, "parents has an entry beyond int64"),
    "hand_joint_ids_list": (["hand_joint_ids"], lambda ids: list(ids.values()),
                            "hand_joint_ids must be an object"),
    "hand_joint_ids_scalar": (["hand_joint_ids", "left"], lambda ids: 5,
                              "hand_joint_ids[left] must be a list of integers"),
    "fingertip_vertex_ids_scalar": (["fingertip_vertex_ids", "right"], lambda ids: 5,
                                    "fingertip_vertex_ids[right] must be a list of integers"),
    "hand_joint_ids_nested": (["hand_joint_ids", "left"], lambda ids: [ids],
                              "hand_joint_ids[left] must be a list of integers"),
    "vertices_null": (["vertices"], lambda v: None, "vertices must be (N, 3)"),
    # One axis dropped or added; the reader once regrouped faces into triangles.
    "vertices_flat": (["vertices"], lambda v: [x for p in v for x in p],
                      "vertices must be (N, 3)"),
    "vertices_extra_axis": (["vertices"], lambda v: [[[x] for x in p] for p in v],
                            "vertices must be (N, 3)"),
    "faces_flat": (["faces"], lambda f: [i for t in f for i in t], "faces must be (F, 3)"),
    "faces_extra_axis": (["faces"], lambda f: [[[i] for i in t] for t in f],
                         "faces must be (F, 3)"),
    "faces_pairs": (["faces"], lambda f: [t[:2] for t in f], "faces must be (F, 3)"),
    "faces_quads": (["faces"], lambda f: [t + t[:1] for t in f], "faces must be (F, 3)"),
    "shape_basis_2d": (["shape_basis"], lambda b: [[c[0] for c in row] for row in b],
                       "shape_basis must be (N, 3, B)"),
    "shape_basis_extra_axis": (["shape_basis"],
                               lambda b: [[[[x] for x in c] for c in row] for row in b],
                               "shape_basis must be (N, 3, B)"),
    # Each of these once gave numpy's own text, which names no field.
    "vertices_ragged": (["vertices"], lambda v: v[:-1] + [v[-1][:2]],
                        "vertices must be a regular array of numbers"),
    "vertex_string": (["vertices", 1, 2], lambda x: "a", "vertices must be a regular array of numbers"),
    "shape_basis_ragged": (["shape_basis", 4], lambda rows: rows[:2] + [rows[2][:-1]],
                           "shape_basis must be a regular array of numbers"),
    "shape_basis_string": (["shape_basis", 4, 1, 3], lambda x: "a",
                           "shape_basis must be a regular array of numbers"),
    # A number written as a string, or a boolean, once read as a number.
    "vertex_numeric_string": (["vertices", 1, 2], lambda x: "0.01",
                              "vertices must be a regular array of numbers"),
    "vertex_bool": (["vertices", 1, 2], lambda x: True, "vertices must be a regular array of numbers"),
    "shape_basis_numeric_string": (["shape_basis", 4, 1, 3], lambda x: "1e-3",
                                   "shape_basis must be a regular array of numbers"),
    "skin_weight_numeric_string": (["skin_weights", "triplets", 0, 2], lambda w: "1.0",
                                   "skin_weights triplet values must be a regular array of numbers"),
    "regressor_weight_bool": (["joint_regressor", "triplets", 0, 2], lambda w: True,
                              "joint_regressor triplet values must be a regular array of numbers"),
    "knuckle_length_numeric_string": (["reference_knuckle_length"], lambda x: "0.03",
                                      "reference_knuckle_length must be a number"),
    "knuckle_length_bool": (["reference_knuckle_length"], lambda x: True,
                            "reference_knuckle_length must be a number"),
    # Python's json reads the NaN and Infinity literals; these once loaded.
    "knuckle_length_nan": (["reference_knuckle_length"], lambda x: float("nan"),
                           "reference_knuckle_length must be finite and > 0"),
    "knuckle_length_inf": (["reference_knuckle_length"], lambda x: float("inf"),
                           "reference_knuckle_length must be finite and > 0"),
    "knuckle_length_negative": (["reference_knuckle_length"], lambda x: -1.0,
                                "reference_knuckle_length must be finite and > 0"),
    "knuckle_length_zero": (["reference_knuckle_length"], lambda x: 0,
                            "reference_knuckle_length must be finite and > 0"),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FAULTS))
def test_pose_rejects_an_invalid_model_asset(asset, tmp_path, capsys, fault):
    path, spoil, message = MODEL_FAULTS[fault]
    doc = formats.read_json(asset)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = spoil(parent[path[-1]])
    bad = tmp_path / "bad.json"
    write_input(bad, doc)
    params = params_file(tmp_path, None, "params.json",
                         [(0, WholeBodyParams.identity(formats.load_model(asset)), None)])
    out = tmp_path / "joints.json"
    assert main(["pose", str(bad), str(params), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": f"invalid model asset: {message}"}
    assert not out.exists()


# A number written as a JSON string, or a boolean, in each float field of
# the frame files: the file, the path of the value in its one frame record,
# the value, and the message after the frame prefix.
NUMBER_FAULTS = {
    "params_phi_bool": ("params", ["phi", 0], True, "phi must be a regular array of numbers"),
    "params_theta_string": ("params", ["theta", 0, 0], "0.5",
                            "theta must be a regular array of numbers"),
    "params_beta_string": ("params", ["beta", 0], "1e-3", "beta must be a regular array of numbers"),
    "params_camera_scale_string": ("params", ["camera", "scale"], "300",
                                   "camera scale must be a number"),
    "params_camera_translation_bool": ("params", ["camera", "translation", 0], True,
                                       "camera translation must be a regular array of numbers"),
    "params_final_rms_px_string": ("params", ["final_rms_px"], "1.5",
                                   "final_rms_px must be a number"),
    "params_cost_trace_string": ("params", ["cost_trace", 0], "1.0",
                                 "cost_trace must be a regular array of numbers"),
    "prediction_hand_theta_string": ("predictions", ["left_hand", "theta", 2, 1], "0.1",
                                     "theta must be a regular array of numbers"),
    "keypoint_string": ("keypoints", ["points", 3, 0], "1.0",
                        "points must be a regular array of numbers"),
    "confidence_bool": ("keypoints", ["confidence", 3], True,
                        "confidence must be a regular array of numbers"),
    "joints_string": ("joints", ["joints", 3, 2], "1.0", "joints must be a regular array of numbers"),
}


@pytest.mark.parametrize("fault", sorted(NUMBER_FAULTS))
def test_a_number_field_rejects_strings_and_booleans(asset, tmp_path, capsys, fault):
    kind, path, value, message = NUMBER_FAULTS[fault]
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    cam = WeakPerspectiveCamera.identity()
    hands = [HandPrediction(side, np.zeros(3), np.zeros((15, 3)), np.zeros(10), cam)
             for side in ("left", "right")]
    docs = {
        "params": formats.params_to_doc([(0, params, {"cost_trace": [0.5], "final_rms_px": 0.5})]),
        "predictions": formats.predictions_to_doc(
            [(0, BodyPrediction(np.zeros(3), np.zeros((21, 3)), np.zeros(10), cam), *hands)]),
        "keypoints": formats.keypoints_to_doc([(0, np.zeros((model.num_joints, 2)),
                                                np.ones(model.num_joints))]),
        "joints": formats.joints_to_doc([(0, np.zeros((model.num_joints, 3)))]),
    }
    parent = docs[kind]["frames"][0]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    files = {}
    for name, doc in docs.items():
        files[name] = str(tmp_path / f"{name}.json")
        formats.write_json(files[name], doc)
    out = tmp_path / "out.json"
    command, prefix = {
        "params": (["pose", str(asset), files["params"]], "frame 0: "),
        "predictions": (["integrate", str(asset), files["predictions"]], "frame 0: "),
        "keypoints": (["fit", str(asset), files["params"], files["keypoints"], "--iters", "1"],
                      "frame 0: "),
        "joints": (["eval", files["joints"], files["joints"]], "pred frame 0: "),
    }[kind]
    assert main(command + [str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": prefix + message}
    assert not out.exists()


# The sweep below puts each of these values in place of each field of a
# valid one-frame params, keypoints, predictions or joints document, of the
# hand and skeleton fields of the toy asset, and of each field of a prep
# config and of the config itself (`root`).  An array field also gets itself
# with one axis dropped or added, and with one element made NaN or null.
# Python's json writes 10**400, beyond float range, as an integer literal.
SWEEP_VALUES = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "string": "0.5",
                "true": True, "null": None, "empty_list": [], "object": {}, "2**70": 2**70,
                "10**400": 10**400, "-1": -1, "0": 0, "nested": [[1.0]]}
SWEEP_ARRAY_VARIANTS = ["drop_axis", "add_axis", "nan_element", "null_element"]
_PREDICTION_FIELDS = ["phi", "theta", "beta", "camera", "camera.scale", "camera.translation"]
SWEEP_FIELDS = {"params": ["phi", "theta", "beta", "camera", "camera.scale", "camera.translation",
                           "frame"],
                "keypoints": ["points", "confidence", "frame"],
                "predictions": ([f"body.{f}" for f in _PREDICTION_FIELDS]
                                + [f"left_hand.{f}" for f in _PREDICTION_FIELDS]
                                + ["left_hand.side", "left_hand", "frame"]),
                "joints": ["joints", "frame"],
                "model": ["hand_joint_ids", "hand_joint_ids.left", "hand_joint_ids.right",
                          "parents"],
                "flip_config": ["reorder", "flip_width", "root"],
                "rescale_config": ["rescale_reference"]}
SWEEP_ARRAYS = {"phi", "theta", "beta", "camera.translation", "points", "confidence", "joints",
                "hand_joint_ids.left", "hand_joint_ids.right", "parents", "reorder",
                *(f"{record}.{f}" for record in ("body", "left_hand")
                  for f in ("phi", "theta", "beta", "camera.translation"))}
SWEEP_COMMANDS = {"params": ("fit", "pose"), "keypoints": ("fit", "prep"),
                  "predictions": ("integrate",), "joints": ("eval",), "model": ("integrate", "fit"),
                  "flip_config": ("prep",), "rescale_config": ("prep_3d",)}
SWEEP_CASES = [(kind, field, value, command)
               for kind, fields in SWEEP_FIELDS.items() for field in fields
               for value in list(SWEEP_VALUES) + (SWEEP_ARRAY_VARIANTS if field in SWEEP_ARRAYS else [])
               for command in SWEEP_COMMANDS[kind]]
# The spoilt documents that are accepted, as docs/formats.md says: a frame
# index need only be an integer (0 is the valid one, and fit and eval need
# the frames of both files to match), a null confidence weighs every joint 1,
# 2**70 is a finite camera scale, flip width or reference length > 0, a null
# hand record is a missing hand, a null prep config field is an absent step,
# and a prep config `{}` runs no step.  Every other case exits 2.
SWEEP_ACCEPTED = {("params", "camera.scale", "2**70", "fit"),
                  ("params", "camera.scale", "2**70", "pose"),
                  ("params", "frame", "2**70", "pose"), ("params", "frame", "10**400", "pose"),
                  ("params", "frame", "-1", "pose"),
                  ("params", "frame", "0", "fit"), ("params", "frame", "0", "pose"),
                  ("keypoints", "confidence", "null", "fit"), ("keypoints", "frame", "0", "fit"),
                  ("keypoints", "confidence", "null", "prep"),
                  ("keypoints", "frame", "2**70", "prep"), ("keypoints", "frame", "10**400", "prep"),
                  ("keypoints", "frame", "-1", "prep"), ("keypoints", "frame", "0", "prep"),
                  ("predictions", "body.camera.scale", "2**70", "integrate"),
                  ("predictions", "left_hand.camera.scale", "2**70", "integrate"),
                  ("predictions", "frame", "2**70", "integrate"),
                  ("predictions", "frame", "10**400", "integrate"),
                  ("predictions", "frame", "-1", "integrate"),
                  ("predictions", "frame", "0", "integrate"),
                  ("predictions", "left_hand", "null", "integrate"),
                  ("joints", "frame", "0", "eval"),
                  ("flip_config", "reorder", "null", "prep"),
                  ("flip_config", "flip_width", "null", "prep"),
                  ("flip_config", "flip_width", "2**70", "prep"),
                  ("flip_config", "root", "object", "prep"),
                  ("rescale_config", "rescale_reference", "null", "prep_3d"),
                  ("rescale_config", "rescale_reference", "2**70", "prep_3d")}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A toy asset, a ground-truth joints file for `eval`, and a valid
    one-frame params, keypoints, predictions and joints document, a valid
    one-frame 3D keypoints document, and a valid prep config for each."""
    root = tmp_path_factory.mktemp("sweep")
    asset = root / "toy.json"
    assert main(["gen-toy", str(asset), "--seed", "0"]) == 0
    model = formats.load_model(asset)
    rng = np.random.default_rng(7)
    theta = rng.normal(scale=0.1, size=(model.num_joints - 1, 3))
    params = WholeBodyParams(np.vstack([np.zeros(3), theta]), np.zeros(model.num_betas),
                             WeakPerspectiveCamera(100.0, np.array([128.0, 128.0])))
    joints = pose_joints(model, params.pose_w, params.beta_w)[:52]
    points = project(params.cam_w, joints)
    points += rng.normal(size=points.shape)
    body = BodyPrediction(np.zeros(3), theta[:21], params.beta_w, params.cam_w)
    left = HandPrediction("left", np.zeros(3), theta[:15], params.beta_w, params.cam_w)
    gt = root / "gt_joints.json"
    formats.write_json(gt, formats.joints_to_doc([(0, joints)]))
    return asset, gt, {
        "params": formats.params_to_doc([(0, params, None)]),
        "keypoints": formats.keypoints_to_doc([(0, points, np.ones(len(points)))]),
        "predictions": formats.predictions_to_doc([(0, body, left, None)]),
        "joints": formats.joints_to_doc([(0, joints + rng.normal(scale=0.01, size=joints.shape))]),
        "keypoints_3d": formats.keypoints_to_doc([(0, joints, None)]),
        "flip_config": {"reorder": list(range(len(points)))[::-1], "flip_width": 256.0},
        "rescale_config": {"rescale_reference": 0.03}}


def _sweep_value(valid, value):
    if value in SWEEP_VALUES:
        return SWEEP_VALUES[value]
    if value == "drop_axis":
        return valid[0]
    if value == "add_axis":
        return [valid]
    spoilt = json.loads(json.dumps(valid))
    parent = spoilt
    while isinstance(parent[0], list):
        parent = parent[0]
    parent[0] = float("nan") if value == "nan_element" else None
    return spoilt


@pytest.mark.parametrize("kind, field, value, command", SWEEP_CASES,
                         ids=["-".join(case) for case in SWEEP_CASES])
def test_a_spoilt_field_exits_0_or_2_with_a_json_error(sweep_inputs, tmp_path, capsys,
                                                        kind, field, value, command):
    asset, gt, valid = sweep_inputs
    docs = json.loads(json.dumps(valid))
    if kind == "model":
        docs["model"] = formats.read_json(asset)
    if field == "root":
        parent, key = docs, kind
    else:
        parent = docs[kind]["frames"][0] if "frames" in docs[kind] else docs[kind]
        *path, key = field.split(".")
        for name in path:
            parent = parent[name]
    parent[key] = _sweep_value(parent[key], value)
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        # Python's json writes NaN and Infinity as the literals it reads.
        files[name].write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / "out.json")
    asset = files.get("model", asset)
    argv = {"fit": ["fit", asset, files["params"], files["keypoints"], out, "--iters", "1"],
            "pose": ["pose", asset, files["params"], out],
            "integrate": ["integrate", asset, files["predictions"], out],
            "eval": ["eval", files["joints"], gt, out],
            "prep": ["prep", files["keypoints"], files["flip_config"], out],
            "prep_3d": ["prep", files["keypoints_3d"], files["rescale_config"], out]}[command]
    code = main([str(a) for a in argv])
    assert code == (0 if (kind, field, value, command) in SWEEP_ACCEPTED else 2)
    if code == 2:
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert sorted(err) == ["message", "type"]
    else:
        # What a command accepts it writes as strict JSON that its own reader takes.
        with open(out, encoding="utf-8") as f:
            json.load(f, parse_constant=_refuse_constant)
        doc = formats.read_json(out)
        reader = {"fit": formats.params_from_doc, "pose": formats.joints_from_doc,
                  "integrate": formats.params_from_doc, "eval": dict,
                  "prep": formats.keypoints_from_doc,
                  "prep_3d": formats.keypoints_from_doc}[command]
        assert reader(doc)


def _refuse_constant(name):
    raise AssertionError(f"the output holds {name}, which is not JSON")


def test_pose_an_asset_without_faces(asset, tmp_path):
    doc = formats.read_json(asset)
    doc["faces"] = []
    bare = tmp_path / "bare.json"
    formats.write_json(bare, doc)
    assert formats.load_model(bare).faces.shape == (0, 3)
    params = params_file(tmp_path, None, "params.json",
                         [(0, WholeBodyParams.identity(formats.load_model(asset)), None)])
    obj, joints = tmp_path / "mesh.obj", tmp_path / "joints.json"
    assert main(["pose", str(bare), str(params), str(joints), "--obj", str(obj)]) == 0
    lines = obj.read_text().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == len(doc["vertices"])
    assert not any(ln.startswith("f ") for ln in lines)


UNREADABLE_JSON = {"truncated": b'{"format": ', "not_utf8": b'{"format": "\xff"}\n'}


@pytest.mark.parametrize("command", ["eval", "fit", "pose"])
@pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
def test_unreadable_json_exits_2_naming_the_file(asset, tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_JSON[content])
    out = tmp_path / "out.json"
    args = {"eval": [bad, bad, out], "fit": [asset, bad, bad, out], "pose": [bad, bad, out]}
    assert main([command] + [str(a) for a in args[command]]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaError"
    assert f"{bad}: not a UTF-8 JSON document (" in err["message"]
    assert not out.exists()


def test_fit_rejects_keypoint_count_mismatch_naming_the_frame(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose_w, params.beta_w)[:40])
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
    "wrong_rows": ("DimensionError", "pose must be (52, 3), got (51, 3)"),
    "wrong_betas": ("DimensionError", "beta must have length 10"),
}


@pytest.mark.parametrize("fault", sorted(FIT_FAULTS))
@pytest.mark.parametrize("indices", [(0, 1, 2), (3, 5, 8)])
def test_fit_error_names_the_frame(asset, tmp_path, capsys, monkeypatch, indices, fault):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose_w, params.beta_w)[:52])
    conf = np.ones(52)
    bad = params
    if fault == "zero_confidence":
        conf = np.zeros(52)
    elif fault == "nan_init":
        bad = WholeBodyParams(_with_nan(params.pose_w, (5, 1)), params.beta_w, params.cam_w)
    elif fault == "wrong_rows":
        bad = WholeBodyParams(params.pose_w[:-1], params.beta_w, params.cam_w)
    else:
        bad = WholeBodyParams(params.pose_w, np.zeros(9), params.cam_w)
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(
        [(indices[0], pts, None), (indices[1], pts, None), (indices[2], pts, conf)]))
    init_path = params_file(tmp_path, model, "init.json",
                            [(indices[0], params, None), (indices[1], params, None),
                             (indices[2], bad, None)])
    out = tmp_path / "fit.json"
    kind, message = FIT_FAULTS[fault]
    # In groups of 2 the bad frame is the first of the second lockstep group.
    for group in (fitting.FIT_GROUP, 2):
        monkeypatch.setattr(fitting, "FIT_GROUP", group)
        assert main(["fit", str(asset), str(init_path), str(kp_path), str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == kind
        assert err["message"] == f"frame {indices[2]}: {message}"
        assert not out.exists()


def test_fit_rejects_3d_keypoints_naming_the_frame(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    joints = pose_joints(model, params.pose_w, params.beta_w)[:52]
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc(
        [(2, project(params.cam_w, joints), None), (5, joints, None)]))
    init_path = params_file(tmp_path, model, "init.json", [(2, params, None), (5, params, None)])
    out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": "frame 5: fit requires 2D keypoints"}
    assert not out.exists()


def test_fit_names_the_frame_without_keypoints(asset, tmp_path, capsys):
    model = formats.load_model(asset)
    params = WholeBodyParams.identity(model)
    pts = project(params.cam_w, pose_joints(model, params.pose_w, params.beta_w)[:52])
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, pts, None)]))
    init_path = params_file(tmp_path, model, "init.json", [(0, params, None), (7, params, None)])
    out = tmp_path / "fit.json"
    assert main(["fit", str(asset), str(init_path), str(kp_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaError"
    assert err["message"].startswith("frame 7: ")
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
    "rescale_without_knuckle": ({"rescale_reference": 0.03}, 3, np.ones((3, 3)),
                                ("DimensionError", "rescaling needs knuckle joints 4 and 5; "
                                                   "got 3 joints")),
    # the same checks and messages as `fit`; the bad frame may carry confidences
    "nan_point": ({"flip_width": 100.0}, 2, _with_nan(np.ones((6, 2)), (3, 1)),
                  ("DimensionError", "joint 3: keypoint or confidence is not finite")),
    "nan_3d_point": ({"rescale_reference": 0.03}, 3, _with_nan(np.ones((6, 3)), (4, 2)),
                     ("DimensionError", "joint 4: keypoint or confidence is not finite")),
    "nan_confidence": ({"flip_width": 100.0}, 2, (np.ones((6, 2)), _with_nan(np.ones(6), 5)),
                       ("DimensionError", "joint 5: keypoint or confidence is not finite")),
    "confidence_above_one": ({"flip_width": 100.0}, 2, (np.ones((6, 2)), np.full(6, 7.0)),
                             ("DimensionError", "confidences must lie in [0, 1]")),
    # knuckle joints 4 and 5 1e-5 apart: the scale overflows to infinity
    "rescale_beyond_float": ({"rescale_reference": 1e308}, 3,
                             np.vstack([np.zeros((4, 3)), [[1.0, 2.0, 3.0], [1.0, 2.0, 3.00001]],
                                        np.ones((15, 3))]),
                             ("DimensionError", "rescaling to knuckle length 1e+308 gives points "
                                                "that are not finite")),
}


@pytest.mark.parametrize("fault", sorted(PREP_FAULTS))
def test_prep_error_names_the_frame(tmp_path, capsys, rng, fault):
    config, dim, bad, (kind, message) = PREP_FAULTS[fault]
    bad_points, bad_conf = bad if isinstance(bad, tuple) else (bad, None)
    good = rng.uniform(0, 100, size=(6, dim))
    kp_path = tmp_path / "kp.json"
    write_input(kp_path, formats.keypoints_to_doc(
        [(0, good, None), (4, good, None), (9, bad_points, bad_conf)]))
    config_path = tmp_path / "config.json"
    formats.write_json(config_path, config)
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": kind, "message": f"frame 9: {message}"}
    assert not out.exists()


BAD_PREP_CONFIGS = {
    # config, the keypoints' dimension, the start of the error, which names the field
    "null_root": (None, 2, "prep config root"),
    "number_root": (5, 2, "prep config root"),
    "unknown_field": ({"flip_width": 100.0, "scale": 2.0}, 2,
                      "unknown prep config fields: ['scale']"),
    "reorder_strings": ({"reorder": ["a", "b"]}, 2, "prep config 'reorder'"),
    "reorder_floats": ({"reorder": [1.7, 0]}, 2, "prep config 'reorder'"),
    "reorder_bools": ({"reorder": [True, False]}, 2, "prep config 'reorder'"),
    "reorder_below_minus_one": ({"reorder": [-2, 0]}, 2, "prep config 'reorder'"),
    "reorder_beyond_int64": ({"reorder": [2 ** 70, 0]}, 2, "prep config 'reorder'"),
    # a map that keeps no joint would write points that no reader accepts
    "reorder_keeps_no_joint": ({"reorder": [-1, -1]}, 2, "prep config 'reorder'"),
    "reorder_empty": ({"reorder": []}, 2, "prep config 'reorder'"),
    # JointMap would reject the first, and leave target 1 unfilled in the second
    "reorder_duplicate_target": ({"reorder": [0, 0]}, 2, "prep config 'reorder'"),
    "reorder_skips_a_target": ({"reorder": [0, 2]}, 2, "prep config 'reorder'"),
    "flip_width_string": ({"flip_width": "wide"}, 2, "prep config 'flip_width'"),
    "flip_width_nan": ({"flip_width": float("nan")}, 2, "prep config 'flip_width'"),
    "flip_width_inf": ({"flip_width": float("inf")}, 2, "prep config 'flip_width'"),
    "rescale_reference_string": ({"rescale_reference": "x"}, 3, "prep config 'rescale_reference'"),
    # a JSON integer beyond float range
    "flip_width_beyond_float": ({"flip_width": 10 ** 400}, 2, "prep config 'flip_width'"),
    "rescale_reference_beyond_float": ({"rescale_reference": 10 ** 400}, 3,
                                       "prep config 'rescale_reference'"),
}


@pytest.mark.parametrize("case", sorted(BAD_PREP_CONFIGS))
def test_prep_rejects_a_bad_config_naming_the_field(tmp_path, capsys, rng, case):
    config, dim, start = BAD_PREP_CONFIGS[case]
    kp_path = tmp_path / "kp.json"
    formats.write_json(kp_path, formats.keypoints_to_doc([(0, rng.uniform(0, 100, size=(2, dim)), None)]))
    config_path = tmp_path / "config.json"
    write_input(config_path, config)
    out = tmp_path / "out.json"
    assert main(["prep", str(kp_path), str(config_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaError"
    assert err["message"].startswith(start)
    assert not out.exists()


def test_fit_smooth_follows_a_rotation_through_pi(asset, tmp_path):
    # The global orientation turns about z from 166 to 195 degrees; its
    # canonical axis-angle flips sign at 180, which smoothing must not average.
    model = formats.load_model(asset)
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    frames_kp, frames_init = [], []
    for t, deg in enumerate(np.linspace(166.0, 195.0, 30)):
        phi = canonicalize(np.radians(deg) * np.array([0.0, 0.0, 1.0]))
        params = WholeBodyParams(np.vstack([phi, np.zeros((51, 3))]), np.zeros(10), cam)
        joints = pose_joints(model, params.pose_w, params.beta_w)[:52]
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
        assert np.linalg.norm(s.pose_w[0]) <= np.pi
        cos = (np.trace(rodrigues(r.pose_w[0]).T @ rodrigues(s.pose_w[0])) - 1.0) / 2.0
        assert np.degrees(np.arccos(min(cos, 1.0))) < 1.0


EVAL_FAULTS = {
    "no_frames": ([], [], "no frames to evaluate"),
    "pred_joint_count": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3))), (5, np.zeros((3, 3)))],
                         [(0, np.zeros((4, 3))), (2, np.zeros((4, 3))), (5, np.zeros((4, 3)))],
                         "pred frame 5: joints are (3, 3), not (4, 3)"),
    "gt_joint_count": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3)))],
                       [(0, np.zeros((4, 3))), (2, np.zeros((6, 3)))],
                       "gt frame 2: joints are (6, 3), not (4, 3)"),
    "pred_nan": ([(0, np.zeros((4, 3))), (2, _with_nan(np.zeros((4, 3)), (1, 2)))],
                 [(0, np.zeros((4, 3))), (2, np.zeros((4, 3)))],
                 "pred frame 2: joints must be finite"),
    "gt_nan": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3)))],
               [(0, np.zeros((4, 3))), (2, _with_nan(np.zeros((4, 3)), (3, 0)))],
               "gt frame 2: joints must be finite"),
    "frame_indices": ([(0, np.zeros((4, 3))), (2, np.zeros((4, 3)))],
                      [(0, np.zeros((4, 3))), (3, np.zeros((4, 3)))],
                      "pred and gt frame indices differ"),
    "pred_joint_dims": ([(0, np.zeros((4, 4)))], [(0, np.zeros((4, 3)))],
                        "pred frame 0: joints must be (K, 2) or (K, 3)"),
}


@pytest.mark.parametrize("fault", sorted(EVAL_FAULTS))
def test_eval_rejects_frames_it_cannot_stack(tmp_path, capsys, fault):
    pred, gt, message = EVAL_FAULTS[fault]
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    write_input(pred_path, formats.joints_to_doc(pred))
    write_input(gt_path, formats.joints_to_doc(gt))
    out = tmp_path / "report.json"
    assert main(["eval", str(pred_path), str(gt_path), str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "SchemaError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("lo, hi", [("nan", "30"), ("0", "inf"), ("30", "20"), ("5", "5"),
                                    ("-10", "30")])
def test_eval_rejects_a_range_outside_its_domain(tmp_path, capsys, lo, hi):
    joints = formats.joints_to_doc([(0, np.zeros((4, 3)))])
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    formats.write_json(pred_path, joints)
    formats.write_json(gt_path, joints)
    out = tmp_path / "report.json"
    assert main(["eval", str(pred_path), str(gt_path), str(out), "--range", lo, hi]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DimensionError",
                   "message": "--range LO HI must be finite with 0 <= LO < HI"}
    assert not out.exists()


def test_eval_root_relative_aligns_each_frame(tmp_path, rng):
    # Every prediction frame is its ground truth moved rigidly, each by its own offset.
    gt = [(t, rng.normal(scale=50.0, size=(6, 3))) for t in range(2)]
    pred = [(t, g + rng.normal(scale=100.0, size=3)) for t, g in gt]
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    formats.write_json(pred_path, formats.joints_to_doc(pred))
    formats.write_json(gt_path, formats.joints_to_doc(gt))
    out = tmp_path / "report.json"
    assert main(["eval", str(pred_path), str(gt_path), str(out),
                 "--alignment", "root-relative"]) == 0
    assert formats.read_json(out)["auc"] == 1.0
