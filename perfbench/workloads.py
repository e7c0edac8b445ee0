"""The two benchmark workloads: seeded inputs, the CLI commands they time, and
the output checks.

Inputs are written as the JSON documents described in ``docs/formats.md``,
by this file and not by mocapkit, so the program sees only files.  Ground
truth and expected outputs come from ``reference.py``.

* ``fit_smooth``: ``mocapkit fit ... --smooth`` on the ``small`` asset with
  the default 20 iterations and free mask, over short clips of a smoothly
  moving body.  Each initialisation carries a 0.3 rad error on both wrists
  (the copy-paste error the fit is meant to remove) and 0.1 rad on five other
  body joints; keypoints carry 1 px noise and three joints at confidence 0.
  Nearly all of its time is in the finite-difference Jacobian and the
  forward model under it.
* ``pose_export``: ``mocapkit integrate``, ``pose --obj`` and ``eval`` on the
  ``large`` asset over a longer sequence in which every frame has a body,
  both hands and a nonzero shape.  It poses each frame once, so file
  formats, copy-paste fusion and skinning twice the vertices carry its time.
"""

import glob
import hashlib
import json
import os

import numpy as np

from reference import ReferenceModel, axis_angle, project, rodrigues

CAM_SCALE = 300.0
CAM_TRANSLATION = (128.0, 128.0)
RMS_BAR_PX = 2.0          # acceptance criterion 4, noisy keypoints
JOINT_TOL = 1e-9


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n")


def read_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _camera(scale, translation):
    return {"scale": float(scale), "translation": [float(t) for t in translation]}


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return bool(np.isfinite(value))
    return True


def _smooth_motion(rng, frames, shape, amplitude):
    """Sinusoids with random amplitude, period and phase per component."""
    t = np.asarray(frames, dtype=np.float64)[:, None]
    amp = rng.uniform(0.3, 1.0, size=shape).ravel() * amplitude
    period = rng.uniform(20.0, 40.0, size=shape).ravel()
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape).ravel()
    return (amp * np.sin(2.0 * np.pi * t / period + phase)).reshape((len(frames),) + tuple(shape))


def outputs_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class Unit:
    """One group of CLI commands over a group of frames, timed as one pass.

    ``check()`` returns the frames whose outputs are wrong and a message per
    problem; ``outputs()`` lists the files the commands wrote.
    """

    def __init__(self, frames, commands, check, outputs):
        self.frames = list(frames)
        self.commands = commands
        self.check = check
        self.outputs = outputs

    def clear(self):
        for p in self.outputs():
            os.remove(p)


class Workload:
    name = None
    asset_size = None
    cal_reps = None         # repetitions of reference.calibration_seconds

    def __init__(self):
        self.units = []
        self.asset_path = None
        self.ref = None

    def make_asset(self, cli, workdir, seed):
        self.asset_path = os.path.join(workdir, f"asset_{self.asset_size}.json")
        if cli(["gen-toy", self.asset_path, "--seed", str(seed), "--size-class", self.asset_size]) != 0:
            raise RuntimeError("gen-toy failed")
        self.ref = ReferenceModel(read_doc(self.asset_path))

    def accuracy_errors_px(self):
        """Per-joint 2D errors of the checked outputs against the noise-free truth."""
        raise NotImplementedError


class FitSmooth(Workload):
    name = "fit_smooth"
    asset_size = "small"
    cal_reps = 300          # about 1 s, next to passes of about 20 s

    def __init__(self, tiny=False):
        super().__init__()
        self.clips = 1 if tiny else 2
        self.clip_frames = 2 if tiny else 3
        self.iters = ["--iters", "4"] if tiny else []
        self.gt_kp = {}
        self.fitted = {}

    def setup(self, cli, workdir, seed):
        self.make_asset(cli, workdir, seed)
        ref = self.ref
        rng = np.random.default_rng([seed, 1])
        frames = list(range(self.clips * self.clip_frames))
        J = ref.num_joints
        body = ref.body_rows
        wrists = [ref.wrist_row("left"), ref.wrist_row("right")]
        others = [r for r in body if r not in wrists]
        phi = _smooth_motion(rng, frames, (3,), 0.15)
        theta = np.zeros((len(frames), J - 1, 3))
        theta[:, body] = _smooth_motion(rng, frames, (len(body), 3), 0.15)
        beta = np.zeros(ref.num_betas)

        init_recs, kp_recs = [], []
        for k, i in enumerate(frames):
            joints = ref.joints_from_axis_angles(phi[k], theta[k], beta)
            self.gt_kp[i] = project(CAM_SCALE, CAM_TRANSLATION, joints)
            points = self.gt_kp[i] + rng.normal(scale=1.0, size=(J, 2))
            conf = np.ones(J)
            conf[rng.choice(np.arange(1, J), size=3, replace=False)] = 0.0
            init = theta[k].copy()
            for row in wrists:
                d = rng.normal(size=3)
                init[row] += 0.3 * d / np.linalg.norm(d)
            for row in rng.choice(others, size=5, replace=False):
                d = rng.normal(size=3)
                init[row] += 0.1 * d / np.linalg.norm(d)
            init_recs.append({
                "frame": i, "phi": phi[k].tolist(), "theta": init.tolist(),
                "beta": beta.tolist(), "camera": _camera(CAM_SCALE, CAM_TRANSLATION),
                "cost_trace": None, "final_rms_px": None,
            })
            kp_recs.append({"frame": i, "points": points.tolist(), "confidence": conf.tolist()})

        self.units = []
        for c in range(self.clips):
            sl = slice(c * self.clip_frames, (c + 1) * self.clip_frames)
            d = os.path.join(workdir, f"fit_{c}")
            os.makedirs(d, exist_ok=True)
            init_path, kp_path = os.path.join(d, "init.json"), os.path.join(d, "keypoints.json")
            write_doc(init_path, {"format": "mocapkit-params", "schema_version": 1, "frames": init_recs[sl]})
            write_doc(kp_path, {"format": "mocapkit-keypoints", "schema_version": 1, "frames": kp_recs[sl]})
            out_dir = os.path.join(d, "out")
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(out_dir, "fitted.json")
            command = ["fit", self.asset_path, init_path, kp_path, out, "--smooth"] + self.iters
            self.units.append(Unit(
                frames[sl], [command],
                check=lambda fr=frames[sl], out=out: self._check(fr, out),
                outputs=lambda out_dir=out_dir: sorted(glob.glob(os.path.join(out_dir, "*"))),
            ))

    def _check(self, frames, out):
        if not os.path.exists(out):
            return set(frames), ["no output file"]
        recs = read_doc(out).get("frames", [])
        if [r.get("frame") for r in recs] != frames:
            return set(frames), ["output frame indices differ from the input"]
        failed, problems = set(), []
        for r in recs:
            missing = {"phi", "theta", "beta", "camera", "final_rms_px", "cost_trace"} - set(r)
            if missing or not _all_finite(r) or r["final_rms_px"] is None:
                failed.add(r["frame"])
                problems.append(f"frame {r['frame']}: missing or non-finite values")
            else:
                self.fitted[r["frame"]] = r
        rms = [r["final_rms_px"] for r in recs if r["frame"] not in failed]
        if rms and float(np.median(rms)) > RMS_BAR_PX:
            failed.update(frames)
            problems.append(f"median final_rms_px {np.median(rms):.3f} > {RMS_BAR_PX}")
        return failed, problems

    def accuracy_errors_px(self):
        errs = []
        for i, r in sorted(self.fitted.items()):
            joints = self.ref.joints_from_axis_angles(
                np.asarray(r["phi"]), np.asarray(r["theta"]), np.asarray(r["beta"]))
            pts = project(r["camera"]["scale"], r["camera"]["translation"], joints)
            errs.append(np.linalg.norm(pts - self.gt_kp[i], axis=1))
        return np.concatenate(errs) if errs else np.zeros(0)


class PoseExport(Workload):
    name = "pose_export"
    asset_size = "large"
    cal_reps = 100          # about 0.5 s, every 5 s of passes of about 0.4 s

    def __init__(self, tiny=False):
        super().__init__()
        self.num_frames = 3 if tiny else 40
        self.gt_kp = {}
        self.expected = {}
        self.posed = {}

    def setup(self, cli, workdir, seed):
        self.make_asset(cli, workdir, seed)
        ref = self.ref
        rng = np.random.default_rng([seed, 2])
        frames = list(range(self.num_frames))
        J = ref.num_joints
        body = ref.body_rows
        phi = _smooth_motion(rng, frames, (3,), 0.15)
        theta = np.zeros((len(frames), J - 1, 3))
        theta[:, body] = _smooth_motion(rng, frames, (len(body), 3), 0.15)
        for side in ("left", "right"):
            theta[:, ref.finger_rows(side)] = _smooth_motion(rng, frames, (15, 3), 0.3)
        beta = rng.normal(size=ref.num_betas)
        cam_t = np.asarray(CAM_TRANSLATION) + _smooth_motion(rng, frames, (2,), 5.0)

        pred_recs, ref_recs = [], []
        for k, i in enumerate(frames):
            gt_rots = np.array([rodrigues(a) for a in theta[k]])
            G, _ = ref.chain(phi[k], gt_rots, beta)
            self.gt_kp[i] = project(CAM_SCALE, cam_t[k], ref.joints(phi[k], gt_rots, beta))

            # Predictions: the truth seen through small regression errors.
            phi_b = phi[k] + rng.normal(scale=0.02, size=3)
            theta_b = theta[k][body] + rng.normal(scale=0.03, size=(len(body), 3))
            camera = _camera(CAM_SCALE, cam_t[k])
            rec = {"frame": i, "body": {"phi": phi_b.tolist(), "theta": theta_b.tolist(),
                                        "beta": beta.tolist(), "camera": camera}}
            hands = {}
            for side in ("left", "right"):
                wrist = ref.hand_joint_ids[side][0]
                R_hand = G[wrist, :3, :3] @ rodrigues(rng.normal(scale=0.03, size=3))
                fingers = theta[k][ref.finger_rows(side)] + rng.normal(scale=0.03, size=(15, 3))
                hands[side] = (R_hand, fingers)
                rec[f"{side}_hand"] = {
                    "side": side, "phi": axis_angle(R_hand).tolist(), "theta": fingers.tolist(),
                    "beta": rng.normal(scale=0.1, size=ref.num_betas).tolist(),
                    "camera": _camera(500.0, (112.0, 112.0)),
                }
            pred_recs.append(rec)

            # Expected fusion: body rows from the body, fingers from the hands,
            # each wrist's local rotation chosen so its world rotation is the hand's.
            fused = np.zeros((J - 1, 3))
            fused[body] = theta_b
            for side, (_, fingers) in hands.items():
                fused[ref.finger_rows(side)] = fingers
            rots = np.array([rodrigues(a) for a in fused])
            Gb, _ = ref.chain(phi_b, rots, beta)
            for side, (R_hand, _) in hands.items():
                wrist = ref.hand_joint_ids[side][0]
                rots[wrist - 1] = Gb[ref.parents[wrist], :3, :3].T @ R_hand
            self.expected[i] = ref.joints(phi_b, rots, beta)
            ref_recs.append({"frame": i, "joints": self.expected[i].tolist()})

        d = self.scratch = os.path.join(workdir, "pose")
        out_dir = os.path.join(d, "out")
        os.makedirs(out_dir, exist_ok=True)
        pred_path, ref_path = os.path.join(d, "predictions.json"), os.path.join(d, "reference_joints.json")
        write_doc(pred_path, {"format": "mocapkit-predictions", "schema_version": 1, "frames": pred_recs})
        write_doc(ref_path, {"format": "mocapkit-joints", "schema_version": 1, "frames": ref_recs})
        self.paths = {name: os.path.join(out_dir, name)
                      for name in ("fused.json", "joints.json", "report.json", "mesh.obj")}
        p = self.paths
        commands = [
            ["integrate", self.asset_path, pred_path, p["fused.json"]],
            ["pose", self.asset_path, p["fused.json"], p["joints.json"], "--obj", p["mesh.obj"]],
            ["eval", p["joints.json"], ref_path, p["report.json"]],
        ]
        self.units = [Unit(frames, commands, check=lambda: self._check(frames),
                           outputs=lambda: sorted(glob.glob(os.path.join(out_dir, "*"))))]

    def _check(self, frames):
        p = self.paths
        everything = set(frames)
        for name in ("fused.json", "joints.json", "report.json"):
            if not os.path.exists(p[name]):
                return everything, [f"no {name}"]
        problems = []
        failed = set()

        # Byte-stable read -> write through mocapkit's own codecs.
        from mocapkit import formats
        for name, read, write in (("fused.json", formats.params_from_doc, formats.params_to_doc),
                                  ("joints.json", formats.joints_from_doc, formats.joints_to_doc)):
            again = os.path.join(self.scratch, "rewrite_" + name)
            formats.write_json(again, write(read(formats.read_json(p[name]))))
            with open(p[name], "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    failed |= everything
                    problems.append(f"{name} is not byte-stable under read -> write")
            os.remove(again)

        recs = read_doc(p["joints.json"]).get("frames", [])
        if [r.get("frame") for r in recs] != frames:
            return everything, problems + ["joints frame indices differ from the input"]
        for r in recs:
            joints = np.asarray(r["joints"], dtype=np.float64)
            i = r["frame"]
            if joints.shape != self.expected[i].shape or not np.all(np.isfinite(joints)):
                failed.add(i)
                problems.append(f"frame {i}: joints have shape {joints.shape} or non-finite values")
                continue
            err = float(np.abs(joints - self.expected[i]).max())
            if err > JOINT_TOL:
                failed.add(i)
                problems.append(f"frame {i}: joints differ from the reference chain by {err:.3g}")
            else:
                self.posed[i] = joints

        fused = {r["frame"]: r for r in read_doc(p["fused.json"]).get("frames", [])}
        self.cameras = {i: fused[i]["camera"] for i in frames if i in fused}
        failed |= everything - set(self.cameras)

        objs = sorted(glob.glob(os.path.join(os.path.dirname(p["mesh.obj"]), "mesh*.obj")))
        if len(objs) != len(frames):
            failed |= everything
            problems.append(f"{len(objs)} OBJ files for {len(frames)} frames")
        for i, path in zip(frames, objs):
            with open(path, "r", encoding="utf-8") as f:
                kinds = [line[:2] for line in f]
            if kinds.count("v ") != self.ref.num_vertices or kinds.count("f ") != self.ref.num_faces:
                failed.add(i)
                problems.append(f"{os.path.basename(path)}: wrong vertex or face count")

        auc = read_doc(p["report.json"]).get("auc")
        if not isinstance(auc, float) or abs(auc - 1.0) > 1e-12:
            failed |= everything
            problems.append(f"eval AUC against the reference joints is {auc!r}, expected 1")
        return failed, problems

    def accuracy_errors_px(self):
        errs = []
        for i, joints in sorted(self.posed.items()):
            cam = self.cameras[i]
            pts = project(cam["scale"], cam["translation"], joints)
            errs.append(np.linalg.norm(pts - self.gt_kp[i], axis=1))
        return np.concatenate(errs) if errs else np.zeros(0)


WORKLOADS = {w.name: w for w in (FitSmooth, PoseExport)}
