"""Command-line entry points tying the pipeline together.

Subcommands: gen-toy, pose, integrate, fit, eval, prep.  Errors exit nonzero
with a machine-readable JSON object on stderr.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import dataprep, formats, metrics
from .errors import DimensionError, MocapkitError, SchemaError, map_frames
from .fitting import FitConfig, KeypointSet2D, check_keypoints, fit_frames, temporal_smooth
from .integration import WholeBodyParams, copy_paste, finite_pose
from .model import FRAME_GROUP, PoseParams, check_pose, pose_mesh
from .rotations import canonicalize, unwrap
from .toymodel import gen_toy_model


@contextlib.contextmanager
def _naming_frames(indices):
    """Re-raise an error about position t of a batched call's input with the
    prefix ``frame {indices[t]}: ``."""
    try:
        yield
    except MocapkitError as e:
        if e.frame is None:
            raise
        raise type(e)(f"frame {indices[e.frame]}: {e}") from e


def cmd_gen_toy(args):
    model = gen_toy_model(seed=args.seed, size_class=args.size_class)
    formats.save_model(args.output, model)
    print(f"wrote {args.output}: {model.num_vertices} vertices, {model.num_joints} joints")
    return 0


def cmd_pose(args):
    model = formats.load_model(args.asset)
    frames = formats.params_from_doc(formats.read_json(args.params))

    def check(frame):
        params = frame[1]
        check_pose(model, params.pose(), params.beta_w)
        if not finite_pose(params.phi_w, params.theta_w):
            raise DimensionError("phi and theta must be finite")

    with _naming_frames([i for i, _, _ in frames]):
        map_frames(check, frames)
    root, ext = os.path.splitext(args.obj or "")
    face_lines = formats.obj_face_lines(model.faces) if args.obj else None
    joints_out = []
    for first in range(0, len(frames), FRAME_GROUP):
        group = frames[first:first + FRAME_GROUP]
        params = [p for _, p, _ in group]
        verts = pose_mesh(model, PoseParams(np.stack([p.phi_w for p in params]),
                                            np.stack([p.theta_w for p in params])),
                          np.stack([p.beta_w.beta for p in params]))
        joints = model.joint_regressor[: model.num_joints] @ verts
        for (i, _, _), v, j in zip(group, verts, joints):
            joints_out.append((i, j))
            if args.obj:
                path = args.obj if len(frames) == 1 else f"{root}_{i:06d}{ext}"
                formats.write_obj(path, v, face_lines)
    formats.write_json(args.joints_out, formats.joints_to_doc(joints_out))
    print(f"posed {len(frames)} frame(s) -> {args.joints_out}")
    return 0


def cmd_integrate(args):
    model = formats.load_model(args.asset)
    preds = formats.predictions_from_doc(formats.read_json(args.predictions))
    with _naming_frames([i for i, _, _, _ in preds]):
        fused = copy_paste(model, [(body, left, right) for _, body, left, right in preds])
    out = [(i, params, None) for (i, _, _, _), params in zip(preds, fused)]
    formats.write_json(args.output, formats.params_to_doc(out))
    print(f"integrated {len(out)} frame(s) -> {args.output}")
    return 0


def cmd_fit(args):
    model = formats.load_model(args.asset)
    init_frames = formats.params_from_doc(formats.read_json(args.init))
    kp_frames = formats.keypoints_from_doc(formats.read_json(args.keypoints))
    kp_by_frame = {i: (pts, conf) for i, pts, conf in kp_frames}
    config = FitConfig(iterations=args.iters)

    def fit_input(frame):
        i, params, _ = frame
        if i not in kp_by_frame:
            raise SchemaError("no keypoints")
        pts, conf = kp_by_frame[i]
        if pts.shape[1] != 2:
            raise SchemaError("fit requires 2D keypoints")
        if conf is None:
            conf = np.ones(len(pts))
        return params, params.cam_w, KeypointSet2D(pts, conf)

    with _naming_frames([i for i, _, _ in init_frames]):
        results = fit_frames(model, map_frames(fit_input, init_frames), config)
    out = [(i, r.params, {k: getattr(r, k) for k in formats.FIT_FIELDS})
           for (i, _, _), r in zip(init_frames, results)]

    if args.smooth and len(out) > 1:
        flat = np.array([p.vector() for _, p, _ in out])
        # Rotations are averaged only after each joint's axis-angle sequence
        # is made continuous; canonical vectors flip sign as they pass pi.
        for aa in WholeBodyParams.split(flat, model.num_betas)[:2]:
            aa[...] = unwrap(aa)
        smoothed = temporal_smooth(flat)
        for aa in WholeBodyParams.split(smoothed, model.num_betas)[:2]:
            aa[...] = canonicalize(aa)
        out = [(i, WholeBodyParams.from_vector(row, model.num_betas), extras)
               for (i, _, extras), row in zip(out, smoothed)]

    formats.write_json(args.output, formats.params_to_doc(out))
    print(f"fitted {len(out)} frame(s) -> {args.output}")
    return 0


def cmd_eval(args):
    if args.range is not None and not 0 <= args.range[0] < args.range[1] < float("inf"):
        raise DimensionError("--range LO HI must be finite with 0 <= LO < HI")
    frames = []
    for name in ("pred", "gt"):
        try:
            frames.append(formats.joints_from_doc(formats.read_json(getattr(args, name))))
        except SchemaError as e:
            raise SchemaError(f"{name} {e}") from e
    pred, gt = frames
    if [i for i, _ in pred] != [i for i, _ in gt]:
        raise SchemaError("pred and gt frame indices differ")
    if not pred:
        raise SchemaError("no frames to evaluate")
    shape = pred[0][1].shape
    for name, frames in (("pred", pred), ("gt", gt)):
        for i, j in frames:
            if j.shape != shape:
                raise SchemaError(f"{name} frame {i}: joints are {j.shape}, not {shape}")
    pred_j = np.stack([j for _, j in pred])
    gt_j = np.stack([j for _, j in gt])
    lo, hi = ((metrics.RANGE_3D_MM if args.metric == "3d" else metrics.RANGE_2D_PX)
              if args.range is None else tuple(args.range))
    curve = metrics.pck_curve(pred_j, gt_j, lo, hi, alignment=args.alignment)
    report = {
        "metric": args.metric,
        "alignment": args.alignment,
        "range": [lo, hi],
        "thresholds": curve.thresholds.tolist(),
        "pck": curve.values.tolist(),
        "auc": metrics.auc(curve),
    }
    formats.write_json(args.output, report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write("threshold,pck\n")
            for t, v in zip(curve.thresholds, curve.values):
                f.write(f"{float(t)!r},{float(v)!r}\n")
    print(f"AUC = {report['auc']:.6f} over [{lo}, {hi}] -> {args.output}")
    return 0


def _check_prep_config(config):
    """The `JointMap` of the prep config's `reorder`, or None.  Raise a SchemaError
    naming the first field that is not null and not what `cmd_prep` needs."""
    if not isinstance(config, dict):
        raise SchemaError("prep config root must be an object")
    unknown = set(config) - {"reorder", "rescale_reference", "flip_width"}
    if unknown:
        raise SchemaError(f"unknown prep config fields: {sorted(unknown)}")
    reorder = config.get("reorder")
    if reorder is not None and not (isinstance(reorder, list)
                                    and all(type(j) is int for j in reorder)):
        raise SchemaError("prep config 'reorder' must be a list of integers")
    try:
        joint_map = None if reorder is None else dataprep.JointMap(reorder)
    except DimensionError as e:
        raise SchemaError(f"prep config 'reorder': {e}") from e
    for name in ("rescale_reference", "flip_width"):
        value = config.get(name)
        if value is not None and not (type(value) in (int, float) and 0 < value < float("inf")):
            raise SchemaError(f"prep config {name!r} must be a finite number > 0")
    return joint_map


def cmd_prep(args):
    config = formats.read_json(args.config)
    joint_map = _check_prep_config(config)
    frames = formats.keypoints_from_doc(formats.read_json(args.keypoints))

    def prep(frame):
        i, pts, conf = frame
        weights = np.ones(len(pts)) if conf is None else conf
        check_keypoints(pts, weights)
        if joint_map is not None:
            pts = dataprep.reorder_joints(pts, joint_map)
            weights = dataprep.reorder_joints(weights, joint_map)
        if config.get("rescale_reference") is not None:
            if pts.shape[1] != 3:
                raise SchemaError("rescaling requires 3D keypoints")
            pts = dataprep.rescale_keypoints(pts, float(config["rescale_reference"]))
        if config.get("flip_width") is not None:
            if pts.shape[1] != 2:
                raise SchemaError("flipping requires 2D keypoints")
            pts, weights = dataprep.flip_keypoints_2d(pts, weights, float(config["flip_width"]))
        return i, pts, None if conf is None else weights

    with _naming_frames([i for i, _, _ in frames]):
        out = map_frames(prep, frames)
    formats.write_json(args.output, formats.keypoints_to_doc(out))
    print(f"prepped {len(out)} frame(s) -> {args.output}")
    return 0


# Built once per process: `main` may run many commands in one process.
@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="mocapkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-toy", help="generate the procedural toy model asset")
    g.add_argument("output")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size-class", choices=("small", "large"), default="small")
    g.set_defaults(func=cmd_gen_toy)

    g = sub.add_parser("pose", help="pose an asset from a params file")
    g.add_argument("asset")
    g.add_argument("params")
    g.add_argument("joints_out")
    g.add_argument("--obj", help="also export the posed mesh as OBJ")
    g.set_defaults(func=cmd_pose)

    g = sub.add_parser("integrate", help="copy-and-paste fuse predictions into params")
    g.add_argument("asset")
    g.add_argument("predictions")
    g.add_argument("output")
    g.set_defaults(func=cmd_integrate)

    g = sub.add_parser("fit", help="fit params to 2D keypoints")
    g.add_argument("asset")
    g.add_argument("init")
    g.add_argument("keypoints")
    g.add_argument("output")
    g.add_argument("--iters", type=int, default=20)
    g.add_argument("--smooth", action="store_true")
    g.set_defaults(func=cmd_fit)

    g = sub.add_parser("eval", help="PCK/AUC report for predicted vs ground-truth joints")
    g.add_argument("pred")
    g.add_argument("gt")
    g.add_argument("output")
    g.add_argument("--metric", choices=("3d", "2d"), default="3d")
    g.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    g.add_argument("--alignment", choices=("none", "root-relative"), default="none")
    g.add_argument("--csv", help="also write the PCK curve as CSV")
    g.set_defaults(func=cmd_eval)

    g = sub.add_parser("prep", help="harmonize keypoints (reorder/rescale/flip)")
    g.add_argument("keypoints")
    g.add_argument("config")
    g.add_argument("output")
    g.set_defaults(func=cmd_prep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MocapkitError as e:
        json.dump({"error": {"type": type(e).__name__, "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except OSError as e:
        json.dump({"error": {"type": "OSError", "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
