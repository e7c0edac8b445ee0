"""Copy-and-paste fusion of body and hand predictions, and body-driven hand boxes."""

from dataclasses import dataclass

import numpy as np

from .camera import WeakPerspectiveCamera, project
from ._kernels import rodrigues_batch
from .errors import DimensionError, MocapkitError, map_frames
from .kinematics import gamma_global_to_local
from .model import FRAME_GROUP, SIDES, PoseParams, ShapeParams, beta_array, pose_joints

# `hand_bbox_from_body` widens each hand box by this fraction of its extent.
HAND_BOX_MARGIN = 0.2


@dataclass(frozen=True)
class PoseLayout:
    """Row bookkeeping for the (J-1, 3) whole-body pose block.

    Row i drives skeleton joint i + 1.  Body rows include the two wrists;
    finger rows are ordered as in the asset's hand_joint_ids.
    """

    body_rows: np.ndarray            # 21 rows, ascending, wrists included
    left_wrist_row: int
    right_wrist_row: int
    left_finger_rows: np.ndarray     # 15 rows
    right_finger_rows: np.ndarray    # 15 rows

    @staticmethod
    def from_model(model):
        num_posed = model.num_joints - 1
        left = model.hand_joint_ids.get("left")
        right = model.hand_joint_ids.get("right")
        if left is None or right is None:
            raise DimensionError("model must declare hand_joint_ids for both sides")
        lf = np.asarray(left[1:], dtype=np.int64) - 1
        rf = np.asarray(right[1:], dtype=np.int64) - 1
        finger = set(lf.tolist()) | set(rf.tolist())
        body = np.asarray([r for r in range(num_posed) if r not in finger], dtype=np.int64)
        return PoseLayout(
            body_rows=body,
            left_wrist_row=int(left[0]) - 1,
            right_wrist_row=int(right[0]) - 1,
            left_finger_rows=lf,
            right_finger_rows=rf,
        )

    def wrist_row(self, side):
        return self.left_wrist_row if side == "left" else self.right_wrist_row

    def finger_rows(self, side):
        return self.left_finger_rows if side == "left" else self.right_finger_rows


def finite_pose(phi, theta):
    """Whether every entry of an orientation `phi` and a pose block `theta` is finite."""
    return bool(np.isfinite(phi).all() and np.isfinite(theta).all())


@dataclass(frozen=True)
class BodyPrediction:
    phi_b: np.ndarray          # (3,)
    theta_b: np.ndarray        # (21, 3), wrists included, body-row order
    beta_b: ShapeParams
    cam_b: WeakPerspectiveCamera

    def __post_init__(self):
        object.__setattr__(self, "phi_b", np.asarray(self.phi_b, dtype=np.float64))
        object.__setattr__(self, "theta_b", np.asarray(self.theta_b, dtype=np.float64))
        if self.phi_b.shape != (3,) or self.theta_b.shape != (21, 3):
            raise DimensionError("body prediction must have phi (3,) and theta (21, 3)")
        if not finite_pose(self.phi_b, self.theta_b):
            raise DimensionError("body prediction phi and theta must be finite")


@dataclass(frozen=True)
class HandPrediction:
    side: str
    phi_h: np.ndarray          # (3,) global hand orientation
    theta_h: np.ndarray        # (15, 3) finger poses
    beta_h: ShapeParams
    cam_h: WeakPerspectiveCamera

    def __post_init__(self):
        object.__setattr__(self, "phi_h", np.asarray(self.phi_h, dtype=np.float64))
        object.__setattr__(self, "theta_h", np.asarray(self.theta_h, dtype=np.float64))
        if self.side not in ("left", "right"):
            raise DimensionError("side must be 'left' or 'right'")
        if self.phi_h.shape != (3,) or self.theta_h.shape != (15, 3):
            raise DimensionError("hand prediction must have phi (3,) and theta (15, 3)")
        if not finite_pose(self.phi_h, self.theta_h):
            raise DimensionError("hand prediction phi and theta must be finite")


@dataclass(frozen=True)
class WholeBodyParams:
    phi_w: np.ndarray          # (3,)
    theta_w: np.ndarray        # (J-1, 3)
    beta_w: ShapeParams
    cam_w: WeakPerspectiveCamera

    def __post_init__(self):
        object.__setattr__(self, "phi_w", np.asarray(self.phi_w, dtype=np.float64))
        object.__setattr__(self, "theta_w", np.asarray(self.theta_w, dtype=np.float64))
        if self.phi_w.shape != (3,):
            raise DimensionError("phi_w must be a 3-vector")
        if self.theta_w.ndim != 2 or self.theta_w.shape[1] != 3:
            raise DimensionError("theta_w must be (J-1, 3)")

    def pose(self):
        return PoseParams(self.phi_w, self.theta_w)

    def vector(self, cam=None):
        """Flat parameter vector ``[phi (3), theta rows (3 (J-1)), beta (B),
        cam scale, cam tx, cam ty]``, with `cam` (default `cam_w`) as camera."""
        cam = self.cam_w if cam is None else cam
        return np.concatenate([self.phi_w, self.theta_w.ravel(), self.beta_w.beta,
                               [cam.scale], cam.translation])

    @staticmethod
    def split(rows, num_betas):
        """Views (phi (..., 3), theta (..., J-1, 3), beta (..., B), scale (...,),
        translation (..., 2)) of flat vectors `rows` (..., D) laid out as by
        `vector`."""
        nt = rows.shape[-1] - 6 - num_betas
        theta = rows[..., 3:3 + nt].reshape(rows.shape[:-1] + (nt // 3, 3))
        return rows[..., :3], theta, rows[..., 3 + nt:-3], rows[..., -3], rows[..., -2:]

    @staticmethod
    def from_vector(row, num_betas):
        """The parameters whose `vector()` is `row` (D,)."""
        phi, theta, beta, scale, trans = WholeBodyParams.split(
            np.asarray(row, dtype=np.float64), num_betas)
        return WholeBodyParams(phi, theta, ShapeParams(beta), WeakPerspectiveCamera(scale, trans))

    @staticmethod
    def identity(model):
        return WholeBodyParams(
            np.zeros(3),
            np.zeros((model.num_joints - 1, 3)),
            ShapeParams.zeros(model.num_betas),
            WeakPerspectiveCamera.identity(),
        )


def copy_paste(model, frames):
    """Fuse body and hand predictions into whole-body parameters.

    `frames` lists ``(body, left, right)`` per frame, with None for an absent
    hand; one WholeBodyParams comes back per frame.  Global orientation,
    shape, and camera come from the body.  Finger angles come from each
    present hand; each present hand's wrist angle is recovered so its FK
    world rotation matches the hand's global orientation.  For an absent
    hand, the body's wrist angle is kept and the fingers are zeroed.

    Every frame is checked before any is fused; an error about the frame at
    position t has ``frame = t``.  Up to `FRAME_GROUP` frames are fused at a
    time, with one FK call per hand side; each frame's result has the bits
    of fusing it alone.
    """
    layout = PoseLayout.from_model(model)
    frames = list(frames)
    map_frames(lambda f: _check_prediction(model, *f), frames)
    fused = []
    for first in range(0, len(frames), FRAME_GROUP):
        fused += _fuse(model, layout, frames[first:first + FRAME_GROUP])
    return fused


def _check_prediction(model, body, left, right):
    for pred, side in ((left, "left"), (right, "right")):
        if pred is not None and pred.side != side:
            raise MocapkitError(f"prediction passed as {side} hand has side {pred.side!r}")
    beta_array(model, body.beta_b)


def _fuse(model, layout, frames):
    bodies = [body for body, _, _ in frames]
    phi = np.stack([body.phi_b for body in bodies])
    theta = np.zeros((len(frames), model.num_joints - 1, 3))
    theta[:, layout.body_rows] = np.stack([body.theta_b for body in bodies])
    # Both wrists' parents are posed by the body alone.
    body_local = np.concatenate([np.zeros((len(frames), 1, 3)), theta], axis=1)

    for k, side in enumerate(SIDES):
        ts = [t for t, frame in enumerate(frames) if frame[1 + k] is not None]
        if not ts:
            continue
        hands = [frames[t][1 + k] for t in ts]
        theta[np.ix_(ts, layout.finger_rows(side))] = np.stack([h.theta_h for h in hands])
        wrist = layout.wrist_row(side)
        theta[ts, wrist] = gamma_global_to_local(
            model.tree, phi[ts], body_local[ts], wrist + 1,
            rodrigues_batch(np.stack([h.phi_h for h in hands])))
    return [WholeBodyParams(body.phi_b.copy(), th, body.beta_b, body.cam_b)
            for body, th in zip(bodies, theta)]


def hand_bbox_from_body(model, params, cam, side):
    """Square 2D box around the projected hand joints of the posed body,
    widened by `HAND_BOX_MARGIN` of its extent.

    Returns (center_x, center_y, side_px); degenerate projections yield a
    1-px minimum box.
    """
    if side not in model.hand_joint_ids:
        raise DimensionError(f"model has no hand_joint_ids for side {side!r}")
    joints = pose_joints(model, params.pose(), params.beta_w)
    pts = project(cam, joints[np.asarray(model.hand_joint_ids[side], dtype=np.int64)])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    extent = float((hi - lo).max())
    side_px = max(extent * (1.0 + HAND_BOX_MARGIN), 1.0)
    return float(center[0]), float(center[1]), side_px
