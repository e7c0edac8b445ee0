"""Copy-and-paste fusion of body and hand predictions."""

from dataclasses import dataclass

import numpy as np

from .camera import WeakPerspectiveCamera
from ._kernels import rodrigues_batch
from .errors import DimensionError, MocapkitError, map_frames
from .kinematics import gamma_global_to_local
from .model import FRAME_GROUP, SIDES, beta_array


def finite_pose(phi, theta):
    """Whether every entry of an orientation `phi` and a pose block `theta` is finite."""
    return bool(np.isfinite(phi).all() and np.isfinite(theta).all())


def _set_beta(record, name):
    """Set the β field `name` of a frozen record to a float64 array, raising a
    DimensionError unless it is a finite 1-D vector."""
    beta = np.asarray(getattr(record, name), dtype=np.float64)
    if beta.ndim != 1 or not np.isfinite(beta).all():
        raise DimensionError("beta must be a finite 1-D vector")
    object.__setattr__(record, name, beta)


@dataclass(frozen=True)
class BodyPrediction:
    phi_b: np.ndarray          # (3,)
    theta_b: np.ndarray        # (21, 3), wrists included, body-row order
    beta_b: np.ndarray         # (B,)
    cam_b: WeakPerspectiveCamera

    def __post_init__(self):
        _set_beta(self, "beta_b")
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
    beta_h: np.ndarray         # (B,)
    cam_h: WeakPerspectiveCamera

    def __post_init__(self):
        _set_beta(self, "beta_h")
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
    pose_w: np.ndarray         # (J, 3) local axis-angles, the global orientation in row 0
    beta_w: np.ndarray         # (B,)
    cam_w: WeakPerspectiveCamera

    def __post_init__(self):
        _set_beta(self, "beta_w")
        object.__setattr__(self, "pose_w", np.asarray(self.pose_w, dtype=np.float64))
        if self.pose_w.ndim != 2 or self.pose_w.shape[1] != 3:
            raise DimensionError("pose_w must be (J, 3)")

    def vector(self):
        """Flat parameter vector ``[pose rows (3 J), beta (B), cam scale,
        cam tx, cam ty]``."""
        return np.concatenate([self.pose_w.ravel(), self.beta_w,
                               [self.cam_w.scale], self.cam_w.translation])

    @staticmethod
    def split(rows, num_betas):
        """Views (pose (..., J, 3), beta (..., B), scale (...,), translation
        (..., 2)) of flat vectors `rows` (..., D) laid out as by `vector`."""
        n = rows.shape[-1] - 3 - num_betas
        pose = rows[..., :n].reshape(rows.shape[:-1] + (n // 3, 3))
        return pose, rows[..., n:-3], rows[..., -3], rows[..., -2:]

    @staticmethod
    def from_vector(row, num_betas):
        """The parameters whose `vector()` is `row` (D,)."""
        pose, beta, scale, trans = WholeBodyParams.split(np.asarray(row, dtype=np.float64),
                                                         num_betas)
        return WholeBodyParams(pose, beta, WeakPerspectiveCamera(scale, trans))

    @staticmethod
    def identity(model):
        return WholeBodyParams(
            np.zeros((model.num_joints, 3)),
            np.zeros(model.num_betas),
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
    # A body prediction poses the root (phi) and 21 joints below it (theta).
    if model.body_joints.size != 22:
        raise DimensionError(f"hand_joint_ids leave {model.body_joints.size - 1} body rows, "
                             "but a body prediction carries 21")
    frames = list(frames)
    map_frames(lambda f: _check_prediction(model, *f), frames)
    fused = []
    for first in range(0, len(frames), FRAME_GROUP):
        fused += _fuse(model, frames[first:first + FRAME_GROUP])
    return fused


def _check_prediction(model, body, left, right):
    for pred, side in ((left, "left"), (right, "right")):
        if pred is None:
            continue
        if pred.side != side:
            raise MocapkitError(f"prediction passed as {side} hand has side {pred.side!r}")
        beta_array(model, pred.beta_h)
    beta_array(model, body.beta_b)


def _fuse(model, frames):
    bodies = [body for body, _, _ in frames]
    pose = np.zeros((len(frames), model.num_joints, 3))
    pose[:, 0] = np.stack([body.phi_b for body in bodies])
    pose[:, model.body_joints[1:]] = np.stack([body.theta_b for body in bodies])
    # No hand joint lies above a wrist (`body_joints`), so every joint above
    # a wrist is posed by the body alone.
    body_pose = pose.copy()

    for k, side in enumerate(SIDES):
        ts = [t for t, frame in enumerate(frames) if frame[1 + k] is not None]
        if not ts:
            continue
        hands = [frames[t][1 + k] for t in ts]
        wrist, *fingers = model.hand_joint_ids[side]
        pose[np.ix_(ts, fingers)] = np.stack([h.theta_h for h in hands])
        pose[ts, wrist] = gamma_global_to_local(
            model.tree, body_pose[ts], wrist, rodrigues_batch(np.stack([h.phi_h for h in hands])))
    return [WholeBodyParams(p, body.beta_b, body.cam_b) for body, p in zip(bodies, pose)]
