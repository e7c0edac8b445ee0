"""Optimization-based integration: damped least squares on 2D reprojection + priors."""

from dataclasses import dataclass

import numpy as np

from .camera import WeakPerspectiveCamera, project
from .errors import DimensionError, FitError
from .integration import PoseLayout, WholeBodyParams
from .model import PoseParams, ShapeParams, pose_joints
from .rotations import canonicalize


@dataclass(frozen=True)
class KeypointSet2D:
    """2D keypoints aligned to the model's whole-body joint order, with confidences."""

    points: np.ndarray         # (K, 2) px
    confidence: np.ndarray     # (K,) in [0, 1]

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        c = np.asarray(self.confidence, dtype=np.float64)
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "confidence", c)
        if p.ndim != 2 or p.shape[1] != 2:
            raise DimensionError("points must be (K, 2)")
        if c.shape != (p.shape[0],):
            raise DimensionError("confidence must be (K,)")
        if np.any(c < 0) or np.any(c > 1):
            raise DimensionError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 20
    weight_2d: float = 1.0
    weight_prior_pose: float = 1e-2
    weight_prior_shape: float = 1e-1
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_retries: int = 50
    fd_step: float = 1e-6
    # Free-parameter mask; the default optimizes global orientation, body pose
    # (wrists included), and camera, freezing fingers and shape.
    free_global_orient: bool = True
    free_body_pose: bool = True
    free_wrists: bool = True
    free_fingers: bool = False
    free_shape: bool = False
    free_camera: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise DimensionError("iterations must be >= 1")
        for w in (self.weight_2d, self.weight_prior_pose, self.weight_prior_shape):
            if w < 0:
                raise DimensionError("weights must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    params: WholeBodyParams
    cam: WeakPerspectiveCamera
    cost_trace: np.ndarray       # cost after each accepted iteration
    final_rms_px: float          # confidence-weighted reprojection RMS


def reprojection_cost(model, params, cam, kp):
    """Confidence-weighted sum of squared projection errors over all joints."""
    res = _reprojection_residuals(model, params, cam, kp)
    return float(res @ res)


def _reprojection_residuals(model, params, cam, kp):
    joints = pose_joints(model, params.pose(), params.beta_w)[: model.num_joints]
    if kp.points.shape[0] != joints.shape[0]:
        raise DimensionError(
            f"keypoint layout has {kp.points.shape[0]} joints, model has {joints.shape[0]}"
        )
    diff = project(cam, joints) - kp.points
    return (np.sqrt(kp.confidence)[:, None] * diff).ravel()


def prior_cost(params, anchor, config):
    """Quadratic anchor prior on pose plus shrinkage on shape."""
    if params.theta_w.shape != anchor.theta_w.shape:
        raise DimensionError("anchor pose layout does not match")
    dtheta = params.theta_w - anchor.theta_w
    return float(
        config.weight_prior_pose * (dtheta * dtheta).sum()
        + config.weight_prior_shape * (params.beta_w.beta * params.beta_w.beta).sum()
    )


class _ParamVector:
    """Packs the free parameters of (params, cam) into a flat vector."""

    def __init__(self, model, init, cam_init, config):
        layout = PoseLayout.from_model(model)
        rows = []
        if config.free_body_pose:
            rows.extend(r for r in layout.body_rows
                        if config.free_wrists or r not in (layout.left_wrist_row, layout.right_wrist_row))
        elif config.free_wrists:
            rows.extend([layout.left_wrist_row, layout.right_wrist_row])
        if config.free_fingers:
            rows.extend(layout.left_finger_rows.tolist())
            rows.extend(layout.right_finger_rows.tolist())
        self.free_rows = np.asarray(sorted(rows), dtype=np.int64)
        self.config = config
        self.init = init
        self.cam_init = cam_init
        self.num_betas = init.beta_w.beta.shape[0]

    def pack(self, params, cam):
        parts = []
        if self.config.free_global_orient:
            parts.append(params.phi_w)
        parts.append(params.theta_w[self.free_rows].ravel())
        if self.config.free_shape:
            parts.append(params.beta_w.beta)
        if self.config.free_camera:
            parts.append(np.array([cam.scale, cam.translation[0], cam.translation[1]]))
        return np.concatenate(parts) if parts else np.zeros(0)

    def decode(self, cols):
        """Parameter arrays of the packed vectors in the rows of `cols` (B, n).

        Returns (phi (B, 3), theta (B, J-1, 3), beta (B, num_betas),
        scale (B,), translation (B, 2)); frozen parameters are the initial
        values, broadcast.
        """
        B = cols.shape[0]
        i = 0
        phi = np.broadcast_to(self.init.phi_w, (B, 3))
        if self.config.free_global_orient:
            phi = cols[:, 0:3]
            i += 3
        theta = np.repeat(self.init.theta_w[None], B, axis=0)
        n = self.free_rows.size * 3
        theta[:, self.free_rows] = cols[:, i:i + n].reshape(B, -1, 3)
        i += n
        beta = np.broadcast_to(self.init.beta_w.beta, (B, self.num_betas))
        if self.config.free_shape:
            beta = cols[:, i:i + self.num_betas]
            i += self.num_betas
        scale = np.full(B, self.cam_init.scale)
        trans = np.broadcast_to(self.cam_init.translation, (B, 2))
        if self.config.free_camera:
            scale = cols[:, i]
            trans = cols[:, i + 1:i + 3]
        return phi, theta, beta, scale, trans

    def unpack(self, x):
        phi, theta, beta, scale, trans = self.decode(np.asarray(x, dtype=np.float64)[None])
        cam = WeakPerspectiveCamera(scale[0], trans[0].copy())
        return WholeBodyParams(phi[0].copy(), theta[0], ShapeParams(beta[0].copy()), cam), cam

    def canonicalized(self, x):
        """Re-canonicalize all axis-angle blocks of a packed vector."""
        x = x.copy()
        i = 3 if self.config.free_global_orient else 0
        if self.config.free_global_orient:
            x[0:3] = canonicalize(x[0:3])
        for k in range(self.free_rows.size):
            x[i + 3 * k:i + 3 * k + 3] = canonicalize(x[i + 3 * k:i + 3 * k + 3])
        return x


def _residuals(model, packer, anchor, kp, config, x):
    """Residuals at a packed vector x (n,), or one column of residuals per
    column of x (n, B); all columns are posed in one batched call."""
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(x.shape[0], -1).T
    B = cols.shape[0]
    phi, theta, beta, scale, trans = packer.decode(cols)
    joints = pose_joints(model, PoseParams(phi, theta), beta)[:, : model.num_joints]
    projected = scale[:, None, None] * joints[..., :2] + trans[:, None, :]
    r2d = np.sqrt(config.weight_2d * kp.confidence)[:, None] * (projected - kp.points)
    rp = np.sqrt(config.weight_prior_pose) * (theta - anchor.theta_w).reshape(B, -1)
    rs = np.sqrt(config.weight_prior_shape) * beta
    r = np.concatenate([r2d.reshape(B, -1), rp, rs], axis=1)
    return r[0] if x.ndim == 1 else r.T


def fit_jacobian(residual_fn, x, step):
    """Central finite-difference Jacobian of a residual function at x (n,).

    `residual_fn` is called on column stacks: given an (n, n) array whose
    column i is ``x + step e_i`` (then ``x - step e_i``), it returns the
    (m, n) array whose column i is the residual vector of that column.  The
    Jacobian is ``(f(+) - f(-)) / (2 step)``.
    """
    x = np.asarray(x, dtype=np.float64)
    h = step * np.eye(x.shape[0])
    jac = residual_fn(x[:, None] + h)
    jac -= residual_fn(x[:, None] - h)
    jac /= 2.0 * step
    return jac


def fit(model, init, cam_init, kp, config=None):
    """Damped least-squares fit of the free parameters to 2D keypoints.

    Runs `config.iterations` accepted iterations; rejected steps raise the
    damping and retry without counting.  The cost trace over accepted steps is
    non-increasing.
    """
    config = config or FitConfig()
    if kp.confidence.max() <= 0.0:
        raise FitError("all keypoint confidences are zero; the fit is unconstrained")

    packer = _ParamVector(model, init, cam_init, config)
    anchor = init

    def residuals(x):
        return _residuals(model, packer, anchor, kp, config, x)

    x = packer.pack(init, cam_init)
    r = residuals(x)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise FitError("initial cost is not finite")

    lam = config.damping_init
    trace = np.empty(config.iterations)
    for it in range(config.iterations):
        J = fit_jacobian(residuals, x, config.fd_step)
        JtJ = J.T @ J
        Jtr = J.T @ r
        accepted = False
        for _ in range(config.max_retries):
            step = np.linalg.solve(JtJ + lam * np.eye(x.shape[0]), Jtr)
            x_new = packer.canonicalized(x - step)
            r_new = residuals(x_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / config.damping_down, 1e-12)
                accepted = True
                break
            lam = min(lam * config.damping_up, 1e12)
        # Exhausted retries: the zero step keeps the cost unchanged, which
        # still counts as an accepted (converged) iteration.
        trace[it] = cost

    params, cam = packer.unpack(x)
    wres = _reprojection_residuals(model, params, cam, kp).reshape(-1, 2)
    denom = kp.confidence.sum()
    rms = float(np.sqrt((wres * wres).sum() / denom)) if denom > 0 else float("nan")
    return FitResult(params=params, cam=cam, cost_trace=trace, final_rms_px=rms)


SMOOTH_KERNEL = np.array([0.1, 0.2, 0.5, 0.2, 0.1])


def temporal_smooth(seq):
    """Per-dimension 5-tap weighted-average smoothing of a parameter sequence.

    Every window (truncated ones at the boundaries included) is renormalized
    to unit weight.  The update is computed in deviation form,
    ``x[t] + sum_i w_i (x[t+i] - x[t]) / sum_i w_i``, so constant sequences
    are exact fixed points in floating point.

    Note: the raw kernel weights sum to 1.1, so without renormalization the
    smoother would scale every parameter by 1.1 at interior frames.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.size == 0:
        raise DimensionError("cannot smooth an empty sequence")
    squeeze = seq.ndim == 1
    if squeeze:
        seq = seq[:, None]
    T = seq.shape[0]
    out = np.empty_like(seq)
    half = SMOOTH_KERNEL.size // 2
    for t in range(T):
        lo = max(0, t - half)
        hi = min(T, t + half + 1)
        w = SMOOTH_KERNEL[lo - t + half:hi - t + half]
        dev = seq[lo:hi] - seq[t]
        out[t] = seq[t] + (w[:, None] * dev).sum(axis=0) / w.sum()
    return out[:, 0] if squeeze else out
