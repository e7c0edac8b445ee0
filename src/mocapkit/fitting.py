"""Optimization-based integration: damped least squares on 2D reprojection + priors."""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FitError, check_each
from .integration import PoseLayout, WholeBodyParams
from .kinematics import forward_kinematics
from .model import PoseParams, check_pose, pose_joints
from .rotations import canonicalize, right_jacobian


@dataclass(frozen=True)
class KeypointSet2D:
    """2D keypoints aligned to the model's whole-body joint order, with confidences.

    Leading axes, if any, stack the keypoints of several frames.
    """

    points: np.ndarray         # (..., K, 2) px
    confidence: np.ndarray     # (..., K) in [0, 1]

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        c = np.asarray(self.confidence, dtype=np.float64)
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "confidence", c)
        if p.ndim < 2 or p.shape[-1] != 2:
            raise DimensionError("points must be (K, 2)")
        if c.shape != p.shape[:-1]:
            raise DimensionError("confidence must be (K,)")
        bad = ~(np.isfinite(p).all(axis=-1) & np.isfinite(c))
        if bad.any():
            raise DimensionError(
                f"joint {int(np.argwhere(bad)[0, -1])}: keypoint or confidence is not finite")
        if np.any(c < 0) or np.any(c > 1):
            raise DimensionError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 20
    # Prior weights relative to the unit weight of the 2D reprojection terms.
    weight_prior_pose: float = 1e-2
    weight_prior_shape: float = 1e-1
    max_retries: int = 50
    # Central-difference step for checking the exact Jacobian; `fit` itself
    # does not difference.
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
        for w in (self.weight_prior_pose, self.weight_prior_shape):
            if w < 0:
                raise DimensionError("weights must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    params: WholeBodyParams
    cost_trace: np.ndarray       # cost after each iteration
    final_rms_px: float          # confidence-weighted reprojection RMS
    status: str                  # "ok", or "stalled" if an iteration ran out of retries
    accepted_steps: int          # trial steps that kept the cost from rising
    rejected_steps: int          # trial steps that raised it (damping went up)


def _check_frame(model, init, kp):
    """The checks `fit` makes on one frame before it starts."""
    if kp.points.shape[-2] != model.num_joints:
        raise DimensionError(
            f"keypoint layout has {kp.points.shape[-2]} joints, model has {model.num_joints}")
    if kp.confidence.max() <= 0.0:
        raise FitError("all keypoint confidences are zero; the fit is unconstrained")
    check_pose(model, init.pose(), init.beta_w)


class _ParamVector:
    """The free entries of the flat `WholeBodyParams.vector` layout.

    A packed vector holds the free positions of ``init.vector(cam_init)`` in
    ascending order; frozen positions keep their initial values.  `base` is
    that full vector (D,), or one per frame (T, D) after `with_base`.
    """

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
        # Skeleton joints whose axis-angles lead the packed vector, in order.
        self.free_joints = np.concatenate(
            [[0] if config.free_global_orient else [], self.free_rows + 1]).astype(np.int64)
        self.num_betas = init.beta_w.beta.shape[0]
        self.base = init.vector(cam_init)
        mask = np.zeros((1, self.base.size), dtype=bool)
        phi, theta, beta, scale, trans = WholeBodyParams.split(mask, self.num_betas)
        phi[:] = config.free_global_orient
        theta[:, self.free_rows] = True
        beta[:] = config.free_shape
        scale[:] = trans[:] = config.free_camera
        self.free = np.flatnonzero(mask)

    def with_base(self, base):
        """The same free positions over other base vectors, e.g. one per frame (T, D)."""
        other = copy.copy(self)
        other.base = base
        return other

    def pack(self, params, cam):
        return params.vector(cam)[self.free]

    def rows(self, cols):
        """Full vectors (B, D) of the packed vectors in the rows of `cols` (B, n)."""
        rows = np.broadcast_to(self.base, (cols.shape[0], self.base.shape[-1])).copy()
        rows[:, self.free] = cols
        return rows

    def decode(self, cols):
        """`WholeBodyParams.split` of the packed vectors in the rows of `cols` (B, n)."""
        return WholeBodyParams.split(self.rows(cols), self.num_betas)

    def canonicalized(self, x):
        """Packed vectors (..., n) with each axis-angle block made canonical."""
        x = x.copy()
        blocks = x[..., :3 * self.free_joints.size].reshape(x.shape[:-1] + (-1, 3))
        blocks[...] = canonicalize(blocks)
        return x


def _residuals(model, packer, anchor, kp, config, x, keep_fk=None):
    """Residuals at a packed vector x (n,), or one column of residuals per
    column of x (n, B); all columns are posed in one batched call.

    The prior pulls the pose toward `anchor`, or toward the pose of
    `packer.base` when `anchor` is None.  `packer.base` and `kp` hold one
    frame, shared by every column, or one frame per column (leading axis B).
    If `keep_fk` is a list, the FkResult of the columns (leading axis B) is
    appended to it, so that `_jacobian` need not pose them again.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(x.shape[0], -1).T
    B = cols.shape[0]
    phi, theta, beta, scale, trans = packer.decode(cols)
    joints, fk = pose_joints(model, PoseParams(phi, theta), beta, return_fk=True)
    if keep_fk is not None:
        keep_fk.append(fk)
    joints = joints[:, : model.num_joints]
    projected = scale[:, None, None] * joints[..., :2] + trans[:, None, :]
    r2d = np.sqrt(kp.confidence)[..., None] * (projected - kp.points)
    centre = (WholeBodyParams.split(packer.base, packer.num_betas)[1] if anchor is None
              else anchor.theta_w)
    rp = np.sqrt(config.weight_prior_pose) * (theta - centre).reshape(B, -1)
    rs = np.sqrt(config.weight_prior_shape) * beta
    r = np.concatenate([r2d.reshape(B, -1), rp, rs], axis=1)
    return r[0] if x.ndim == 1 else r.T


def _jacobian(model, packer, kp, config, x, fk=None):
    """Exact Jacobian (m, n) of `_residuals` at a packed vector x (n,), or one
    per column of x (n, T), stacked to (T, m, n).  `fk` is the FkResult of
    the columns of x, as `_residuals` keeps it; None poses them here.

    With C = joint_regressor @ skin_weights folded as in `model.JointFold`,
    posed joint k is ``P_k = sum_j T_kj``, ``T_kj = R_j U_kj + C_kj t_j``.
    Perturbing the axis-angle theta_a of joint a (theta_0 is the global
    orientation) by d rotates every transform below a by
    ``omega = R_a Jr(theta_a) d`` about the joint's world centre
    ``c_a = R_a rest_a + t_a``, so

        dP_k / d theta_a = -[S_ka - D_ka c_a]x R_a Jr(theta_a),

    with S_ka the sum of T_kj and D_ka the sum of C_kj over j at or below a.
    At a fixed pose the joints are affine in beta: ``t_j`` is the sum of
    ``(R_parent(i) - R_i) rest_i`` over i at or above j, which gives d t /
    d beta from the rest basis, and ``U`` has its own basis.
    """
    fold = model.joint_fold
    K = model.num_joints
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(x.shape[0], -1).T
    B = cols.shape[0]
    phi, theta, beta, scale, _ = packer.decode(cols)
    verts, rest = fold.shaped(beta)
    if fk is None:
        pose = PoseParams(phi, theta)
        fk = forward_kinematics(model.tree, rest, pose.global_orient, pose.full_local_poses())
    R, t = fk.rotations, fk.translations

    T = fold.blend[:, :, None] * t[:, None]
    T[:, fold.pair_joint, fold.pair_bone] += (R[:, fold.pair_bone] @ verts[..., None])[..., 0]
    T = T[:, :K]

    a = packer.free_joints
    aa = np.concatenate([phi[:, None], theta], axis=1)[:, a]
    centre = (R[:, a] @ rest[:, a, :, None])[..., 0] + t[:, a]
    v = fold.subtree[:, a].T @ T - fold.blend_subtree[:K, a, None] * centre[:, None]
    A = (R[:, a] @ right_jacobian(aa))[:, None]
    # x and y rows of -[v]x A
    dxy = np.stack([v[..., 2, None] * A[..., 1, :] - v[..., 1, None] * A[..., 2, :],
                    v[..., 0, None] * A[..., 2, :] - v[..., 2, None] * A[..., 0, :]], axis=2)

    w = np.sqrt(kp.confidence)
    sw = scale[:, None] * w
    m2 = 2 * K
    n_pose = 3 * a.size
    m = m2 + 3 * (K - 1) + packer.num_betas
    jac = np.zeros((B, m, cols.shape[1]))
    jac[:, :m2, :n_pose] = (sw[..., None, None, None] * dxy).reshape(B, m2, n_pose)
    prior_rows = (m2 + 3 * packer.free_rows[:, None] + np.arange(3)).ravel()
    prior_cols = np.arange(n_pose - prior_rows.size, n_pose)
    jac[:, prior_rows, prior_cols] = np.sqrt(config.weight_prior_pose)
    i = n_pose
    if config.free_shape:
        nb = packer.num_betas
        parent_rots = np.concatenate(
            [np.broadcast_to(np.eye(3), (B, 1, 3, 3)), R[:, model.tree.parents[1:]]], axis=1)
        q = np.einsum("tjcd,bjd->tbjc", parent_rots - R, fold.rest_basis)
        dt = fold.subtree @ q
        du = np.einsum("tpcd,bpd->tbpc", R[:, fold.pair_bone], fold.vertex_basis)
        dP = fold.pair_rows[:K] @ du + fold.blend[:K] @ dt
        dxy_beta = dP[..., :2].transpose(0, 2, 3, 1)
        jac[:, :m2, i:i + nb] = (sw[..., None, None] * dxy_beta).reshape(B, m2, nb)
        jac[:, m - nb + np.arange(nb), i + np.arange(nb)] = np.sqrt(config.weight_prior_shape)
        i += nb
    if config.free_camera:
        jac[:, :m2, i] = (w[..., None] * T.sum(axis=2)[..., :2]).reshape(B, m2)
        jac[:, 0:m2:2, i + 1] = w
        jac[:, 1:m2:2, i + 2] = w
    return jac[0] if x.ndim == 1 else jac


def _fit_residuals(model, packer, anchor, kp, config, fk=None):
    """`_residuals` of one fit as a function of x, carrying its exact Jacobian;
    `fk`, if given, is the FkResult of the x the Jacobian will be taken at."""

    def residuals(x):
        return _residuals(model, packer, anchor, kp, config, x)

    residuals.jacobian = lambda x: _jacobian(model, packer, kp, config, x, fk)
    return residuals


def fit_jacobian(residual_fn, x, step):
    """Central-difference reference Jacobian (m, n) of a residual function at x (n,).

    The result is ``(f(+) - f(-)) / (2 step)``, with `residual_fn` called on
    column stacks: given an (n, n) array whose column i is ``x + step e_i``
    (then ``x - step e_i``), it returns the (m, n) array whose column i is
    the residual vector of that column.  If `residual_fn` has a ``jacobian``
    attribute, the result is ``residual_fn.jacobian(x)`` instead: the fit
    reaches `_jacobian` this way, through `_fit_residuals`, with x as one
    column per frame (n, T) and one Jacobian per frame (T, m, n) back.  The
    tests check that exact Jacobian against the difference.
    """
    x = np.asarray(x, dtype=np.float64)
    exact = getattr(residual_fn, "jacobian", None)
    if exact is not None:
        return exact(x)
    h = step * np.eye(x.shape[0])
    jac = residual_fn(x[:, None] + h)
    jac -= residual_fn(x[:, None] - h)
    jac /= 2.0 * step
    return jac


def fit(model, init, cam_init, kp, config=None):
    """Damped least-squares fit of the free parameters to 2D keypoints.

    Runs `config.iterations` Levenberg-Marquardt iterations, each with the
    exact Jacobian J at the current residuals r.  The damping starts at
    1e-6 times the largest diagonal entry of JᵀJ.  A trial step that would
    raise the cost is rejected: the damping goes up 10× and the step is
    retried, up to `config.max_retries` times; an iteration that runs out of
    retries keeps its parameters and makes the result's status "stalled".
    An accepted step scales the damping by ``max(1/3, 1 - (2 rho - 1)^3)``,
    where the gain ratio rho is the cost decrease over the decrease the
    linearised model predicts (Madsen, Nielsen & Tingleff 2004, §3.2).  The
    damping stays within [1e-12, 1e12].  The cost trace is non-increasing.
    """
    return fit_frames(model, [(init, cam_init, kp)], config)[0]


# `fit_frames` runs at most this many frames in one lockstep loop, which
# bounds the memory of its batched Jacobian on long inputs.
FIT_GROUP = 32


def fit_frames(model, frames, config=None):
    """`fit` of every ``(init, cam_init, kp)`` in `frames`; one FitResult each.

    The frames are fitted in lockstep: every iteration poses and
    differentiates all of them in one batched call, and every retry round
    solves and poses the frames whose step is still pending.  Each frame
    keeps its own parameters, damping, cost trace, status and step counts,
    so its result is bit for bit that of fitting it alone.  Every frame is
    checked before any is fitted; an error raised for the frame at position
    t of `frames` has ``frame = t``.
    """
    config = config or FitConfig()
    frames = list(frames)
    check_each(frames, lambda frame: _check_frame(model, frame[0], frame[2]))
    results = []
    for first in range(0, len(frames), FIT_GROUP):
        results += _fit_lockstep(model, frames[first:first + FIT_GROUP], config, first)
    return results


def _fit_lockstep(model, frames, config, first):
    inits, cams, kps = zip(*frames)
    packer = _ParamVector(model, inits[0], cams[0], config).with_base(
        np.stack([init.vector(cam) for init, cam in zip(inits, cams)]))
    kp = KeypointSet2D(np.stack([k.points for k in kps]), np.stack([k.confidence for k in kps]))
    x = packer.base[:, packer.free]
    kept = []
    r = _residuals(model, packer, None, kp, config, x.T, kept).T
    # FK state of each frame's x, updated as steps are accepted, so that
    # `_jacobian` need not pose x again.
    fk = kept[0]
    cost = np.array([rt @ rt for rt in r])
    bad = np.flatnonzero(~np.isfinite(cost))
    if bad.size:
        err = FitError("initial cost is not finite")
        err.frame = first + int(bad[0])
        raise err

    T, n = x.shape
    m2 = 2 * model.num_joints
    diag = np.arange(n)
    trace = np.empty((T, config.iterations))
    accepted = np.zeros(T, dtype=np.int64)
    rejected = np.zeros(T, dtype=np.int64)
    stalled = np.zeros(T, dtype=bool)
    eye = np.eye(n)
    for it in range(config.iterations):
        J = fit_jacobian(_fit_residuals(model, packer, None, kp, config, fk), x.T, config.fd_step)
        # Each prior row holds one entry, each in its own column, so the prior
        # rows add only a diagonal to the reprojection rows' JᵀJ.
        JtJ = J[:, :m2].transpose(0, 2, 1) @ J[:, :m2]
        JtJ[:, diag, diag] += (J[:, m2:] * J[:, m2:]).sum(axis=1)
        Jtr = (J.transpose(0, 2, 1) @ r[..., None])[..., 0]
        if it == 0:
            lam = np.clip(1e-6 * JtJ[:, diag, diag].max(axis=1), 1e-12, 1e12)
        pending = np.arange(T)
        for _ in range(config.max_retries):
            step = np.linalg.solve(JtJ[pending] + lam[pending, None, None] * eye,
                                   Jtr[pending, :, None])[..., 0]
            x_new = packer.canonicalized(x[pending] - step)
            kp_new = KeypointSet2D(kp.points[pending], kp.confidence[pending])
            kept = []
            r_new = _residuals(model, packer.with_base(packer.base[pending]), None, kp_new,
                               config, x_new.T, kept).T
            cost_new = np.array([rt @ rt for rt in r_new])
            ok = np.isfinite(cost_new) & (cost_new <= cost[pending])
            done, pending = pending[ok], pending[~ok]
            # Gain ratio: the cost decrease over the linearised model's,
            # stepᵀ(lam step + Jᵀr).  rho >= 1 scales the damping as rho = 1
            # does, and so does a prediction of 0 (a frame at its optimum,
            # where Jᵀr = 0), which leaves rho = 0 / 0.
            gain = cost[done] - cost_new[ok]
            pred = np.einsum("ij,ij->i", step[ok], lam[done, None] * step[ok] + Jtr[done])
            rho = np.divide(gain, pred, out=np.ones_like(pred), where=pred > gain)
            x[done], r[done], cost[done] = x_new[ok], r_new[ok], cost_new[ok]
            fk.rotations[done] = kept[0].rotations[ok]
            fk.translations[done] = kept[0].translations[ok]
            lam[done] = np.clip(lam[done] * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), 1e-12, 1e12)
            lam[pending] = np.minimum(lam[pending] * 10.0, 1e12)
            accepted[done] += 1
            rejected[pending] += 1
            if not pending.size:
                break
        stalled[pending] = True
        trace[:, it] = cost

    # The leading 2K residuals of the accepted x are its weighted 2D errors.
    r2d = r[:, : 2 * model.num_joints]
    rows = packer.rows(x)
    return [FitResult(params=WholeBodyParams.from_vector(rows[t], packer.num_betas),
                      cost_trace=trace[t],
                      final_rms_px=float(np.sqrt((r2d[t] * r2d[t]).sum() / kp.confidence[t].sum())),
                      status="stalled" if stalled[t] else "ok",
                      accepted_steps=int(accepted[t]), rejected_steps=int(rejected[t]))
            for t in range(T)]


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
