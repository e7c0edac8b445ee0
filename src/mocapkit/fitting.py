"""Optimization-based integration: damped least squares on 2D reprojection + priors."""

import copy
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DimensionError, FitError, map_frames
from .integration import PoseLayout, WholeBodyParams
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
        check_keypoints(p, c)


def check_keypoints(points, confidence):
    """Raise a DimensionError unless keypoints (..., K, D) and confidences (..., K) are
    finite, naming the first bad joint, and the confidences lie in [0, 1]."""
    bad = ~(np.isfinite(points).all(axis=-1) & np.isfinite(confidence))
    if bad.any():
        raise DimensionError(
            f"joint {int(np.argwhere(bad)[0, -1])}: keypoint or confidence is not finite")
    if np.any(confidence < 0) or np.any(confidence > 1):
        raise DimensionError("confidences must lie in [0, 1]")


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 20
    # Prior weights relative to the unit weight of the 2D reprojection terms.
    weight_prior_pose: float = 1e-2
    weight_prior_shape: float = 1e-1
    # Central-difference step for checking the exact Jacobian; `fit` itself
    # does not difference.
    fd_step = 1e-6

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


def _pair_blocks(model, fitted):
    """The `model.JointFold` pairs `_jacobian` reads, grouped once per fit, as
    ``(joint, free, members, starts, depth)``.  Block b of the (skeleton
    joint k, fitted joint a) blocks that can be nonzero is joint ``joint[b]``
    and fitted joint ``fitted[free[b]]``, its pairs are
    ``members[starts[b]:starts[b + 1]]``, those of k whose bone lies at or
    below a, and ``depth[b]`` is the sum of their C_kj.  The regressor rows
    past the skeleton reach no residual.
    """
    fold = model.joint_fold
    p, i = np.nonzero(fold.subtree[fold.pair_bone[:fold.bounds[model.num_joints]]][:, fitted])
    k = fold.pair_joint[p]
    order = np.lexsort((p, i, k))
    p, i, k = p[order], i[order], k[order]
    starts = np.flatnonzero(np.diff(k * fitted.size + i, prepend=-1))
    return k[starts], i[starts], p, starts, np.add.reduceat(fold.pair_blend[p], starts)


class _ParamVector:
    """The entries of the flat `WholeBodyParams.vector` layout that the fit
    frees: the global orientation, the body rows of theta (wrists included)
    and the camera, in ascending order.  The fingers and beta keep the values
    of `base`, ``init.vector(cam_init)`` (D,), or one per frame (T, D) after
    `with_base`.  Prior row ``prior_rows[i]`` of `_residuals` is
    `prior_weight` times packed column ``prior_cols[i]`` less its anchor, so
    the fit adds those entries to JᵀJ and Jᵀr without differentiating them.
    """

    def __init__(self, model, init, cam_init, config):
        rows = PoseLayout.from_model(model).body_rows
        # Skeleton joints whose axis-angles lead the packed vector, in order.
        self.fitted_joints = np.concatenate([[0], rows + 1])
        self.blocks = _pair_blocks(model, self.fitted_joints)
        self.num_betas = init.beta_w.beta.shape[0]
        self.base = init.vector(cam_init)
        mask = np.zeros((1, self.base.size), dtype=bool)
        phi, theta, _, scale, trans = WholeBodyParams.split(mask, self.num_betas)
        phi[:] = theta[:, rows] = scale[:] = trans[:] = True
        self.free = np.flatnonzero(mask)
        # The prior rows follow the 2K reprojection rows, one per entry of theta.
        self.prior_rows = 2 * model.num_joints + (3 * rows[:, None] + np.arange(3)).ravel()
        self.prior_cols = 3 + np.arange(3 * rows.size)
        self.prior_weight = np.sqrt(config.weight_prior_pose)

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
        blocks = x[..., :3 * self.fitted_joints.size].reshape(x.shape[:-1] + (-1, 3))
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


def _jacobian(model, packer, kp, x, fk):
    """Exact Jacobian (2K, n) of the 2K reprojection rows of `_residuals` at a
    packed vector x (n,), or one per column of x (n, T), stacked to
    (T, 2K, n).  `fk` is the FkResult of the columns of x, as `_residuals`
    keeps it.  The prior rows are constant; see `_ParamVector`.

    With C = joint_regressor @ skin_weights folded as in `model.JointFold`,
    posed joint k is the sum of its pair terms ``T_p = R_j U_p + C_kj t_j``.
    Perturbing the axis-angle theta_a of joint a (theta_0 is the global
    orientation) by d rotates every transform below a by
    ``omega = R_a Jr(theta_a) d`` about the joint's world centre
    ``c_a = R_a rest_a + t_a``, so

        dP_k / d theta_a = -[S_ka - D_ka c_a]x R_a Jr(theta_a),

    with S_ka the sum of T_p and D_ka the sum of C_kj over the pairs of k
    whose bone is at or below a; only the blocks of `_pair_blocks` have
    such pairs.  The camera columns are the weighted posed joints (scale)
    and the weights (translation).  Every sum runs over one frame's pairs,
    so a frame's Jacobian has the same bits however many frames come with
    it.
    """
    fold = model.joint_fold
    K = model.num_joints
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(x.shape[0], -1).T
    B = cols.shape[0]
    phi, theta, beta, scale, _ = packer.decode(cols)
    verts, rest = fold.shaped(beta), model.rest_joints(beta)
    R, t = fk.rotations, fk.translations
    T = fold.terms(verts, R, t)

    k, f, members, starts, depth = packer.blocks
    a = packer.fitted_joints
    aa = np.concatenate([phi[:, None], theta], axis=1)[:, a]
    centre = (R[:, a] @ rest[:, a, :, None])[..., 0] + t[:, a]
    v = np.add.reduceat(T[:, members], starts, axis=1) - depth[:, None] * centre[:, f]
    A = (R[:, a] @ right_jacobian(aa))[:, f]
    # x and y rows of -[v]x A
    dxy = np.stack([v[..., 2, None] * A[..., 1, :] - v[..., 1, None] * A[..., 2, :],
                    v[..., 0, None] * A[..., 2, :] - v[..., 2, None] * A[..., 0, :]], axis=2)

    w = np.sqrt(kp.confidence)
    sw = scale[:, None] * w
    jac = np.zeros((B, 2 * K, cols.shape[1]))
    jac[:, 2 * k[:, None, None] + np.arange(2)[:, None], 3 * f[:, None, None] + np.arange(3)] = (
        sw[:, k, None, None] * dxy)
    i = 3 * a.size
    joints = np.add.reduceat(T, fold.bounds[:-1], axis=1)[:, :K]
    jac[:, :, i] = (w[..., None] * joints[..., :2]).reshape(B, 2 * K)
    jac[:, 0::2, i + 1] = w
    jac[:, 1::2, i + 2] = w
    return jac[0] if x.ndim == 1 else jac


def _fit_residuals(model, packer, kp, config, fk):
    """The 2K reprojection rows of `_residuals` as a function of x, carrying
    their exact Jacobian `_jacobian`; `fk` is the FkResult of the x the
    Jacobian will be taken at."""
    m2 = 2 * model.num_joints

    def reprojection(x):
        return _residuals(model, packer, None, kp, config, x)[:m2]

    reprojection.jacobian = lambda x: _jacobian(model, packer, kp, x, fk)
    return reprojection


def fit_jacobian(residual_fn, x, step):
    """Central-difference reference Jacobian (m, n) of a residual function at x (n,).

    The result is ``(f(+) - f(-)) / (2 step)``, with `residual_fn` called on
    column stacks: given an (n, n) array whose column i is ``x + step e_i``
    (then ``x - step e_i``), it returns the (m, n) array whose column i is
    the residual vector of that column.  If `residual_fn` has a ``jacobian``
    attribute, the result is ``residual_fn.jacobian(x)`` instead: the fit
    reaches `_jacobian` this way, through `_fit_residuals`, with x as one
    column per frame (n, T) and one Jacobian of the reprojection rows per
    frame (T, 2K, n) back.  The tests check that exact Jacobian, and the
    prior entries of `_ParamVector`, against the difference.
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
    """Damped least-squares fit of the global orientation, the body pose
    (wrists included) and the camera to 2D keypoints; the fingers and shape
    keep their values in `init`.

    Runs `config.iterations` Levenberg-Marquardt iterations, each with the
    exact Jacobian J at the current residuals r.  The damping starts at
    1e-6 times the largest diagonal entry of JᵀJ.  A trial step that would
    raise the cost, or make the camera scale ≤ 0, is rejected: the damping
    goes up 10× and the step is retried, up to `MAX_RETRIES` times;
    an iteration that runs out of retries keeps its parameters and makes the
    result's status "stalled".
    An accepted step scales the damping by ``max(1/3, 1 - (2 rho - 1)^3)``,
    where the gain ratio rho is the cost decrease over the decrease the
    linearised model predicts (Madsen, Nielsen & Tingleff 2004, §3.2).  The
    damping stays within [1e-12, 1e12].  The cost trace is non-increasing.
    """
    return fit_frames(model, [(init, cam_init, kp)], config)[0]


# `fit_frames` runs at most this many frames in one lockstep loop, which
# bounds the memory of its batched Jacobian on long inputs.
FIT_GROUP = 32
# Trial steps an iteration may reject before it gives up as stalled.
MAX_RETRIES = 50


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
    map_frames(lambda frame: _check_frame(model, frame[0], frame[2]), frames)
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
    trace = np.empty((T, config.iterations))
    accepted = np.zeros(T, dtype=np.int64)
    rejected = np.zeros(T, dtype=np.int64)
    stalled = np.zeros(T, dtype=bool)
    eye = np.eye(n)
    # A trial round poses the pending frames with `trial`, whose base vectors
    # it sets, against their rows of `kp`, which is checked once, above.
    trial = packer.with_base(packer.base)
    for it in range(config.iterations):
        J = fit_jacobian(_fit_residuals(model, packer, kp, config, fk), x.T, config.fd_step)
        Jt = np.ascontiguousarray(J.transpose(0, 2, 1))
        JtJ = Jt @ J
        cols, w = packer.prior_cols, packer.prior_weight
        JtJ[:, cols, cols] += w * w
        Jtr = (Jt @ r[:, :m2, None])[..., 0]
        Jtr[:, cols] += w * r[:, packer.prior_rows]
        if it == 0:
            lam = np.clip(1e-6 * np.diagonal(JtJ, axis1=1, axis2=2).max(axis=1), 1e-12, 1e12)
        pending = np.arange(T)
        for _ in range(MAX_RETRIES):
            step = np.linalg.solve(JtJ[pending] + lam[pending, None, None] * eye,
                                   Jtr[pending, :, None])[..., 0]
            x_new = packer.canonicalized(x[pending] - step)
            trial.base = packer.base[pending]
            kp_new = SimpleNamespace(points=kp.points[pending], confidence=kp.confidence[pending])
            kept = []
            r_new = _residuals(model, trial, None, kp_new, config, x_new.T, kept).T
            cost_new = np.array([rt @ rt for rt in r_new])
            # A step that leaves no valid camera is rejected like one whose
            # cost is not finite.  The camera scale is packed third from last.
            ok = np.isfinite(cost_new) & (cost_new <= cost[pending]) & (x_new[:, -3] > 0)
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
    r2d = r[:, :m2]
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
