"""Optimization-based integration: damped least squares on 2D reprojection + priors."""

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, FitError, InvalidJointError, map_frames
from .integration import PoseLayout, WholeBodyParams
from .kinematics import forward_kinematics
from .model import JointFold, check_pose
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


# The shape prior's weight relative to the unit weight of the 2D reprojection
# terms.  The fit keeps beta fixed, so its rows add a constant to the cost.
# They stay: without them, which trial steps round to no rise in cost
# changes (a frame started at its optimum went from 0 to 7 rejected steps).
SHAPE_PRIOR_WEIGHT = 1e-1
# The pose prior's weight relative to the unit weight of the 2D reprojection terms.
POSE_PRIOR_WEIGHT = 1e-2


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 20
    # Central-difference step for checking the exact Jacobian; `fit` itself
    # does not difference.
    fd_step = 1e-6

    def __post_init__(self):
        if self.iterations < 1:
            raise DimensionError("iterations must be >= 1")


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


def _fold_bones(model, fitted):
    """The skeleton pairs of `model.JointFold` rebound to the fitted joints
    `fitted` (ascending, the root first), as ``(parents, fold, merge)``.

    With the fingers and shape fixed, a bone j that is not fitted hangs from
    its nearest fitted ancestor a by a transform ``(R_rel, t_rel)`` that no
    fitted rotation moves, so its pair term is ``T_p = R_a V_p + C_kj t_a``
    with the virtual vertex ``V_p = R_rel U_p + C_kj t_rel`` bound to a.
    This is exact, and it needs every ancestor of a fitted joint fitted.
    The pairs of a joint that share a bone then merge: pair q of `fold`
    sums the skeleton pairs p with ``merge[q, p] = 1``.  `fold` is a
    `JointFold` over the fitted joints, whose tree is `parents`; it has no
    shape basis, and `_ParamVector.bind` sets its vertices per frame.
    """
    full = model.joint_fold
    K, F = model.num_joints, fitted.size
    index = np.full(K, -1)
    index[fitted] = np.arange(F)
    parents = np.concatenate([[-1], index[model.tree.parents[fitted[1:]]]])
    if (parents[1:] < 0).any():
        raise InvalidJointError(
            f"fitted joint {fitted[1:][parents[1:] < 0][0]} has a parent that the fit keeps fixed")
    # The skeleton pairs; the regressor rows past them reach no residual.
    P = full.bounds[K]
    # The deepest fitted ancestor of a bone is the one with the largest index.
    below = _kernels.ancestor_matrix(model.tree.parents)[full.pair_bone[:P]]
    bone = np.argmax(below[:, fitted] * np.arange(1, F + 1), axis=1)
    keys, pair = np.unique(full.pair_joint[:P] * F + bone, return_inverse=True)
    merge = (pair == np.arange(keys.size)[:, None]).astype(np.float64)
    k, bone = keys // F, keys % F
    fold = JointFold(weights=np.eye(F)[bone], vertices=None, vertex_basis=None,
                     pair_joint=k, pair_bone=bone, pair_blend=merge @ full.pair_blend[:P],
                     bounds=np.searchsorted(k, np.arange(K + 1)))
    return parents, fold, merge


def _pair_blocks(fold, parents, n):
    """The pairs of a fold that `_ParamVector.jacobian` reads, grouped once per fit, as
    ``(joint, bone, pairs, starts, depth, at)``.  Block b of the (joint k,
    bone a) blocks that can be nonzero is joint ``joint[b]`` and bone
    ``bone[b]``; its pairs are the pairs of k whose bone lies at or below a in
    the fold's tree `parents`, ``pairs[starts[b]:starts[b + 1]]``, and
    ``depth[b]`` is the sum of their C_kj.  In a (2K, n) Jacobian of n packed
    columns, entry (r, c) of block b, row 2 k + r and column 3 a + c, is at
    the flat position ``at[(3 r + c) nb + b]``.
    """
    F = parents.size
    # Pair q counts toward block (its joint, a) for each a at or above its bone.
    q, a = np.nonzero(_kernels.ancestor_matrix(parents)[fold.pair_bone])
    key = fold.pair_joint[q] * F + a
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    k, a, pairs = keys // F, keys % F, q[order]
    at = (2 * k + np.arange(2)[:, None, None]) * n + 3 * a + np.arange(3)[:, None]
    return k, a, pairs, starts, np.add.reduceat(fold.pair_blend[pairs], starts), at.ravel()


# Component orders of `_ParamVector.jacobian`.
_YZX = np.array([1, 2, 0])
_XYZX = np.array([0, 1, 2, 0])


class _ParamVector:
    """The fit's objective, over the entries of the flat `WholeBodyParams.vector`
    layout that the fit frees: the global orientation, the body rows of theta
    (wrists included) and the camera, in ascending order.  The fingers and
    beta keep the values of `base`, ``init.vector(cam_init)`` (D,) or one per
    frame (T, D) (`bind`), so the fit poses the model folded onto its fitted
    joints (`_fold_bones`), at `base` (`posed`).  Prior row ``prior_rows[i]``
    of `residuals` is `prior_weight` times packed column ``prior_cols[i]``
    less its value in `x0`, ``base[..., free]``, so the pose prior pulls each
    frame toward its own start, and `normal_equations` adds those entries to
    JᵀJ and Jᵀr without differentiating them.  `config` is not read.
    """

    def __init__(self, model, init, cam_init, config):
        rows = PoseLayout.from_model(model).body_rows
        self.model = model
        # Skeleton joints whose axis-angles lead the packed vector, in order.
        self.fitted_joints = np.concatenate([[0], rows + 1])
        self.parents, self.fold, self.merge = _fold_bones(model, self.fitted_joints)
        self.num_betas = init.beta_w.beta.shape[0]
        self.base = init.vector(cam_init)
        mask = np.zeros((1, self.base.size), dtype=bool)
        phi, theta, _, scale, trans = WholeBodyParams.split(mask, self.num_betas)
        phi[:] = theta[:, rows] = scale[:] = trans[:] = True
        self.free = np.flatnonzero(mask)
        self.blocks = _pair_blocks(self.fold, self.parents, self.free.size)
        # The prior rows follow the 2K reprojection rows, one per entry of theta.
        self.prior_rows = 2 * model.num_joints + (3 * rows[:, None] + np.arange(3)).ravel()
        self.prior_cols = 3 + np.arange(3 * rows.size)
        self.prior_weight = np.sqrt(POSE_PRIOR_WEIGHT)

    def bind(self, kp, base=None):
        """The objective of the keypoints `kp` at the base vectors `base`: one
        frame (D,), by default the init's vector, or one per frame (T, D) with
        keypoints (T, K, 2).  It sets each of these once, with the leading
        axes of `base`: the keypoints and their weights ``sqrt(confidence)``;
        `x0`, the packed start ``base[..., free]``; `posed`; and `tail`, the
        prior rows at x0, which are zero for the pose prior, then the shape
        prior's.

        `posed` is ``(fold, rest)``: the fold with the virtual vertices
        (..., P, 3) of each base vector, and the rest positions (..., F, 3)
        of the fitted joints.  The full model is posed once, with every
        fitted rotation at identity, which leaves each other bone at its
        transform relative to its nearest fitted ancestor.
        """
        other = copy.copy(self)
        base = self.base if base is None else base
        other.base, other.x0 = base, base[..., self.free]
        other.points, other.weights = kp.points, np.sqrt(kp.confidence)
        model, full = self.model, self.model.joint_fold
        _, theta, beta, _, _ = WholeBodyParams.split(base, self.num_betas)
        local = np.zeros(theta.shape[:-2] + (model.num_joints, 3))
        local[..., 1:, :] = theta
        local[..., self.fitted_joints, :] = 0.0
        rest = model.rest_joints(beta)
        fk = forward_kinematics(model.tree, rest, local[..., 0, :], local)
        terms = full.terms(full.shaped(beta), fk.rotations, fk.translations)
        vertices = self.merge @ terms[..., :self.merge.shape[1], :]
        other.posed = (dataclasses.replace(self.fold, vertices=vertices),
                       rest[..., self.fitted_joints, :])
        pose = 3 * theta.shape[-2]
        other.tail = np.zeros(base.shape[:-1] + (pose + beta.shape[-1],))
        other.tail[..., pose:] = np.sqrt(SHAPE_PRIOR_WEIGHT) * beta
        return other

    def take(self, frames):
        """The objective of the base vectors `frames` of a stacked base (T, D),
        with their rows of everything `bind` sets."""
        other = copy.copy(self)
        other.base, other.x0, other.tail = self.base[frames], self.x0[frames], self.tail[frames]
        other.points, other.weights = self.points[frames], self.weights[frames]
        fold, rest = self.posed
        other.posed = dataclasses.replace(fold, vertices=fold.vertices[frames]), rest[frames]
        return other

    def pack(self, params, cam):
        return params.vector(cam)[self.free]

    def rows(self, cols):
        """Full vectors (B, D) of the packed vectors in the rows of `cols` (B, n)."""
        rows = np.broadcast_to(self.base, (cols.shape[0], self.base.shape[-1])).copy()
        rows[:, self.free] = cols
        return rows

    def canonicalized(self, x):
        """The packed vectors x (..., n), each axis-angle block made canonical in place."""
        blocks = x[..., :3 * self.fitted_joints.size].reshape(x.shape[:-1] + (-1, 3))
        blocks[...] = canonicalize(blocks)
        return x

    def residuals(self, x):
        """Residuals at a packed vector x (n,), or one column of residuals per
        column of x (n, B); all columns are posed in one batched call.  The
        rows are the 2K reprojection rows of the keypoints of `bind`,
        weighted by `weights`, ``sqrt(confidence)``, then one pose prior row per
        entry of theta and one shape prior row per beta.  The prior rows of
        the fixed entries and of beta do not depend on x; `bind` builds them
        (`tail`), and each call writes only the x-dependent rows
        ``prior_rows`` over them.

        The columns pose only `posed`, the model folded onto its fitted
        joints: Rodrigues on the packed axis-angles, FK over the fitted joints
        and the folded pair terms, which sum to the joints of `pose_joints` at
        the full parameters.  `base` and the keypoints hold one frame, shared
        by every column, or one frame per column (leading axis B).  The
        columns' rotations and translations of the fitted joints and their
        pair terms (leading axis B) are kept as `fk`, so `jacobian` need not
        pose them again.
        """
        x = np.asarray(x, dtype=np.float64)
        cols = x.reshape(x.shape[0], -1).T
        B = cols.shape[0]
        fold, rest = self.posed
        F = self.fitted_joints.size
        rots = _kernels.rodrigues_batch(cols[:, :3 * F].reshape(B, F, 3))
        R, t = _kernels.fk_chain(self.parents, rest, rots, _kernels.IDENTITY)
        T = fold.terms(fold.vertices, R, t)
        self.fk = R, t, T
        joints = np.add.reduceat(T, fold.bounds[:-1], axis=1)
        m2 = 2 * self.model.num_joints
        r = np.empty((B, m2 + self.tail.shape[-1]))
        # The camera scale and translation are packed last.
        r2d = r[:, :m2].reshape(B, -1, 2)
        np.multiply(cols[:, -3, None, None], joints[..., :2], out=r2d)
        r2d += cols[:, None, -2:]
        r2d -= self.points
        r2d *= self.weights[..., None]
        r[:, m2:] = self.tail
        prior = self.prior_cols
        r[:, self.prior_rows] = self.prior_weight * (cols[:, prior] - self.x0[..., prior])
        return r[0] if x.ndim == 1 else r.T

    def jacobian(self, x):
        """Exact Jacobian (2K, n) of the 2K reprojection rows of `residuals`
        at a packed vector x (n,), or one per column of x (n, T), stacked to
        (T, 2K, n).  It reads `fk`, so the last `residuals` call must have
        been at this x.  The prior rows are constant (`normal_equations`).

        In the fold of `_fold_bones`, posed joint k is the sum of its pair terms
        ``T_q = R_a V_q + C_ka t_a`` over the fitted joints a.  Perturbing the
        axis-angle theta_a of fitted joint a (theta_0 is the global orientation)
        by d rotates every transform below a by ``omega = R_a Jr(theta_a) d``
        about the joint's world centre ``c_a = R_a rest_a + t_a``, so

            dP_k / d theta_a = -[S_ka - D_ka c_a]x R_a Jr(theta_a),

        with S_ka the sum of T_q and D_ka the sum of C_kb over the pairs of k
        whose bone b is at or below a; only the blocks of `_pair_blocks` have
        such pairs.  The camera columns are the weighted posed joints (scale)
        and the weights (translation).  Every sum runs over one frame's pairs,
        so a frame's Jacobian has the same bits however many frames come with
        it.
        """
        x = np.asarray(x, dtype=np.float64)
        cols = x.reshape(x.shape[0], -1).T
        B = cols.shape[0]
        fold, rest = self.posed
        F = self.fitted_joints.size
        R, t, T = self.fk

        k, f, pairs, starts, depth, at = self.blocks
        w = self.weights
        centre = (R @ rest[..., None])[..., 0] + t
        # v of every block (B, 3, nb), with its components as rows in the order
        # (y, z, x), and A = R_a Jr(theta_a) of every block (B, 4, 3, nb), its
        # rows in the order (x, y, z, x): the x and y rows of -[v]x A,
        # v_z A_y - v_y A_z and v_x A_z - v_z A_x, are one product less another.
        v = np.add.reduceat(T.transpose(0, 2, 1)[:, _YZX].take(pairs, axis=2), starts, axis=2)
        v -= depth * centre.transpose(0, 2, 1)[:, _YZX].take(f, axis=2)
        v *= (cols[:, -3, None] * w).take(k, axis=1)[:, None]
        A = R @ right_jacobian(cols[:, :3 * F].reshape(B, F, 3))
        A = A[..., _XYZX, :].transpose(0, 2, 3, 1).take(f, axis=3)
        blocks = v[:, 1:, None] * A[:, 1:3]
        blocks -= v[:, :2, None] * A[:, 2:]
        jac = np.zeros((B, 2 * self.model.num_joints, cols.shape[1]))
        jac.reshape(B, -1)[:, at] = blocks.reshape(B, -1)
        i = 3 * F
        joints = np.add.reduceat(T, fold.bounds[:-1], axis=1)
        jac[:, :, i] = (w[..., None] * joints[..., :2]).reshape(B, -1)
        jac[:, 0::2, i + 1] = w
        jac[:, 1::2, i + 2] = w
        return jac[0] if x.ndim == 1 else jac

    def normal_equations(self, J, r):
        """JᵀJ (T, n, n) and Jᵀr (T, n) of the residuals r (T, m) whose leading 2K
        rows have the Jacobian J (T, 2K, n), with the prior's diagonal entries."""
        Jt = np.ascontiguousarray(J.transpose(0, 2, 1))
        JtJ = Jt @ J
        cols, w = self.prior_cols, self.prior_weight
        JtJ[:, cols, cols] += w * w
        Jtr = (Jt @ r[:, :J.shape[1], None])[..., 0]
        Jtr[:, cols] += w * r[:, self.prior_rows]
        return JtJ, Jtr


def _residuals(model, packer, anchor, kp, config, x):
    """`_ParamVector.residuals` of `packer` bound to the keypoints `kp`, at x.
    The prior pulls toward the init of `packer`; `model`, `anchor` and
    `config` are not read."""
    return packer.bind(kp).residuals(x)


def fit_jacobian(residual_fn, x, step):
    """Central-difference reference Jacobian (m, n) of a residual function at x (n,).

    The result is ``(f(+) - f(-)) / (2 step)``, with `residual_fn` called on
    column stacks: given an (n, n) array whose column i is ``x + step e_i``
    (then ``x - step e_i``), it returns the (m, n) array whose column i is
    the residual vector of that column.  If `residual_fn` has a ``jacobian``
    attribute, the result is ``residual_fn.jacobian(x)`` instead: the fit
    hands it its objective, a `_ParamVector`, with x as one column per frame
    (n, T), and gets one Jacobian of the reprojection rows per frame
    (T, 2K, n) back.  The tests check that exact Jacobian, and the prior
    entries of `_ParamVector.normal_equations`, against the difference.
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
    kp = KeypointSet2D(np.stack([k.points for k in kps]), np.stack([k.confidence for k in kps]))
    objective = _ParamVector(model, inits[0], cams[0], config).bind(
        kp, np.stack([init.vector(cam) for init, cam in zip(inits, cams)]))
    x = objective.x0.copy()
    r = objective.residuals(x.T).T
    cost = np.vecdot(r, r)
    bad = np.flatnonzero(~np.isfinite(cost))
    if bad.size:
        err = FitError("initial cost is not finite")
        err.frame = first + int(bad[0])
        raise err

    T, n = x.shape
    trace = np.empty((T, config.iterations))
    tries = np.zeros(T, dtype=np.int64)      # trial steps
    stalls = np.zeros(T, dtype=np.int64)     # iterations that ran out of retries
    for it in range(config.iterations):
        JtJ, Jtr = objective.normal_equations(fit_jacobian(objective, x.T, config.fd_step), r)
        if it == 0:
            lam = np.minimum(np.maximum(1e-6 * np.diagonal(JtJ, axis1=1, axis2=2).max(axis=1),
                                        1e-12), 1e12)
        pending = np.arange(T)
        # `fk` holds the folded pose of each frame's accepted x, which the
        # Jacobian reads.  The first round poses every frame, so it runs on
        # the objective itself; later rounds pose the frames still pending.
        trial, fk = objective, objective.fk
        for _ in range(MAX_RETRIES):
            damped = JtJ.take(pending, axis=0)
            damped.reshape(-1, n * n)[:, ::n + 1] += lam.take(pending)[:, None]
            g = Jtr.take(pending, axis=0)
            step = np.linalg.solve(damped, g[..., None])[..., 0]
            x_new = objective.canonicalized(x.take(pending, axis=0) - step)
            r_new = trial.residuals(x_new.T).T
            cost_new = np.vecdot(r_new, r_new)
            # A step that leaves no valid camera is rejected like one whose
            # cost is not finite, which fails the comparison with the held,
            # finite cost.  The camera scale is packed third from last.
            ok = (cost_new <= cost[pending]) & (x_new[:, -3] > 0)
            tries[pending] += 1
            done, pending = pending[ok], pending[~ok]
            # Gain ratio: the cost decrease over the linearised model's,
            # stepᵀ(lam step + Jᵀr).  rho >= 1 scales the damping as rho = 1
            # does, and so does a prediction of 0 (a frame at its optimum,
            # where Jᵀr = 0), which leaves rho = 0 / 0.
            step, kept = step[ok], lam[done]
            gain = cost[done] - cost_new[ok]
            pred = np.einsum("ij,ij->i", step, kept[:, None] * step + g[ok])
            rho = np.divide(gain, pred, out=np.ones_like(pred), where=pred > gain)
            x[done], r[done], cost[done] = x_new[ok], r_new[ok], cost_new[ok]
            lam[done] = np.minimum(np.maximum(
                kept * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), 1e-12), 1e12)
            lam[pending] = np.minimum(lam[pending] * 10.0, 1e12)
            for held, new in zip(fk, trial.fk):
                held[done] = new[ok]
            if not pending.size:
                break
            trial = objective.take(pending)
        else:
            stalls[pending] += 1
        objective.fk = fk
        trace[:, it] = cost

    accepted = config.iterations - stalls
    # The leading 2K residuals of the accepted x are its weighted 2D errors.
    r2d = r[:, :2 * model.num_joints]
    rows = objective.rows(x)
    return [FitResult(params=WholeBodyParams.from_vector(rows[t], objective.num_betas),
                      cost_trace=trace[t],
                      final_rms_px=float(np.sqrt((r2d[t] * r2d[t]).sum() / kp.confidence[t].sum())),
                      status="stalled" if stalls[t] else "ok",
                      accepted_steps=int(accepted[t]), rejected_steps=int(tries[t] - accepted[t]))
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
    T = seq.shape[0]
    flat = seq.reshape(T, -1)
    out = np.empty_like(flat)
    half = SMOOTH_KERNEL.size // 2
    for t in range(T):
        lo = max(0, t - half)
        hi = min(T, t + half + 1)
        w = SMOOTH_KERNEL[lo - t + half:hi - t + half]
        dev = flat[lo:hi] - flat[t]
        out[t] = flat[t] + (w[:, None] * dev).sum(axis=0) / w.sum()
    return out.reshape(seq.shape)
