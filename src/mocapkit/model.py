"""Parametric mesh model: shape blendshapes, joint regression, skinning."""

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError
from .kinematics import SkeletonTree, forward_kinematics

SIDES = ("left", "right")

# Frames of a file that `integration.copy_paste` and `mocapkit pose` run
# through one batched forward pass; memory then stays flat in file length.
FRAME_GROUP = 64


@dataclass(frozen=True)
class ParametricModel:
    """Template mesh + blendshapes + skinning weights + joint regressor + skeleton.

    skin_weights rows and joint_regressor rows are affine combinations (sum to 1).
    The first `num_joints` regressor rows correspond to the skeleton joints in
    order; any extra rows (e.g. fingertips) follow.
    """

    template_vertices: np.ndarray          # (N, 3)
    faces: np.ndarray                      # (F, 3) int
    shape_basis: np.ndarray                # (N, 3, B)
    skin_weights: np.ndarray               # (N, J)
    joint_regressor: np.ndarray            # (J_reg, N)
    tree: SkeletonTree
    fingertip_vertex_ids: dict             # side -> 5 vertex ids
    hand_joint_ids: dict                   # side -> 16 joint ids (wrist first)
    reference_knuckle_length: float

    def __post_init__(self):
        v = np.asarray(self.template_vertices, dtype=np.float64)
        object.__setattr__(self, "template_vertices", v)
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=np.int64))
        object.__setattr__(self, "shape_basis", np.asarray(self.shape_basis, dtype=np.float64))
        w = np.ascontiguousarray(self.skin_weights, dtype=np.float64)
        object.__setattr__(self, "skin_weights", w)
        reg = np.asarray(self.joint_regressor, dtype=np.float64)
        object.__setattr__(self, "joint_regressor", reg)
        self.validate()

    def validate(self):
        if self.template_vertices.ndim != 2 or self.template_vertices.shape[1] != 3:
            raise DimensionError("template_vertices must be (N, 3)")
        n = self.template_vertices.shape[0]
        j = self.tree.num_joints
        if self.shape_basis.ndim != 3 or self.shape_basis.shape[:2] != (n, 3):
            raise DimensionError("shape_basis must be (N, 3, B)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DimensionError("faces must be (F, 3)")
        if self.skin_weights.shape != (n, j):
            raise DimensionError("skin_weights must be (N, J)")
        if self.joint_regressor.shape[0] < j or self.joint_regressor.shape[1] != n:
            raise DimensionError("joint_regressor must be (J_reg >= J, N)")
        # A NaN passes every comparison below; it must not reach a posed joint.
        for name in ("template_vertices", "shape_basis", "skin_weights", "joint_regressor"):
            if not np.isfinite(getattr(self, name)).all():
                raise DimensionError(f"{name} must be finite")
        if np.any(self.skin_weights < -1e-12):
            raise DimensionError("skin_weights must be nonnegative")
        if np.abs(self.skin_weights.sum(axis=1) - 1.0).max() > 1e-6:
            raise DimensionError("skin_weights rows must sum to 1")
        if np.abs(self.joint_regressor.sum(axis=1) - 1.0).max() > 1e-6:
            raise DimensionError("joint_regressor rows must sum to 1")
        if not (np.isfinite(self.reference_knuckle_length) and self.reference_knuckle_length > 0):
            raise DimensionError("reference_knuckle_length must be finite and > 0")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
            raise DimensionError("face indices out of range")
        for side, ids in self.hand_joint_ids.items():
            if any(i < 0 or i >= j for i in ids):
                raise DimensionError(f"hand_joint_ids[{side}] out of range")
        for side, ids in self.fingertip_vertex_ids.items():
            if any(i < 0 or i >= n for i in ids):
                raise DimensionError(f"fingertip_vertex_ids[{side}] out of range")

    @property
    def num_vertices(self):
        return self.template_vertices.shape[0]

    @property
    def num_joints(self):
        return self.tree.num_joints

    @property
    def num_betas(self):
        return self.shape_basis.shape[2]

    def rest_joints(self, beta=None):
        """Skeleton joint rest positions (..., J, 3); `beta` as in `shape_template`."""
        return _blend(*self.rest_blend, beta_array(self, beta))

    @functools.cached_property
    def rest_blend(self):
        """The rest joints (J, 3) of the unshaped template and their shape basis (B, J, 3)."""
        skel = self.joint_regressor[: self.num_joints]
        return skel @ self.template_vertices, skel @ np.moveaxis(self.shape_basis, -1, 0)

    @functools.cached_property
    def joint_fold(self):
        """The joint regressor folded into skinning; see `JointFold`."""
        return JointFold.of(self)

    @functools.cached_property
    def body_joints(self):
        """The joints (ascending) that no hand's finger list names: the root,
        the body and both wrists.  `hand_joint_ids` must give each side 16
        joints other than the root, the wrist then 15 fingers, 32 distinct
        joints in all, none of them a strict ancestor of a wrist; otherwise
        this raises a DimensionError."""
        left, right = (self.hand_joint_ids.get(side) for side in SIDES)
        if left is None or right is None:
            raise DimensionError("model must declare hand_joint_ids for both sides")
        if len(left) != 16 or len(right) != 16 or 0 in [*left, *right]:
            raise DimensionError("hand_joint_ids must give each side 16 joints other than "
                                 "the root: the wrist, then 15 finger joints")
        hand = np.array([*left, *right], dtype=np.int64)
        if np.unique(hand).size != 32:
            raise DimensionError("hand_joint_ids must name 32 distinct joints")
        wrists = hand[[0, 16]]
        above = _kernels.ancestor_matrix(self.tree.parents)[np.ix_(wrists, hand)]
        w, h = np.nonzero(above * (hand != wrists[:, None]))
        if w.size:
            raise DimensionError(f"hand_joint_ids: hand joint {hand[h[0]]} "
                                 f"is an ancestor of wrist {wrists[w[0]]}")
        return np.setdiff1d(np.arange(self.num_joints), np.delete(hand, [0, 16]))


@dataclass(frozen=True)
class JointFold:
    """Posed regressor joints without skinning every vertex.

    With C = joint_regressor @ skin_weights, posed joint k is

        sum_n reg[k, n] sum_j W[n, j] (R_j v_n + t_j) = sum_j (R_j U_kj + C_kj t_j),
        U_kj = sum_n reg[k, n] W[n, j] v_n,

    so each (joint k, bone j) pair whose regressor and skinning supports
    overlap acts as one rigid virtual vertex U_kj bound to bone j alone, and
    joint k is the sum of the pair terms ``R_j U_kj + C_kj t_j`` (`terms`)
    of its pairs ``bounds[k]:bounds[k + 1]``.  U is linear in the shape
    coefficients, so it is kept as a constant plus a basis.  This is exact
    algebra, not an approximation.  The fit rebinds the skeleton pairs to
    the joints it fits (`fitting._fold_bones`); that fold has one set of
    virtual vertices per frame and no shape basis, and the fit's exact
    Jacobian sums its terms over the pairs below each joint.
    """

    weights: np.ndarray         # (P, J) one-hot bone of each pair
    vertices: np.ndarray        # (P, 3) U of the unshaped template
    vertex_basis: np.ndarray    # (num_betas, P, 3) d U / d beta
    pair_joint: np.ndarray      # (P,) regressor row k of each pair, ascending
    pair_bone: np.ndarray       # (P,) bone j of each pair, ascending within a row
    pair_blend: np.ndarray      # (P,) C_kj of each pair
    bounds: np.ndarray          # (J_reg + 1,) the pairs of row k are bounds[k]:bounds[k + 1]

    @staticmethod
    def of(model):
        reg, W = model.joint_regressor, model.skin_weights
        # float32 counts of shared vertices are exact below 2**24 vertices.
        k, j = np.nonzero((reg != 0).astype(np.float32) @ (W != 0).astype(np.float32))
        mix = reg[k]                                   # (P, N)
        mix *= W[:, j].T
        return JointFold(
            weights=np.eye(W.shape[1])[j],
            vertices=mix @ model.template_vertices,
            vertex_basis=mix @ np.moveaxis(model.shape_basis, -1, 0),
            pair_joint=k,
            pair_bone=j,
            pair_blend=(reg @ W)[k, j],
            # Every row has pairs, as its regressor and skinning rows sum to 1.
            bounds=np.searchsorted(k, np.arange(reg.shape[0] + 1)),
        )

    def shaped(self, beta):
        """Virtual vertices (..., P, 3) at shape coefficients `beta` (..., B)."""
        return _blend(self.vertices, self.vertex_basis, beta)

    def terms(self, vertices, rots, trans):
        """Pair terms ``R_j U_p + C_kj t_j`` (..., P, 3) of virtual vertices U
        (..., P, 3) and bone transforms R (..., J, 3, 3), t (..., J, 3).  They
        are linear in (U, t), so they also map (d U, d t) to d T at a fixed R."""
        return (_kernels.lbs(self.weights, vertices, rots, trans)
                + (self.pair_blend[:, None] - 1.0) * trans.take(self.pair_bone, axis=-2))


def _blend(base, basis, beta):
    """``base + sum_b beta[..., b] basis[b]`` for a basis (B, ...): one
    matrix-vector product per leading index of `beta`, so each has the bits
    of a (B,) call, and `base` added into it in place."""
    flat = basis.reshape(basis.shape[0], -1)
    out = (beta[..., None, :] @ flat)[..., 0, :].reshape(beta.shape[:-1] + basis.shape[1:])
    out += base
    return out


def beta_array(model, beta):
    """`beta`, an array or None (zero), as (..., B) checked against `model`."""
    if beta is None:
        return np.zeros(model.num_betas)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[-1:] != (model.num_betas,):
        raise DimensionError(f"beta must have length {model.num_betas}")
    return beta


def shape_template(model, beta):
    """Template vertices (..., N, 3) displaced by the linear shape basis.

    `beta` is None or an array (..., B); see `_blend`.
    """
    return _blend(model.template_vertices, np.moveaxis(model.shape_basis, -1, 0),
                  beta_array(model, beta))


def check_pose(model, pose, beta=None):
    """Raise a DimensionError unless the local poses `pose` (..., J, 3) and
    `beta` fit `model`."""
    if np.shape(pose)[-2:] != (model.num_joints, 3):
        raise DimensionError(f"pose must be ({model.num_joints}, 3), got {np.shape(pose)}")
    beta_array(model, beta)


def pose_mesh(model, pose, beta=None, return_fk=False):
    """Pose the model: shape, rest joints, FK, linear blend skinning.

    `pose` is the local axis-angles (..., J, 3) of `forward_kinematics`, the
    global orientation in row 0; leading axes are a batch of poses, with
    `beta` None or an array (..., B) broadcasting against them.  The
    vertices are (..., N, 3), and `return_fk` adds the world transforms
    ``(R, t)``.  Each pose's vertices have the bits of posing it alone.
    """
    shaped = shape_template(model, beta)
    fk = forward_kinematics(model.tree, model.rest_joints(beta), pose)
    verts = _kernels.lbs(model.skin_weights, shaped, *fk)
    if return_fk:
        return verts, fk
    return verts


def pose_joints(model, pose, beta=None):
    """Posed joint locations (..., J_reg, 3) of the full regressor (skeleton + extra rows).

    Equal to ``joint_regressor @ pose_mesh(model, pose, beta)``, but sums
    the pair terms of `model.joint_fold` instead of skinning every vertex.
    `pose` and `beta` are as in `pose_mesh`.
    """
    fold = model.joint_fold
    verts = fold.shaped(beta_array(model, beta))
    fk = forward_kinematics(model.tree, model.rest_joints(beta), pose)
    return np.add.reduceat(fold.terms(verts, *fk), fold.bounds[:-1], axis=-2)
