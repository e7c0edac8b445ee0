"""Parametric mesh model: shape blendshapes, joint regression, skinning, hand cropping."""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateModelError, DimensionError
from .kinematics import SkeletonTree, forward_kinematics

SIDES = ("left", "right")


@dataclass(frozen=True)
class ParametricModel:
    """Template mesh + blendshapes + skinning weights + joint regressor + skeleton.

    skin_weights rows and joint_regressor rows are affine combinations (sum to 1).
    The first `num_joints` regressor rows correspond to the skeleton joints in
    order; any extra rows (e.g. fingertips on hand submodels) follow.
    """

    template_vertices: np.ndarray          # (N, 3)
    faces: np.ndarray                      # (F, 3) int
    shape_basis: np.ndarray                # (N, 3, B)
    skin_weights: np.ndarray               # (N, J)
    joint_regressor: np.ndarray            # (J_reg, N)
    tree: SkeletonTree
    fingertip_vertex_ids: dict = field(default_factory=dict)   # side -> 5 vertex ids
    hand_joint_ids: dict = field(default_factory=dict)         # side -> 16 joint ids (wrist first)
    reference_knuckle_length: float = 0.0

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
        n = self.template_vertices.shape[0]
        j = self.tree.num_joints
        if self.template_vertices.ndim != 2 or self.template_vertices.shape[1] != 3:
            raise DimensionError("template_vertices must be (N, 3)")
        if self.shape_basis.shape[:2] != (n, 3):
            raise DimensionError("shape_basis must be (N, 3, B)")
        if self.skin_weights.shape != (n, j):
            raise DimensionError("skin_weights must be (N, J)")
        if self.joint_regressor.shape[0] < j or self.joint_regressor.shape[1] != n:
            raise DimensionError("joint_regressor must be (J_reg >= J, N)")
        if np.any(self.skin_weights < -1e-12):
            raise DimensionError("skin_weights must be nonnegative")
        if np.abs(self.skin_weights.sum(axis=1) - 1.0).max() > 1e-6:
            raise DimensionError("skin_weights rows must sum to 1")
        if np.abs(self.joint_regressor.sum(axis=1) - 1.0).max() > 1e-6:
            raise DimensionError("joint_regressor rows must sum to 1")
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
        """Skeleton joint rest positions regressed from the shaped template."""
        verts = shape_template(self, beta) if beta is not None else self.template_vertices
        return self.joint_regressor[: self.num_joints] @ verts

    @functools.cached_property
    def joint_fold(self):
        """The joint regressor folded into skinning; see `JointFold`."""
        return JointFold.of(self)


@dataclass(frozen=True)
class JointFold:
    """Posed regressor joints without skinning every vertex.

    With C = joint_regressor @ skin_weights, posed joint k is

        sum_n reg[k, n] sum_j W[n, j] (R_j v_n + t_j) = sum_j (R_j U_kj + C_kj t_j),
        U_kj = sum_n reg[k, n] W[n, j] v_n,

    so each (joint k, bone j) pair whose regressor and skinning supports
    overlap acts as one rigid virtual vertex U_kj bound to bone j alone, and
    the joints are ``pair_rows @ lbs(weights, U, R, t) + trans_rows @ t``
    with ``trans_rows = C - pair_rows @ weights``.  U_kj and the rest joints
    are linear in the shape coefficients, so both are kept as a constant plus
    a basis.  This is exact algebra, not an approximation.

    The fit's exact Jacobian sums the terms ``R_j U_kj + C_kj t_j`` over the
    subtree below each joint, so the fold also keeps the pair indices, C,
    the subtree matrix and C @ subtree.
    """

    weights: np.ndarray         # (P, J) one-hot bone of each pair
    vertices: np.ndarray        # (P, 3) U of the unshaped template
    vertex_basis: np.ndarray    # (num_betas, P, 3) d U / d beta
    pair_rows: np.ndarray       # (J_reg, P) 0/1 joint of each pair
    trans_rows: np.ndarray      # (J_reg, J)
    rest: np.ndarray            # (J, 3) rest joints of the unshaped template
    rest_basis: np.ndarray      # (num_betas, J, 3) d rest / d beta
    pair_joint: np.ndarray      # (P,) regressor row k of each pair
    pair_bone: np.ndarray       # (P,) bone j of each pair
    blend: np.ndarray           # (J_reg, J) C
    subtree: np.ndarray         # (J, J) 0/1; [j, a] = 1 when j is a or lies below a
    blend_subtree: np.ndarray   # (J_reg, J) C @ subtree

    @staticmethod
    def of(model):
        reg, W = model.joint_regressor, model.skin_weights
        k, j = np.nonzero((reg != 0).astype(np.float64) @ (W != 0).astype(np.float64))
        mix = reg[k] * W[:, j].T                       # (P, N)
        weights = np.zeros((k.size, W.shape[1]))
        weights[np.arange(k.size), j] = 1.0
        pair_rows = np.zeros((reg.shape[0], k.size))
        pair_rows[k, np.arange(k.size)] = 1.0
        skel = reg[: model.num_joints]
        blend = reg @ W
        subtree = np.eye(W.shape[1])
        for b in range(1, W.shape[1]):
            subtree[b] += subtree[model.tree.parents[b]]
        return JointFold(
            weights=weights,
            vertices=mix @ model.template_vertices,
            vertex_basis=np.einsum("pn,nab->bpa", mix, model.shape_basis),
            pair_rows=pair_rows,
            trans_rows=blend - pair_rows @ weights,
            rest=skel @ model.template_vertices,
            rest_basis=np.einsum("jn,nab->bja", skel, model.shape_basis),
            pair_joint=k,
            pair_bone=j,
            blend=blend,
            subtree=subtree,
            blend_subtree=blend @ subtree,
        )

    def shaped(self, beta):
        """Virtual vertices (..., P, 3) and rest joints (..., J, 3) at shape
        coefficients `beta` (..., B).

        Each leading index is blended by its own matrix-vector product, so a
        pose's result has the same bits however many poses are blended with it.
        """
        def blend(basis):
            flat = basis.reshape(basis.shape[0], -1)
            return (beta[..., None, :] @ flat)[..., 0, :].reshape(beta.shape[:-1] + basis.shape[1:])

        return self.vertices + blend(self.vertex_basis), self.rest + blend(self.rest_basis)


@dataclass(frozen=True)
class PoseParams:
    """Global orientation plus one axis-angle per posed (non-root) joint.

    joint_poses[..., i, :] belongs to skeleton joint i + 1; the root is driven
    by global_orient only.  Leading axes, if any, are a batch of poses.
    """

    global_orient: np.ndarray          # (..., 3)
    joint_poses: np.ndarray            # (..., J - 1, 3)

    def __post_init__(self):
        object.__setattr__(self, "global_orient", np.asarray(self.global_orient, dtype=np.float64))
        object.__setattr__(self, "joint_poses", np.asarray(self.joint_poses, dtype=np.float64))
        if self.global_orient.ndim < 1 or self.global_orient.shape[-1] != 3:
            raise DimensionError("global_orient must be a 3-vector")
        if self.joint_poses.ndim < 2 or self.joint_poses.shape[-1] != 3:
            raise DimensionError("joint_poses must be (J-1, 3)")
        if self.joint_poses.shape[:-2] != self.global_orient.shape[:-1]:
            raise DimensionError("global_orient and joint_poses have different batch axes")

    @staticmethod
    def zeros(num_joints):
        return PoseParams(np.zeros(3), np.zeros((num_joints - 1, 3)))

    def full_local_poses(self):
        """Per-joint local poses including the (zero) root slot, for FK."""
        root = np.zeros(self.joint_poses.shape[:-2] + (1, 3))
        return np.concatenate([root, self.joint_poses], axis=-2)


@dataclass(frozen=True)
class ShapeParams:
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise DimensionError("beta must be a finite 1-D vector")

    @staticmethod
    def zeros(b=10):
        return ShapeParams(np.zeros(b))


@dataclass(frozen=True)
class HandSubmodel:
    """A ParametricModel restricted to one hand, re-rooted at the wrist."""

    model: ParametricModel
    side: str
    vertex_index_map: np.ndarray       # submodel vertex -> parent-model vertex
    joint_index_map: np.ndarray        # submodel joint -> parent-model joint


def shape_template(model, beta):
    """Template vertices displaced by the linear shape basis."""
    if beta is None:
        return model.template_vertices.copy()
    beta = beta.beta if isinstance(beta, ShapeParams) else np.asarray(beta, dtype=np.float64)
    if beta.shape != (model.num_betas,):
        raise DimensionError(f"beta must have length {model.num_betas}")
    return model.template_vertices + model.shape_basis @ beta


def regress_joints(regressor, vertices):
    regressor = np.asarray(regressor, dtype=np.float64)
    vertices = np.asarray(vertices, dtype=np.float64)
    if regressor.shape[1] != vertices.shape[0]:
        raise DimensionError("regressor columns must match vertex count")
    return regressor @ vertices


def _check_pose(model, pose):
    if pose.joint_poses.shape[-2] != model.num_joints - 1:
        raise DimensionError("pose has wrong number of joints for this model")


def pose_mesh(model, pose, beta=None, return_fk=False):
    """Pose the model: shape, regress rest joints, FK, linear blend skinning."""
    _check_pose(model, pose)
    shaped = shape_template(model, beta)
    rest = model.joint_regressor[: model.num_joints] @ shaped
    fk = forward_kinematics(model.tree, rest, pose.global_orient, pose.full_local_poses())
    verts = _kernels.lbs(model.skin_weights, shaped, fk.rotations, fk.translations)
    if return_fk:
        return verts, fk
    return verts


def pose_joints(model, pose, beta=None, return_fk=False):
    """Posed joint locations (..., J_reg, 3) of the full regressor (skeleton + extra rows).

    Equal to ``joint_regressor @ pose_mesh(model, pose, beta)``, but skins
    only the virtual vertices of `model.joint_fold`.  `pose` may carry
    leading batch axes; `beta` is None, a ShapeParams, or an array (..., B)
    broadcasting against them.  With `return_fk`, the FkResult of the pose
    comes back too.
    """
    _check_pose(model, pose)
    fold = model.joint_fold
    verts, rest = fold.vertices, fold.rest
    if beta is not None:
        beta = beta.beta if isinstance(beta, ShapeParams) else np.asarray(beta, dtype=np.float64)
        if beta.shape[-1:] != (model.num_betas,):
            raise DimensionError(f"beta must have length {model.num_betas}")
        verts, rest = fold.shaped(beta)
    fk = forward_kinematics(model.tree, rest, pose.global_orient, pose.full_local_poses())
    posed = _kernels.lbs(fold.weights, verts, fk.rotations, fk.translations)
    joints = fold.pair_rows @ posed + fold.trans_rows @ fk.translations
    if return_fk:
        return joints, fk
    return joints


def nearest_joint_assignment(vertices, joints):
    """Index of the closest joint per vertex; ties go to the lower joint index."""
    d2 = ((vertices[:, None, :] - joints[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def extract_hand_submodel(model, side):
    """Crop the hand: vertices whose nearest rest joint is the wrist or a finger joint.

    The submodel skeleton is re-rooted at the wrist; its global-orientation
    slot plays the role of the stand-alone hand orientation.  The 21-row hand
    regressor is the wrist + 15 finger rows restricted to the cropped
    vertices, plus 5 one-hot fingertip rows.
    """
    if side not in model.hand_joint_ids:
        raise DegenerateModelError(f"model has no hand_joint_ids for side {side!r}")
    hand_joints = list(model.hand_joint_ids[side])
    rest = model.rest_joints()
    assignment = nearest_joint_assignment(model.template_vertices, rest)
    selected = np.where(np.isin(assignment, hand_joints))[0]
    if selected.size == 0:
        raise DegenerateModelError(f"no vertices assigned to {side} hand joints")

    old_to_new_vertex = -np.ones(model.num_vertices, dtype=np.int64)
    old_to_new_vertex[selected] = np.arange(selected.size)

    # Faces entirely inside the crop, remapped.
    if model.faces.size:
        keep = np.all(np.isin(model.faces, selected), axis=1)
        faces = old_to_new_vertex[model.faces[keep]]
    else:
        faces = np.zeros((0, 3), dtype=np.int64)

    joint_map = np.asarray(hand_joints, dtype=np.int64)
    old_to_new_joint = {int(j): i for i, j in enumerate(joint_map)}
    parents = np.empty(len(hand_joints), dtype=np.int64)
    parents[0] = -1
    for i, j in enumerate(hand_joints[1:], start=1):
        p = int(model.tree.parents[j])
        parents[i] = old_to_new_joint.get(p, 0)
    names = tuple(model.tree.joint_names[j] for j in hand_joints)
    tree = SkeletonTree(parents, names)

    weights = model.skin_weights[np.ix_(selected, joint_map)]
    row_sums = weights.sum(axis=1)
    if np.any(row_sums <= 1e-12):
        raise DegenerateModelError("cropped vertex has no skinning weight on hand joints")
    weights = weights / row_sums[:, None]

    skel_rows = model.joint_regressor[joint_map][:, selected]
    skel_sums = skel_rows.sum(axis=1)
    if np.any(skel_sums <= 1e-12):
        raise DegenerateModelError("hand joint regressor row unsupported on cropped vertices")
    skel_rows = skel_rows / skel_sums[:, None]

    tips = model.fingertip_vertex_ids.get(side, [])
    tip_rows = np.zeros((len(tips), selected.size))
    tip_ids_new = []
    for r, vid in enumerate(tips):
        nv = old_to_new_vertex[vid]
        if nv < 0:
            raise DegenerateModelError(f"fingertip vertex {vid} not inside the {side} crop")
        tip_rows[r, nv] = 1.0
        tip_ids_new.append(int(nv))
    regressor = np.vstack([skel_rows, tip_rows])

    sub = ParametricModel(
        template_vertices=model.template_vertices[selected],
        faces=faces,
        shape_basis=model.shape_basis[selected],
        skin_weights=weights,
        joint_regressor=regressor,
        tree=tree,
        fingertip_vertex_ids={side: tip_ids_new},
        hand_joint_ids={side: list(range(len(hand_joints)))},
        reference_knuckle_length=model.reference_knuckle_length,
    )
    return HandSubmodel(sub, side, selected, joint_map)


def regress_hand_joints(hand, posed_vertices):
    """21 hand joints (wrist, 15 fingers, 5 tips) from posed submodel vertices."""
    return regress_joints(hand.model.joint_regressor, posed_vertices)
