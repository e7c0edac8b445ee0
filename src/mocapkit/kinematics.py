"""Skeleton trees, forward kinematics, and global-to-local rotation transfer."""

from dataclasses import dataclass

import numpy as np

from . import _kernels, rotations
from .errors import DimensionError, InvalidJointError


@dataclass(frozen=True)
class SkeletonTree:
    """A rooted joint hierarchy in topological order (parents[j] < j, root at 0)."""

    parents: np.ndarray
    joint_names: tuple

    def __post_init__(self):
        parents = np.asarray(self.parents, dtype=np.int64)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        if parents.ndim != 1 or parents.shape[0] == 0:
            raise DimensionError("parents must be a list of at least one joint")
        n = parents.shape[0]
        if len(self.joint_names) != n:
            raise DimensionError("joint_names length must match parents length")
        if parents[0] != -1:
            raise InvalidJointError("joint 0 must be the root (parent -1)")
        for j in range(1, n):
            if not (0 <= parents[j] < j):
                raise InvalidJointError(
                    f"joint {j} has parent {parents[j]}; expected 0 <= parent < {j}"
                )

    @property
    def num_joints(self):
        return self.parents.shape[0]


@dataclass(frozen=True)
class FkResult:
    """World transforms per joint: G_j(x) = rotations[j] @ x + translations[j]."""

    rotations: np.ndarray
    translations: np.ndarray


def forward_kinematics(tree, rest_joints, global_orient, local_poses):
    """Compute world transforms for every joint.

    Each joint's local transform rotates by its axis-angle pose about the
    joint's rest position; the root is additionally rotated by
    `global_orient`.  With all rotations zero, joint positions equal
    `rest_joints`.

    Any leading batch axes are posed at once: `global_orient` (..., 3) goes
    with `local_poses` (..., J, 3), and `rest_joints` (..., J, 3) broadcasts
    against them.
    """
    rest = np.asarray(rest_joints, dtype=np.float64)
    poses = np.asarray(local_poses, dtype=np.float64)
    orient = np.asarray(global_orient, dtype=np.float64)
    J = tree.num_joints
    if rest.shape[-2:] != (J, 3):
        raise DimensionError(f"rest_joints must be ({J}, 3), got {rest.shape}")
    if poses.shape[-2:] != (J, 3):
        raise DimensionError(f"local_poses must be ({J}, 3), got {poses.shape}")
    if orient.shape != poses.shape[:-2] + (3,):
        raise DimensionError(f"global_orient must be {poses.shape[:-2] + (3,)}, got {orient.shape}")
    # The root's extra rotation is converted in the same call as the local poses.
    rots = _kernels.rodrigues_batch(np.concatenate([orient[..., None, :], poses], axis=-2))
    world_rots, world_trans = _kernels.fk_chain(
        tree.parents, rest, rots[..., 1:, :, :], rots[..., 0, :, :])
    return FkResult(world_rots, world_trans)


def gamma_global_to_local(tree, global_orient, local_poses, target_joint, target_global):
    """Local pose (..., 3) at `target_joint` whose FK world rotation equals
    `target_global` (..., 3, 3).

    Computed as (parent world rotation)^T @ target_global; only the target's
    ancestors influence the result, so the target's own stale pose is ignored.
    Leading axes are frames, posed and converted in one batched call each;
    each frame's result has the bits of its own call.
    """
    if target_joint <= 0 or target_joint >= tree.num_joints:
        raise InvalidJointError("target_joint must be a non-root joint index")
    # World rotations are products of the ancestors' rotations alone; rest
    # joints move only the translations, so zeros serve as well as any.
    fk = forward_kinematics(tree, np.zeros((tree.num_joints, 3)), global_orient, local_poses)
    parent = fk.rotations[..., tree.parents[target_joint], :, :]
    return rotations.rotation_to_axis_angle(np.swapaxes(parent, -1, -2) @ target_global)
