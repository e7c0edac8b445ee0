"""Hot numeric kernels: batched Rodrigues, forward kinematics, linear blend skinning.

Every kernel takes optional leading batch axes (written ``...`` below) and
broadcasts them, so one call can pose many parameter vectors at once; a
lockstep fit poses every frame's trial step this way.  The fit calls
Rodrigues and forward kinematics directly on the model folded onto its 22
fitted joints (`fitting._fold_bones`), and skins only the folded pairs.
The kernels are vectorised numpy:

* Rodrigues scales the outer product of each unit axis, then adds the
  cosine to its diagonal and the sine's cross-product matrix in place
  (`add_cross`), on the nine entries as rows of one component-major array
  (`components`, `matrices`), so that every numpy call runs over all the
  rotations at once;
* forward kinematics walks the tree one depth level at a time (10 levels on
  the 52-joint toy skeleton, 7 on its fold) for the rotations only, one
  batched product per level, and then gets every translation from one
  ancestor sum (`translations`); a level whose joints are consecutive is a
  slice, not a gather (every level of the fold, levels 1-7 of the toy
  skeleton), and the levels and the ancestor matrix are built once per
  ``parents`` array and cached;
* skinning blends the per-joint transforms with (N, J) @ (..., J, 3) GEMMs,
  one for the translations and one per rotation column, each column scaled
  by the matching vertex coordinate in one reused scratch array.

`tests/test_kernels.py` holds plain-loop references that pose one unbatched
input, and checks the kernels against them to 1e-12.

Conventions
-----------
A pose is one local rotation per joint, (..., J, 3) as axis-angles or
(..., J, 3, 3) as matrices, and the root's local rotation is the global
orientation: there is no separate root rotation.  Every joint's local
transform rotates about the joint's rest position, so a world transform is
stored as an affine pair ``(R, t)`` with ``G(x) = R @ x + t``.  With all
rotations at identity, every ``G`` is the identity and joint world
positions equal rest positions.
"""

import functools

import numpy as np


def _apply(rots, points):
    """Rotate (..., 3) points by (..., 3, 3) matrices, broadcasting."""
    return (rots @ points[..., None])[..., 0]


def components(v):
    """The components (3, ...) of vectors v (..., 3), as a C-contiguous copy."""
    return v.reshape(-1, 3).T.copy().reshape((3,) + v.shape[:-1])


def matrices(entries):
    """The C-contiguous 3x3 matrices (..., 3, 3) of their nine row-major
    entries (9, ...), the inverse of the layout `components` gives vectors."""
    return entries.reshape(9, -1).T.copy().reshape(entries.shape[1:] + (3, 3))


# The entries (2, 1), (0, 2), (1, 0) of [v]x are +v, and (1, 2), (2, 0), (0, 1) are -v.
_CROSS_PLUS = np.array([7, 2, 3])
_CROSS_MINUS = np.array([5, 6, 1])


def add_cross(entries, v):
    """Add the cross-product matrix [v]x of each v, given as components (3, ...),
    to the matrices of `entries` (9, ...) in place."""
    entries[_CROSS_PLUS] += v
    entries[_CROSS_MINUS] -= v


def rodrigues_batch(aa):
    """Rotation matrices (..., 3, 3) of axis-angle vectors (..., 3).

    Angles below 1e-12 give the identity exactly.
    """
    axis = components(np.asarray(aa, dtype=np.float64))
    angle = np.sqrt((axis * axis).sum(axis=0))
    axis *= np.divide(1.0, angle, out=np.zeros_like(angle), where=angle >= 1e-12)
    c = np.cos(angle)
    # R = (1 - cos) a a^T + cos I + sin [a]x for the unit axis a.
    out = axis[:, None] * axis
    out *= 1.0 - c
    out = out.reshape((9,) + angle.shape)
    out[::4] += c
    add_cross(out, axis * np.sin(angle))
    return matrices(out)


@functools.lru_cache(maxsize=64)
def _tree(parents_bytes):
    """The ``(joints, their parents)`` indices of each depth below the root,
    the joints as a slice where they are consecutive, and the read-only
    `ancestor_matrix`, built once per tree."""
    parents = np.frombuffer(parents_bytes, dtype=np.int64)
    depth = np.zeros(parents.shape[0], dtype=np.int64)
    ancestors = np.eye(parents.shape[0])
    for j in range(1, parents.shape[0]):
        depth[j] = depth[parents[j]] + 1
        ancestors[j] += ancestors[parents[j]]
    ancestors.flags.writeable = False
    levels = []
    for d in range(1, int(depth.max()) + 1):
        idx = np.flatnonzero(depth == d)
        run = idx[-1] - idx[0] + 1 == idx.size
        levels.append((slice(idx[0], idx[-1] + 1) if run else idx, parents[idx]))
    return tuple(levels), ancestors


def ancestor_matrix(parents):
    """The (J, J) 0/1 matrix A with A[j, a] = 1 when a is j or an ancestor of j."""
    return _tree(np.ascontiguousarray(parents, dtype=np.int64).tobytes())[1]


def translations(parents, world_rots, rest):
    """FK translations ``t = A @ ((R_parent - R) rest)`` (..., J, 3) of world
    rotations R (..., J, 3, 3): ``t_j = t_p + (R_p - R_j) rest_j`` summed
    from the root down, with A the `ancestor_matrix` and R_parent the
    identity at the root; `rest` (..., J, 3) broadcasts against R."""
    diff = np.empty(world_rots.shape)
    diff[..., 0, :, :] = np.eye(3)
    diff[..., 1:, :, :] = world_rots.take(parents[1:], axis=-3)
    diff -= world_rots
    return ancestor_matrix(parents) @ _apply(diff, rest)


def fk_chain(parents, rest, local_rots):
    """Forward kinematics over a topologically ordered tree.

    The rotations are built one tree-depth level at a time: every joint of
    a level depends only on its parent in the previous level, so each level
    is one batched ``R_p @ R_local``.  The translations then come from one
    ancestor sum over the whole tree (`translations`).

    Parameters
    ----------
    parents : (J,) int array, parents[0] == -1, parents[j] < j
    rest : (..., J, 3) rest-pose joint positions
    local_rots : (..., J, 3, 3) per-joint local rotation matrices; the
        root's is its world rotation, the global orientation

    Returns
    -------
    world_rots : (..., J, 3, 3), world_trans : (..., J, 3) with
    G_j(x) = R_j x + t_j, over the broadcast leading axes of the inputs.
    Each index of the leading axes has the bits of its own unbatched call.
    """
    lead = np.broadcast_shapes(rest.shape[:-2], local_rots.shape[:-3])
    world_rots = np.empty(lead + (parents.shape[0], 3, 3))
    world_rots[..., 0, :, :] = local_rots[..., 0, :, :]
    for idx, p in _tree(np.ascontiguousarray(parents, dtype=np.int64).tobytes())[0]:
        world_rots[..., idx, :, :] = world_rots.take(p, axis=-3) @ local_rots[..., idx, :, :]
    return world_rots, translations(parents, world_rots, rest)


def lbs(weights, vertices, world_rots, world_trans):
    """Linear blend skinning: (N, J) weights blend per-joint affine transforms.

    ``world_rots`` is (..., J, 3, 3), ``world_trans`` (..., J, 3) and the
    result (..., N, 3); ``vertices`` is (N, 3) or (..., N, 3) with the same
    leading axes.  The transforms are blended one rotation column at a time:
    column c of every vertex's blended 3x3 is one (N, J) @ (..., J, 3) GEMM,
    which scales that vertex's coordinate c.  The three columns share one
    scratch array the size of the result, so skinning holds the input, the
    result and that scratch, and no (..., N, 3, 3) blend.
    """
    out = weights @ world_trans
    scratch = np.empty_like(out)
    for c in range(3):
        np.matmul(weights, world_rots[..., c], out=scratch)
        scratch *= vertices[..., c, None]
        out += scratch
    return out
