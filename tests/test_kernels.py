import numpy as np

from mocapkit import _kernels, fitting
from mocapkit.integration import PoseLayout


# Plain-loop references: one unbatched input each, written entry by entry.

def _rodrigues_batch_loops(aa):
    n = aa.shape[0]
    out = np.empty((n, 3, 3))
    for i in range(n):
        x = aa[i, 0]
        y = aa[i, 1]
        z = aa[i, 2]
        angle = np.sqrt(x * x + y * y + z * z)
        if angle < 1e-12:
            for r in range(3):
                for c in range(3):
                    out[i, r, c] = 1.0 if r == c else 0.0
            continue
        x /= angle
        y /= angle
        z /= angle
        ca = np.cos(angle)
        sa = np.sin(angle)
        ic = 1.0 - ca
        out[i, 0, 0] = ca + x * x * ic
        out[i, 0, 1] = x * y * ic - z * sa
        out[i, 0, 2] = x * z * ic + y * sa
        out[i, 1, 0] = y * x * ic + z * sa
        out[i, 1, 1] = ca + y * y * ic
        out[i, 1, 2] = y * z * ic - x * sa
        out[i, 2, 0] = z * x * ic - y * sa
        out[i, 2, 1] = z * y * ic + x * sa
        out[i, 2, 2] = ca + z * z * ic
    return out


def _fk_chain_loops(parents, rest, local_rots, root_rot):
    J = parents.shape[0]
    world_rots = np.empty((J, 3, 3))
    world_trans = np.empty((J, 3))
    world_rots[0] = root_rot @ local_rots[0]
    world_trans[0] = rest[0] - world_rots[0] @ rest[0]
    for j in range(1, J):
        p = parents[j]
        Rj = world_rots[p] @ local_rots[j]
        world_rots[j] = Rj
        world_trans[j] = world_trans[p] + world_rots[p] @ rest[j] - Rj @ rest[j]
    return world_rots, world_trans


def _lbs_loops(weights, vertices, world_rots, world_trans):
    N = vertices.shape[0]
    J = weights.shape[1]
    out = np.zeros((N, 3))
    for n in range(N):
        vx = vertices[n, 0]
        vy = vertices[n, 1]
        vz = vertices[n, 2]
        for j in range(J):
            w = weights[n, j]
            if w == 0.0:
                continue
            R = world_rots[j]
            t = world_trans[j]
            out[n, 0] += w * (R[0, 0] * vx + R[0, 1] * vy + R[0, 2] * vz + t[0])
            out[n, 1] += w * (R[1, 0] * vx + R[1, 1] * vy + R[1, 2] * vz + t[1])
            out[n, 2] += w * (R[2, 0] * vx + R[2, 1] * vy + R[2, 2] * vz + t[2])
    return out


def _per_pose(fn, *batched):
    """The unbatched reference fn run on each index of the leading axis, stacked."""
    outs = [fn(*args) for args in zip(*batched)]
    if isinstance(outs[0], tuple):
        return tuple(np.stack(o) for o in zip(*outs))
    return np.stack(outs)


def test_rodrigues_paths_agree(rng):
    for shape in ((4, 16, 3), (64, 3)):
        aa = rng.normal(scale=2.0, size=shape)
        aa.reshape(-1, 3)[:3] = [[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [np.pi, 0.0, 0.0]]
        expected = _rodrigues_batch_loops(aa.reshape(-1, 3)).reshape(shape + (3,))
        np.testing.assert_allclose(_kernels.rodrigues_batch(aa), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_kernels.rodrigues_batch(aa[5]), expected[5], rtol=0, atol=1e-12)


def test_fk_paths_agree(rng):
    batch, n = 6, 20
    parents = _random_deep_tree(rng, n)
    local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(batch, n, 3)))
    root_rot = _kernels.rodrigues_batch(rng.normal(size=(batch, 3)))
    for rest in (rng.normal(size=(batch, n, 3)), rng.normal(size=(n, 3))):
        ra, ta = _kernels.fk_chain(parents, rest, local_rots, root_rot)
        rb, tb = _per_pose(lambda r, lr, rr: _fk_chain_loops(parents, r, lr, rr),
                           np.broadcast_to(rest, (batch, n, 3)), local_rots, root_rot)
        np.testing.assert_allclose(ra, rb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)
    for n in (5, 20, 52):   # one unbatched pose
        parents = _random_deep_tree(rng, n)
        rest = rng.normal(size=(n, 3))
        local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(n, 3)))
        root_rot = _kernels.rodrigues_batch(rng.normal(size=3))
        for a, b in zip(_kernels.fk_chain(parents, rest, local_rots, root_rot),
                        _fk_chain_loops(parents, rest, local_rots, root_rot)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_fk_frame_has_the_bits_of_its_own_call(rng):
    # The lockstep fit's bit-for-bit promise rests on this: a frame's
    # transforms, translations summed over ancestors included, have the same
    # bytes alone as in a stack.
    batch, n = 5, 52
    parents = _random_deep_tree(rng, n)
    local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(batch, n, 3)))
    root_rot = _kernels.rodrigues_batch(rng.normal(size=(batch, 3)))
    for rest in (rng.normal(size=(batch, n, 3)), rng.normal(size=(n, 3))):
        stacked = _kernels.fk_chain(parents, rest, local_rots, root_rot)
        for t in range(batch):
            alone = _kernels.fk_chain(parents, rest if rest.ndim == 2 else rest[t],
                                      local_rots[t], root_rot[t])
            for one, many in zip(alone, stacked):
                assert one.tobytes() == many[t].tobytes()


def _level_kinds(parents):
    return [isinstance(idx, slice) for idx, _ in _kernels._tree(parents.tobytes())[0]]


def test_fk_on_the_toy_skeleton_and_the_fit_fold(toy, rng):
    # The toy skeleton has consecutive depth levels (slices) and scattered
    # ones (index arrays); every level of the fit's fold is consecutive.
    fitted = np.concatenate([[0], PoseLayout.from_model(toy).body_rows + 1])
    fold_parents = fitting._fold_bones(toy, fitted)[0]
    toy_parents = np.asarray(toy.tree.parents, dtype=np.int64)
    assert _level_kinds(toy_parents) == [True] * 7 + [False] * 3
    assert _level_kinds(fold_parents) == [True] * 7
    batch = 4
    for parents in (toy_parents, fold_parents):
        n = parents.size
        local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(batch, n, 3)))
        root_rot = _kernels.rodrigues_batch(rng.normal(size=(batch, 3)))
        rest = rng.normal(size=(batch, n, 3))
        stacked = _kernels.fk_chain(parents, rest, local_rots, root_rot)
        for t in range(batch):
            alone = _kernels.fk_chain(parents, rest[t], local_rots[t], root_rot[t])
            for one, many, ref in zip(alone, stacked,
                                      _fk_chain_loops(parents, rest[t], local_rots[t], root_rot[t])):
                np.testing.assert_allclose(one, ref, rtol=0, atol=1e-12)
                assert one.tobytes() == many[t].tobytes()


def test_lbs_paths_agree(rng):
    batch, n_verts, n_joints = 5, 50, 8
    w = rng.uniform(size=(n_verts, n_joints))
    w /= w.sum(axis=1, keepdims=True)
    rots = _kernels.rodrigues_batch(rng.normal(size=(batch, n_joints, 3)))
    trans = rng.normal(size=(batch, n_joints, 3))
    for verts in (rng.normal(size=(batch, n_verts, 3)), rng.normal(size=(n_verts, 3))):
        expected = _per_pose(lambda v, r, t: _lbs_loops(w, v, r, t),
                             np.broadcast_to(verts, (batch, n_verts, 3)), rots, trans)
        np.testing.assert_allclose(_kernels.lbs(w, verts, rots, trans), expected, rtol=0, atol=1e-12)
    # one unbatched pose, every weight nonzero
    n_verts, n_joints = 300, 20
    w = rng.uniform(0.05, 1.0, size=(n_verts, n_joints))
    w /= w.sum(axis=1, keepdims=True)
    verts = rng.normal(size=(n_verts, 3))
    rots = _kernels.rodrigues_batch(rng.normal(size=(n_joints, 3)))
    trans = rng.normal(size=(n_joints, 3))
    np.testing.assert_allclose(_kernels.lbs(w, verts, rots, trans),
                               _lbs_loops(w, verts, rots, trans), rtol=0, atol=1e-12)


def _random_deep_tree(rng, n):
    """Random topological tree of depth > 2 in which some joint has > 1 child."""
    parents = np.array([-1, 0, 0, 1, 3] + [int(rng.integers(0, j)) for j in range(5, n)])
    depth = np.zeros(n, dtype=int)
    for j in range(1, n):
        depth[j] = depth[parents[j]] + 1
    assert depth.max() > 2
    assert np.bincount(parents[1:]).max() > 1
    return parents
