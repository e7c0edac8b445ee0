import numpy as np

from mocapkit import _kernels


def _per_pose(fn, *batched):
    """The unbatched reference fn run on each index of the leading axis, stacked."""
    outs = [fn(*args) for args in zip(*batched)]
    if isinstance(outs[0], tuple):
        return tuple(np.stack(o) for o in zip(*outs))
    return np.stack(outs)


def test_rodrigues_paths_agree(rng):
    aa = rng.normal(scale=2.0, size=(4, 16, 3))
    aa[0, :3] = [[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [np.pi, 0.0, 0.0]]
    expected = _per_pose(_kernels._rodrigues_batch_loops, aa)
    np.testing.assert_allclose(_kernels.rodrigues_batch(aa), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_kernels.rodrigues_batch(aa[1, 2]), expected[1, 2], rtol=0, atol=1e-12)


def test_fk_paths_agree(rng):
    batch, n = 6, 20
    parents = _random_deep_tree(rng, n)
    local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(batch, n, 3)))
    root_rot = _kernels.rodrigues_batch(rng.normal(size=(batch, 3)))
    for rest in (rng.normal(size=(batch, n, 3)), rng.normal(size=(n, 3))):
        ra, ta = _kernels.fk_chain(parents, rest, local_rots, root_rot)
        rb, tb = _per_pose(lambda r, lr, rr: _kernels._fk_chain_loops(parents, r, lr, rr),
                           np.broadcast_to(rest, (batch, n, 3)), local_rots, root_rot)
        np.testing.assert_allclose(ra, rb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)


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


def test_lbs_paths_agree(rng):
    batch, n_verts, n_joints = 5, 50, 8
    w = rng.uniform(size=(n_verts, n_joints))
    w /= w.sum(axis=1, keepdims=True)
    rots = _kernels.rodrigues_batch(rng.normal(size=(batch, n_joints, 3)))
    trans = rng.normal(size=(batch, n_joints, 3))
    for verts in (rng.normal(size=(batch, n_verts, 3)), rng.normal(size=(n_verts, 3))):
        expected = _per_pose(lambda v, r, t: _kernels._lbs_loops(w, v, r, t),
                             np.broadcast_to(verts, (batch, n_verts, 3)), rots, trans)
        np.testing.assert_allclose(_kernels.lbs(w, verts, rots, trans), expected, rtol=0, atol=1e-12)


def _random_deep_tree(rng, n):
    """Random topological tree of depth > 2 in which some joint has > 1 child."""
    parents = np.array([-1, 0, 0, 1, 3] + [int(rng.integers(0, j)) for j in range(5, n)])
    depth = np.zeros(n, dtype=int)
    for j in range(1, n):
        depth[j] = depth[parents[j]] + 1
    assert depth.max() > 2
    assert np.bincount(parents[1:]).max() > 1
    return parents


def test_rodrigues_numpy_matches_loop_reference(rng):
    aa = rng.normal(scale=2.0, size=(64, 3))
    aa[:3] = [[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [np.pi, 0.0, 0.0]]
    np.testing.assert_allclose(_kernels.rodrigues_batch(aa),
                               _kernels._rodrigues_batch_loops(aa), rtol=0, atol=1e-12)


def test_fk_numpy_matches_loop_reference(rng):
    for n in (5, 20, 52):
        parents = _random_deep_tree(rng, n)
        rest = rng.normal(size=(n, 3))
        local_rots = _kernels.rodrigues_batch(rng.normal(scale=0.8, size=(n, 3)))
        root_rot = _kernels.rodrigues_batch(rng.normal(size=(1, 3)))[0]
        ra, ta = _kernels.fk_chain(parents, rest, local_rots, root_rot)
        rb, tb = _kernels._fk_chain_loops(parents, rest, local_rots, root_rot)
        np.testing.assert_allclose(ra, rb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ta, tb, rtol=0, atol=1e-12)


def test_lbs_numpy_matches_loop_reference(rng):
    n_verts, n_joints = 300, 20
    w = rng.uniform(0.05, 1.0, size=(n_verts, n_joints))
    w /= w.sum(axis=1, keepdims=True)
    verts = rng.normal(size=(n_verts, 3))
    rots = _kernels.rodrigues_batch(rng.normal(size=(n_joints, 3)))
    trans = rng.normal(size=(n_joints, 3))
    np.testing.assert_allclose(_kernels.lbs(w, verts, rots, trans),
                               _kernels._lbs_loops(w, verts, rots, trans), rtol=0, atol=1e-12)
