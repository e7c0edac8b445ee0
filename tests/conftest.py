import dataclasses
import json

import numpy as np
import pytest

from mocapkit.toymodel import gen_toy_model


def write_input(path, doc):
    """Write the input document `doc` in the layout of `formats.write_json`,
    with NaN and infinities as Python's json writes and reads them: the
    writers refuse them, and the tests that call this check the readers."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n")


@pytest.fixture(scope="session")
def toy():
    return gen_toy_model(seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def signed_regressor(model, row):
    """`model` with joint regressor row `row` replaced by -0.2 times itself
    plus 1.2 times row `row + 1`: still affine, but with negative entries, so
    some folded pairs of that row have C_kj outside (0, 1]."""
    reg = model.joint_regressor.copy()
    reg[row] = -0.2 * reg[row] + 1.2 * reg[row + 1]
    model = dataclasses.replace(model, joint_regressor=reg)
    blend = model.joint_fold.pair_blend
    assert (blend < 0).any() and (blend > 1).any()
    return model


def random_tree(rng, max_joints=20):
    """Random topologically ordered skeleton for oracle checks."""
    from mocapkit.kinematics import SkeletonTree

    n = int(rng.integers(2, max_joints + 1))
    parents = np.array([-1] + [int(rng.integers(0, j)) for j in range(1, n)])
    return SkeletonTree(parents, tuple(f"j{k}" for k in range(n)))


def brute_force_fk(tree, rest, local_poses):
    """Multiply every ancestor's 4x4 transform in order, root to joint; the
    root's local pose is the global orientation."""
    from mocapkit.rotations import rodrigues

    def homog(R, fixed_point):
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = fixed_point - R @ fixed_point
        return T

    n = tree.num_joints
    out = np.empty((n, 4, 4))
    for j in range(n):
        chain = []
        k = j
        while k != -1:
            chain.append(k)
            k = tree.parents[k]
        chain.reverse()
        T = np.eye(4)
        for k in chain:
            T = T @ homog(rodrigues(local_poses[k]), rest[k])
        out[j] = T
    return out
