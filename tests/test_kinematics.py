import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import brute_force_fk, random_tree
from mocapkit.errors import DimensionError, InvalidJointError
from mocapkit.kinematics import SkeletonTree, forward_kinematics, gamma_global_to_local
from mocapkit.rotations import rodrigues


def joint_positions(fk, rest):
    """Posed joint positions G_j(rest_j)."""
    return np.einsum("jab,jb->ja", fk.rotations, rest) + fk.translations


def two_joint_chain():
    return SkeletonTree(np.array([-1, 0]), ("root", "tip"))


def test_tree_validation():
    with pytest.raises(InvalidJointError):
        SkeletonTree(np.array([0, 0]), ("a", "b"))
    with pytest.raises(InvalidJointError):
        SkeletonTree(np.array([-1, 1]), ("a", "b"))
    with pytest.raises(DimensionError):
        SkeletonTree(np.array([-1, 0]), ("a",))
    with pytest.raises(DimensionError, match="parents must be a list"):
        SkeletonTree(np.array(-1), ("a",))


def test_zero_pose_is_identity(rng):
    tree = random_tree(rng)
    rest = rng.normal(size=(tree.num_joints, 3))
    fk = forward_kinematics(tree, rest, np.zeros(3), np.zeros((tree.num_joints, 3)))
    np.testing.assert_array_equal(joint_positions(fk, rest), rest)


def test_two_joint_chain_quarter_turn():
    tree = two_joint_chain()
    rest = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    poses = np.array([[0, 0, np.pi / 2], [0.0, 0, 0]])
    fk = forward_kinematics(tree, rest, np.zeros(3), poses)
    np.testing.assert_allclose(joint_positions(fk, rest)[1], [0, 1, 0], atol=1e-15)


def test_global_orient_flips_positions(rng):
    tree = random_tree(rng)
    rest = rng.normal(size=(tree.num_joints, 3))
    rest[0] = 0.0  # rotation about the root's rest position
    fk = forward_kinematics(tree, rest, np.array([0, 0, np.pi]), np.zeros((tree.num_joints, 3)))
    expected = rest * np.array([-1.0, -1.0, 1.0])
    np.testing.assert_allclose(joint_positions(fk, rest), expected, atol=1e-12)


def test_matches_brute_force_oracle(rng):
    for _ in range(50):
        tree = random_tree(rng)
        rest = rng.normal(size=(tree.num_joints, 3))
        poses = rng.normal(scale=0.8, size=(tree.num_joints, 3))
        orient = rng.normal(scale=0.8, size=3)
        fk = forward_kinematics(tree, rest, orient, poses)
        oracle = brute_force_fk(tree, rest, orient, poses)
        for j in range(tree.num_joints):
            np.testing.assert_allclose(fk.rotations[j], oracle[j, :3, :3], atol=1e-12)
            np.testing.assert_allclose(fk.translations[j], oracle[j, :3, 3], atol=1e-12)


def test_output_rotations_valid(rng):
    tree = random_tree(rng)
    fk = forward_kinematics(
        tree, rng.normal(size=(tree.num_joints, 3)), rng.normal(size=3),
        rng.normal(scale=2.0, size=(tree.num_joints, 3)))
    for R in fk.rotations:
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9


def test_length_mismatch():
    tree = two_joint_chain()
    with pytest.raises(DimensionError):
        forward_kinematics(tree, np.zeros((3, 3)), np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        forward_kinematics(tree, np.zeros((2, 3)), np.zeros(3), np.zeros((3, 3)))
    for orient in (np.zeros(2), np.zeros((4, 3))):
        with pytest.raises(DimensionError, match="global_orient must be"):
            forward_kinematics(tree, np.zeros((2, 3)), orient, np.zeros((2, 3)))


def test_gamma_identity_ancestors():
    tree = two_joint_chain()
    target = Rotation.random(random_state=np.random.RandomState(3)).as_matrix()
    aa = gamma_global_to_local(tree, np.zeros(3), np.zeros((2, 3)), 1, target)
    np.testing.assert_allclose(rodrigues(aa), target, atol=1e-9)


def test_gamma_matches_direct_matrix_product(rng):
    tree = two_joint_chain()
    root_pose = rng.normal(size=3)
    target = Rotation.random(random_state=np.random.RandomState(7)).as_matrix()
    poses = np.vstack([root_pose, np.zeros(3)])
    aa = gamma_global_to_local(tree, np.zeros(3), poses, 1, target)
    Rp = rodrigues(root_pose)
    np.testing.assert_allclose(rodrigues(aa), Rp.T @ target, atol=1e-9)


def test_gamma_fk_round_trip_random(rng):
    for _ in range(100):
        tree = random_tree(rng, max_joints=8)
        n = tree.num_joints
        rest = rng.normal(size=(n, 3))
        poses = rng.normal(scale=0.7, size=(n, 3))
        orient = rng.normal(scale=0.7, size=3)
        j = int(rng.integers(1, n))
        target = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
        aa = gamma_global_to_local(tree, orient, poses, j, target)
        poses[j] = aa
        fk = forward_kinematics(tree, rest, orient, poses)
        assert np.abs(fk.rotations[j] - target).max() < 1e-6


def test_batched_gamma_equals_per_frame_calls(rng):
    tree = random_tree(rng, max_joints=12)
    n = tree.num_joints
    j = n - 1
    orient = rng.normal(scale=0.7, size=(6, 3))
    poses = rng.normal(scale=0.7, size=(6, n, 3))
    aa = rng.normal(size=(6, 3))
    aa[2] *= (np.pi - 1e-9) / np.linalg.norm(aa[2])      # near pi
    aa[3] = 0.0
    targets = np.array([rodrigues(a) for a in aa])
    batched = gamma_global_to_local(tree, orient, poses, j, targets)
    assert batched.shape == (6, 3)
    for t in range(6):
        single = gamma_global_to_local(tree, orient[t], poses[t], j, targets[t])
        np.testing.assert_array_equal(batched[t], single)


def test_gamma_rejects_root():
    tree = two_joint_chain()
    with pytest.raises(InvalidJointError):
        gamma_global_to_local(tree, np.zeros(3), np.zeros((2, 3)), 0, np.eye(3))

