import dataclasses

import numpy as np
import pytest

from conftest import signed_regressor
from mocapkit.errors import DegenerateModelError, DimensionError
from mocapkit.kinematics import SkeletonTree, forward_kinematics
from mocapkit.model import (ParametricModel, PoseParams, ShapeParams,
                            extract_hand_submodel, nearest_joint_assignment,
                            pose_joints, pose_mesh, regress_hand_joints,
                            regress_joints, shape_template)
from mocapkit.rotations import rodrigues


def test_shape_template_zero_beta(toy):
    np.testing.assert_array_equal(shape_template(toy, ShapeParams.zeros(10)), toy.template_vertices)


def test_no_beta_is_the_zero_shape_bit_for_bit(toy, rng):
    pose = PoseParams(rng.normal(scale=0.5, size=3), rng.normal(scale=0.5, size=(51, 3)))
    zero = ShapeParams.zeros(10)
    pairs = [(toy.rest_joints(), toy.rest_joints(zero)),
             (shape_template(toy, None), shape_template(toy, zero)),
             (pose_joints(toy, pose), pose_joints(toy, pose, zero)),
             (pose_mesh(toy, pose), pose_mesh(toy, pose, zero))]
    for none, zeros in pairs:
        assert none.shape == zeros.shape and none.tobytes() == zeros.tobytes()


def test_shape_template_unit_vector(toy):
    e3 = np.zeros(10)
    e3[3] = 1.0
    expected = toy.template_vertices + toy.shape_basis[:, :, 3]
    np.testing.assert_allclose(shape_template(toy, e3), expected, atol=1e-15)


def test_shape_template_linearity(toy, rng):
    b1 = rng.normal(size=10)
    b2 = rng.normal(size=10)
    combined = shape_template(toy, b1 + b2)
    split = shape_template(toy, b1) + shape_template(toy, b2) - toy.template_vertices
    np.testing.assert_allclose(combined, split, atol=1e-12)


def test_batched_shape_template_rows_equal_single_calls(toy, rng):
    betas = rng.normal(size=(2, 3, 10)) * np.array([0.0, 1e-3, 1.0])[:, None]
    batched = shape_template(toy, betas)
    assert batched.shape == (2, 3) + toy.template_vertices.shape
    for idx in np.ndindex(betas.shape[:-1]):
        np.testing.assert_array_equal(batched[idx], shape_template(toy, betas[idx]))


def test_batched_pose_mesh_frames_equal_single_calls(toy, rng):
    pose = PoseParams(rng.normal(scale=0.5, size=(4, 3)), rng.normal(scale=0.5, size=(4, 51, 3)))
    betas = rng.normal(size=(4, 10))
    batched = pose_mesh(toy, pose, betas)
    for t in range(4):
        single = pose_mesh(toy, PoseParams(pose.global_orient[t], pose.joint_poses[t]), betas[t])
        np.testing.assert_array_equal(batched[t], single)


def test_shape_template_bad_beta(toy):
    with pytest.raises(DimensionError):
        shape_template(toy, np.zeros(7))


@pytest.mark.parametrize("orient, poses, message", [
    (np.zeros(2), np.zeros((51, 3)), "global_orient must be a 3-vector"),
    (np.zeros(3), np.zeros((51, 2)), r"joint_poses must be \(J-1, 3\)"),
    (np.zeros(3), np.zeros(3), r"joint_poses must be \(J-1, 3\)"),
    (np.zeros((4, 3)), np.zeros((51, 3)), "global_orient and joint_poses have different batch axes"),
])
def test_pose_params_shape_checks(orient, poses, message):
    with pytest.raises(DimensionError, match=message):
        PoseParams(orient, poses)


def test_regress_joints_origin():
    reg = np.full((2, 4), 0.25)
    np.testing.assert_array_equal(regress_joints(reg, np.zeros((4, 3))), np.zeros((2, 3)))


def test_regress_joints_one_hot(rng):
    verts = rng.normal(size=(5, 3))
    reg = np.zeros((1, 5))
    reg[0, 3] = 1.0
    np.testing.assert_array_equal(regress_joints(reg, verts)[0], verts[3])


def test_regress_joints_uniform_is_centroid(rng):
    verts = rng.normal(size=(8, 3))
    reg = np.full((1, 8), 1.0 / 8)
    np.testing.assert_allclose(regress_joints(reg, verts)[0], verts.mean(axis=0), atol=1e-12)


def test_regress_joints_shape_mismatch(rng):
    with pytest.raises(DimensionError):
        regress_joints(np.ones((1, 4)), rng.normal(size=(5, 3)))


def test_pose_mesh_rest_is_template(toy):
    v = pose_mesh(toy, PoseParams.zeros(toy.num_joints), ShapeParams.zeros(10))
    assert np.abs(v - toy.template_vertices).max() < 1e-12


def test_rigidly_bound_vertices_follow_their_joint(toy, rng):
    rigid = np.where(np.isclose(toy.skin_weights.max(axis=1), 1.0))[0]
    assert rigid.size > 0
    pose = PoseParams(rng.normal(scale=0.4, size=3), rng.normal(scale=0.4, size=(51, 3)))
    verts, fk = pose_mesh(toy, pose, return_fk=True)
    joint = np.argmax(toy.skin_weights[rigid], axis=1)
    for v, j in zip(rigid, joint):
        expected = fk.rotations[j] @ toy.template_vertices[v] + fk.translations[j]
        np.testing.assert_allclose(verts[v], expected, atol=1e-9)


def test_global_half_turn_mirrors_mesh(toy):
    # toy root rests at the origin, so a pi turn about z negates x and y
    pose = PoseParams(np.array([0, 0, np.pi]), np.zeros((51, 3)))
    v = pose_mesh(toy, pose)
    expected = toy.template_vertices * np.array([-1.0, -1.0, 1.0])
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_pose_mesh_global_rotation_equivariance(toy, rng):
    aa = rng.normal(size=3)
    R = rodrigues(aa)
    pose = PoseParams(np.zeros(3), rng.normal(scale=0.3, size=(51, 3)))
    rotated_pose = PoseParams(aa, pose.joint_poses)
    direct = pose_mesh(toy, rotated_pose)
    indirect = pose_mesh(toy, pose) @ R.T  # root rests at the origin
    np.testing.assert_allclose(direct, indirect, atol=1e-9)


def test_regression_commutes_with_rigid_transform(toy, rng):
    R = rodrigues(rng.normal(size=3))
    t = rng.normal(size=3)
    verts = rng.normal(size=(toy.num_vertices, 3))
    reg = toy.joint_regressor[: toy.num_joints]
    a = reg @ (verts @ R.T + t)
    b = (reg @ verts) @ R.T + t
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_extract_matches_brute_force_nearest_scan(toy):
    rest = toy.rest_joints()
    hand = set(toy.hand_joint_ids["left"])
    expected = []
    for v in range(toy.num_vertices):
        d = np.linalg.norm(toy.template_vertices[v] - rest, axis=1)
        if int(np.argmin(d)) in hand:
            expected.append(v)
    sub = extract_hand_submodel(toy, "left")
    assert sub.vertex_index_map.tolist() == expected


def test_extract_sides_disjoint(toy):
    left = extract_hand_submodel(toy, "left")
    right = extract_hand_submodel(toy, "right")
    assert not set(left.vertex_index_map) & set(right.vertex_index_map)


def test_extract_from_a_model_without_faces(toy):
    bare = dataclasses.replace(toy, faces=np.zeros((0, 3), dtype=np.int64))
    sub = extract_hand_submodel(bare, "left")
    assert sub.model.faces.shape == (0, 3)
    np.testing.assert_array_equal(sub.vertex_index_map,
                                  extract_hand_submodel(toy, "left").vertex_index_map)


def test_nearest_joint_tie_breaks_low_index():
    verts = np.array([[0.5, 0.0, 0.0]])
    joints = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert nearest_joint_assignment(verts, joints)[0] == 0


def test_extract_missing_side(toy):
    with pytest.raises(DegenerateModelError):
        extract_hand_submodel(toy, "dorsal")


def test_submodel_weight_rows_sum_to_one(toy):
    sub = extract_hand_submodel(toy, "right")
    np.testing.assert_allclose(sub.model.skin_weights.sum(axis=1), 1.0, atol=1e-6)


def test_hand_regressor_fingertips_one_hot(toy):
    sub = extract_hand_submodel(toy, "left")
    posed = pose_mesh(sub.model, PoseParams.zeros(16))
    joints = regress_hand_joints(sub, posed)
    assert joints.shape == (21, 3)
    for r, vid in enumerate(sub.model.fingertip_vertex_ids["left"]):
        np.testing.assert_array_equal(joints[16 + r], posed[vid])
    # zero pose: skeleton joints equal rest joints
    np.testing.assert_allclose(joints[:16], sub.model.rest_joints(), atol=1e-12)


def test_hand_joints_consistent_with_parent_model(toy, rng):
    sub = extract_hand_submodel(toy, "left")
    pose = PoseParams.zeros(toy.num_joints)
    hand_pose = PoseParams.zeros(16)
    # pose only the left fingers, consistently in both models
    finger = rng.normal(scale=0.3, size=(15, 3))
    jp = pose.joint_poses.copy()
    jp[np.asarray(toy.hand_joint_ids["left"][1:]) - 1] = finger
    pose = PoseParams(pose.global_orient, jp)
    hand_pose = PoseParams(np.zeros(3), finger)
    parent_posed = pose_mesh(toy, pose)
    sub_posed = pose_mesh(sub.model, hand_pose)
    np.testing.assert_allclose(sub_posed, parent_posed[sub.vertex_index_map], atol=1e-9)
    a = regress_hand_joints(sub, sub_posed)
    b = sub.model.joint_regressor @ parent_posed[sub.vertex_index_map]
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_submodel_wrist_carries_global_orientation(toy, rng):
    sub = extract_hand_submodel(toy, "left")
    phi_h = rng.normal(size=3)
    finger = rng.normal(scale=0.3, size=(15, 3))
    # parent: non-hand joints at rest, wrist local pose = phi_h
    jp = np.zeros((51, 3))
    jp[toy.hand_joint_ids["left"][0] - 1] = phi_h
    jp[np.asarray(toy.hand_joint_ids["left"][1:]) - 1] = finger
    parent_posed = pose_mesh(toy, PoseParams(np.zeros(3), jp))
    sub_posed = pose_mesh(sub.model, PoseParams(phi_h, finger))
    np.testing.assert_allclose(sub_posed, parent_posed[sub.vertex_index_map], atol=1e-9)


@pytest.mark.parametrize("hand", [False, True, "signed"])
def test_batched_pose_joints_match_regressed_mesh(toy, rng, hand):
    model = extract_hand_submodel(toy, "left").model if hand else toy
    if hand:  # 5 fingertip rows beyond the skeleton joints
        assert model.joint_regressor.shape[0] == model.num_joints + 5
    if hand == "signed":
        model = signed_regressor(model, 2)
    batch, n = 4, model.num_joints - 1
    pose = PoseParams(rng.normal(scale=0.5, size=(batch, 3)), rng.normal(scale=0.5, size=(batch, n, 3)))
    betas = rng.normal(scale=0.5, size=(batch, model.num_betas))
    singles = [PoseParams(pose.global_orient[b], pose.joint_poses[b]) for b in range(batch)]
    for beta in (betas, betas[0]):
        expected = [model.joint_regressor @ pose_mesh(model, p, ShapeParams(bb))
                    for p, bb in zip(singles, np.broadcast_to(beta, betas.shape))]
        np.testing.assert_allclose(pose_joints(model, pose, beta), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pose_joints(model, singles[1], ShapeParams(betas[1])),
                               model.joint_regressor @ pose_mesh(model, singles[1], betas[1]),
                               rtol=0, atol=1e-12)
