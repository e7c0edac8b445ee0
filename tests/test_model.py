import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import signed_regressor
from mocapkit import _kernels
from mocapkit.camera import WeakPerspectiveCamera
from mocapkit.errors import DimensionError
from mocapkit.integration import WholeBodyParams
from mocapkit.kinematics import SkeletonTree, forward_kinematics
from mocapkit.model import (JointFold, ParametricModel, check_pose, pose_joints, pose_mesh,
                            shape_template)
from mocapkit.rotations import rodrigues
from mocapkit.toymodel import gen_toy_model


def test_shape_template_zero_beta(toy):
    np.testing.assert_array_equal(shape_template(toy, np.zeros(10)), toy.template_vertices)


def test_no_beta_is_the_zero_shape_bit_for_bit(toy, rng):
    pose = rng.normal(scale=0.5, size=(52, 3))
    zero = np.zeros(10)
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
    pose = rng.normal(scale=0.5, size=(4, 52, 3))
    betas = rng.normal(size=(4, 10))
    batched = pose_mesh(toy, pose, betas)
    for t in range(4):
        single = pose_mesh(toy, pose[t], betas[t])
        np.testing.assert_array_equal(batched[t], single)


def test_shape_template_bad_beta(toy):
    with pytest.raises(DimensionError):
        shape_template(toy, np.zeros(7))


def test_the_pose_is_the_leading_rows_of_the_flat_vector(toy, rng):
    J = toy.num_joints
    params = WholeBodyParams(rng.normal(size=(J, 3)), rng.normal(size=10),
                             WeakPerspectiveCamera(2.0, rng.normal(size=2)))
    pose = params.pose_w
    assert pose.shape == (J, 3)
    assert pose.tobytes() == params.vector()[:3 * J].reshape(J, 3).tobytes()


POSE_TAKERS = {
    "pose_mesh": pose_mesh,
    "pose_joints": pose_joints,
    "forward_kinematics": lambda model, pose: forward_kinematics(model.tree, model.rest_joints(),
                                                                 pose),
    "check_pose": check_pose,
}


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("taker", sorted(POSE_TAKERS))
def test_the_non_root_rows_alone_are_not_a_pose(toy, taker, batch):
    """The (J - 1, 3) block without the global orientation is rejected by
    name of the (J, 3) layout."""
    with pytest.raises(DimensionError, match=rf"must be \({toy.num_joints}, 3\)"):
        POSE_TAKERS[taker](toy, np.zeros(batch + (toy.num_joints - 1, 3)))


def test_pose_mesh_rest_is_template(toy):
    v = pose_mesh(toy, np.zeros((toy.num_joints, 3)), np.zeros(10))
    assert np.abs(v - toy.template_vertices).max() < 1e-12


def test_rigidly_bound_vertices_follow_their_joint(toy, rng):
    rigid = np.where(np.isclose(toy.skin_weights.max(axis=1), 1.0))[0]
    assert rigid.size > 0
    pose = rng.normal(scale=0.4, size=(52, 3))
    verts, (R, t) = pose_mesh(toy, pose, return_fk=True)
    joint = np.argmax(toy.skin_weights[rigid], axis=1)
    for v, j in zip(rigid, joint):
        expected = R[j] @ toy.template_vertices[v] + t[j]
        np.testing.assert_allclose(verts[v], expected, atol=1e-9)


def test_global_half_turn_mirrors_mesh(toy):
    # toy root rests at the origin, so a pi turn about z negates x and y
    pose = np.zeros((52, 3))
    pose[0] = [0, 0, np.pi]
    v = pose_mesh(toy, pose)
    expected = toy.template_vertices * np.array([-1.0, -1.0, 1.0])
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_pose_mesh_global_rotation_equivariance(toy, rng):
    aa = rng.normal(size=3)
    R = rodrigues(aa)
    pose = np.vstack([np.zeros(3), rng.normal(scale=0.3, size=(51, 3))])
    rotated_pose = np.vstack([aa, pose[1:]])
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


@pytest.mark.parametrize("extra", [False, True, "signed"])
def test_batched_pose_joints_match_regressed_mesh(toy, rng, extra):
    model = toy
    if extra:  # 5 one-hot rows beyond the skeleton joints, as fingertip rows are
        tips = np.zeros((5, toy.num_vertices))
        tips[np.arange(5), toy.fingertip_vertex_ids["left"]] = 1.0
        model = dataclasses.replace(toy, joint_regressor=np.vstack([toy.joint_regressor, tips]))
    if extra == "signed":
        model = signed_regressor(model, 2)
    batch = 4
    pose = rng.normal(scale=0.5, size=(batch, model.num_joints, 3))
    betas = rng.normal(scale=0.5, size=(batch, model.num_betas))
    singles = list(pose)
    for beta in (betas, betas[0]):
        expected = [model.joint_regressor @ pose_mesh(model, p, bb)
                    for p, bb in zip(singles, np.broadcast_to(beta, betas.shape))]
        np.testing.assert_allclose(pose_joints(model, pose, beta), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pose_joints(model, singles[1], betas[1]),
                               model.joint_regressor @ pose_mesh(model, singles[1], betas[1]),
                               rtol=0, atol=1e-12)


def test_the_fold_pairs_are_the_overlapping_supports(toy):
    # Pair (k, j) exists when some vertex is in regressor row k and skinned
    # to bone j; its virtual vertices have the bits of the (P, N) mix product.
    for model in (toy, gen_toy_model(seed=0, size_class="large")):
        reg, W = model.joint_regressor, model.skin_weights
        fold = JointFold.of(model)
        overlap = ((reg != 0)[:, :, None] & (W != 0)[None]).any(axis=1)
        np.testing.assert_array_equal(fold.pair_joint, np.nonzero(overlap)[0])
        np.testing.assert_array_equal(fold.pair_bone, np.nonzero(overlap)[1])
        mix = reg[fold.pair_joint] * W[:, fold.pair_bone].T
        assert fold.vertices.tobytes() == (mix @ model.template_vertices).tobytes()


# The posing kernels run in a fixed working set.  numpy reports its array
# buffers to tracemalloc, so these peaks repeat exactly.  SLACK covers
# numpy's iteration buffers (8192 items, 64 KiB) and small objects; one
# (64, N, 3) array of the large toy asset is 0.97 MB.
SLACK = 192 * 1024


def _peak_bytes(fn, *args):
    """The result of ``fn(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_batch():
    """The large toy asset, warmed, with 64 frames of poses and shapes."""
    model = gen_toy_model(seed=0, size_class="large")
    rng = np.random.default_rng(3)
    pose = rng.normal(scale=0.3, size=(64, model.num_joints, 3))
    beta = rng.normal(size=(64, model.num_betas))
    pose_mesh(model, pose, beta)
    return model, pose, beta


def test_skinning_holds_its_output_and_one_scratch(large_batch):
    model, pose, beta = large_batch
    shaped = shape_template(model, beta)
    rots, trans = forward_kinematics(model.tree, model.rest_joints(beta), pose)
    out, peak = _peak_bytes(_kernels.lbs, model.skin_weights, shaped, rots, trans)
    assert peak <= 2 * out.nbytes + SLACK


def test_batched_shape_blend_holds_its_output_alone(large_batch):
    model, _, beta = large_batch
    out, peak = _peak_bytes(shape_template, model, beta)
    assert out.shape == (64, model.num_vertices, 3)
    assert peak <= out.nbytes + SLACK


def test_posing_a_group_holds_three_vertex_arrays_and_its_fk(large_batch):
    model, pose, beta = large_batch
    rots, trans = forward_kinematics(model.tree, model.rest_joints(beta), pose)
    out, peak = _peak_bytes(pose_mesh, model, pose, beta)
    assert peak <= 3 * out.nbytes + rots.nbytes + trans.nbytes + SLACK


def test_the_joint_fold_holds_two_mix_arrays_and_the_masks(toy):
    # On the small asset a (P, N) product is below the 256 KiB from which
    # numpy reuses a temporary operand as its output.
    reg, W = toy.joint_regressor, toy.skin_weights
    fold, peak = _peak_bytes(JointFold.of, toy)
    mix_bytes = fold.pair_joint.size * toy.num_vertices * 8
    assert peak <= 2 * mix_bytes + 4 * (reg.size + W.size)
