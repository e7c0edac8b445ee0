import numpy as np
import pytest

from mocapkit.errors import DimensionError
from mocapkit.toymodel import gen_toy_model


def test_basic_shape(toy):
    assert toy.num_joints == 52
    assert toy.tree.parents[0] == -1
    assert toy.num_betas == 10
    assert toy.skin_weights.shape == (toy.num_vertices, 52)
    assert toy.joint_regressor.shape[1] == toy.num_vertices


def test_regressor_row_stochastic(toy):
    np.testing.assert_allclose(toy.joint_regressor.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(toy.joint_regressor >= 0)


def test_weights_row_stochastic(toy):
    np.testing.assert_allclose(toy.skin_weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(toy.skin_weights >= 0)


def test_rest_joints_regress_exactly(toy):
    rest = toy.rest_joints()
    regressed = toy.joint_regressor[:52] @ toy.template_vertices
    np.testing.assert_allclose(regressed, rest, atol=1e-12)


def test_mirror_symmetric_template(toy):
    rest = toy.rest_joints()
    mirrored = rest * np.array([-1.0, 1.0, 1.0])
    # every joint's mirror is also a joint position
    for p in mirrored:
        assert np.min(np.linalg.norm(rest - p, axis=1)) < 1e-12


def test_hand_joint_tables(toy):
    for side in ("left", "right"):
        ids = toy.hand_joint_ids[side]
        assert len(ids) == 16
        tips = toy.fingertip_vertex_ids[side]
        assert len(tips) == 5
    assert not set(toy.hand_joint_ids["left"][1:]) & set(toy.hand_joint_ids["right"][1:])


def test_reference_knuckle_length_matches_geometry(toy):
    # Hand joints 4 and 5 are the middle-finger knuckle pair (`dataprep.KNUCKLE_JOINTS`).
    rest = toy.rest_joints()
    for side in ("left", "right"):
        ids = toy.hand_joint_ids[side]
        got = np.linalg.norm(rest[ids[4]] - rest[ids[5]])
        assert got == pytest.approx(toy.reference_knuckle_length, rel=1e-9)


def test_faces_index_valid_vertices(toy):
    assert toy.faces.min() >= 0
    assert toy.faces.max() < toy.num_vertices


def test_seed_changes_offsets_not_structure():
    a = gen_toy_model(seed=1)
    b = gen_toy_model(seed=2)
    assert a.num_vertices == b.num_vertices
    np.testing.assert_array_equal(a.tree.parents, b.tree.parents)
    assert not np.array_equal(a.template_vertices, b.template_vertices)
    np.testing.assert_allclose(a.rest_joints(), b.rest_joints(), atol=1e-12)


def test_size_classes():
    small = gen_toy_model(seed=0, size_class="small")
    large = gen_toy_model(seed=0, size_class="large")
    assert large.num_vertices > small.num_vertices
    with pytest.raises(DimensionError):
        gen_toy_model(seed=0, size_class="huge")


def test_shape_basis_mirror_paired(toy):
    # shaped left/right joint pairs stay exact x-mirrors of each other
    beta = np.zeros(10)
    beta[0] = 1.0
    rest = toy.rest_joints(beta)
    names = toy.tree.joint_names
    idx = {n: i for i, n in enumerate(names)}
    pairs = [(i, idx["right_" + n[5:]]) for i, n in enumerate(names) if n.startswith("left_")]
    assert pairs
    for li, ri in pairs:
        np.testing.assert_allclose(rest[ri], rest[li] * np.array([-1.0, 1.0, 1.0]), atol=1e-12)
