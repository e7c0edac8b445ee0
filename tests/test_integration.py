import dataclasses

import numpy as np
import pytest

from mocapkit import integration
from mocapkit.camera import WeakPerspectiveCamera
from mocapkit.errors import DimensionError, MocapkitError
from mocapkit.integration import BodyPrediction, HandPrediction, WholeBodyParams, copy_paste
from mocapkit.kinematics import forward_kinematics
from mocapkit.rotations import rodrigues


def random_body(rng, num_betas=10):
    return BodyPrediction(
        phi_b=rng.normal(scale=0.5, size=3),
        theta_b=rng.normal(scale=0.3, size=(21, 3)),
        beta_b=rng.normal(scale=0.2, size=num_betas),
        cam_b=WeakPerspectiveCamera(100.0, np.array([64.0, 64.0])),
    )


def random_hand(rng, side, num_betas=10):
    return HandPrediction(
        side=side,
        phi_h=rng.normal(scale=0.8, size=3),
        theta_h=rng.normal(scale=0.3, size=(15, 3)),
        beta_h=rng.normal(scale=0.2, size=num_betas),
        cam_h=WeakPerspectiveCamera(50.0, np.zeros(2)),
    )


def fused_fk(model, params):
    rest = model.rest_joints(params.beta_w)
    return forward_kinematics(model.tree, rest, params.pose_w)


def test_body_joints_are_every_joint_but_the_fingers(toy):
    body = toy.body_joints
    left, right = toy.hand_joint_ids["left"], toy.hand_joint_ids["right"]
    assert body.shape == (22,)
    assert sorted([*body, *left[1:], *right[1:]]) == list(range(toy.num_joints))
    assert {0, left[0], right[0]} <= set(body.tolist())
    assert (np.diff(body) > 0).all()


def test_fused_wrist_matches_hand_global_orientation(toy, rng):
    for _ in range(20):
        body = random_body(rng)
        left = random_hand(rng, "left")
        right = random_hand(rng, "right")
        [params] = copy_paste(toy, [(body, left, right)])
        fk = fused_fk(toy, params)
        for pred, side in ((left, "left"), (right, "right")):
            wrist = toy.hand_joint_ids[side][0]
            np.testing.assert_allclose(fk[0][wrist], rodrigues(pred.phi_h), atol=1e-9)


def test_fused_fingers_and_body_copied_verbatim(toy, rng):
    body = random_body(rng)
    left = random_hand(rng, "left")
    [params] = copy_paste(toy, [(body, left, None)])
    wrist, *fingers = toy.hand_joint_ids["left"]
    np.testing.assert_array_equal(params.pose_w[fingers], left.theta_h)
    kept = toy.body_joints[1:] != wrist
    np.testing.assert_array_equal(params.pose_w[toy.body_joints[1:][kept]], body.theta_b[kept])
    np.testing.assert_array_equal(params.pose_w[0], body.phi_b)
    np.testing.assert_array_equal(params.beta_w, body.beta_b)
    assert params.cam_w == body.cam_b


def test_absent_hand_keeps_body_wrist_and_zero_fingers(toy, rng):
    body = random_body(rng)
    [params] = copy_paste(toy, [(body, None, None)])
    wrist, *fingers = toy.hand_joint_ids["right"]
    np.testing.assert_array_equal(params.pose_w[fingers], 0.0)
    wrist_pos = np.flatnonzero(toy.body_joints[1:] == wrist)[0]
    np.testing.assert_array_equal(params.pose_w[wrist], body.theta_b[wrist_pos])


def test_fusion_ignores_hand_shape(toy, rng):
    body = random_body(rng)
    left = random_hand(rng, "left")
    [params] = copy_paste(toy, [(body, left, None)])
    np.testing.assert_array_equal(params.beta_w, body.beta_b)


def test_side_mismatch_rejected(toy, rng):
    body = random_body(rng)
    with pytest.raises(MocapkitError):
        copy_paste(toy, [(body, random_hand(rng, "right"), None)])


def test_copy_paste_over_frames_equals_one_frame_calls(toy, rng, monkeypatch):
    near_pi = random_hand(rng, "right")
    near_pi = HandPrediction("right", near_pi.phi_h * (np.pi - 1e-9) / np.linalg.norm(near_pi.phi_h),
                             near_pi.theta_h, near_pi.beta_h, near_pi.cam_h)
    unshaped = random_body(rng)
    unshaped = BodyPrediction(unshaped.phi_b, unshaped.theta_b, np.zeros(10), unshaped.cam_b)
    frames = [
        (random_body(rng), random_hand(rng, "left"), random_hand(rng, "right")),
        (random_body(rng), random_hand(rng, "left"), None),
        (random_body(rng), None, random_hand(rng, "right")),
        (random_body(rng), None, None),
        (unshaped, random_hand(rng, "left"), random_hand(rng, "right")),
        (random_body(rng), random_hand(rng, "left"), near_pi),
    ]
    singles = [copy_paste(toy, [frame])[0] for frame in frames]
    for group in (len(frames), 4):
        monkeypatch.setattr(integration, "FRAME_GROUP", group)
        fused = copy_paste(toy, frames)
        assert len(fused) == len(frames)
        for f, s in zip(fused, singles):
            for a, b in ((f.pose_w, s.pose_w), (f.beta_w, s.beta_w)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert f.cam_w == s.cam_w


def test_copy_paste_names_the_frame_it_rejects(toy, rng):
    frames = [(random_body(rng), None, None) for _ in range(3)]
    body = frames[2][0]
    frames[2] = (BodyPrediction(body.phi_b, body.theta_b, np.zeros(9), body.cam_b), None, None)
    with pytest.raises(DimensionError, match="beta must have length 10") as e:
        copy_paste(toy, frames)
    assert e.value.frame == 2
    assert copy_paste(toy, []) == []


def test_prediction_shape_validation(rng):
    with pytest.raises(DimensionError):
        BodyPrediction(np.zeros(3), np.zeros((20, 3)), np.zeros(10),
                       WeakPerspectiveCamera.identity())
    with pytest.raises(DimensionError):
        HandPrediction("dorsal", np.zeros(3), np.zeros((15, 3)), np.zeros(10),
                       WeakPerspectiveCamera.identity())


RECORDS = {
    "WholeBodyParams": lambda beta, cam: WholeBodyParams(np.zeros((52, 3)), beta, cam),
    "BodyPrediction": lambda beta, cam: BodyPrediction(np.zeros(3), np.zeros((21, 3)), beta, cam),
    "HandPrediction": lambda beta, cam: HandPrediction("left", np.zeros(3), np.zeros((15, 3)),
                                                       beta, cam),
}


@pytest.mark.parametrize("beta", [np.zeros((2, 10)), np.array([0.0, np.nan, 0.0])],
                         ids=["2d", "nan"])
@pytest.mark.parametrize("record", sorted(RECORDS))
def test_records_reject_a_beta_that_is_not_a_finite_vector(record, beta):
    with pytest.raises(DimensionError, match=r"^beta must be a finite 1-D vector$"):
        RECORDS[record](beta, WeakPerspectiveCamera.identity())


def test_params_vector_round_trip(rng):
    params = WholeBodyParams(rng.normal(size=(52, 3)), rng.normal(size=10),
                             WeakPerspectiveCamera(250.0, rng.normal(size=2)))
    vec = params.vector()
    assert vec.shape == (3 + 51 * 3 + 10 + 3,)
    back = WholeBodyParams.from_vector(vec, 10)
    for a, b in ((params.pose_w, back.pose_w), (params.beta_w, back.beta_w),
                 (params.cam_w.translation, back.cam_w.translation)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.cam_w.scale == params.cam_w.scale
    cam = WeakPerspectiveCamera(3.0, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(dataclasses.replace(params, cam_w=cam).vector()[-3:],
                                  [3.0, 1.0, 2.0])
    # split of a batch of rows gives views with leading batch axes
    rows = np.stack([vec, 2.0 * vec])
    parts = WholeBodyParams.split(rows, 10)
    assert [p.shape for p in parts] == [(2, 52, 3), (2, 10), (2,), (2, 2)]
    assert all(np.shares_memory(p, rows) for p in parts)
