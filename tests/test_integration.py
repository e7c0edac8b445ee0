import numpy as np
import pytest

from mocapkit import integration
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit.errors import DimensionError, MocapkitError
from mocapkit.integration import (BodyPrediction, HandPrediction, PoseLayout,
                                  WholeBodyParams, copy_paste,
                                  hand_bbox_from_body)
from mocapkit.kinematics import forward_kinematics
from mocapkit.model import ShapeParams, pose_joints
from mocapkit.rotations import rodrigues


def random_body(rng, num_betas=10):
    return BodyPrediction(
        phi_b=rng.normal(scale=0.5, size=3),
        theta_b=rng.normal(scale=0.3, size=(21, 3)),
        beta_b=ShapeParams(rng.normal(scale=0.2, size=num_betas)),
        cam_b=WeakPerspectiveCamera(100.0, np.array([64.0, 64.0])),
    )


def random_hand(rng, side, num_betas=10):
    return HandPrediction(
        side=side,
        phi_h=rng.normal(scale=0.8, size=3),
        theta_h=rng.normal(scale=0.3, size=(15, 3)),
        beta_h=ShapeParams(rng.normal(scale=0.2, size=num_betas)),
        cam_h=WeakPerspectiveCamera(50.0, np.zeros(2)),
    )


def fused_fk(model, params):
    rest = model.rest_joints(params.beta_w)
    pose = params.pose()
    return forward_kinematics(model.tree, rest, pose.global_orient, pose.full_local_poses())


def test_layout_partitions_pose_rows(toy):
    layout = PoseLayout.from_model(toy)
    assert layout.body_rows.shape == (21,)
    assert layout.left_finger_rows.shape == (15,)
    assert layout.right_finger_rows.shape == (15,)
    all_rows = np.concatenate([layout.body_rows, layout.left_finger_rows, layout.right_finger_rows])
    assert sorted(all_rows.tolist()) == list(range(toy.num_joints - 1))
    assert layout.left_wrist_row in layout.body_rows
    assert layout.right_wrist_row in layout.body_rows
    assert layout.wrist_row("left") == toy.hand_joint_ids["left"][0] - 1
    assert layout.wrist_row("right") == toy.hand_joint_ids["right"][0] - 1


def test_fused_wrist_matches_hand_global_orientation(toy, rng):
    layout = PoseLayout.from_model(toy)
    for _ in range(20):
        body = random_body(rng)
        left = random_hand(rng, "left")
        right = random_hand(rng, "right")
        [params] = copy_paste(toy, [(body, left, right)])
        fk = fused_fk(toy, params)
        for pred, side in ((left, "left"), (right, "right")):
            wrist = layout.wrist_row(side) + 1
            np.testing.assert_allclose(fk.rotations[wrist], rodrigues(pred.phi_h), atol=1e-9)


def test_fused_fingers_and_body_copied_verbatim(toy, rng):
    layout = PoseLayout.from_model(toy)
    body = random_body(rng)
    left = random_hand(rng, "left")
    [params] = copy_paste(toy, [(body, left, None)])
    np.testing.assert_array_equal(params.theta_w[layout.left_finger_rows], left.theta_h)
    body_minus_wrist = [r for r in layout.body_rows if r != layout.left_wrist_row]
    picked = np.array([np.where(layout.body_rows == r)[0][0] for r in body_minus_wrist])
    np.testing.assert_array_equal(params.theta_w[body_minus_wrist], body.theta_b[picked])
    np.testing.assert_array_equal(params.phi_w, body.phi_b)
    np.testing.assert_array_equal(params.beta_w.beta, body.beta_b.beta)
    assert params.cam_w == body.cam_b


def test_absent_hand_keeps_body_wrist_and_zero_fingers(toy, rng):
    layout = PoseLayout.from_model(toy)
    body = random_body(rng)
    [params] = copy_paste(toy, [(body, None, None)])
    np.testing.assert_array_equal(params.theta_w[layout.right_finger_rows], 0.0)
    wrist_pos = np.where(layout.body_rows == layout.right_wrist_row)[0][0]
    np.testing.assert_array_equal(params.theta_w[layout.right_wrist_row], body.theta_b[wrist_pos])


def test_fusion_ignores_hand_shape(toy, rng):
    body = random_body(rng)
    left = random_hand(rng, "left")
    [params] = copy_paste(toy, [(body, left, None)])
    np.testing.assert_array_equal(params.beta_w.beta, body.beta_b.beta)


def test_side_mismatch_rejected(toy, rng):
    body = random_body(rng)
    with pytest.raises(MocapkitError):
        copy_paste(toy, [(body, random_hand(rng, "right"), None)])


def test_copy_paste_over_frames_equals_one_frame_calls(toy, rng, monkeypatch):
    near_pi = random_hand(rng, "right")
    near_pi = HandPrediction("right", near_pi.phi_h * (np.pi - 1e-9) / np.linalg.norm(near_pi.phi_h),
                             near_pi.theta_h, near_pi.beta_h, near_pi.cam_h)
    unshaped = random_body(rng)
    unshaped = BodyPrediction(unshaped.phi_b, unshaped.theta_b, ShapeParams.zeros(10), unshaped.cam_b)
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
            for a, b in ((f.phi_w, s.phi_w), (f.theta_w, s.theta_w), (f.beta_w.beta, s.beta_w.beta)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert f.cam_w == s.cam_w


def test_copy_paste_names_the_frame_it_rejects(toy, rng):
    frames = [(random_body(rng), None, None) for _ in range(3)]
    body = frames[2][0]
    frames[2] = (BodyPrediction(body.phi_b, body.theta_b, ShapeParams.zeros(9), body.cam_b), None, None)
    with pytest.raises(DimensionError, match="beta must have length 10") as e:
        copy_paste(toy, frames)
    assert e.value.frame == 2
    assert copy_paste(toy, []) == []


def test_prediction_shape_validation(rng):
    with pytest.raises(DimensionError):
        BodyPrediction(np.zeros(3), np.zeros((20, 3)), ShapeParams.zeros(10),
                       WeakPerspectiveCamera.identity())
    with pytest.raises(DimensionError):
        HandPrediction("dorsal", np.zeros(3), np.zeros((15, 3)), ShapeParams.zeros(10),
                       WeakPerspectiveCamera.identity())


def test_hand_bbox_covers_projected_hand_joints(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(200.0, np.array([128.0, 128.0]))
    cx, cy, side_px = hand_bbox_from_body(toy, params, cam, "left")
    joints = pose_joints(toy, params.pose(), params.beta_w)[: toy.num_joints]
    pts = project(cam, joints[np.asarray(toy.hand_joint_ids["left"])])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    assert side_px == pytest.approx(1.2 * (hi - lo).max())
    assert (cx, cy) == pytest.approx(tuple((lo + hi) / 2))
    half = side_px / 2
    assert np.all(pts[:, 0] >= cx - half) and np.all(pts[:, 0] <= cx + half)
    assert np.all(pts[:, 1] >= cy - half) and np.all(pts[:, 1] <= cy + half)


def test_hand_bbox_minimum_one_pixel(toy):
    # a camera with tiny scale collapses the hand to (almost) a point
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(1e-9, np.zeros(2))
    _, _, side_px = hand_bbox_from_body(toy, params, cam, "right")
    assert side_px == 1.0


def test_hand_bbox_unknown_side(toy):
    params = WholeBodyParams.identity(toy)
    with pytest.raises(DimensionError):
        hand_bbox_from_body(toy, params, WeakPerspectiveCamera.identity(), "dorsal")


def test_params_vector_round_trip(rng):
    params = WholeBodyParams(rng.normal(size=3), rng.normal(size=(51, 3)),
                             ShapeParams(rng.normal(size=10)),
                             WeakPerspectiveCamera(250.0, rng.normal(size=2)))
    vec = params.vector()
    assert vec.shape == (3 + 51 * 3 + 10 + 3,)
    back = WholeBodyParams.from_vector(vec, 10)
    for a, b in ((params.phi_w, back.phi_w), (params.theta_w, back.theta_w),
                 (params.beta_w.beta, back.beta_w.beta),
                 (params.cam_w.translation, back.cam_w.translation)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.cam_w.scale == params.cam_w.scale
    cam = WeakPerspectiveCamera(3.0, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(params.vector(cam)[-3:], [3.0, 1.0, 2.0])
    # split of a batch of rows gives views with leading batch axes
    rows = np.stack([vec, 2.0 * vec])
    parts = WholeBodyParams.split(rows, 10)
    assert [p.shape for p in parts] == [(2, 3), (2, 51, 3), (2, 10), (2,), (2, 2)]
    assert all(np.shares_memory(p, rows) for p in parts)
