import copy
import dataclasses

import numpy as np
import pytest

from conftest import signed_regressor
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit import _kernels, fitting
from mocapkit.errors import DimensionError, FitError, InvalidJointError
from mocapkit.fitting import (SMOOTH_KERNEL, FitConfig, KeypointSet2D, _ParamVector,
                              _residuals, fit, fit_jacobian, temporal_smooth)
from mocapkit.integration import WholeBodyParams
from mocapkit.kinematics import SkeletonTree, forward_kinematics
from mocapkit.model import pose_joints


def exact_jacobian(objective, x):
    """`objective.jacobian` at x, after the `residuals` call at x whose pose it reads."""
    objective.residuals(x)
    return objective.jacobian(x)


def render_keypoints(model, params, cam, conf=None):
    joints = pose_joints(model, params.pose_w, params.beta_w)[: model.num_joints]
    pts = project(cam, joints)
    if conf is None:
        conf = np.ones(pts.shape[0])
    return KeypointSet2D(pts, conf)


def test_keypoint_set_validation():
    with pytest.raises(DimensionError):
        KeypointSet2D(np.zeros((4, 3)), np.ones(4))
    with pytest.raises(DimensionError):
        KeypointSet2D(np.zeros((4, 2)), np.ones(3))
    with pytest.raises(DimensionError):
        KeypointSet2D(np.zeros((4, 2)), np.full(4, 1.5))


@pytest.mark.parametrize("bad", ["point", "confidence"])
def test_keypoint_set_rejects_non_finite_naming_the_joint(bad):
    points, conf = np.zeros((6, 2)), np.ones(6)
    if bad == "point":
        points[4, 1] = np.nan
        points[5, 0] = np.inf
    else:
        conf[4] = np.nan
    with pytest.raises(DimensionError, match="joint 4:"):
        KeypointSet2D(points, conf)


def test_fit_config_validation():
    with pytest.raises(DimensionError):
        FitConfig(iterations=0)


def split_residuals(model, init, cam, kp, config, x=None):
    """`_residuals` of the objective started at `init` and `cam`, at the packed
    vector x or at that start, split into its 2D rows and its prior rows."""
    packer = _ParamVector(model, init, cam, config)
    r = _residuals(model, packer, init, kp, config, packer.pack(init, cam) if x is None else x)
    return r[: 2 * model.num_joints], r[2 * model.num_joints:]


def test_reprojection_cost_zero_at_ground_truth(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    r2d, _ = split_residuals(toy, params, cam, kp, FitConfig())
    assert r2d @ r2d == 0.0


def test_reprojection_cost_confidence_weighting(toy, rng):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    shifted = KeypointSet2D(kp.points + rng.normal(size=kp.points.shape), kp.confidence)
    half = KeypointSet2D(shifted.points, 0.5 * shifted.confidence)
    full_2d, _ = split_residuals(toy, params, cam, shifted, FitConfig())
    half_2d, _ = split_residuals(toy, params, cam, half, FitConfig())
    assert half_2d @ half_2d == pytest.approx(0.5 * (full_2d @ full_2d), rel=1e-12)


def test_zero_confidence_points_ignored(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    conf = kp.confidence.copy()
    conf[7] = 0.0
    corrupted = kp.points.copy()
    corrupted[7] += 1e6
    r2d, _ = split_residuals(toy, params, cam, KeypointSet2D(corrupted, conf), FitConfig())
    assert r2d @ r2d == 0.0


def test_prior_cost_formula(toy, rng):
    # The pose prior covers every theta row and pulls it toward the init, so
    # the rows the fit keeps fixed are zero; the shape prior covers every beta.
    config = FitConfig()
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    pose = np.zeros((toy.num_joints, 3))
    pose[1:] = rng.normal(size=(toy.num_joints - 1, 3))
    beta = rng.normal(size=10)
    init = WholeBodyParams(pose, beta, cam)
    kp = render_keypoints(toy, init, cam)
    shape_cost = fitting.SHAPE_PRIOR_WEIGHT * (beta ** 2).sum()
    _, prior = split_residuals(toy, init, cam, kp, config)
    assert prior @ prior == pytest.approx(shape_cost, rel=1e-12)
    packer = _ParamVector(toy, init, cam, config)
    x = packer.pack(init, cam) + rng.normal(size=packer.free.size)
    _, prior = split_residuals(toy, init, cam, kp, config, x)
    moved = WholeBodyParams.from_vector(packer.rows(x[None])[0], packer.num_betas)
    expected = fitting.POSE_PRIOR_WEIGHT * ((moved.pose_w[1:] - pose[1:]) ** 2).sum() + shape_cost
    assert prior @ prior == pytest.approx(expected, rel=1e-12)


def test_fit_jacobian_exact_on_quadratics():
    def residuals(x):
        return np.array([x[0] ** 2, x[0] * x[1], 3.0 * x[1]])

    x = np.array([1.3, -0.7])
    J = fit_jacobian(residuals, x, 1e-6)
    expected = np.array([[2 * x[0], 0.0], [x[1], x[0]], [0.0, 3.0]])
    # central differences are exact on quadratics up to rounding
    np.testing.assert_allclose(J, expected, atol=1e-8)


def test_exact_jacobian_matches_central_differences(toy, rng):
    config = FitConfig()
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    pose = np.zeros((52, 3))
    pose[1:] = rng.normal(scale=0.4, size=(51, 3))
    pose[toy.body_joints[4]] = 0.0                        # exact-zero angle
    pose[toy.body_joints[6]] = [0.0, 0.0, np.pi - 1e-7]   # angle near pi
    pose[0] = rng.normal(scale=0.3, size=3)
    init = WholeBodyParams(pose, rng.normal(scale=0.5, size=10), cam)
    conf = rng.uniform(0.2, 1.0, size=toy.num_joints)
    conf[[0, 7, 30]] = 0.0
    kp = render_keypoints(toy, init, cam, conf=conf)
    kp = KeypointSet2D(kp.points + rng.normal(size=kp.points.shape), kp.confidence)
    objective = _ParamVector(toy, init, cam, config).bind(kp)
    m2 = 2 * toy.num_joints
    rows, cols, weight = objective.prior_rows, objective.prior_cols, objective.prior_weight
    x0 = objective.pack(init, cam)
    for x in (x0, x0 + rng.normal(scale=0.05, size=x0.size)):
        fd = fit_jacobian(lambda c: objective.residuals(c), x, config.fd_step)
        # the 2K reprojection rows, then the prior rows' constant entries
        exact = np.zeros_like(fd)
        r = objective.residuals(x)
        exact[:m2] = objective.jacobian(x)
        exact[rows, cols] = weight
        rel = np.linalg.norm(exact - fd) / np.linalg.norm(fd)
        assert rel < 1e-6
        # every column is checked on its own, so a wrong small block shows
        col_rel = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
        assert col_rel.max() < 1e-6
        # the prior rows add to JᵀJ only the diagonal that the normal equations add
        diag = np.zeros(x.size)
        diag[cols] = weight * weight
        np.testing.assert_allclose(fd[m2:].T @ fd[m2:], np.diag(diag), atol=1e-8)
        JtJ, Jtr = objective.normal_equations(exact[None, :m2], r[None])
        np.testing.assert_allclose(JtJ[0], exact.T @ exact, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(Jtr[0], exact.T @ r, rtol=1e-12, atol=1e-9)
        # the fit's seam: fit_jacobian hands back the objective's exact Jacobian
        np.testing.assert_array_equal(fit_jacobian(objective, x, config.fd_step), exact[:m2])


def test_exact_jacobian_with_extra_regressor_rows(toy, rng):
    # Rows past the skeleton joints have folded pairs too, which no
    # reprojection row reads; a signed skeleton row has pairs whose C_kj lies
    # outside (0, 1].
    extra = np.zeros((4, toy.num_vertices))
    extra[np.arange(4), rng.choice(toy.num_vertices, size=4, replace=False)] = 1.0
    signed = signed_regressor(toy, 5)
    model = dataclasses.replace(signed, joint_regressor=np.vstack([signed.joint_regressor, extra]))
    config = FitConfig()
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    init = WholeBodyParams(rng.normal(scale=0.3, size=(52, 3)),
                           rng.normal(scale=0.5, size=10), cam)
    kp = KeypointSet2D(rng.normal(scale=30.0, size=(model.num_joints, 2)) + 64.0,
                       rng.uniform(0.2, 1.0, size=model.num_joints))
    objective = _ParamVector(model, init, cam, config).bind(kp)
    x = objective.pack(init, cam)
    fd = fit_jacobian(lambda c: objective.residuals(c), x, config.fd_step)[:2 * model.num_joints]
    exact = exact_jacobian(objective, x)
    assert np.linalg.norm(exact - fd) / np.linalg.norm(fd) < 1e-6
    col_rel = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
    assert col_rel.max() < 1e-6


def test_batched_residuals_match_each_column(toy, rng):
    config = FitConfig()
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    anchor = WholeBodyParams(rng.normal(scale=0.2, size=(52, 3)),
                             rng.normal(scale=0.3, size=10), cam)
    kp = render_keypoints(toy, anchor, cam, conf=rng.uniform(0.2, 1.0, size=toy.num_joints))
    packer = _ParamVector(toy, anchor, cam, config)
    x = packer.pack(anchor, cam)
    cols = x[:, None] + rng.normal(scale=0.05, size=(x.size, 5))
    batched = _residuals(toy, packer, anchor, kp, config, cols)
    single = _residuals(toy, packer, anchor, kp, config, x)
    assert single.ndim == 1 and batched.shape == (single.size, 5)
    for b in range(5):
        np.testing.assert_allclose(batched[:, b], _residuals(toy, packer, anchor, kp, config, cols[:, b]),
                                   rtol=0, atol=1e-10)


def test_param_vector_pack_unpack_round_trip(toy, rng):
    init = WholeBodyParams(rng.normal(size=(52, 3)), rng.normal(size=10),
                           WeakPerspectiveCamera.identity())
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 32.0]))
    packer = _ParamVector(toy, init, cam, FitConfig())
    x = packer.pack(init, cam)
    params = WholeBodyParams.from_vector(packer.rows(x[None])[0], packer.num_betas)
    cam_out = params.cam_w
    at_cam = dataclasses.replace(init, cam_w=cam).vector()
    assert params.vector().tobytes() == at_cam.tobytes()
    assert cam_out.scale == cam.scale
    assert cam_out.translation.tobytes() == cam.translation.tobytes()

    # the body joints (global orientation and wrists included) and the camera
    wrists = [ids[0] for ids in toy.hand_joint_ids.values()]
    assert {0, *wrists} <= set(toy.body_joints.tolist())
    free = np.concatenate([3 * j + np.arange(3) for j in toy.body_joints]
                          + [3 + 153 + 10 + np.arange(3)])
    np.testing.assert_array_equal(x, at_cam[free])
    moved = WholeBodyParams.from_vector(packer.rows(x[None] + 1.0)[0], packer.num_betas)
    np.testing.assert_array_equal(np.flatnonzero(moved.vector() != at_cam), free)


def test_fit_recovers_perturbed_pose(toy, rng):
    joints = toy.body_joints[1:9]
    gt_pose = np.zeros((toy.num_joints, 3))
    gt_pose[joints] = rng.normal(scale=0.2, size=(8, 3))
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_pose[0] = rng.normal(scale=0.1, size=3)
    gt = WholeBodyParams(gt_pose, np.zeros(10), cam)
    kp = render_keypoints(toy, gt, cam)

    init_pose = gt_pose.copy()
    init_pose[joints] += rng.normal(scale=0.1, size=(8, 3))
    init_pose[0] += rng.normal(scale=0.05, size=3)
    init = WholeBodyParams(init_pose, np.zeros(10), cam)
    result = fit(toy, init, kp, FitConfig(iterations=10))
    assert result.cost_trace.shape == (10,)
    assert np.all(np.diff(result.cost_trace) <= 1e-12)
    assert result.final_rms_px < 0.5
    assert result.status == "ok"


def _noisy_fit_problem(toy, rng):
    joints = toy.body_joints[1:9]
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_pose = np.zeros((toy.num_joints, 3))
    gt_pose[joints] = rng.normal(scale=0.2, size=(8, 3))
    gt = WholeBodyParams(gt_pose, np.zeros(10), cam)
    kp = render_keypoints(toy, gt, cam)
    kp = KeypointSet2D(kp.points + rng.normal(scale=1.0, size=kp.points.shape), kp.confidence)
    init_pose = gt_pose.copy()
    init_pose[joints] += rng.normal(scale=0.3, size=(8, 3))
    return WholeBodyParams(init_pose, np.zeros(10), cam), kp


def _counting_residuals(monkeypatch):
    """Patch `_ParamVector.residuals` to record how many parameter vectors each call poses."""
    columns = []
    original = _ParamVector.residuals

    def counting(objective, x):
        r = original(objective, x)
        columns.append(1 if r.ndim == 1 else r.shape[1])
        return r

    monkeypatch.setattr(_ParamVector, "residuals", counting)
    return columns


def test_fit_step_counts_add_up_to_trial_evaluations(toy, rng, monkeypatch):
    init, kp = _noisy_fit_problem(toy, rng)
    calls = _counting_residuals(monkeypatch)
    result = fit(toy, init, kp, FitConfig(iterations=15))
    # the first evaluation is the initial cost; every later one is a trial step
    assert calls == [1] * len(calls)
    assert result.accepted_steps + result.rejected_steps == len(calls) - 1
    assert result.accepted_steps >= 1
    assert result.status == "ok" and result.cost_trace.shape == (15,)


def test_lockstep_step_counts_add_up_to_trial_evaluations(toy, rng, monkeypatch):
    frames = [_noisy_fit_problem(toy, rng) for _ in range(4)]
    columns = _counting_residuals(monkeypatch)
    results = fitting.fit_frames(toy, frames, FitConfig(iterations=15))
    # the first call poses every frame's initial vector; a retry round poses
    # only the frames whose step is still pending, one trial step each
    assert columns[0] == 4 and all(1 <= c <= 4 for c in columns)
    assert min(columns) < 4
    assert sum(r.accepted_steps + r.rejected_steps for r in results) == sum(columns) - 4
    assert all(r.accepted_steps >= 1 and r.status == "ok" for r in results)


def test_fit_reports_a_stall(toy, rng, monkeypatch):
    init, kp = _noisy_fit_problem(toy, rng)
    exact = _ParamVector.jacobian
    # A Jacobian of the wrong sign makes every damped step climb the cost.
    monkeypatch.setattr(_ParamVector, "jacobian", lambda objective, x: -exact(objective, x))
    # With the cap at the floor, every trial is at the cap: one per iteration.
    monkeypatch.setattr(fitting, "MAX_DAMPING", fitting.MIN_DAMPING)
    config = FitConfig(iterations=4)
    result = fit(toy, init, kp, config)
    assert result.status == "stalled"
    assert result.accepted_steps == 0
    assert result.rejected_steps == config.iterations
    assert result.cost_trace.shape == (4,)
    assert np.all(result.cost_trace == result.cost_trace[0])
    packer = _ParamVector(toy, init, init.cam_w, config)
    initial = _residuals(toy, packer, init, kp, config, packer.pack(init, init.cam_w))
    assert result.cost_trace[0] == initial @ initial
    np.testing.assert_array_equal(result.params.pose_w, init.pose_w)


def test_lockstep_group_in_which_every_frame_stalls(toy, rng, monkeypatch):
    # Every trial round rejects every frame, the first round included, in
    # which all the frames of the group are pending.
    frames = [_noisy_fit_problem(toy, rng) for _ in range(3)]
    exact = _ParamVector.jacobian
    held = []

    def negated(objective, x):
        # The held pose is that of x: every rejected trial's pose was put back.
        fresh = copy.copy(objective)
        fresh.residuals(x)
        held.append(all(a.tobytes() == b.tobytes() for a, b in zip(objective.fk, fresh.fk)))
        return -exact(objective, x)

    monkeypatch.setattr(_ParamVector, "jacobian", negated)
    monkeypatch.setattr(fitting, "MAX_DAMPING", fitting.MIN_DAMPING)
    config = FitConfig(iterations=4)
    results = fitting.fit_frames(toy, frames, config)
    assert held == [True] * config.iterations
    for (init, kp), result in zip(frames, results):
        packer = _ParamVector(toy, init, init.cam_w, config)
        initial = _residuals(toy, packer, init, kp, config, packer.pack(init, init.cam_w))
        assert result.status == "stalled"
        assert (result.accepted_steps, result.rejected_steps) == (0, config.iterations)
        assert np.all(result.cost_trace == initial @ initial)
        assert result.params.vector().tobytes() == init.vector().tobytes()


def test_first_step_solves_the_normal_equations_of_every_row(toy, rng):
    config = FitConfig(iterations=1)
    init, kp = _noisy_fit_problem(toy, rng)
    objective = _ParamVector(toy, init, init.cam_w, config).bind(kp)
    x = objective.pack(init, init.cam_w)
    r = objective.residuals(x)
    J = np.zeros((r.size, x.size))
    J[:2 * toy.num_joints] = objective.jacobian(x)
    J[objective.prior_rows, objective.prior_cols] = objective.prior_weight
    JtJ = J.T @ J
    step = np.linalg.solve(JtJ + 1e-6 * JtJ.diagonal().max() * np.eye(x.size), J.T @ r)
    result = fit(toy, init, kp, config)
    assert (result.accepted_steps, result.rejected_steps) == (1, 0)
    np.testing.assert_allclose(objective.pack(result.params, result.params.cam_w), x - step,
                               rtol=1e-9, atol=1e-12)


def test_fit_rejects_all_zero_confidence(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam, conf=np.zeros(toy.num_joints))
    with pytest.raises(FitError):
        fit(toy, params, kp)


def test_smooth_kernel_shape():
    np.testing.assert_array_equal(SMOOTH_KERNEL, [0.1, 0.2, 0.5, 0.2, 0.1])


def test_smooth_constant_sequence_exact_fixed_point():
    seq = np.full((9, 4), 2.7182818)
    np.testing.assert_array_equal(temporal_smooth(seq), seq)


def test_smooth_constant_1d_and_boundaries():
    seq = np.full(3, -13.25)
    np.testing.assert_array_equal(temporal_smooth(seq), seq)


@pytest.mark.parametrize("shape", [(3, 3, 3), (6, 5, 3)])
def test_smooth_stack_equals_smoothing_its_flattening(rng, shape):
    seq = rng.normal(size=shape)
    flat = temporal_smooth(seq.reshape(shape[0], -1))
    np.testing.assert_array_equal(temporal_smooth(seq), flat.reshape(shape))


def test_smooth_is_linear(rng):
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=(12, 3))
    np.testing.assert_allclose(
        temporal_smooth(a + 2.0 * b),
        temporal_smooth(a) + 2.0 * temporal_smooth(b), atol=1e-12)


def test_smooth_time_reversal_equivariant(rng):
    seq = rng.normal(size=(15, 2))
    np.testing.assert_allclose(
        temporal_smooth(seq[::-1])[::-1], temporal_smooth(seq), atol=1e-12)


def test_smooth_interior_window_renormalized():
    # an interior impulse spreads to weights / 1.1 because windows are
    # renormalized to unit mass
    seq = np.zeros(9)
    seq[4] = 1.0
    out = temporal_smooth(seq)
    np.testing.assert_allclose(out[2:7], SMOOTH_KERNEL[::-1] / SMOOTH_KERNEL.sum(), atol=1e-15)


def test_smooth_empty_rejected():
    with pytest.raises(DimensionError):
        temporal_smooth(np.zeros((0, 3)))


def _clip(toy, rng):
    """Six frames that need different numbers of retries: the first starts at
    its clean ground truth, the second has noisy keypoints with three joints
    at zero confidence, and the rest start further from the truth each."""
    frames = []
    for t in range(6):
        cam = WeakPerspectiveCamera(280.0 + 10.0 * t, np.array([128.0, 120.0 + t]))
        gt_pose = np.zeros((toy.num_joints, 3))
        gt_pose[toy.body_joints[1:]] = rng.normal(scale=0.2, size=(21, 3))
        gt_pose[0] = rng.normal(scale=0.1, size=3)
        gt = WholeBodyParams(gt_pose, rng.normal(scale=0.5, size=10), cam)
        conf = np.ones(toy.num_joints)
        if t == 1:
            conf[[3, 17, 40]] = 0.0
        kp = render_keypoints(toy, gt, cam, conf=conf)
        if t > 0:
            kp = KeypointSet2D(kp.points + rng.normal(scale=1.0, size=kp.points.shape), conf)
        pose = gt_pose.copy()
        if t > 0:
            pose[toy.body_joints[1:]] += rng.normal(scale=0.05 * t, size=(21, 3))
        frames.append((WholeBodyParams(pose, gt.beta_w, cam), kp))
    return frames


# A cap of 100 makes some frames of `_clip` stall and leaves others "ok".
@pytest.mark.parametrize("cap", [fitting.MAX_DAMPING, 100.0], ids=["config0", "config1"])
def test_lockstep_fit_equals_frame_by_frame(toy, rng, monkeypatch, cap):
    monkeypatch.setattr(fitting, "MAX_DAMPING", cap)
    config = FitConfig(iterations=8)
    frames = _clip(toy, rng)
    alone = [fit(toy, init, kp, config) for init, kp in frames]
    # The default group holds the whole clip; groups of 2 split it in three.
    for group in (fitting.FIT_GROUP, 2):
        monkeypatch.setattr(fitting, "FIT_GROUP", group)
        together = fitting.fit_frames(toy, frames, config)
        assert len(together) == len(frames)
        for a, b in zip(together, alone):
            assert a.params.vector().tobytes() == b.params.vector().tobytes()
            assert a.cost_trace.tobytes() == b.cost_trace.tobytes()
            assert a.final_rms_px == b.final_rms_px
            assert (a.status, a.accepted_steps, a.rejected_steps) == (
                b.status, b.accepted_steps, b.rejected_steps)
    assert len({r.rejected_steps for r in alone}) > 2
    if cap == 100.0:
        assert {r.status for r in alone} == {"ok", "stalled"}
    # Frame 0 starts at its optimum, where Jᵀr = 0 and every step predicts a
    # decrease of 0; its damping must stay finite.
    assert (alone[0].status, alone[0].rejected_steps) == ("ok", 0)


def test_a_stalled_frame_ends_each_iteration_at_the_damping_cap(toy, rng, monkeypatch):
    # With a Jacobian of the wrong sign every step climbs.  Each rejected
    # trial raises the damping 10x until a trial at the cap is rejected, which
    # ends the iteration; each later iteration starts at the cap and ends
    # after one trial.  (Frame 0 of the clip starts at its optimum.)
    frames = _clip(toy, rng)[1:4]
    exact = _ParamVector.jacobian
    monkeypatch.setattr(_ParamVector, "jacobian", lambda objective, x: -exact(objective, x))
    config = FitConfig(iterations=20)
    results = fitting.fit_frames(toy, frames, config)
    for (init, kp), result in zip(frames, results):
        objective = _ParamVector(toy, init, init.cam_w, config).bind(kp)
        x = objective.pack(init, init.cam_w)
        r = objective.residuals(x)
        JtJ, _ = objective.normal_equations(exact(objective, x)[None], r[None])
        lam = min(max(1e-6 * JtJ[0].diagonal().max(), fitting.MIN_DAMPING), fitting.MAX_DAMPING)
        trials = 1
        while lam < fitting.MAX_DAMPING:
            lam, trials = min(lam * 10.0, fitting.MAX_DAMPING), trials + 1
        assert trials > 1
        assert result.status == "stalled"
        assert (result.accepted_steps, result.rejected_steps) == (
            0, trials + config.iterations - 1)
        assert result.params.vector().tobytes() == init.vector().tobytes()
        assert np.all(result.cost_trace == r @ r)


def test_a_jacobian_that_is_not_finite_stalls_every_iteration_at_once(toy, rng, monkeypatch):
    # A NaN Jacobian makes a NaN damping, which counts as at the cap.
    init, kp = _noisy_fit_problem(toy, rng)
    exact = _ParamVector.jacobian
    monkeypatch.setattr(_ParamVector, "jacobian",
                        lambda objective, x: np.full_like(exact(objective, x), np.nan))
    result = fit(toy, init, kp, FitConfig(iterations=3))
    assert (result.status, result.accepted_steps, result.rejected_steps) == ("stalled", 0, 3)
    assert result.params.vector().tobytes() == init.vector().tobytes()


def test_fit_keeps_the_camera_scale_positive(toy):
    # Random keypoints far from the identity pose; without the scale check
    # an accepted step drives each of these fits' camera scale below 0.
    init = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    frames = [(dataclasses.replace(init, cam_w=cam),
               KeypointSet2D(np.random.default_rng(s).normal(scale=20, size=(52, 2)), np.ones(52)))
              for s in range(1, 5)]
    for result in fitting.fit_frames(toy, frames):
        assert result.params.cam_w.scale > 0
        assert np.all(np.diff(result.cost_trace) <= 0)


def test_noisy_clip_frames_all_fit_within_2px(toy):
    worst = max(r.final_rms_px
                for seed in range(1000, 1004)
                for r in fitting.fit_frames(toy, _clip(toy, np.random.default_rng(seed)))[1:])
    assert worst <= 2.0


def test_jacobian_from_kept_fk_equals_posing_afresh(toy, rng):
    config = FitConfig()
    frames = _clip(toy, rng)[:3]
    # the objective of the three frames, as the lockstep loop builds it
    kp = KeypointSet2D(np.stack([k.points for _, k in frames]),
                       np.stack([k.confidence for _, k in frames]))
    objective = _ParamVector(toy, frames[0][0], frames[0][0].cam_w, config).bind(
        kp, np.stack([init.vector() for init, _ in frames]))
    x = objective.x0.T + rng.normal(scale=0.05, size=(objective.free.size, 3))
    kept = exact_jacobian(objective, x)
    # x posed afresh through the fold, as a skeleton of the fitted joints
    fold, rest = objective.posed
    F = objective.fitted_joints.size
    tree = SkeletonTree(objective.parents, [toy.tree.joint_names[j] for j in objective.fitted_joints])
    R, t = forward_kinematics(tree, rest, x[:3 * F].T.reshape(3, F, 3))
    objective.fk = R, t, fold.terms(fold.vertices, R, t)
    np.testing.assert_array_equal(kept, objective.jacobian(x))


def test_stacked_bind_equals_each_frame_bound_alone(toy, rng):
    config = FitConfig()
    frames = _clip(toy, rng)
    kp = KeypointSet2D(np.stack([k.points for _, k in frames]),
                       np.stack([k.confidence for _, k in frames]))
    stacked = _ParamVector(toy, frames[0][0], frames[0][0].cam_w, config).bind(
        kp, np.stack([init.vector() for init, _ in frames]))
    x = stacked.x0 + rng.normal(scale=0.05, size=stacked.x0.shape)
    r = stacked.residuals(x.T)
    for t, (init, kp_t) in enumerate(frames):
        alone = _ParamVector(toy, init, init.cam_w, config).bind(kp_t)
        assert alone.x0.tobytes() == stacked.x0[t].tobytes()
        assert alone.residuals(x[t]).tobytes() == r[:, t].tobytes()


def test_fit_runs_fk_once_per_residual_evaluation(toy, rng, monkeypatch):
    counts = dict.fromkeys(["residuals", "fit_jacobian", "jacobian", "fk_chain"], 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    frames = _clip(toy, rng)
    monkeypatch.setattr(_ParamVector, "residuals", counting("residuals", _ParamVector.residuals))
    monkeypatch.setattr(fitting, "fit_jacobian", counting("fit_jacobian", fitting.fit_jacobian))
    monkeypatch.setattr(_ParamVector, "jacobian", counting("jacobian", _ParamVector.jacobian))
    monkeypatch.setattr(_kernels, "fk_chain", counting("fk_chain", _kernels.fk_chain))
    monkeypatch.setattr(fitting, "FIT_GROUP", 4)
    config = FitConfig(iterations=8)
    fitting.fit_frames(toy, frames, config)
    # two groups, each iterated on its own
    assert counts["fit_jacobian"] == counts["jacobian"] == 2 * config.iterations
    # one FK per residual evaluation, plus the fold of each group
    assert counts["fk_chain"] == counts["residuals"] + 2
    assert counts["residuals"] > 2 * config.iterations


def test_fit_poses_the_full_model_once_per_group(toy, rng, monkeypatch):
    frames = _clip(toy, rng)[:5]
    folds, poses = [], []

    def counting(calls):
        def wrapper(tree, *args):
            calls.append(tree.num_joints)
            return forward_kinematics(tree, *args)
        return wrapper

    monkeypatch.setattr(fitting, "forward_kinematics", counting(folds))
    monkeypatch.setattr("mocapkit.model.forward_kinematics", counting(poses))
    monkeypatch.setattr(fitting, "FIT_GROUP", 2)
    results = fitting.fit_frames(toy, frames, FitConfig(iterations=4))
    assert len(results) == 5
    assert folds == [toy.num_joints] * 3 and poses == []


def test_fit_checks_the_keypoints_once_per_fit(toy, rng, monkeypatch):
    frames = _clip(toy, rng)
    calls = []
    check = fitting.check_keypoints

    def counting(points, confidence):
        calls.append(points.shape)
        return check(points, confidence)

    monkeypatch.setattr(fitting, "check_keypoints", counting)
    results = fitting.fit_frames(toy, frames, FitConfig(iterations=8))
    assert sum(r.rejected_steps for r in results) > 0
    # the stacked keypoints of the whole clip, and nothing in a trial round
    assert calls == [(len(frames), toy.num_joints, 2)]


def test_fit_frames_names_the_frame_it_rejects(toy, rng):
    frames = _clip(toy, rng)[:3]
    init, kp = frames[2]
    frames[2] = (init, KeypointSet2D(kp.points, np.zeros(toy.num_joints)))
    with pytest.raises(FitError, match="confidences are zero") as e:
        fitting.fit_frames(toy, frames)
    assert e.value.frame == 2
    assert fitting.fit_frames(toy, []) == []


@pytest.mark.parametrize("cap", [fitting.MAX_DAMPING, 100.0], ids=["config0", "config1"])
def test_final_rms_is_the_weighted_reprojection_rms_of_the_result(toy, rng, monkeypatch, cap):
    monkeypatch.setattr(fitting, "MAX_DAMPING", cap)
    frames = _clip(toy, rng)
    results = fitting.fit_frames(toy, frames, FitConfig(iterations=8))
    if cap == 100.0:
        assert "stalled" in {r.status for r in results}
    for (_, kp), result in zip(frames, results):
        params = result.params
        joints = pose_joints(toy, params.pose_w, params.beta_w)[: toy.num_joints]
        diff = project(params.cam_w, joints) - kp.points
        expected = np.sqrt((kp.confidence[:, None] * diff * diff).sum() / kp.confidence.sum())
        assert result.final_rms_px == pytest.approx(expected, rel=1e-12)


def full_residuals(model, params, init, kp, config):
    """The residuals of `_residuals` at `params` of the fit started at `init`,
    built from `pose_joints`."""
    joints = pose_joints(model, params.pose_w, params.beta_w)[: model.num_joints]
    r2d = np.sqrt(kp.confidence)[:, None] * (project(params.cam_w, joints) - kp.points)
    rp = np.sqrt(fitting.POSE_PRIOR_WEIGHT) * (params.pose_w[1:] - init.pose_w[1:])
    rs = np.sqrt(fitting.SHAPE_PRIOR_WEIGHT) * params.beta_w
    return np.concatenate([r2d.ravel(), rp.ravel(), rs])


def test_fold_residuals_equal_the_full_model(toy, rng, monkeypatch):
    # Every frame has its own nonzero fingers and shape, and its own init for
    # the prior to pull toward; the model has extra regressor rows and a
    # signed skeleton row.
    extra = np.zeros((4, toy.num_vertices))
    extra[np.arange(4), rng.choice(toy.num_vertices, size=4, replace=False)] = 1.0
    signed = signed_regressor(toy, 40)
    model = dataclasses.replace(signed, joint_regressor=np.vstack([signed.joint_regressor, extra]))
    config = FitConfig()
    frames = []
    for t in range(5):
        cam = WeakPerspectiveCamera(200.0 + 10.0 * t, np.array([64.0, 60.0 + t]))
        init = WholeBodyParams(rng.normal(scale=0.3, size=(52, 3)),
                               rng.normal(scale=0.5, size=10), cam)
        kp = KeypointSet2D(rng.normal(scale=30.0, size=(model.num_joints, 2)) + 64.0,
                           rng.uniform(0.2, 1.0, size=model.num_joints))
        frames.append((init, kp))
    inits, kps = zip(*frames)
    kp = KeypointSet2D(np.stack([k.points for k in kps]), np.stack([k.confidence for k in kps]))
    objective = _ParamVector(model, inits[0], inits[0].cam_w, config).bind(
        kp, np.stack([init.vector() for init in inits]))
    x = objective.x0 + rng.normal(scale=0.05, size=(5, objective.free.size))
    r = objective.residuals(x.T)
    # the Jacobian fed the kept state
    jac = objective.jacobian(x.T)
    rows = objective.rows(x)
    for t in range(5):
        params = WholeBodyParams.from_vector(rows[t], objective.num_betas)
        expected = full_residuals(model, params, inits[t], kps[t], config)
        assert np.linalg.norm(r[:, t] - expected) <= 1e-12 * np.linalg.norm(expected)
    # a row subset of the objective carries its frames' rows of the fold and the keypoints
    sub = objective.take([1, 3])
    np.testing.assert_array_equal(sub.residuals(x[[1, 3]].T), r[:, [1, 3]])
    # the Jacobian matches central differences, frame by frame
    m2 = 2 * model.num_joints
    for t in range(5):
        one = objective.take([t])
        fd = fit_jacobian(lambda c: one.residuals(c), x[t], config.fd_step)[:m2]
        col_rel = np.linalg.norm(jac[t] - fd, axis=0) / np.linalg.norm(fd, axis=0)
        assert col_rel.max() < 1e-6
    # Fitted in groups of 2, every frame's final cost and RMS are those of
    # the full model at its result.
    monkeypatch.setattr(fitting, "FIT_GROUP", 2)
    for (init, kp_t), result in zip(frames, fitting.fit_frames(model, frames,
                                                               FitConfig(iterations=3))):
        expected = full_residuals(model, result.params, init, kp_t, config)
        assert result.cost_trace[-1] == pytest.approx(expected @ expected, rel=1e-12)
        r2d = expected[:m2]
        assert result.final_rms_px == pytest.approx(
            np.sqrt(r2d @ r2d / kp_t.confidence.sum()), rel=1e-12)


def test_fit_rejects_a_layout_that_fits_a_joint_below_a_fixed_one(toy):
    # A finger list that names a knee keeps it fixed while the body joints
    # below it are fitted, which the fold cannot represent.
    ids = dict(toy.hand_joint_ids)
    ids["left"] = ids["left"][:-1] + [4]
    model = dataclasses.replace(toy, hand_joint_ids=ids)
    init = WholeBodyParams.identity(model)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    with pytest.raises(InvalidJointError, match="fitted joint 7 has a parent"):
        _ParamVector(model, init, cam, FitConfig())
