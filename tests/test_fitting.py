import numpy as np
import pytest

from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit import fitting
from mocapkit.errors import DimensionError, FitError
from mocapkit.fitting import (SMOOTH_KERNEL, FitConfig, KeypointSet2D, _fit_residuals,
                              _jacobian, _ParamVector, _residuals, fit, fit_jacobian,
                              temporal_smooth)
from mocapkit.integration import PoseLayout, WholeBodyParams
from mocapkit.model import ShapeParams, pose_joints


def render_keypoints(model, params, cam, conf=None):
    joints = pose_joints(model, params.pose(), params.beta_w)[: model.num_joints]
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
    with pytest.raises(DimensionError):
        FitConfig(weight_prior_pose=-1.0)
    with pytest.raises(DimensionError):
        FitConfig(weight_prior_shape=-1.0)


def split_residuals(model, params, cam, kp, anchor, config):
    """`_residuals` at `params` and `cam`, split into its 2D rows and its prior rows."""
    packer = _ParamVector(model, params, cam, config)
    r = _residuals(model, packer, anchor, kp, config, packer.pack(params, cam))
    return r[: 2 * model.num_joints], r[2 * model.num_joints:]


def test_reprojection_cost_zero_at_ground_truth(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    r2d, _ = split_residuals(toy, params, cam, kp, params, FitConfig())
    assert r2d @ r2d == 0.0


def test_reprojection_cost_confidence_weighting(toy, rng):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    shifted = KeypointSet2D(kp.points + rng.normal(size=kp.points.shape), kp.confidence)
    half = KeypointSet2D(shifted.points, 0.5 * shifted.confidence)
    full_2d, _ = split_residuals(toy, params, cam, shifted, params, FitConfig())
    half_2d, _ = split_residuals(toy, params, cam, half, params, FitConfig())
    assert half_2d @ half_2d == pytest.approx(0.5 * (full_2d @ full_2d), rel=1e-12)


def test_zero_confidence_points_ignored(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam)
    conf = kp.confidence.copy()
    conf[7] = 0.0
    corrupted = kp.points.copy()
    corrupted[7] += 1e6
    r2d, _ = split_residuals(toy, params, cam, KeypointSet2D(corrupted, conf), params, FitConfig())
    assert r2d @ r2d == 0.0


def test_prior_cost_formula(toy, rng):
    # Fingers and shape free, so every theta row and every beta is packed.
    config = FitConfig(free_fingers=True, free_shape=True)
    anchor = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    theta = rng.normal(size=anchor.theta_w.shape)
    beta = rng.normal(size=10)
    params = WholeBodyParams(np.zeros(3), theta, ShapeParams(beta), cam)
    kp = render_keypoints(toy, params, cam)
    _, prior = split_residuals(toy, params, cam, kp, anchor, config)
    expected = config.weight_prior_pose * (theta ** 2).sum() + config.weight_prior_shape * (beta ** 2).sum()
    assert prior @ prior == pytest.approx(expected, rel=1e-12)


def test_fit_jacobian_exact_on_quadratics():
    def residuals(x):
        return np.array([x[0] ** 2, x[0] * x[1], 3.0 * x[1]])

    x = np.array([1.3, -0.7])
    J = fit_jacobian(residuals, x, 1e-6)
    expected = np.array([[2 * x[0], 0.0], [x[1], x[0]], [0.0, 3.0]])
    # central differences are exact on quadratics up to rounding
    np.testing.assert_allclose(J, expected, atol=1e-8)


@pytest.mark.parametrize("config", [
    FitConfig(),
    FitConfig(free_fingers=True, free_shape=True),
    FitConfig(free_global_orient=False, free_camera=False),
    FitConfig(free_body_pose=False, free_wrists=True),
])
def test_exact_jacobian_matches_central_differences(toy, rng, config):
    layout = PoseLayout.from_model(toy)
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    theta = rng.normal(scale=0.4, size=(51, 3))
    theta[layout.body_rows[3]] = 0.0                        # exact-zero angle
    theta[layout.body_rows[5]] = [0.0, 0.0, np.pi - 1e-7]   # angle near pi
    theta[layout.left_finger_rows[2]] = 0.0
    anchor = WholeBodyParams(rng.normal(scale=0.3, size=3), theta,
                             ShapeParams(rng.normal(scale=0.5, size=10)), cam)
    conf = rng.uniform(0.2, 1.0, size=toy.num_joints)
    conf[[0, 7, 30]] = 0.0
    kp = render_keypoints(toy, anchor, cam, conf=conf)
    kp = KeypointSet2D(kp.points + rng.normal(size=kp.points.shape), kp.confidence)
    packer = _ParamVector(toy, anchor, cam, config)
    residuals = _fit_residuals(toy, packer, anchor, kp, config)
    x0 = packer.pack(anchor, cam)
    for x in (x0, x0 + rng.normal(scale=0.05, size=x0.size)):
        exact = fit_jacobian(residuals, x, config.fd_step)
        fd = fit_jacobian(lambda cols: residuals(cols), x, config.fd_step)
        assert exact.shape == fd.shape == (residuals(x).size, x.size)
        rel = np.linalg.norm(exact - fd) / np.linalg.norm(fd)
        assert rel < 1e-6
        # every column is checked on its own, so a wrong small block shows
        col_rel = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
        assert col_rel.max() < 1e-6


@pytest.mark.parametrize("config", [FitConfig(), FitConfig(free_fingers=True, free_shape=True)])
def test_batched_residuals_match_each_column(toy, rng, config):
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 64.0]))
    anchor = WholeBodyParams(rng.normal(scale=0.2, size=3), rng.normal(scale=0.2, size=(51, 3)),
                             ShapeParams(rng.normal(scale=0.3, size=10)), cam)
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


@pytest.mark.parametrize("config", [
    FitConfig(),
    FitConfig(free_body_pose=False, free_wrists=True),
    FitConfig(free_wrists=False),
    FitConfig(free_body_pose=False, free_wrists=False, free_fingers=True, free_shape=True),
    FitConfig(free_global_orient=False, free_camera=False),
])
def test_param_vector_pack_unpack_round_trip(toy, rng, config):
    layout = PoseLayout.from_model(toy)
    init = WholeBodyParams(rng.normal(size=3), rng.normal(size=(51, 3)),
                           ShapeParams(rng.normal(size=10)), WeakPerspectiveCamera.identity())
    cam = WeakPerspectiveCamera(200.0, np.array([64.0, 32.0]))
    packer = _ParamVector(toy, init, cam, config)
    x = packer.pack(init, cam)
    params = WholeBodyParams.from_vector(packer.rows(x[None])[0], packer.num_betas)
    cam_out = params.cam_w
    assert params.vector().tobytes() == init.vector(cam).tobytes()
    assert cam_out.scale == cam.scale
    assert cam_out.translation.tobytes() == cam.translation.tobytes()

    wrists = [layout.left_wrist_row, layout.right_wrist_row]
    rows = set()
    if config.free_body_pose:
        rows |= set(layout.body_rows.tolist()) - set(wrists)
    if config.free_wrists:
        rows |= set(wrists)
    if config.free_fingers:
        rows |= set(layout.left_finger_rows.tolist() + layout.right_finger_rows.tolist())
    free = [np.arange(3)] if config.free_global_orient else []
    free += [3 + 3 * r + np.arange(3) for r in sorted(rows)]
    if config.free_shape:
        free.append(3 + 153 + np.arange(10))
    if config.free_camera:
        free.append(3 + 153 + 10 + np.arange(3))
    free = np.concatenate(free)
    np.testing.assert_array_equal(x, init.vector(cam)[free])
    moved = WholeBodyParams.from_vector(packer.rows(x[None] + 1.0)[0], packer.num_betas)
    np.testing.assert_array_equal(np.flatnonzero(moved.vector() != init.vector(cam)), free)


def test_fit_recovers_perturbed_pose(toy, rng):
    layout = PoseLayout.from_model(toy)
    gt_theta = np.zeros((toy.num_joints - 1, 3))
    gt_theta[layout.body_rows[:8]] = rng.normal(scale=0.2, size=(8, 3))
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt = WholeBodyParams(rng.normal(scale=0.1, size=3), gt_theta, ShapeParams.zeros(10), cam)
    kp = render_keypoints(toy, gt, cam)

    init_theta = gt_theta.copy()
    init_theta[layout.body_rows[:8]] += rng.normal(scale=0.1, size=(8, 3))
    init = WholeBodyParams(gt.phi_w + rng.normal(scale=0.05, size=3), init_theta,
                           ShapeParams.zeros(10), cam)
    result = fit(toy, init, cam, kp, FitConfig(iterations=10))
    assert result.cost_trace.shape == (10,)
    assert np.all(np.diff(result.cost_trace) <= 1e-12)
    assert result.final_rms_px < 0.5
    assert result.status == "ok"


def _noisy_fit_problem(toy, rng):
    layout = PoseLayout.from_model(toy)
    cam = WeakPerspectiveCamera(300.0, np.array([128.0, 128.0]))
    gt_theta = np.zeros((toy.num_joints - 1, 3))
    gt_theta[layout.body_rows[:8]] = rng.normal(scale=0.2, size=(8, 3))
    gt = WholeBodyParams(np.zeros(3), gt_theta, ShapeParams.zeros(10), cam)
    kp = render_keypoints(toy, gt, cam)
    kp = KeypointSet2D(kp.points + rng.normal(scale=1.0, size=kp.points.shape), kp.confidence)
    init_theta = gt_theta.copy()
    init_theta[layout.body_rows[:8]] += rng.normal(scale=0.3, size=(8, 3))
    return WholeBodyParams(np.zeros(3), init_theta, ShapeParams.zeros(10), cam), cam, kp


def _counting_residuals(monkeypatch):
    """Patch `fitting._residuals` to record how many parameter vectors each call poses."""
    columns = []
    original = fitting._residuals

    def counting(*args):
        r = original(*args)
        columns.append(1 if r.ndim == 1 else r.shape[1])
        return r

    monkeypatch.setattr(fitting, "_residuals", counting)
    return columns


def test_fit_step_counts_add_up_to_trial_evaluations(toy, rng, monkeypatch):
    init, cam, kp = _noisy_fit_problem(toy, rng)
    calls = _counting_residuals(monkeypatch)
    result = fit(toy, init, cam, kp, FitConfig(iterations=15))
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
    init, cam, kp = _noisy_fit_problem(toy, rng)
    exact = fitting.fit_jacobian
    # A Jacobian of the wrong sign makes every damped step climb the cost.
    monkeypatch.setattr(fitting, "fit_jacobian", lambda fn, x, step: -exact(fn, x, step))
    config = FitConfig(iterations=4, max_retries=3)
    result = fit(toy, init, cam, kp, config)
    assert result.status == "stalled"
    assert result.accepted_steps == 0
    assert result.rejected_steps == config.iterations * config.max_retries
    assert result.cost_trace.shape == (4,)
    assert np.all(result.cost_trace == result.cost_trace[0])
    packer = _ParamVector(toy, init, cam, config)
    initial = _residuals(toy, packer, init, kp, config, packer.pack(init, cam))
    assert result.cost_trace[0] == initial @ initial
    np.testing.assert_array_equal(result.params.theta_w, init.theta_w)


def test_fit_rejects_all_zero_confidence(toy):
    params = WholeBodyParams.identity(toy)
    cam = WeakPerspectiveCamera(100.0, np.zeros(2))
    kp = render_keypoints(toy, params, cam, conf=np.zeros(toy.num_joints))
    with pytest.raises(FitError):
        fit(toy, params, cam, kp)


def test_smooth_kernel_shape():
    np.testing.assert_array_equal(SMOOTH_KERNEL, [0.1, 0.2, 0.5, 0.2, 0.1])


def test_smooth_constant_sequence_exact_fixed_point():
    seq = np.full((9, 4), 2.7182818)
    np.testing.assert_array_equal(temporal_smooth(seq), seq)


def test_smooth_constant_1d_and_boundaries():
    seq = np.full(3, -13.25)
    np.testing.assert_array_equal(temporal_smooth(seq), seq)


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
    layout = PoseLayout.from_model(toy)
    frames = []
    for t in range(6):
        cam = WeakPerspectiveCamera(280.0 + 10.0 * t, np.array([128.0, 120.0 + t]))
        gt_theta = np.zeros((toy.num_joints - 1, 3))
        gt_theta[layout.body_rows] = rng.normal(scale=0.2, size=(21, 3))
        gt = WholeBodyParams(rng.normal(scale=0.1, size=3), gt_theta,
                             ShapeParams(rng.normal(scale=0.5, size=10)), cam)
        conf = np.ones(toy.num_joints)
        if t == 1:
            conf[[3, 17, 40]] = 0.0
        kp = render_keypoints(toy, gt, cam, conf=conf)
        if t > 0:
            kp = KeypointSet2D(kp.points + rng.normal(scale=1.0, size=kp.points.shape), conf)
        theta = gt_theta.copy()
        if t > 0:
            theta[layout.body_rows] += rng.normal(scale=0.05 * t, size=(21, 3))
        frames.append((WholeBodyParams(gt.phi_w, theta, gt.beta_w, cam), cam, kp))
    return frames


@pytest.mark.parametrize("config", [FitConfig(iterations=8), FitConfig(iterations=8, max_retries=1)])
def test_lockstep_fit_equals_frame_by_frame(toy, rng, config):
    frames = _clip(toy, rng)
    together = fitting.fit_frames(toy, frames, config)
    alone = [fit(toy, init, cam, kp, config) for init, cam, kp in frames]
    assert len(together) == len(frames)
    for a, b in zip(together, alone):
        assert a.params.vector().tobytes() == b.params.vector().tobytes()
        assert a.cost_trace.tobytes() == b.cost_trace.tobytes()
        assert a.final_rms_px == b.final_rms_px
        assert (a.status, a.accepted_steps, a.rejected_steps) == (b.status, b.accepted_steps,
                                                                  b.rejected_steps)
    assert len({r.rejected_steps for r in alone}) > 2
    if config.max_retries == 1:
        assert {r.status for r in alone} == {"ok", "stalled"}
    # Frame 0 starts at its optimum, where Jᵀr = 0 and every step predicts a
    # decrease of 0; its damping must stay finite.
    assert (alone[0].status, alone[0].rejected_steps) == ("ok", 0)


def test_noisy_clip_frames_all_fit_within_2px(toy):
    worst = max(r.final_rms_px
                for seed in range(1000, 1004)
                for r in fitting.fit_frames(toy, _clip(toy, np.random.default_rng(seed)))[1:])
    assert worst <= 2.0


@pytest.mark.parametrize("config", [FitConfig(), FitConfig(free_fingers=True, free_shape=True)])
def test_jacobian_from_kept_fk_equals_posing_afresh(toy, rng, config):
    frames = _clip(toy, rng)[:3]
    # the packer and keypoints of the three frames, as the lockstep loop builds them
    packer = _ParamVector(toy, frames[0][0], frames[0][1], config).with_base(
        np.stack([init.vector(cam) for init, cam, _ in frames]))
    kp = KeypointSet2D(np.stack([k.points for _, _, k in frames]),
                       np.stack([k.confidence for _, _, k in frames]))
    x = packer.base[:, packer.free].T + rng.normal(scale=0.05, size=(packer.free.size, 3))
    kept = []
    _residuals(toy, packer, None, kp, config, x, kept)
    np.testing.assert_array_equal(_jacobian(toy, packer, kp, config, x, kept[0]),
                                  _jacobian(toy, packer, kp, config, x))


def test_fit_runs_fk_once_per_residual_evaluation(toy, rng, monkeypatch):
    counts = dict.fromkeys(["residuals", "fit_jacobian", "posing_fk", "jacobian_fk"], 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    frames = _clip(toy, rng)
    fk = fitting.forward_kinematics
    monkeypatch.setattr(fitting, "_residuals", counting("residuals", fitting._residuals))
    monkeypatch.setattr(fitting, "fit_jacobian", counting("fit_jacobian", fitting.fit_jacobian))
    monkeypatch.setattr("mocapkit.model.forward_kinematics", counting("posing_fk", fk))
    monkeypatch.setattr(fitting, "forward_kinematics", counting("jacobian_fk", fk))
    config = FitConfig(iterations=8)
    fitting.fit_frames(toy, frames, config)
    assert counts["fit_jacobian"] == config.iterations
    assert counts["posing_fk"] == counts["residuals"] > config.iterations
    assert counts["jacobian_fk"] == 0


def test_fit_frames_names_the_frame_it_rejects(toy, rng):
    frames = _clip(toy, rng)[:3]
    init, cam, kp = frames[2]
    frames[2] = (init, cam, KeypointSet2D(kp.points, np.zeros(toy.num_joints)))
    with pytest.raises(FitError, match="confidences are zero") as e:
        fitting.fit_frames(toy, frames)
    assert e.value.frame == 2
    assert fitting.fit_frames(toy, []) == []


@pytest.mark.parametrize("config", [FitConfig(iterations=8), FitConfig(iterations=8, max_retries=1)])
def test_final_rms_is_the_weighted_reprojection_rms_of_the_result(toy, rng, config):
    frames = _clip(toy, rng)
    results = fitting.fit_frames(toy, frames, config)
    if config.max_retries == 1:
        assert "stalled" in {r.status for r in results}
    for (_, _, kp), result in zip(frames, results):
        params = result.params
        joints = pose_joints(toy, params.pose(), params.beta_w)[: toy.num_joints]
        diff = project(params.cam_w, joints) - kp.points
        expected = np.sqrt((kp.confidence[:, None] * diff * diff).sum() / kp.confidence.sum())
        assert result.final_rms_px == pytest.approx(expected, rel=1e-12)
