"""Baseline, metric and success-check tests."""

import numpy as np
import pytest

from comotion import data as cd
from comotion import evaluation as ev
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import scenarios
from comotion.environment import Disc, Rect, Scene
from comotion.solver import SolverConfig
from helpers import identity_state


@pytest.fixture(scope="module")
def model():
    cfg = hm.ModelConfig(num_layers=1, hidden_size=16, input_frames=4, output_frames=4,
                         dropout=0.0, recurrent_dropout=0.0)
    return hm.init_params(cfg, seed=0)


@pytest.fixture(scope="module")
def observed():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=24,
                                            reach_frames=6), seed=5)
    return recs[0].frames[:4]


def test_zerovel_repeats_last_frame(observed):
    pred = ev.zerovel_predict(observed, 6)
    assert pred.shape == (6, 129)
    for frame in pred:
        assert np.array_equal(frame, observed[-1])


def test_zerovel_error_equals_distance_walked(observed):
    truth = observed[-1] + np.linspace(0, 1, 5)[:, None] * 0.0
    truth = np.tile(observed[-1], (5, 1))
    truth[:, 0] += np.linspace(0.2, 1.0, 5)  # walks 1 m in x
    pred = ev.zerovel_predict(observed, 5)
    err = np.linalg.norm(pred[-1, :3] - truth[-1, :3])
    assert err == pytest.approx(1.0, abs=1e-12)


def test_predict_initial_is_zero_modifier_unroll(model, observed):
    """The ``initial`` method's forecast."""
    a = hm.predict(model, observed, horizon=5)
    hiddens = hm.encode(model, observed)
    b = hm.unroll_decoder(model, observed[-1], observed[-1] - observed[-2], hiddens,
                          np.zeros((5, hm.MODIFIER_DIM)), 5)
    assert np.array_equal(a, b)


def test_sample_zero_noise_limit_equals_initial(model, observed):
    cfg = ev.SampleConfig(num_samples=3, noise_variance=1e-30)
    samples = ev.sample_predictions(model, observed, 5, cfg, seed=0)
    initial = hm.predict(model, observed, horizon=5)
    for s in samples:
        assert np.allclose(s, initial, atol=1e-9)


def test_sample_ranking_by_goal_distance(model, observed):
    problem = obj.ProblemSpec(
        horizon=4 + 5,
        observed_human=observed,
        constraints=[obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                                        target=(0.5, 0.0, 0.9))],
        optimize_robot=False,
    )
    cfg = ev.SampleConfig(num_samples=8, noise_variance=0.05)
    samples = ev.sample_predictions(model, observed, 5, cfg, seed=1)
    order = ev.rank_predictions(samples, cfg, problem)
    from comotion.kinematics import DEFAULT_HUMAN_SKELETON, forward_kinematics

    dists = [
        float(np.linalg.norm(forward_kinematics(DEFAULT_HUMAN_SKELETON, s[-1], "rWrist")[0]
                             - np.array([0.5, 0.0, 0.9])))
        for s in samples
    ]
    assert order[0] == int(np.argmin(dists))
    assert dists[order[0]] <= dists[order[-1]]


def test_sample_ranking_default_follows_the_constraints(model):
    """Without an explicit ranking, a handover problem ranks by handover loss."""
    from dataclasses import replace

    from comotion.scenarios import make_handover_problems

    problem = make_handover_problems(1, 1)[0].problem
    cfg = ev.SampleConfig(num_samples=6, noise_variance=0.05)
    samples = ev.sample_predictions(model, problem.observed_human, 5, cfg, seed=2)
    order = ev.rank_predictions(samples, cfg, problem)
    spec = next(c for c in problem.constraints if c.kind == "handover")
    losses = [ev.handover_loss(s[-1], problem.robot_initial, spec) for s in samples]
    assert order == list(np.argsort(losses, kind="stable"))
    assert order == ev.rank_predictions(samples, replace(cfg, ranking="handover_loss"), problem)

    bare = obj.ProblemSpec(horizon=problem.horizon, observed_human=problem.observed_human,
                           optimize_robot=False)
    with pytest.raises(ev.EvaluationError, match="no sample ranking applies"):
        ev.rank_predictions(samples, cfg, bare)


def test_sample_prediction_determinism(model, observed):
    cfg = ev.SampleConfig(num_samples=4, noise_variance=0.02)
    a = ev.sample_predictions(model, observed, 5, cfg, seed=7)
    b = ev.sample_predictions(model, observed, 5, cfg, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("success_at", [None, 2])
def test_sample_method_counts_every_robot_solve(model, monkeypatch, success_at):
    """``attempts`` is the number of robot solves run, and ``succeeded`` says
    whether one of the samples passed the success check."""
    problem = scenarios.make_crossing_problems(1, 1)[0].problem
    solves, checks = [], []
    solve = ev._solve_robot_against
    monkeypatch.setattr(ev, "_solve_robot_against",
                        lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    if success_at is not None:  # the real check fails every capped crossing solve
        monkeypatch.setattr(ev, "check_success",
                            lambda *a, **kw: (checks.append(1) or len(checks) == success_at, []))
    res = ev.run_method(problem, "sample", model, sample_config=ev.SampleConfig(num_samples=4),
                        solver_config=SolverConfig(max_rounds=1, max_inner=3))
    expected = 4 if success_at is None else success_at
    assert len(solves) == res.details["attempts"] == expected
    assert res.details["succeeded"] is (success_at is not None)


def test_sequential_frozen_agent_unchanged(model, observed):
    scene = Scene((Disc((0.6, 0.8), 0.25),), Rect((0, 0), (6, 6)))
    problem = obj.ProblemSpec(
        horizon=4 + 5,
        observed_human=observed,
        robot_initial=np.array([1.5, 0.4, np.pi, 0.0, 0.0, 0.0, 0.0]),
        scene=scene,
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(0.6, -0.6, 0.0)),
            obj.ConstraintSpec(kind="collision", agent="robot", aggregation="soft_max"),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.4,
                               aggregation="soft_max"),
        ],
    )
    cfgs = SolverConfig(max_rounds=3, max_inner=12)
    res = ev.run_method(problem, "human_avoids", model, solver_config=cfgs)
    # the robot was optimized first and frozen: re-running the first stage
    # reproduces it bit-exactly
    from comotion.objectives import compile_problem
    from comotion.solver import solve_compiled

    first = solve_compiled(
        compile_problem(ev._single_agent_problem(problem, "robot", None),
                        model=None), cfgs
    )
    assert np.array_equal(res.robot_traj, first.robot_traj)


def _avoid_problem(observed):
    """Both agents with goals, a scene and a joint clearance, on the tiny model."""
    return obj.ProblemSpec(
        horizon=4 + 5,
        observed_human=observed,
        robot_initial=np.array([1.5, 0.4, np.pi, 0.0, 0.0, 0.0, 0.0]),
        scene=Scene((Disc((0.6, 0.8), 0.25),), Rect((0, 0), (6, 6))),
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=(0.5, 0.0, 0.9)),
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(0.6, -0.6, 0.0)),
            obj.ConstraintSpec(kind="collision", agent="robot", aggregation="soft_max"),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.4,
                               aggregation="soft_max"),
        ],
    )


def test_robot_avoids_freezes_the_human(model, observed):
    problem = _avoid_problem(observed)
    cfgs = SolverConfig(max_rounds=3, max_inner=12)
    res = ev.run_method(problem, "robot_avoids", model, solver_config=cfgs)
    from comotion.objectives import compile_problem
    from comotion.solver import solve_compiled

    # the human was optimized first and frozen: re-running the first stage
    # reproduces it bit-exactly, and the robot stage keeps clear of it
    first = solve_compiled(
        compile_problem(ev._single_agent_problem(problem, "human", None), model=model), cfgs
    )
    frozen = ev._single_agent_problem(problem, "robot", first.human_traj)
    assert "joint_clearance" in {c.kind for c in frozen.constraints}
    second = solve_compiled(compile_problem(frozen, model=None), cfgs)
    assert np.array_equal(res.human_traj, first.human_traj)
    assert np.array_equal(res.modifiers, first.modifiers)
    assert np.array_equal(res.robot_traj, second.robot_traj)
    assert res.details["frozen"] == "human"


@pytest.mark.parametrize("method", ev.METHODS)
def test_method_log_is_the_single_solve(model, observed, method):
    res = ev.run_method(_avoid_problem(observed), method, model,
                        solver_config=SolverConfig(max_rounds=2, max_inner=6),
                        sample_config=ev.SampleConfig(num_samples=3))
    if method in ("ours", "human_prio", "robot_prio", "initial", "zerovel"):
        assert len(res.log) == res.details["iterations"] > 0
        assert [r.iteration for r in res.log] == list(range(1, len(res.log) + 1))
    else:  # several solves (sequential, sample): no single log
        assert res.log is None


@pytest.mark.parametrize("method", ["with_coll", "human_avoids", "robot_avoids"])
def test_sequential_baseline_on_a_human_only_problem_is_the_human_solve(method):
    """With no robot, the sequential baselines solve the human alone: the
    reduced problem is the problem itself, so the result is ``ours``'s."""
    problem = scenarios.make_reach_problems(1, 1)[0].problem
    model = hm.init_params(hm.ModelConfig(num_layers=1, hidden_size=8), 0)
    config = SolverConfig(max_rounds=2, max_inner=6)
    res = ev.run_method(problem, method, model, solver_config=config)
    ours = ev.run_method(problem, "ours", model, solver_config=config)
    assert res.robot_traj is None and res.controls is None
    assert np.array_equal(res.human_traj, ours.human_traj)
    assert res.objective == ours.objective and res.solver_status == ours.solver_status


def test_with_coll_ignores_other_agent(model, observed):
    rinit = np.zeros(7)
    rinit[:2] = observed[-1, :2]  # robot parked right on the human
    rinit[2] = np.pi
    problem = obj.ProblemSpec(
        horizon=4 + 4,
        observed_human=observed,
        robot_initial=rinit,
        constraints=[
            obj.ConstraintSpec(kind="joint_clearance", clearance=2.0,
                               aggregation="soft_max"),
        ],
    )
    res = ev.run_method(problem, "with_coll", model,
                        solver_config=SolverConfig(max_rounds=2, max_inner=6))
    # both agents sit nearly still since their individual problems are empty
    assert res.human_traj is not None and res.robot_traj is not None
    c = ev.min_clearance(res.human_traj[:, :2], res.robot_traj[:, :2], 4)
    assert c < 2.0  # the ignored constraint is indeed violated


# -- metrics -------------------------------------------------------------------


def test_metrics_constant_trajectory():
    traj = np.tile(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]), (10, 1))
    rep = ev.compute_metrics(None, traj, dt=0.05)
    assert rep.travel_robot == 0.0
    assert rep.ms_jerk == 0.0
    assert rep.ld_jerk == 0.0
    assert rep.sparc == 0.0


def test_metrics_straight_constant_speed_zero_jerk():
    n = 20
    traj = np.zeros((n, 7))
    traj[:, 0] = 0.1 * np.arange(n)
    rep = ev.compute_metrics(None, traj, dt=0.05, robot_initial=traj[0] - [0.1, 0, 0, 0, 0, 0, 0])
    assert rep.ms_jerk == pytest.approx(0.0, abs=1e-18)
    assert rep.ld_jerk == 0.0
    assert rep.travel_robot == pytest.approx(0.1 * n, abs=1e-12)


def test_metrics_need_four_frames_for_jerk():
    traj = np.zeros((3, 7))
    for jerk in (ev.mean_squared_jerk, ev.log_dimensionless_jerk):
        with pytest.raises(ev.EvaluationError, match="4 frames"):
            jerk(traj[:, :2], 0.05)
    # the batch driver's metrics leave them unset instead
    rep = ev.compute_metrics(None, traj, dt=0.05)
    assert rep.ms_jerk is None and rep.ld_jerk is None and rep.sparc is None
    assert rep.travel_robot == 0.0


def minjerk_profile(n):
    tau = np.linspace(0, 1, n)
    return 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5


def bangbang_profile(n):
    tau = np.linspace(0, 1, n)
    x = np.where(tau < 0.5, 2 * tau ** 2, 1 - 2 * (1 - tau) ** 2)
    return x


def test_smoothness_prefers_minimum_jerk_over_bang_bang():
    n = 41
    for make, other in ((minjerk_profile, bangbang_profile),):
        smooth = np.zeros((n, 2))
        smooth[:, 0] = make(n)
        rough = np.zeros((n, 2))
        rough[:, 0] = other(n)
        ld_s = ev.log_dimensionless_jerk(smooth, 0.05)
        ld_r = ev.log_dimensionless_jerk(rough, 0.05)
        assert ld_s > ld_r  # closer to zero = smoother
        sp_s = ev.spectral_arc_length(np.linalg.norm(np.diff(smooth, axis=0), axis=1) / 0.05,
                                      fs=20.0)
        sp_r = ev.spectral_arc_length(np.linalg.norm(np.diff(rough, axis=0), axis=1) / 0.05,
                                      fs=20.0)
        assert sp_s > sp_r


def test_smoothness_values_nonpositive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        traj = np.zeros((25, 7))
        traj[:, :2] = np.cumsum(0.05 * rng.normal(size=(25, 2)), axis=0)
        rep = ev.compute_metrics(None, traj, dt=0.05)
        assert rep.ms_jerk <= 0.0
        assert rep.ld_jerk <= 0.0
        assert rep.sparc <= 0.0


def test_metrics_translation_invariance(model, observed):
    truth = np.tile(observed[-1], (8, 1))
    truth[:, 0] += np.linspace(0.1, 0.8, 8)
    pred = hm.predict(model, observed, horizon=8)
    rep1 = ev.compute_metrics(pred, None, ground_truth=truth, dt=0.05,
                              sample_seconds=(0.2, 0.4))
    shift = np.array([3.0, -2.0, 0.5])
    pred2 = pred.copy()
    pred2[:, :3] += shift
    truth2 = truth.copy()
    truth2[:, :3] += shift
    rep2 = ev.compute_metrics(pred2, None, ground_truth=truth2, dt=0.05,
                              sample_seconds=(0.2, 0.4))
    for s in (0.2, 0.4):
        assert rep1.base_pos_error[s] == pytest.approx(rep2.base_pos_error[s], abs=1e-12)
        assert rep1.angle_error[s] == pytest.approx(rep2.angle_error[s], abs=1e-12)


def test_base_pos_error_frames(model, observed):
    truth = np.tile(observed[-1], (40, 1))
    pred = truth.copy()
    pred[:, 0] += 0.01 * np.arange(1, 41)  # drift grows per frame
    rep = ev.compute_metrics(pred, None, ground_truth=truth, dt=0.05)
    # frames 8/16/24/32/40 correspond to 0.4..2.0 s
    for s, f in zip((0.4, 0.8, 1.2, 1.6, 2.0), (8, 16, 24, 32, 40)):
        assert rep.base_pos_error[s] == pytest.approx(0.01 * f, abs=1e-12)


# -- success -------------------------------------------------------------------


def success_fixture():
    human = np.tile(identity_state((0.0, 1.0, 0.93)), (6, 1))
    robot = np.zeros((6, 7))
    robot[:, 0] = np.linspace(0.0, 0.5, 6)
    robot[:, 1] = -1.0
    problem = obj.ProblemSpec(
        horizon=6,
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(0.5, -1.0, 0.0)),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
        ],
        optimize_human=False,
        fixed_human=human,
        robot_initial=robot[0],
        scene=Scene((Disc((3.0, 3.0), 0.3),), Rect((0, 0), (5, 5))),
    )
    result = ev.MethodResult("ours", human, robot, None, None, 0.01, "converged")
    return problem, result


def test_check_success_all_clear():
    problem, result = success_fixture()
    ok, reasons = ev.check_success(problem, result, "collision")
    assert ok and reasons == []


def test_check_success_reports_each_failure():
    problem, result = success_fixture()
    # push the robot goal away: only that clause fails
    result.robot_traj = result.robot_traj.copy()
    result.robot_traj[-1, 0] = 2.0
    ok, reasons = ev.check_success(problem, result, "collision")
    assert not ok and reasons == ["robot-base-goal"]

    problem, result = success_fixture()
    result.objective = 0.2
    ok, reasons = ev.check_success(problem, result, "collision")
    assert not ok and reasons == ["objective"]

    problem, result = success_fixture()
    result.human_traj = result.human_traj.copy()
    result.human_traj[:, 1] = -0.8  # within 0.2 m of the robot path
    ok, reasons = ev.check_success(problem, result, "collision")
    assert not ok and "agent-clearance" in reasons


def test_check_success_rejects_an_unknown_kind():
    problem, result = success_fixture()
    with pytest.raises(ev.EvaluationError, match="'colision'"):
        ev.check_success(problem, result, "colision")


def test_check_success_monotone():
    problem, result = success_fixture()
    result.objective = 0.099
    ok1, _ = ev.check_success(problem, result, "collision")
    result.objective = 0.05  # decreasing a violation never flips success off
    ok2, _ = ev.check_success(problem, result, "collision")
    assert ok2 >= ok1


def test_handover_loss_threshold_edge():
    human = np.tile(identity_state((0.0, 0.0, 0.93)), (4, 1))
    from comotion.kinematics import matrix_to_rot6d, yaw_matrix

    for t in range(4):
        human[t, 3:9] = matrix_to_rot6d(yaw_matrix(0.0))
    robot = np.zeros((4, 7))
    robot[:, 0] = 3.0
    robot[:, 2] = np.pi
    problem = obj.ProblemSpec(
        horizon=4,
        constraints=[obj.ConstraintSpec(kind="handover")],
        optimize_human=False,
        fixed_human=human,
        robot_initial=robot[0],
    )
    result = ev.MethodResult("ours", human, robot, None, None, 0.0, "converged")
    ok, reasons = ev.check_success(problem, result, "handover")
    # agents face each other but hands are meters apart
    assert not ok and reasons == ["handover-loss"]


def test_handover_loss_matches_the_compiled_constraint():
    """The numpy residual and the tape's, at random frozen human states and a
    random robot plan; a batch of human states scores row by row."""
    from comotion.kinematics import axis_angle_matrix, matrix_to_rot6d

    rng = np.random.default_rng(11)
    H = 3
    human = np.empty((H, 129))
    for t in range(H):
        human[t, :3] = rng.uniform(-1, 1, size=3)
        for j in range(21):
            axis = rng.normal(size=3)
            human[t, 3 + 6 * j : 9 + 6 * j] = matrix_to_rot6d(
                axis_angle_matrix(axis, rng.uniform(-np.pi, np.pi)))
    spec = obj.ConstraintSpec(kind="handover")
    problem = obj.ProblemSpec(horizon=H, constraints=[spec], optimize_human=False,
                              fixed_human=human, robot_initial=rng.normal(size=7))
    compiled = obj.compile_problem(problem)
    _, _, h, evaluation = compiled.evaluate(0.1 * rng.normal(size=compiled.n))
    robot = compiled.trajectories(evaluation)[1]
    loss = ev.handover_loss(human[-1], robot[-1], spec)
    assert isinstance(loss, float)
    assert loss == pytest.approx(h[0], rel=0, abs=1e-10)
    batch = ev.handover_loss(human, robot[-1], spec)
    assert batch.shape == (H,)
    assert batch[-1] == pytest.approx(loss, rel=0, abs=1e-12)


def test_joint_goal_diagnostic_picks_nearest_agent():
    human = np.tile(identity_state((0.0, 0.0, 0.93)), (5, 1))
    robot = np.zeros((5, 7))
    robot[:, 0] = 5.0  # far away
    from comotion.kinematics import DEFAULT_HUMAN_SKELETON, forward_kinematics

    wrist, R = forward_kinematics(DEFAULT_HUMAN_SKELETON, human[2], "rWrist")
    target = wrist + R @ np.asarray(obj.DEFAULT_HUMAN_PALM_OFFSET)
    problem = obj.ProblemSpec(
        horizon=5,
        constraints=[obj.ConstraintSpec(kind="joint_goal", target=tuple(target))],
        optimize_human=False,
        fixed_human=human,
        robot_initial=robot[0],
    )
    agent, t, value = ev.joint_goal_diagnostic(problem, human, robot)
    assert agent == "human"
    assert value == pytest.approx(0.0, abs=1e-12)


def test_summarize_groups_by_method():
    problem, result = success_fixture()
    rec = ev.ExperimentRecord("p0", "ours", True, [], ev.compute_metrics(
        result.human_traj, result.robot_traj, dt=0.05), 0.01, "converged", 0.1)
    rec2 = ev.ExperimentRecord("p1", "ours", False, ["objective"], ev.compute_metrics(
        result.human_traj, result.robot_traj, dt=0.05), 0.2, "converged", 0.1)
    rows = ev.summarize([rec.row(), rec2.row()])
    assert len(rows) == 1
    assert rows[0]["method"] == "ours"
    assert rows[0]["success_rate"] == 50.0
