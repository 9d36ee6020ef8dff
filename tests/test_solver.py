"""Solver tests: analytic toy problems, L-BFGS behavior, contracts."""

import numpy as np
import pytest

from comotion import evaluation as ev
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import scenarios
from comotion import solver as sv
from comotion.data import SynthConfig, synth_generate
from comotion.graph import Tape
from comotion.objectives import CompiledProblem, Decision
from comotion.robot_model import ROBOT_CONTROL_BOUNDS, ROBOT_STATE_DIM


def toy_problem(build, n, bound=None):
    """Wrap a hand-built scalar graph into the compiled-problem interface.

    ``build(tape, x)`` takes the (n, 1) decision leaf and returns (objective
    ref, [ineq refs], [eq refs]); the output is their rows in one ``concat``,
    as ``compile_problem`` records it.  The leaf has no control-rate cost
    (scale 0) and the box |x_i| <= ``bound``, or none when that is None.
    """
    tape = Tape()
    x = tape.leaf("x", np.zeros((n, 1)))
    f, gs, hs = build(tape, x)
    tape.set_output(tape.concat([f, *gs, *hs]))
    return CompiledProblem(
        tape=tape,
        decisions=(Decision("x", (n, 1), 0.0, None if bound is None else (bound,)),),
        ineq_names=[f"g{i}" for i in range(len(gs))],
        eq_names=[f"h{i}" for i in range(len(hs))],
        human_traj=None,
        robot_traj=None,
    )


@pytest.mark.parametrize("name, value", [
    ("max_rounds", 2.5), ("max_inner", True), ("max_rounds", float("nan")), ("max_inner", "3"),
    ("max_rounds", None), ("max_inner", 0), ("max_rounds", np.int64(0)), ("max_inner", -1),
])
def test_solver_config_refuses_a_budget_that_is_not_a_count(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
        sv.SolverConfig(**{name: value})
    assert getattr(sv.SolverConfig(**{name: np.int64(3)}), name) == 3


def test_unconstrained_quadratic_stays_at_origin():
    compiled = toy_problem(lambda t, x: (t.sum_squares(x), [], []), n=6)
    result = sv.solve_compiled(compiled)
    assert result.status == "converged"
    assert result.objective == 0.0
    assert np.allclose(result.theta, 0.0)


def test_equality_toy_matches_analytic_solution():
    """min sum(u^2) s.t. sum(u) = 1 over 10 variables: u_i = 0.1."""

    def build(t, x):
        h = t.sub(t.sum(x), t.const(1.0))
        return t.sum_squares(x), [], [h]

    compiled = toy_problem(build, n=10)
    result = sv.solve_compiled(compiled)
    assert result.status == "converged"
    assert np.allclose(result.theta, 0.1, atol=1e-6)


def test_box_bound_quadratic_hits_kkt_point():
    """min (u - 2)^2 with |u| <= 1: active bound at u* = 1."""

    def build(t, x):
        d = t.sub(x, t.const(np.full((1, 1), 2.0)))
        return t.sum_squares(d), [], []

    compiled = toy_problem(build, n=1, bound=1.0)
    result = sv.solve_compiled(compiled)
    assert result.theta[0] == pytest.approx(1.0, abs=1e-5)


def test_inequality_toy_max_style():
    """min |u - a|^2 s.t. u_i <= 0 elementwise (a > 0): solution 0."""
    a = np.array([0.5, 1.0, 0.2])

    def build(t, x):
        d = t.sub(x, t.const(a[:, None]))
        gs = [t.take(x, (i, 0)) for i in range(3)]
        return t.sum_squares(d), gs, []

    compiled = toy_problem(build, n=3)
    result = sv.solve_compiled(compiled)
    assert np.all(result.theta <= 1e-8)
    assert np.allclose(result.theta, 0.0, atol=1e-4)


def merit(compiled, theta, mu, rho, multipliers, shift=0.0):
    """The merit value the solver's line search compares, at ``theta``."""
    f, g, h, _ = compiled.evaluate(theta)
    box = sv._Box(compiled)
    return sv._merit_value(box, theta, f, g, h, mu, rho, multipliers, shift)


def test_merit_examples():
    def build(t, x):
        g = t.sub(t.sum(x), t.const(1.0))  # g = sum(x) - 1 <= 0
        h = t.sum(x)
        return t.sum_squares(x), [g], [h]

    compiled = toy_problem(build, n=2)
    theta = np.zeros(2)
    # g(0) = -1, ln(shift - g) with shift 0 = ln(1) = 0; h = 0
    assert merit(compiled, theta, mu=1.0, rho=10.0, multipliers=np.zeros(1),
                 shift=0.0) == pytest.approx(0.0, abs=1e-15)
    # feasible point, mu -> 0, h = 0: merit -> objective
    theta = np.array([0.2, -0.2])
    f = float(np.sum(theta ** 2))
    assert merit(compiled, theta, mu=1e-12, rho=10.0, multipliers=np.zeros(1),
                 shift=0.0) == pytest.approx(f, abs=1e-9)


def test_merit_matches_hand_evaluation():
    rng = np.random.default_rng(0)

    def build(t, x):
        g = t.sub(t.sum_squares(x), t.const(4.0))
        h = t.sub(t.sum(x), t.const(0.5))
        return t.sum_squares(x), [g], [h]

    compiled = toy_problem(build, n=3)
    theta = rng.normal(size=3) * 0.3
    mu, rho, shift = 0.7, 12.0, 0.05
    lam = np.array([0.3])
    f = float(np.sum(theta ** 2))
    g = f - 4.0
    h = float(np.sum(theta)) - 0.5
    expected = f - mu * np.log(shift - g) + lam[0] * h + 0.5 * rho * h * h
    assert merit(compiled, theta, mu, rho, lam, shift) == pytest.approx(expected, rel=1e-12)


def test_merit_infeasible_barrier_is_infinite():
    def build(t, x):
        return t.sum_squares(x), [t.sum(x)], []

    compiled = toy_problem(build, n=1)
    assert merit(compiled, np.array([2.0]), 1.0, 10.0, np.zeros(0), shift=0.0) == np.inf


def test_lbfgs_direction_is_the_scaled_inverse_bfgs_step():
    """With every pair stored, the two-loop direction is -H g, where H is the
    inverse-BFGS update of gamma I (gamma = s'y / y'y of the newest pair) over
    the same pairs; a negative-curvature pair is not stored."""
    rng = np.random.default_rng(1)
    n = 6
    A = rng.normal(size=(n, n))
    A = A @ A.T + n * np.eye(n)
    memory = sv._LbfgsMemory()
    pairs = [(s, A @ s) for s in rng.normal(size=(4, n))]
    for s, y in pairs:
        memory.push(s, y)
    s = rng.normal(size=n)
    memory.push(s, -s)
    assert len(memory.pairs) == len(pairs)

    s, y = pairs[-1]
    H = float(s @ y) / float(y @ y) * np.eye(n)
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    g = rng.normal(size=n)
    assert np.allclose(memory.direction(g), -H @ g, rtol=1e-12, atol=1e-12)


def test_robot_only_solve_makes_under_two_replays_per_iteration(monkeypatch):
    """A 240-variable frozen-human solve takes the scaled L-BFGS steps, whose
    unit trial step is mostly accepted, instead of backtracking from an
    unscaled identity."""
    replays = []
    evaluate = obj.CompiledProblem.evaluate
    monkeypatch.setattr(obj.CompiledProblem, "evaluate",
                        lambda *a, **kw: replays.append(1) or evaluate(*a, **kw))
    problem = scenarios.make_crossing_problems(1, 1)[0].problem
    res = ev.run_method(problem, "zerovel", None)
    assert res.details["iterations"] > 0
    assert len(replays) < 2 * res.details["iterations"]


def test_capped_joint_solve_replays_each_point_once(monkeypatch):
    """The joint solve replays the zero warm start and then only line-search
    trials: a round starts from the evaluation the last one ended on, and the
    returned iterate keeps its own.  Each accepted iterate and each round
    start takes one backward pass."""
    replays, backwards = [], []
    forward, backward = Tape.forward, obj.backward
    monkeypatch.setattr(Tape, "forward", lambda *a, **kw: replays.append(1) or forward(*a, **kw))
    monkeypatch.setattr(obj, "backward",
                        lambda *a, **kw: backwards.append(1) or backward(*a, **kw))
    problem = scenarios.make_crossing_problems(1, 1)[0].problem
    compiled = obj.compile_problem(problem, model=hm.init_params(hm.ModelConfig(), 0))
    replays.clear()
    result = sv.solve_compiled(compiled, sv.SolverConfig(max_rounds=2, max_inner=8))
    # no line search failed and no round stopped early: each ran all 8 iterations
    assert [r.round for r in result.log] == [0] * 8 + [1] * 8
    assert all(r.trials >= 1 and np.isfinite(r.grad_norm) for r in result.log)
    assert len(replays) == 1 + sum(r.trials for r in result.log)
    assert len(backwards) == result.iterations + 2


def test_capped_solves_keep_every_control_inside_its_box():
    """The box ``compile_problem`` states reaches the solver: a capped
    ``ours`` solve on the seed-1 crossing and handover problems keeps every
    robot control strictly inside ``ROBOT_CONTROL_BOUNDS``, and so does a
    robot sent 2 m in 6 steps, whose forward control would need 2.2 times its
    bound and ends at the bound's edge."""
    model = hm.init_params(hm.ModelConfig(), 0)
    capped = sv.SolverConfig(max_rounds=2, max_inner=8)
    for make in (scenarios.make_crossing_problems, scenarios.make_handover_problems):
        result = ev.run_method(make(1, 1)[0].problem, "ours", model, solver_config=capped)
        assert np.all(np.abs(result.controls) < ROBOT_CONTROL_BOUNDS)
    far = obj.ProblemSpec(steps=6, robot_initial=np.zeros(ROBOT_STATE_DIM), constraints=[
        obj.ConstraintSpec(kind="goal", agent="robot", link="base", target=(2.0, 0.0, 0.0))])
    controls = sv.solve_compiled(obj.compile_problem(far), capped).controls
    assert np.all(np.abs(controls) < ROBOT_CONTROL_BOUNDS)
    assert controls[:, 0].max() > 0.99 * ROBOT_CONTROL_BOUNDS[0]


def test_monotone_merit_within_rounds():
    def build(t, x):
        h = t.sub(t.sum(x), t.const(1.0))
        return t.sum_squares(x), [], [h]

    compiled = toy_problem(build, n=10)
    result = sv.solve_compiled(compiled)
    by_round = {}
    for rec in result.log:
        by_round.setdefault(rec.round, []).append(rec.merit)
    for merits in by_round.values():
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))


def test_iteration_log_lines_parse():
    import json

    def build(t, x):
        return t.sum_squares(t.sub(x, t.const(np.ones((3, 1))))), [], []

    result = sv.solve_compiled(toy_problem(build, n=3))
    assert result.log
    rec = json.loads(result.log[0].to_line())
    assert set(rec) == {"iteration", "round", "mu", "rho", "objective",
                        "max_violation", "step_size", "merit", "trials", "grad_norm"}


def test_iteration_log_line_is_json_for_non_finite_values():
    import json

    rec = sv.IterationRecord(1, 0, 1.0, 10.0, float("inf"), float("nan"), 0.5, float("-inf"),
                             1, float("nan"))
    doc = json.loads(rec.to_line())
    assert doc["objective"] == float("inf") and doc["merit"] == float("-inf")
    assert np.isnan(doc["max_violation"]) and doc["step_size"] == 0.5


def test_solver_determinism():
    def build(t, x):
        g = t.sub(t.sum_squares(x), t.const(1.0))
        h = t.sub(t.sum(x), t.const(0.5))
        return t.sum_squares(t.sub(x, t.const(np.array([[1.0], [-2.0], [0.5]])))), [g], [h]

    a = sv.solve_compiled(toy_problem(build, n=3))
    b = sv.solve_compiled(toy_problem(build, n=3))
    assert np.array_equal(a.theta, b.theta)
    assert [r.merit for r in a.log] == [r.merit for r in b.log]


@pytest.fixture(scope="module")
def tiny_model_setup():
    cfg = hm.ModelConfig(num_layers=1, hidden_size=16, input_frames=4, output_frames=4,
                         dropout=0.0, recurrent_dropout=0.0)
    model = hm.init_params(cfg, seed=0)
    recs = synth_generate(SynthConfig(num_trajectories=1, duration_frames=24,
                                      reach_frames=6), seed=1)
    return model, recs[0].frames[:4]


def test_motion_problem_warm_start_objective_zero(tiny_model_setup):
    model, observed = tiny_model_setup
    problem = obj.ProblemSpec(
        steps=5,
        observed_human=observed,
        robot_initial=np.array([1.0, 0.0, np.pi, 0.0, 0.0, 0.0, 0.0]),
    )
    compiled = obj.compile_problem(problem, model=model)
    f, g, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert f == 0.0
    result = sv.solve_compiled(compiled, sv.SolverConfig(max_rounds=2, max_inner=5))
    assert result.objective == 0.0  # nothing pulls away from the warm start
    assert np.allclose(result.theta, 0.0)


def test_shooting_consistency_bit_exact(tiny_model_setup):
    model, observed = tiny_model_setup
    target = observed[-1][:3] + np.array([0.3, 0.1, -0.1])
    problem = obj.ProblemSpec(
        steps=5,
        observed_human=observed,
        robot_initial=np.array([1.0, 0.0, np.pi, 0.0, 0.0, 0.0, 0.0]),
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(target)),
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(0.5, 0.5, 0.0)),
        ],
    )
    compiled = obj.compile_problem(problem, model=model)
    result = sv.solve_compiled(compiled, sv.SolverConfig(max_rounds=3, max_inner=15))

    # re-unroll the returned controls independently
    hiddens = hm.encode(model, observed)
    human = hm.unroll_decoder(model, observed[-1], observed[-1] - observed[-2], hiddens,
                              result.modifiers, 5)
    assert np.array_equal(human, result.human_traj)
    from comotion.robot_model import robot_unroll

    robot = robot_unroll(problem.robot_initial, result.controls)
    assert np.array_equal(robot, result.robot_traj)


def test_human_reach_problem_converges(tiny_model_setup):
    model, observed = tiny_model_setup
    pred = hm.predict(model, observed, horizon=6)
    from comotion.kinematics import forward_kinematics

    wrist, _ = forward_kinematics(pred[-1], "rWrist")
    target = wrist + np.array([0.15, -0.1, 0.05])
    problem = obj.ProblemSpec(
        steps=6,
        observed_human=observed,
        constraints=[obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                                        target=tuple(target))],
    )
    compiled = obj.compile_problem(problem, model=model)
    result = sv.solve_compiled(compiled, sv.SolverConfig(max_rounds=6, max_inner=40))
    assert result.status == "converged"
    final, _ = forward_kinematics(result.human_traj[-1], "rWrist")
    assert np.linalg.norm(final - target) < 0.05  # residual < 1e-3 means < 3.2 cm
