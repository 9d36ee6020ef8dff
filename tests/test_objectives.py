"""Objective/constraint value and gradient tests against independent oracles."""

import json
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion import data as cd
from comotion import environment as env
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import scenarios
from comotion.graph import _OP_NAMES, Tape, backward
from comotion.kinematics import forward_kinematics
from comotion.robot_model import (ROBOT_CONTROL_BOUNDS, ROBOT_CONTROL_DIM, ROBOT_STATE_DIM,
                                  robot_fk, robot_unroll)
from helpers import identity_state


def soft_max(values, tau):
    """Reference soft maximum over timesteps: tau * log(sum(exp(values / tau)))."""
    return tau * np.logaddexp.reduce(np.asarray(values) / tau)


def collision_values(scene, compiled, ev):
    """-SDF at the robot's step bases: ``scene_sdf``, which the row's
    ``scene_distance`` node equals bit for bit."""
    values = -env.scene_sdf(scene, compiled.trajectories(ev)[1][:, :2])
    (node,) = [i for i, op in enumerate(compiled.tape.ops) if _OP_NAMES[op] == "scene_distance"]
    assert (-ev.values[node]).tobytes() == values.tobytes()
    return values


@pytest.fixture(scope="module")
def model():
    cfg = hm.ModelConfig(num_layers=1, hidden_size=16, input_frames=4, output_frames=4,
                         dropout=0.0, recurrent_dropout=0.0)
    return hm.init_params(cfg, seed=0)


@pytest.fixture(scope="module")
def observed():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=20,
                                            reach_frames=5), seed=3)
    return recs[0].frames[:4]


def small_scene():
    return env.Scene(
        obstacles=(env.Rect((0.0, 1.0), (0.4, 0.4)), env.Disc((1.5, -1.0), 0.4)),
        bounds=env.Rect((0.0, 0.0), (4.0, 4.0)),
    )


def base_problem(observed, steps=5, constraints=(), scene=None, weights=None,
                 robot=True, human=True):
    return obj.ProblemSpec(
        steps=steps,
        weights=weights or obj.ObjectiveWeights(),
        constraints=list(constraints),
        observed_human=observed if human else None,
        robot_initial=np.array([1.0, -1.8, 1.8, 0.0, 0.0, 0.0, 0.0]) if robot else None,
        scene=scene,
    )


def rng_theta(compiled, rng, scale=0.02):
    return scale * rng.normal(size=compiled.n)


# -- control objective -------------------------------------------------------


def test_control_objective_zero_and_constant(model, observed):
    """Equal control rows of either agent cost nothing."""
    compiled = obj.compile_problem(base_problem(observed), model=model)
    constant = np.concatenate([np.full(d.shape, value).reshape(-1) for d, value
                               in zip(compiled.decisions, (0.3, -0.1))])
    for theta in (np.zeros(compiled.n), constant):
        assert compiled.evaluate(theta)[0] == 0.0


def test_control_objective_matches_hand_evaluation(model, observed):
    """The compiled objective of a problem without constraints is the
    weighted sum of squared control rates, written out step by step."""
    rng = np.random.default_rng(0)
    w = obj.ObjectiveWeights(weight_human=3.0, weight_robot=7.0, frame_time=0.05)
    compiled = obj.compile_problem(base_problem(observed, steps=5, weights=w), model=model)
    theta = rng_theta(compiled, rng)
    f, g, h, _ = compiled.evaluate(theta)
    parts = compiled.split(theta)
    mods, ctls = parts["u_h"], parts["u_r"]
    assert mods.shape == (5, hm.MODIFIER_DIM) and ctls.shape == (5, ROBOT_CONTROL_DIM)
    expected = 0.0
    for t in range(4):
        expected += 3.0 * np.sum(((mods[t + 1] - mods[t]) / 0.05) ** 2)
        expected += 7.0 * np.sum(((ctls[t + 1] - ctls[t]) / 0.05) ** 2)
    assert f == pytest.approx(expected, rel=1e-12)
    assert g.size == 0 and h.size == 0


def test_theta_of_the_wrong_length_is_refused(model, observed):
    """A θ one entry short or one entry long is a ProblemError naming n and
    the given shape, for a replay and for splitting θ into the leaves."""
    compiled = obj.compile_problem(base_problem(observed, steps=3), model=model)
    n = compiled.n
    for theta in (np.zeros(n - 1), np.zeros(n + 1)):
        for call in (compiled.evaluate, compiled.split):
            with pytest.raises(obj.ProblemError, match=rf"\({n},\), got \({theta.size},\)"):
                call(theta)


def test_compiled_objective_matches_reference(model, observed):
    """Under the problem's own weights the compiled objective equals the
    control-rate sum taken over whole arrays with np.diff."""
    rng = np.random.default_rng(1)
    problem = base_problem(observed, steps=5)
    compiled = obj.compile_problem(problem, model=model)
    theta = rng_theta(compiled, rng)
    f, g, h, _ = compiled.evaluate(theta)
    parts = compiled.split(theta)
    w = problem.weights
    inv_dt2 = 1.0 / w.frame_time ** 2
    ref = (w.weight_human * inv_dt2 * np.sum(np.diff(parts["u_h"], axis=0) ** 2)
           + w.weight_robot * inv_dt2 * np.sum(np.diff(parts["u_r"], axis=0) ** 2))
    assert f == pytest.approx(ref, rel=1e-12)
    assert g.size == 0 and h.size == 0


# -- goal constraint ---------------------------------------------------------


def test_goal_constraint_zero_when_on_target(model, observed):
    pred = hm.predict(model, observed, horizon=5)
    target, _ = forward_kinematics(pred[-1], "rWrist")
    spec = obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                              target=tuple(target))
    problem = base_problem(observed, steps=5, constraints=[spec], robot=False)
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert h[0] == pytest.approx(0.0, abs=1e-18)


def test_goal_constraint_one_meter_away(model, observed):
    pred = hm.predict(model, observed, horizon=5)
    target, _ = forward_kinematics(pred[-1], "rWrist")
    spec = obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                              target=(target[0] + 1.0, target[1], target[2]))
    problem = base_problem(observed, steps=5, constraints=[spec], robot=False)
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    # the graph-side norm regularization (1e-12) shifts FK at the 1e-12 level
    assert h[0] == pytest.approx(1.0, abs=1e-9)


def test_robot_goal_constraint_value(observed):
    spec = obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                              target=(0.0, 0.0, 0.0))
    problem = base_problem(observed, steps=4, constraints=[spec], human=False)
    compiled = obj.compile_problem(problem)
    rng = np.random.default_rng(2)
    theta = 0.1 * rng.normal(size=compiled.n)
    _, _, h, ev = compiled.evaluate(theta)
    states = robot_unroll(problem.robot_initial, theta.reshape(4, -1))
    pos, _ = robot_fk(states[-1], "base")
    assert h[0] == pytest.approx(float(np.sum(pos ** 2)), rel=1e-12)


# -- collision constraint ----------------------------------------------------


def test_collision_sign_and_hard_max(observed):
    """The collision row is the soft maximum over the steps of -SDF: feasible
    (<= 0) clear of every obstacle, and at most tau ln H above the hard max."""
    scene = small_scene()
    spec = obj.ConstraintSpec(kind="collision", agent="robot")
    problem = base_problem(observed, steps=6, constraints=[spec], scene=scene, human=False)
    compiled = obj.compile_problem(problem)
    assert compiled.ineq_names == ["collision[0]"]
    # standing far from all obstacles: feasible, value <= 0
    _, g, _, ev = compiled.evaluate(np.zeros(compiled.n))
    assert g.shape == (1,) and g[0] <= 0.0
    values = collision_values(scene, compiled, ev)
    tau = obj.SOFT_MAX_TEMPERATURE
    assert g[0] == pytest.approx(soft_max(values, tau), rel=1e-12)
    assert values.max() <= g[0] <= values.max() + tau * np.log(6) + 1e-12


def test_collision_soft_max_upper_bounds_hard_max(observed):
    """At random robot plans the row lies between the hard maximum of -SDF
    and that plus tau ln H."""
    scene = small_scene()
    rng = np.random.default_rng(3)
    tau = obj.SOFT_MAX_TEMPERATURE
    spec = obj.ConstraintSpec(kind="collision", agent="robot")
    problem = base_problem(observed, steps=6, constraints=[spec], scene=scene, human=False)
    compiled = obj.compile_problem(problem)
    for trial in range(5):
        _, g, _, ev = compiled.evaluate(0.1 * rng.normal(size=6 * 6))
        values = collision_values(scene, compiled, ev)
        assert g[0] == pytest.approx(soft_max(values, tau), rel=1e-12)
        hard = values.max()
        assert hard <= g[0] <= hard + tau * np.log(6) + 1e-12


# -- joint clearance ---------------------------------------------------------


def test_clearance_algebra(model, observed):
    """The clearance row is the soft maximum over the steps of d^2 minus the
    squared planar base distance."""
    d = 0.5
    rng = np.random.default_rng(8)
    spec = obj.ConstraintSpec(kind="joint_clearance", clearance=d)
    problem = base_problem(observed, steps=3, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    for trial in range(2):
        _, g, _, ev = compiled.evaluate(0.05 * rng.normal(size=compiled.n))
        human, robot = compiled.trajectories(ev)
        values = d * d - np.sum((human[:, :2] - robot[:, :2]) ** 2, axis=1)
        assert g.shape == (1,)
        assert g[0] == pytest.approx(soft_max(values, obj.SOFT_MAX_TEMPERATURE), rel=1e-12)


def test_clearance_agents_two_d_apart():
    # frozen straight-line agents exactly 2d apart: value is -3 d^2 per step
    d = 0.5
    H = 4
    human = np.zeros((H, 129))
    human[:, 1] = 2 * d  # human base at y = 2d
    for t in range(H):
        human[t] = identity_state((0.0, 2 * d, 0.9))
    robot = np.zeros((H, 7))
    spec = obj.ConstraintSpec(kind="joint_clearance", clearance=d)
    problem = obj.ProblemSpec(
        steps=H, constraints=[spec], fixed_human=human, robot_initial=np.zeros(7),
    )
    compiled = obj.compile_problem(problem)
    _, g, _, _ = compiled.evaluate(np.zeros(compiled.n))
    tau = obj.SOFT_MAX_TEMPERATURE
    assert g[0] == pytest.approx(soft_max(np.full(H, -3 * d * d), tau), rel=1e-12)
    assert g[0] == pytest.approx(-3 * d * d + tau * np.log(H), rel=1e-12)


# -- joint goal --------------------------------------------------------------


def hard_min_hand_distances(human, robot, target):
    dists = []
    for t in range(len(human)):
        pos, R = forward_kinematics(human[t], "rWrist")
        p = pos + R @ np.asarray(obj.PALMS["human"][1])
        dists.append(np.sum((p - target) ** 2))
    for t in range(len(robot)):
        pos, R = robot_fk(robot[t], "hand")
        p = pos + R @ np.asarray(obj.PALMS["robot"][1])
        dists.append(np.sum((p - target) ** 2))
    return float(np.min(dists))


def test_joint_goal_approximates_hard_min(model, observed):
    rng = np.random.default_rng(4)
    target = (0.8, -1.0, 0.8)
    spec = obj.ConstraintSpec(kind="joint_goal", target=target)
    problem = base_problem(observed, steps=4, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    tau = 0.1 ** 2 / np.log(2 * 4)  # the success tolerance over ln(2H)
    for _ in range(3):
        theta = rng_theta(compiled, rng, scale=0.05)
        _, _, h, ev = compiled.evaluate(theta)
        human, robot = compiled.trajectories(ev)
        hard = hard_min_hand_distances(human, robot, np.asarray(target))
        assert h[0] <= hard + 1e-12
        assert h[0] >= hard - tau * np.log(2 * 4) - 1e-12


def test_joint_goal_small_when_hand_on_target(model, observed):
    pred = hm.predict(model, observed, horizon=4)
    pos, R = forward_kinematics(pred[2], "rWrist")
    target = tuple(pos + R @ np.asarray(obj.PALMS["human"][1]))
    tau = 0.1 ** 2 / np.log(2 * 4)
    spec = obj.ConstraintSpec(kind="joint_goal", target=target)
    problem = base_problem(observed, steps=4, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert abs(h[0]) <= tau * np.log(2 * 4) + 1e-12


@pytest.mark.parametrize("steps", [1, 4, 40])
def test_joint_goal_row_holds_only_within_the_success_radius(steps):
    """Every one of the 2H palms 0.1 m + 1 mm from the target (the success
    clause fails) makes the row positive: a row at 0 implies the clause."""
    target = np.array([0.8, -1.0, 0.8])
    directions = np.random.default_rng(steps).normal(size=(2, steps, 3))
    palms = target + 0.101 * directions / np.linalg.norm(directions, axis=2, keepdims=True)

    class Palms(obj.GraphContext):
        def palm_point(self, agent, t=None):
            return self.tape.const(palms[("human", "robot").index(agent)])

    tape = Tape()
    row = obj.joint_goal_constraint_graph(Palms(tape, steps, None, None, None),
                                          obj.ConstraintSpec(kind="joint_goal",
                                                             target=tuple(target)))
    assert 0.0 < float(row.value) < 0.1 ** 2


# -- handover ----------------------------------------------------------------


def frozen_pair_problem(face_to_face=True):
    from comotion.kinematics import matrix_to_rot6d, yaw_matrix

    H = 3
    human = np.stack([identity_state((0.0, 0.0, 0.93))] * H)
    yaw = np.pi if face_to_face else 0.0
    for t in range(H):
        human[t, 3:9] = matrix_to_rot6d(yaw_matrix(yaw))
    robot = np.zeros((H, 7))
    robot[:, 0] = 1.0  # robot one meter along +x, facing +x
    return human, robot


def test_handover_same_heading_facing_residual_two():
    human, robot = frozen_pair_problem(face_to_face=False)
    spec = obj.ConstraintSpec(kind="handover")
    problem = obj.ProblemSpec(steps=3, constraints=[spec], fixed_human=human,
                              robot_initial=robot[0])
    compiled = obj.compile_problem(problem)
    _, _, h, ev = compiled.evaluate(np.zeros(compiled.n))
    hu, ro = compiled.trajectories(ev)
    ph, Rh = forward_kinematics(hu[-1], "rWrist")
    ph = ph + Rh @ np.asarray(obj.PALMS["human"][1])
    pr, Rr = robot_fk(ro[-1], "hand")
    pr = pr + Rr @ np.asarray(obj.PALMS["robot"][1])
    expected = float(np.sum((ph - pr) ** 2)) + 2.0
    assert h[0] == pytest.approx(expected, rel=1e-9)


def test_handover_face_to_face_palms_touching_is_zero():
    human, robot = frozen_pair_problem(face_to_face=True)
    # move the robot base in the plane and the human up or down so the palm
    # points coincide
    ph, Rh = forward_kinematics(human[-1], "rWrist")
    palm_h = ph + Rh @ np.asarray(obj.PALMS["human"][1])
    pr, Rr = robot_fk(np.zeros(7), "hand")
    palm_r0 = pr + Rr @ np.asarray(obj.PALMS["robot"][1])
    shift = palm_h - palm_r0
    human[:, 2] -= shift[2]
    spec = obj.ConstraintSpec(kind="handover")
    robot = np.zeros((3, 7))
    robot[:, 0] = shift[0]
    robot[:, 1] = shift[1]
    problem = obj.ProblemSpec(steps=3, constraints=[spec], fixed_human=human,
                              robot_initial=robot[0])
    compiled = obj.compile_problem(problem)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert h[0] == pytest.approx(0.0, abs=1e-12)


# -- rigid translation invariance ---------------------------------------------


def test_constraints_invariant_under_rigid_translation(model, observed):
    rng = np.random.default_rng(5)
    shift = np.array([1.3, -0.7])
    scene = small_scene()

    def shifted_scene(s):
        obstacles = []
        for ob in s.obstacles:
            if isinstance(ob, env.Disc):
                obstacles.append(env.Disc((ob.center[0] + shift[0], ob.center[1] + shift[1]),
                                          ob.radius))
            else:
                obstacles.append(env.Rect((ob.center[0] + shift[0], ob.center[1] + shift[1]),
                                          ob.half_extents))
        return env.Scene(tuple(obstacles),
                         env.Rect((s.bounds.center[0] + shift[0], s.bounds.center[1] + shift[1]),
                                  s.bounds.half_extents))

    pred = hm.predict(model, observed, horizon=4)
    wrist, _ = forward_kinematics(pred[-1], "rWrist")
    theta = None
    values = []
    for translated in (False, True):
        obs = observed.copy()
        target = np.array([wrist[0], wrist[1], wrist[2]])
        rinit = np.array([1.0, -1.5, 1.5, 0.0, 0.0, 0.0, 0.0])
        sc = scene
        if translated:
            obs[:, 0] += shift[0]
            obs[:, 1] += shift[1]
            target[:2] += shift
            rinit[:2] += shift
            sc = shifted_scene(scene)
        constraints = [
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist", target=tuple(target)),
            obj.ConstraintSpec(kind="collision", agent="robot"),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
            obj.ConstraintSpec(kind="joint_goal", target=tuple(target)),
            obj.ConstraintSpec(kind="handover"),
        ]
        problem = base_problem(obs, steps=4, constraints=constraints, scene=sc)
        problem.robot_initial = rinit
        compiled = obj.compile_problem(problem, model=model)
        if theta is None:
            theta = 0.02 * rng.normal(size=compiled.n)
        f, g, h, _ = compiled.evaluate(theta)
        values.append((f, g.copy(), h.copy()))
    (f0, g0, h0), (f1, g1, h1) = values
    assert f1 == pytest.approx(f0, rel=1e-9)
    # the scene distance shifts rigidly with the scene, so values match to rounding
    assert np.allclose(g1, g0, atol=1e-9)
    assert np.allclose(h1, h0, atol=1e-9)


def _planar_motion(psi, shift):
    c, s = np.cos(psi), np.sin(psi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return lambda p: rot @ p + np.array([shift[0], shift[1], 0.0]), rot


_FROZEN_HUMAN = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=12,
                                                 reach_frames=4), seed=7)[0].frames[-4:]


def test_a_frozen_human_replay_equals_a_fresh_compile():
    """A robot-only tape recorded against one frozen human and replayed with
    ``fixed_human`` set to another gives, byte for byte, the objective, rows,
    gradient and trajectories of a tape compiled with the other frozen."""
    other = _FROZEN_HUMAN.copy()
    other[:, :2] += (0.3, -0.2)
    problem = obj.ProblemSpec(
        steps=len(other), fixed_human=_FROZEN_HUMAN,
        robot_initial=np.array([0.9, -0.6, 2.0, 0.3, -0.2, 0.4, 0.1]),
        constraints=[obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
                     obj.ConstraintSpec(kind="handover")])
    replayed = obj.compile_problem(problem)
    fresh = obj.compile_problem(replace(problem, fixed_human=other))
    theta = 0.05 * np.random.default_rng(12).normal(size=replayed.n)
    seed = np.random.default_rng(13).normal(size=3)
    runs = []
    for compiled, override in ((replayed, other), (fresh, None)):
        f, g, h, at = compiled.evaluate(theta, fixed_human=override)
        arrays = (g, h, compiled.gradient(seed, at), *compiled.trajectories(at))
        runs.append((f, [a.tobytes() for a in arrays]))
    assert runs[0] == runs[1]
    assert replayed.evaluate(theta)[1].tobytes() != runs[0][1][0]  # the override took


def test_replacing_a_human_that_is_not_frozen_is_an_error():
    robot_only = obj.ProblemSpec(steps=4, robot_initial=np.zeros(ROBOT_STATE_DIM))
    compiled = obj.compile_problem(robot_only)
    with pytest.raises(obj.ProblemError, match="no frozen human"):
        compiled.evaluate(np.zeros(compiled.n), fixed_human=_FROZEN_HUMAN)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(psi=st.floats(-np.pi, np.pi), tx=st.floats(-3.0, 3.0), ty=st.floats(-3.0, 3.0))
def test_constraints_invariant_under_planar_rigid_motion(psi, tx, ty):
    """Moving both agents' bases, and every target with them, by one planar
    rigid motion changes no goal, clearance, joint-goal or handover value."""
    move, rot = _planar_motion(psi, (tx, ty))
    human = _FROZEN_HUMAN
    rinit = np.array([0.9, -0.6, 2.0, 0.3, -0.2, 0.4, 0.1])
    theta = 0.05 * np.random.default_rng(13).normal(size=len(human) * 6)
    targets = {"hand": np.array([0.7, -0.4, 0.9]), "wrist": np.array([0.2, -0.3, 1.0]),
               "pick": np.array([0.5, 0.1, 0.85])}
    values = []
    for moved in (False, True):
        h, r, tg = human.copy(), rinit.copy(), dict(targets)
        if moved:
            h[:, :3] = h[:, :3] @ rot.T + np.array([tx, ty, 0.0])
            h[:, 3:6] = h[:, 3:6] @ rot.T
            h[:, 6:9] = h[:, 6:9] @ rot.T
            r[:2] = move(np.array([r[0], r[1], 0.0]))[:2]
            r[2] += psi
            tg = {k: move(v) for k, v in targets.items()}
        constraints = [
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(tg["wrist"])),
            obj.ConstraintSpec(kind="goal", agent="robot", link="hand",
                               target=tuple(tg["hand"])),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
            obj.ConstraintSpec(kind="joint_goal", target=tuple(tg["pick"])),
            obj.ConstraintSpec(kind="handover"),
        ]
        problem = obj.ProblemSpec(steps=len(h), constraints=constraints, fixed_human=h,
                                  robot_initial=r)
        _, g, eq, _ = obj.compile_problem(problem).evaluate(theta)
        values.append(np.concatenate([g, eq]))
    assert np.allclose(values[1], values[0], rtol=0, atol=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(quarter_turns=st.integers(0, 3), tx=st.floats(-5.0, 5.0), ty=st.floats(-5.0, 5.0))
def test_collision_invariant_under_planar_rigid_motion(quarter_turns, tx, ty):
    """Turning both agents and the scene by a multiple of 90 degrees, so that
    every rectangle stays axis-aligned, and shifting them by any vector
    changes neither agent's collision row beyond rounding."""
    turn = np.linalg.matrix_power(np.array([[0.0, -1.0], [1.0, 0.0]]), quarter_turns)
    shift = np.array([tx, ty])

    def move(p):
        return tuple(float(v) for v in turn @ np.asarray(p) + shift)

    def moved_rect(rect):  # an odd number of quarter turns swaps the half extents
        return env.Rect(move(rect.center), tuple(float(v) for v in np.abs(turn) @ rect.half_extents))

    scene = env.Scene(obstacles=(env.Rect((-1.2, -0.8), (0.3, 0.2)), env.Disc((1.2, -0.2), 0.3)),
                      bounds=env.Rect((0.5, -0.5), (4.0, 3.0)))
    human = _FROZEN_HUMAN
    rinit = np.array([0.9, -0.6, 2.0, 0.3, -0.2, 0.4, 0.1])
    theta = 0.05 * np.random.default_rng(14).normal(size=len(human) * 6)
    constraints = [obj.ConstraintSpec(kind="collision", agent="human"),
                   obj.ConstraintSpec(kind="collision", agent="robot")]
    values = []
    for moved in (False, True):
        h, r, sc = human.copy(), rinit.copy(), scene
        if moved:
            h[:, :2] = h[:, :2] @ turn.T + shift  # the row reads only the base xy
            r[:2] = move(r[:2])
            r[2] += quarter_turns * np.pi / 2
            sc = env.Scene(obstacles=(moved_rect(scene.obstacles[0]),
                                      env.Disc(move(scene.obstacles[1].center), 0.3)),
                           bounds=moved_rect(scene.bounds))
        problem = obj.ProblemSpec(steps=len(h), constraints=constraints, fixed_human=h,
                                  robot_initial=r, scene=sc)
        _, g, _, _ = obj.compile_problem(problem).evaluate(theta)
        values.append(g)
    # coordinates below 10 m round at ulp(10) = 1.8e-15 m; the SDF is
    # 1-Lipschitz, and the distance and the soft maximum add a few
    # roundings of values below 10: 1e-12 is over 100 times that (200 draws
    # moved the rows by at most 8.9e-16)
    assert np.allclose(values[1], values[0], rtol=0, atol=1e-12)


# -- gradients through everything ---------------------------------------------


def test_all_constraint_gradients_match_finite_differences(model, observed):
    rng = np.random.default_rng(6)
    scene = small_scene()
    target = (0.6, -0.9, 0.85)
    constraints = [
        obj.ConstraintSpec(kind="goal", agent="human", link="rWrist", target=target),
        obj.ConstraintSpec(kind="goal", agent="robot", link="base", target=(0.0, 0.5, 0.0)),
        obj.ConstraintSpec(kind="collision", agent="robot"),
        obj.ConstraintSpec(kind="collision", agent="human"),
        obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
        obj.ConstraintSpec(kind="joint_goal", target=target),
        obj.ConstraintSpec(kind="handover"),
    ]
    problem = base_problem(observed, steps=4, constraints=constraints, scene=scene)
    compiled = obj.compile_problem(problem, model=model)
    theta = 0.02 * rng.normal(size=compiled.n)
    f, g, h, ev = compiled.evaluate(theta)
    seed = rng.normal(size=1 + g.size + h.size)
    grad = compiled.gradient(seed, ev)

    # central differences on the seeded combination
    def combo(th):
        f2, g2, h2, _ = compiled.evaluate(th)
        return float(seed @ np.concatenate([[f2], g2, h2]))

    step = 1e-6
    idx = rng.choice(compiled.n, size=40, replace=False)
    worst = 0.0
    for i in idx:
        saved = theta[i]
        theta[i] = saved + step
        hi = combo(theta)
        theta[i] = saved - step
        lo = combo(theta)
        theta[i] = saved
        fd = (hi - lo) / (2 * step)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i])))
    assert worst < 1e-4


def test_the_objective_is_the_stated_quadratic_plus_row_0(model, observed):
    """``CompiledProblem.decisions`` states θ's layout, box and control-rate
    cost: Q built densely from their blocks gives f = ½ θᵀQθ + row 0 and the
    gradient's objective part seed[0] Qθ, with row 0 the base penalty on the
    tape."""
    w = obj.ObjectiveWeights(weight_human=3.0, weight_robot=7.0, human_base_penalty=2.0)
    problem = base_problem(observed, steps=5, weights=w,
                           constraints=[obj.ConstraintSpec(kind="handover")])
    compiled = obj.compile_problem(problem, model=model)
    assert compiled.decisions == (
        obj.Decision("u_h", (5, hm.MODIFIER_DIM), 3.0 / 0.05 ** 2),
        obj.Decision("u_r", (5, ROBOT_CONTROL_DIM), 7.0 / 0.05 ** 2, ROBOT_CONTROL_BOUNDS))
    Q = np.zeros((compiled.n, compiled.n))
    start = 0
    for d in compiled.decisions:
        steps, width = d.shape
        D = np.eye(steps - 1, steps, 1) - np.eye(steps - 1, steps)
        span = slice(start, start + steps * width)
        Q[span, span] = 2.0 * d.scale * np.kron(D.T @ D, np.eye(width))
        start = span.stop
    rng = np.random.default_rng(16)
    theta = rng_theta(compiled, rng)
    f, g, h, ev = compiled.evaluate(theta)
    row0 = float(ev.output[0])
    assert row0 > 0.0
    assert f == pytest.approx(0.5 * theta @ Q @ theta + row0, rel=1e-12)
    seed = rng.normal(size=1 + g.size + h.size)
    tape_part = backward(compiled.tape, seed, at=ev, wrt=[d.leaf for d in compiled.decisions])
    expected = (np.concatenate([g.reshape(-1) for g in tape_part.values()])
                + seed[0] * (Q @ theta))
    grad = compiled.gradient(seed, ev)
    assert np.abs(grad - expected).max() <= 1e-12 * np.abs(grad).max()


def test_control_rates_leave_the_tape():
    """The control-rate cost records no node: the default model's crossing
    and handover tapes (seed 1) hold 42 and 29 nodes (64 and 49 when it was
    recorded, 49 and 34 while leaves were flat and reshaped and every row
    was reshaped into the output), and the tape records a base penalty as
    one node."""
    model = hm.init_params(hm.ModelConfig(), 0)
    for problem, size in ((scenarios.make_crossing_problems(1, 1)[0].problem, 42),
                          (scenarios.make_handover_problems(1, 1)[0].problem, 29)):
        assert len(obj.compile_problem(problem, model=model).tape) == size
    pickup = scenarios.make_pickup_handover_problem(1, human_base_penalty=1.0).problem
    names = [_OP_NAMES[op] for op in obj.compile_problem(pickup, model=model).tape.ops]
    assert names.count("squared_differences") == 1


def test_an_evaluation_survives_later_replays(model, observed):
    """The line search holds one evaluation while it replays trials, and the
    solver's best iterate keeps its own: values and the backward pass
    through an evaluation made before another replay are the bytes of a
    fresh replay at the same point."""
    rng = np.random.default_rng(7)
    target = (0.6, -0.9, 0.85)
    constraints = [
        obj.ConstraintSpec(kind="goal", agent="human", link="rWrist", target=target),
        obj.ConstraintSpec(kind="collision", agent="robot"),
        obj.ConstraintSpec(kind="collision", agent="human"),
        obj.ConstraintSpec(kind="joint_goal", target=target),
        obj.ConstraintSpec(kind="handover"),
    ]
    problem = base_problem(observed, steps=6, constraints=constraints, scene=small_scene())
    compiled = obj.compile_problem(problem, model=model)
    at_a, at_b = (0.02 * rng.normal(size=compiled.n) for _ in range(2))
    f, g, h, held = compiled.evaluate(at_a)
    compiled.evaluate(at_b)
    seed = rng.normal(size=1 + g.size + h.size)
    grad = compiled.gradient(seed, held)
    compiled.gradient(seed, compiled.evaluate(at_b)[3])
    *again, fresh = compiled.evaluate(at_a)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(held.values, fresh.values))
    assert np.concatenate([[f], g, h]).tobytes() == np.concatenate([[again[0]], *again[1:]]).tobytes()
    assert grad.tobytes() == compiled.gradient(seed, fresh).tobytes()


def test_pickup_handover_reads_each_palm_in_one_node_and_its_gradient_holds():
    """Tape size: the paper's pickup-handover problem (seed 1) took 14,811
    nodes with per-step FK subgraphs; its palms are now four link_point
    nodes.  Planning gradients still match central differences."""
    problem = scenarios.make_pickup_handover_problem(1).problem
    compiled = obj.compile_problem(problem, model=hm.init_params(hm.ModelConfig(), 0))
    names = [_OP_NAMES[op] for op in compiled.tape.ops]
    assert len(compiled.tape) <= 120
    assert names.count("link_point") == 4
    rng = np.random.default_rng(14)
    theta = 0.02 * rng.normal(size=compiled.n)
    f, g, h, ev = compiled.evaluate(theta)
    seed = rng.normal(size=1 + g.size + h.size)
    grad = compiled.gradient(seed, ev)
    step = 1e-6
    worst = 0.0
    for i in rng.choice(compiled.n, size=30, replace=False):
        shifted = []
        for sign in (1.0, -1.0):
            th = theta.copy()
            th[i] += sign * step
            f2, g2, h2, _ = compiled.evaluate(th)
            shifted.append(float(seed @ np.concatenate([[f2], g2, h2])))
        fd = (shifted[0] - shifted[1]) / (2 * step)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i])))
    assert worst < 1e-5


def test_human_base_penalty_gradient_matches_finite_differences():
    """The base penalty's gradient: on pickup-handover (seed 1) at
    ``human_base_penalty=1.0``, the difference of the objective gradients
    with and without the penalty matches central differences of the
    difference of the objectives, and it is not zero."""
    model = hm.init_params(hm.ModelConfig(), 0)
    plain = scenarios.make_pickup_handover_problem(1).problem
    penalized = scenarios.make_pickup_handover_problem(1, human_base_penalty=1.0).problem
    compiled = [obj.compile_problem(p, model=model) for p in (penalized, plain)]
    rng = np.random.default_rng(15)
    theta = 0.02 * rng.normal(size=compiled[0].n)

    def penalty(th):
        return compiled[0].evaluate(th)[0] - compiled[1].evaluate(th)[0]

    grads = []
    for c in compiled:
        _, g, h, ev = c.evaluate(theta)
        grads.append(c.gradient(np.eye(1 + g.size + h.size)[0], ev))
    grad = grads[0] - grads[1]
    assert np.abs(grad).max() > 0.1
    # the objective is about 1.7e4 and the penalty 5.8: a larger step keeps
    # the rounding of the two objectives out of the differences
    step = 1e-4
    worst = 0.0
    for i in rng.choice(compiled[0].n, size=30, replace=False):
        th_hi, th_lo = theta.copy(), theta.copy()
        th_hi[i] += step
        th_lo[i] -= step
        fd = (penalty(th_hi) - penalty(th_lo)) / (2 * step)
        worst = max(worst, abs(grad[i] - fd) / max(1e-2, abs(grad[i])))
    assert worst < 1e-4


# -- problem files -------------------------------------------------------------


def test_problem_file_round_trip(tmp_path, observed):
    scene = small_scene()
    constraints = [
        obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                           target=(0.1234567890123, -1.0, 0.85)),
        obj.ConstraintSpec(kind="joint_clearance", clearance=0.5),
    ]
    problem = base_problem(observed, steps=5, constraints=constraints, scene=scene,
                           weights=obj.ObjectiveWeights(weight_human=100.0, weight_robot=1.0))
    path = tmp_path / "problem.json"
    obj.save_problem(problem, path)
    loaded = obj.load_problem(path)
    assert loaded.steps == problem.steps
    assert loaded.weights == problem.weights
    assert loaded.constraints == problem.constraints
    assert loaded.scene == problem.scene
    assert np.array_equal(loaded.observed_human, problem.observed_human)
    assert np.array_equal(loaded.robot_initial, problem.robot_initial)
    # exact round trip: saving again yields an identical file, here and on a
    # problem of every generator family
    path2 = tmp_path / "problem2.json"
    obj.save_problem(loaded, path2)
    assert path.read_text() == path2.read_text()
    # a top-level key that names no ProblemSpec field, such as the "agents"
    # of older files, is an error
    doc = json.loads(path.read_text())
    assert "agents" not in doc
    path2.write_text(json.dumps({**doc, "agents": ["human", "robot"]}))
    with pytest.raises(obj.ProblemError, match="unknown key 'agents'"):
        obj.load_problem(path2)
    for problem in (scenarios.make_reach_problems(1, 1)[0].problem,
                    scenarios.make_crossing_problems(1, 1)[0].problem,
                    scenarios.make_handover_problems(1, 1)[0].problem,
                    scenarios.make_pickup_handover_problem(1).problem):
        obj.save_problem(problem, path)
        obj.save_problem(obj.load_problem(path), path2)
        assert path.read_bytes() == path2.read_bytes()


_number = st.floats(-10.0, 10.0, allow_nan=False)
_point = st.tuples(_number, _number, _number)
_agent = st.sampled_from(["human", "robot"])
_constraint = st.one_of(
    st.builds(obj.ConstraintSpec, kind=st.just("goal"), agent=_agent,
              link=st.sampled_from(["rWrist", "base", "hand"]), target=_point),
    st.builds(obj.ConstraintSpec, kind=st.just("collision"), agent=_agent),
    st.builds(obj.ConstraintSpec, kind=st.just("joint_clearance"),
              clearance=st.floats(1e-3, 2.0)),
    st.builds(obj.ConstraintSpec, kind=st.just("joint_goal"), target=_point),
    st.builds(obj.ConstraintSpec, kind=st.just("handover")),
)
# each agent is planned (its start, no frozen trajectory), frozen (a frozen
# trajectory, with or without a start) or absent (neither)
_ROLES = ("planned", "frozen", "frozen with start", "absent")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(human=st.sampled_from(_ROLES), robot=st.sampled_from(_ROLES),
       constraints=st.lists(_constraint, max_size=6), steps=st.integers(1, 4),
       observed=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       with_scene=st.booleans(),
       weights=st.builds(obj.ObjectiveWeights, st.floats(1e-3, 100.0),
                         st.floats(1e-3, 100.0), st.floats(1e-3, 0.1), st.floats(0.0, 10.0)))
def test_problem_file_round_trip_is_a_byte_fixed_point(human, robot, constraints, steps,
                                                       observed, seed, with_scene, weights):
    """save -> load -> save writes the same bytes, for random constraints of
    every kind and every role of each agent, and the roles come back."""
    rng = np.random.default_rng(seed)
    problem = obj.ProblemSpec(
        steps=steps,
        weights=weights,
        constraints=constraints,
        observed_human=rng.normal(size=(observed, 129))
        if human in ("planned", "frozen with start") else None,
        robot_initial=rng.normal(size=7) if robot in ("planned", "frozen with start") else None,
        # a collision constraint needs a scene
        scene=small_scene() if with_scene or any(c.kind == "collision" for c in constraints)
        else None,
        fixed_human=rng.normal(size=(steps, 129)) if human.startswith("frozen") else None,
        fixed_robot=rng.normal(size=(steps, 7)) if robot.startswith("frozen") else None,
    )
    assert problem.steps == steps
    assert (problem.plans_human, problem.plans_robot) == (human == "planned", robot == "planned")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = f"{tmp}/first.json", f"{tmp}/second.json"
        obj.save_problem(problem, first)
        loaded = obj.load_problem(first)
        obj.save_problem(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert (loaded.plans_human, loaded.plans_robot) == (problem.plans_human, problem.plans_robot)
    assert loaded.steps == steps and loaded.constraints == constraints
    for name in ("observed_human", "robot_initial", "fixed_human", "fixed_robot"):
        a, b = getattr(problem, name), getattr(loaded, name)
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.fixture(scope="module")
def walk():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=20,
                                            reach_frames=5), seed=4)
    return recs[0].frames


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(layers=st.integers(1, 3), hidden=st.integers(1, 12), observed=st.integers(2, 6),
       steps=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_zero_modifiers_give_the_prediction_bit_exactly(walk, layers, hidden, observed, steps,
                                                        seed):
    """At theta = 0 the compiled human trajectory of a human-only goal
    problem is ``hm.predict``'s forecast, byte for byte, for random model
    shapes and weights."""
    config = hm.ModelConfig(num_layers=layers, hidden_size=hidden, input_frames=observed)
    model = hm.init_params(config, seed)
    history = walk[:observed]
    goal = obj.ConstraintSpec(kind="goal", agent="human", link="rWrist", target=(1.0, 0.0, 1.0))
    compiled = obj.compile_problem(
        obj.ProblemSpec(steps=steps, constraints=[goal], observed_human=history), model=model)
    human, robot = compiled.trajectories(compiled.evaluate(np.zeros(compiled.n))[3])
    assert robot is None
    assert human.tobytes() == hm.predict(model, history, horizon=steps).tobytes()


def test_constraint_spec_validation():
    # a kind is a key of the constraint table; an experiment's name is none
    for kind in ("warp", "pickup_handover"):
        with pytest.raises(obj.ProblemError, match=f"unknown constraint kind '{kind}'"):
            obj.ConstraintSpec(kind=kind)
    with pytest.raises(obj.ProblemError):
        obj.ConstraintSpec(kind="goal", agent="human")  # missing link/target
    with pytest.raises(obj.ProblemError):
        obj.ConstraintSpec(kind="joint_clearance", clearance=-0.5)
    with pytest.raises(obj.ProblemError):
        obj.ObjectiveWeights(weight_human=0.0, weight_robot=0.0)
    with pytest.raises(obj.ProblemError, match="weight_robot"):
        obj.ObjectiveWeights(weight_robot="10")
    for name, bad in (("clearance", "0.5"), ("target", (0.1, 0.0))):
        with pytest.raises(obj.ProblemError, match=name):
            obj.ConstraintSpec(kind="collision", agent="robot", **{name: bad})


@pytest.mark.parametrize("steps", [0, -1, True, 2.5])
def test_problem_steps_must_be_an_integer_of_at_least_1(steps):
    with pytest.raises(obj.ProblemError, match="steps"):
        obj.ProblemSpec(steps=steps, robot_initial=np.zeros(7))


@pytest.mark.parametrize("name, dim", [("fixed_human", 129), ("fixed_robot", 7)])
def test_frozen_trajectory_has_one_row_per_step(name, dim):
    """A frozen agent's rows are the planned steps, whatever else is present."""
    for rows in (3, 5):
        with pytest.raises(obj.ProblemError, match=name):
            obj.ProblemSpec(steps=4, robot_initial=np.zeros(7), **{name: np.zeros((rows, dim))})
    assert obj.ProblemSpec(steps=4, **{name: np.zeros((4, dim))}).steps == 4


def test_problem_missing_agent_errors(observed):
    spec = obj.ConstraintSpec(kind="joint_clearance", clearance=0.5)
    problem = base_problem(observed, steps=3, constraints=[spec], robot=False)
    with pytest.raises(obj.ProblemError, match="no robot"):
        obj.compile_problem(problem, model=hm.init_params(
            hm.ModelConfig(num_layers=1, hidden_size=8, input_frames=4, output_frames=4), 0))


def test_crossing_tape_records_the_human_unroll_as_one_scan_node():
    """Tape-size regression: the joint crossing problem (seed 1) once took
    947 nodes, 572 of them for the per-step GRU unroll, then 347 with
    per-step FK subgraphs."""
    problem = scenarios.make_crossing_problems(1, 1)[0].problem
    tape = obj.compile_problem(problem, model=hm.init_params(hm.ModelConfig(), 0)).tape
    names = [_OP_NAMES[op] for op in tape.ops]
    assert names.count("gru_scan") == 1
    assert "gru_step" not in names
    assert len(tape) <= 120


def test_planning_and_training_tapes_record_every_registered_op(monkeypatch):
    """Every registered primitive has a recording site: the op codes on the
    planning tapes of each problem family and on one training tape cover the
    registered set."""
    model = hm.init_params(hm.ModelConfig(num_layers=1, hidden_size=8), 0)
    crossing = scenarios.make_crossing_problems(1, 1)[0].problem
    frozen = hm.predict(model, crossing.observed_human, horizon=crossing.steps)
    problems = [
        crossing,
        scenarios.make_handover_problems(1, 1)[0].problem,
        scenarios.make_pickup_handover_problem(1, human_base_penalty=1.0).problem,
        scenarios.make_reach_problems(1, 1)[0].problem,
        replace(crossing, fixed_human=frozen),
    ]
    tapes = [obj.compile_problem(p, model=model).tape for p in problems]

    def differentiated(tape, *args, **kwargs):
        tapes.append(tape)
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(hm, "backward", differentiated)
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=2, duration_frames=45), seed=0)
    hm.train([r.frames for r in recs], model.config, 0, epochs=1)
    assert len(tapes) > len(problems)
    recorded = {_OP_NAMES[op] for t in tapes for op in t.ops}
    assert recorded == set(_OP_NAMES.values())
