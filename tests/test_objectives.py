"""Objective/constraint value and gradient tests against independent oracles."""

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
from comotion.graph import _OP_NAMES, backward, record
from comotion.kinematics import DEFAULT_HUMAN_SKELETON, forward_kinematics
from comotion.robot_model import DEFAULT_ROBOT, robot_fk, robot_unroll
from helpers import identity_state


def grid_distances(grid, points):
    """SDF grid values at (N, 2) points, each looked up on its own."""
    return [float(record(lambda t, r: env.sdf_query_graph(t, grid, r["p"]),
                         {"p": p[None]})[1][0])
            for p in points]


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
    k = observed.shape[0] if human else 0
    return obj.ProblemSpec(
        horizon=k + steps,
        weights=weights or obj.ObjectiveWeights(),
        constraints=list(constraints),
        observed_human=observed if human else None,
        robot_initial=np.array([1.0, -1.8, 1.8, 0.0, 0.0, 0.0, 0.0]) if robot else None,
        scene=scene,
        optimize_human=human,
        optimize_robot=robot,
    )


def rng_theta(compiled, rng, scale=0.02):
    return scale * rng.normal(size=compiled.n)


# -- control objective -------------------------------------------------------


def test_control_objective_zero_and_constant():
    w = obj.ObjectiveWeights()
    H = 6
    zeros = np.zeros((H, hm.MODIFIER_DIM))
    assert obj.control_objective(zeros, np.zeros((H, 6)), w) == 0.0
    const_mod = np.ones((H, hm.MODIFIER_DIM)) * 0.3
    const_ctl = np.ones((H, 6)) * -0.1
    assert obj.control_objective(const_mod, const_ctl, w) == 0.0


def test_control_objective_matches_hand_evaluation():
    rng = np.random.default_rng(0)
    w = obj.ObjectiveWeights(weight_human=3.0, weight_robot=7.0, frame_time=0.05)
    mods = rng.normal(size=(5, hm.MODIFIER_DIM))
    ctls = rng.normal(size=(5, 6))
    expected = 0.0
    for t in range(4):
        expected += 3.0 * np.sum(((mods[t + 1] - mods[t]) / 0.05) ** 2)
        expected += 7.0 * np.sum(((ctls[t + 1] - ctls[t]) / 0.05) ** 2)
    assert obj.control_objective(mods, ctls, w) == pytest.approx(expected, rel=1e-12)


def test_compiled_objective_matches_reference(model, observed):
    rng = np.random.default_rng(1)
    problem = base_problem(observed, steps=5)
    compiled = obj.compile_problem(problem, model=model)
    theta = rng_theta(compiled, rng)
    f, g, h, _ = compiled.evaluate(theta)
    parts = compiled.split(theta)
    ref = obj.control_objective(parts["u_h"].reshape(5, -1), parts["u_r"].reshape(5, -1),
                                problem.weights)
    assert f == pytest.approx(ref, rel=1e-12)
    assert g.size == 0 and h.size == 0


# -- goal constraint ---------------------------------------------------------


def test_goal_constraint_zero_when_on_target(model, observed):
    pred = hm.predict(model, observed, horizon=5)
    target, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, pred[-1], "rWrist")
    spec = obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                              timestep="final", target=tuple(target))
    problem = base_problem(observed, steps=5, constraints=[spec], robot=False)
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert h[0] == pytest.approx(0.0, abs=1e-18)


def test_goal_constraint_one_meter_away(model, observed):
    pred = hm.predict(model, observed, horizon=5)
    target, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, pred[-1], "rWrist")
    spec = obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                              timestep="final", target=(target[0] + 1.0, target[1], target[2]))
    problem = base_problem(observed, steps=5, constraints=[spec], robot=False)
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    # the graph-side norm regularization (1e-12) shifts FK at the 1e-12 level
    assert h[0] == pytest.approx(1.0, abs=1e-9)


def test_robot_goal_constraint_value(observed):
    spec = obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                              timestep="final", target=(0.0, 0.0, 0.0))
    problem = base_problem(observed, steps=4, constraints=[spec], human=False)
    compiled = obj.compile_problem(problem)
    rng = np.random.default_rng(2)
    theta = 0.1 * rng.normal(size=compiled.n)
    _, _, h, ev = compiled.evaluate(theta)
    states = robot_unroll(problem.robot_initial, theta.reshape(4, -1))
    pos, _ = robot_fk(DEFAULT_ROBOT, states[-1], "base")
    assert h[0] == pytest.approx(float(np.sum(pos ** 2)), rel=1e-12)


# -- collision constraint ----------------------------------------------------


def test_collision_sign_and_hard_max(observed):
    scene = small_scene()
    grid = env.build_sdf(scene)
    spec = obj.ConstraintSpec(kind="collision", agent="robot", aggregation="hard_max")
    problem = base_problem(observed, steps=6, constraints=[spec], scene=scene, human=False)
    compiled = obj.compile_problem(problem, sdf=grid)
    # standing far from all obstacles: feasible, value <= 0
    _, g, _, ev = compiled.evaluate(np.zeros(compiled.n))
    assert g[0] <= 0.0
    robot_traj = compiled.trajectories(ev)[1]
    assert g[0] == pytest.approx(-min(grid_distances(grid, robot_traj[:, :2])), rel=1e-12)


def test_collision_soft_max_upper_bounds_hard_max(observed):
    scene = small_scene()
    grid = env.build_sdf(scene)
    rng = np.random.default_rng(3)
    for trial in range(5):
        theta = 0.1 * rng.normal(size=6 * 6)
        results = {}
        for agg, tau in (("hard_max", None), ("soft_max", 0.01), ("soft_max", 0.001)):
            spec = obj.ConstraintSpec(kind="collision", agent="robot", aggregation=agg,
                                      temperature=tau)
            problem = base_problem(observed, steps=6, constraints=[spec], scene=scene,
                                   human=False)
            compiled = obj.compile_problem(problem, sdf=grid)
            _, g, _, _ = compiled.evaluate(theta)
            results[(agg, tau)] = g[0]
        hard = results[("hard_max", None)]
        assert results[("soft_max", 0.01)] >= hard
        assert results[("soft_max", 0.001)] >= hard
        # temperature -> 0 converges to the hard maximum (bound tau*ln(T))
        assert results[("soft_max", 0.001)] - hard <= 0.001 * np.log(6) + 1e-12
        assert abs(results[("soft_max", 0.001)] - hard) < abs(results[("soft_max", 0.01)] - hard) + 1e-12


def test_collision_margin_shifts_value(observed):
    scene = small_scene()
    grid = env.build_sdf(scene)
    vals = {}
    for margin in (0.0, 0.3):
        spec = obj.ConstraintSpec(kind="collision", agent="robot", aggregation="hard_max",
                                  margin=margin)
        problem = base_problem(observed, steps=3, constraints=[spec], scene=scene, human=False)
        compiled = obj.compile_problem(problem, sdf=grid)
        _, g, _, _ = compiled.evaluate(np.zeros(compiled.n))
        vals[margin] = g[0]
    assert vals[0.3] == pytest.approx(vals[0.0] + 0.3, rel=1e-12)


# -- joint clearance ---------------------------------------------------------


def test_clearance_algebra(model, observed):
    d = 0.5
    spec = obj.ConstraintSpec(kind="joint_clearance", clearance=d, aggregation="per_timestep")
    problem = base_problem(observed, steps=3, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    _, g, _, ev = compiled.evaluate(np.zeros(compiled.n))
    human, robot = compiled.trajectories(ev)
    for t in range(3):
        dist2 = float(np.sum((human[t, :2] - robot[t, :2]) ** 2))
        assert g[t] == pytest.approx(d * d - dist2, rel=1e-12)


def test_clearance_agents_two_d_apart():
    # frozen straight-line agents exactly 2d apart: value is -3 d^2 per step
    d = 0.5
    H = 4
    human = np.zeros((H, 129))
    human[:, 1] = 2 * d  # human base at y = 2d
    for t in range(H):
        human[t] = identity_state((0.0, 2 * d, 0.9))
    robot = np.zeros((H, 7))
    spec = obj.ConstraintSpec(kind="joint_clearance", clearance=d, aggregation="per_timestep")
    problem = obj.ProblemSpec(
        horizon=H, constraints=[spec], optimize_human=False, fixed_human=human,
        robot_initial=np.zeros(7), optimize_robot=True,
    )
    compiled = obj.compile_problem(problem)
    _, g, _, _ = compiled.evaluate(np.zeros(compiled.n))
    assert np.allclose(g, -3 * d * d, atol=1e-12)


def test_per_timestep_constraints_enter_the_output_as_vectors():
    """No per-step slices: each per_timestep constraint is its (H,) vector,
    named kind[i].0 .. kind[i].H-1."""
    H = 4
    scene = small_scene()
    grid = env.build_sdf(scene)
    human = np.stack([identity_state((0.3 * t, 0.5, 0.9)) for t in range(H)])
    problem = obj.ProblemSpec(
        horizon=H,
        # no robot control cost, whose finite differences are slices
        weights=obj.ObjectiveWeights(weight_human=1.0, weight_robot=0.0),
        constraints=[
            obj.ConstraintSpec(kind="collision", agent="robot", aggregation="per_timestep",
                               margin=0.1),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5,
                               aggregation="per_timestep"),
        ],
        optimize_human=False, fixed_human=human,
        robot_initial=np.array([1.0, -1.8, 1.8, 0.0, 0.0, 0.0, 0.0]),
    )
    compiled = obj.compile_problem(problem, sdf=grid)
    assert "slice" not in [_OP_NAMES[op] for op in compiled.tape.ops]
    assert compiled.ineq_names == ([f"collision[0].{t}" for t in range(H)]
                                   + [f"joint_clearance[1].{t}" for t in range(H)])
    assert compiled.num_ineq == 2 * H
    rng = np.random.default_rng(12)
    _, g, _, ev = compiled.evaluate(0.1 * rng.normal(size=compiled.n))
    robot = compiled.trajectories(ev)[1]
    dists = grid_distances(grid, robot[:, :2])
    for t in range(H):
        assert g[t] == pytest.approx(0.1 - dists[t], rel=1e-12)
        dist2 = float(np.sum((human[t, :2] - robot[t, :2]) ** 2))
        assert g[H + t] == pytest.approx(0.25 - dist2, rel=1e-12)


# -- joint goal --------------------------------------------------------------


def hard_min_hand_distances(human, robot, target, spec):
    dists = []
    for t in range(len(human)):
        pos, R = forward_kinematics(DEFAULT_HUMAN_SKELETON, human[t], "rWrist")
        p = pos + R @ np.asarray(spec.palm_offset_human)
        dists.append(np.sum((p - target) ** 2))
    for t in range(len(robot)):
        pos, R = robot_fk(DEFAULT_ROBOT, robot[t], "hand")
        p = pos + R @ np.asarray(spec.palm_offset_robot)
        dists.append(np.sum((p - target) ** 2))
    return float(np.min(dists))


def test_joint_goal_approximates_hard_min(model, observed):
    rng = np.random.default_rng(4)
    target = (0.8, -1.0, 0.8)
    spec = obj.ConstraintSpec(kind="joint_goal", target=target, temperature=0.002)
    problem = base_problem(observed, steps=4, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    for _ in range(3):
        theta = rng_theta(compiled, rng, scale=0.05)
        _, _, h, ev = compiled.evaluate(theta)
        human, robot = compiled.trajectories(ev)
        hard = hard_min_hand_distances(human, robot, np.asarray(target), spec)
        assert h[0] <= hard + 1e-12
        assert h[0] >= hard - 0.002 * np.log(2 * 4) - 1e-12


def test_joint_goal_small_when_hand_on_target(model, observed):
    pred = hm.predict(model, observed, horizon=4)
    pos, R = forward_kinematics(DEFAULT_HUMAN_SKELETON, pred[2], "rWrist")
    target = tuple(pos + R @ np.asarray(obj.DEFAULT_HUMAN_PALM_OFFSET))
    tau = 0.05
    spec = obj.ConstraintSpec(kind="joint_goal", target=target, temperature=tau)
    problem = base_problem(observed, steps=4, constraints=[spec])
    compiled = obj.compile_problem(problem, model=model)
    _, _, h, _ = compiled.evaluate(np.zeros(compiled.n))
    assert abs(h[0]) <= tau * np.log(2 * 4) + 1e-12


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
    problem = obj.ProblemSpec(horizon=3, constraints=[spec], optimize_human=False,
                              fixed_human=human, robot_initial=robot[0],
                              optimize_robot=True)
    compiled = obj.compile_problem(problem)
    _, _, h, ev = compiled.evaluate(np.zeros(compiled.n))
    hu, ro = compiled.trajectories(ev)
    ph, Rh = forward_kinematics(DEFAULT_HUMAN_SKELETON, hu[-1], "rWrist")
    ph = ph + Rh @ np.asarray(obj.DEFAULT_HUMAN_PALM_OFFSET)
    pr, Rr = robot_fk(DEFAULT_ROBOT, ro[-1], "hand")
    pr = pr + Rr @ np.asarray(obj.DEFAULT_ROBOT_PALM_OFFSET)
    expected = float(np.sum((ph - pr) ** 2)) + 2.0
    assert h[0] == pytest.approx(expected, rel=1e-9)


def test_handover_face_to_face_palms_touching_is_zero():
    human, robot = frozen_pair_problem(face_to_face=True)
    # choose the robot x so the palm points coincide; solve for hand positions
    ph, Rh = forward_kinematics(DEFAULT_HUMAN_SKELETON, human[-1], "rWrist")
    palm_h = ph + Rh @ np.asarray(obj.DEFAULT_HUMAN_PALM_OFFSET)
    pr, Rr = robot_fk(DEFAULT_ROBOT, np.zeros(7), "hand")
    palm_r0 = pr + Rr @ np.asarray(obj.DEFAULT_ROBOT_PALM_OFFSET)
    shift = palm_h - palm_r0
    spec = obj.ConstraintSpec(
        kind="handover",
        palm_offset_human=obj.DEFAULT_HUMAN_PALM_OFFSET,
        palm_offset_robot=(
            obj.DEFAULT_ROBOT_PALM_OFFSET[0],
            obj.DEFAULT_ROBOT_PALM_OFFSET[1],
            obj.DEFAULT_ROBOT_PALM_OFFSET[2] + shift[2],
        ),
    )
    robot = np.zeros((3, 7))
    robot[:, 0] = shift[0]
    robot[:, 1] = shift[1]
    problem = obj.ProblemSpec(horizon=3, constraints=[spec], optimize_human=False,
                              fixed_human=human, robot_initial=robot[0],
                              optimize_robot=True)
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
    wrist, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, pred[-1], "rWrist")
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
            obj.ConstraintSpec(kind="collision", agent="robot", aggregation="hard_max"),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5, aggregation="hard_max"),
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
    # the SDF grid shifts rigidly with the scene, so values match to grid accuracy
    assert np.allclose(g1, g0, atol=1e-9)
    assert np.allclose(h1, h0, atol=1e-9)


def _planar_motion(psi, shift):
    c, s = np.cos(psi), np.sin(psi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return lambda p: rot @ p + np.array([shift[0], shift[1], 0.0]), rot


_FROZEN_HUMAN = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=12,
                                                 reach_frames=4), seed=7)[0].frames[-4:]


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
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.5,
                               aggregation="per_timestep"),
            obj.ConstraintSpec(kind="joint_goal", target=tuple(tg["pick"])),
            obj.ConstraintSpec(kind="handover"),
        ]
        problem = obj.ProblemSpec(horizon=len(h), constraints=constraints,
                                  optimize_human=False, fixed_human=h, robot_initial=r)
        _, g, eq, _ = obj.compile_problem(problem).evaluate(theta)
        values.append(np.concatenate([g, eq]))
    assert np.allclose(values[1], values[0], rtol=0, atol=1e-9)


# -- gradients through everything ---------------------------------------------


def test_all_constraint_gradients_match_finite_differences(model, observed):
    rng = np.random.default_rng(6)
    scene = small_scene()
    target = (0.6, -0.9, 0.85)
    constraints = [
        obj.ConstraintSpec(kind="goal", agent="human", link="rWrist", target=target),
        obj.ConstraintSpec(kind="goal", agent="robot", link="base", target=(0.0, 0.5, 0.0)),
        obj.ConstraintSpec(kind="collision", agent="robot", aggregation="soft_max"),
        obj.ConstraintSpec(kind="collision", agent="human", aggregation="soft_max"),
        obj.ConstraintSpec(kind="joint_clearance", clearance=0.5, aggregation="soft_max"),
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


# -- problem files -------------------------------------------------------------


def test_problem_file_round_trip(tmp_path, observed):
    scene = small_scene()
    constraints = [
        obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                           target=(0.1234567890123, -1.0, 0.85)),
        obj.ConstraintSpec(kind="joint_clearance", clearance=0.5, aggregation="soft_max",
                           temperature=0.02),
    ]
    problem = base_problem(observed, steps=5, constraints=constraints, scene=scene,
                           weights=obj.ObjectiveWeights(weight_human=100.0, weight_robot=1.0))
    problem.model_path = "model.weights"
    path = tmp_path / "problem.json"
    obj.save_problem(problem, path)
    loaded = obj.load_problem(path)
    assert loaded.horizon == problem.horizon
    assert loaded.weights == problem.weights
    assert loaded.constraints == problem.constraints
    assert loaded.scene == problem.scene
    assert loaded.model_path == "model.weights"
    assert np.array_equal(loaded.observed_human, problem.observed_human)
    assert np.array_equal(loaded.robot_initial, problem.robot_initial)
    # exact round trip: saving again yields an identical file
    path2 = tmp_path / "problem2.json"
    obj.save_problem(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_constraint_spec_validation():
    with pytest.raises(obj.ProblemError):
        obj.ConstraintSpec(kind="warp")
    with pytest.raises(obj.ProblemError):
        obj.ConstraintSpec(kind="goal", agent="human")  # missing link/target
    with pytest.raises(obj.ProblemError):
        obj.ConstraintSpec(kind="joint_clearance", clearance=-0.5)
    with pytest.raises(obj.ProblemError):
        obj.ObjectiveWeights(weight_human=0.0, weight_robot=0.0)


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
    hard_max = [replace(c, aggregation="hard_max") if c.kind == "collision" else c
                for c in crossing.constraints]
    frozen = hm.predict(model, crossing.observed_human, horizon=crossing.steps)
    problems = [
        crossing,
        scenarios.make_handover_problems(1, 1)[0].problem,
        scenarios.make_pickup_handover_problem(1, human_base_penalty=1.0).problem,
        scenarios.make_reach_problems(1, 1)[0].problem,
        replace(crossing, constraints=hard_max),
        replace(crossing, optimize_human=False, fixed_human=frozen),
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
