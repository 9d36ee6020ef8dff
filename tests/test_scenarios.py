"""Scenario generator sanity checks."""

import numpy as np
import pytest

from comotion import scenarios as sc
from comotion.data import SynthConfig, synth_generate
from comotion.environment import scene_sdf
from comotion.kinematics import forward_kinematics


def test_reach_problems_goal_is_oracle_wrist():
    instances = sc.make_reach_problems(3, seed=0, observed_frames=10, prediction_frames=20)
    assert len(instances) == 3
    for inst in instances:
        assert inst.problem.plans_human and not inst.problem.plans_robot
        assert inst.ground_truth.shape == (20, 129)
        goal = np.asarray(inst.problem.constraints[0].target)
        wrist, _ = forward_kinematics(inst.ground_truth[-1], "rWrist")
        assert np.allclose(goal, wrist, atol=1e-12)


def test_reach_problems_deterministic():
    a = sc.make_reach_problems(2, seed=3, observed_frames=10, prediction_frames=15)
    b = sc.make_reach_problems(2, seed=3, observed_frames=10, prediction_frames=15)
    assert len(a) == 2
    for x, y in zip(a, b):
        assert np.array_equal(x.problem.observed_human, y.problem.observed_human)


def test_crossing_problems_structure():
    instances = sc.make_crossing_problems(4, seed=1, observed_frames=10,
                                          prediction_frames=24)
    assert len(instances) == 4
    for inst in instances:
        p = inst.problem
        kinds = [c.kind for c in p.constraints]
        assert kinds.count("goal") == 2
        assert kinds.count("collision") == 2
        assert "joint_clearance" in kinds
        # the true human path stays clear of the corridor walls
        path = np.vstack([p.observed_human[:, :2], inst.ground_truth[:, :2]])
        assert float(np.min(scene_sdf(p.scene, path))) > 0.05
        # the robot's start and goal are on opposite corridor sides
        rgoal = next(c.target for c in p.constraints
                     if c.kind == "goal" and c.agent == "robot")
        assert np.sign(rgoal[1]) != np.sign(p.robot_initial[1])


def test_crossing_straight_robot_line_conflicts_with_human():
    """Driving straight to the goal must breach the 0.5 m clearance for at
    least some problems, otherwise the scenario tests nothing."""
    instances = sc.make_crossing_problems(6, seed=2, observed_frames=10,
                                          prediction_frames=24)
    conflicts = 0
    for inst in instances:
        p = inst.problem
        rgoal = next(c.target for c in p.constraints
                     if c.kind == "goal" and c.agent == "robot")
        ts = np.linspace(0, 1, len(inst.ground_truth))
        line = p.robot_initial[:2] + ts[:, None] * (np.asarray(rgoal[:2]) - p.robot_initial[:2])
        dist = np.linalg.norm(line - inst.ground_truth[:, :2], axis=1)
        if float(np.min(dist)) < 0.5:
            conflicts += 1
    assert conflicts >= 3


def test_handover_problems_structure():
    instances = sc.make_handover_problems(3, seed=4, observed_frames=10,
                                          prediction_frames=20)
    assert len(instances) == 3
    for inst in instances:
        kinds = [c.kind for c in inst.problem.constraints]
        assert "handover" in kinds
        assert kinds.count("collision") == 2
        # partner within a plausible approach range
        d = np.linalg.norm(inst.problem.robot_initial[:2]
                           - inst.problem.observed_human[-1, :2])
        assert 0.8 < d < 4.0


def test_pickup_handover_problem():
    inst = sc.make_pickup_handover_problem(seed=5, observed_frames=10,
                                           prediction_frames=20)
    kinds = [c.kind for c in inst.problem.constraints]
    assert kinds == ["joint_goal", "handover"]
    assert inst.problem.weights.human_base_penalty == 0.0
    inst2 = sc.make_pickup_handover_problem(seed=5, observed_frames=10,
                                            prediction_frames=20,
                                            human_base_penalty=25.0)
    assert inst2.problem.weights.human_base_penalty == 25.0
    # same underlying motion in both variants
    assert np.array_equal(inst.problem.observed_human, inst2.problem.observed_human)


def test_walker_shortfall_raises(monkeypatch):
    """Too few walkers that move must raise, never return a shorter list,
    and the message names the pool."""
    def standing(config, seed):
        recs = synth_generate(config, seed)
        for rec in recs:
            rec.frames[:, :2] = rec.frames[0, :2]
        return recs

    monkeypatch.setattr(sc, "synth_generate", standing)
    with pytest.raises(ValueError, match="asked for 2 walking records but only 0 of 6 cover"):
        sc.make_reach_problems(2, seed=0)
    with pytest.raises(ValueError, match="seed 8"):
        sc.make_pickup_handover_problem(seed=5)


def test_walkers_draw_the_pool_only_on_a_shortfall(monkeypatch):
    """`count` records first; the `3 * count` pool only when one of them
    stands, and then its first `count` walkers, in order."""
    drawn = []

    def counted(config, seed):
        drawn.append(config.num_trajectories)
        return synth_generate(config, seed)

    monkeypatch.setattr(sc, "synth_generate", counted)
    walkers = sc._walking_records(2, 0, 60)
    assert drawn == [2]

    def second_stands(config, seed):
        recs = counted(config, seed)
        recs[1].frames[:, :2] = recs[1].frames[0, :2]
        return recs

    drawn.clear()
    monkeypatch.setattr(sc, "synth_generate", second_stands)
    refilled = sc._walking_records(2, 0, 60)
    pool = synth_generate(SynthConfig(num_trajectories=6, duration_frames=60,
                                      max_turn_rate=0.25, reach_frames=12), 0)
    assert drawn == [2, 6]
    assert np.array_equal(refilled[0], walkers[0])
    assert np.array_equal(refilled[1], pool[2].frames)

