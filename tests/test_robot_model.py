"""Robot dynamics and kinematics tests."""

import numpy as np
import pytest

from comotion import robot_model as rm
from comotion.graph import Tape, gradient_check, record
from comotion.kinematics import yaw_matrix


def zero_state(config=rm.DEFAULT_ROBOT):
    return np.zeros(config.state_dim)


def test_zero_controls_keep_state():
    s = np.array([1.0, 2.0, 0.5, 0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(rm.robot_step(s, np.zeros(6)), s)


def test_straight_line_integration():
    s = zero_state()
    u = np.zeros(6)
    u[0] = 0.1
    for _ in range(10):
        s = rm.robot_step(s, u)
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert s[1] == 0.0


def test_turn_then_drive_moves_along_y():
    s = zero_state()
    turn = np.zeros(6)
    turn[1] = np.pi / 2
    s = rm.robot_step(s, turn)
    fwd = np.zeros(6)
    fwd[0] = 1.0
    s = rm.robot_step(s, fwd)
    assert np.allclose(s[:2], [0.0, 1.0], atol=1e-12)


def test_unroll_matches_sequential_steps():
    rng = np.random.default_rng(0)
    init = rng.normal(size=7)
    controls = 0.1 * rng.normal(size=(12, 6))
    states = rm.robot_unroll(init, controls)
    s = init
    for t in range(12):
        s = rm.robot_step(s, controls[t])
        assert np.array_equal(states[t], s)


def test_unroll_zero_controls_constant():
    init = np.array([0.3, -0.2, 1.0, 0.0, 0.0, 0.0, 0.0])
    states = rm.robot_unroll(init, np.zeros((5, 6)))
    assert np.allclose(states, init, atol=0)


def test_unroll_graph_matches_numpy():
    rng = np.random.default_rng(1)
    init = rng.normal(size=7)
    controls = 0.1 * rng.normal(size=(8, 6))
    tape = Tape()
    ref = tape.leaf("u", controls.reshape(-1))
    states = rm.robot_unroll_graph(tape, init, ref, 8, 7)
    s = init
    for t in range(8):
        s = rm.robot_step(s, controls[t])
        assert np.array_equal(states.value[t], s)


def test_unroll_gradient_matches_finite_differences_horizon_40():
    rng = np.random.default_rng(2)
    init = np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0])
    controls = 0.05 * rng.normal(size=(40, 6))

    def f(t, r):
        states = rm.robot_unroll_graph(t, init, r["u"], 40, 7)
        return t.sum_squares(t.row(states, -1))

    err = gradient_check(f, {"u": controls.reshape(-1)}, step=1e-6,
                         coords_per_leaf=60, rng=rng)
    assert err < 1e-6


def test_path_length_equals_forward_sum_when_straight():
    rng = np.random.default_rng(3)
    controls = np.zeros((25, 6))
    controls[:, 0] = rng.uniform(-0.15, 0.15, size=25)
    states = rm.robot_unroll(zero_state(), controls)
    path = np.vstack([zero_state()[:2], states[:, :2]])
    travel = np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1))
    assert travel == pytest.approx(np.sum(np.abs(controls[:, 0])), abs=1e-12)


def test_fk_base_link():
    s = np.array([1.0, 2.0, np.pi / 2, 0, 0, 0, 0])
    pos, R = rm.robot_fk(rm.DEFAULT_ROBOT, s, "base")
    assert np.allclose(pos, [1.0, 2.0, 0.0])
    assert np.allclose(R, yaw_matrix(np.pi / 2), atol=1e-12)


def test_fk_hand_at_zero_joints():
    s = zero_state()
    pos, _ = rm.robot_fk(rm.DEFAULT_ROBOT, s, "hand")
    # chain offsets accumulate with identity joint rotations
    assert np.allclose(pos, [0.57, -0.15, 0.80], atol=1e-12)


def test_fk_hand_follows_base_yaw():
    s = zero_state()
    s[2] = np.pi / 2
    pos, _ = rm.robot_fk(rm.DEFAULT_ROBOT, s, "hand")
    assert np.allclose(pos, [0.15, 0.57, 0.80], atol=1e-12)


def test_fk_unknown_link():
    with pytest.raises(rm.RobotError, match="unknown link"):
        rm.robot_fk(rm.DEFAULT_ROBOT, zero_state(), "tentacle")


def test_fk_graph_matches_numpy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = rng.normal(size=7)

        def f(t, r):
            pos, _ = rm.robot_fk_graph(t, rm.DEFAULT_ROBOT, r["s"], "hand")
            return pos

        _, out = record(f, {"s": s})
        ref, _ = rm.robot_fk(rm.DEFAULT_ROBOT, s, "hand")
        assert np.allclose(out.data, ref, atol=1e-12)


def test_fk_graph_gradient():
    rng = np.random.default_rng(5)
    s = rng.normal(size=7)
    d = rng.normal(size=3)

    def f(t, r):
        pos, _ = rm.robot_fk_graph(t, rm.DEFAULT_ROBOT, r["s"], "hand")
        return t.dot(pos, t.const(d))

    assert gradient_check(f, {"s": s}, step=1e-6) < 1e-6


def test_heading_graph():
    def f(t, r):
        return rm.heading_graph(t, r["s"])

    _, out = record(f, {"s": np.array([0, 0, np.pi / 3, 0, 0, 0, 0.0])})
    assert np.allclose(out.data, [np.cos(np.pi / 3), np.sin(np.pi / 3)], atol=1e-15)


def test_robot_config_round_trip(tmp_path):
    path = tmp_path / "robot.json"
    rm.save_robot(rm.DEFAULT_ROBOT, path)
    assert rm.load_robot(path) == rm.DEFAULT_ROBOT


def test_control_dims():
    cfg = rm.DEFAULT_ROBOT
    assert cfg.num_joints == 4
    assert cfg.state_dim == 7
    assert cfg.control_dim == 6
    assert cfg.control_bounds().shape == (6,)
