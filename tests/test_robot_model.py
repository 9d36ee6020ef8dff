"""Robot dynamics and kinematics tests."""

import numpy as np
import pytest

from comotion import robot_model as rm
from comotion import objectives as obj
from comotion.graph import Tape, backward, gradient_check, record
from comotion.kinematics import axis_angle_matrix, yaw_matrix


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


def fk_oracle(config, state, link):
    """Independent FK: homogeneous 4x4 products, one per link."""
    T = np.eye(4)
    T[:2, 3] = state[:2]
    T[:3, :3] = axis_angle_matrix((0.0, 0.0, 1.0), state[2])
    if link == "base":
        return T[:3, 3], T[:3, :3]
    qi = 3
    for l in config.chain:
        L = np.eye(4)
        L[:3, 3] = l.offset
        if l.axis is not None:
            L[:3, :3] = axis_angle_matrix(l.axis, state[qi])
            qi += 1
        T = T @ L
        if l.name == link:
            return T[:3, 3], T[:3, :3]
    raise AssertionError(link)


def test_fk_matches_homogeneous_oracle():
    rng = np.random.default_rng(6)
    config = rm.DEFAULT_ROBOT
    for link in ["base"] + [l.name for l in config.chain]:
        for _ in range(5):
            s = rng.normal(size=7)
            pos, R = rm.robot_fk(config, s, link)
            pos_ref, R_ref = fk_oracle(config, s, link)
            assert np.allclose(pos, pos_ref, atol=1e-12)
            assert np.allclose(R, R_ref, atol=1e-12)


def test_fk_batch_rows_equal_single_state_calls():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(6, 7))
    pos, R = rm.robot_fk(rm.DEFAULT_ROBOT, states, "hand")
    assert pos.shape == (6, 3) and R.shape == (6, 3, 3)
    for i, s in enumerate(states):
        p1, R1 = rm.robot_fk(rm.DEFAULT_ROBOT, s, "hand")
        assert np.array_equal(pos[i], p1) and np.array_equal(R[i], R1)
    with pytest.raises(rm.RobotError, match="7 values"):
        rm.robot_fk(rm.DEFAULT_ROBOT, np.zeros(6), "hand")


def test_fk_graph_matches_numpy():
    """The tape node's forward is the numpy kernel: equal bit for bit."""
    rng = np.random.default_rng(4)
    chain = rm.DEFAULT_ROBOT.kinematic_chain("hand")
    for _ in range(10):
        s = rng.normal(size=7)
        _, out = record(lambda t, r: t.link_point(r["s"], chain), {"s": s})
        ref, _ = rm.robot_fk(rm.DEFAULT_ROBOT, s, "hand")
        assert np.array_equal(out, ref)


def test_fk_graph_gradient():
    """Every state column of a (D,) row and of an (H, D) trajectory; the
    elbow chain never reads the wrist joint."""
    rng = np.random.default_rng(5)
    for s in (rng.normal(size=7), rng.normal(size=(4, 7))):
        d = rng.normal(size=s.shape[:-1] + (3,))
        for link, tip in (("hand", obj.ROBOT_PALM_OFFSET), ("elbow", (0.0, 0.0, 0.0))):
            chain = rm.DEFAULT_ROBOT.kinematic_chain(link, tip)

            def f(t, r):
                return t.sum(t.mul(t.link_point(r["s"], chain), t.const(d)))

            assert gradient_check(f, {"s": s}, step=1e-6) < 1e-8
        tape, _ = record(f, {"s": s})
        assert np.all(backward(tape, np.asarray(1.0))["s"][..., 6] == 0.0)


def test_heading_graph():
    """Planar headings read state columns: the robot's angle, the human's
    base 6-D first column."""
    tape = Tape()
    robot = tape.leaf("r", np.array([[0, 0, np.pi / 3, 0, 0, 0, 0.0]]))
    human = np.zeros((1, 129))
    human[0, 3:9] = [0.0, 2.0, 0.5, -1.0, 0.0, 0.0]
    ctx = obj.GraphContext(tape, tape.leaf("h", human), robot, None)
    assert np.allclose(ctx.heading("robot", 0).value, [np.cos(np.pi / 3), np.sin(np.pi / 3)],
                       atol=1e-15)
    assert np.allclose(ctx.heading("human", 0).value, [0.0, 1.0], atol=1e-12)


def test_control_dims():
    cfg = rm.DEFAULT_ROBOT
    assert cfg.num_joints == 4
    assert cfg.state_dim == 7
    assert cfg.control_dim == 6
    assert cfg.control_bounds().shape == (6,)
