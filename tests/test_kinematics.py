"""Rotation representation and forward-kinematics tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion.chains import gram_schmidt
from comotion.graph import backward, gradient_check, record
from comotion.kinematics import (
    HUMAN_JOINT_NAMES,
    HUMAN_JOINTS,
    STATE_DIM,
    KinematicsError,
    axis_angle_matrix,
    forward_kinematics,
    kinematic_chain,
    matrix_to_rot6d,
    quat_from_matrix,
    quat_from_rot6d,
    quat_to_matrix,
    relative_angle,
    rot6d_from_quat,
    rot6d_to_matrix,
    yaw_matrix,
)
from helpers import identity_state


def random_rotation(rng) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis_angle_matrix(axis, rng.uniform(-np.pi, np.pi))


def test_rot6d_identity():
    R = rot6d_to_matrix([1, 0, 0, 0, 1, 0])
    assert np.allclose(R, np.eye(3), atol=1e-15)


def test_rot6d_quarter_turn_about_z():
    R = rot6d_to_matrix([0, 1, 0, -1, 0, 0])
    assert np.allclose(R, yaw_matrix(np.pi / 2), atol=1e-15)
    assert np.allclose(matrix_to_rot6d(yaw_matrix(np.pi / 2)), [0, 1, 0, -1, 0, 0], atol=1e-15)


def test_rot6d_round_trip_1000_rotations():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        R = random_rotation(rng)
        back = rot6d_to_matrix(matrix_to_rot6d(R))
        worst = max(worst, float(np.abs(back - R).max()))
    assert worst < 1e-9


def test_rot6d_output_is_orthonormal_for_noisy_input():
    rng = np.random.default_rng(1)
    for _ in range(100):
        r = rng.normal(size=6)
        R = rot6d_to_matrix(r)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_rot6d_degenerate_columns_rejected():
    with pytest.raises(KinematicsError, match="degenerate"):
        rot6d_to_matrix([1, 0, 0, 2, 0, 0])
    with pytest.raises(KinematicsError, match="degenerate"):
        rot6d_to_matrix([0, 0, 0, 0, 1, 0])


def test_matrix_to_rot6d_rejects_non_orthonormal():
    with pytest.raises(KinematicsError):
        matrix_to_rot6d(np.eye(3) * 1.5)


def test_matrix_to_rot6d_rejects_a_reflection_and_a_skew_past_1e_6():
    """An orthonormal reflection (a rotation with one column negated) fails
    the column triple product's sign; a rotation with one entry skewed by
    1e-5 fails the orthonormality check.  Each raises inside a batch whose
    other matrix is the rotation itself, which passes alone."""
    R = axis_angle_matrix([0.3, -0.5, 0.8], 1.1)
    assert np.array_equal(matrix_to_rot6d(R), np.concatenate([R[:, 0], R[:, 1]]))
    mirrored = R * [1.0, -1.0, 1.0]
    skewed = R.copy()
    skewed[0, 1] += 1e-5
    for bad, why in ((mirrored, "reflection"), (skewed, "orthonormality")):
        with pytest.raises(KinematicsError, match=why):
            matrix_to_rot6d(np.stack([R, bad]))


def test_quaternion_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        R = random_rotation(rng)
        assert np.allclose(quat_to_matrix(quat_from_matrix(R)), R, atol=1e-12)


def test_relative_angle_basics():
    rng = np.random.default_rng(3)
    q = quat_from_matrix(random_rotation(rng))
    assert relative_angle(q, q) == 0.0
    assert relative_angle(q, -q) == 0.0  # double cover
    qz = quat_from_matrix(yaw_matrix(np.pi / 2))
    qi = np.array([1.0, 0.0, 0.0, 0.0])
    assert relative_angle(qz, qi) == pytest.approx(np.pi / 2, abs=1e-12)


def test_relative_angle_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        qa = quat_from_matrix(random_rotation(rng))
        qb = quat_from_matrix(random_rotation(rng))
        assert relative_angle(qa, qb) == pytest.approx(relative_angle(qb, qa), abs=1e-14)


def test_relative_angle_keeps_relative_precision_from_1e_12_to_3_rad():
    """Near-identical rotations report their angle, not rounding noise, and
    either sign of a quaternion gives the same angle."""
    rng = np.random.default_rng(12)
    for angle in np.geomspace(1e-12, 3.0, 60):
        q1 = quat_from_matrix(random_rotation(rng))
        q2 = quat_from_matrix(quat_to_matrix(q1) @ axis_angle_matrix(rng.normal(size=3), angle))
        for sign in (1.0, -1.0):
            assert relative_angle(q1, sign * q2) == pytest.approx(angle, rel=1e-3)


# Quaternions whose rotations have trace <= 0: half turns about x, y, z and a
# skew axis (trace -1) and a third of a turn about (1, 1, 1) (trace 0, equal
# diagonal), so every batch below meets each Shepperd branch.
NONPOSITIVE_TRACE = np.array([[0.0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0.6, 0.8, 0],
                              [0.5, 0.5, 0.5, 0.5]])
quaternion_lists = st.lists(
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.dot(q, q) > 1e-2),
    min_size=1, max_size=12)


def test_batched_conversions_keep_their_input_checks():
    bad6 = np.tile([1.0, 0, 0, 0, 1, 0], (4, 1))
    bad6[2] = [1, 0, 0, 2, 0, 0]
    for fn, arg in ((rot6d_to_matrix, bad6), (quat_from_rot6d, bad6.reshape(2, 2, 6))):
        with pytest.raises(KinematicsError, match="degenerate"):
            fn(arg)
    for wrong in (1.5 * np.eye(3), np.diag([1.0, 1.0, -1.0])):
        mats = np.tile(np.eye(3), (3, 1, 1))
        mats[1] = wrong
        with pytest.raises(KinematicsError, match="not a rotation"):
            matrix_to_rot6d(mats)
    for fn, arg in ((rot6d_to_matrix, np.zeros((4, 5))), (rot6d_to_matrix, 1.0),
                    (matrix_to_rot6d, np.zeros((2, 3, 4))), (quat_from_matrix, np.zeros(9)),
                    (quat_to_matrix, np.zeros((3, 3))), (rot6d_from_quat, np.zeros(3))):
        with pytest.raises(KinematicsError, match="expected"):
            fn(arg)
    q = quat_from_matrix(yaw_matrix(0.3))
    assert rot6d_to_matrix(matrix_to_rot6d(np.eye(3))).shape == (3, 3)
    assert q.shape == (4,) and quat_to_matrix(q).shape == (3, 3)
    assert rot6d_from_quat(q).shape == (6,) and quat_from_rot6d(rot6d_from_quat(q)).shape == (4,)
    assert isinstance(relative_angle(q, q), float)
    assert rot6d_to_matrix(np.zeros((0, 6))).shape == (0, 3, 3)
    assert quat_from_matrix(np.zeros((0, 3, 3))).shape == (0, 4)


_axes = st.one_of(
    st.just((0.0, 1.0, 0.0)),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 1e-3),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(axis=_axes, angles=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40))
def test_batched_rotations_equal_the_one_angle_calls(axis, angles):
    """axis_angle_matrix and yaw_matrix over an angle array (k,) or (1, k)
    equal their k one-angle calls bit for bit."""
    angles = np.array(angles)
    for rotation, args in ((axis_angle_matrix, (axis,)), (yaw_matrix, ())):
        one_by_one = np.stack([rotation(*args, float(a)) for a in angles])
        assert np.array_equal(rotation(*args, angles), one_by_one)
        assert np.array_equal(rotation(*args, angles[None]), one_by_one[None])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(drawn=quaternion_lists, noise=st.floats(0.0, 0.3))
def test_batched_conversions_match_row_by_row(drawn, noise):
    """Every conversion over an (n, k) batch equals its n single-row calls
    within 1e-15, and Shepperd's sign convention holds on both branches."""
    q = np.vstack([np.array(drawn), NONPOSITIVE_TRACE])
    R = quat_to_matrix(q)
    r6 = matrix_to_rot6d(R) + noise * np.cos(np.arange(q.shape[0] * 6)).reshape(-1, 6)
    unit = q / np.linalg.norm(q, axis=1, keepdims=True)
    cases = ((rot6d_to_matrix, (r6,)), (matrix_to_rot6d, (R,)), (quat_from_matrix, (R,)),
             (quat_to_matrix, (q,)), (quat_from_rot6d, (r6,)), (rot6d_from_quat, (q,)),
             (relative_angle, (unit, unit[::-1])))
    for fn, args in cases:
        batch = fn(*args)
        rows = np.stack([fn(*(a[i] for a in args)) for i in range(len(q))])
        assert batch.shape == rows.shape
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)
        np.testing.assert_allclose(fn(*(a[None] for a in args))[0], batch, rtol=0, atol=1e-15)
    quats = quat_from_matrix(R)
    trace = np.trace(R, axis1=1, axis2=2)
    lead = np.argmax(np.diagonal(R, axis1=1, axis2=2), axis=1) + 1
    assert np.any(trace <= 0)
    assert np.all(np.where(trace > 0, quats[:, 0], quats[np.arange(len(q)), lead]) > 0)
    np.testing.assert_allclose(quat_to_matrix(quats), R, rtol=0, atol=1e-12)


def random_state(rng) -> np.ndarray:
    state = np.empty(STATE_DIM)
    state[:3] = rng.uniform(-2, 2, size=3)
    for j in range(21):
        state[3 + 6 * j : 9 + 6 * j] = matrix_to_rot6d(random_rotation(rng))
    return state


def joint_path(link):
    """Indices of the joints from the root down to ``link`` inclusive."""
    path = [HUMAN_JOINT_NAMES.index(link)]
    while path[-1] > 0:
        path.append(HUMAN_JOINTS[path[-1]][1])
    return path[::-1]


def fk_oracle(state, link):
    """Independent FK using homogeneous 4x4 stacks."""
    T = np.eye(4)
    T[:3, 3] = state[:3]
    T[:3, :3] = rot6d_to_matrix(state[3:9])
    for idx in joint_path(link)[1:]:
        L = np.eye(4)
        L[:3, 3] = HUMAN_JOINTS[idx][2]
        L[:3, :3] = rot6d_to_matrix(state[3 + 6 * idx : 9 + 6 * idx])
        T = T @ L
    return T[:3, 3], T[:3, :3]


def test_fk_identity_pose_sums_offsets():
    state = identity_state(base_pos=(1.0, 2.0, 0.9))
    pos, R = forward_kinematics(state, "rWrist")
    expected = np.array([1.0, 2.0, 0.9])
    for idx in joint_path("rWrist")[1:]:
        expected = expected + np.asarray(HUMAN_JOINTS[idx][2])
    assert np.allclose(pos, expected, atol=1e-15)
    assert np.allclose(R, np.eye(3), atol=1e-15)


def test_fk_rotated_base_moves_child():
    """A quarter turn of the base about z carries the left hip, a child of
    the base at (0, 0.09, -0.05), to (-0.09, 0, -0.05) from the base."""
    state = identity_state(base_pos=(0.5, 0.5, 0.0))
    state[3:9] = matrix_to_rot6d(yaw_matrix(np.pi / 2))
    pos, _ = forward_kinematics(state, "lHip")
    assert np.allclose(pos, [0.41, 0.5, -0.05], atol=1e-15)


def test_fk_matches_homogeneous_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        state = random_state(rng)
        link = HUMAN_JOINT_NAMES[rng.integers(0, 21)]
        pos, R = forward_kinematics(state, link)
        pos_ref, R_ref = fk_oracle(state, link)
        assert np.allclose(pos, pos_ref, atol=1e-9)
        assert np.allclose(R, R_ref, atol=1e-9)


def test_fk_unknown_link():
    with pytest.raises(KinematicsError, match="unknown link"):
        forward_kinematics(identity_state(), "tail")


def test_fk_batch_rows_equal_single_state_calls():
    rng = np.random.default_rng(10)
    states = np.stack([random_state(rng) for _ in range(6)])
    pos, R = forward_kinematics(states, "rWrist")
    assert pos.shape == (6, 3) and R.shape == (6, 3, 3)
    for i, state in enumerate(states):
        p1, R1 = forward_kinematics(state, "rWrist")
        assert np.array_equal(pos[i], p1) and np.array_equal(R[i], R1)


def test_fk_rejects_degenerate_rotation_and_bad_shape():
    states = np.stack([identity_state()] * 3)
    states[1, 3 + 6 * 11 : 9 + 6 * 11] = [1, 0, 0, 2, 0, 0]  # rElbow, on the rWrist chain
    with pytest.raises(KinematicsError, match="degenerate"):
        forward_kinematics(states, "rWrist")
    forward_kinematics(states, "lWrist")  # off that chain
    with pytest.raises(KinematicsError, match="129"):
        forward_kinematics(np.zeros(128), "rWrist")


def point_graph(link, tip=(0.0, 0.0, 0.0)):
    chain = kinematic_chain(link, tip)
    return lambda t, r: t.link_point(r["state"], chain)


def test_fk_graph_matches_numpy():
    """The tape node's forward is the numpy kernel: equal bit for bit."""
    rng = np.random.default_rng(6)
    for link in ["rWrist", "head", "lToe", "base"]:
        state = random_state(rng)
        _, out = record(point_graph(link), {"state": state})
        pos_ref, _ = forward_kinematics(state, link)
        assert np.array_equal(out, pos_ref)
        states = np.stack([state, random_state(rng)])
        _, out = record(point_graph(link), {"state": states})
        assert np.array_equal(out, forward_kinematics(states, link)[0])


def test_fk_graph_orientation_matches_numpy():
    """A unit tip offset e_k moves the point by the link's k-th axis."""
    rng = np.random.default_rng(7)
    state = random_state(rng)
    pos, R = forward_kinematics(state, "rWrist")
    for k in range(3):
        _, out = record(point_graph("rWrist", np.eye(3)[k]), {"state": state})
        assert np.allclose(out - pos, R[:, k], atol=1e-12)


def test_fk_gradient_matches_finite_differences():
    """Every state column of a (D,) row and of an (H, D) trajectory; columns
    off the chain get exactly 0."""
    rng = np.random.default_rng(8)
    chain = kinematic_chain("rWrist", (0.0, -0.1, 0.0))
    on_chain = np.zeros(STATE_DIM, dtype=bool)
    on_chain[:3] = True
    for i in joint_path("rWrist"):
        on_chain[3 + 6 * i : 9 + 6 * i] = True
    for state in (random_state(rng), np.stack([random_state(rng) for _ in range(4)])):
        state = state + 0.1 * rng.normal(size=state.shape)  # non-orthonormal 6-D blocks too
        weights = rng.normal(size=state.shape[:-1] + (3,))

        def f(t, r):
            return t.link_point(r["state"], chain)

        assert gradient_check(f, {"state": state}, step=1e-6, seed=weights) < 1e-7
        tape, _ = record(f, {"state": state})
        grad = backward(tape, weights)["state"]
        assert np.all(grad[..., ~on_chain] == 0.0)
        assert np.all(grad[..., on_chain] != 0.0)


def test_rot6d_graph_matches_numpy_path():
    """The kernel's Gram-Schmidt map, regularized norms and all, agrees with
    the numpy validator on noisy 6-D rotations."""
    rng = np.random.default_rng(9)
    r6 = rng.normal(size=(20, 6))
    R, _ = gram_schmidt(r6)
    for r, mat in zip(r6, R):
        assert np.allclose(mat, rot6d_to_matrix(r), atol=1e-11)


def test_joint_table_lists_parents_before_children():
    """The root comes first and every other joint's parent precedes it, so
    one pass over the table reaches each parent before its children."""
    assert HUMAN_JOINTS[0][1] == -1
    for i, (_, parent, _) in enumerate(HUMAN_JOINTS[1:], 1):
        assert 0 <= parent < i
    assert len(set(HUMAN_JOINT_NAMES)) == len(HUMAN_JOINTS) == 21
