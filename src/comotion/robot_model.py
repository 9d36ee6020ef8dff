"""Mobile-manipulator model: state, velocity-control dynamics and FK.

The robot is a differential-drive base carrying a small velocity-controlled
arm.  Its state is ``[x, y, heading, q_1..q_J]`` and one control step holds a
forward displacement, an angular displacement and per-joint displacements
(displacements per step; the frame time only enters metrics).

The platform is a stand-in: a 4-joint right arm on a wheeled base, stated
once as the ``ARM`` table, from which the state and control dimensions and
the control bounds follow.  Planning and scoring use that one robot; another
geometry means editing that table.
A robot trajectory file is a ``schema`` row file of one block, a row per
state; every entry must be finite.
"""

from __future__ import annotations

import numpy as np

from .chains import Chain, chain_fk
from .graph import Ref, Tape, unicycle_rollout
from .schema import atomic_open, read_blocks, write_block


class RobotError(ValueError):
    pass


# The arm, base to hand: (link name, fixed translation in the parent frame,
# then the axis of its revolute joint, or None for a rigid link).
ARM = (
    ("shoulderPitch", (0.05, -0.15, 0.80), (0.0, 1.0, 0.0)),
    ("shoulderRoll", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ("elbow", (0.22, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ("wristPitch", (0.20, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ("hand", (0.10, 0.0, 0.0), None),
)
HAND_LINK = ARM[-1][0]
ARM_JOINTS = sum(axis is not None for _, _, axis in ARM)
ROBOT_STATE_DIM = 3 + ARM_JOINTS  # x, y, heading, joint angles
ROBOT_CONTROL_DIM = 2 + ARM_JOINTS  # forward, turn, joint displacements
# the symmetric box |u| <= bound per control, θ's one box: 0.15 m, 0.3 rad, 0.2 rad a step
ROBOT_CONTROL_BOUNDS = (0.15, 0.3) + (0.2,) * ARM_JOINTS


def kinematic_chain(link: str, tip=(0.0, 0.0, 0.0)) -> Chain:
    """The chain from the base to ``link`` in a robot state vector, ending at
    ``tip`` in the link frame.  The base link sits on the ground plane at
    ``(x, y, 0)`` and turns by the heading about z."""
    offsets, columns, axes = [(0.0, 0.0, 0.0)], [2], [(0.0, 0.0, 1.0)]
    if link != "base":
        qi = 3
        for name, offset, axis in ARM:
            offsets.append(offset)
            columns.append(None if axis is None else qi)
            if axis is not None:
                axes.append(axis)
                qi += 1
            if name == link:
                break
        else:
            raise RobotError(f"unknown link {link!r}")
    return Chain((0, 1), offsets, columns, axes, tip)


def save_robot_trajectory(states: np.ndarray, path) -> None:
    """Robot states as one row block, its header holding their dims."""
    header = {"format": "comotion-robot-trajectory", "version": 1, "dims": list(states.shape)}
    with atomic_open(path) as fh:
        write_block(fh, header, states)


def load_robot_trajectory(path) -> np.ndarray:
    """Inverse of ``save_robot_trajectory``; a malformed file is a
    ``RobotError`` naming ``path``."""
    blocks = read_blocks(path, "comotion-robot-trajectory", RobotError)
    if len(blocks) != 1:
        raise RobotError(f"{path}: holds {len(blocks)} robot trajectories, expected 1")
    ((line, header, states),) = blocks
    if not np.isfinite(states).all():
        raise RobotError(f"{path}: line {line}: the trajectory has an infinite entry")
    if list(states.shape) != header.get("dims"):
        raise RobotError(f"{path}: line {line}: rows do not match dims {header.get('dims')}")
    return states


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


def robot_step(state: np.ndarray, control: np.ndarray) -> np.ndarray:
    """One velocity-control step: heading-aligned translation, turn, joints."""
    state = np.asarray(state, dtype=np.float64)
    control = np.asarray(control, dtype=np.float64)
    if control.shape[0] != state.shape[0] - 1:
        raise RobotError(f"control dim {control.shape[0]} does not match state {state.shape[0]}")
    th = state[2]
    out = state.copy()
    out[0] += np.cos(th) * control[0]
    out[1] += np.sin(th) * control[0]
    out[2] += control[1]
    out[3:] += control[2:]
    return out


def robot_unroll(initial: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """Integrate a control sequence; returns the (H, state_dim) post-step states."""
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2 or controls.shape[0] < 1:
        raise RobotError("controls must be (horizon >= 1, control_dim)")
    initial = np.asarray(initial, dtype=np.float64)
    if controls.shape[1] != initial.shape[0] - 1:
        raise RobotError(f"control dim {controls.shape[1]} does not match state {initial.shape[0]}")
    return unicycle_rollout(initial, controls)


def robot_unroll_graph(tape: Tape, initial: np.ndarray, controls: Ref, horizon: int) -> Ref:
    """Record the unrolled dynamics as one ``rollout`` node of shape
    (horizon, ROBOT_STATE_DIM); ``controls`` is (horizon, ROBOT_CONTROL_DIM)."""
    if controls.shape != (horizon, ROBOT_CONTROL_DIM):
        raise RobotError(f"controls ref must have shape ({horizon}, {ROBOT_CONTROL_DIM}), "
                         f"got {controls.shape}")
    return tape.rollout(controls, np.asarray(initial, dtype=np.float64))


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------


def robot_fk(states: np.ndarray, link: str):
    """World position and orientation of a robot link for one state or an
    (N, ROBOT_STATE_DIM) batch.

    Returns ``(position, rotation_matrix)``: (3,) and (3, 3), or (N, 3) and
    (N, 3, 3).  The base link sits on the ground plane at ``(x, y, 0)`` with
    the base yaw.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim not in (1, 2) or states.shape[-1] != ROBOT_STATE_DIM:
        raise RobotError(f"expected states of {ROBOT_STATE_DIM} values, got {states.shape}")
    pos, rot, _ = chain_fk(kinematic_chain(link), states.reshape(-1, ROBOT_STATE_DIM))
    return (pos[0], rot[0]) if states.ndim == 1 else (pos, rot)
