"""Mobile-manipulator model: state, velocity-control dynamics and FK.

The robot is a differential-drive base carrying a small velocity-controlled
arm.  Its state is ``[x, y, heading, q_1..q_J]`` and one control step holds a
forward displacement, an angular displacement and per-joint displacements
(displacements per step; the frame time only enters metrics).

The default platform is a stand-in: a 4-joint right arm on a wheeled base,
with a configurable hand offset.  Chains are loadable from JSON so other
geometries can be swapped in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .chains import Chain, chain_fk
from .graph import Ref, Tape, unicycle_rollout
from .schema import from_doc, is_numbers


class RobotError(ValueError):
    pass


@dataclass(frozen=True)
class ChainLink:
    """One link: fixed translation in the parent frame, then an optional
    revolute joint about ``axis`` (None for a rigid link)."""

    name: str
    offset: tuple[float, float, float]
    axis: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not is_numbers(self.offset, 3):
            raise RobotError(f"link {self.name!r}: offset must be 3 numbers, got {self.offset!r}")
        if self.axis is not None and not (is_numbers(self.axis, 3) and any(self.axis)):
            raise RobotError(f"link {self.name!r}: axis must be None or 3 numbers, "
                             f"not all zero, got {self.axis!r}")


@dataclass(frozen=True)
class RobotConfig:
    chain: tuple[ChainLink, ...]
    hand_link: str = "hand"
    max_forward_step: float = 0.15  # m per step
    max_turn_step: float = 0.3  # rad per step
    max_joint_step: float = 0.2  # rad per step

    def __post_init__(self):
        if self.hand_link not in {l.name for l in self.chain}:
            raise RobotError(f"hand_link {self.hand_link!r} names no link of the chain")

    @property
    def num_joints(self) -> int:
        return sum(1 for l in self.chain if l.axis is not None)

    @property
    def state_dim(self) -> int:
        return 3 + self.num_joints

    @property
    def control_dim(self) -> int:
        return 2 + self.num_joints

    def kinematic_chain(self, link: str, tip=(0.0, 0.0, 0.0)) -> Chain:
        """The chain from the base to ``link`` in a state vector, ending at
        ``tip`` in the link frame.  The base link sits on the ground plane at
        ``(x, y, 0)`` and turns by the heading about z."""
        offsets, columns, axes = [(0.0, 0.0, 0.0)], [2], [(0.0, 0.0, 1.0)]
        if link != "base":
            qi = 3
            for l in self.chain:
                offsets.append(l.offset)
                columns.append(None if l.axis is None else qi)
                if l.axis is not None:
                    axes.append(l.axis)
                    qi += 1
                if l.name == link:
                    break
            else:
                raise RobotError(f"unknown link {link!r}")
        return Chain((0, 1), offsets, columns, axes, tip)

    def control_bounds(self) -> np.ndarray:
        """Per-control symmetric bound magnitudes, shape (control_dim,)."""
        return np.array(
            [self.max_forward_step, self.max_turn_step]
            + [self.max_joint_step] * self.num_joints
        )


DEFAULT_ROBOT = RobotConfig(
    chain=(
        ChainLink("shoulderPitch", (0.05, -0.15, 0.80), (0.0, 1.0, 0.0)),
        ChainLink("shoulderRoll", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ChainLink("elbow", (0.22, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ChainLink("wristPitch", (0.20, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ChainLink("hand", (0.10, 0.0, 0.0), None),
    )
)


def save_robot(config: RobotConfig, path) -> None:
    doc = {
        "format": "comotion-robot",
        "version": 1,
        "chain": [asdict(l) for l in config.chain],
        "hand_link": config.hand_link,
        "control_bounds": {
            "forward": config.max_forward_step,
            "turn": config.max_turn_step,
            "joint": config.max_joint_step,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_robot(path) -> RobotConfig:
    """Read a robot config file; a file that is not JSON, lacks a key, holds an
    unknown chain-link key or a value of the wrong type is a ``RobotError``
    naming ``path``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise RobotError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "comotion-robot":
        raise RobotError(f"{path}: not a robot config file")
    try:
        chain = tuple(from_doc(ChainLink, l, required=("axis",)) for l in doc["chain"])
        b = doc.get("control_bounds", {})
        return RobotConfig(
            chain=chain,
            hand_link=doc.get("hand_link", "hand"),
            max_forward_step=float(b.get("forward", 0.15)),
            max_turn_step=float(b.get("turn", 0.3)),
            max_joint_step=float(b.get("joint", 0.2)),
        )
    except KeyError as exc:
        raise RobotError(f"{path}: missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise RobotError(f"{path}: {exc}") from None


def save_robot_trajectory(states: np.ndarray, path) -> None:
    """Robot states: one JSON header line, then one row of values per line."""
    header = {"format": "comotion-robot-trajectory", "version": 1, "dims": list(states.shape)}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in states:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_robot_trajectory(path) -> np.ndarray:
    """Inverse of ``save_robot_trajectory``; a foreign header, a non-numeric
    entry or rows that do not match the header's dims are a ``RobotError``."""
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != "comotion-robot-trajectory":
            raise RobotError(f"{path}: not a robot trajectory file")
        try:
            rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
        except ValueError as exc:
            raise RobotError(f"{path}: {exc}") from None
    if len({len(r) for r in rows}) != 1 or [len(rows), len(rows[0])] != header.get("dims"):
        raise RobotError(f"{path}: rows do not match dims {header.get('dims')}")
    return np.array(rows)


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


def robot_unroll_graph(tape: Tape, initial: np.ndarray, controls: Ref,
                       horizon: int, state_dim: int) -> Ref:
    """Record the unrolled dynamics as one ``rollout`` node of shape
    (horizon, state_dim); ``controls`` is flat (horizon * (dim-1),)."""
    control_dim = state_dim - 1
    if controls.shape != (horizon * control_dim,):
        raise RobotError(
            f"controls ref must have shape ({horizon * control_dim},), got {controls.shape}"
        )
    return tape.rollout(controls, np.asarray(initial, dtype=np.float64))


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------


def robot_fk(config: RobotConfig, states: np.ndarray, link: str):
    """World position and orientation of a robot link for one state or an
    (N, state_dim) batch.

    Returns ``(position, rotation_matrix)``: (3,) and (3, 3), or (N, 3) and
    (N, 3, 3).  The base link sits on the ground plane at ``(x, y, 0)`` with
    the base yaw.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim not in (1, 2) or states.shape[-1] != config.state_dim:
        raise RobotError(f"expected states of {config.state_dim} values, got {states.shape}")
    pos, rot, _ = chain_fk(config.kinematic_chain(link), states.reshape(-1, config.state_dim))
    return (pos[0], rot[0]) if states.ndim == 1 else (pos, rot)
