"""Planning problems: objective and constraint functions, compiled to a tape.

A :class:`ProblemSpec` declares the agents, horizon, weights and constraints.
:func:`compile_problem` unrolls both dynamics onto one tape and appends every
objective/constraint scalar, so one backward pass yields the gradient of any
weighted combination with respect to all decision variables (human decoder
modifiers and robot controls).

Conventions:
  * Predicted timesteps are indexed 0..H-1 with H = horizon - observed frames;
    ``"final"`` selects H-1.
  * Inequality constraints are feasible at values <= 0.
  * Equality constraints are residuals driven to 0 (squared distances, plus a
    facing term for handovers).
  * Obstacle clearance uses ``margin - SDF(base)``; inter-agent clearance uses
    ``d^2 - |planar base offset|^2`` (the ground-plane distance, since the
    human base sits at pelvis height while the robot base is on the floor).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    DEFAULT_RESOLUTION,
    Scene,
    SdfGrid,
    build_sdf,
    scene_from_doc,
    scene_to_doc,
    sdf_query_graph,
)
from .graph import Evaluation, Ref, Tape, backward
from .human_model import MODIFIER_DIM, ModelParams, unroll_graph
from .kinematics import DEFAULT_HUMAN_SKELETON, STATE_DIM
from .robot_model import DEFAULT_ROBOT, RobotConfig, robot_unroll_graph

DEFAULT_SOFT_MAX_TEMPERATURE = 0.01  # m^2, aggregation over timesteps
DEFAULT_JOINT_GOAL_TEMPERATURE = 0.05  # m^2, agent/timestep selection
DEFAULT_HUMAN_PALM_OFFSET = (0.0, -0.10, 0.0)  # wrist frame, right arm points -y
DEFAULT_ROBOT_PALM_OFFSET = (0.10, 0.0, 0.0)  # hand frame, arm points +x

CONSTRAINT_KINDS = ("goal", "collision", "joint_clearance", "joint_goal", "handover")
AGGREGATIONS = ("per_timestep", "hard_max", "soft_max")


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveWeights:
    weight_human: float = 10.0
    weight_robot: float = 10.0
    frame_time: float = 0.05  # seconds per frame
    human_base_penalty: float = 0.0  # extra cost on human base displacement

    def __post_init__(self):
        if self.weight_human < 0 or self.weight_robot < 0 or self.human_base_penalty < 0:
            raise ProblemError("weights must be non-negative")
        if self.weight_human == 0 and self.weight_robot == 0:
            raise ProblemError("at least one agent weight must be positive")
        if self.frame_time <= 0:
            raise ProblemError("frame time must be positive")


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str
    agent: str | None = None  # "human" | "robot" where applicable
    link: str | None = None
    timestep: object = "final"  # int, "final", or "all"
    target: tuple | None = None
    clearance: float | None = None
    aggregation: str = "soft_max"
    temperature: float | None = None
    margin: float = 0.0
    palm_offset_human: tuple = DEFAULT_HUMAN_PALM_OFFSET
    palm_offset_robot: tuple = DEFAULT_ROBOT_PALM_OFFSET

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ProblemError(f"unknown constraint kind {self.kind!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ProblemError(f"unknown aggregation {self.aggregation!r}")
        if self.kind == "goal":
            if self.agent not in ("human", "robot"):
                raise ProblemError("goal constraint needs an agent")
            if self.link is None or self.target is None:
                raise ProblemError("goal constraint needs a link and a target")
        if self.kind == "collision" and self.agent not in ("human", "robot"):
            raise ProblemError("collision constraint needs an agent")
        if self.kind == "joint_clearance":
            if self.clearance is None or self.clearance <= 0:
                raise ProblemError("joint clearance needs a positive distance")
        if self.kind == "joint_goal" and self.target is None:
            raise ProblemError("joint goal needs a target point")

    def default_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return (
            DEFAULT_JOINT_GOAL_TEMPERATURE
            if self.kind == "joint_goal"
            else DEFAULT_SOFT_MAX_TEMPERATURE
        )


@dataclass
class ProblemSpec:
    """One planning instance.  ``horizon`` counts total frames including the
    observed history; constraints act on the H = horizon - k predicted steps."""

    horizon: int
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    constraints: list = field(default_factory=list)
    observed_human: np.ndarray | None = None  # (k, 129)
    robot_initial: np.ndarray | None = None
    scene: Scene | None = None
    optimize_human: bool = True
    optimize_robot: bool = True
    fixed_human: np.ndarray | None = None  # (H, 129) when the human is frozen
    fixed_robot: np.ndarray | None = None  # (H, state_dim) when the robot is frozen
    model_path: str | None = None  # reference only; the weights file is separate

    def __post_init__(self):
        if self.observed_human is not None:
            self.observed_human = np.asarray(self.observed_human, dtype=np.float64)
            if self.observed_human.ndim != 2 or self.observed_human.shape[1] != STATE_DIM:
                raise ProblemError(f"observed history must be (k, {STATE_DIM})")
            if self.observed_human.shape[0] < 2:
                raise ProblemError("need at least 2 observed frames")
            if self.horizon <= self.observed_human.shape[0]:
                raise ProblemError("horizon must exceed the observed history")
        if self.robot_initial is not None:
            self.robot_initial = np.asarray(self.robot_initial, dtype=np.float64)
        if self.fixed_human is not None:
            self.fixed_human = np.asarray(self.fixed_human, dtype=np.float64)
        if self.fixed_robot is not None:
            self.fixed_robot = np.asarray(self.fixed_robot, dtype=np.float64)

    @property
    def observed_frames(self) -> int:
        if self.observed_human is not None:
            return self.observed_human.shape[0]
        return 0

    @property
    def steps(self) -> int:
        """Number of predicted/planned timesteps H."""
        return self.horizon - self.observed_frames

    def has_human(self) -> bool:
        return self.optimize_human or self.fixed_human is not None

    def has_robot(self) -> bool:
        return (self.optimize_robot and self.robot_initial is not None) or (
            self.fixed_robot is not None
        )


# ---------------------------------------------------------------------------
# Graph context: kinematic reads of the agents' trajectories
# ---------------------------------------------------------------------------

HUMAN_HAND_LINK = "rWrist"


class GraphContext:
    """What constraint builders read from the agents' trajectories.

    ``human_traj``/``robot_traj`` are (H, dim) state trajectory refs, or None
    for an absent agent.  A point on a link is one ``link_point`` node, over
    one step's row or over the whole trajectory; base positions and headings
    read state columns directly.  The human chain is
    ``DEFAULT_HUMAN_SKELETON``'s.
    """

    def __init__(self, tape, robot_config, human_traj, robot_traj, sdf):
        self.tape = tape
        self.robot_config = robot_config
        self.sdf = sdf
        self._traj = {"human": human_traj, "robot": robot_traj}

    def steps(self) -> int:
        traj = self._traj["human"] if self._traj["human"] is not None else self._traj["robot"]
        return traj.shape[0]

    def trajectory(self, agent: str) -> Ref:
        traj = self._traj[agent]
        if traj is None:
            raise ProblemError(f"constraint references the {agent}, but no {agent} is present")
        return traj

    def _states(self, agent: str, t: int | None) -> Ref:
        traj = self.trajectory(agent)
        return traj if t is None else self.tape.row(traj, t)

    def point(self, agent: str, link: str, offset=(0.0, 0.0, 0.0), t: int | None = None) -> Ref:
        """World point of a link-frame ``offset`` on ``link``: (3,) at step
        ``t``, or (H, 3) over every step when ``t`` is None."""
        if agent == "human":
            chain = DEFAULT_HUMAN_SKELETON.kinematic_chain(link, offset)
        else:
            chain = self.robot_config.kinematic_chain(link, offset)
        return self.tape.link_point(self._states(agent, t), chain)

    def hand_point(self, agent: str, palm_offset, t: int | None = None) -> Ref:
        """Palm point: a hand-frame offset on the agent's hand link."""
        link = HUMAN_HAND_LINK if agent == "human" else self.robot_config.hand_link
        return self.point(agent, link, palm_offset, t)

    def base_positions(self, agent: str, dims: int = 2) -> Ref:
        """The agent's first ``dims`` base coordinates at every step, (H, dims)."""
        return self.tape.columns(self.trajectory(agent), 0, dims)

    def heading(self, agent: str, t: int) -> Ref:
        """Planar facing unit vector of the agent's base: (cos, sin) of the
        robot's heading, or the normalized xy of the first column of the
        human's base 6-D rotation (the base frame's world x-axis)."""
        tape = self.tape
        state = self._states(agent, t)
        if agent == "robot":
            th = tape.slice(state, 2, 3)
            return tape.concat([tape.cos(th), tape.sin(th)])
        xy = tape.slice(state, 3, 5)
        return tape.div(xy, tape.norm(xy))


# ---------------------------------------------------------------------------
# Objective and constraints (graph builders)
# ---------------------------------------------------------------------------


def _difference_cost(tape, flat: Ref, row: int, steps: int, scale: float) -> Ref | None:
    """scale * sum of squared adjacent-row differences of a flat (steps*row,) ref."""
    if steps < 2:
        return None
    head = tape.slice(flat, row, steps * row)
    tail = tape.slice(flat, 0, (steps - 1) * row)
    return tape.mul(tape.sum_squares(tape.sub(head, tail)), tape.const(scale))


def control_objective_graph(tape, weights: ObjectiveWeights, modifiers: Ref | None,
                            robot_controls: Ref | None, steps: int,
                            robot_control_dim: int | None = None) -> Ref:
    """Sum of squared finite-difference control rates, weighted per agent."""
    inv_dt2 = 1.0 / (weights.frame_time ** 2)
    total = tape.const(0.0)
    if modifiers is not None and weights.weight_human > 0:
        c = _difference_cost(tape, modifiers, MODIFIER_DIM, steps,
                             weights.weight_human * inv_dt2)
        if c is not None:
            total = tape.add(total, c)
    if robot_controls is not None and weights.weight_robot > 0:
        c = _difference_cost(tape, robot_controls, robot_control_dim, steps,
                             weights.weight_robot * inv_dt2)
        if c is not None:
            total = tape.add(total, c)
    return total


def human_base_penalty_graph(tape, ctx: GraphContext, observed_last: np.ndarray,
                             weight: float) -> Ref:
    """Penalizes human base displacement over the plan (pickup-agent studies)."""
    steps = ctx.steps()
    bases = tape.reshape(ctx.base_positions("human", 3), (steps * 3,))
    flat = tape.concat([tape.const(observed_last[:3]), bases])
    return _difference_cost(tape, flat, 3, steps + 1, weight)


def _resolve_timestep(timestep, steps: int) -> int:
    if timestep == "final":
        return steps - 1
    t = int(timestep)
    if not (0 <= t < steps):
        raise ProblemError(f"timestep {t} outside 0..{steps - 1}")
    return t


def goal_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Squared distance between a link position and the goal point."""
    t = _resolve_timestep(spec.timestep, ctx.steps())
    tape = ctx.tape
    pos = ctx.point(spec.agent, spec.link, t=t)
    return tape.sum_squares(tape.sub(pos, tape.const(np.asarray(spec.target, dtype=np.float64))))


def _aggregate(tape, values: Ref, spec: ConstraintSpec) -> Ref:
    """Timestep aggregation of an (H,) vector: the vector itself, its hard
    max or its smooth max."""
    if spec.aggregation == "per_timestep":
        return values
    if spec.aggregation == "hard_max":
        return tape.max_reduce(values)
    return tape.logsumexp(values, spec.default_temperature())


def collision_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """margin - SDF(base) per timestep, aggregated; feasible <= 0."""
    if ctx.sdf is None:
        raise ProblemError("collision constraint needs a scene")
    tape = ctx.tape
    d = sdf_query_graph(tape, ctx.sdf, ctx.base_positions(spec.agent))
    return _aggregate(tape, tape.sub(tape.const(spec.margin), d), spec)


def joint_clearance_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """d^2 - |planar base offset|^2 per timestep, aggregated; feasible <= 0."""
    tape = ctx.tape
    delta = tape.sub(ctx.base_positions("human"), ctx.base_positions("robot"))
    values = tape.sub(tape.const(float(spec.clearance) ** 2),
                      tape.sum(tape.square(delta), axis=1))
    return _aggregate(tape, values, spec)


def joint_goal_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Smooth minimum over agents and timesteps of squared hand-goal distance.

    Lets the optimizer pick which agent reaches the point and when; the hard
    minimum is available separately for evaluation.
    """
    tape = ctx.tape
    target = tape.const(np.asarray(spec.target, dtype=np.float64))
    dists = []
    for agent, offset in (("human", spec.palm_offset_human), ("robot", spec.palm_offset_robot)):
        hands = ctx.hand_point(agent, offset)
        dists.append(tape.sum(tape.square(tape.sub(hands, target)), axis=1))
    return tape.smooth_min(tape.concat(dists), spec.default_temperature())


def handover_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Palm-to-palm squared distance plus a facing residual at the final step.

    The facing term is 1 + dot(facing_H, facing_R): zero exactly when the
    agents face each other, 2 when they face the same way.
    """
    tape = ctx.tape
    t = _resolve_timestep(spec.timestep, ctx.steps())
    hand_h = ctx.hand_point("human", spec.palm_offset_human, t)
    hand_r = ctx.hand_point("robot", spec.palm_offset_robot, t)
    dist = tape.sum_squares(tape.sub(hand_h, hand_r))
    facing = tape.add(tape.const(1.0), tape.dot(ctx.heading("human", t), ctx.heading("robot", t)))
    return tape.add(dist, facing)


# the graph builder of each constraint kind
_BUILDERS = {
    "collision": collision_constraint_graph,
    "joint_clearance": joint_clearance_constraint_graph,
    "goal": goal_constraint_graph,
    "joint_goal": joint_goal_constraint_graph,
    "handover": handover_constraint_graph,
}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledProblem:
    """A problem recorded on one tape: replayable, differentiable, packed.

    The tape output is the vector [objective, g_1..g_m, h_1..h_k]; feasible
    inequalities are <= 0.  Decision variables pack human modifiers first,
    then robot controls.
    """

    problem: ProblemSpec
    tape: Tape
    leaf_dims: dict[str, int]
    num_ineq: int
    num_eq: int
    ineq_names: list[str]
    eq_names: list[str]
    lower: np.ndarray  # box bounds on theta (-inf where free)
    upper: np.ndarray
    human_traj: Ref | None  # (H, 129) state trajectory
    robot_traj: Ref | None  # (H, state_dim)

    @property
    def n(self) -> int:
        return sum(self.leaf_dims.values())

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        pos = 0
        for name, dim in self.leaf_dims.items():
            out[name] = theta[pos : pos + dim]
            pos += dim
        return out

    def evaluate(self, theta: np.ndarray, extra_leaves: dict | None = None):
        """Returns (objective, ineq values, eq values, Evaluation).

        ``extra_leaves`` overrides non-decision leaves, e.g. a frozen agent
        trajectory (``fixed_h``/``fixed_r``) shared across replays.
        """
        leaves = self.split(theta)
        if extra_leaves:
            leaves.update(extra_leaves)
        ev = self.tape.forward(leaves)
        out = ev.output
        m = self.num_ineq
        return float(out[0]), out[1 : 1 + m].copy(), out[1 + m :].copy(), ev

    def gradient(self, seed: np.ndarray, at: Evaluation) -> np.ndarray:
        """Gradient of seed . [objective, g, h] w.r.t. the packed variables."""
        grads = backward(self.tape, seed, at=at, wrt=list(self.leaf_dims))
        return np.concatenate([grads[name] for name in self.leaf_dims])

    def trajectories(self, at: Evaluation):
        """Human and robot state sequences at an evaluation (None if absent)."""
        return tuple(None if traj is None else at.value_of(traj).copy()
                     for traj in (self.human_traj, self.robot_traj))


def compile_problem(
    problem: ProblemSpec,
    model: ModelParams | None = None,
    robot: RobotConfig | None = None,
    sdf: SdfGrid | None = None,
) -> CompiledProblem:
    """Record the whole planning problem on a fresh tape at zero controls."""
    steps = problem.steps if problem.observed_human is not None else (
        len(problem.fixed_human) if problem.fixed_human is not None else problem.horizon
    )
    if steps < 1:
        raise ProblemError("no timesteps to plan")
    robot = robot if robot is not None else DEFAULT_ROBOT
    if sdf is None and problem.scene is not None:
        sdf = build_sdf(problem.scene, DEFAULT_RESOLUTION)

    tape = Tape()
    leaf_dims: dict[str, int] = {}
    lower_parts = []
    upper_parts = []

    human_traj = None
    modifiers = None
    if problem.optimize_human:
        if problem.observed_human is None:
            raise ProblemError("optimizing the human needs an observed history")
        if model is None:
            raise ProblemError("optimizing the human needs model weights")
        dim = steps * MODIFIER_DIM
        modifiers = tape.leaf("u_h", np.zeros(dim))
        leaf_dims["u_h"] = dim
        lower_parts.append(np.full(dim, -np.inf))
        upper_parts.append(np.full(dim, np.inf))
        human_traj = unroll_graph(tape, model, problem.observed_human, modifiers, steps)
    elif problem.fixed_human is not None:
        if len(problem.fixed_human) != steps:
            raise ProblemError("frozen human trajectory length must match the horizon")
        # a leaf (not a decision variable) so the same tape replays against
        # other frozen trajectories, e.g. across prediction samples
        flat = tape.leaf("fixed_h", problem.fixed_human.reshape(-1))
        human_traj = tape.reshape(flat, (steps, STATE_DIM))

    robot_traj = None
    controls = None
    if problem.optimize_robot and problem.robot_initial is not None:
        cdim = robot.control_dim
        if problem.robot_initial.shape != (robot.state_dim,):
            raise ProblemError(f"robot initial state must have {robot.state_dim} values")
        dim = steps * cdim
        controls = tape.leaf("u_r", np.zeros(dim))
        leaf_dims["u_r"] = dim
        bounds = np.tile(robot.control_bounds(), steps)
        lower_parts.append(-bounds)
        upper_parts.append(bounds)
        robot_traj = robot_unroll_graph(tape, problem.robot_initial, controls, steps,
                                        robot.state_dim)
    elif problem.fixed_robot is not None:
        if len(problem.fixed_robot) != steps:
            raise ProblemError("frozen robot trajectory length must match the horizon")
        flat = tape.leaf("fixed_r", problem.fixed_robot.reshape(-1))
        robot_traj = tape.reshape(flat, problem.fixed_robot.shape)

    if not leaf_dims:
        raise ProblemError("nothing to optimize: no free agent")

    ctx = GraphContext(tape, robot, human_traj, robot_traj, sdf)

    objective = control_objective_graph(
        tape, problem.weights, modifiers, controls, steps, robot.control_dim
    )
    if problem.weights.human_base_penalty > 0 and human_traj is not None:
        pen = human_base_penalty_graph(
            tape, ctx, problem.observed_human[-1]
            if problem.observed_human is not None
            else problem.fixed_human[0],
            problem.weights.human_base_penalty,
        )
        if pen is not None:
            objective = tape.add(objective, pen)

    # (names, value) pairs: a per_timestep constraint is one (H,) value
    # named kind[i].0 .. kind[i].H-1, any other one scalar named kind[i]
    ineq: list[tuple[list[str], Ref]] = []
    eq: list[tuple[list[str], Ref]] = []
    for i, spec in enumerate(problem.constraints):
        tag = f"{spec.kind}[{i}]"
        v = _BUILDERS[spec.kind](ctx, spec)
        names = [f"{tag}.{j}" for j in range(v.shape[0])] if v.shape else [tag]
        (ineq if spec.kind in ("collision", "joint_clearance") else eq).append((names, v))

    parts = [tape.reshape(objective, (1,))]
    parts += [v if v.shape else tape.reshape(v, (1,)) for _, v in ineq + eq]
    tape.set_output(tape.concat(parts) if len(parts) > 1 else parts[0])
    ineq_names = [name for names, _ in ineq for name in names]
    eq_names = [name for names, _ in eq for name in names]

    return CompiledProblem(
        problem=problem,
        tape=tape,
        leaf_dims=leaf_dims,
        num_ineq=len(ineq_names),
        num_eq=len(eq_names),
        ineq_names=ineq_names,
        eq_names=eq_names,
        lower=np.concatenate(lower_parts),
        upper=np.concatenate(upper_parts),
        human_traj=human_traj,
        robot_traj=robot_traj,
    )


# ---------------------------------------------------------------------------
# Plain-numpy control objective (reference implementation for tests/metrics)
# ---------------------------------------------------------------------------


def control_objective(modifiers: np.ndarray | None, robot_controls: np.ndarray | None,
                      weights: ObjectiveWeights) -> float:
    """Reference evaluation of the control-rate objective on arrays."""
    if modifiers is not None and robot_controls is not None:
        if len(modifiers) != len(robot_controls):
            raise ProblemError("agent horizons must match")
    total = 0.0
    inv_dt2 = 1.0 / weights.frame_time ** 2
    if modifiers is not None and len(modifiers) >= 2:
        total += weights.weight_human * inv_dt2 * float(np.sum(np.diff(modifiers, axis=0) ** 2))
    if robot_controls is not None and len(robot_controls) >= 2:
        total += weights.weight_robot * inv_dt2 * float(np.sum(np.diff(robot_controls, axis=0) ** 2))
    return total


# ---------------------------------------------------------------------------
# Problem files (self-contained except for the model weights)
# ---------------------------------------------------------------------------


def _spec_to_doc(spec: ConstraintSpec) -> dict:
    return {
        "kind": spec.kind,
        "agent": spec.agent,
        "link": spec.link,
        "timestep": spec.timestep,
        "target": None if spec.target is None else list(spec.target),
        "clearance": spec.clearance,
        "aggregation": spec.aggregation,
        "temperature": spec.temperature,
        "margin": spec.margin,
        "palm_offset_human": list(spec.palm_offset_human),
        "palm_offset_robot": list(spec.palm_offset_robot),
    }


def _spec_from_doc(doc: dict) -> ConstraintSpec:
    return ConstraintSpec(
        kind=doc["kind"],
        agent=doc.get("agent"),
        link=doc.get("link"),
        timestep=doc.get("timestep", "final"),
        target=None if doc.get("target") is None else tuple(doc["target"]),
        clearance=doc.get("clearance"),
        aggregation=doc.get("aggregation", "soft_max"),
        temperature=doc.get("temperature"),
        margin=doc.get("margin", 0.0),
        palm_offset_human=tuple(doc.get("palm_offset_human", DEFAULT_HUMAN_PALM_OFFSET)),
        palm_offset_robot=tuple(doc.get("palm_offset_robot", DEFAULT_ROBOT_PALM_OFFSET)),
    )


def _array_to_doc(a: np.ndarray | None):
    return None if a is None else [[float(v) for v in row] for row in np.atleast_2d(a)]


def save_problem(problem: ProblemSpec, path) -> None:
    doc = {
        "format": "comotion-problem",
        "version": 1,
        "agents": [a for a, on in (("human", problem.has_human()),
                                   ("robot", problem.has_robot())) if on],
        "horizon": problem.horizon,
        "weights": {
            "weight_human": problem.weights.weight_human,
            "weight_robot": problem.weights.weight_robot,
            "frame_time": problem.weights.frame_time,
            "human_base_penalty": problem.weights.human_base_penalty,
        },
        "constraints": [_spec_to_doc(c) for c in problem.constraints],
        "observed_human": _array_to_doc(problem.observed_human),
        "robot_initial": None if problem.robot_initial is None
        else [float(v) for v in problem.robot_initial],
        "optimize_human": problem.optimize_human,
        "optimize_robot": problem.optimize_robot,
        "fixed_human": _array_to_doc(problem.fixed_human),
        "fixed_robot": _array_to_doc(problem.fixed_robot),
        "scene": None if problem.scene is None else scene_to_doc(problem.scene),
        "model_path": problem.model_path,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "comotion-problem":
        raise ProblemError(f"{path}: not a problem file")
    try:
        return _problem_from_doc(doc)
    except KeyError as exc:
        raise ProblemError(f"{path}: missing key {exc.args[0]!r}") from None


def _problem_from_doc(doc: dict) -> ProblemSpec:
    w = doc["weights"]
    return ProblemSpec(
        horizon=int(doc["horizon"]),
        weights=ObjectiveWeights(
            weight_human=w["weight_human"],
            weight_robot=w["weight_robot"],
            frame_time=w["frame_time"],
            human_base_penalty=w.get("human_base_penalty", 0.0),
        ),
        constraints=[_spec_from_doc(c) for c in doc["constraints"]],
        observed_human=None if doc["observed_human"] is None else np.array(doc["observed_human"]),
        robot_initial=None if doc["robot_initial"] is None else np.array(doc["robot_initial"]),
        scene=None if doc.get("scene") is None else scene_from_doc(doc["scene"]),
        optimize_human=bool(doc.get("optimize_human", True)),
        optimize_robot=bool(doc.get("optimize_robot", True)),
        fixed_human=None if doc.get("fixed_human") is None else np.array(doc["fixed_human"]),
        fixed_robot=None if doc.get("fixed_robot") is None else np.array(doc["fixed_robot"]),
        model_path=doc.get("model_path"),
    )
