"""Planning problems: objective and constraint functions, compiled to a tape.

A :class:`ProblemSpec` declares the agents, horizon, weights and constraints.
:func:`compile_problem` unrolls both dynamics onto one tape and appends every
objective/constraint scalar, so one backward pass yields the gradient of any
weighted combination with respect to all decision variables (human decoder
modifiers and robot controls).

Conventions:
  * Predicted timesteps are indexed 0..H-1 with H = horizon - observed frames.
    Goal and handover constraints act on the final step, H-1.
  * An agent is planned when the problem has its start (the human's observed
    history, the robot's initial state) and no frozen trajectory for it.
  * Inequality constraints are feasible at values <= 0.
  * Equality constraints are residuals driven to 0 (squared distances, plus a
    facing term for handovers).
  * Obstacle clearance uses ``-SDF(base)``; inter-agent clearance uses
    ``d^2 - |planar base offset|^2`` (the ground-plane distance, since the
    human base sits at pelvis height while the robot base is on the floor).
    Each is one row: the soft maximum over the H timesteps,
    ``tau * log(sum_t exp(v_t / tau))`` at ``tau = SOFT_MAX_TEMPERATURE``.
  * Palm points sit at ``HUMAN_PALM_OFFSET`` in the human's wrist frame and
    ``ROBOT_PALM_OFFSET`` in the robot's hand frame.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .environment import (
    DEFAULT_RESOLUTION,
    Scene,
    build_sdf,
    scene_from_doc,
    scene_to_doc,
    sdf_query_graph,
)
from .graph import Evaluation, Ref, Tape, backward
from .human_model import MODIFIER_DIM, ModelParams, unroll_graph
from .kinematics import DEFAULT_HUMAN_SKELETON, STATE_DIM
from .robot_model import DEFAULT_ROBOT, robot_unroll_graph
from .schema import from_doc, is_number, is_numbers

SOFT_MAX_TEMPERATURE = 0.01  # m^2, soft maximum over timesteps
JOINT_GOAL_TEMPERATURE = 0.05  # m^2, agent/timestep selection
HUMAN_PALM_OFFSET = (0.0, -0.10, 0.0)  # wrist frame, right arm points -y
ROBOT_PALM_OFFSET = (0.10, 0.0, 0.0)  # hand frame, arm points +x

CONSTRAINT_KINDS = ("goal", "collision", "joint_clearance", "joint_goal", "handover")


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveWeights:
    weight_human: float = 10.0
    weight_robot: float = 10.0
    frame_time: float = 0.05  # seconds per frame
    human_base_penalty: float = 0.0  # extra cost on human base displacement

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_number(value):
                raise ProblemError(f"{name} must be a finite number, got {value!r}")
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
    target: tuple | None = None
    clearance: float | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ProblemError(f"unknown constraint kind {self.kind!r}")
        if self.clearance is not None and not is_number(self.clearance):
            raise ProblemError(f"clearance must be a finite number, got {self.clearance!r}")
        if self.target is not None and not is_numbers(self.target, 3):
            raise ProblemError(f"target must be 3 finite numbers, got {self.target!r}")
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


@dataclass
class ProblemSpec:
    """One planning instance.  ``horizon`` counts total frames including the
    observed history; constraints act on the H = horizon - k predicted steps.
    Which arrays are present decides each agent's role: see ``plans_human``
    and ``plans_robot``.  The robot is ``DEFAULT_ROBOT``.

    Construction checks that at least one step is left to plan, and every
    array that is present: its shape and that each entry is finite.  This is
    the one check of a problem's arrays."""

    horizon: int
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    constraints: list = field(default_factory=list)
    observed_human: np.ndarray | None = None  # (k, 129)
    robot_initial: np.ndarray | None = None  # (state_dim,)
    scene: Scene | None = None
    fixed_human: np.ndarray | None = None  # (H, 129) when the human is frozen
    fixed_robot: np.ndarray | None = None  # (H, state_dim) when the robot is frozen

    def __post_init__(self):
        for name in ("observed_human", "robot_initial", "fixed_human", "fixed_robot"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=np.float64)
                if not np.isfinite(value).all():
                    raise ProblemError(f"{name} has an entry that is not a finite number")
                setattr(self, name, value)
        observed = self.observed_human
        if observed is not None:
            if observed.ndim != 2 or observed.shape[1] != STATE_DIM:
                raise ProblemError(f"observed_human must have shape (k, {STATE_DIM}), "
                                   f"got {observed.shape}")
            if observed.shape[0] < 2:
                raise ProblemError("observed_human needs at least 2 frames")
            if self.horizon <= observed.shape[0]:
                raise ProblemError("horizon must exceed the observed history")
        if self.fixed_human is not None and self.fixed_human.ndim != 2:
            raise ProblemError(f"fixed_human must have shape (steps, {STATE_DIM}), "
                               f"got {self.fixed_human.shape}")
        if self.steps < 1:
            raise ProblemError(f"horizon leaves no timesteps to plan (steps = {self.steps})")
        robot_dim = DEFAULT_ROBOT.state_dim
        for name, shape in (("robot_initial", (robot_dim,)),
                            ("fixed_human", (self.steps, STATE_DIM)),
                            ("fixed_robot", (self.steps, robot_dim))):
            value = getattr(self, name)
            if value is not None and value.shape != shape:
                raise ProblemError(f"{name} must have shape {shape}, got {value.shape}")

    @property
    def steps(self) -> int:
        """Number of predicted/planned timesteps H: the horizon past the
        observed history, else the frozen human's length, else the horizon."""
        if self.observed_human is not None:
            return self.horizon - self.observed_human.shape[0]
        if self.fixed_human is not None:
            return len(self.fixed_human)
        return self.horizon

    @property
    def plans_human(self) -> bool:
        """The human is planned: it has an observed history and is not frozen."""
        return self.observed_human is not None and self.fixed_human is None

    @property
    def plans_robot(self) -> bool:
        """The robot is planned: it has a start state and is not frozen."""
        return self.robot_initial is not None and self.fixed_robot is None


# ---------------------------------------------------------------------------
# Graph context: kinematic reads of the agents' trajectories
# ---------------------------------------------------------------------------

HUMAN_HAND_LINK = "rWrist"


class GraphContext:
    """What constraint builders read from the agents' trajectories.

    ``human_traj``/``robot_traj`` are (H, dim) state trajectory refs, or None
    for an absent agent.  A point on a link is one ``link_point`` node, over
    one step's row or over the whole trajectory; base positions and headings
    read state columns directly.  The chains are ``DEFAULT_HUMAN_SKELETON``'s
    and ``DEFAULT_ROBOT``'s.
    """

    def __init__(self, tape, human_traj, robot_traj, sdf):
        self.tape = tape
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
            chain = DEFAULT_ROBOT.kinematic_chain(link, offset)
        return self.tape.link_point(self._states(agent, t), chain)

    def palm_point(self, agent: str, t: int | None = None) -> Ref:
        """The agent's palm point on its hand link: (3,) at step ``t``, or
        (H, 3) over every step when ``t`` is None."""
        if agent == "human":
            return self.point(agent, HUMAN_HAND_LINK, HUMAN_PALM_OFFSET, t)
        return self.point(agent, DEFAULT_ROBOT.hand_link, ROBOT_PALM_OFFSET, t)

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


def goal_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Squared distance between a link position at the final step and the
    goal point."""
    tape = ctx.tape
    pos = ctx.point(spec.agent, spec.link, t=ctx.steps() - 1)
    return tape.sum_squares(tape.sub(pos, tape.const(np.asarray(spec.target, dtype=np.float64))))


def collision_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Soft maximum over timesteps of -SDF(base), at
    ``SOFT_MAX_TEMPERATURE``; feasible <= 0."""
    if ctx.sdf is None:
        raise ProblemError("collision constraint needs a scene")
    tape = ctx.tape
    d = sdf_query_graph(tape, ctx.sdf, ctx.base_positions(spec.agent))
    # 0 - d as a sub node: the tape's node counts and bit-exact values rely on it
    return tape.logsumexp(tape.sub(tape.const(0.0), d), SOFT_MAX_TEMPERATURE)


def joint_clearance_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Soft maximum over timesteps of d^2 - |planar base offset|^2, at
    ``SOFT_MAX_TEMPERATURE``; feasible <= 0."""
    tape = ctx.tape
    delta = tape.sub(ctx.base_positions("human"), ctx.base_positions("robot"))
    values = tape.sub(tape.const(float(spec.clearance) ** 2),
                      tape.sum(tape.square(delta), axis=1))
    return tape.logsumexp(values, SOFT_MAX_TEMPERATURE)


def joint_goal_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Smooth minimum over agents and timesteps of squared palm-goal
    distance, at ``JOINT_GOAL_TEMPERATURE``.

    Lets the optimizer pick which agent reaches the point and when; the hard
    minimum is available separately for evaluation.
    """
    tape = ctx.tape
    target = tape.const(np.asarray(spec.target, dtype=np.float64))
    dists = []
    for agent in ("human", "robot"):
        hands = ctx.palm_point(agent)
        dists.append(tape.sum(tape.square(tape.sub(hands, target)), axis=1))
    return tape.smooth_min(tape.concat(dists), JOINT_GOAL_TEMPERATURE)


def handover_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Palm-to-palm squared distance plus a facing residual at the final step.

    The facing term is 1 + dot(facing_H, facing_R): zero exactly when the
    agents face each other, 2 when they face the same way.
    """
    tape = ctx.tape
    t = ctx.steps() - 1
    hand_h = ctx.palm_point("human", t)
    hand_r = ctx.palm_point("robot", t)
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


def compile_problem(problem: ProblemSpec, model: ModelParams | None = None) -> CompiledProblem:
    """Record the whole planning problem on a fresh tape at zero controls."""
    steps = problem.steps
    sdf = None if problem.scene is None else build_sdf(problem.scene, DEFAULT_RESOLUTION)

    tape = Tape()
    leaf_dims: dict[str, int] = {}
    lower_parts = []
    upper_parts = []

    human_traj = None
    modifiers = None
    if problem.plans_human:
        if model is None:
            raise ProblemError("planning the human needs model weights")
        dim = steps * MODIFIER_DIM
        modifiers = tape.leaf("u_h", np.zeros(dim))
        leaf_dims["u_h"] = dim
        lower_parts.append(np.full(dim, -np.inf))
        upper_parts.append(np.full(dim, np.inf))
        human_traj = unroll_graph(tape, model, problem.observed_human, modifiers, steps)
    elif problem.fixed_human is not None:
        # a leaf (not a decision variable) so the same tape replays against
        # other frozen trajectories, e.g. across prediction samples
        flat = tape.leaf("fixed_h", problem.fixed_human.reshape(-1))
        human_traj = tape.reshape(flat, (steps, STATE_DIM))

    robot_traj = None
    controls = None
    if problem.plans_robot:
        cdim = DEFAULT_ROBOT.control_dim
        dim = steps * cdim
        controls = tape.leaf("u_r", np.zeros(dim))
        leaf_dims["u_r"] = dim
        bounds = np.tile(DEFAULT_ROBOT.control_bounds(), steps)
        lower_parts.append(-bounds)
        upper_parts.append(bounds)
        robot_traj = robot_unroll_graph(tape, problem.robot_initial, controls, steps,
                                        DEFAULT_ROBOT.state_dim)
    elif problem.fixed_robot is not None:
        flat = tape.leaf("fixed_r", problem.fixed_robot.reshape(-1))
        robot_traj = tape.reshape(flat, problem.fixed_robot.shape)

    if not leaf_dims:
        raise ProblemError("nothing to optimize: no free agent")

    ctx = GraphContext(tape, human_traj, robot_traj, sdf)

    objective = control_objective_graph(
        tape, problem.weights, modifiers, controls, steps, DEFAULT_ROBOT.control_dim
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

    # (name, scalar value) pairs, one row per constraint
    ineq: list[tuple[str, Ref]] = []
    eq: list[tuple[str, Ref]] = []
    for i, spec in enumerate(problem.constraints):
        row = (f"{spec.kind}[{i}]", _BUILDERS[spec.kind](ctx, spec))
        (ineq if spec.kind in ("collision", "joint_clearance") else eq).append(row)

    parts = [tape.reshape(v, (1,)) for v in [objective] + [row for _, row in ineq + eq]]
    tape.set_output(tape.concat(parts) if len(parts) > 1 else parts[0])
    ineq_names = [name for name, _ in ineq]
    eq_names = [name for name, _ in eq]

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
# Plain-numpy control objective (reference implementation for tests)
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

# The top-level keys are "format", "version" and the field names of
# ProblemSpec; an unknown one is an error.  The keys of the weights, each
# constraint, each obstacle and the scene bounds are the field names of their
# dataclasses.  Each is written with asdict and read with schema.from_doc, so
# an unknown key is an error there too.  An obstacle also holds its "kind",
# and the weights must hold weight_human, weight_robot and frame_time,
# although ObjectiveWeights has defaults for them.


def _array_to_doc(a: np.ndarray | None):
    return None if a is None else [[float(v) for v in row] for row in np.atleast_2d(a)]


def save_problem(problem: ProblemSpec, path) -> None:
    doc = {
        "format": "comotion-problem",
        "version": 1,
        "horizon": problem.horizon,
        "weights": asdict(problem.weights),
        "constraints": [asdict(c) for c in problem.constraints],
        "observed_human": _array_to_doc(problem.observed_human),
        "robot_initial": None if problem.robot_initial is None
        else [float(v) for v in problem.robot_initial],
        "fixed_human": _array_to_doc(problem.fixed_human),
        "fixed_robot": _array_to_doc(problem.fixed_robot),
        "scene": None if problem.scene is None else scene_to_doc(problem.scene),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_problem(path) -> ProblemSpec:
    """Read a problem file; a file that is not JSON, lacks a key, holds an
    unknown key or a value of the wrong type or range is a ``ProblemError``
    naming ``path``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ProblemError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "comotion-problem":
        raise ProblemError(f"{path}: not a problem file")
    try:
        return _problem_from_doc(doc)
    except KeyError as exc:
        raise ProblemError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"{path}: {exc}") from None


def _problem_from_doc(doc: dict) -> ProblemSpec:
    unknown = sorted(set(doc) - {"format", "version"} - {f.name for f in fields(ProblemSpec)})
    if unknown:
        raise ProblemError(f"unknown key {unknown[0]!r}")
    horizon = doc["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ProblemError(f"horizon must be an integer, got {horizon!r}")
    return ProblemSpec(
        horizon=horizon,
        weights=from_doc(ObjectiveWeights, doc["weights"],
                         required=("weight_human", "weight_robot", "frame_time")),
        constraints=[from_doc(ConstraintSpec, c) for c in doc["constraints"]],
        observed_human=None if doc["observed_human"] is None else np.array(doc["observed_human"]),
        robot_initial=None if doc["robot_initial"] is None else np.array(doc["robot_initial"]),
        scene=None if doc.get("scene") is None else scene_from_doc(doc["scene"]),
        fixed_human=None if doc.get("fixed_human") is None else np.array(doc["fixed_human"]),
        fixed_robot=None if doc.get("fixed_robot") is None else np.array(doc["fixed_robot"]),
    )
