"""Planning problems: objective and constraint functions, compiled to a tape.

A :class:`ProblemSpec` declares the agents, step count, weights and constraints.
:func:`compile_problem` unrolls both dynamics onto one tape and appends every
constraint scalar and the state-dependent objective, so one backward pass
yields the gradient of any weighted combination with respect to all decision
variables (human decoder modifiers and robot controls).

The tape's output is one vector, a single ``concat`` of scalar rows: row 0 is
the state-dependent objective (the human base penalty, or 0), then come the
inequality rows and then the equality rows, each in constraint order.

θ packs ``CompiledProblem.decisions`` flat, one :class:`Decision` per planned
agent: the (H, MODIFIER_DIM) modifiers ``u_h``, free, then the (H,
ROBOT_CONTROL_DIM) controls ``u_r``, boxed by |u| <= ``ROBOT_CONTROL_BOUNDS``.
Each states its leaf's tape shape and its control-rate cost, quadratic in θ
and kept off the tape.  A frozen human is the leaf ``fixed_h``, the one input
a replay may replace (``evaluate``'s ``fixed_human``).

Conventions:
  * H is a problem's ``steps``: the number of planned timesteps after the
    observed history, indexed 0..H-1.  Goal and handover constraints act on
    the final step, H-1.
  * An agent is planned when the problem has its start (the human's observed
    history, the robot's initial state) and no frozen trajectory for it.
  * Inequality constraints are feasible at values <= 0.
  * Equality constraints are residuals driven to 0: squared distances, and
    for a handover the palms' squared distance plus a facing term, one
    ``handover`` node whose kernel :func:`handover_loss` runs too.
  * Obstacle clearance uses ``-SDF(base)``, one ``scene_distance`` node:
    the exact distance its success clause reads (``environment.scene_sdf``).
    Inter-agent clearance uses ``d^2 - |planar base offset|^2`` (the
    ground-plane distance, since the human base sits at pelvis height while
    the robot base is on the floor).
    Each is one row: the soft maximum over the H timesteps,
    ``tau * log(sum_t exp(v_t / tau))`` at ``tau = SOFT_MAX_TEMPERATURE`` in
    the row's own unit: metres for the collision row, m^2 for clearance.
  * Each agent's palm is a fixed point on its hand link, stated once in
    ``PALMS``.

``CONSTRAINT_KINDS`` states each constraint kind once: its row builder,
whether the row is an inequality, which agents it reads, and its success
clause, a numpy hard value of the row on the final trajectories with its
tolerance and the reason it names when it fails (``evaluation.check_success``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import FRAME_RATE
from .environment import Scene, scene_from_doc, scene_sdf, scene_to_doc
from .environment import build_sdf  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .graph import (Evaluation, Ref, Tape, backward, handover_residual, squared_differences,
                    squared_differences_adjoint)
from .human_model import MODIFIER_DIM, ModelParams, unroll_graph
from .kinematics import STATE_DIM, forward_kinematics
from .kinematics import kinematic_chain as human_chain
from .robot_model import (HAND_LINK, ROBOT_CONTROL_BOUNDS, ROBOT_CONTROL_DIM, ROBOT_STATE_DIM,
                          robot_fk, robot_unroll_graph)
from .robot_model import kinematic_chain as robot_chain
from .schema import atomic_open, from_doc, is_number, is_numbers

SOFT_MAX_TEMPERATURE = 0.01  # soft maximum over timesteps: m for collision, m^2 for clearance
# each agent's palm: its hand link and the palm's offset in that link's frame
PALMS = {
    "human": ("rWrist", (0.0, -0.10, 0.0)),  # the right arm points -y
    "robot": (HAND_LINK, (0.10, 0.0, 0.0)),  # the arm points +x
}
RESAMPLE_FACTOR = 10  # points per step of the dense path the hard values read


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectiveWeights:
    weight_human: float = 10.0
    weight_robot: float = 10.0
    frame_time: float = 1.0 / FRAME_RATE  # seconds per frame
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

    @property
    def agents(self) -> tuple[str, ...]:
        """The agents this constraint's row reads: both for a joint kind,
        else its own agent."""
        return ("human", "robot") if CONSTRAINT_KINDS[self.kind].joint else (self.agent,)


@dataclass
class ProblemSpec:
    """One planning instance.  ``steps`` is H, the number of planned
    timesteps after the observed history; constraints act on those H steps,
    and a frozen agent's trajectory has one row per step.  Which arrays are
    present decides each agent's role: see ``plans_human`` and
    ``plans_robot``.  The human is ``kinematics``' one skeleton and the robot
    ``robot_model``'s one arm.

    Construction checks that ``steps`` is an integer of at least 1, every
    array that is present (its shape and that each entry is finite), and
    that a collision constraint has a scene with an obstacle.  This is the
    one check of a problem's step count, arrays and scene."""

    steps: int
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    constraints: list = field(default_factory=list)
    observed_human: np.ndarray | None = None  # (k, 129)
    robot_initial: np.ndarray | None = None  # (ROBOT_STATE_DIM,)
    scene: Scene | None = None
    fixed_human: np.ndarray | None = None  # (H, 129) when the human is frozen
    fixed_robot: np.ndarray | None = None  # (H, ROBOT_STATE_DIM) when the robot is frozen

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ProblemError(f"steps must be an integer of at least 1, got {self.steps!r}")
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
        for name, shape in (("robot_initial", (ROBOT_STATE_DIM,)),
                            ("fixed_human", (self.steps, STATE_DIM)),
                            ("fixed_robot", (self.steps, ROBOT_STATE_DIM))):
            value = getattr(self, name)
            if value is not None and value.shape != shape:
                raise ProblemError(f"{name} must have shape {shape}, got {value.shape}")
        if (any(c.kind == "collision" for c in self.constraints)
                and (self.scene is None or not self.scene.obstacles)):
            raise ProblemError("a collision constraint needs a scene with an obstacle")

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

class GraphContext:
    """What constraint builders read from the agents' trajectories.

    ``steps`` is the problem's H, and ``human_traj``/``robot_traj`` are
    (H, dim) state trajectory refs, or None for an absent agent.  A point on
    a link is one ``link_point`` node, over one step's row or over the whole
    trajectory, through ``kinematics.kinematic_chain`` for the human and
    ``robot_model.kinematic_chain`` for the robot; base positions and state
    rows read the trajectory directly.
    """

    def __init__(self, tape, steps, human_traj, robot_traj, scene):
        self.tape = tape
        self.steps = steps
        self.scene = scene
        self._traj = {"human": human_traj, "robot": robot_traj}

    def trajectory(self, agent: str) -> Ref:
        traj = self._traj[agent]
        if traj is None:
            raise ProblemError(f"constraint references the {agent}, but no {agent} is present")
        return traj

    def states(self, agent: str, t: int | None) -> Ref:
        """The agent's state row at step ``t``, (D,), or its (H, D)
        trajectory when ``t`` is None."""
        traj = self.trajectory(agent)
        return traj if t is None else self.tape.take(traj, t)

    def point(self, agent: str, link: str, offset=(0.0, 0.0, 0.0), t: int | None = None) -> Ref:
        """World point of a link-frame ``offset`` on ``link``: (3,) at step
        ``t``, or (H, 3) over every step when ``t`` is None."""
        chain = (human_chain if agent == "human" else robot_chain)(link, offset)
        return self.tape.link_point(self.states(agent, t), chain)

    def palm_point(self, agent: str, t: int | None = None) -> Ref:
        """The agent's ``PALMS`` point: (3,) at step ``t``, or (H, 3) over
        every step when ``t`` is None."""
        return self.point(agent, *PALMS[agent], t)

    def base_positions(self, agent: str, dims: int = 2) -> Ref:
        """The agent's first ``dims`` base coordinates at every step, (H, dims)."""
        return self.tape.take(self.trajectory(agent), (slice(None), slice(0, dims)))


# ---------------------------------------------------------------------------
# Objective and constraints (graph builders)
# ---------------------------------------------------------------------------


def goal_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Squared distance between a link position at the final step and the
    goal point."""
    tape = ctx.tape
    pos = ctx.point(spec.agent, spec.link, t=ctx.steps - 1)
    return tape.sum_squares(tape.sub(pos, tape.const(np.asarray(spec.target, dtype=np.float64))))


def collision_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Soft maximum over timesteps of -SDF(base), at
    ``SOFT_MAX_TEMPERATURE``; feasible <= 0."""
    tape = ctx.tape
    d = tape.scene_distance(ctx.base_positions(spec.agent), ctx.scene)
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
    distance, at tau = tol / ln(2H), tol the ``joint_goal`` tolerance.

    Lets the optimizer pick which agent reaches the point and when; the hard
    minimum is available separately for evaluation.  The smooth minimum of n
    entries lies at most tau ln(n) below their hard minimum (Nesterov 2005,
    Math. Prog. 103), so over the 2H entries a row at 0 puts a palm within
    the success clause's tolerance: tau = 0.00228 m^2 at H = 40.
    """
    tau = CONSTRAINT_KINDS["joint_goal"].tolerance / math.log(2 * ctx.steps)
    tape = ctx.tape
    target = tape.const(np.asarray(spec.target, dtype=np.float64))
    dists = []
    for agent in ("human", "robot"):
        hands = ctx.palm_point(agent)
        dists.append(tape.sum(tape.square(tape.sub(hands, target)), axis=1))
    return tape.smooth_min(tape.concat(dists), tau)


def handover_constraint_graph(ctx: GraphContext, spec: ConstraintSpec) -> Ref:
    """Palm-to-palm squared distance plus a facing residual at the final
    step, one ``handover`` node over the palm points and the state rows.

    The facing term is 1 + dot(facing_H, facing_R): zero exactly when the
    agents face each other, 2 when they face the same way.
    """
    t = ctx.steps - 1
    palms = ctx.palm_point("human", t), ctx.palm_point("robot", t)
    return ctx.tape.handover(*palms, ctx.states("human", t), ctx.states("robot", t))


# ---------------------------------------------------------------------------
# Hard values (each row's numpy twin on final trajectories) and the kind table
# ---------------------------------------------------------------------------


def _fk(agent: str):
    return forward_kinematics if agent == "human" else robot_fk


def palm_points(agent: str, states) -> np.ndarray:
    """The agent's ``PALMS`` points, (3,) for one state or (N, 3) for a batch."""
    link, offset = PALMS[agent]
    pos, R = _fk(agent)(states, link)
    return pos + R @ np.asarray(offset)


def handover_loss(human_states, robot_state):
    """Hard handover residual: the handover row's kernel
    (:func:`graph.handover_residual`) on the agents' palms.

    A float for one human state, an (N,) array for a batch of them.
    """
    human_states = np.asarray(human_states, dtype=np.float64)
    loss = handover_residual(palm_points("human", human_states),
                             palm_points("robot", robot_state), human_states, robot_state)
    return float(loss) if human_states.ndim == 1 else loss


def _dense_bases(traj: np.ndarray) -> np.ndarray:
    """The planar base path with ``RESAMPLE_FACTOR`` interpolated points per step."""
    xy = traj[:, :2]
    if len(xy) < 2:
        return xy
    ts = np.linspace(0.0, 1.0, RESAMPLE_FACTOR + 1)[1:]
    steps = xy[:-1, None, :] + ts[None, :, None] * (xy[1:] - xy[:-1])[:, None, :]
    return np.vstack([xy[:1], steps.reshape(-1, 2)])


def goal_distance(spec: ConstraintSpec, trajs: dict, scene) -> float:
    """The distance of ``spec.link`` at the final step from the target, in m."""
    pos, _ = _fk(spec.agent)(trajs[spec.agent][-1], spec.link)
    return float(np.linalg.norm(pos - np.asarray(spec.target)))


def scene_penetration(spec: ConstraintSpec, trajs: dict, scene) -> float:
    """The maximum of -SDF over the dense base path, in m."""
    return -float(np.min(scene_sdf(scene, _dense_bases(trajs[spec.agent]))))


def clearance_shortfall(spec: ConstraintSpec, trajs: dict, scene) -> float:
    """The clearance less the least planar distance of the dense base paths, in m."""
    delta = _dense_bases(trajs["human"]) - _dense_bases(trajs["robot"])
    return spec.clearance - float(np.min(np.linalg.norm(delta, axis=1)))


def pickup_distance(spec: ConstraintSpec, trajs: dict, scene) -> float:
    """The least squared palm-target distance over both agents and all steps, in m^2."""
    target = np.asarray(spec.target)
    return min(float(np.min(np.sum((palm_points(agent, trajs[agent]) - target) ** 2, axis=1)))
               for agent in ("human", "robot"))


@dataclass(frozen=True)
class ConstraintKind:
    """One constraint kind: its row and its success clause.

    ``row(ctx, spec)`` records the scalar row, an inequality (feasible <= 0)
    or an equality residual.  A ``joint`` kind reads both agents, any other
    only ``spec.agent``.  ``hard(spec, trajs, scene)`` is the row's numpy
    twin on the final trajectories ``{"human": ..., "robot": ...}``: hard
    where the row is soft, on the dense base path where it reads every step.
    The clause fails, naming ``reason``, when that value exceeds
    ``tolerance``; a kind that reads one agent keys both by agent.  With
    ``objective``, a problem that has the constraint also holds its plan to
    ``evaluation.check_success``'s objective clause.
    """

    row: Callable[[GraphContext, ConstraintSpec], Ref]
    inequality: bool
    joint: bool
    hard: Callable[[ConstraintSpec, dict, Scene | None], float]
    reason: str | dict[str, str]
    tolerance: float | dict[str, float]
    objective: bool = True

    def clause(self, spec: ConstraintSpec) -> tuple[str, float]:
        """The reason and tolerance of ``spec``'s success clause."""
        if self.joint:
            return self.reason, self.tolerance
        return self.reason[spec.agent], self.tolerance[spec.agent]


CONSTRAINT_KINDS = {
    "goal": ConstraintKind(goal_constraint_graph, False, False, goal_distance,
                           {"human": "hand-goal", "robot": "robot-base-goal"},
                           {"human": 0.1, "robot": 0.2}, objective=False),
    "collision": ConstraintKind(collision_constraint_graph, True, False, scene_penetration,
                                {"human": "human-scene-collision",
                                 "robot": "robot-scene-collision"},
                                {"human": 0.0, "robot": 0.0}),
    # the 0.01 m slack of a check on the dense path
    "joint_clearance": ConstraintKind(joint_clearance_constraint_graph, True, True,
                                      clearance_shortfall, "agent-clearance", 0.01),
    # one palm passes within 0.1 m of the pickup point
    "joint_goal": ConstraintKind(joint_goal_constraint_graph, False, True, pickup_distance,
                                 "pickup-goal", 0.1 ** 2),
    "handover": ConstraintKind(
        handover_constraint_graph, False, True,
        lambda spec, trajs, scene: handover_loss(trajs["human"][-1], trajs["robot"][-1]),
        "handover-loss", 0.1),
}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One decision leaf of θ, recorded in (steps, width) ``shape``.  Its
    control-rate cost (``graph.squared_differences``) is ``scale``, the
    agent's weight over the squared frame time, times the summed squared steps
    of its rows: Q's block 2 scale (DᵀD ⊗ I), D the (steps - 1, steps)
    difference matrix.  ``bound`` is the box |entry| <= bound, one magnitude
    per column, or None for a free leaf."""

    leaf: str
    shape: tuple[int, int]
    scale: float
    bound: tuple[float, ...] | None = None


@dataclass
class CompiledProblem:
    """A problem recorded on one tape: replayable, differentiable, packed.

    The tape output is the vector [r, g_1..g_m, h_1..h_k] (see the module
    docstring), its rows named by ``ineq_names`` and ``eq_names``; feasible
    inequalities are <= 0.  θ packs the leaves of ``decisions`` flat, in
    order; the objective adds their control-rate cost ½ θᵀQθ to row r, off
    the tape.
    """

    tape: Tape
    decisions: tuple[Decision, ...]
    ineq_names: list[str]
    eq_names: list[str]
    human_traj: Ref | None  # (H, 129) state trajectory
    robot_traj: Ref | None  # (H, ROBOT_STATE_DIM)

    @property
    def n(self) -> int:
        return sum(math.prod(d.shape) for d in self.decisions)

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """The decision leaves' values in θ, in their recorded shapes."""
        if np.shape(theta) != (self.n,):
            raise ProblemError(f"theta must have shape ({self.n},), got {np.shape(theta)}")
        out = {}
        pos = 0
        for d in self.decisions:
            size = math.prod(d.shape)
            out[d.leaf] = theta[pos : pos + size].reshape(d.shape)
            pos += size
        return out

    def evaluate(self, theta: np.ndarray, fixed_human: np.ndarray | None = None):
        """Returns (objective, ineq values, eq values, Evaluation).

        ``fixed_human`` replaces the frozen human trajectory the tape was
        recorded with, so one tape replays against other forecasts, e.g.
        prediction samples; a tape without a frozen human refuses it.
        """
        leaves = self.split(theta)
        control = sum(squared_differences(leaves[d.leaf], d.scale) for d in self.decisions)
        if fixed_human is not None:
            if "fixed_h" not in self.tape.leaves:
                raise ProblemError("fixed_human given, but the problem has no frozen human")
            leaves["fixed_h"] = fixed_human
        ev = self.tape.forward(leaves)
        out = ev.output
        m = len(self.ineq_names)
        return float(out[0] + control), out[1 : 1 + m].copy(), out[1 + m :].copy(), ev

    def gradient(self, seed: np.ndarray, at: Evaluation) -> np.ndarray:
        """Gradient of seed . [objective, g, h] w.r.t. the packed variables."""
        grads = backward(self.tape, seed, at=at, wrt=[d.leaf for d in self.decisions])
        for d in self.decisions:
            rows = at.values[self.tape.leaves[d.leaf]]
            grads[d.leaf] = grads[d.leaf] + squared_differences_adjoint(rows, d.scale, seed[0])
        return np.concatenate([grads[d.leaf].reshape(-1) for d in self.decisions])

    def trajectories(self, at: Evaluation):
        """Human and robot state sequences at an evaluation (None if absent)."""
        return tuple(None if traj is None else at.value_of(traj).copy()
                     for traj in (self.human_traj, self.robot_traj))


def compile_problem(problem: ProblemSpec, model: ModelParams | None = None) -> CompiledProblem:
    """Record the whole planning problem on a fresh tape at zero controls."""
    steps = problem.steps
    tape = Tape()
    weights = problem.weights
    inv_dt2 = 1.0 / (weights.frame_time ** 2)
    decisions = []

    human_traj = None
    if problem.plans_human:
        if model is None:
            raise ProblemError("planning the human needs model weights")
        decision = Decision("u_h", (steps, MODIFIER_DIM), weights.weight_human * inv_dt2)
        modifiers = tape.leaf(decision.leaf, np.zeros(decision.shape))
        human_traj = unroll_graph(tape, model, problem.observed_human, modifiers, steps)
        decisions.append(decision)
    elif problem.fixed_human is not None:
        # a leaf (not a decision variable) so the same tape replays against
        # other frozen trajectories, e.g. across prediction samples
        human_traj = tape.leaf("fixed_h", problem.fixed_human)

    robot_traj = None
    if problem.plans_robot:
        decision = Decision("u_r", (steps, ROBOT_CONTROL_DIM), weights.weight_robot * inv_dt2,
                            ROBOT_CONTROL_BOUNDS)
        controls = tape.leaf(decision.leaf, np.zeros(decision.shape))
        robot_traj = robot_unroll_graph(tape, problem.robot_initial, controls, steps)
        decisions.append(decision)
    elif problem.fixed_robot is not None:
        robot_traj = tape.leaf("fixed_r", problem.fixed_robot)

    if not decisions:
        raise ProblemError("nothing to optimize: no free agent")

    ctx = GraphContext(tape, steps, human_traj, robot_traj, problem.scene)
    if weights.human_base_penalty > 0 and human_traj is not None:
        anchor = (problem.observed_human[-1] if problem.observed_human is not None
                  else problem.fixed_human[0])
        bases = tape.concat([tape.const(anchor[None, :3]), ctx.base_positions("human", 3)])
        objective = tape.squared_differences(bases, weights.human_base_penalty)
    else:
        objective = tape.const(0.0)

    # (name, scalar value) pairs, one row per constraint
    ineq: list[tuple[str, Ref]] = []
    eq: list[tuple[str, Ref]] = []
    for i, spec in enumerate(problem.constraints):
        kind = CONSTRAINT_KINDS[spec.kind]
        (ineq if kind.inequality else eq).append((f"{spec.kind}[{i}]", kind.row(ctx, spec)))

    tape.set_output(tape.concat([objective] + [row for _, row in ineq + eq]))

    return CompiledProblem(
        tape=tape,
        decisions=tuple(decisions),
        ineq_names=[name for name, _ in ineq],
        eq_names=[name for name, _ in eq],
        human_traj=human_traj,
        robot_traj=robot_traj,
    )


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
    return None if a is None else a.tolist()


def problem_to_doc(problem: ProblemSpec) -> dict:
    """The JSON document of a problem file."""
    return {
        "format": "comotion-problem",
        "version": 1,
        "steps": problem.steps,
        "weights": asdict(problem.weights),
        "constraints": [asdict(c) for c in problem.constraints],
        "observed_human": _array_to_doc(problem.observed_human),
        "robot_initial": _array_to_doc(problem.robot_initial),
        "fixed_human": _array_to_doc(problem.fixed_human),
        "fixed_robot": _array_to_doc(problem.fixed_robot),
        "scene": None if problem.scene is None else scene_to_doc(problem.scene),
    }


def save_problem(problem: ProblemSpec, path) -> None:
    with atomic_open(path) as fh:
        json.dump(problem_to_doc(problem), fh)


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
    return ProblemSpec(
        steps=doc["steps"],
        weights=from_doc(ObjectiveWeights, doc["weights"],
                         required=("weight_human", "weight_robot", "frame_time")),
        constraints=[from_doc(ConstraintSpec, c) for c in doc["constraints"]],
        observed_human=None if doc["observed_human"] is None else np.array(doc["observed_human"]),
        robot_initial=None if doc["robot_initial"] is None else np.array(doc["robot_initial"]),
        scene=None if doc.get("scene") is None else scene_from_doc(doc["scene"]),
        fixed_human=None if doc.get("fixed_human") is None else np.array(doc["fixed_human"]),
        fixed_robot=None if doc.get("fixed_robot") is None else np.array(doc["fixed_robot"]),
    )
