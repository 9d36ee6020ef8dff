"""Baselines, error/smoothness metrics, success checks and batch drivers.

Methods compared throughout the experiments:

* ``ours``: joint optimization of the human prediction and the robot plan
  (``human_prio``/``robot_prio`` are the same with shifted agent weights).
* ``initial``: the plain prediction; the robot, when free, is optimized
  against it as a fixed trajectory, and a frozen robot keeps its trajectory.
* ``zerovel``: the no-movement prediction, treated like ``initial``.
* ``sample``: noisy-hidden-state prediction samples, ranked by a heuristic,
  with robot-only optimization attempted against each until one succeeds.
* ``with_coll`` / ``human_avoids`` / ``robot_avoids``: sequential pipelines
  that optimize the agents separately (and in the avoid variants freeze the
  first agents' result while the second keeps a clearance to it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import human_model as hm
from .chains import NORM_EPS
from .environment import scene_sdf
from .kinematics import (
    ARM_JOINT_NAMES,
    DEFAULT_HUMAN_SKELETON,
    NUM_JOINTS,
    forward_kinematics,
    quat_from_rot6d,
    relative_angle,
)
from .objectives import (HUMAN_HAND_LINK, HUMAN_PALM_OFFSET, ROBOT_PALM_OFFSET, ConstraintSpec,
                         ProblemSpec, compile_problem)
from .robot_model import DEFAULT_ROBOT, robot_fk
from .solver import IterationRecord, SolveResult, SolverConfig, solve_compiled

METHODS = (
    "ours",
    "human_prio",
    "robot_prio",
    "initial",
    "zerovel",
    "sample",
    "with_coll",
    "human_avoids",
    "robot_avoids",
)

WEIGHT_PRESETS = {
    "human_prio": (100.0, 1.0),
    "robot_prio": (1.0, 100.0),
}


class EvaluationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Prediction baselines
# ---------------------------------------------------------------------------


def zerovel_predict(observed: np.ndarray, horizon: int) -> np.ndarray:
    """No-movement baseline: repeats the last observed frame."""
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 2 or observed.shape[0] < 1:
        raise EvaluationError("need at least one observed frame")
    return np.tile(observed[-1], (horizon, 1))


@dataclass(frozen=True)
class SampleConfig:
    num_samples: int = 100
    # None: one variance for every layer, 0.05 times the mean over the layers
    # of each layer's mean |hidden|
    noise_variance: float | None = None
    # "distance_to_goal", "handover_loss", or None: from the problem's
    # constraints (see default_ranking)
    ranking: str | None = None

    def __post_init__(self):
        if self.num_samples < 1:
            raise EvaluationError(f"num_samples must be at least 1, got {self.num_samples}")
        if self.noise_variance is not None and self.noise_variance <= 0:
            raise EvaluationError("noise variance must be positive")
        if self.ranking not in (None, "distance_to_goal", "handover_loss"):
            raise EvaluationError(f"unknown ranking {self.ranking!r}")


def default_ranking(problem: ProblemSpec) -> str:
    """The sample ranking a problem supports: ``handover_loss`` when it has a
    handover constraint, else ``distance_to_goal`` when it has a human goal."""
    if _find(problem, "handover") is not None:
        return "handover_loss"
    if _find(problem, "goal", "human") is not None:
        return "distance_to_goal"
    raise EvaluationError("no sample ranking applies: the problem has neither a "
                          "handover constraint nor a human goal constraint")


def sample_predictions(model, observed, horizon, config: SampleConfig, seed: int):
    """Decode ``num_samples`` futures from Gaussian-perturbed hidden states;
    returns them as an (S, horizon, 129) array.

    The seeded noise is drawn sample by sample, layer by layer, and the S
    perturbed states decode at once, as the columns of one uncontrolled
    unroll.  The result is a view of that unroll's (horizon, 129, S) output.
    """
    rng = np.random.default_rng(seed)
    hiddens = hm.encode(model, observed)
    var = config.noise_variance
    if var is None:
        mean_mag = float(np.mean([np.mean(np.abs(h)) for h in hiddens]))
        var = max(0.05 * mean_mag, 1e-12)
    sigma = np.sqrt(var)
    sizes = [h.shape[0] for h in hiddens]
    noise = rng.standard_normal((config.num_samples, sum(sizes)))
    noisy = [h[:, None] + sigma * z.T
             for h, z in zip(hiddens, np.split(noise, np.cumsum(sizes)[:-1], axis=1))]
    states = hm.unroll_decoder(model, observed[-1], observed[-1] - observed[-2], noisy, None,
                               horizon)
    return np.moveaxis(states, 2, 0)


def _palms(agent: str, states) -> np.ndarray:
    """Palm points, (3,) for one state or (N, 3) for a batch."""
    if agent == "human":
        pos, R = forward_kinematics(DEFAULT_HUMAN_SKELETON, states, HUMAN_HAND_LINK)
        return pos + R @ np.asarray(HUMAN_PALM_OFFSET)
    pos, R = robot_fk(DEFAULT_ROBOT, states, DEFAULT_ROBOT.hand_link)
    return pos + R @ np.asarray(ROBOT_PALM_OFFSET)


def handover_loss(human_states, robot_state):
    """Hard handover residual: palm distance squared plus the facing term.

    A float for one human state, an (N,) array for a batch of them.  The
    human faces along the normalized xy of its base 6-D rotation's first
    column, the robot along its heading, as on the tape.
    """
    human_states = np.asarray(human_states, dtype=np.float64)
    ph = _palms("human", human_states)
    pr = _palms("robot", robot_state)
    xy = human_states[..., 3:5]
    hh = xy / np.sqrt(np.sum(xy * xy, axis=-1, keepdims=True) + NORM_EPS)
    th = robot_state[2]
    loss = np.sum((ph - pr) ** 2, axis=-1) + (1.0 + hh @ np.array([np.cos(th), np.sin(th)]))
    return float(loss) if human_states.ndim == 1 else loss


def rank_predictions(samples, config: SampleConfig, problem: ProblemSpec):
    """Order sample indices by the configured heuristic, best first."""
    ranking = config.ranking if config.ranking is not None else default_ranking(problem)
    finals = np.stack([s[-1] for s in samples])
    if ranking == "distance_to_goal":
        goal = _find(problem, "goal", "human")
        if goal is None:
            raise EvaluationError("distance_to_goal ranking needs a human goal constraint")
        pos, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, finals, goal.link)
        scores = np.linalg.norm(pos - np.asarray(goal.target), axis=1)
    else:
        if _find(problem, "handover") is None:
            raise EvaluationError("handover_loss ranking needs a handover constraint")
        scores = handover_loss(finals, np.asarray(problem.robot_initial))
    return list(np.argsort(scores, kind="stable"))


def _find(problem: ProblemSpec, kind: str, agent: str | None = None) -> ConstraintSpec | None:
    """The first constraint of ``kind`` (acting on ``agent``, when given)."""
    for c in problem.constraints:
        if c.kind == kind and (agent is None or c.agent == agent):
            return c
    return None


# ---------------------------------------------------------------------------
# Method results
# ---------------------------------------------------------------------------


@dataclass
class MethodResult:
    method: str
    human_traj: np.ndarray | None
    robot_traj: np.ndarray | None
    modifiers: np.ndarray | None
    controls: np.ndarray | None
    objective: float
    solver_status: str
    details: dict = field(default_factory=dict)
    # the iteration log of the method's solve; None unless it runs exactly one
    log: list[IterationRecord] | None = None


def _solved(method: str, res: SolveResult, **details) -> MethodResult:
    """``method``'s result from its solve ``res``.  Without ``details`` that
    solve is the method's only one, and its iteration count and log go with
    it."""
    log = None if details else res.log
    details = details or {"iterations": res.iterations}
    return MethodResult(method, res.human_traj, res.robot_traj, res.modifiers, res.controls,
                        res.objective, res.status, details, log)


_OTHER = {"human": "robot", "robot": "human"}
_JOINT_KINDS = ("joint_clearance", "joint_goal", "handover")


def _single_agent_problem(problem: ProblemSpec, agent: str,
                          other_traj: np.ndarray | None) -> ProblemSpec:
    """``problem`` with only ``agent`` planned and the other agent frozen on
    ``other_traj``, or absent when there is none.  The other agent's goal and
    collision constraints go, and so do the joint constraints when there is no
    ``other_traj`` to freeze."""
    other = _OTHER[agent]
    constraints = [
        c for c in problem.constraints
        if not (c.kind in ("goal", "collision") and c.agent == other)
        and not (other_traj is None and c.kind in _JOINT_KINDS)
    ]
    if agent == "human":
        return replace(problem, constraints=constraints, robot_initial=None,
                       fixed_robot=other_traj)
    if other_traj is None:
        return replace(problem, constraints=constraints, observed_human=None,
                       horizon=problem.steps)
    return replace(problem, constraints=constraints, fixed_human=other_traj)


def _solve_robot_against(problem, human_traj, solver_config,
                         compiled_cache=None) -> SolveResult:
    """Robot-only solve with the human frozen; caches the compiled tape."""
    if compiled_cache is not None and "compiled" in compiled_cache:
        return solve_compiled(compiled_cache["compiled"], solver_config,
                              extra_leaves={"fixed_h": human_traj.reshape(-1)})
    compiled = compile_problem(_single_agent_problem(problem, "robot", human_traj))
    if compiled_cache is not None:
        compiled_cache["compiled"] = compiled
    return solve_compiled(compiled, solver_config)


# method -> (the agent solved first, whether the second solve keeps clear of
# the first agent's frozen result, details)
_SEQUENTIAL = {
    "with_coll": ("human", False, {}),
    "human_avoids": ("robot", True, {"frozen": "robot"}),
    "robot_avoids": ("human", True, {"frozen": "human"}),
}


def run_method(
    problem: ProblemSpec,
    method: str,
    model: hm.ModelParams | None,
    *,
    solver_config: SolverConfig = SolverConfig(),
    sample_config: SampleConfig = SampleConfig(),
    kind: str | None = None,
    seed: int = 0,
) -> MethodResult:
    """Run one planning method on one problem; ``kind`` defaults to ``default_kind``."""
    if method not in METHODS:
        raise EvaluationError(f"unknown method {method!r}")
    if method in WEIGHT_PRESETS:
        wh, wr = WEIGHT_PRESETS[method]
        problem = replace(problem,
                          weights=replace(problem.weights, weight_human=wh, weight_robot=wr))

    steps = problem.steps
    # with one planned agent a sequential baseline has nothing to sequence:
    # its one solve is the joint solve
    if method in ("ours", "human_prio", "robot_prio") or (
            method in _SEQUENTIAL and not (problem.plans_human and problem.plans_robot)):
        compiled = compile_problem(problem, model=model)
        return _solved(method, solve_compiled(compiled, solver_config))

    if method in ("initial", "zerovel"):
        human = (
            hm.predict(model, problem.observed_human, horizon=steps)
            if method == "initial"
            else zerovel_predict(problem.observed_human, steps)
        )
        if not problem.plans_robot:  # no robot, or a frozen one: nothing to solve
            return MethodResult(method, human, problem.fixed_robot, None, None, 0.0, "converged")
        return _solved(method, _solve_robot_against(problem, human, solver_config))

    if method == "sample":
        samples = sample_predictions(model, problem.observed_human, steps,
                                     sample_config, seed)
        order = rank_predictions(samples, sample_config, problem)
        if not problem.plans_robot:
            return MethodResult(method, samples[order[0]], problem.fixed_robot, None, None, 0.0,
                                "converged", details={"attempts": 0, "picked": int(order[0])})
        kind = kind or default_kind(problem)
        cache: dict = {}
        top_ranked = None
        for attempt, idx in enumerate(order, 1):
            res = _solve_robot_against(problem, samples[idx], solver_config,
                                       compiled_cache=cache)
            candidate = _solved(method, res, attempts=attempt, picked=int(idx),
                                succeeded=True)
            ok, _ = check_success(problem, candidate, kind)
            if ok:
                return candidate
            if top_ranked is None:
                top_ranked = candidate
        # no sample succeeded: the top-ranked one, after one solve per sample
        top_ranked.details.update(attempts=len(order), succeeded=False)
        return top_ranked

    first, avoids, details = _SEQUENTIAL[method]
    solved = {}
    frozen = None
    for agent in (first, _OTHER[first]):
        sub = _single_agent_problem(problem, agent, frozen)
        res = solve_compiled(
            compile_problem(sub, model=model if agent == "human" else None),
            solver_config,
        )
        solved[agent] = res
        if avoids:
            frozen = res.human_traj if agent == "human" else res.robot_traj
    hres, rres = solved["human"], solved["robot"]
    return MethodResult(method, hres.human_traj, rres.robot_traj, hres.modifiers,
                        rres.controls, hres.objective + rres.objective,
                        _combine_status(hres, rres), details=dict(details))


def _combine_status(a: SolveResult, b: SolveResult) -> str:
    order = ("numeric-failure", "infeasible", "max-iter", "converged")
    return order[min(order.index(a.status), order.index(b.status))]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def path_length(xy: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(xy, axis=0), axis=1)))


def mean_squared_jerk(xy: np.ndarray, dt: float) -> float:
    """Negative mean squared third difference per dt^3; 0 is maximally smooth."""
    if len(xy) < 4:
        raise EvaluationError("jerk metrics need at least 4 frames")
    jerk = np.diff(xy, n=3, axis=0) / dt ** 3
    return -float(np.mean(np.sum(jerk ** 2, axis=1)))


def log_dimensionless_jerk(xy: np.ndarray, dt: float) -> float:
    """-ln of the dimensionless squared-jerk integral, clamped to <= 0.

    Stationary or jerk-free motion reports 0 (maximally smooth).
    """
    if len(xy) < 4:
        raise EvaluationError("jerk metrics need at least 4 frames")
    vel = np.diff(xy, axis=0) / dt
    speed = np.linalg.norm(vel, axis=1)
    peak = float(np.max(speed))
    if peak < 1e-9:
        return 0.0
    jerk = np.diff(xy, n=3, axis=0) / dt ** 3
    integral = float(np.sum(np.sum(jerk ** 2, axis=1)) * dt)
    if integral < 1e-12:
        return 0.0
    duration = dt * (len(xy) - 1)
    dj = duration ** 3 / peak ** 2 * integral
    return min(0.0, -float(np.log(dj)))


def spectral_arc_length(speed: np.ndarray, fs: float) -> float:
    """Spectral arc length of a speed profile (closer to 0 is smoother).

    The spectrum is zero-padded 16-fold past the next power of two and cut at
    10 Hz, then trimmed to the band where it reaches 5% of its peak.
    """
    speed = np.asarray(speed, dtype=np.float64)
    if speed.size < 2 or float(np.max(speed)) < 1e-9:
        return 0.0
    nfft = int(2 ** (np.ceil(np.log2(speed.size)) + 4))
    freqs = np.arange(nfft) * (fs / nfft)
    mag = np.abs(np.fft.fft(speed, nfft))
    mag = mag / np.max(mag)
    sel = freqs <= 10.0
    f_sel, m_sel = freqs[sel], mag[sel]
    above = np.nonzero(m_sel >= 0.05)[0]
    f_sel = f_sel[above[0] : above[-1] + 1]
    m_sel = m_sel[above[0] : above[-1] + 1]
    if f_sel.size < 2:
        return 0.0
    df = np.diff(f_sel) / (f_sel[-1] - f_sel[0])
    dm = np.diff(m_sel)
    return -float(np.sum(np.sqrt(df ** 2 + dm ** 2)))


def compute_metrics(
    human_traj: np.ndarray | None,
    robot_traj: np.ndarray | None,
    ground_truth: np.ndarray | None = None,
    dt: float = 0.05,
    sample_seconds=(0.4, 0.8, 1.2, 1.6, 2.0),
    robot_initial: np.ndarray | None = None,
    human_start: np.ndarray | None = None,
) -> dict:
    """Travel and robot smoothness metrics, then errors against ground truth,
    as one record row.

    Travel distances are planar path lengths of each base.  Smoothness is
    computed on the robot base path (the planned agent); jerk metrics are
    undefined below 4 frames and stay None there.  The errors
    (``base_pos@<s>s`` in meters, ``angle@<s>s`` over all joints and
    ``angle_arm@<s>s`` over the right arm in radians) sample the exact frames
    closest to the requested horizon seconds.
    """
    travel_h = travel_r = ms = ld = sal = None
    if human_traj is not None:
        xy = human_traj[:, :2]
        if human_start is not None:
            xy = np.vstack([human_start[None, :2], xy])
        travel_h = path_length(xy)
    if robot_traj is not None:
        xy = robot_traj[:, :2]
        if robot_initial is not None:
            xy = np.vstack([robot_initial[None, :2], xy])
        travel_r = path_length(xy)
        if len(robot_traj) >= 4:
            ms = mean_squared_jerk(xy, dt)
            ld = log_dimensionless_jerk(xy, dt)
            speed = np.linalg.norm(np.diff(xy, axis=0), axis=1) / dt
            sal = spectral_arc_length(speed, fs=1.0 / dt)
    row = {"travel_human": travel_h, "travel_robot": travel_r, "ms_jerk": ms, "ld_jerk": ld,
           "sparc": sal}
    if human_traj is not None and ground_truth is not None:
        n = min(len(human_traj), len(ground_truth))
        seconds = [s for s in sample_seconds if 0 <= int(round(s / dt)) - 1 < n]
        frames = [int(round(s / dt)) - 1 for s in seconds]
        pred, truth = human_traj[frames], ground_truth[frames]
        rot6d = np.stack([pred, truth])[..., 3:].reshape(2, len(frames), NUM_JOINTS, 6)
        angles = relative_angle(*quat_from_rot6d(rot6d))  # (frames, joints)
        arm_idx = [DEFAULT_HUMAN_SKELETON.index(nm) for nm in ARM_JOINT_NAMES]
        for name, values in (("base_pos", np.linalg.norm(pred[:, :3] - truth[:, :3], axis=1)),
                             ("angle", np.mean(angles, axis=1)),
                             ("angle_arm", np.mean(angles[:, arm_idx], axis=1))):
            row.update((f"{name}@{s:g}s", v) for s, v in zip(seconds, values.tolist()))
    return row


# ---------------------------------------------------------------------------
# Success checking
# ---------------------------------------------------------------------------


# Success thresholds
HAND_GOAL_MAX = 0.1  # m, also the pickup distance
ROBOT_BASE_GOAL_MAX = 0.2  # m
OBJECTIVE_MAX = 0.1
HANDOVER_LOSS_MAX = 0.1
CLEARANCE_SLACK = 0.01  # m, tolerance on the dense check
RESAMPLE_FACTOR = 10  # dense-check points per step
KINDS = ("goal", "collision", "handover", "pickup_handover")  # what check_success scores


def default_kind(problem: ProblemSpec) -> str:
    """The experiment kind a problem's constraints describe."""
    kinds = {c.kind for c in problem.constraints}
    if "joint_goal" in kinds and "handover" in kinds:
        return "pickup_handover"
    if "handover" in kinds:
        return "handover"
    if "joint_clearance" in kinds or "collision" in kinds:
        return "collision"
    return "goal"


def _resample(xy: np.ndarray, factor: int) -> np.ndarray:
    if len(xy) < 2 or factor <= 1:
        return xy
    out = [xy[:1]]
    for a, b in zip(xy[:-1], xy[1:]):
        ts = np.linspace(0.0, 1.0, factor + 1)[1:]
        out.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    return np.vstack(out)


def min_scene_distance(scene, xy: np.ndarray, factor: int) -> float:
    dense = _resample(xy, factor)
    return float(np.min(scene_sdf(scene, dense)))


def min_clearance(human_xy: np.ndarray, robot_xy: np.ndarray, factor: int) -> float:
    dh = _resample(human_xy, factor)
    dr = _resample(robot_xy, factor)
    return float(np.min(np.linalg.norm(dh - dr, axis=1)))


def joint_goal_diagnostic(problem: ProblemSpec, human_traj, robot_traj):
    """Hard minimum of the pickup distances: which agent, when, how close."""
    spec = _find(problem, "joint_goal")
    if spec is None:
        raise EvaluationError("problem has no joint goal constraint")
    target = np.asarray(spec.target)
    best = None
    for agent, traj in (("human", human_traj), ("robot", robot_traj)):
        d = np.sum((_palms(agent, traj) - target) ** 2, axis=1)
        t = int(np.argmin(d))
        if best is None or d[t] < best[2]:
            best = (agent, t, float(d[t]))
    return best


def check_success(problem: ProblemSpec, result: MethodResult,
                  kind: str) -> tuple[bool, list[str]]:
    """Threshold conjunction for one experiment kind; reasons name failures.

    * ``goal``: the human hand ends within 0.1 m of its goal.
    * ``collision``: that, the robot base ends within 0.2 m of its goal,
      neither base path enters an obstacle, the bases keep the distance of
      the problem's joint clearance constraint apart (less a 0.01 m slack),
      where it has one, and the objective is at most 0.1.
    * ``handover``: no scene collision, a final handover loss and an
      objective of at most 0.1 each.
    * ``pickup_handover``: that, and one palm passes within 0.1 m of the
      pickup target.

    Collision and clearance clauses evaluate the hard constraint values on a
    base path resampled 10 times per step.  Any other kind raises.
    """
    if kind not in KINDS:
        raise EvaluationError(f"unknown experiment kind {kind!r}")
    reasons = []
    human, rob = result.human_traj, result.robot_traj

    def scene_clear(xy, who):
        if problem.scene is None:
            return
        d = min_scene_distance(problem.scene, xy, RESAMPLE_FACTOR)
        if d < 0.0:
            reasons.append(f"{who}-scene-collision")

    if kind in ("goal", "collision"):
        goal = _find(problem, "goal", "human")
        if goal is not None and human is not None:
            pos, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, human[-1], goal.link)
            if np.linalg.norm(pos - np.asarray(goal.target)) > HAND_GOAL_MAX:
                reasons.append("hand-goal")
    if kind == "collision":
        rgoal = _find(problem, "goal", "robot")
        if rgoal is not None and rob is not None:
            d = np.linalg.norm(rob[-1][:2] - np.asarray(rgoal.target)[:2])
            if d > ROBOT_BASE_GOAL_MAX:
                reasons.append("robot-base-goal")
        if human is not None:
            scene_clear(human[:, :2], "human")
        if rob is not None:
            scene_clear(rob[:, :2], "robot")
        spec = _find(problem, "joint_clearance")
        if spec is not None and human is not None and rob is not None:
            c = min_clearance(human[:, :2], rob[:, :2], RESAMPLE_FACTOR)
            if c < spec.clearance - CLEARANCE_SLACK:
                reasons.append("agent-clearance")
        if result.objective > OBJECTIVE_MAX:
            reasons.append("objective")
    if kind in ("handover", "pickup_handover"):
        if human is not None:
            scene_clear(human[:, :2], "human")
        if rob is not None:
            scene_clear(rob[:, :2], "robot")
        if _find(problem, "handover") is not None and human is not None and rob is not None:
            loss = handover_loss(human[-1], rob[-1])
            if loss > HANDOVER_LOSS_MAX:
                reasons.append("handover-loss")
        if result.objective > OBJECTIVE_MAX:
            reasons.append("objective")
    if kind == "pickup_handover":
        diag = joint_goal_diagnostic(problem, human, rob)
        if diag[2] > HAND_GOAL_MAX ** 2:
            reasons.append("pickup-goal")
    return (not reasons, reasons)


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRecord:
    problem_id: str
    method: str
    success: bool
    reasons: list[str]
    metrics: dict  # compute_metrics' row
    solver_status: str
    wall_time: float
    result: MethodResult  # the scored method output

    def row(self) -> dict:
        doc = {
            "problem": self.problem_id,
            "method": self.method,
            "success": self.success,
            "reasons": self.reasons,
            "objective": self.result.objective,
            "status": self.solver_status,
            "wall_time": self.wall_time,
        }
        doc.update(self.metrics)
        doc.update(self.result.details)
        return doc


def evaluate_problem(
    problem: ProblemSpec,
    method: str,
    model,
    *,
    problem_id: str = "p0",
    kind: str | None = None,
    ground_truth: np.ndarray | None = None,
    solver_config: SolverConfig = SolverConfig(),
    sample_config: SampleConfig = SampleConfig(),
    seed: int = 0,
) -> ExperimentRecord:
    """Run ``method`` and score it as an experiment of ``kind`` (``default_kind``)."""
    kind = kind or default_kind(problem)
    t0 = time.perf_counter()
    result = run_method(problem, method, model, solver_config=solver_config,
                        sample_config=sample_config, kind=kind, seed=seed)
    wall = time.perf_counter() - t0
    ok, reasons = check_success(problem, result, kind)
    metrics = compute_metrics(
        result.human_traj,
        result.robot_traj,
        ground_truth=ground_truth,
        dt=problem.weights.frame_time,
        robot_initial=problem.robot_initial,
        human_start=problem.observed_human[-1] if problem.observed_human is not None else None,
    )
    return ExperimentRecord(
        problem_id=problem_id,
        method=method,
        success=ok,
        reasons=reasons,
        metrics=metrics,
        solver_status=result.solver_status,
        wall_time=wall,
        result=result,
    )


def summarize(rows: list[dict]) -> list[dict]:
    """Per-method aggregates of ``ExperimentRecord.row()`` dicts: the count, the
    success rate in percent, and the median of every other numeric field over
    its finite values."""
    out = []
    for method in sorted({r["method"] for r in rows}):
        own = [r for r in rows if r["method"] == method]
        doc = {"method": method, "count": len(own),
               "success_rate": 100.0 * float(np.mean([r["success"] for r in own]))}
        keys = sorted({k for r in own for k, v in r.items()
                       if k != "success" and isinstance(v, (int, float))})
        for k in keys:
            vals = [r[k] for r in own if isinstance(r.get(k), (int, float))
                    and np.isfinite(r[k])]
            if vals:
                doc[k] = float(np.median(vals))
        out.append(doc)
    return out
