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

``needs_model`` is the one rule for which methods need the learned predictor;
``run_method`` raises an ``EvaluationError`` naming a method run without it.

``check_success`` scores a result by each constraint's own clause, stated
beside its row in ``objectives.CONSTRAINT_KINDS``, then by its objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import human_model as hm
from .data import FRAME_RATE
from .environment import scene_sdf  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .kinematics import (
    ARM_JOINT_NAMES,
    NUM_JOINTS,
    forward_kinematics,
    joint_index,
    quat_from_rot6d,
    relative_angle,
)
from .objectives import (CONSTRAINT_KINDS, ConstraintSpec, ProblemSpec, compile_problem,
                         handover_loss)
from .robot_model import robot_fk  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .schema import is_number
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
        n = self.num_samples
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise EvaluationError(f"num_samples must be an integer of at least 1, got {n!r}")
        v = self.noise_variance
        if v is not None and not (is_number(v) and v > 0):
            raise EvaluationError(f"noise variance must be a positive finite number, got {v!r}")
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


def rank_predictions(samples, config: SampleConfig, problem: ProblemSpec):
    """Order sample indices by the configured heuristic, best first."""
    ranking = config.ranking if config.ranking is not None else default_ranking(problem)
    finals = np.stack([s[-1] for s in samples])
    if ranking == "distance_to_goal":
        goal = _find(problem, "goal", "human")
        if goal is None:
            raise EvaluationError("distance_to_goal ranking needs a human goal constraint")
        pos, _ = forward_kinematics(finals, goal.link)
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
    solver_status: str | None  # None when no solve ran
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


def _single_agent_problem(problem: ProblemSpec, agent: str,
                          other_traj: np.ndarray | None) -> ProblemSpec:
    """``problem`` with only ``agent`` planned and the other agent frozen on
    ``other_traj``, or absent when there is none.  The constraints that read
    only the other agent go, and so do those that read both when there is no
    ``other_traj`` to freeze."""
    other = _OTHER[agent]
    constraints = [c for c in problem.constraints
                   if other not in c.agents or (agent in c.agents and other_traj is not None)]
    if agent == "human":
        return replace(problem, constraints=constraints, robot_initial=None,
                       fixed_robot=other_traj)
    if other_traj is None:
        return replace(problem, constraints=constraints, observed_human=None)
    return replace(problem, constraints=constraints, fixed_human=other_traj)


# method -> (the agent solved first, whether the second solve keeps clear of
# the first agent's frozen result, details)
_SEQUENTIAL = {
    "with_coll": ("human", False, {}),
    "human_avoids": ("robot", True, {"frozen": "robot"}),
    "robot_avoids": ("human", True, {"frozen": "human"}),
}


def needs_model(problem: ProblemSpec, method: str) -> bool:
    """Whether ``method`` needs the learned predictor on ``problem``: every
    method but ``zerovel`` unrolls it when the problem plans the human, and
    ``initial`` and ``sample`` forecast with it."""
    return method != "zerovel" and (problem.plans_human or method in ("initial", "sample"))


def run_method(
    problem: ProblemSpec,
    method: str,
    model: hm.ModelParams | None,
    *,
    solver_config: SolverConfig = SolverConfig(),
    sample_config: SampleConfig = SampleConfig(),
    seed: int = 0,
) -> MethodResult:
    """Run one planning method on one problem.  ``sample`` stops at the first
    sample whose plan passes ``check_success``."""
    if method not in METHODS:
        raise EvaluationError(f"unknown method {method!r}")
    if model is None and needs_model(problem, method):
        raise EvaluationError(f"method {method!r} needs model weights")
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
            return MethodResult(method, human, problem.fixed_robot, None, None, 0.0, None)
        compiled = compile_problem(_single_agent_problem(problem, "robot", human))
        return _solved(method, solve_compiled(compiled, solver_config))

    if method == "sample":
        samples = sample_predictions(model, problem.observed_human, steps,
                                     sample_config, seed)
        order = rank_predictions(samples, sample_config, problem)
        if not problem.plans_robot:
            return MethodResult(method, samples[order[0]], problem.fixed_robot, None, None, 0.0,
                                None, details={"attempts": 0, "picked": int(order[0])})
        # one robot-only tape, replayed against each sample as its frozen human
        compiled = compile_problem(_single_agent_problem(problem, "robot", samples[order[0]]))
        top_ranked = None
        for attempt, idx in enumerate(order, 1):
            res = solve_compiled(compiled, solver_config, fixed_human=samples[idx])
            candidate = _solved(method, res, attempts=attempt, picked=int(idx),
                                succeeded=True)
            ok, _ = check_success(problem, candidate)
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
        res = solve_compiled(compile_problem(sub, model), solver_config)
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
    dt: float = 1.0 / FRAME_RATE,
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
        arm_idx = [joint_index(nm) for nm in ARM_JOINT_NAMES]
        for name, values in (("base_pos", np.linalg.norm(pred[:, :3] - truth[:, :3], axis=1)),
                             ("angle", np.mean(angles, axis=1)),
                             ("angle_arm", np.mean(angles[:, arm_idx], axis=1))):
            row.update((f"{name}@{s:g}s", v) for s, v in zip(seconds, values.tolist()))
    return row


# ---------------------------------------------------------------------------
# Success checking
# ---------------------------------------------------------------------------


OBJECTIVE_MAX = 0.1  # the objective clause


def check_success(problem: ProblemSpec, result: MethodResult) -> tuple[bool, list[str]]:
    """Every constraint's success clause in problem order, then the objective
    clause; the reasons name the clauses that fail.

    A constraint's clause is its kind's in ``objectives.CONSTRAINT_KINDS``:
    it fails when the row's hard value on the result's trajectories exceeds
    the kind's tolerance, and it is skipped when the result lacks an agent
    the row reads.  The objective clause, an objective of at most 0.1,
    applies when some constraint's kind sets ``objective``, as every kind
    but ``goal`` does: a problem of goals alone succeeds by reaching them.
    """
    trajs = {"human": result.human_traj, "robot": result.robot_traj}
    reasons = []
    for spec in problem.constraints:
        if any(trajs[agent] is None for agent in spec.agents):
            continue
        kind = CONSTRAINT_KINDS[spec.kind]
        reason, tolerance = kind.clause(spec)
        if kind.hard(spec, trajs, problem.scene) > tolerance:
            reasons.append(reason)
    if (any(CONSTRAINT_KINDS[c.kind].objective for c in problem.constraints)
            and result.objective > OBJECTIVE_MAX):
        reasons.append("objective")
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
    solver_status: str | None  # None when no solve ran
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
    kind: str | None = None,  # unused; perfbench/workloads.py still passes it
    ground_truth: np.ndarray | None = None,
    solver_config: SolverConfig = SolverConfig(),
    sample_config: SampleConfig = SampleConfig(),
    seed: int = 0,
) -> ExperimentRecord:
    """Run ``method`` and score it with ``check_success``."""
    t0 = time.perf_counter()
    result = run_method(problem, method, model, solver_config=solver_config,
                        sample_config=sample_config, seed=seed)
    wall = time.perf_counter() - t0
    ok, reasons = check_success(problem, result)
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
    """Aggregates of ``ExperimentRecord.row()`` dicts per method and, where the
    rows carry one, per ``weight_robot``: the count, the success rate in
    percent, and the median of every other numeric field over its finite
    values (so an entry's ``weight_robot`` is its rows' weight)."""
    def group(r):
        return r["method"], r.get("weight_robot", -np.inf)

    out = []
    for key in sorted({group(r) for r in rows}):
        own = [r for r in rows if group(r) == key]
        doc = {"method": key[0], "count": len(own),
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
