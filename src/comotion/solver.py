"""Barrier + augmented-Lagrangian quasi-Newton solver over shooting variables.

θ packs ``CompiledProblem.decisions``, decoder modifiers and robot controls,
warm-started at zero (the plain prediction and a standing robot).  Logarithmic
barriers under one weight, shrinking over outer rounds, take the inequalities
(shifted) and the box |θ_i| <= b_i of the bounded decisions, which a
fraction-to-boundary step keeps strictly; equalities enter through
multipliers plus a growing quadratic penalty.  Each round minimizes the merit with
L-BFGS, its initial matrix rescaled by ``s'y / y'y`` of the newest pair every
iteration (Nocedal & Wright, ch. 7.2), and an Armijo backtracking line search;
every problem, whatever its size, takes this one path.  The schedule,
tolerances and line-search factors are the module constants below; only the
iteration budget is a setting.

States are never decision variables: trajectories returned in the result are
re-unrolled from the returned controls, so dynamics hold by construction.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .objectives import CompiledProblem


BARRIER_INIT = 1.0
BARRIER_DECREASE = 0.2  # barrier weight factor per round
BARRIER_MIN = 1e-6
PENALTY_INIT = 10.0
PENALTY_GROWTH = 5.0
PENALTY_MAX = 1e6
GRAD_TOL = 1e-4  # max-norm of the merit gradient
CONSTRAINT_TOL = 1e-3  # largest violation of a feasible iterate
ARMIJO_C = 1e-4
BACKTRACK = 0.5  # step factor per rejected trial
MAX_BACKTRACKS = 40
LBFGS_HISTORY = 20


@dataclass(frozen=True)
class SolverConfig:
    """The iteration budget: at most ``max_rounds`` barrier/multiplier rounds,
    each of at most ``max_inner`` quasi-Newton iterations; each an integer
    (``int`` or ``np.integer``, not a bool) of at least 1."""

    max_rounds: int = 8
    max_inner: int = 50

    def __post_init__(self):
        for name in ("max_rounds", "max_inner"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass
class IterationRecord:
    iteration: int
    round: int
    mu: float
    rho: float
    objective: float
    max_violation: float
    step_size: float
    merit: float
    trials: int  # line-search replays, the accepted one included
    grad_norm: float  # max-norm of the merit gradient at the new iterate

    def to_line(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class SolveResult:
    status: str  # converged | max-iter | infeasible | numeric-failure
    theta: np.ndarray
    objective: float
    human_traj: np.ndarray | None
    robot_traj: np.ndarray | None
    modifiers: np.ndarray | None
    controls: np.ndarray | None
    iterations: int
    log: list[IterationRecord] = field(default_factory=list)


class _Box:
    """The box |θ_i| <= b_i of the bounded decisions, built once per solve:
    the indices ``idx`` of their coordinates in θ and the magnitudes ``b``."""

    def __init__(self, compiled):
        where = compiled.split(np.arange(compiled.n))  # each leaf's coordinates in θ
        bounded = [d for d in compiled.decisions if d.bound is not None]
        self.idx = np.concatenate([where[d.leaf].ravel() for d in bounded] + [np.zeros(0, int)])
        self.b = np.concatenate([np.broadcast_to(d.bound, d.shape).ravel() for d in bounded]
                                + [np.zeros(0)])


def _merit_value(box, theta, f, g, h, mu, rho, lam, shift) -> float:
    """Barrier/multiplier merit value; +inf when a barrier argument is invalid
    (the caller backtracks)."""
    if not np.isfinite(f):
        return np.inf
    total = f
    if g.size:
        args = shift - g
        if (args <= 0).any() or not np.isfinite(args).all():
            return np.inf
        total -= mu * float(np.log(args).sum())
    if h.size:
        if not np.isfinite(h).all():
            return np.inf
        total += float(lam @ h) + 0.5 * rho * float(h @ h)
    if box.idx.size:
        x = theta[box.idx]
        dlo, dhi = x + box.b, box.b - x
        if (dlo <= 0).any() or (dhi <= 0).any():
            return np.inf
        total -= mu * (float(np.log(dlo).sum()) + float(np.log(dhi).sum()))
    return total if np.isfinite(total) else np.inf


def _merit_gradient(compiled, box, theta, g, h, mu, rho, lam, shift, ev) -> np.ndarray:
    seed = np.empty(1 + g.size + h.size)
    seed[0] = 1.0
    if g.size:
        seed[1 : 1 + g.size] = mu / (shift - g)
    if h.size:
        seed[1 + g.size :] = lam + rho * h
    grad = compiled.gradient(seed, ev)
    x = theta[box.idx]
    grad[box.idx] -= mu / (x + box.b)
    grad[box.idx] += mu / (box.b - x)
    return grad


class _LbfgsMemory:
    """Two-loop recursion with a bounded history of pairs (s, y, 1 / s'y,
    s'y / y'y), their products taken once, when the pair is pushed."""

    def __init__(self):
        self.pairs = deque(maxlen=LBFGS_HISTORY)

    def clear(self):
        self.pairs.clear()

    def push(self, s, y):
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y, 1.0 / sy, sy / float(y @ y)))

    def direction(self, grad):
        q, work = grad.copy(), np.empty_like(grad)
        alphas = []
        for s, y, rho, _ in reversed(self.pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            np.subtract(q, np.multiply(a, y, out=work), out=q)
        if self.pairs:
            q *= self.pairs[-1][3]
        for (s, y, rho, _), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            np.add(q, np.multiply(a - b, s, out=work), out=q)
        return -q


def _fraction_to_boundary(theta, d, box, margin=0.995) -> float:
    """Largest step keeping box-bounded coordinates strictly interior."""
    alpha = 1.0
    x, db = theta[box.idx], d[box.idx]
    fl, fh = db < 0, db > 0
    if fl.any():
        alpha = min(alpha, margin * float(((x[fl] + box.b[fl]) / -db[fl]).min()))
    if fh.any():
        alpha = min(alpha, margin * float(((box.b[fh] - x[fh]) / db[fh]).min()))
    return max(alpha, 0.0)


def solve_compiled(compiled: CompiledProblem, config: SolverConfig = SolverConfig(),
                   fixed_human: np.ndarray | None = None) -> SolveResult:
    """Run the outer barrier/multiplier rounds on an already-compiled problem,
    its frozen human replaced by ``fixed_human`` when that is given.

    Every point is replayed once: a round starts from the evaluation the
    last one ended on, and the best iterate keeps its own.
    """
    theta = np.zeros(compiled.n)
    lam = np.zeros(len(compiled.eq_names))
    mu = BARRIER_INIT
    rho = PENALTY_INIT
    box = _Box(compiled)

    f, g, h, ev = compiled.evaluate(theta, fixed_human)
    shift0 = 0.0
    if g.size:
        shift0 = max(0.0, float(g.max())) + 0.1
    shift = shift0

    lbfgs = _LbfgsMemory()

    log: list[IterationRecord] = []
    iteration = 0
    best = None  # ((infeasible, rank value), theta, (f, g, h, ev))
    numeric_failure = False

    def violation(g, h):
        parts = [0.0]
        if g.size:
            parts.append(float(g.max()))
        if h.size:
            parts.append(float(np.abs(h).max()))
        return max(parts)

    def consider(theta_now, f, g, h, ev, v):
        # rank feasible-enough iterates by objective plus a violation penalty
        # (infeasible ones by violation alone); ties go to the newer iterate,
        # so the final barrier-polished point wins over near-equal early ones
        nonlocal best
        feasible = v <= CONSTRAINT_TOL
        flag = not feasible
        val = v if not feasible else f + PENALTY_INIT * v
        if best is None:
            best = ((flag, val), theta_now, (f, g, h, ev))
            return
        bflag, bval = best[0]
        if flag < bflag:  # first feasible iterate starts a fresh ranking
            best = ((flag, val), theta_now, (f, g, h, ev))
        elif flag == bflag and val <= bval + 1e-9 * (1.0 + abs(bval)):
            best = ((flag, min(val, bval)), theta_now, (f, g, h, ev))

    consider(theta, f, g, h, ev, violation(g, h))

    grad_norm = np.inf
    prev_eq_norm = np.inf
    for rnd in range(config.max_rounds):
        lbfgs.clear()
        m_val = _merit_value(box, theta, f, g, h, mu, rho, lam, shift)
        if not np.isfinite(m_val):
            # barrier violated at entry (shift annealed too far): re-shift
            shift = max(shift, float(g.max()) + 0.1 if g.size else 0.0)
            m_val = _merit_value(box, theta, f, g, h, mu, rho, lam, shift)
            if not np.isfinite(m_val):
                numeric_failure = True
                break
        grad = _merit_gradient(compiled, box, theta, g, h, mu, rho, lam, shift, ev)
        norm = float(np.abs(grad).max())

        for _ in range(config.max_inner):
            # round subproblems are minimized on the raw merit gradient; the
            # projected-gradient KKT measure is only the final status check
            grad_norm = norm
            if grad_norm < GRAD_TOL:
                break
            d = lbfgs.direction(grad)
            slope = float(d @ grad)
            if not np.isfinite(slope) or slope >= 0:
                lbfgs.clear()
                d = -grad
                slope = float(d @ grad)
            alpha = _fraction_to_boundary(theta, d, box)
            if alpha <= 0:
                break
            accepted = False
            for trials in range(1, MAX_BACKTRACKS + 1):
                trial = theta + alpha * d
                f2, g2, h2, ev2 = compiled.evaluate(trial, fixed_human)
                m2 = _merit_value(box, trial, f2, g2, h2, mu, rho, lam, shift)
                if np.isfinite(m2) and m2 <= m_val + ARMIJO_C * alpha * slope:
                    accepted = True
                    break
                alpha *= BACKTRACK
            if not accepted:
                break
            grad2 = _merit_gradient(compiled, box, trial, g2, h2, mu, rho, lam, shift, ev2)
            s = trial - theta
            y = grad2 - grad
            lbfgs.push(s, y)
            theta, f, g, h, ev, m_val, grad = trial, f2, g2, h2, ev2, m2, grad2
            norm = float(np.abs(grad).max())
            iteration += 1
            v = violation(g, h)
            consider(theta, f, g, h, ev, v)
            log.append(IterationRecord(iteration, rnd, mu, rho, f, v, alpha, m_val, trials,
                                       norm))

        eq_norm = float(np.abs(h).max()) if h.size else 0.0
        if h.size:
            lam = lam + rho * h
        finished_schedule = mu <= BARRIER_MIN and eq_norm <= CONSTRAINT_TOL
        if finished_schedule and grad_norm < GRAD_TOL:
            break
        mu = max(mu * BARRIER_DECREASE, BARRIER_MIN)
        # grow the penalty only while the multiplier updates alone are not
        # closing the equalities fast enough; unconditional growth makes the
        # late subproblems too stiff to polish
        if h.size and eq_norm > max(0.25 * prev_eq_norm, 0.1 * CONSTRAINT_TOL):
            rho = min(rho * PENALTY_GROWTH, PENALTY_MAX)
        prev_eq_norm = eq_norm
        shift = shift0 * (mu / BARRIER_INIT)
        if g.size and shift <= float(g.max()):
            shift = float(g.max()) + 1e-3

    _, theta_best, (f, g, h, ev) = best
    v = violation(g, h)
    # converged means: the final barrier subproblem was minimized to the
    # gradient tolerance (its barrier/multiplier weights are the converged
    # KKT multiplier estimates) and the returned iterate is feasible
    if numeric_failure:
        status = "numeric-failure"
    elif v > CONSTRAINT_TOL:
        status = "infeasible"
    elif grad_norm < GRAD_TOL:
        status = "converged"
    else:
        status = "max-iter"

    human, robot = compiled.trajectories(ev)
    parts = compiled.split(theta_best)
    return SolveResult(
        status=status,
        theta=theta_best,
        objective=f,
        human_traj=human,
        robot_traj=robot,
        modifiers=parts.get("u_h"),
        controls=parts.get("u_r"),
        iterations=iteration,
        log=log,
    )

