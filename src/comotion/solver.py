"""Barrier + augmented-Lagrangian quasi-Newton solver over shooting variables.

The decision variables are the flattened decoder modifiers and robot controls
(both warm-started at zero, which reproduces the plain prediction and a
standing robot).  Inequalities enter through a shifted logarithmic barrier
whose weight shrinks over outer rounds; equalities through multipliers plus a
growing quadratic penalty.  Each round minimizes the resulting merit with
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
    each of at most ``max_inner`` quasi-Newton iterations."""

    max_rounds: int = 8
    max_inner: int = 50

    def __post_init__(self):
        for name in ("max_rounds", "max_inner"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


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

    def to_line(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class SolveResult:
    status: str  # converged | max-iter | infeasible | numeric-failure
    theta: np.ndarray
    objective: float
    ineq: np.ndarray
    eq: np.ndarray
    ineq_names: list[str]
    eq_names: list[str]
    human_traj: np.ndarray | None
    robot_traj: np.ndarray | None
    modifiers: np.ndarray | None
    controls: np.ndarray | None
    iterations: int
    log: list[IterationRecord] = field(default_factory=list)


def _merit_value(compiled, theta, f, g, h, mu, rho, lam, shift) -> float:
    """Barrier/multiplier merit value; +inf when a barrier argument is invalid
    (the caller backtracks)."""
    if not np.isfinite(f):
        return np.inf
    total = f
    if g.size:
        args = shift - g
        if np.any(args <= 0) or not np.all(np.isfinite(args)):
            return np.inf
        total -= mu * float(np.sum(np.log(args)))
    if h.size:
        if not np.all(np.isfinite(h)):
            return np.inf
        total += float(lam @ h) + 0.5 * rho * float(h @ h)
    lo, hi = compiled.lower, compiled.upper
    finite_lo = np.isfinite(lo)
    finite_hi = np.isfinite(hi)
    if np.any(finite_lo) or np.any(finite_hi):
        dlo = theta[finite_lo] - lo[finite_lo]
        dhi = hi[finite_hi] - theta[finite_hi]
        if np.any(dlo <= 0) or np.any(dhi <= 0):
            return np.inf
        total -= mu * (float(np.sum(np.log(dlo))) + float(np.sum(np.log(dhi))))
    return total if np.isfinite(total) else np.inf


def _merit_gradient(compiled, theta, g, h, mu, rho, lam, shift, ev) -> np.ndarray:
    seed = np.empty(1 + g.size + h.size)
    seed[0] = 1.0
    if g.size:
        seed[1 : 1 + g.size] = mu / (shift - g)
    if h.size:
        seed[1 + g.size :] = lam + rho * h
    grad = compiled.gradient(seed, ev)
    lo, hi = compiled.lower, compiled.upper
    finite_lo = np.isfinite(lo)
    finite_hi = np.isfinite(hi)
    if np.any(finite_lo):
        grad[finite_lo] -= mu / (theta[finite_lo] - lo[finite_lo])
    if np.any(finite_hi):
        grad[finite_hi] += mu / (hi[finite_hi] - theta[finite_hi])
    return grad


class _LbfgsMemory:
    """Two-loop recursion with a bounded (s, y) history."""

    def __init__(self):
        self.pairs = deque(maxlen=LBFGS_HISTORY)

    def clear(self):
        self.pairs.clear()

    def push(self, s, y):
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y, 1.0 / sy))

    def direction(self, grad):
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if self.pairs:
            s, y, _ = self.pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q


def _fraction_to_boundary(theta, d, lo, hi, margin=0.995) -> float:
    """Largest step keeping box-bounded coordinates strictly interior."""
    alpha = 1.0
    neg = d < 0
    pos = d > 0
    fl = neg & np.isfinite(lo)
    fh = pos & np.isfinite(hi)
    if np.any(fl):
        alpha = min(alpha, margin * float(np.min((lo[fl] - theta[fl]) / d[fl])))
    if np.any(fh):
        alpha = min(alpha, margin * float(np.min((hi[fh] - theta[fh]) / d[fh])))
    return max(alpha, 0.0)


def solve_compiled(compiled: CompiledProblem, config: SolverConfig = SolverConfig(),
                   extra_leaves: dict | None = None) -> SolveResult:
    """Run the outer barrier/multiplier rounds on an already-compiled problem."""
    theta = np.zeros(compiled.n)
    lam = np.zeros(compiled.num_eq)
    mu = BARRIER_INIT
    rho = PENALTY_INIT

    f0, g0, h0, _ = compiled.evaluate(theta, extra_leaves)
    shift0 = 0.0
    if g0.size:
        shift0 = max(0.0, float(np.max(g0))) + 0.1
    shift = shift0

    lbfgs = _LbfgsMemory()

    log: list[IterationRecord] = []
    iteration = 0
    best = None  # (feasible, violation, objective, theta)
    status = "max-iter"
    numeric_failure = False

    def violation(g, h):
        parts = [0.0]
        if g.size:
            parts.append(float(np.max(g)))
        if h.size:
            parts.append(float(np.max(np.abs(h))))
        return max(parts)

    def consider(theta_now, f, g, h):
        # rank feasible-enough iterates by objective plus a violation penalty
        # (infeasible ones by violation alone); ties go to the newer iterate,
        # so the final barrier-polished point wins over near-equal early ones
        nonlocal best
        v = violation(g, h)
        feasible = v <= CONSTRAINT_TOL
        flag = not feasible
        val = v if not feasible else f + PENALTY_INIT * v
        if best is None:
            best = ((flag, val), theta_now.copy())
            return
        bflag, bval = best[0]
        if flag < bflag:  # first feasible iterate starts a fresh ranking
            best = ((flag, val), theta_now.copy())
        elif flag == bflag and val <= bval + 1e-9 * (1.0 + abs(bval)):
            best = ((flag, min(val, bval)), theta_now.copy())

    consider(theta, f0, g0, h0)

    grad_norm = np.inf
    prev_eq_norm = np.inf
    for rnd in range(config.max_rounds):
        lbfgs.clear()
        f, g, h, ev = compiled.evaluate(theta, extra_leaves)
        m_val = _merit_value(compiled, theta, f, g, h, mu, rho, lam, shift)
        if not np.isfinite(m_val):
            # barrier violated at entry (shift annealed too far): re-shift
            shift = max(shift, float(np.max(g)) + 0.1 if g.size else 0.0)
            m_val = _merit_value(compiled, theta, f, g, h, mu, rho, lam, shift)
            if not np.isfinite(m_val):
                numeric_failure = True
                break
        grad = _merit_gradient(compiled, theta, g, h, mu, rho, lam, shift, ev)

        for _ in range(config.max_inner):
            # round subproblems are minimized on the raw merit gradient; the
            # projected-gradient KKT measure is only the final status check
            grad_norm = float(np.max(np.abs(grad)))
            if grad_norm < GRAD_TOL:
                break
            d = lbfgs.direction(grad)
            slope = float(d @ grad)
            if not np.isfinite(slope) or slope >= 0:
                lbfgs.clear()
                d = -grad
                slope = float(d @ grad)
            alpha = _fraction_to_boundary(theta, d, compiled.lower, compiled.upper)
            if alpha <= 0:
                break
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                trial = theta + alpha * d
                f2, g2, h2, ev2 = compiled.evaluate(trial, extra_leaves)
                m2 = _merit_value(compiled, trial, f2, g2, h2, mu, rho, lam, shift)
                if np.isfinite(m2) and m2 <= m_val + ARMIJO_C * alpha * slope:
                    accepted = True
                    break
                alpha *= BACKTRACK
            if not accepted:
                break
            grad2 = _merit_gradient(compiled, trial, g2, h2, mu, rho, lam, shift, ev2)
            s = trial - theta
            y = grad2 - grad
            lbfgs.push(s, y)
            theta, f, g, h, ev, m_val, grad = trial, f2, g2, h2, ev2, m2, grad2
            iteration += 1
            consider(theta, f, g, h)
            log.append(IterationRecord(iteration, rnd, mu, rho, f, violation(g, h),
                                       alpha, m_val))

        eq_norm = float(np.max(np.abs(h))) if h.size else 0.0
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
        if g.size and shift <= float(np.max(g)):
            shift = float(np.max(g)) + 1e-3

    theta_best = best[1] if best is not None else theta
    f, g, h, ev = compiled.evaluate(theta_best, extra_leaves)
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
    modifiers = parts.get("u_h")
    controls = parts.get("u_r")
    return SolveResult(
        status=status,
        theta=theta_best,
        objective=f,
        ineq=g,
        eq=h,
        ineq_names=compiled.ineq_names,
        eq_names=compiled.eq_names,
        human_traj=human,
        robot_traj=robot,
        modifiers=None if modifiers is None else modifiers.reshape(len(human), -1),
        controls=None if controls is None else controls.reshape(len(robot), -1),
        iterations=iteration,
        log=log,
    )

