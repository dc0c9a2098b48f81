"""Gradient-based optimization of vaccination/treatment schedules.

The continuous optimal control problem is transcribed directly: the 2M
control signals sampled at the N grid nodes are the decision variables
(box constraint 0 <= u, v <= rate_max). The objective is the one
:mod:`~epinetopt.control` prices and differentiates, on the grouped
dynamics of :mod:`~epinetopt.dynamics`, whose reverse sweep gives its
exact gradient; this module holds only the solver. Every problem is
solved on the box [0, rate_max], with rate_max infinite for the
``"rate"`` functional, by one projected limited-memory quasi-Newton
method: variables held at a bound stay out of the search direction, and
an Armijo backtracking search runs along the projected arc.

Each schedule is evaluated once, by one step that simulates it, rejects
non-finite states and objectives, and prices it with
:func:`~epinetopt.control.evaluate_cost`. That evaluation is passed on,
not rebuilt: the line search hands the accepted point's evaluation to the
gradient and, at the end, to the result, whose ``trajectory`` and
``breakdown`` callers use instead of re-simulating. :func:`sweep` prices
its heuristics through the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .control import (
    CostBreakdown,
    CostParams,
    _cost_gradient,
    constant_strategy,
    evaluate_cost,
    zero_strategy,
)
from .dynamics import ControlSchedule, EpidemicParams, TimeGrid, Trajectory
from .dynamics import _check_model, _integrate, _reverse
from .errors import NumericalFailureError, ParameterError, fp_checked
from .grouping import ControlGroups, GroupedDistribution

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "SweepPoint",
    "objective_and_gradient",
    "optimize",
    "sweep",
    "improvement_percent",
]

# Stopping rules and line-search settings of optimize. The memory and the
# Armijo constant are the textbook L-BFGS values (Nocedal & Wright,
# Numerical Optimization, 2nd ed., 2006, ch. 3 and 7).
_GRADIENT_TOL = 1e-6  # projected-gradient norm that counts as converged
_RELATIVE_DECREASE_TOL = 1e-9  # a smaller relative decrease is a stalled iteration
_STALL_ITERATIONS = 5  # consecutive stalled iterations that count as converged
_MAX_ITERATIONS = 2000
_MEMORY = 10  # curvature pairs kept by L-BFGS
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 50


@dataclass(frozen=True)
class OptimizationProblem:
    """Everything that defines one schedule-optimization instance; its parts must fit."""

    gd: GroupedDistribution
    cg: ControlGroups
    params: EpidemicParams
    cost: CostParams
    grid: TimeGrid

    def __post_init__(self):
        _check_model(self.params, self.grid, self.gd, self.cg)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimize run; ``history`` holds J per iterate.

    ``trajectory`` is the epidemic simulated under ``schedule`` and
    ``breakdown`` the objective priced on it; ``J`` is ``breakdown.J``.
    ``iterations`` counts accepted steps, ``len(history) - 1``.
    """

    schedule: ControlSchedule
    trajectory: Trajectory = field(repr=False)
    breakdown: CostBreakdown
    iterations: int
    converged: bool
    gradient_norm: float
    history: np.ndarray = field(repr=False)

    @property
    def J(self) -> float:
        return self.breakdown.J


def _split(problem: OptimizationProblem, x: np.ndarray):
    """View the flat decision vector as (M, N) vaccination/treatment arrays."""
    m, n = problem.cg.n_control, problem.grid.n_points
    if x.shape != (2 * m * n,):
        raise ParameterError(f"decision vector must have length {2 * m * n}")
    return x[: m * n].reshape(m, n), x[m * n :].reshape(m, n)


@fp_checked
def _forward(problem, u, v):
    """Evaluate the schedule (u, v): simulate it, check it, price it.

    Returns ``(schedule, trajectory, breakdown)``; a non-finite state or
    objective raises :class:`NumericalFailureError`.
    """
    schedule = ControlSchedule(u, v, problem.grid)
    a = problem.cg.assignment
    traj = _integrate(problem.gd, problem.params, problem.grid, u_z=u[a], v_z=v[a])
    breakdown = evaluate_cost(traj, schedule, problem.cg, problem.cost)
    if not np.isfinite(breakdown.J):
        raise NumericalFailureError("objective is not finite")
    return schedule, traj, breakdown


@fp_checked
def objective_and_gradient(problem: OptimizationProblem, x: np.ndarray, evaluation=None):
    """Objective value and its exact gradient for a flat decision vector.

    The vector stacks the vaccination rates (M*N, row-major) followed by
    the treatment rates. ``evaluation``, if given, must be the
    ``(schedule, trajectory, breakdown)`` of ``x``, as the solver's
    evaluation step returns it; it spares the forward sweep and the
    pricing and leaves the result unchanged. The objective's state
    derivatives go through the reverse sweep of the Heun steps (discrete
    adjoint), which differentiates the discretized objective exactly;
    the per-group result is summed onto the control groups.
    """
    u, v = _split(problem, np.asarray(x, dtype=float))
    _, traj, breakdown = _forward(problem, u, v) if evaluation is None else evaluation
    cg = problem.cg
    node_s, node_i, du, dv = _cost_gradient(problem.cost, cg, u, v, traj)
    a = cg.assignment
    g_u, g_v = _reverse(problem.gd, problem.params, problem.grid, traj, u[a], v[a], node_s, node_i)
    # collapse per-group rows onto the control groups (contiguous blocks),
    # then add the cost's direct derivatives
    g_u = np.add.reduceat(g_u, cg.starts, axis=0) + du
    g_v = np.add.reduceat(g_v, cg.starts, axis=0) + dv
    return breakdown.J, np.concatenate([g_u.ravel(), g_v.ravel()])


def _active(x, g, upper):
    """Variables held at a bound by the gradient (it points out of the box)."""
    return ((x <= 0) & (g > 0)) | ((x >= upper) & (g < 0))


def _project(x, upper):
    """Clip onto the box [0, upper]."""
    return np.minimum(np.maximum(x, 0.0), upper)


@fp_checked
def optimize(
    problem: OptimizationProblem,
    initial: ControlSchedule | None = None,
) -> OptimizationResult:
    """Minimize the objective over control schedules within the rate bound.

    Projected limited-memory quasi-Newton descent from ``initial`` (the
    constant beta/2, gamma/2 heuristic by default, clipped to the rate
    bound of ``problem.cost``). Variables held at a bound are kept out of
    the quasi-Newton direction, as in projected Newton methods (Bertsekas,
    SIAM J. Control Optim. 20, 1982). Each iterate, the first included, is
    evaluated, recorded and tested once: it has converged if its projected
    gradient norm is below 1e-6 or it ends the 5th consecutive step with a
    relative decrease below 1e-9. The solve stops there, at the 2000th
    accepted step's iterate, or when the line search fails even along
    steepest descent (``converged=False``). J never exceeds the initial J.
    """
    m = problem.cg.n_control
    if initial is None:
        initial = constant_strategy(problem.params, problem.grid, m)
    if initial.n_control != m or not initial.grid.matches(problem.grid):
        raise ParameterError("initial schedule does not match the problem layout")
    upper = problem.cost.rate_max
    x = _project(np.concatenate([initial.u.ravel(), initial.v.ravel()]), upper)
    evaluation = _forward(problem, *_split(problem, x))
    history, pairs, stall = [], [], 0  # pairs: the L-BFGS (s, y, 1 / s.y)

    while True:
        # the iterate x, reached by a step from x_old unless it is the first
        j, g = objective_and_gradient(problem, x, evaluation)
        if history:
            s, y = x - x_old, g - g_old
            sy = float(s @ y)
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs.append((s, y, 1.0 / sy))
                if len(pairs) > _MEMORY:
                    pairs.pop(0)
            decrease = (history[-1] - j) / max(1.0, abs(j))
            stall = stall + 1 if decrease < _RELATIVE_DECREASE_TOL else 0
        history.append(j)
        held = _active(x, g, upper)
        pg = np.where(held, 0.0, g)  # the projected gradient
        pg_norm = float(np.linalg.norm(pg))
        converged = pg_norm < _GRADIENT_TOL or stall >= _STALL_ITERATIONS
        if converged or len(history) > _MAX_ITERATIONS:
            break

        # quasi-Newton step on the free variables; held ones stay at their bound
        d = _lbfgs_direction(pg, pairs)
        d[held] = 0.0
        if g @ d >= 0:  # the masked step is no longer a descent direction
            d = -pg
        accepted = _line_search(problem, x, j, g, d)
        if accepted is None and pairs:
            # curvature model misleading: drop it and retry with steepest descent
            pairs.clear()
            accepted = _line_search(problem, x, j, g, -pg)
        if accepted is None:
            break
        x_old, g_old = x, g
        x, evaluation = accepted

    schedule, traj, breakdown = evaluation
    return OptimizationResult(
        schedule=schedule,
        trajectory=traj,
        breakdown=breakdown,
        iterations=len(history) - 1,
        converged=converged,
        gradient_norm=pg_norm,
        history=np.asarray(history),
    )


def _lbfgs_direction(g, pairs):
    """Two-loop recursion for -H g with the stored curvature pairs."""
    if not pairs:
        return -g
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s @ q)
        alphas.append(alpha)
        q -= alpha * y
    s, y, _ = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _line_search(problem, x, j, g, d):
    """Backtracking Armijo search along the projected arc x(a) = P(x + a d).

    Returns the accepted point and its evaluation, or None.
    """
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        x_new = _project(x + alpha * d, problem.cost.rate_max)
        step = x_new - x
        if step.any():
            evaluation = _forward(problem, *_split(problem, x_new))
            if evaluation[2].J <= j + _ARMIJO_C1 * float(g @ step):
                return x_new, evaluation
        alpha *= 0.5
    return None


@dataclass(frozen=True)
class SweepPoint:
    """One row of a parameter sweep: objectives and per-strategy outcomes.

    A failed point keeps NaN in every numeric field and the reason in
    ``error``.
    """

    value: float
    J_optimal: float = np.nan
    J_constant: float = np.nan
    J_none: float = np.nan
    improvement_over_constant: float = np.nan
    improvement_over_none: float = np.nan
    cumulative_infected_optimal: float = np.nan
    cumulative_infected_constant: float = np.nan
    cumulative_infected_none: float = np.nan
    converged: bool = False
    error: str | None = None


def improvement_percent(j_reference: float, j_optimal: float) -> float:
    """Relative objective reduction (percent) against a reference strategy; NaN if J_ref = 0."""
    return (j_reference - j_optimal) / j_reference * 100.0 if j_reference != 0 else np.nan


def sweep(
    problem: OptimizationProblem,
    name: str,
    values,
) -> list[SweepPoint]:
    """Optimize at each parameter value and compare with the heuristics.

    ``name`` selects the swept parameter: the spreading rate ``beta`` or
    one of the cost weights ``b``, ``c``. Every point is solved by
    :func:`optimize` under its fixed stop rule. Per-point failures are
    recorded in the returned row and the sweep continues.
    """
    if name not in ("beta", "b", "c"):
        raise ParameterError(f"sweep parameter must be beta, b, or c, got {name!r}")
    rows = []
    for value in values:
        try:
            if name == "beta":
                variant = replace(problem, params=replace(problem.params, beta=float(value)))
            else:
                variant = replace(problem, cost=replace(problem.cost, **{name: float(value)}))
            res = optimize(variant)
            const, none = (
                _forward(variant, sched.u, sched.v)[2]
                for sched in (
                    constant_strategy(variant.params, variant.grid, variant.cg.n_control),
                    zero_strategy(variant.grid, variant.cg.n_control),
                )
            )
            rows.append(
                SweepPoint(
                    value=float(value),
                    J_optimal=res.J,
                    J_constant=const.J,
                    J_none=none.J,
                    improvement_over_constant=improvement_percent(const.J, res.J),
                    improvement_over_none=improvement_percent(none.J, res.J),
                    cumulative_infected_optimal=res.breakdown.infection_term,
                    cumulative_infected_constant=const.infection_term,
                    cumulative_infected_none=none.infection_term,
                    converged=res.converged,
                )
            )
        except (NumericalFailureError, ParameterError) as exc:
            rows.append(SweepPoint(float(value), error=str(exc)))
    return rows

