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

The solve is written once, as a generator of the sweeps it needs
(:func:`_solve`). :func:`optimize` answers its requests one at a time on
the one-system kernels. :func:`sweep` runs its points two at a time in
lockstep: each round answers their forward requests by one batched
forward sweep and their gradient requests by one batched reverse sweep.
A batched sweep gives each row the bits it has alone, so every sweep row
is the :func:`optimize` result at its point.
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
from .dynamics import _check_model, _integrate, _integrate_batch, _reverse
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

# Sweep points solved in lockstep. Each running solve holds ~1 MB at the
# default size (its 10 L-BFGS pairs take 0.96 MB), and the benchmark's
# peak-memory bound leaves room for two.
_WIDTH = 2


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


def _evaluate(problem, x):
    """:func:`_forward` of the flat decision vector ``x``."""
    return _forward(problem, *_split(problem, x))


@fp_checked
def _forward(problem, u, v, traj=None):
    """Evaluate the schedule (u, v): simulate it, check it, price it.

    ``traj``, if given, is its trajectory already and spares the sweep.
    Returns ``(schedule, trajectory, breakdown)``; a non-finite state or
    objective raises :class:`NumericalFailureError`.
    """
    schedule = ControlSchedule(u, v, problem.grid)
    if traj is None:
        a = problem.cg.assignment
        traj = _integrate(problem.gd, problem.params, problem.grid, u_z=u[a], v_z=v[a])
    return _priced(problem, schedule, traj)


def _forward_batch(problems, requests):
    """:func:`_forward` of each point ``x`` of ``requests`` (one ``(x,)`` per
    problem) by one batched sweep; the problems differ at most in beta and cost."""
    p, controls = problems[0], [_split(q, x) for q, (x,) in zip(problems, requests)]
    schedules = [ControlSchedule(u, v, p.grid) for u, v in controls]
    params = [q.params for q in problems]
    trajs = _integrate_batch(p.gd, p.cg.assignment, params, p.grid, *zip(*controls))
    return [_priced(*args) for args in zip(problems, schedules, trajs)]


def _priced(problem, schedule, traj):
    """The evaluation of ``schedule``, whose trajectory is ``traj``: price it and check J."""
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
    x = np.asarray(x, dtype=float)
    u, v = _split(problem, x)
    if evaluation is None:
        evaluation = _forward(problem, u, v)
    return _gradients([problem], [(x, evaluation)])[0]


def _gradients(problems, requests):
    """``(J, gradient)`` of each ``(x, evaluation)`` of ``requests``, one per
    problem, by one reverse sweep: of one system, or of a batch of problems
    that differ at most in beta and cost."""
    p, rows = problems[0], []
    for q, (x, (_, traj, breakdown)) in zip(problems, requests):
        u, v = _split(q, x)
        rows.append((breakdown.J, u, v, traj, *_cost_gradient(q.cost, q.cg, u, v, traj)))
    js, us, vs, trajs, node_s, node_i, dus, dvs = zip(*rows)
    one = len(rows) == 1  # one system keeps its (Z,) vectors
    pick = (lambda per_row: per_row[0]) if one else list
    g_u, g_v = _reverse(
        p.gd, p.cg.assignment, pick([q.params for q in problems]), p.grid,
        pick([t.s_hat for t in trajs]), pick([t.i_hat for t in trajs]), pick(us), pick(vs),
        None if node_s[0] is None else pick(node_s), pick(node_i),
    )
    if one:
        g_u, g_v = [g_u], [g_v]
    # collapse per-group rows onto the control groups (contiguous blocks),
    # then add the cost's direct derivatives
    starts = p.cg.starts
    return [
        (j, np.concatenate([(np.add.reduceat(gu, starts, axis=0) + du).ravel(),
                            (np.add.reduceat(gv, starts, axis=0) + dv).ravel()]))
        for j, gu, gv, du, dv in zip(js, g_u, g_v, dus, dvs)
    ]


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

    def serve(kind, x, *args):
        if kind == "forward":
            return _evaluate(problem, x)
        if kind == "gradient":
            return objective_and_gradient(problem, x, *args)
        return _line_search(problem, x, *args)

    return _run(_solve(problem, initial), serve)


def _run(process, serve):
    """Drive the generator ``process``: answer each request it yields with
    ``serve(*request)`` and return what it returns."""
    reply = None
    while True:
        try:
            request = process.send(reply)
        except StopIteration as done:
            return done.value
        reply = serve(*request)


def _solve(problem, initial=None, start=None):
    """The solve of :func:`optimize` as a generator of the sweeps it needs.

    It yields ``("forward", x)`` for the evaluation of ``x``,
    ``("gradient", x, evaluation)`` for ``(J, gradient)`` at the iterate
    ``x``, and ``("search", x, j, g, d)`` for :func:`_line_search`'s answer,
    and returns the :class:`OptimizationResult`. Each answer is a function
    of its request alone, so the solve does not depend on who answers:
    :func:`optimize` answers one request at a time, and :func:`sweep`
    answers the requests of several solves by batched sweeps. ``start``,
    if given and the evaluation of the projected initial point, spares its
    forward sweep.
    """
    m = problem.cg.n_control
    if initial is None:
        initial = constant_strategy(problem.params, problem.grid, m)
    if initial.n_control != m or not initial.grid.matches(problem.grid):
        raise ParameterError("initial schedule does not match the problem layout")
    upper = problem.cost.rate_max
    x = _project(_pack(initial), upper)
    evaluation = start
    if start is None or not np.array_equal(x, _pack(start[0])):
        evaluation = yield "forward", x
    del start  # the solve holds one evaluation at a time
    history, pairs, stall = [], [], 0  # pairs: the L-BFGS (s, y, 1 / s.y)

    while True:
        # the iterate x, reached by a step from x_old unless it is the first
        j, g = yield "gradient", x, evaluation
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
        accepted = yield "search", x, j, g, d
        if accepted is None and pairs:
            # curvature model misleading: drop it and retry with steepest descent
            pairs.clear()
            accepted = yield "search", x, j, g, -pg
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


def _pack(schedule):
    return np.concatenate([schedule.u.ravel(), schedule.v.ravel()])


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
    return _run(_trials(problem, x, j, g, d), lambda _, x_new: _evaluate(problem, x_new))


def _trials(problem, x, j, g, d):
    """:func:`_line_search` as a generator: it yields ``("forward", x_new)``
    for each trial point and is sent its evaluation."""
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        x_new = _project(x + alpha * d, problem.cost.rate_max)
        step = x_new - x
        if step.any():
            evaluation = yield "forward", x_new
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
    one of the cost weights ``b``, ``c``. Every point is solved as
    :func:`optimize` solves it, under its fixed stop rule, and its row has
    the bits of that solve whatever the other values: the points run
    ``_WIDTH`` at a time in lockstep (:func:`_lockstep`). The heuristics
    are simulated per point in a ``beta`` sweep, and once for a ``b`` or
    ``c`` sweep, whose dynamics do not depend on the weight; they are
    priced per point, and the constant one is the solve's first iterate.
    Per-point failures are recorded in the returned row and the sweep
    continues; a point whose problem cannot be built is never solved.
    """
    if name not in ("beta", "b", "c"):
        raise ParameterError(f"sweep parameter must be beta, b, or c, got {name!r}")
    values = [float(value) for value in values]
    failures = (NumericalFailureError, ParameterError)
    heuristics = {}  # per point: the constant and no-control breakdowns, or errors
    shared = [None, None]  # a b or c sweep's heuristic trajectories

    def point(k, value):
        """Point k's problem and its heuristics' first-iterate evaluation, or None."""
        try:
            if name == "beta":
                variant = replace(problem, params=replace(problem.params, beta=value))
            else:
                variant = replace(problem, cost=replace(problem.cost, **{name: value}))
        except failures as exc:
            heuristics[k] = (exc,)
            return None
        m, found = variant.cg.n_control, []
        for h, schedule in enumerate((constant_strategy(variant.params, variant.grid, m),
                                      zero_strategy(variant.grid, m))):
            try:
                found.append(_forward(variant, schedule.u, schedule.v, shared[h]))
            except failures as exc:
                found.append(exc)
            else:
                if name != "beta":
                    shared[h] = found[h][1]
        heuristics[k] = [e if isinstance(e, Exception) else e[2] for e in found]
        return k, variant, None if isinstance(found[0], Exception) else found[0]

    solved = _lockstep(filter(None, map(point, range(len(values)), values)))
    rows = []
    for k, value in enumerate(values):
        outcomes = (solved.get(k), *heuristics[k])
        error = next((e for e in outcomes if isinstance(e, Exception)), None)
        if error is not None:
            rows.append(SweepPoint(value, error=str(error)))
            continue
        res, const, none = outcomes
        rows.append(
            SweepPoint(
                value=value,
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
    return rows


@fp_checked
def _lockstep(jobs):
    """Solve each ``(key, problem, start)`` of ``jobs`` as :func:`optimize`
    does, ``_WIDTH`` solves at a time; the problems differ at most in beta
    and cost.

    Each round answers every running solve's forward requests (its first
    iterate and its line searches' trial points) by one batched sweep, then
    every gradient request by one batched reverse sweep. A solve that ends
    leaves the batch, and the next job takes its slot. A batched answer
    gives each row the bits it has alone; if it raises, each of its rows is
    answered alone, a row that raises then has failed, and the others go
    on. Returns ``{key: OptimizationResult, or the error that ended it}``.
    """
    jobs, outcomes, running = iter(jobs), {}, []  # running: [key, problem, solve, request]
    failures = (NumericalFailureError, ParameterError, RuntimeWarning)
    # The rounds' work is done in these helpers, so that no request or answer
    # outlives its round.

    def send(slot, reply):
        key, problem, solve, _ = slot
        try:
            slot[3] = solve.send(reply)
        except StopIteration as done:
            outcomes[key] = done.value
        except failures:  # the solve's own step failed: optimize gives its error
            try:
                outcomes[key] = optimize(problem)
            except (NumericalFailureError, ParameterError) as exc:
                outcomes[key] = exc
        else:
            running.append(slot)

    def start():
        for key, problem, first in jobs:
            send([key, problem, _searching(problem, _solve(problem, start=first)), None], None)
            return True
        return False

    def answer(kind, alone, together):
        batch = [slot for slot in running if slot[3][0] == kind]
        running[:] = [slot for slot in running if slot[3][0] != kind]
        problems, requests = [slot[1] for slot in batch], [slot[3][1:] for slot in batch]
        replies = None
        if len(batch) > 1:
            try:
                replies = together(problems, requests)
            except failures:
                pass  # answered row by row below
        for n, slot in enumerate(batch):
            try:
                reply = alone(problems[n], *requests[n]) if replies is None else replies[n]
            except (NumericalFailureError, ParameterError) as exc:
                outcomes[slot[0]] = exc
            else:
                send(slot, reply)

    while True:
        while len(running) < _WIDTH and start():
            pass
        if not running:
            return outcomes
        answer("forward", _evaluate, _forward_batch)
        answer("gradient", objective_and_gradient, _gradients)


def _searching(problem, solve):
    """The generator ``solve`` (:func:`_solve`) with its line searches run
    inline, so that it yields only forward and gradient requests."""
    reply = None
    while True:
        try:
            kind, x, *args = solve.send(reply)
        except StopIteration as done:
            return done.value
        if kind == "search":
            reply = yield from _trials(problem, x, *args)
        else:
            reply = yield kind, x, *args
