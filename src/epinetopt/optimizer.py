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

Each schedule is evaluated once, by one call (:func:`_forward`) that
simulates it, alone or in a batch, rejects states outside [0, 1] and
non-finite objectives, and prices it with
:func:`~epinetopt.control.evaluate_cost`. That evaluation is passed on,
not rebuilt: the line search hands the accepted point's evaluation to
the gradient and, at the end, to the result, whose ``trajectory`` and
``breakdown`` callers use instead of re-simulating. :func:`sweep` prices
its heuristics through the same call.

The solve is written once, as a generator of the evaluations it needs
(:func:`_solve`), and driven by one loop (:func:`_lockstep`) that
answers the requests of up to two solves together: their first iterates
by one forward sweep, their gradients by one batched reverse sweep, and
their line searches by one batched forward sweep per backtracking round.
A batched sweep gives each row the bits it has alone, so each solve's
result does not depend on the others. :func:`optimize` is the lockstep
of one solve, whose requests are answered one row at a time. A sweep
with points for more than one lockstep also spreads them over the
usable CPUs: it forks a process per extra CPU that a share can keep
busy, each runs its own lockstep on its share of the points, and the
rows come back through pipes with the same bits. The fork helpers, which
:func:`~epinetopt.dynamics.grouping_error` uses too, live in
:mod:`~epinetopt.dynamics`.
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
from .dynamics import _check_model, _cpus, _integrate, _integrate_batch, _reverse, _share_out
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

# Sweep points solved in lockstep in each process of a sweep. Each running
# solve holds ~1 MB at the default size (its 10 L-BFGS pairs take 0.96 MB),
# and the benchmark's peak-memory bound leaves room for two per process.
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


@fp_checked
def _forward(problems, xs, trajs=None):
    """Evaluate the schedule of each flat decision vector of ``xs`` on its
    problem of ``problems``: simulate it, check it, price it.

    One problem is simulated by :func:`~epinetopt.dynamics._integrate`, and
    several, which differ at most in beta and cost, by one batched sweep
    that gives each the bits it has alone. ``trajs``, if given, are the
    trajectories already and spare the sweep. Returns one ``(schedule,
    trajectory, breakdown)`` per point; a state that leaves [0, 1] or a
    non-finite objective raises :class:`NumericalFailureError`.
    """
    schedules = [ControlSchedule(*_split(q, x), q.grid) for q, x in zip(problems, xs)]
    if trajs is None:
        p, a = problems[0], problems[0].cg.assignment
        if len(problems) == 1:  # one system keeps the (Z,) kernel
            [s] = schedules
            trajs = [_integrate(p.gd, p.params, p.grid, u_z=s.u[a], v_z=s.v[a])]
        else:
            trajs = _integrate_batch(p.gd, a, [q.params for q in problems], p.grid,
                                     [s.u for s in schedules], [s.v for s in schedules])
    evaluations = []
    for q, schedule, traj in zip(problems, schedules, trajs):
        breakdown = evaluate_cost(traj, schedule, q.cg, q.cost)
        if not np.isfinite(breakdown.J):
            raise NumericalFailureError("objective is not finite")
        evaluations.append((schedule, traj, breakdown))
    return evaluations


@fp_checked
def objective_and_gradient(problem: OptimizationProblem, x: np.ndarray, evaluation=None):
    """Objective value and its exact gradient for a flat decision vector.

    The vector stacks the vaccination rates (M*N, row-major) followed by
    the treatment rates. ``evaluation``, if given, must be the
    ``(schedule, trajectory, breakdown)`` of ``x``, as :func:`_forward`
    returns it; it spares that call and leaves the result unchanged. The
    objective's state derivatives go through the reverse sweep of the Heun
    steps (discrete adjoint), which differentiates the discretized
    objective exactly; the per-group result is summed onto the control
    groups.
    """
    x = np.asarray(x, dtype=float)
    if evaluation is None:
        [evaluation] = _forward([problem], [x])
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
    The solve (:func:`_solve`) runs as the :func:`_lockstep` of one job, and
    the error that ends it is raised.
    """
    outcome = _lockstep([(0, problem, _solve(problem, initial))])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _solve(problem, initial=None, start=None):
    """The solve of :func:`optimize` as a generator of the evaluations it needs.

    It yields ``("forward", x)`` for the evaluation of ``x``,
    ``("gradient", x, evaluation)`` for ``(J, gradient)`` at the iterate
    ``x``, and ``("search", x, j, g, d)`` for :func:`_line_search`'s answer,
    and returns the :class:`OptimizationResult`. Each answer is a function
    of its request alone, so the solve does not depend on how many others
    :func:`_lockstep` answers with it. ``start``, if given and the
    evaluation of the projected initial point, spares its forward sweep.
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

    Returns the accepted point and its evaluation, or None: the one-row
    :func:`_line_searches`.
    """
    return _line_searches([problem], [(x, j, g, d)])[0]


def _line_searches(problems, requests):
    """The :func:`_line_search` of each ``(x, j, g, d)`` of ``requests`` on its
    problem of ``problems``, which differ at most in beta and cost.

    Round t tries a = 0.5^t in each search still running, skips a search
    whose step is zero, and evaluates the other trial points by one
    :func:`_forward` call. So each search tries the points it tries alone
    and gets their bits. A trial whose evaluation raises
    :class:`NumericalFailureError` (its state left [0, 1], or its J is not
    finite) is rejected, as if its J were infinite, and its search halves
    the step. If a round's call evaluated several trials and raised, the
    error goes to the caller, which then answers each search alone.
    """
    answers, running, alpha = [None] * len(requests), list(range(len(requests))), 1.0
    for _ in range(_MAX_BACKTRACKS):
        if not running:
            break
        trials = []
        for n in running:
            x, _, _, d = requests[n]
            x_new = _project(x + alpha * d, problems[n].cost.rate_max)
            step = x_new - x
            if step.any():
                trials.append((n, x_new, step))
        try:
            evaluations = _forward([problems[n] for n, *_ in trials],
                                   [x_new for _, x_new, _ in trials]) if trials else []
        except NumericalFailureError:
            if len(trials) > 1:
                raise
            evaluations = [None]  # the one trial failed: rejected
        for (n, x_new, step), evaluation in zip(trials, evaluations):
            _, j, g, _ = requests[n]
            if evaluation is not None and evaluation[2].J <= j + _ARMIJO_C1 * float(g @ step):
                answers[n] = x_new, evaluation
                running.remove(n)
        alpha *= 0.5
    return answers


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

    def __getstate__(self):
        # A pickled row leaves out its fields still at np.nan, which it reads
        # from the class defaults again when unpickled: NaN equals only
        # itself, and rows compare equal field by field.
        return {name: v for name, v in vars(self).items() if v is not np.nan}


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
    the bits of that solve whatever the other values and however many
    processes share the sweep. The points are dealt round-robin to P
    processes, P = min(usable CPUs, ceil(points / ``_WIDTH``))
    (:func:`_processes`): this one and a child forked for each other share
    (:func:`_share_out`). Each process runs its points ``_WIDTH`` at a time
    in lockstep (:func:`_lockstep`). The children are reaped before ``sweep``
    returns, so ``wait4`` on the whole command adds their CPU time to its
    own and takes their peak RSS into its maximum. The heuristics are
    simulated per point in a ``beta`` sweep, and evaluated once on
    ``problem``, before any fork, in a ``b`` or ``c`` sweep, whose dynamics
    do not depend on the weight; each point prices them through
    :func:`_forward`, and the constant one is the solve's first iterate.
    Per-point failures are recorded in the returned row and the sweep
    continues; a point whose problem cannot be built is never solved.
    """
    if name not in ("beta", "b", "c"):
        raise ParameterError(f"sweep parameter must be beta, b, or c, got {name!r}")
    values = [float(value) for value in values]
    shared = [None, None]  # a b or c sweep's heuristic trajectories, each as [trajectory]
    if name != "beta":
        for h, x in enumerate(_heuristics(problem)):
            try:
                [(_, traj, _)] = _forward([problem], [x])
                shared[h] = [traj]
            except (NumericalFailureError, ParameterError):
                pass  # each point simulates it again and records the error
    n = _processes(len(values))
    shares = _share_out(lambda share: _rows(problem, name, values, shared, share),
                        [range(p, len(values), n) for p in range(n)])
    return [shares[k % n][k // n] for k in range(len(values))]


def _heuristics(problem):
    """The flat constant beta/2, gamma/2 and no-control schedules of ``problem``."""
    m, grid = problem.cg.n_control, problem.grid
    return _pack(constant_strategy(problem.params, grid, m)), _pack(zero_strategy(grid, m))


def _rows(problem, name, values, shared, share):
    """The :func:`sweep` rows of the points ``share`` (indices into
    ``values``), solved in this process; ``shared`` holds each heuristic's
    ``trajs`` for :func:`_forward`, or None where each point simulates it."""
    failures = (NumericalFailureError, ParameterError)
    heuristics = {}  # per point: the constant and no-control breakdowns, or errors

    def point(k):
        """Point k's :func:`_lockstep` job, which starts its solve from its
        constant heuristic's evaluation, or None."""
        try:
            if name == "beta":
                variant = replace(problem, params=replace(problem.params, beta=values[k]))
            else:
                variant = replace(problem, cost=replace(problem.cost, **{name: values[k]}))
        except failures as exc:
            heuristics[k] = (exc,)
            return None
        found = []
        for x, traj in zip(_heuristics(variant), shared):
            try:
                found.append(_forward([variant], [x], traj)[0])
            except failures as exc:
                found.append(exc)
        heuristics[k] = [e if isinstance(e, Exception) else e[2] for e in found]
        first = None if isinstance(found[0], Exception) else found[0]
        return k, variant, _solve(variant, start=first)

    solved = _lockstep(filter(None, map(point, share)))
    rows = []
    for k in share:
        value = values[k]
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


def _processes(n_points):
    """How many processes share a sweep of ``n_points``: one per usable CPU,
    but only as many as fill a lockstep of ``_WIDTH`` points each, and one
    where the platform cannot fork (:func:`~epinetopt.dynamics._cpus`)."""
    return max(1, min(_cpus(), -(-n_points // _WIDTH)))


@fp_checked
def _lockstep(jobs):
    """Run each ``(key, problem, solve)`` of ``jobs``, ``solve`` a
    :func:`_solve` generator, ``_WIDTH`` solves at a time; the problems
    differ at most in beta and cost.

    Each round answers the running solves' forward requests (first
    iterates) by one :func:`_forward` call, then their gradient requests by
    one batched reverse sweep, then their line searches by
    :func:`_line_searches`. A request that is alone in its round is answered
    by the one-row :func:`_forward`, :func:`objective_and_gradient` or
    :func:`_line_search`, so :func:`optimize`, a lockstep of one job, calls
    only these. A solve that ends leaves the batch, and the next job takes
    its slot. A batched answer gives each row the bits it has alone; if it
    raises, each of its rows is answered alone, a row that raises then has
    failed, and the others go on. A floating-point overflow or invalid
    value in a solve's own step, or in its line search's arithmetic, fails
    it with the error ``optimize: floating-point ...``. Returns ``{key:
    OptimizationResult, or the error that ended it}``.
    """
    jobs, outcomes, running = iter(jobs), {}, []  # running: [key, problem, solve, request]
    failures = (NumericalFailureError, ParameterError, RuntimeWarning)
    # The rounds' work is done in these helpers, so that no request or answer
    # outlives its round.

    def send(slot, reply):
        """Send the solve of ``slot`` ``reply()``; keep it running or record how it ended."""
        key, _, solve, _ = slot
        try:
            slot[3] = solve.send(reply())
        except StopIteration as done:
            outcomes[key] = done.value
        except RuntimeWarning as exc:  # in the solve's own step or its search's arithmetic
            outcomes[key] = NumericalFailureError(f"optimize: floating-point {exc}")
        except (NumericalFailureError, ParameterError) as exc:
            outcomes[key] = exc
        else:
            running.append(slot)

    def start():
        for key, problem, solve in jobs:
            send([key, problem, solve, None], lambda: None)
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
            send(slot, lambda: alone(problems[n], *requests[n]) if replies is None
                 else replies[n])

    while True:
        while len(running) < _WIDTH and start():
            pass
        if not running:
            return outcomes
        answer("forward", lambda problem, x: _forward([problem], [x])[0],
               lambda problems, requests: _forward(problems, [x for x, in requests]))
        answer("gradient", objective_and_gradient, _gradients)
        answer("search", _line_search, _line_searches)
