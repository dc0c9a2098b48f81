"""The cost functional, baseline strategies, and resource allocation.

These price and build a :class:`~epinetopt.dynamics.ControlSchedule`, one
vaccination rate u_m(t) and one treatment rate v_m(t) per control group.
The objective being minimized is cumulative infections plus a quadratic
control cost,

    J = integral of [ i(t) + vaccination cost + treatment cost ] dt,

where ``CostParams.functional`` selects the control cost:

``"rate"`` (the default)
    b * sum_m x_m u_m(t)^2 + c * sum_m x_m v_m(t)^2, the squared rates
    weighted by the population share x_m of each control group. The
    rates are only bounded below, by 0.
``"dose"``
    b * sum_z p_z (u_m(z) s_z(t))^2 + c * sum_z p_z (v_m(z) i_z(t))^2,
    the squared doses delivered to each degree group z (vaccinations
    reach susceptibles, treatments reach infecteds), weighted by the
    group mass p_z. Cheap once a group has no one left to dose, so it is
    only well posed with rates bounded above by ``rate_max``; without a
    bound the optimum treats the initial seed at an unbounded rate. Its
    optimum runs the rates at the bound while anyone is left to dose.
    After that the objective hardly depends on them (derivatives of
    ~1e-13), so the optimum is not unique there and an optimized
    schedule keeps its starting rates in that tail.

The paper's optimization targets (acceptance criteria 3 and 5-8) run
under ``"dose"`` with rates in [0, 1], on groups built with the SIR
(excess-degree) infection pressure of
:func:`~epinetopt.grouping.grouped_stats`. It prices the constant
heuristic at about its bare infection burden, as the paper's
improvement figures imply; the README tabulates how far each criterion
is met. The control terms double as the resource-consumption measure
for allocation reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSchedule, EpidemicParams, TimeGrid, Trajectory, cumulative_infected
from .errors import ParameterError, fp_checked
from .grouping import ControlGroups

__all__ = [
    "CostParams",
    "CostBreakdown",
    "ResourceAllocation",
    "evaluate_cost",
    "constant_strategy",
    "zero_strategy",
    "resource_allocation",
]


FUNCTIONALS = ("rate", "dose")


@dataclass(frozen=True)
class CostParams:
    """The control-cost functional, its weights b and c, and the rate bound.

    ``functional`` is ``"rate"`` or ``"dose"`` (see the module docstring).
    ``rate_max`` bounds the vaccination and treatment rates from above; the
    ``"dose"`` functional needs it finite, the ``"rate"`` functional takes
    none.
    """

    b: float
    c: float
    functional: str = "rate"
    rate_max: float = np.inf

    def __post_init__(self):
        if not (self.b >= 0 and np.isfinite(self.b)):
            raise ParameterError(
                f"vaccination cost weight must be finite and >= 0, got {self.b}", "b"
            )
        if not (self.c >= 0 and np.isfinite(self.c)):
            raise ParameterError(
                f"treatment cost weight must be finite and >= 0, got {self.c}", "c"
            )
        if self.functional not in FUNCTIONALS:
            raise ParameterError(
                f"cost functional must be one of {', '.join(FUNCTIONALS)}, got {self.functional!r}",
                "functional",
            )
        if not self.rate_max > 0:  # also rejects nan
            raise ParameterError(f"rate_max must be > 0, got {self.rate_max}", "rate_max")
        if (self.functional == "dose") != bool(np.isfinite(self.rate_max)):
            raise ParameterError(
                "the dose functional needs a finite rate_max, the rate functional none", "rate_max"
            )


@dataclass(frozen=True)
class CostBreakdown:
    """Objective value split into its three integral terms; ``J`` is their sum."""

    infection_term: float
    vaccination_term: float
    treatment_term: float

    @property
    def J(self) -> float:
        return self.infection_term + self.vaccination_term + self.treatment_term


@dataclass(frozen=True)
class ResourceAllocation:
    """Normalized resource shares (percent) of a control schedule.

    ``pair_shares`` is (2, M): row 0 the vaccination share per group,
    row 1 the treatment share, together summing to 100. ``group_shares``
    sums vaccination+treatment per group; ``strategy_shares`` is the
    (vaccination, treatment) split. ``no_resources`` flags an all-zero
    schedule (or zero cost weights), in which case every share is zero.
    """

    pair_shares: np.ndarray
    group_shares: np.ndarray
    strategy_shares: np.ndarray
    total: float
    no_resources: bool = False


def _cost_rows(cost: CostParams, cg: ControlGroups, u, v, traj: Trajectory | None):
    """Rows whose weighted squares are the control-cost densities.

    Returns ``(weights, U, V, starts)``: the vaccination cost density is
    ``b * weights @ U**2`` and the treatment density ``c * weights @ V**2``,
    and row r belongs to the control group whose rows begin at
    ``starts``. For ``"rate"`` the rows are the M control groups (u, v
    weighted by x); for ``"dose"`` they are the Z degree groups (the doses
    u_m(z) s_z and v_m(z) i_z weighted by p_z), which needs ``traj``.
    Every cost evaluation (objective, gradient, breakdown, allocation)
    goes through here, so each measures the same functional and checks
    the block count.
    """
    if len(u) != cg.n_control:
        raise ParameterError(f"schedule has {len(u)} control groups, expected {cg.n_control}")
    if cost.functional == "rate":
        return cg.x, u, v, np.arange(cg.n_control)
    if traj is None or traj.s_hat.shape[1] != u.shape[1]:
        raise ParameterError("the dose functional needs the trajectory simulated under the schedule")
    a = cg.assignment
    return traj.p_hat, u[a] * traj.s_hat, v[a] * traj.i_hat, cg.starts


def _cost_gradient(cost: CostParams, cg: ControlGroups, u, v, traj: Trajectory):
    """Derivatives of the objective that :func:`evaluate_cost` prices on ``traj``.

    Returns ``(node_s, node_i, g_u, g_v)``: the (Z, N) derivatives with respect to
    the group states at each grid node (``node_s`` None for ``"rate"``), and the
    (M, N) direct ones with respect to u and v. ``node_i`` holds the infection
    term's, plus the control cost's own for ``"dose"``; the control cost is
    differentiated by the chain rule through :func:`_cost_rows`.
    """
    w = traj.grid.quadrature_weights()
    weights, du, dv, starts = _cost_rows(cost, cg, u, v, traj)
    ku = 2.0 * cost.b * weights[:, None] * du * w[None, :]  # derivative by each row
    kv = 2.0 * cost.c * weights[:, None] * dv * w[None, :]
    node_i = np.outer(traj.p_hat, w)  # the infection term, w @ (p_hat @ i_hat)
    if cost.functional == "rate":  # the rows are the rates themselves
        return None, node_i, ku, kv
    a = cg.assignment  # the rows are the doses u_m(z) s_z and v_m(z) i_z
    s, i = traj.s_hat, traj.i_hat
    node_i += kv * v[a]
    return ku * u[a], node_i, np.add.reduceat(ku * s, starts), np.add.reduceat(kv * i, starts)


@fp_checked
def evaluate_cost(
    traj: Trajectory,
    schedule: ControlSchedule,
    cg: ControlGroups,
    cost: CostParams,
) -> CostBreakdown:
    """Trapezoidal evaluation of the objective for a simulated trajectory.

    The trajectory must have been produced under ``schedule`` on the same
    grid; only the grid compatibility can be (and is) checked here.
    """
    if not schedule.grid.matches(traj.grid):
        raise ParameterError("schedule and trajectory use different grids")
    w = traj.grid.quadrature_weights()
    weights, du, dv, _ = _cost_rows(cost, cg, schedule.u, schedule.v, traj)
    return CostBreakdown(
        infection_term=cumulative_infected(traj),
        vaccination_term=float(cost.b * (w @ (weights @ du**2))),
        treatment_term=float(cost.c * (w @ (weights @ dv**2))),
    )


def constant_strategy(params: EpidemicParams, grid: TimeGrid, n_control: int) -> ControlSchedule:
    """Flat baseline: vaccinate at beta/2 and treat at gamma/2 throughout."""
    shape = (n_control, grid.n_points)
    return ControlSchedule(
        u=np.full(shape, params.beta / 2),
        v=np.full(shape, params.gamma / 2),
        grid=grid,
    )


def zero_strategy(grid: TimeGrid, n_control: int) -> ControlSchedule:
    """No-intervention baseline."""
    shape = (n_control, grid.n_points)
    return ControlSchedule(u=np.zeros(shape), v=np.zeros(shape), grid=grid)


@fp_checked
def resource_allocation(
    schedule: ControlSchedule,
    cg: ControlGroups,
    cost: CostParams,
    traj: Trajectory | None = None,
) -> ResourceAllocation:
    """Split the deployed control resources into percentage shares.

    The resource spent on group m is its share of the functional's control
    terms, e.g. ``b x_m int u_m^2 dt`` for vaccination and ``c x_m int
    v_m^2 dt`` for treatment under ``"rate"``. The ``"dose"`` functional
    prices doses delivered, so it needs ``traj``, the trajectory simulated
    under ``schedule``. Three normalizations are reported, each summing to
    100%: per (strategy, group) pair, per group, and per strategy.
    """
    w = schedule.grid.quadrature_weights()
    weights, du, dv, starts = _cost_rows(cost, cg, schedule.u, schedule.v, traj)
    r_u = np.add.reduceat(cost.b * weights * (du**2 @ w), starts)
    r_v = np.add.reduceat(cost.c * weights * (dv**2 @ w), starts)
    total = float(r_u.sum() + r_v.sum())
    m = cg.n_control
    if total <= 0.0:
        zeros = np.zeros(m)
        return ResourceAllocation(
            pair_shares=np.zeros((2, m)),
            group_shares=zeros,
            strategy_shares=np.zeros(2),
            total=0.0,
            no_resources=True,
        )
    pair = np.vstack([r_u, r_v]) / total * 100.0
    return ResourceAllocation(
        pair_shares=pair,
        group_shares=(r_u + r_v) / total * 100.0,
        strategy_shares=np.array([r_u.sum(), r_v.sum()]) / total * 100.0,
        total=total,
    )
