"""Forward integration of the mean-field epidemic models.

One Heun (explicit trapezoidal) integrator drives three views of the
same dynamics: the full per-degree-class model, the Z-grouped model, and
the grouped model with vaccination/treatment controls. Per group z with
control group m = m(z):

    ds_z/dt = -beta * k_z * s_z * Theta - s_z * u_m
    di_z/dt =  beta * k_z * s_z * Theta - gamma * i_z - i_z * v_m
    r_z     =  1 - s_z - i_z

where Theta = sum_l q_l * i_l is the infection pressure (probability
that a random edge end is infected), computed once per stage. The
per-group recovered fraction is algebraic because the flows preserve
s + i + r exactly. `grouping_error` measures the grouped view against the full one.

The optimizer's gradient comes from the reverse (discrete-adjoint) sweep
of the same Heun steps, which lives here beside the forward sweep: it
recomputes each step's stage states from the stored trajectory and
carries the objective's state derivatives (its node terms, supplied by
:mod:`~epinetopt.control`) back through the transposed stage Jacobians,
so the control gradient is exact for the discretized objective up to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalFailureError, ParameterError, fp_checked
from .grouping import ControlGroups, GroupedDistribution, Grouping, grouped_stats, partition_equal_mass
from .network import DegreeDistribution

if TYPE_CHECKING:
    from .control import ControlSchedule

__all__ = [
    "EpidemicParams",
    "TimeGrid",
    "Trajectory",
    "DEFAULT_GRID_POINTS",
    "simulate_full",
    "simulate_grouped",
    "grouping_error",
    "cumulative_infected",
]

# Grid fine enough that the default epidemics are clamp-free and doubling
# the resolution moves the cumulative infected integral by < 1e-4.
DEFAULT_GRID_POINTS = 1001

# A clamp event is a step leaving [0,1] by more than this before clipping.
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class EpidemicParams:
    """Epidemic rates, seed fraction, and time horizon."""

    beta: float
    gamma: float
    i0: float
    duration: float

    def __post_init__(self):
        if not (self.beta >= 0 and np.isfinite(self.beta)):
            raise ParameterError(f"beta must be >= 0, got {self.beta}", "beta")
        if not (self.gamma >= 0 and np.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}", "gamma")
        if not 0 <= self.i0 < 1:
            raise ParameterError(f"i0 must lie in [0, 1), got {self.i0}", "i0")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ParameterError(f"duration must be positive, got {self.duration}", "duration")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_points`` samples over ``[0, duration]``."""

    n_points: int
    duration: float

    def __post_init__(self):
        if self.n_points < 2:
            raise ParameterError(f"need at least 2 grid points, got {self.n_points}")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ParameterError(f"duration must be positive, got {self.duration}")

    @property
    def dt(self) -> float:
        return self.duration / (self.n_points - 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_points)

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights (dt at interior nodes, dt/2 at the ends)."""
        w = np.full(self.n_points, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass(frozen=True)
class Trajectory:
    """Per-group and aggregate state fractions over a time grid.

    ``s_hat``, ``i_hat``, ``r_hat`` are (Z, N); ``s``, ``i``, ``r`` are the
    population aggregates, weighted by the group masses ``p_hat``.
    ``clamp_events`` counts integration steps that left [0, 1] by more
    than 1e-12 before clipping — nonzero values flag an under-resolved
    grid.
    """

    s_hat: np.ndarray
    i_hat: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    grid: TimeGrid
    clamp_events: int = 0
    p_hat: np.ndarray | None = None

    @property
    def r_hat(self) -> np.ndarray:
        return 1.0 - self.s_hat - self.i_hat


def _rhs(s, i, k_hat, q_hat, beta, gamma, u, v):
    """Flow rates for susceptible and infected fractions of each group."""
    infect = (beta * (q_hat @ i)) * (k_hat * s)
    return -infect - u * s, infect - gamma * i - v * i


def _integrate(gd, params, grid, u_z=None, v_z=None):
    """Run the Heun loop; ``u_z``/``v_z`` are per-group controls, (Z, N).

    A non-finite state raises :class:`NumericalFailureError`.
    """
    n, dt = grid.n_points, grid.dt
    k_hat, q_hat = gd.k_hat, gd.q_hat
    z = len(k_hat)
    if u_z is None:
        u_z = v_z = np.zeros((z, n))
    beta, gamma = params.beta, params.gamma
    s = np.empty((z, n))
    i = np.empty((z, n))
    s[:, 0] = 1.0 - params.i0
    i[:, 0] = params.i0
    clamp_events = 0
    sn, inn = s[:, 0].copy(), i[:, 0].copy()
    for step in range(n - 1):
        ds0, di0 = _rhs(sn, inn, k_hat, q_hat, beta, gamma, u_z[:, step], v_z[:, step])
        sp = sn + dt * ds0
        ip = inn + dt * di0
        ds1, di1 = _rhs(sp, ip, k_hat, q_hat, beta, gamma, u_z[:, step + 1], v_z[:, step + 1])
        sn = sn + 0.5 * dt * (ds0 + ds1)
        inn = inn + 0.5 * dt * (di0 + di1)
        lo = min(sn.min(), inn.min())
        hi = max(sn.max(), inn.max())
        if lo < -_CLAMP_TOL or hi > 1 + _CLAMP_TOL:
            clamp_events += 1
        if lo < 0 or hi > 1:
            np.clip(sn, 0.0, 1.0, out=sn)
            np.clip(inn, 0.0, 1.0, out=inn)
        s[:, step + 1] = sn
        i[:, step + 1] = inn
    bad = ~(np.isfinite(s).all(axis=0) & np.isfinite(i).all(axis=0))
    if bad.any():
        raise NumericalFailureError(f"non-finite state at grid step {int(np.argmax(bad))}")
    # population aggregates: s = sum_z p_hat_z s_z, likewise i; r = 1 - s - i
    s_agg, i_agg = gd.p_hat @ s, gd.p_hat @ i
    return Trajectory(
        s_hat=s, i_hat=i, s=s_agg, i=i_agg, r=1.0 - s_agg - i_agg,
        grid=grid, clamp_events=clamp_events, p_hat=gd.p_hat,
    )


def _reverse(gd, params, grid, traj, u_z, v_z, node_s, node_i):
    """Reverse (discrete-adjoint) sweep of :func:`_integrate` under ``u_z``/``v_z``.

    ``traj`` is the forward trajectory under those (Z, N) controls, and
    ``node_s``/``node_i`` are the objective's derivatives with respect to
    the group states at each grid node (``node_s`` None if it has none).
    Returns the (Z, N) derivatives of the objective with respect to
    ``u_z`` and ``v_z`` through the states.
    """
    beta, gamma = params.beta, params.gamma
    k_hat, q_hat = gd.k_hat, gd.q_hat
    n, dt = grid.n_points, grid.dt
    s, i = traj.s_hat, traj.i_hat
    bk = beta * k_hat

    # stage quantities for every step, vectorized over time
    theta = q_hat @ i  # (N,)
    infect = bk[:, None] * s * theta[None, :]
    sp = s + dt * (-infect - u_z * s)  # predictor states for step n live
    ip = i + dt * (infect - gamma * i - v_z * i)  # in column n
    theta_p = q_hat @ ip

    g_u = np.zeros_like(u_z)
    g_v = np.zeros_like(v_z)
    # lam = dJ/d(state at node n+1), objective node terms included
    lam_s = np.zeros(gd.n_groups) if node_s is None else node_s[:, -1].copy()
    lam_i = node_i[:, -1].copy()
    for step in range(n - 2, -1, -1):
        u0, v0 = u_z[:, step], v_z[:, step]
        u1, v1 = u_z[:, step + 1], v_z[:, step + 1]
        sp_n, ip_n = sp[:, step], ip[:, step]
        s_n, i_n = s[:, step], i[:, step]
        # transposed-Jacobian product at the predicted state (stage 2)
        bkt = bk * theta_p[step]
        h1_s = (-bkt - u1) * lam_s + bkt * lam_i
        h1_i = beta * q_hat * np.dot(k_hat * sp_n, lam_i - lam_s) - (gamma + v1) * lam_i
        # control gradients: stage 2 uses node n+1 controls, stage 1 node n
        g_u[:, step + 1] += (-0.5 * dt) * sp_n * lam_s
        g_v[:, step + 1] += (-0.5 * dt) * ip_n * lam_i
        mu_s = lam_s + dt * h1_s
        mu_i = lam_i + dt * h1_i
        g_u[:, step] += (-0.5 * dt) * s_n * mu_s
        g_v[:, step] += (-0.5 * dt) * i_n * mu_i
        # transposed-Jacobian product at the step start (stage 1)
        bkt = bk * theta[step]
        h0_s = (-bkt - u0) * mu_s + bkt * mu_i
        h0_i = beta * q_hat * np.dot(k_hat * s_n, mu_i - mu_s) - (gamma + v0) * mu_i
        lam_s = lam_s + 0.5 * dt * (h1_s + h0_s)
        lam_i = lam_i + 0.5 * dt * (h1_i + h0_i) + node_i[:, step]
        if node_s is not None:
            lam_s += node_s[:, step]
    return g_u, g_v


@fp_checked
def simulate_full(dist: DegreeDistribution, params: EpidemicParams, grid: TimeGrid) -> Trajectory:
    """Integrate the uncontrolled epidemic over every degree class.

    Each degree class is its own group (identity grouping), so the
    trajectory has one row per degree class.
    """
    identity = Grouping(np.arange(dist.n_classes + 1))
    return _integrate(grouped_stats(dist, identity), params, grid)


@fp_checked
def simulate_grouped(
    gd: GroupedDistribution,
    cg: ControlGroups | None,
    schedule: "ControlSchedule | None",
    params: EpidemicParams,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the grouped epidemic, optionally under a control schedule.

    With ``schedule=None`` the uncontrolled grouped dynamics are run.
    Otherwise the schedule must be sampled on ``grid`` and nonnegative;
    its M vaccination/treatment signals are spread over the Z groups via
    ``cg.assignment``.
    """
    if schedule is None:
        return _integrate(gd, params, grid)
    if cg is None:
        raise ParameterError("control groups are required with a schedule")
    m, n = schedule.u.shape
    if m != cg.n_control or schedule.u.shape != schedule.v.shape:
        raise ParameterError(
            f"schedule has {m} control signals, expected {cg.n_control}"
        )
    if n != grid.n_points:
        raise ParameterError(
            f"schedule sampled at {n} points, grid has {grid.n_points}"
        )
    if not (schedule.u.min() >= 0 and schedule.v.min() >= 0):  # also rejects nan
        raise ParameterError("control rates must be nonnegative")
    a = cg.assignment
    return _integrate(gd, params, grid, u_z=schedule.u[a], v_z=schedule.v[a])


def grouping_error(dist: DegreeDistribution, group_counts, params, grid) -> list[float]:
    """Combined relative error of Z-grouped models against the full model.

    Simulates the uncontrolled full model once, then the grouped model for
    each Z in ``group_counts``, all from identical initial conditions, and
    returns one error per requested Z: the relative L2 error of the stacked
    aggregate trajectories (s, i, r) sampled on the grid,
    ``||grouped - full||_2 / ||full||_2``, combining all three states in
    one norm. The identity grouping gives 0 up to roundoff.
    """
    def aggregates(traj):
        return traj.s, traj.i, traj.r

    # keep only the aggregates: holding the per-class rows raises peak memory
    full = aggregates(simulate_full(dist, params, grid))
    errors = []
    for n_groups in group_counts:
        gd = grouped_stats(dist, partition_equal_mass(dist, n_groups))
        grouped = aggregates(simulate_grouped(gd, None, None, params, grid))
        num, den = 0.0, 0.0
        for a, b in zip(grouped, full):
            num += np.sum((a - b) ** 2)
            den += np.sum(b**2)
        errors.append(float(np.sqrt(num / den)))
    return errors


def cumulative_infected(traj: Trajectory) -> float:
    """Time integral of the aggregate infected fraction (trapezoidal rule)."""
    return float(traj.grid.quadrature_weights() @ traj.i)
