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
s + i + r exactly. One Heun loop, with one right-hand side, performs
every forward sweep, of one system or of a batch of independent systems.
An uncontrolled sweep passes no controls, and its flows leave out the
control terms instead of multiplying by zero. The states are population
fractions, so a sweep whose state leaves [0, 1] or turns NaN has failed,
most often because the grid is too coarse: it raises
:class:`NumericalFailureError`, naming the first grid step concerned.
Nothing is clipped, since a clipped trajectory is not the model's and the
reverse sweep would not differentiate the clip. A sweep that stores every
node checks the finished store once, at the cost of two reductions.

A :class:`ControlSchedule` holds the M vaccination and treatment signals
u_m, v_m sampled on a :class:`TimeGrid` and checks its own shape and that
its rates are finite and nonnegative; :func:`simulate_grouped` spreads them
over the Z groups. Whether a model's parts fit one another (the grid spans
the epidemic's horizon, the control groups cover the grouping) is checked
in one place, :func:`_check_model`, for every entry point here and for the
optimizer's problems.

`grouping_error` measures the grouped view against the full one in
batched sweeps: the reference (full) model, one group per positive-mass
degree class, and each Z-grouped model are rows of one state, zero-padded
to the reference's width. A padded group has zero degree, edge-end
weight, mass and state, so it adds nothing to Theta or to the
aggregates, and a row's result does not depend on the rest of the batch.
The rows advance in fixed-size blocks, so memory stays bounded however
many Z are asked for. A row that leaves [0, 1] makes the comparison
fail, naming the row and the grid step.

Independent jobs are shared out to forked processes here, for
`grouping_error` and for the optimizer's sweeps: :func:`_share_out` runs
the first share in the calling process and forks a child for each other
one (:func:`_fork`), which pickles its answer into a pipe. A share whose
child cannot be forked, fails or sends a truncated answer runs in the
calling process instead, and every child is reaped on every path. The
number of processes comes from the usable CPUs (:func:`_cpus`).
`grouping_error` cuts its rows into contiguous shares, each integrated
beside its own reference row, so every error keeps its bits.

The optimizer's gradient comes from the reverse (discrete-adjoint) sweep
of the same Heun steps, which lives here beside the forward sweep: it
recomputes each step's stage states from the stored trajectory and
carries the objective's state derivatives (its node terms, supplied by
:mod:`~epinetopt.control`) back through the transposed stage Jacobians,
so the control gradient is exact for the discretized objective up to
roundoff. The stage states and the coefficients that do not depend on the
adjoint are computed per time chunk and the control gradient is
accumulated once per chunk, by the operations of a step-by-step loop in
the same order, so with its bits.

Both loops also run a batch of B systems that share the grouping and
differ in beta and in the controls, as (B, Z, 1) columns: the optimizer
solves sweep points in lockstep this way. Each row of a batch has the
bits of its system run alone, because every operation is elementwise or
a per-row dot product of the shapes the single system uses.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, ParameterError, fp_checked
from .grouping import ControlGroups, GroupedDistribution, grouped_stats
from .grouping import _equal_mass_partitions, _partition_equal_mass
from .network import DegreeDistribution

__all__ = [
    "EpidemicParams",
    "TimeGrid",
    "ControlSchedule",
    "Trajectory",
    "DEFAULT_GRID_POINTS",
    "simulate_full",
    "simulate_grouped",
    "grouping_error",
    "cumulative_infected",
]

# Grid fine enough that the default epidemics stay in [0, 1] and doubling
# the resolution moves the cumulative infected integral by < 1e-4. The
# aggregate s, i and r of the full model are off by up to 5.3e-3 absolute
# near the peak, ~14x less at 4001 points (tests/test_dynamics.py's RK4 oracle).
DEFAULT_GRID_POINTS = 1001

# grouping_error advances its rows in blocks holding at most this many
# entries of per-group state and stored aggregates (2 MB per array).
_BLOCK_ENTRIES = 1 << 18

# grouping_error gives each process a share of at least this many entries of
# per-group state (rows x width), which pays for the fork and the pickled
# answer. On 2 CPUs at W = 100 and N = 1001, two processes lost to one below
# ~3000 entries in all, were about even up to ~5000 and won from ~6000.
_SHARE_ENTRIES = 3000

# The reverse sweep computes its coefficients for this many steps at a time.
_REVERSE_CHUNK = 64


@dataclass(frozen=True)
class EpidemicParams:
    """Epidemic rates, seed fraction, and time horizon."""

    beta: float
    gamma: float
    i0: float
    duration: float

    def __post_init__(self):
        if not (self.beta >= 0 and np.isfinite(self.beta)):
            raise ParameterError(f"beta must be finite and >= 0, got {self.beta}", "beta")
        if not (self.gamma >= 0 and np.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be finite and >= 0, got {self.gamma}", "gamma")
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
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 2:
            raise ParameterError(f"need at least 2 grid points, got {self.n_points}", "points")
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ParameterError(f"duration must be positive, got {self.duration}", "duration")

    @property
    def dt(self) -> float:
        return self.duration / (self.n_points - 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.n_points)

    def matches(self, other: "TimeGrid") -> bool:
        """Same node count and (to rounding) the same duration as ``other``."""
        return self.n_points == other.n_points and bool(np.isclose(self.duration, other.duration))

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights (dt at interior nodes, dt/2 at the ends)."""
        w = np.full(self.n_points, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass(frozen=True)
class ControlSchedule:
    """Per-control-group vaccination and treatment rates on a time grid.

    ``u`` and ``v`` are read-only (M, N) copies: row m holds the rates for
    control group m at the N grid times, and the checks below stay true.
    """

    u: np.ndarray
    v: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        u, v = np.array(self.u, dtype=float), np.array(self.v, dtype=float)
        u.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.ndim != 2 or u.shape != v.shape or u.size == 0:
            raise ParameterError(
                f"u and v must be matching nonempty (M, N) arrays, got {u.shape} and {v.shape}"
            )
        if u.shape[1] != self.grid.n_points:
            raise ParameterError(
                f"schedule has {u.shape[1]} samples, grid has {self.grid.n_points}"
            )
        if not (0 <= u.min() and u.max() < np.inf and 0 <= v.min() and v.max() < np.inf):  # nan too
            raise ParameterError("control rates must be finite and nonnegative")

    @property
    def n_control(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Per-group and aggregate state fractions over a time grid.

    ``s_hat``, ``i_hat``, ``r_hat`` are (Z, N); ``s``, ``i``, ``r`` are the
    population aggregates, weighted by the group masses ``p_hat``. Every
    state lies in [0, 1]: a sweep that leaves it raises instead.

    ``clamp_events`` is 0 for every trajectory, since none is clipped. It
    stays for the benchmark: ``bench/checks.py`` reads the ``clamp_events``
    lines of ``summary.txt``, and ``bench/tracer.py`` reads it from traced
    sweeps for ``bench/run.py``'s check.
    """

    s_hat: np.ndarray
    i_hat: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    grid: TimeGrid
    p_hat: np.ndarray
    clamp_events = 0

    @property
    def r_hat(self) -> np.ndarray:
        return 1.0 - self.s_hat - self.i_hat


def _rhs(s, i, k_hat, q_hat, beta, gamma, u, v):
    """Susceptible loss and infected flow of each group: ``(-ds/dt, di/dt)``.

    Both stages of every :func:`_heun` step call this, and the step
    subtracts the loss: x - a is x + (-a), and -(a + b) is -a - b, bit for
    bit. One system passes (Z,) vectors. A batch of B systems passes
    ``q_hat`` as (B, 1, W) rows and the per-group arrays as (B, W, 1)
    columns, so ``q_hat @ i`` is each system's Theta, (B, 1, 1), by the
    same dot. The controls ``u``, ``v`` are per-group arrays, or None for an
    uncontrolled system, whose flows then leave out the control terms:
    x - 0.0 is x, so the bits are those of zero controls.
    """
    infect = (beta * (q_hat @ i)) * (k_hat * s)
    if u is None:
        return infect, infect - gamma * i
    return infect + u * s, infect - gamma * i - v * i


def _heun(k_hat, q_hat, xs, u, v, beta, gamma, grid):
    """Advance the stacked state ``xs[0]`` over ``grid``, one Heun step at a time.

    ``k_hat``, ``q_hat``, the spreading rate ``beta`` and the states have
    the shapes of one system or of a batch (see :func:`_rhs`); a batch
    gives ``beta`` per row, as (B, 1, 1). ``xs`` stores T stacked (s, i)
    states: the state at grid node n is written to ``xs[n % T]``, so a
    (N, 2, ...) store keeps every node and a one-entry store is advanced in
    place. ``u[n]``, ``v[n]`` are the controls at node n, and ``u`` and
    ``v`` are None for an uncontrolled system. Yields after each step and
    checks nothing; its callers check the states. The step sizes and
    ``gamma`` are 0-d arrays, which spares NumPy a conversion per call, and
    each control row is taken once and carried to the next step.
    """
    dt, half, gamma = np.array(grid.dt), np.array(0.5 * grid.dt), np.array(gamma)
    if u is None:
        u = v = [None] * grid.n_points
    t, u0, v0 = len(xs), u[0], v[0]
    sn, inn = xs[0]
    for step, u1, v1 in zip(range(1, grid.n_points), u[1:], v[1:]):
        ls0, di0 = _rhs(sn, inn, k_hat, q_hat, beta, gamma, u0, v0)
        ls1, di1 = _rhs(sn - dt * ls0, inn + dt * di0, k_hat, q_hat, beta, gamma, u1, v1)
        xn = xs[step % t]
        sn = np.subtract(sn, half * (ls0 + ls1), out=xn[0])
        inn = np.add(inn, half * (di0 + di1), out=xn[1])
        u0, v0 = u1, v1
        yield


def _checked_heun(k_hat, q_hat, x, u, v, beta, gamma, grid):
    """Fill the (N, 2, ...) store ``x`` by :func:`_heun`, then check it once.

    A state outside [0, 1], NaN included, raises
    :class:`NumericalFailureError` naming the first grid step concerned.
    The pass ignores NumPy's overflow and invalid-value warnings: a
    blow-up leaves a non-finite or out-of-range state, which the check
    finds. Under a caller's ``np.errstate`` that raises, the
    ``FloatingPointError`` goes to the caller as it is.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in _heun(k_hat, q_hat, x, u, v, beta, gamma, grid):
            pass
    if not (0 <= x.min() and x.max() <= 1):  # false for NaN too
        inside = ((0 <= x) & (x <= 1)).reshape(len(x), -1).all(axis=1)
        raise NumericalFailureError(f"state left [0, 1] at grid step {np.argmin(inside)}")


def _integrate(gd, params, grid, u_z=None, v_z=None):
    """Run one system through :func:`_checked_heun`; ``u_z``/``v_z`` are
    per-group controls, (Z, N), or None for an uncontrolled system.

    Each step writes the stacked (s, i), one (2, Z) block, into a time-major
    store. A state that leaves [0, 1] raises :class:`NumericalFailureError`.
    """
    x = np.empty((grid.n_points, 2, gd.n_groups))  # x[step] = (s, i) at grid node step
    x[0, 0], x[0, 1] = 1.0 - params.i0, params.i0
    u, v = (None, None) if u_z is None else (u_z.T, v_z.T)
    _checked_heun(gd.k_hat, gd.q_hat, x, u, v, params.beta, params.gamma, grid)
    return _trajectory(gd, grid, x)


def _integrate_batch(gd, assignment, params, grid, u, v):
    """Run B systems through one batched :func:`_checked_heun`.

    System b has the epidemic ``params[b]``, and the params differ at most
    in beta; it has the (M, N) block controls ``u[b]``, ``v[b]`` (group z
    has the rates of block ``assignment[z]``), and every system has the
    groups ``gd``. Each step advances the (B, Z, 1) columns of every system
    at once. Returns one :class:`Trajectory` per system, each with the bits
    that :func:`_integrate` gives that system alone; a state of any system
    that leaves [0, 1] raises :class:`NumericalFailureError`.
    """
    rows, n, z = len(params), grid.n_points, gd.n_groups
    beta, gamma, i0 = _per_row(params)
    x = np.empty((n, 2, rows, z, 1))  # x[step, :, b] = (s, i) of system b
    x[0, 0], x[0, 1] = 1.0 - i0, i0
    # (N, B, Z, 1) views of the per-group controls
    u_t, v_t = (np.moveaxis(np.stack(c)[:, assignment], -1, 0)[..., None] for c in (u, v))
    _checked_heun(gd.k_hat[:, None], gd.q_hat[None], x, u_t, v_t, beta, gamma, grid)
    del u_t, v_t  # freed before the trajectories are copied out
    return [_trajectory(gd, grid, x[:, :, b, :, 0]) for b in range(rows)]


def _per_row(params):
    """The (B, 1, 1) spreading rates of a batch's epidemics ``params``, which
    differ at most in beta, and their recovery rate and seed."""
    return np.reshape([p.beta for p in params], (-1, 1, 1)), params[0].gamma, params[0].i0


def _trajectory(gd, grid, x):
    """The :class:`Trajectory` of one system's (N, 2, Z) store ``x`` of
    (s, i) states, checked by :func:`_checked_heun`."""
    s, i = x.transpose(1, 2, 0).copy()  # (Z, N) each
    # population aggregates: s = sum_z p_hat_z s_z, likewise i; r = 1 - s - i
    s_agg, i_agg = gd.p_hat @ s, gd.p_hat @ i
    return Trajectory(
        s_hat=s, i_hat=i, s=s_agg, i=i_agg, r=1.0 - s_agg - i_agg,
        grid=grid, p_hat=gd.p_hat,
    )


def _reverse(gd, assignment, params, grid, s, i, u, v, node_s, node_i):
    """Reverse (discrete-adjoint) sweep of :func:`_heun`, for one system or a batch.

    One system passes ``s``, ``i``, its (Z, N) forward trajectory under the
    (M, N) block controls ``u``, ``v`` (group z has the rates of block
    ``assignment[z]``), and ``node_s``/``node_i``, the objective's (Z, N)
    derivatives with respect to the group states at each grid node
    (``node_s`` None if it has none), under the epidemic ``params``. A
    batch of B systems that share ``gd`` and ``assignment`` passes
    ``params`` and each array as a sequence of B, one per system; the
    params may differ only in beta. Returns the derivatives of the objective
    with respect to the per-group rates through the states: (Z, N) each,
    or (B, Z, N) for a batch.

    One loop body serves both: it steps (Z,) vectors for one system and
    (B, Z, 1) columns for a batch, whose dot products are stacked products
    of (B, 1, Z) rows and (B, Z, 1) columns. The grid is walked backwards
    in chunks of ``_REVERSE_CHUNK`` steps. A chunk takes the columns it
    needs, spreads the block controls over the groups, and computes its
    stage states and the coefficients that do not depend on the adjoint,
    vectorized; its loop carries only the adjoint recursion and stores the
    adjoints; one pass per term then adds the control gradient, stage 1
    into a column before stage 2. Each entry sees the operations of a
    step-by-step loop in the same order, so the bits do not depend on the
    chunk length or on the rest of the batch. Theta and the predicted
    Theta are one product per system over the whole grid, and the dot
    products read contiguous rows: the bits of both depend on the shapes
    and strides of their inputs. No per-group array spans the grid but the
    two results and, while the predicted Theta is formed, the predicted i.
    """
    n, dt, z = grid.n_points, grid.dt, gd.n_groups
    half, g_scale = 0.5 * dt, -0.5 * dt
    batch = not isinstance(params, EpidemicParams)
    if batch:  # stepped as (B, Z, 1) columns, with (B, 1, Z) rows for the dot products
        (beta, gamma, _), dot = _per_row(params), np.matmul
        shape, row = (len(params), z, 1), (len(params), 1, z)
        k_col, q_col = gd.k_hat[:, None], gd.q_hat[:, None]

        def cols(x, at):  # (B, R, 1, steps): columns ``at`` of B (R, N) arrays
            return np.stack([x_b[:, at] for x_b in x])[:, :, None]

        def spread(c):
            return c[:, assignment]

        def pressure(x):  # Theta of each system over the whole grid, (B, 1, 1, N)
            return np.stack([gd.q_hat @ np.reshape(x_b, (z, n)) for x_b in x])[:, None, None]
    else:
        beta, gamma, dot = params.beta, params.gamma, np.dot
        shape, row, k_col, q_col = (z,), (z,), gd.k_hat, gd.q_hat

        def cols(x, at):
            return x[:, at]

        def spread(c):
            return c[assignment]

        def pressure(x):  # (1, N)
            return (gd.q_hat @ x)[None]

    to_steps = (len(shape), *range(len(shape)))  # transposes (*shape, n) to (n, *shape)

    def steps(x):  # time-major view: x[..., n] becomes steps(x)[n]
        return x.transpose(to_steps)

    bk, bq = beta * k_col, beta * q_col
    theta = pressure(i)

    def stage(at, u_at, v_at):
        """Columns ``at`` of s, i and of the predicted states, under the
        per-group controls ``u_at``, ``v_at`` there: the predictor of the step
        from node n is in column n."""
        s_at, i_at = cols(s, at), cols(i, at)
        infect = bk[..., None] * s_at * theta[..., at]
        sp = s_at + dt * (-infect - u_at * s_at)
        ip = i_at + dt * (infect - gamma * i_at - v_at * i_at)
        return s_at, i_at, sp, ip

    chunk = min(_REVERSE_CHUNK, n - 1)
    ip = np.empty((*shape, n))
    for lo in range(0, n, 4 * chunk):  # in pieces of a few chunks, to bound memory
        at = slice(lo, lo + 4 * chunk)
        ip[..., at] = stage(at, spread(cols(u, at)), spread(cols(v, at)))[3]
    theta_p = pressure(ip)
    del ip
    theta_t, theta_pt = steps(theta), steps(theta_p)

    g_u, g_v = np.zeros((*shape, n)), np.zeros((*shape, n))
    # step lo + j of a chunk: lam[j + 1] = dJ/d(s, i at node lo + j + 1), node
    # terms included; mu[j] the same at the predicted state; lam[0] carries on
    last = slice(n - 1, n)
    lam, mu = np.empty((chunk + 1, 2, *shape)), np.empty((chunk, 2, *shape))
    from_steps = (*range(1, lam.ndim), 0)  # (steps, 2, *shape) to (2, *shape, steps)
    lam[0, 0] = 0.0 if node_s is None else steps(cols(node_s, last))[0]
    lam[0, 1] = steps(cols(node_i, last))[0]
    h1, h0 = np.empty((2, *shape)), np.empty((2, *shape))  # stage products
    h1_s, h1_i, h0_s, h0_i = h1[0], h1[1], h0[0], h0[1]
    for hi in range(n - 1, 0, -chunk):
        lo = max(hi - chunk, 0)
        now, nxt = slice(lo, hi), slice(lo + 1, hi + 1)  # nodes n and n + 1
        lam[hi - lo] = lam[0]
        lam_s, lam_i = lam_j = lam[hi - lo]
        span = slice(lo, hi + 1)
        u_span, v_span = spread(cols(u, span)), spread(cols(v, span))
        s_now, i_now, sp_now, ip_now = stage(now, u_span[..., :-1], v_span[..., :-1])
        # (steps, *shape) coefficients: stage 2 (node n + 1 controls), stage 1 (node n)
        a1 = bk * theta_pt[now]
        c1, d1 = -a1 - steps(u_span[..., 1:]), gamma + steps(v_span[..., 1:])
        a0 = bk * theta_t[now]
        c0, d0 = -a0 - steps(u_span[..., :-1]), gamma + steps(v_span[..., :-1])
        # (steps, *row) C-contiguous rows k_hat * state, and the node terms
        e1, e0 = (np.multiply(k_col, steps(x), order="C").reshape(-1, *row)
                  for x in (sp_now, s_now))
        ni = steps(cols(node_i, now))
        ns = None if node_s is None else steps(cols(node_s, now))
        for j in range(hi - lo - 1, -1, -1):
            mu_j = mu[j]
            mu_s, mu_i = mu_j[0], mu_j[1]
            # transposed-Jacobian products at the predicted state (stage 2)
            np.add(c1[j] * lam_s, a1[j] * lam_i, out=h1_s)
            np.subtract(bq * dot(e1[j], lam_i - lam_s), d1[j] * lam_i, out=h1_i)
            np.add(lam_j, dt * h1, out=mu_j)
            # and at the step start (stage 1)
            np.add(c0[j] * mu_s, a0[j] * mu_i, out=h0_s)
            np.subtract(bq * dot(e0[j], mu_i - mu_s), d0[j] * mu_i, out=h0_i)
            lam_j = np.add(lam_j, half * (h1 + h0), out=lam[j])
            lam_s, lam_i = lam_j[0], lam_j[1]
            lam_i += ni[j]
            if ns is not None:
                lam_s += ns[j]
        # control gradients: stage 1 uses node n controls, stage 2 node n + 1
        lam_s, lam_i = lam[1:hi - lo + 1].transpose(from_steps)
        mu_s, mu_i = mu[:hi - lo].transpose(from_steps)
        g_u[..., now] += (g_scale * s_now) * mu_s
        g_v[..., now] += (g_scale * i_now) * mu_i
        g_u[..., nxt] += (g_scale * sp_now) * lam_s
        g_v[..., nxt] += (g_scale * ip_now) * lam_i
    return (g_u[:, :, 0], g_v[:, :, 0]) if batch else (g_u, g_v)


def _check_model(params, grid, gd=None, cg=None):
    """Reject a grid that does not span the epidemic's horizon ``params.duration``
    and, when given, control groups ``cg`` that do not cover the groups of ``gd``."""
    if cg is not None and len(cg.assignment) != gd.n_groups:
        raise ParameterError(
            f"control groups cover {len(cg.assignment)} groups, distribution has {gd.n_groups}"
        )
    if not np.isclose(params.duration, grid.duration):
        raise ParameterError(
            f"epidemic duration {params.duration} does not match grid duration {grid.duration}"
        )


@fp_checked
def simulate_full(dist: DegreeDistribution, params: EpidemicParams, grid: TimeGrid) -> Trajectory:
    """Integrate the uncontrolled epidemic over every degree class.

    The full model is the partition at Z = number of classes: one group,
    and one trajectory row, per positive-mass degree class.
    """
    _check_model(params, grid)
    full = _partition_equal_mass(dist, dist.n_classes)
    return _integrate(grouped_stats(dist, full), params, grid)


@fp_checked
def simulate_grouped(
    gd: GroupedDistribution,
    cg: ControlGroups | None,
    schedule: ControlSchedule | None,
    params: EpidemicParams,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the grouped epidemic, optionally under a control schedule.

    ``grid`` must span ``params.duration`` and ``cg``, if given, must cover
    the Z groups of ``gd`` (:func:`_check_model`). With ``schedule=None``
    the dynamics run uncontrolled. Otherwise ``cg`` must spread the
    schedule's M blocks over the groups, and the schedule (which checks its
    own shape and rates) must match ``grid``.
    """
    _check_model(params, grid, gd, cg)
    if schedule is None:
        return _integrate(gd, params, grid)
    if not isinstance(schedule, ControlSchedule):
        raise ParameterError(f"schedule must be a ControlSchedule, got {type(schedule).__name__}")
    if cg is None:
        raise ParameterError("control groups are required with a schedule")
    a, own = cg.assignment, schedule.grid
    if schedule.n_control != cg.n_control:
        raise ParameterError(f"schedule has {schedule.n_control} blocks, expected {cg.n_control}")
    if not own.matches(grid):
        raise ParameterError(
            f"schedule spans {own.duration} time units in {own.n_points} samples, "
            f"grid {grid.duration} in {grid.n_points}"
        )
    return _integrate(gd, params, grid, u_z=schedule.u[a], v_z=schedule.v[a])


@fp_checked
def grouping_error(dist: DegreeDistribution, group_counts, params, grid) -> list[float]:
    """Combined relative error of Z-grouped models against the full model.

    Integrates the uncontrolled reference (full) model and the grouped
    model of each Z in ``group_counts`` from identical initial conditions,
    as the rows of zero-padded batches (see :func:`_rhs`). The reference is
    the partition at Z = number of classes, whose width W is one group per
    positive-mass degree class; the row of a Z holds
    ``grouped_stats(dist, partition_equal_mass(dist, Z))``. Every partition
    is made here, before any fork, so one warning lists every Z whose
    groups had to be merged. A padded group has zero degree, edge-end
    weight, mass and state, so it adds nothing to Theta or to the
    aggregates. W is fixed by ``dist``, so the error of a Z does not depend
    on the other rows, on the blocking or on the process count.

    The requested Z are cut into P contiguous shares, P = min(usable CPUs,
    floor(rows * W / ``_SHARE_ENTRIES``)) and at least 1
    (:func:`_error_processes`). This process runs the first share and a
    forked child each other one (:func:`_share_out`); a share that cannot
    be run in a child is run here instead. Each share is integrated by
    :func:`_errors` with the reference as its first row, in blocks of at
    most ``_BLOCK_ENTRIES`` entries of state and stored aggregates, so
    memory does not grow with the number of rows.

    Returns one error per requested Z: the relative L2 error of the stacked
    aggregate trajectories (s, i, r) sampled on the grid,
    ``||grouped - full||_2 / ||full||_2``, combining all three states in
    one norm. A Z that reproduces the reference grouping gives exactly 0.

    Raises :class:`NumericalFailureError`, naming the first row concerned
    and the grid step, if a state leaves [0, 1] or turns NaN: such a
    trajectory is not the model's. The shares are checked in order, and a
    share that failed in its child is run again here to raise its error.
    ``grid`` must span ``params.duration`` (:func:`_check_model`).
    """
    _check_model(params, grid)
    group_counts = list(group_counts)  # read twice below
    reference = ("the reference model", _partition_equal_mass(dist, dist.n_classes))
    rows = list(zip((f"z={z}" for z in group_counts), _equal_mass_partitions(dist, group_counts)))
    n = _error_processes(len(rows), reference[1].n_groups)
    cuts = [len(rows) * p // n for p in range(n + 1)]
    shares = _share_out(lambda share: _errors(dist, [reference, *share], params, grid),
                        [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    return [error for share in shares for error in share]


def _error_processes(n_rows, width):
    """How many processes share :func:`grouping_error`'s ``n_rows`` rows of
    ``width`` groups: one per usable CPU, but only as many as get
    ``_SHARE_ENTRIES`` entries each."""
    return max(1, min(_cpus(), n_rows * width // _SHARE_ENTRIES))


def _errors(dist, rows, params, grid):
    """The :func:`grouping_error` errors of the ``(name, grouping)`` rows
    ``rows`` after the first, the reference, against the first.

    The rows run uncontrolled through :func:`_heun` in zero-padded blocks
    of at most ``_BLOCK_ENTRIES`` entries, each advanced in place. After
    each step the block's states are checked, as :func:`_checked_heun`
    checks a store: a state outside [0, 1] raises, naming its first row
    concerned and the step.
    """
    n, width = grid.n_points, rows[0][1].n_groups
    per_block = max(1, _BLOCK_ENTRIES // (width + 2 * n))
    full, errors = None, []
    for start in range(0, len(rows), per_block):
        names, block = zip(*rows[start:start + per_block])
        count = len(block)
        p, q = np.zeros((count, 1, width)), np.zeros((count, 1, width))
        k, x = np.zeros((count, width, 1)), np.zeros((1, 2, count, width, 1))
        s, i = x[0]  # views, advanced in place
        for row, grouping in enumerate(block):
            gd = grouped_stats(dist, grouping)
            z = gd.n_groups
            p[row, 0, :z], q[row, 0, :z], k[row, :z, 0] = gd.p_hat, gd.q_hat, gd.k_hat
            s[row, :z], i[row, :z] = 1.0 - params.i0, params.i0
        s_agg, i_agg = np.empty((count, n)), np.empty((count, n))
        s_agg[:, :1], i_agg[:, :1] = (p @ s)[:, 0], (p @ i)[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            steps = _heun(k, q, x, None, None, params.beta, params.gamma, grid)
            for step, _ in enumerate(steps, 1):
                if not (0 <= x.min() and x.max() <= 1):  # false for NaN too
                    inside = ((0 <= x[0]) & (x[0] <= 1)).all(axis=(0, 2, 3))
                    raise NumericalFailureError(
                        f"{names[np.argmin(inside)]} left [0, 1] at grid step {step}"
                    )
                s_agg[:, step:step + 1], i_agg[:, step:step + 1] = (p @ s)[:, 0], (p @ i)[:, 0]
        if full is None:
            full = s_agg[0], i_agg[0], 1.0 - s_agg[0] - i_agg[0]
            s_agg, i_agg = s_agg[1:], i_agg[1:]
        for s_row, i_row in zip(s_agg, i_agg):
            num, den = 0.0, 0.0
            for a, b in zip((s_row, i_row, 1.0 - s_row - i_row), full):
                num += np.sum((a - b) ** 2)
                den += np.sum(b**2)
            errors.append(float(np.sqrt(num / den)))
    return errors


def _cpus():
    """The CPUs this process may use, or 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no CPU affinity
        return os.cpu_count() or 1


def _share_out(solve, shares):
    """``[solve(share) for share in shares]``, the first share solved in this
    process while a forked child solves each other one.

    A child pickles its answer into a pipe, which this process reads to its
    end before it reaps the child. A share whose child cannot be forked,
    exits abnormally or sends a truncated answer is solved here instead. On
    an exception the children still running are killed; every child is
    reaped on every path.
    """
    children = []  # [share, pid, read end of its pipe]; pid None once reaped
    try:
        for share in shares[1:]:
            children.append([share, *_fork(solve, share)])
        answers = [solve(shares[0])]
        for child in children:
            share, pid, read = child
            answer = None
            if pid is not None:
                chunks = []
                while chunk := os.read(read, 1 << 16):
                    chunks.append(chunk)
                _, status = os.waitpid(pid, 0)
                child[1:] = None, None
                os.close(read)
                if os.waitstatus_to_exitcode(status) == 0:
                    try:
                        answer = pickle.loads(b"".join(chunks))
                    except (EOFError, pickle.UnpicklingError):
                        pass
            answers.append(solve(share) if answer is None else answer)
        return answers
    finally:
        for _, pid, read in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)


def _fork(solve, share):
    """Fork a child that pickles ``solve(share)`` into a pipe and exits; return
    its pid and the pipe's read end, or ``(None, None)`` if it cannot be forked.

    The child leaves through ``os._exit`` on every path, so it never returns
    into its caller, flushes the stdio buffers it inherited or runs exit
    handlers. It cannot outlive this process: on Linux it asks the kernel
    to SIGKILL it when this process dies, and it exits at once if that
    happened before the request. Forking a process that has threads is safe
    here: the only ones are OpenBLAS's pool, which OpenBLAS stops before a
    fork (pthread_atfork) and the child starts afresh if it needs it.
    Python 3.12 and later still warn (``DeprecationWarning``) when a process
    with threads forks.
    """
    parent = os.getpid()
    try:
        read, write = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None, None
    if pid == 0:
        code = 1
        try:
            _die_with_parent()
            if os.getppid() == parent:  # else the parent died before the request
                os.close(read)
                with os.fdopen(write, "wb") as pipe:
                    pickle.dump(solve(share), pipe)
                code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _die_with_parent():
    """Ask the kernel to SIGKILL this process when its parent dies:
    ``prctl(PR_SET_PDEATHSIG, SIGKILL)``, where the C library has it (Linux)."""
    try:
        import ctypes  # loaded in forked children only

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    except (ImportError, OSError, AttributeError):
        pass  # no prctl here


def cumulative_infected(traj: Trajectory) -> float:
    """Time integral of the aggregate infected fraction (trapezoidal rule)."""
    return float(traj.grid.quadrature_weights() @ traj.i)
