"""Tests for the Heun integrator and the epidemic simulations.

The fourth-order reference integrator lives in this file (reimplemented,
not imported) so integration accuracy is checked against an independent
route. Frozen constants come from that reference run at high resolution.
"""

import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt import dynamics
from epinetopt.control import CostParams, _cost_gradient, constant_strategy, zero_strategy
from epinetopt.dynamics import (
    ControlSchedule,
    EpidemicParams,
    TimeGrid,
    _integrate,
    _integrate_batch,
    _reverse,
    cumulative_infected,
    grouping_error,
    simulate_full,
    simulate_grouped,
)
from epinetopt.errors import NumericalFailureError, ParameterError
from epinetopt.grouping import (
    Grouping,
    amass_control_groups,
    grouped_stats,
    partition_equal_mass,
)
from epinetopt.network import DegreeDistribution, poisson_distribution, power_law_distribution
from reduced_model import reduced_aggregates

PL2 = power_law_distribution(2.0, 6, 105)
ER = poisson_distribution(17.5, 1, 45)
DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
GRID = TimeGrid(1001, 20.0)


def default_step(n_points):
    """The ``n_points`` grid with GRID's step, on which the sweeps here stay
    in [0, 1]; coarser steps make some of them leave it."""
    return TimeGrid(n_points, GRID.dt * (n_points - 1))


def single_class_gd():
    dist = DegreeDistribution(1, 1, np.array([1.0]))
    return grouped_stats(dist, Grouping(np.array([0, 1])))


def rk4_full_aggregates(dist, params, n_points):
    """Classical RK4 on the per-degree-class model; returns aggregate s, i."""
    ks = dist.degrees.astype(float)
    p = dist.pmf
    w = ks * p / dist.mean_degree  # fraction of edge ends at each degree
    beta, gamma = params.beta, params.gamma
    dt = params.duration / (n_points - 1)
    s = np.full_like(ks, 1.0 - params.i0)
    i = np.full_like(ks, params.i0)
    s_agg = np.empty(n_points)
    i_agg = np.empty(n_points)
    s_agg[0], i_agg[0] = p @ s, p @ i

    def f(s, i):
        infect = beta * ks * s * (w @ i)
        return -infect, infect - gamma * i

    for n in range(n_points - 1):
        k1s, k1i = f(s, i)
        k2s, k2i = f(s + dt / 2 * k1s, i + dt / 2 * k1i)
        k3s, k3i = f(s + dt / 2 * k2s, i + dt / 2 * k2i)
        k4s, k4i = f(s + dt * k3s, i + dt * k3i)
        s = s + dt / 6 * (k1s + 2 * k2s + 2 * k3s + k4s)
        i = i + dt / 6 * (k1i + 2 * k2i + 2 * k3i + k4i)
        s_agg[n + 1], i_agg[n + 1] = p @ s, p @ i
    return s_agg, i_agg


class TestValidation:
    def test_params(self):
        with pytest.raises(ParameterError):
            EpidemicParams(-0.1, 0.25, 0.01, 20.0)
        with pytest.raises(ParameterError):
            EpidemicParams(0.5, -1.0, 0.01, 20.0)
        with pytest.raises(ParameterError):
            EpidemicParams(0.5, 0.25, 1.0, 20.0)
        with pytest.raises(ParameterError):
            EpidemicParams(0.5, 0.25, 0.01, 0.0)

    @pytest.mark.parametrize("field", ["beta", "gamma"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rate_is_named_as_such(self, field, value):
        with pytest.raises(ParameterError) as info:
            replace(DEFAULTS, **{field: value})
        assert info.value.field == field
        assert str(info.value) == f"{field} must be finite and >= 0, got {value}"

    @pytest.mark.parametrize("build", [
        lambda duration: replace(DEFAULTS, duration=duration),
        lambda duration: TimeGrid(101, duration),
    ], ids=["params", "grid"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_duration_is_named_as_such(self, build, value):
        with pytest.raises(ParameterError) as info:
            build(value)
        assert info.value.field == "duration"
        assert str(info.value) == f"duration must be finite and positive, got {value}"

    def test_grid(self):
        with pytest.raises(ParameterError):
            TimeGrid(1, 20.0)
        with pytest.raises(ParameterError) as info:
            TimeGrid(100, -1.0)
        assert info.value.field == "duration"
        with pytest.raises(ParameterError) as info:
            TimeGrid(2.5, 1.0)  # not a point count
        assert info.value.field == "points"
        assert TimeGrid(np.int64(11), 1.0).t.shape == (11,)

    def test_grid_layout(self):
        g = TimeGrid(5, 2.0)
        npt.assert_allclose(g.dt, 0.5)
        npt.assert_allclose(g.t, [0, 0.5, 1.0, 1.5, 2.0])

    def test_quadrature_weights(self):
        g = TimeGrid(5, 2.0)
        w = g.quadrature_weights()
        npt.assert_allclose(w, [0.25, 0.5, 0.5, 0.5, 0.25])
        npt.assert_allclose(w.sum(), g.duration)


def one_step(params, dt, u=0.0, v=0.0):
    """One Heun step of the single-class model: simulate over TimeGrid(2, dt)."""
    gd, grid = single_class_gd(), TimeGrid(2, dt)
    rates = ControlSchedule(np.full((1, 2), u), np.full((1, 2), v), grid)
    return simulate_grouped(gd, amass_control_groups(gd, 1), rates, params, grid)


class TestHeunStep:
    def test_zero_rhs_is_fixed_point(self):
        traj = one_step(EpidemicParams(0.0, 0.0, 0.2, 0.1), 0.1)
        npt.assert_array_equal(traj.s_hat[:, -1], [0.8])
        npt.assert_array_equal(traj.i_hat[:, -1], [0.2])

    def test_scalar_exponential_decay_hand_value(self):
        # with beta=0, gamma=1 the infected fraction follows y' = -y;
        # one Heun step with dt=0.1 multiplies it by 1 - 0.1 + 0.005 = 0.905
        traj = one_step(EpidemicParams(0.0, 1.0, 0.5, 0.1), 0.1)
        npt.assert_allclose(traj.i_hat[0, -1], 0.5 * 0.905, atol=1e-15)
        npt.assert_allclose(traj.s_hat[0, -1], 0.5, atol=1e-15)

    def test_local_error_third_order(self):
        # single-step error on y' = -y shrinks ~8x when dt halves
        errs = []
        for dt in (0.1, 0.05):
            traj = one_step(EpidemicParams(0.0, 1.0, 0.5, dt), dt)
            errs.append(abs(traj.i_hat[0, -1] - 0.5 * np.exp(-dt)))
        assert 7.5 < errs[0] / errs[1] < 8.5

    def test_vaccination_control_direction(self):
        # u moves susceptibles out; with beta=gamma=0 only the control acts
        traj = one_step(EpidemicParams(0.0, 0.0, 0.0, 0.1), 0.1, u=0.5)
        # ds = -u s: exact Heun value for linear decay at rate 0.5
        npt.assert_allclose(traj.s_hat[0, -1], 1 - 0.05 + 0.00125, atol=1e-15)
        npt.assert_array_equal(traj.i_hat[0, -1], 0.0)

    def test_mismatched_control_endpoints_rejected(self):
        # rates sampled at three nodes, where the one-step grid has two
        gd = single_class_gd()
        rates = ControlSchedule(np.zeros((1, 3)), np.zeros((1, 3)), TimeGrid(3, 0.1))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, amass_control_groups(gd, 1), rates,
                             EpidemicParams(0.0, 0.0, 0.1, 0.1), TimeGrid(2, 0.1))

    def test_controls_without_control_groups_rejected(self):
        gd = single_class_gd()
        rates = ControlSchedule(np.zeros((1, 2)), np.zeros((1, 2)), TimeGrid(2, 0.1))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, None, rates, EpidemicParams(0.0, 0.0, 0.1, 0.1), TimeGrid(2, 0.1))


class TestConvergenceOrder:
    def test_global_second_order_on_linear_decay(self):
        # i(t) = 0.5 e^{-t}: halving the step quarters the endpoint error
        gd = single_class_gd()
        params = EpidemicParams(0.0, 1.0, 0.5, 1.0)
        errs = []
        for n in (101, 201):
            traj = simulate_grouped(gd, None, None, params, TimeGrid(n, 1.0))
            errs.append(abs(traj.i_hat[0, -1] - 0.5 * np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 3.9 < ratio < 4.1


class TestSimulateFull:
    def test_beta_zero_decay_is_analytic(self):
        params = EpidemicParams(0.0, 0.25, 0.05, 20.0)
        traj = simulate_full(PL2, params, GRID)
        expected = np.broadcast_to(0.05 * np.exp(-0.25 * GRID.t), traj.i_hat.shape)
        npt.assert_allclose(traj.i_hat, expected, atol=1e-6)
        npt.assert_allclose(traj.s_hat, 0.95, atol=1e-12)

    def test_no_seed_no_epidemic(self):
        params = EpidemicParams(0.5, 0.25, 0.0, 20.0)
        traj = simulate_full(PL2, params, GRID)
        npt.assert_array_equal(traj.i, 0.0)
        npt.assert_allclose(traj.s, 1.0, atol=1e-15)
        npt.assert_allclose(traj.r, 0.0, atol=1e-15)

    def test_matches_fourth_order_reference(self):
        # fine shared grid: Heun's O(dt^2) error drops below 1e-6
        n = 100001
        s_ref, i_ref = rk4_full_aggregates(PL2, DEFAULTS, n)
        traj = simulate_full(PL2, DEFAULTS, TimeGrid(n, DEFAULTS.duration))
        assert np.abs(traj.s - s_ref).max() < 1e-6
        assert np.abs(traj.i - i_ref).max() < 1e-6

    def test_peak_against_high_resolution_reference(self):
        # frozen from RK4 at N=200001 with parabolic peak interpolation
        def parabolic_peak(t, y):
            k = int(np.argmax(y))
            c = np.polyfit(t[k - 1 : k + 2], y[k - 1 : k + 2], 2)
            tp = -c[1] / (2 * c[0])
            return tp, np.polyval(c, tp)

        traj = simulate_full(PL2, DEFAULTS, TimeGrid(20001, 20.0))
        tp, ip = parabolic_peak(traj.grid.t, traj.i)
        npt.assert_allclose(tp, 0.99653561, atol=1e-4)
        npt.assert_allclose(ip, 0.810098565, atol=1e-4)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_defaults_stay_in_range(self, dist):
        traj = simulate_full(dist, DEFAULTS, GRID)
        assert traj.s.min() >= 0 and traj.i.min() >= 0 and traj.r.min() >= -1e-12


KEPT = np.arange(PL2.n_classes) % 3 != 1  # PL2 with every third class emptied
ZERO_MASS = DegreeDistribution(6, 105, np.where(KEPT, PL2.pmf, 0.0) / PL2.pmf[KEPT].sum())


class TestReducedModelOracle:
    """Heun against RK4 on the exact (3M + 1)-equation reduction (tests/reduced_model.py).

    Measured at N = 1001: the full model is off by 1.0-1.3e-5 relative in
    cumulative infected and by at most 5.3e-3 in any aggregate; Z = 21 under
    the smooth schedule below by 5.0-8.3e-4 and 4.4e-3, uncontrolled
    (criterion 1's setting) by 1.0-1.3e-5 and 5.3e-3, and under the constant
    beta/2, gamma/2 schedule (criterion 2's) by 4.1-6.6e-4 and 4.5e-3. The
    errors shrink 14-26x at N = 4001 (second order), and RK4's own error is
    below 3e-5. The bounds are about twice the largest measured errors.
    """

    @staticmethod
    def assert_close(traj, ref, ci_rtol, atol):
        ci = GRID.quadrature_weights() @ ref[1]
        assert abs(cumulative_infected(traj) - ci) < ci_rtol * ci
        assert max(np.abs(a - b).max() for a, b in zip((traj.s, traj.i, traj.r), ref)) < atol

    @pytest.mark.parametrize("dist", [PL2, ER, ZERO_MASS], ids=["pl2", "er", "zero-mass"])
    def test_full_model(self, dist):
        uncontrolled = lambda t: np.zeros(1)
        ref = reduced_aggregates(
            dist.pmf, dist.degrees * dist.pmf / dist.mean_degree, dist.degrees.astype(float),
            np.zeros(dist.n_classes, dtype=int), uncontrolled, uncontrolled, DEFAULTS, GRID,
        )
        self.assert_close(simulate_full(dist, DEFAULTS, GRID), ref, 2.6e-5, 1.1e-2)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_grouped_under_smooth_controls(self, dist):
        gd = grouped_stats(dist, partition_equal_mass(dist, 21))
        cg = amass_control_groups(gd, 3)
        phase = np.array([0.1, 0.4, 0.7])
        u = lambda t: 0.3 + 0.2 * np.sin(2 * np.pi * (t / 20.0 + phase))
        v = lambda t: 0.3 + 0.2 * np.cos(2 * np.pi * (t / 20.0 + phase))
        smooth = ControlSchedule(np.stack([u(t) for t in GRID.t], 1),
                                 np.stack([v(t) for t in GRID.t], 1), GRID)
        off = lambda t: np.zeros(3)
        constant = constant_strategy(DEFAULTS, GRID, 3)
        for sched, block_u, block_v in [
            (smooth, u, v),
            (None, off, off),  # criterion 1
            (constant, lambda t: constant.u[:, 0], lambda t: constant.v[:, 0]),  # criterion 2
        ]:
            ref = reduced_aggregates(gd.p_hat, gd.q_hat, gd.k_hat, cg.assignment,
                                     block_u, block_v, DEFAULTS, GRID)
            self.assert_close(simulate_grouped(gd, cg, sched, DEFAULTS, GRID), ref, 1.7e-3, 9e-3)


class TestSimulateGrouped:
    def test_zero_schedule_equals_uncontrolled(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        sched = ControlSchedule(np.zeros((3, GRID.n_points)), np.zeros((3, GRID.n_points)), GRID)
        a = simulate_grouped(gd, cg, sched, DEFAULTS, GRID)
        b = simulate_grouped(gd, None, None, DEFAULTS, GRID)
        npt.assert_array_equal(a.i_hat, b.i_hat)
        npt.assert_array_equal(a.s_hat, b.s_hat)

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["pl2", "er"])
    def test_identity_grouping_matches_full_model(self, dist):
        gd = grouped_stats(dist, partition_equal_mass(dist, dist.n_classes))
        grouped = simulate_grouped(gd, None, None, DEFAULTS, GRID)
        full = simulate_full(dist, DEFAULTS, GRID)
        npt.assert_allclose(grouped.s, full.s, atol=1e-12)
        npt.assert_allclose(grouped.i, full.i, atol=1e-12)
        npt.assert_allclose(grouped.r, full.r, atol=1e-12)

    def test_pl2_cumulative_infected_frozen(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        ci = cumulative_infected(simulate_grouped(gd, None, None, DEFAULTS, GRID))
        npt.assert_allclose(ci, 3.969411581942102, rtol=1e-9)

    def test_er_cumulative_infected_frozen(self):
        gd = grouped_stats(ER, partition_equal_mass(ER, 21))
        ci = cumulative_infected(simulate_grouped(gd, None, None, DEFAULTS, GRID))
        npt.assert_allclose(ci, 3.969105724186953, rtol=1e-9)

    def test_grid_independence_at_default_resolution(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        ci1 = cumulative_infected(simulate_grouped(gd, None, None, DEFAULTS, TimeGrid(1001, 20.0)))
        ci2 = cumulative_infected(simulate_grouped(gd, None, None, DEFAULTS, TimeGrid(2001, 20.0)))
        assert abs(ci2 - ci1) < 1e-4

    def test_controls_suppress_the_epidemic(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        n = GRID.n_points
        sched = ControlSchedule(np.full((3, n), 0.25), np.full((3, n), 0.125), GRID)
        controlled = cumulative_infected(simulate_grouped(gd, cg, sched, DEFAULTS, GRID))
        free = cumulative_infected(simulate_grouped(gd, None, None, DEFAULTS, GRID))
        assert controlled < free

    def test_uncontrolled_monotonicity(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        traj = simulate_grouped(gd, None, None, DEFAULTS, GRID)
        assert np.all(np.diff(traj.s_hat, axis=1) <= 1e-15)
        assert np.all(np.diff(traj.r_hat, axis=1) >= -1e-15)

    def test_conservation_per_group(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        n = GRID.n_points
        sched = ControlSchedule(np.full((3, n), 0.3), np.full((3, n), 0.2), GRID)
        traj = simulate_grouped(gd, cg, sched, DEFAULTS, GRID)
        npt.assert_allclose(traj.s_hat + traj.i_hat + traj.r_hat, 1.0, atol=1e-9)

    def test_non_finite_state_names_its_grid_step(self):
        # a nan rate at node 40 reaches the state in the step that ends there
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        u_z = np.zeros((21, GRID.n_points))
        u_z[4, 40] = np.nan
        with pytest.raises(NumericalFailureError, match=r"^state left \[0, 1\] at grid step 40$"):
            _integrate(gd, DEFAULTS, GRID, u_z, np.zeros_like(u_z))

    def test_schedule_validation(self):
        # a schedule's own shape and signs are ControlSchedule's to check
        # (test_control.py); here only how it relates to the other arguments
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        n = GRID.n_points
        bad_m = ControlSchedule(np.zeros((2, n)), np.zeros((2, n)), GRID)
        with pytest.raises(ParameterError):
            simulate_grouped(gd, cg, bad_m, DEFAULTS, GRID)
        bad_n = zero_strategy(TimeGrid(n - 1, GRID.duration), 3)
        with pytest.raises(ParameterError):
            simulate_grouped(gd, cg, bad_n, DEFAULTS, GRID)
        bare = SimpleNamespace(u=np.zeros((3, n)), v=np.zeros((3, n)))
        with pytest.raises(ParameterError, match="must be a ControlSchedule"):
            simulate_grouped(gd, cg, bare, DEFAULTS, GRID)
        ok = zero_strategy(GRID, 3)
        with pytest.raises(ParameterError):
            simulate_grouped(gd, None, ok, DEFAULTS, GRID)
        other = amass_control_groups(grouped_stats(PL2, partition_equal_mass(PL2, 10)), 3)
        with pytest.raises(ParameterError, match="cover 10 groups, distribution has 21"):
            simulate_grouped(gd, other, ok, DEFAULTS, GRID)
        # as many samples as the grid, but spread over 5 days instead of 20
        five_days = constant_strategy(DEFAULTS, TimeGrid(n, 5.0), 3)
        with pytest.raises(ParameterError, match="schedule spans 5.0 time units"):
            simulate_grouped(gd, cg, five_days, DEFAULTS, GRID)
        # schedule and grid agree, but stop at 10 days of the 20-day epidemic
        short = TimeGrid(n, 10.0)
        for schedule in (None, zero_strategy(short, 3)):
            with pytest.raises(ParameterError, match="epidemic duration 20.0 does not match "
                                                     "grid duration 10.0"):
                simulate_grouped(gd, cg, schedule, DEFAULTS, short)


class TestAggregate:
    def test_single_group_passthrough(self):
        gd, grid = grouped_stats(PL2, Grouping(np.array([0, PL2.n_classes]))), default_step(51)
        traj = simulate_grouped(gd, None, None, replace(DEFAULTS, duration=grid.duration), grid)
        npt.assert_allclose(traj.s, traj.s_hat[0], rtol=1e-12)
        npt.assert_allclose(traj.i, traj.i_hat[0], rtol=1e-12)
        npt.assert_allclose(traj.r, 1.0 - traj.s - traj.i)

    def test_uniform_states_average_to_common_value(self):
        # every group starts at (1 - i0, i0), so the aggregates start there too
        gd, grid = grouped_stats(PL2, partition_equal_mass(PL2, 21)), default_step(51)
        traj = simulate_grouped(gd, None, None, replace(DEFAULTS, duration=grid.duration), grid)
        npt.assert_allclose(traj.s[0], 0.99, atol=1e-12)
        npt.assert_allclose(traj.i[0], 0.01, atol=1e-12)
        npt.assert_allclose(traj.r[0], 0.0, atol=1e-12)
        npt.assert_allclose(traj.i, gd.p_hat @ traj.i_hat, rtol=1e-14)


class TestQuadratureAndExport:
    def test_cumulative_infected_constant_trajectory(self):
        gd = single_class_gd()
        # gamma=0, beta=0, i stays at i0: integral is i0 * T exactly
        params = EpidemicParams(0.0, 0.0, 0.25, 8.0)
        traj = simulate_grouped(gd, None, None, params, TimeGrid(17, 8.0))
        npt.assert_allclose(cumulative_infected(traj), 0.25 * 8.0, rtol=1e-14)


def stepwise_integrate(gd, params, grid, u_z, v_z):
    """Reference forward sweep: the Heun loop one step at a time.

    Each step makes fresh state vectors and copies the state into (Z, N)
    arrays; nothing is clipped or checked. Returns ``(s, i)``.
    """
    n, dt = grid.n_points, grid.dt
    k_hat, q_hat, beta, gamma = gd.k_hat, gd.q_hat, params.beta, params.gamma
    s, i = np.empty((gd.n_groups, n)), np.empty((gd.n_groups, n))
    s[:, 0], i[:, 0] = 1.0 - params.i0, params.i0
    sn, inn = s[:, 0].copy(), i[:, 0].copy()

    def rhs(s, i, u, v):
        infect = (beta * (q_hat @ i)) * (k_hat * s)
        return -infect - u * s, infect - gamma * i - v * i

    for step in range(n - 1):
        ds0, di0 = rhs(sn, inn, u_z[:, step], v_z[:, step])
        ds1, di1 = rhs(sn + dt * ds0, inn + dt * di0, u_z[:, step + 1], v_z[:, step + 1])
        sn = sn + 0.5 * dt * (ds0 + ds1)
        inn = inn + 0.5 * dt * (di0 + di1)
        s[:, step + 1], i[:, step + 1] = sn, inn
    return s, i


def first_step_outside(s, i):
    """The first grid step of the (..., N) states ``s``, ``i`` at which one
    lies outside [0, 1] or is NaN, or None."""
    inside = [((0 <= x) & (x <= 1)).reshape(-1, x.shape[-1]).all(axis=0) for x in (s, i)]
    inside = inside[0] & inside[1]
    return None if inside.all() else int(np.argmin(inside))


def stepwise_reverse(gd, params, grid, s, i, u_z, v_z, node_s, node_i):
    """Reference reverse (discrete-adjoint) sweep, one step at a time.

    Every coefficient is recomputed inside the loop, and each step adds its
    two stages' terms to the control gradient as it goes.
    """
    beta, gamma = params.beta, params.gamma
    k_hat, q_hat = gd.k_hat, gd.q_hat
    n, dt = grid.n_points, grid.dt
    bk = beta * k_hat
    theta = q_hat @ i
    infect = bk[:, None] * s * theta[None, :]
    sp = s + dt * (-infect - u_z * s)
    ip = i + dt * (infect - gamma * i - v_z * i)
    theta_p = q_hat @ ip
    g_u, g_v = np.zeros_like(u_z), np.zeros_like(v_z)
    lam_s = np.zeros(gd.n_groups) if node_s is None else node_s[:, -1].copy()
    lam_i = node_i[:, -1].copy()
    for step in range(n - 2, -1, -1):
        u0, v0 = u_z[:, step], v_z[:, step]
        u1, v1 = u_z[:, step + 1], v_z[:, step + 1]
        sp_n, ip_n = sp[:, step], ip[:, step]
        s_n, i_n = s[:, step], i[:, step]
        bkt = bk * theta_p[step]
        h1_s = (-bkt - u1) * lam_s + bkt * lam_i
        h1_i = beta * q_hat * np.dot(k_hat * sp_n, lam_i - lam_s) - (gamma + v1) * lam_i
        g_u[:, step + 1] += (-0.5 * dt) * sp_n * lam_s
        g_v[:, step + 1] += (-0.5 * dt) * ip_n * lam_i
        mu_s = lam_s + dt * h1_s
        mu_i = lam_i + dt * h1_i
        g_u[:, step] += (-0.5 * dt) * s_n * mu_s
        g_v[:, step] += (-0.5 * dt) * i_n * mu_i
        bkt = bk * theta[step]
        h0_s = (-bkt - u0) * mu_s + bkt * mu_i
        h0_i = beta * q_hat * np.dot(k_hat * s_n, mu_i - mu_s) - (gamma + v0) * mu_i
        lam_s = lam_s + 0.5 * dt * (h1_s + h0_s)
        lam_i = lam_i + 0.5 * dt * (h1_i + h0_i) + node_i[:, step]
        if node_s is not None:
            lam_s += node_s[:, step]
    return g_u, g_v


CHUNK = dynamics._REVERSE_CHUNK
COSTS = {"rate": CostParams(0.25, 0.5), "dose": CostParams(0.25, 0.5, "dose", rate_max=1.0)}


def swept_problem(functional, n_points):
    """Grouped PL2 (Z = 21, M = 3) under the cost of ``functional``, on
    :func:`default_step`'s grid.

    ``"dose"`` uses the excess-degree pressure, and its objective has a
    susceptible node term. Returns ``(gd, cg, grid)``.
    """
    excess = functional == "dose"
    gd = grouped_stats(PL2, partition_equal_mass(PL2, 21), excess_degree=excess)
    return gd, amass_control_groups(gd, 3), default_step(n_points)


def swept_schedule(grid, seed):
    """A smooth random (3, N) schedule ``(u, v)``."""
    rng = np.random.default_rng(seed)
    t = grid.t / grid.duration
    u = 0.3 + 0.2 * np.sin(2 * np.pi * (t + rng.random((3, 1))))
    v = 0.3 + 0.2 * np.cos(2 * np.pi * (t + rng.random((3, 1))))
    return u, v


def node_terms(functional, cg, u, v, traj):
    node_s, node_i, _, _ = _cost_gradient(COSTS[functional], cg, u, v, traj)
    assert (node_s is None) == (functional == "rate")
    return node_s, node_i


class TestSweepsMatchStepwiseLoops:
    @pytest.mark.parametrize("functional", ["rate", "dose"])
    @pytest.mark.parametrize("n", [2, 3, CHUNK, CHUNK + 1, CHUNK + 2, 126, 201, 1001])
    def test_bitwise_equal(self, functional, n):
        gd, cg, grid = swept_problem(functional, n)
        u, v = swept_schedule(grid, n)
        u_z, v_z = u[cg.assignment], v[cg.assignment]
        traj = _integrate(gd, DEFAULTS, grid, u_z, v_z)
        node_s, node_i = node_terms(functional, cg, u, v, traj)
        s, i = stepwise_integrate(gd, DEFAULTS, grid, u_z, v_z)
        assert np.array_equal(traj.s_hat, s) and np.array_equal(traj.i_hat, i)
        g_u, g_v = _reverse(gd, cg.assignment, DEFAULTS, grid, s, i, u, v, node_s, node_i)
        ref_u, ref_v = stepwise_reverse(gd, DEFAULTS, grid, s, i, u_z, v_z, node_s, node_i)
        assert np.array_equal(g_u, ref_u) and np.array_equal(g_v, ref_v)

    @pytest.mark.parametrize("functional", ["rate", "dose"])
    @pytest.mark.parametrize("n", [2, 3, CHUNK, CHUNK + 1, CHUNK + 2, 126, 201, 1001])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_batch_rows_equal_stepwise(self, functional, n, rows):
        # rows of different schedules and spreading rates, swept together
        gd, cg, grid = swept_problem(functional, n)
        betas = [0.5, 0.8, 0.35][:rows]
        schedules = [swept_schedule(grid, n + row) for row in range(rows)]
        us, vs = zip(*schedules)
        params = [replace(DEFAULTS, beta=beta) for beta in betas]
        trajs = _integrate_batch(gd, cg.assignment, params, grid, us, vs)
        u_z, v_z = (np.stack(c)[:, cg.assignment] for c in (us, vs))
        terms = [node_terms(functional, cg, u, v, t) for (u, v), t in zip(schedules, trajs)]
        node_s, node_i = ([t[k] for t in terms] for k in (0, 1))
        g_u, g_v = _reverse(
            gd, cg.assignment, params, grid,
            [t.s_hat for t in trajs], [t.i_hat for t in trajs], us, vs,
            None if functional == "rate" else node_s, node_i,
        )
        for row, params_b in enumerate(params):
            s, i = stepwise_integrate(gd, params_b, grid, u_z[row], v_z[row])
            traj = trajs[row]
            assert np.array_equal(traj.s_hat, s) and np.array_equal(traj.i_hat, i)
            alone = _integrate(gd, params_b, grid, u_z[row], v_z[row])
            assert all(np.array_equal(getattr(traj, f.name), getattr(alone, f.name))
                       for f in fields(traj))
            ref_u, ref_v = stepwise_reverse(
                gd, params_b, grid, s, i, u_z[row], v_z[row], node_s[row], node_i[row]
            )
            assert np.array_equal(g_u[row], ref_u) and np.array_equal(g_v[row], ref_v)

    @pytest.mark.parametrize("functional", ["rate", "dose"])
    @pytest.mark.parametrize("chunk", [1, 7, 1001])
    @pytest.mark.parametrize("n", [2, 3, CHUNK + 1, 201])
    def test_chunk_length_leaves_gradient_unchanged(self, functional, chunk, n, monkeypatch):
        gd, cg, grid = swept_problem(functional, n)
        u, v = swept_schedule(grid, n)
        traj = _integrate(gd, DEFAULTS, grid, u[cg.assignment], v[cg.assignment])
        args = (gd, cg.assignment, DEFAULTS, grid, traj.s_hat, traj.i_hat,
                u, v, *node_terms(functional, cg, u, v, traj))
        want = _reverse(*args)
        monkeypatch.setattr(dynamics, "_REVERSE_CHUNK", chunk)
        got = _reverse(*args)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestViewsShareOneStep:
    """A one-row batch and a single system take the same Heun steps."""

    @pytest.mark.parametrize("dist", [PL2, ER], ids=["PL2", "ER"])
    @pytest.mark.parametrize("z", [7, 21, "all"])
    @pytest.mark.parametrize("n", [126, 1001])
    def test_unpadded_row_matches_integrate(self, dist, z, n):
        if z == "all":  # one group per degree class
            grouping = Grouping(np.arange(dist.n_classes + 1))
        else:
            grouping = partition_equal_mass(dist, z)
        gd = grouped_stats(dist, grouping)
        grid = default_step(n)
        traj = _integrate(gd, DEFAULTS, grid)
        x = np.empty((1, 2, 1, gd.n_groups, 1))  # a one-entry store of one row
        x[0, 0], x[0, 1] = 1.0 - DEFAULTS.i0, DEFAULTS.i0
        zeros = [0.0] * n
        k, q = gd.k_hat[None, :, None], gd.q_hat[None, None, :]
        for _ in dynamics._heun(k, q, x, zeros, zeros, DEFAULTS.beta, DEFAULTS.gamma, grid):
            pass
        assert np.array_equal(x[0, 0, 0, :, 0], traj.s_hat[:, -1])
        assert np.array_equal(x[0, 1, 0, :, 0], traj.i_hat[:, -1])


def unchecked_pass(gd, params, grid, u_z=None, v_z=None):
    """Run one system through ``dynamics._heun`` with no check; returns the (N, 2, Z) store."""
    x = np.empty((grid.n_points, 2, gd.n_groups))
    x[0, 0], x[0, 1] = 1.0 - params.i0, params.i0
    u, v = (None, None) if u_z is None else (u_z.T, v_z.T)
    for _ in dynamics._heun(gd.k_hat, gd.q_hat, x, u, v, params.beta, params.gamma, grid):
        pass
    return x


def stepwise_first_step_outside(gd, params, grid, u_z, v_z):
    """The first grid step at which :func:`stepwise_integrate`'s state leaves
    [0, 1], its overflow ignored."""
    with np.errstate(all="ignore"):
        return first_step_outside(*stepwise_integrate(gd, params, grid, u_z, v_z))


class TestUncheckedPass:
    """The forward sweeps run Heun once, unchecked, and then check the
    finished store: a clean sweep keeps the bits of the unchecked pass, and
    a sweep that left [0, 1] raises, naming the first grid step concerned."""

    def test_clean_sweeps_keep_the_unchecked_bits(self):
        gd, cg, grid = swept_problem("rate", 1001)
        schedules = [swept_schedule(grid, 1001 + row) for row in range(2)]
        us, vs = zip(*schedules)
        u_z, v_z = (np.stack(c)[:, cg.assignment] for c in (us, vs))
        params = [replace(DEFAULTS, beta=beta) for beta in (0.5, 0.8)]
        sweeps = [
            (_integrate(gd, DEFAULTS, grid), unchecked_pass(gd, DEFAULTS, grid)),
            (_integrate(gd, DEFAULTS, grid, u_z[0], v_z[0]),
             unchecked_pass(gd, DEFAULTS, grid, u_z[0], v_z[0])),
            *((traj, unchecked_pass(gd, params[row], grid, u_z[row], v_z[row]))
              for row, traj in enumerate(_integrate_batch(gd, cg.assignment, params, grid, us, vs))),
        ]
        for traj, x in sweeps:
            assert np.array_equal(traj.s_hat, x[:, 0].T) and np.array_equal(traj.i_hat, x[:, 1].T)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_sweep_leaving_the_range_names_its_step(self, rows):
        # the 126-point grid over the full horizon, alone and as a batch
        n = 126
        gd, cg, _ = swept_problem("rate", n)
        grid = TimeGrid(n, 20.0)
        schedules = [swept_schedule(grid, n + row) for row in range(rows)]
        params = [replace(DEFAULTS, beta=beta) for beta in (0.5, 0.8)[:rows]]
        u_z, v_z = (np.stack(c)[:, cg.assignment] for c in zip(*schedules))
        want = min(stepwise_first_step_outside(gd, params[row], grid, u_z[row], v_z[row])
                   for row in range(rows))
        with pytest.raises(NumericalFailureError, match=rf"^state left \[0, 1\] at grid step {want}$"):
            if rows == 1:
                _integrate(gd, DEFAULTS, grid, u_z[0], v_z[0])
            else:
                _integrate_batch(gd, cg.assignment, params, grid, *zip(*schedules))

    def test_error_raised_under_callers_errstate_propagates(self):
        # bench/experiment.ini's problem at N = 126: the constant and the
        # uncontrolled strategy leave [0, 1], and under np.errstate(all="raise")
        # the pass of each raises FloatingPointError, which reaches the caller
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg, grid = amass_control_groups(gd, 3), TimeGrid(126, 20.0)
        for schedule in (constant_strategy(DEFAULTS, grid, 3), zero_strategy(grid, 3)):
            with np.errstate(all="raise"):
                with pytest.raises(FloatingPointError, match="overflow"):
                    simulate_grouped(gd, cg, schedule, DEFAULTS, grid)
            u_z, v_z = schedule.u[cg.assignment], schedule.v[cg.assignment]
            want = stepwise_first_step_outside(gd, DEFAULTS, grid, u_z, v_z)
            with pytest.raises(NumericalFailureError, match=rf"at grid step {want}$"):
                simulate_grouped(gd, cg, schedule, DEFAULTS, grid)

    @pytest.mark.parametrize("n", [126, 201])
    def test_overflow_warning_is_ignored(self, n):
        # the full PL2 model's pass overflows on these grids; simulate_full
        # raises NumericalFailureError for the state, not for the warning
        gd, grid = grouped_stats(PL2, partition_equal_mass(PL2, PL2.n_classes)), TimeGrid(n, 20.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not np.isfinite(unchecked_pass(gd, DEFAULTS, grid)).all()
        assert any("overflow" in str(w.message) for w in caught)
        zeros = np.zeros((gd.n_groups, n))
        want = stepwise_first_step_outside(gd, DEFAULTS, grid, zeros, zeros)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailureError,
                               match=rf"^state left \[0, 1\] at grid step {want}$"):
                simulate_full(PL2, DEFAULTS, grid)
        assert caught == []

    @pytest.mark.parametrize("case", ["constant", "none", "grouping_error"])
    def test_overflow_warning_is_ignored_by_every_entry_point(self, case):
        # bench/experiment.ini's problem at N = 126: the range check, not a
        # floating-point guard, fails each of these sweeps, and no warning escapes
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg, grid = amass_control_groups(gd, 3), TimeGrid(126, 20.0)
        runs = {
            "constant": (lambda: simulate_grouped(gd, cg, constant_strategy(DEFAULTS, grid, 3),
                                                  DEFAULTS, grid),
                         r"^state left \[0, 1\] at grid step 4$"),
            "none": (lambda: simulate_grouped(gd, cg, None, DEFAULTS, grid),
                     r"^state left \[0, 1\] at grid step 4$"),
            "grouping_error": (lambda: grouping_error(PL2, [21, 40], DEFAULTS, grid),
                               r"^the reference model left \[0, 1\] at grid step 3$"),
        }
        run, message = runs[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailureError, match=message):
                run()
        assert caught == []
