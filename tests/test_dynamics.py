"""Tests for the Heun integrator and the epidemic simulations.

The fourth-order reference integrator lives in this file (reimplemented,
not imported) so integration accuracy is checked against an independent
route. Frozen constants come from that reference run at high resolution.
"""

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt.dynamics import (
    EpidemicParams,
    TimeGrid,
    cumulative_infected,
    simulate_full,
    simulate_grouped,
)
from epinetopt.errors import ParameterError
from epinetopt.grouping import (
    Grouping,
    amass_control_groups,
    grouped_stats,
    partition_equal_mass,
)
from epinetopt.network import DegreeDistribution, poisson_distribution, power_law_distribution

PL2 = power_law_distribution(2.0, 6, 105)
ER = poisson_distribution(17.5, 1, 45)
DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
GRID = TimeGrid(1001, 20.0)


def single_class_gd():
    dist = DegreeDistribution(1, 1, np.array([1.0]))
    return grouped_stats(dist, Grouping(np.array([0, 1])))


def rk4_full_aggregates(dist, params, n_points):
    """Classical RK4 on the per-degree-class model; returns aggregate s, i."""
    ks = dist.degrees.astype(float)
    p = dist.pmf
    w = dist.edge_end_weights()
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

    def test_grid(self):
        with pytest.raises(ParameterError):
            TimeGrid(1, 20.0)
        with pytest.raises(ParameterError):
            TimeGrid(100, -1.0)

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
    gd = single_class_gd()
    rates = SimpleNamespace(u=np.full((1, 2), u), v=np.full((1, 2), v))
    return simulate_grouped(gd, amass_control_groups(gd, 1), rates, params, TimeGrid(2, dt))


class TestHeunStep:
    def test_zero_rhs_is_fixed_point(self):
        traj = one_step(EpidemicParams(0.0, 0.0, 0.2, 0.1), 0.1)
        npt.assert_array_equal(traj.s_hat[:, -1], [0.8])
        npt.assert_array_equal(traj.i_hat[:, -1], [0.2])
        assert traj.clamp_events == 0

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
        # rates at the step's start only: the schedule misses the end node
        gd = single_class_gd()
        rates = SimpleNamespace(u=np.zeros((1, 1)), v=np.zeros((1, 1)))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, amass_control_groups(gd, 1), rates,
                             EpidemicParams(0.0, 0.0, 0.1, 0.1), TimeGrid(2, 0.1))

    def test_controls_without_control_groups_rejected(self):
        gd = single_class_gd()
        rates = SimpleNamespace(u=np.zeros((1, 2)), v=np.zeros((1, 2)))
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
    def test_defaults_run_clamp_free(self, dist):
        traj = simulate_full(dist, DEFAULTS, GRID)
        assert traj.clamp_events == 0
        assert traj.s.min() >= 0 and traj.i.min() >= 0 and traj.r.min() >= -1e-12


class TestSimulateGrouped:
    def test_zero_schedule_equals_uncontrolled(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        sched = SimpleNamespace(u=np.zeros((3, GRID.n_points)), v=np.zeros((3, GRID.n_points)))
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
        sched = SimpleNamespace(u=np.full((3, n), 0.25), v=np.full((3, n), 0.125))
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
        sched = SimpleNamespace(u=np.full((3, n), 0.3), v=np.full((3, n), 0.2))
        traj = simulate_grouped(gd, cg, sched, DEFAULTS, GRID)
        npt.assert_allclose(traj.s_hat + traj.i_hat + traj.r_hat, 1.0, atol=1e-9)

    def test_schedule_validation(self):
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        cg = amass_control_groups(gd, 3)
        n = GRID.n_points
        bad_m = SimpleNamespace(u=np.zeros((2, n)), v=np.zeros((2, n)))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, cg, bad_m, DEFAULTS, GRID)
        bad_n = SimpleNamespace(u=np.zeros((3, n - 1)), v=np.zeros((3, n - 1)))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, cg, bad_n, DEFAULTS, GRID)
        neg = SimpleNamespace(u=np.full((3, n), -0.1), v=np.zeros((3, n)))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, cg, neg, DEFAULTS, GRID)
        for nan in (SimpleNamespace(u=np.full((3, n), np.nan), v=np.zeros((3, n))),
                    SimpleNamespace(u=np.zeros((3, n)), v=np.full((3, n), np.nan))):
            with pytest.raises(ParameterError):
                simulate_grouped(gd, cg, nan, DEFAULTS, GRID)
        ok = SimpleNamespace(u=np.zeros((3, n)), v=np.zeros((3, n)))
        with pytest.raises(ParameterError):
            simulate_grouped(gd, None, ok, DEFAULTS, GRID)


class TestAggregate:
    def test_single_group_passthrough(self):
        gd = grouped_stats(PL2, Grouping(np.array([0, PL2.n_classes])))
        traj = simulate_grouped(gd, None, None, DEFAULTS, TimeGrid(51, 20.0))
        npt.assert_allclose(traj.s, traj.s_hat[0], rtol=1e-12)
        npt.assert_allclose(traj.i, traj.i_hat[0], rtol=1e-12)
        npt.assert_allclose(traj.r, 1.0 - traj.s - traj.i)

    def test_uniform_states_average_to_common_value(self):
        # every group starts at (1 - i0, i0), so the aggregates start there too
        gd = grouped_stats(PL2, partition_equal_mass(PL2, 21))
        traj = simulate_grouped(gd, None, None, DEFAULTS, TimeGrid(51, 20.0))
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
