"""Tests for schedules, the cost functional, baselines, and allocations."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt.control import (
    CostParams,
    constant_strategy,
    evaluate_cost,
    resource_allocation,
    zero_strategy,
)
from epinetopt.dynamics import (
    ControlSchedule,
    EpidemicParams,
    TimeGrid,
    cumulative_infected,
    simulate_grouped,
)
from epinetopt.errors import ParameterError
from epinetopt.grouping import (
    ControlGroups,
    Grouping,
    amass_control_groups,
    grouped_stats,
    partition_equal_mass,
)
from epinetopt.network import power_law_distribution

PL2 = power_law_distribution(2.0, 6, 105)
DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
GRID = TimeGrid(1001, 20.0)
GD = grouped_stats(PL2, partition_equal_mass(PL2, 21))
CG = amass_control_groups(GD, 3)


class TestTypes:
    def test_cost_params_validation(self):
        with pytest.raises(ParameterError):
            CostParams(-0.1, 0.5)
        with pytest.raises(ParameterError):
            CostParams(0.25, float("nan"))

    @pytest.mark.parametrize("field, weight", [("b", "vaccination"), ("c", "treatment")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weight_is_named_as_such(self, field, weight, value):
        with pytest.raises(ParameterError) as info:
            replace(CostParams(0.25, 0.5), **{field: value})
        assert info.value.field == field
        assert str(info.value) == f"{weight} cost weight must be finite and >= 0, got {value}"

    def test_functional_and_bound_validation(self):
        default = CostParams(0.25, 0.5)
        assert (default.functional, default.rate_max) == ("rate", np.inf)
        with pytest.raises(ParameterError):
            CostParams(0.25, 0.5, functional="linear")
        with pytest.raises(ParameterError) as info:
            CostParams(0.25, 0.5, functional="dose")  # unbounded dose is ill posed
        assert info.value.field == "rate_max"
        with pytest.raises(ParameterError) as info:
            CostParams(0.25, 0.5, rate_max=1.0)  # the rate functional takes no bound
        assert info.value.field == "rate_max"
        for bound in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                CostParams(0.25, 0.5, "dose", rate_max=bound)

    def test_schedule_shape_validation(self):
        n = GRID.n_points
        with pytest.raises(ParameterError):
            ControlSchedule(np.zeros((3, n)), np.zeros((2, n)), GRID)
        with pytest.raises(ParameterError):
            ControlSchedule(np.zeros((3, n - 1)), np.zeros((3, n - 1)), GRID)
        with pytest.raises(ParameterError):
            ControlSchedule(np.zeros((0, n)), np.zeros((0, n)), GRID)  # no control group

    def test_schedule_rejects_negative_rates(self):
        n = GRID.n_points
        u = np.zeros((3, n))
        u[1, 5] = -1e-3
        with pytest.raises(ParameterError):
            ControlSchedule(u, np.zeros((3, n)), GRID)
        u[1, 5] = np.nan
        with pytest.raises(ParameterError):
            ControlSchedule(u, np.zeros((3, n)), GRID)
        with pytest.raises(ParameterError):
            ControlSchedule(np.zeros((3, n)), np.full((3, n), np.nan), GRID)
        u[1, 5] = np.inf
        for bad in ((u, np.zeros((3, n))), (np.zeros((3, n)), u)):
            with pytest.raises(ParameterError, match="rates must be finite and nonnegative"):
                ControlSchedule(*bad, GRID)
        # a checked schedule stays nonnegative: it owns read-only copies
        u = np.zeros((3, n))
        sched = ControlSchedule(u, np.zeros((3, n)), GRID)
        u[1, 5] = -1e-3
        assert sched.u.min() == 0.0
        with pytest.raises(ValueError, match="read-only"):
            sched.v[1, 5] = -1e-3


class TestBaselines:
    def test_constant_strategy_values(self):
        sched = constant_strategy(DEFAULTS, GRID, 3)
        npt.assert_array_equal(sched.u, 0.25)
        npt.assert_array_equal(sched.v, 0.125)
        assert sched.n_control == 3

    def test_constant_strategy_beta_zero(self):
        sched = constant_strategy(EpidemicParams(0.0, 0.25, 0.01, 20.0), GRID, 3)
        npt.assert_array_equal(sched.u, 0.0)

    def test_zero_strategy(self):
        sched = zero_strategy(GRID, 3)
        npt.assert_array_equal(sched.u, 0.0)
        npt.assert_array_equal(sched.v, 0.0)


class TestEvaluateCost:
    def test_zero_schedule_cost_is_pure_infection(self):
        sched = zero_strategy(GRID, 3)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        bd = evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5))
        assert bd.vaccination_term == 0.0
        assert bd.treatment_term == 0.0
        assert bd.J == bd.infection_term == cumulative_infected(traj)

    def test_breakdown_additivity(self):
        rng = np.random.default_rng(17)
        n = GRID.n_points
        for _ in range(5):
            sched = ControlSchedule(rng.random((3, n)), rng.random((3, n)), GRID)
            traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
            bd = evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5))
            npt.assert_allclose(
                bd.J,
                bd.infection_term + bd.vaccination_term + bd.treatment_term,
                rtol=1e-14,
            )

    def test_constant_schedule_terms_hand_computed(self):
        # flat u,v make the quadratic terms b*T*u^2 and c*T*v^2 exactly
        # (sum_m x_m = 1, trapezoid is exact for constants)
        sched = constant_strategy(DEFAULTS, GRID, 3)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        bd = evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5))
        npt.assert_allclose(bd.vaccination_term, 0.25 * 20.0 * 0.25**2, rtol=1e-12)
        npt.assert_allclose(bd.treatment_term, 0.5 * 20.0 * 0.125**2, rtol=1e-12)

    def test_monotone_in_cost_weights(self):
        sched = constant_strategy(DEFAULTS, GRID, 3)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        j_low = evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5)).J
        j_high_b = evaluate_cost(traj, sched, CG, CostParams(0.5, 0.5)).J
        j_high_c = evaluate_cost(traj, sched, CG, CostParams(0.25, 1.0)).J
        assert j_high_b > j_low
        assert j_high_c > j_low

    def test_dose_terms_hand_computed(self):
        # b sum_z p_z int (u_m(z) s_z)^2 dt and c sum_z p_z int (v_m(z) i_z)^2 dt
        rng = np.random.default_rng(5)
        sched = ControlSchedule(rng.random((3, GRID.n_points)), rng.random((3, GRID.n_points)), GRID)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        bd = evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5, "dose", 1.0))
        w = GRID.quadrature_weights()
        a = CG.assignment
        vac = 0.25 * sum(GD.p_hat[z] * (w @ (sched.u[a[z]] * traj.s_hat[z]) ** 2) for z in range(21))
        tre = 0.5 * sum(GD.p_hat[z] * (w @ (sched.v[a[z]] * traj.i_hat[z]) ** 2) for z in range(21))
        npt.assert_allclose(bd.vaccination_term, vac, rtol=1e-12)
        npt.assert_allclose(bd.treatment_term, tre, rtol=1e-12)
        npt.assert_allclose(bd.infection_term, cumulative_infected(traj), rtol=1e-15)

    def test_grid_mismatch_rejected(self):
        sched = zero_strategy(TimeGrid(501, 20.0), 3)
        traj = simulate_grouped(GD, None, None, DEFAULTS, GRID)
        with pytest.raises(ParameterError):
            evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5))

    def test_control_group_mismatch_rejected(self):
        # every cost evaluation checks the block count, allocation included
        traj = simulate_grouped(GD, None, None, DEFAULTS, GRID)
        for m in (2, 4):
            sched, expected = zero_strategy(GRID, m), f"schedule has {m} control groups, expected 3"
            with pytest.raises(ParameterError, match=expected):
                evaluate_cost(traj, sched, CG, CostParams(0.25, 0.5))
            with pytest.raises(ParameterError, match=expected):
                resource_allocation(sched, CG, CostParams(0.25, 0.5))


class TestResourceAllocation:
    def test_symmetric_strategy_splits_fifty_fifty(self):
        # equal weights, equal populations, identical u and v
        grid = TimeGrid(11, 1.0)
        cg = ControlGroups(Grouping(np.array([0, 1, 2])), np.array([0.5, 0.5]))
        u = np.vstack([np.linspace(0, 1, 11), np.full(11, 0.3)])
        sched = ControlSchedule(u, u.copy(), grid)
        alloc = resource_allocation(sched, cg, CostParams(0.7, 0.7))
        npt.assert_allclose(alloc.strategy_shares, [50.0, 50.0], atol=1e-12)

    def test_hand_computed_shares(self):
        # M=2, flat signals: resources b*x_m*u_m^2*T and c*x_m*v_m^2*T
        grid = TimeGrid(5, 2.0)
        cg = ControlGroups(Grouping(np.array([0, 1, 2])), np.array([0.25, 0.75]))
        u = np.vstack([np.full(5, 1.0), np.full(5, 2.0)])
        v = np.vstack([np.full(5, 2.0), np.full(5, 0.0)])
        sched = ControlSchedule(u, v, grid)
        alloc = resource_allocation(sched, cg, CostParams(1.0, 0.5))
        # R_u = (0.25*1*2, 0.75*4*2) = (0.5, 6.0); R_v = (0.5*0.25*4*2, 0)=(1.0, 0)
        total = 0.5 + 6.0 + 1.0
        npt.assert_allclose(alloc.total, total, rtol=1e-14)
        npt.assert_allclose(alloc.pair_shares[0], [0.5 / total * 100, 6.0 / total * 100])
        npt.assert_allclose(alloc.pair_shares[1], [1.0 / total * 100, 0.0])
        npt.assert_allclose(alloc.group_shares, [1.5 / total * 100, 6.0 / total * 100])
        npt.assert_allclose(alloc.strategy_shares, [6.5 / total * 100, 1.0 / total * 100])

    def test_three_normalizations_sum_to_hundred(self):
        rng = np.random.default_rng(23)
        n = GRID.n_points
        for _ in range(10):
            sched = ControlSchedule(rng.random((3, n)), rng.random((3, n)), GRID)
            alloc = resource_allocation(sched, CG, CostParams(0.25, 0.5))
            npt.assert_allclose(alloc.pair_shares.sum(), 100.0, atol=1e-9)
            npt.assert_allclose(alloc.group_shares.sum(), 100.0, atol=1e-9)
            npt.assert_allclose(alloc.strategy_shares.sum(), 100.0, atol=1e-9)
            assert not alloc.no_resources

    def test_dose_shares_match_cost_terms(self):
        # spending is measured with the terms the functional charges
        sched = constant_strategy(DEFAULTS, GRID, 3)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        cost = CostParams(0.25, 0.5, "dose", 1.0)
        bd = evaluate_cost(traj, sched, CG, cost)
        alloc = resource_allocation(sched, CG, cost, traj)
        npt.assert_allclose(alloc.total, bd.vaccination_term + bd.treatment_term, rtol=1e-12)
        npt.assert_allclose(
            alloc.strategy_shares, np.array([bd.vaccination_term, bd.treatment_term]) / alloc.total * 100
        )
        with pytest.raises(ParameterError):
            resource_allocation(sched, CG, cost)  # doses need the trajectory

    def test_zero_schedule_flagged(self):
        alloc = resource_allocation(zero_strategy(GRID, 3), CG, CostParams(0.25, 0.5))
        assert alloc.no_resources
        assert alloc.total == 0.0
        npt.assert_array_equal(alloc.group_shares, 0.0)

    def test_zero_cost_weights_flagged(self):
        sched = constant_strategy(DEFAULTS, GRID, 3)
        alloc = resource_allocation(sched, CG, CostParams(0.0, 0.0))
        assert alloc.no_resources
