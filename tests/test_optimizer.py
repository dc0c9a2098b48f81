"""Tests for the schedule optimizer: objective/gradient, solver, sweeps."""

import hashlib
import os
import pickle
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

import epinetopt.optimizer
from epinetopt.control import (
    CostParams,
    constant_strategy,
    evaluate_cost,
    zero_strategy,
)
from epinetopt.dynamics import (
    ControlSchedule,
    EpidemicParams,
    TimeGrid,
    cumulative_infected,
    simulate_grouped,
)
from epinetopt.errors import NumericalFailureError, ParameterError
from epinetopt.grouping import amass_control_groups, grouped_stats, partition_equal_mass
from epinetopt.network import DegreeDistribution, power_law_distribution
from epinetopt.optimizer import (
    OptimizationProblem,
    SweepPoint,
    improvement_percent,
    objective_and_gradient,
    optimize,
    sweep,
)

from dosing import dosed_coordinates, finite_difference_gradient
from test_dynamics import stepwise_integrate

PL2 = power_law_distribution(2.0, 6, 105)
DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)

# full-size instance at the default configuration
GRID = TimeGrid(1001, 20.0)
GD = grouped_stats(PL2, partition_equal_mass(PL2, 21))
CG = amass_control_groups(GD, 3)
PROBLEM = OptimizationProblem(GD, CG, DEFAULTS, CostParams(0.25, 0.5), GRID)

# small instance for the slower loops (finite differences, sweeps); its
# sweeps stay in [0, 1] for beta <= 0.5, and some leave it from beta = 0.55
SMALL_GRID = TimeGrid(201, 20.0)
SMALL_GD = grouped_stats(PL2, partition_equal_mass(PL2, 8))
SMALL_CG = amass_control_groups(SMALL_GD, 3)
SMALL = OptimizationProblem(SMALL_GD, SMALL_CG, DEFAULTS, CostParams(0.25, 0.5), SMALL_GRID)


def pack(schedule):
    return np.concatenate([schedule.u.ravel(), schedule.v.ravel()])


class TestObjective:
    def test_matches_evaluate_cost(self):
        # same J through the optimizer path and the public cost evaluation
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 0.6, (3, GRID.n_points))
        v = rng.uniform(0.0, 0.4, (3, GRID.n_points))
        sched = ControlSchedule(u, v, GRID)
        j, _ = objective_and_gradient(PROBLEM, pack(sched))
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        breakdown = evaluate_cost(traj, sched, CG, PROBLEM.cost)
        npt.assert_allclose(j, breakdown.J, rtol=1e-12)

    def test_given_trajectory_gives_bitwise_same_result(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 0.6, (3, GRID.n_points))
        sched = ControlSchedule(u, rng.uniform(0.0, 0.4, (3, GRID.n_points)), GRID)
        traj = simulate_grouped(GD, CG, sched, DEFAULTS, GRID)
        evaluation = (sched, traj, evaluate_cost(traj, sched, CG, PROBLEM.cost))
        j, g = objective_and_gradient(PROBLEM, pack(sched))
        j_given, g_given = objective_and_gradient(PROBLEM, pack(sched), evaluation)
        assert j_given == j
        npt.assert_array_equal(g_given, g)

    def test_zero_schedule_objective_is_cumulative_infected(self):
        j, _ = objective_and_gradient(PROBLEM, np.zeros(2 * 3 * GRID.n_points))
        traj = simulate_grouped(GD, CG, None, DEFAULTS, GRID)
        npt.assert_allclose(j, cumulative_infected(traj), rtol=1e-12)

    def test_vector_length_validated(self):
        with pytest.raises(ParameterError):
            objective_and_gradient(PROBLEM, np.zeros(17))

    def test_no_seed_gradient_is_pure_quadratic(self):
        # i0 = 0: infection never happens, so the exact gradient reduces to
        # the direct derivative of the quadratic control terms
        params = EpidemicParams(0.5, 0.25, 0.0, 20.0)
        prob = OptimizationProblem(SMALL_GD, SMALL_CG, params, CostParams(0.25, 0.5), SMALL_GRID)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 1.0, (3, SMALL_GRID.n_points))
        v = rng.uniform(0.1, 1.0, (3, SMALL_GRID.n_points))
        x = np.concatenate([u.ravel(), v.ravel()])
        j, g = objective_and_gradient(prob, x)
        w = SMALL_GRID.quadrature_weights()
        xm = SMALL_CG.x[:, None]
        expected_j = 0.25 * float(w @ (SMALL_CG.x @ u**2)) + 0.5 * float(w @ (SMALL_CG.x @ v**2))
        npt.assert_allclose(j, expected_j, rtol=1e-12)
        npt.assert_allclose(g[: u.size].reshape(3, -1), 2 * 0.25 * xm * u * w, rtol=1e-9)
        npt.assert_allclose(g[u.size :].reshape(3, -1), 2 * 0.5 * xm * v * w, rtol=1e-9)


class TestGradient:
    def test_adjoint_matches_finite_differences(self):
        # the paper's setting: dose functional on groups with the SIR pressure
        dose = replace(
            SMALL,
            gd=grouped_stats(PL2, partition_equal_mass(PL2, 8), excess_degree=True),
            cost=CostParams(0.25, 0.5, "dose", rate_max=1.0),
        )
        for problem in (SMALL, dose):
            rng = np.random.default_rng(11)
            u = rng.uniform(0.05, 0.8, (3, SMALL_GRID.n_points))
            v = rng.uniform(0.05, 0.8, (3, SMALL_GRID.n_points))
            x = np.concatenate([u.ravel(), v.ravel()])
            _, g = objective_and_gradient(problem, x)
            pool = x.size if problem is SMALL else dosed_coordinates(problem, x)
            idx = rng.choice(pool, size=20, replace=False)
            fd = finite_difference_gradient(problem, x, indices=idx)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(g[idx] - fd) / denom) < 1e-5, problem.cost.functional

    def test_gradient_descent_direction_reduces_objective(self):
        x = pack(constant_strategy(DEFAULTS, SMALL_GRID, 3))
        j, g = objective_and_gradient(SMALL, x)
        step = 1e-3 / np.linalg.norm(g)
        j_after, _ = objective_and_gradient(SMALL, np.maximum(x - step * g, 0.0))
        assert j_after < j


class TestOptimize:
    def test_default_run_regression(self):
        res = optimize(PROBLEM)
        assert res.converged
        # frozen from this implementation; guards against silent regressions
        npt.assert_allclose(res.J, 1.4242731835344504, rtol=1e-4)
        traj = simulate_grouped(GD, CG, res.schedule, DEFAULTS, GRID)
        npt.assert_allclose(cumulative_infected(traj), 0.7926651777987826, rtol=1e-3)

    def test_history_is_nonincreasing(self):
        res = optimize(PROBLEM)
        assert np.all(np.diff(res.history) <= 1e-12)
        npt.assert_allclose(res.history[-1], res.J, rtol=1e-12)

    def test_beats_both_heuristics(self):
        res = optimize(PROBLEM)
        const = constant_strategy(DEFAULTS, GRID, 3)
        traj_c = simulate_grouped(GD, CG, const, DEFAULTS, GRID)
        j_const = evaluate_cost(traj_c, const, CG, PROBLEM.cost).J
        j_none = cumulative_infected(simulate_grouped(GD, CG, None, DEFAULTS, GRID))
        assert res.J <= min(j_const, j_none)
        assert improvement_percent(j_const, res.J) > 0
        assert improvement_percent(j_none, res.J) > 0

    def test_warm_start_insensitivity(self):
        # the landscape funnels every reasonable start to the same optimum
        res_const = optimize(PROBLEM)
        res_zero = optimize(PROBLEM, initial=zero_strategy(GRID, 3))
        doubled = constant_strategy(DEFAULTS, GRID, 3)
        res_double = optimize(
            PROBLEM, initial=ControlSchedule(2 * doubled.u, 2 * doubled.v, GRID)
        )
        npt.assert_allclose(res_zero.J, res_const.J, rtol=1e-3)
        npt.assert_allclose(res_double.J, res_const.J, rtol=1e-3)

    def test_no_seed_drives_controls_to_zero(self):
        params = EpidemicParams(0.5, 0.25, 0.0, 20.0)
        prob = OptimizationProblem(SMALL_GD, SMALL_CG, params, CostParams(0.25, 0.5), SMALL_GRID)
        res = optimize(prob)
        assert res.J < 1e-6
        assert res.schedule.u.max() < 1e-3
        assert res.schedule.v.max() < 1e-3

    def test_dose_solve_stays_within_bounds(self):
        cost = CostParams(0.25, 0.5, "dose", rate_max=0.6)
        prob = replace(PROBLEM, cost=cost)
        res = optimize(prob)
        assert res.converged
        assert res.schedule.u.max() <= 0.6 and res.schedule.v.max() <= 0.6
        traj = simulate_grouped(GD, CG, res.schedule, DEFAULTS, GRID)
        npt.assert_allclose(res.J, evaluate_cost(traj, res.schedule, CG, cost).J, rtol=1e-12)
        assert np.all(np.diff(res.history) <= 1e-12)
        const = constant_strategy(DEFAULTS, GRID, 3)
        traj_c = simulate_grouped(GD, CG, const, DEFAULTS, GRID)
        assert res.J < evaluate_cost(traj_c, const, CG, cost).J

    @pytest.mark.parametrize(
        "cost", [CostParams(0.25, 0.5), CostParams(0.25, 0.5, "dose", rate_max=1.0)],
        ids=["rate", "dose"],
    )
    def test_each_schedule_simulated_once(self, cost, monkeypatch):
        integrate = epinetopt.optimizer._integrate
        price = epinetopt.optimizer.evaluate_cost
        sweeps = []
        prices = []

        def recording(gd, params, grid, u_z=None, v_z=None):
            sweeps.append(u_z.tobytes() + v_z.tobytes())
            return integrate(gd, params, grid, u_z, v_z)

        def counting(*args):
            prices.append(None)
            return price(*args)

        monkeypatch.setattr(epinetopt.optimizer, "_integrate", recording)
        monkeypatch.setattr(epinetopt.optimizer, "evaluate_cost", counting)
        prob = replace(SMALL, cost=cost)
        res = optimize(prob)
        assert res.iterations > 0
        assert len(set(sweeps)) == len(sweeps)
        # each simulated schedule is priced once, and nothing else is
        assert len(prices) == len(sweeps)
        # the result's trajectory and breakdown are those of its schedule
        traj = simulate_grouped(SMALL_GD, SMALL_CG, res.schedule, DEFAULTS, SMALL_GRID)
        for f in fields(traj):
            npt.assert_array_equal(getattr(res.trajectory, f.name), getattr(traj, f.name))
        assert res.breakdown == evaluate_cost(traj, res.schedule, SMALL_CG, cost)
        assert res.J == res.breakdown.J

    def test_interior_optimum_reaches_gradient_tolerance(self):
        # single degree class, single control pair: smooth interior problem
        dist = DegreeDistribution(5, 5, np.array([1.0]))
        gd = grouped_stats(dist, partition_equal_mass(dist, 1))
        cg = amass_control_groups(gd, 1)
        prob = OptimizationProblem(gd, cg, DEFAULTS, CostParams(0.25, 0.5), TimeGrid(401, 20.0))
        res = optimize(prob)
        assert res.converged
        assert res.gradient_norm < 1e-6

    def test_failed_line_search_counts_accepted_steps(self, monkeypatch):
        # no trial step at all: the first line search fails and nothing is accepted
        monkeypatch.setattr(epinetopt.optimizer, "_MAX_BACKTRACKS", 0)
        res = optimize(SMALL)
        assert res.iterations == len(res.history) - 1 == 0
        assert res.converged is False

    def test_ascent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # a masked quasi-Newton step that does not descend is replaced by the
        # negated projected gradient, so an ascent direction from the L-BFGS
        # recursion gives the steepest-descent solve, bit for bit
        monkeypatch.setattr(epinetopt.optimizer, "_MAX_ITERATIONS", 20)
        solves = []
        for direction in (lambda g, pairs: g, lambda g, pairs: -g):
            monkeypatch.setattr(epinetopt.optimizer, "_lbfgs_direction", direction)
            solves.append(optimize(SMALL))
        ascent, steepest = solves
        assert len(ascent.history) == 21
        npt.assert_array_equal(ascent.history, steepest.history)
        assert ascent.J == steepest.J
        npt.assert_array_equal(ascent.schedule.u, steepest.schedule.u)
        npt.assert_array_equal(ascent.schedule.v, steepest.schedule.v)

    def test_max_iterations_respected(self, monkeypatch):
        monkeypatch.setattr(epinetopt.optimizer, "_MAX_ITERATIONS", 1)
        res = optimize(PROBLEM)
        assert res.iterations <= 1
        assert len(res.history) <= 2

    def test_initial_layout_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            optimize(PROBLEM, initial=zero_strategy(GRID, 2))
        with pytest.raises(ParameterError):
            optimize(PROBLEM, initial=zero_strategy(TimeGrid(11, 20.0), 3))
        with pytest.raises(ParameterError):  # the right sample count over 5 days, not 20
            optimize(PROBLEM, initial=constant_strategy(DEFAULTS, TimeGrid(1001, 5.0), 3))

    def test_problem_validation(self):
        with pytest.raises(ParameterError):
            OptimizationProblem(GD, SMALL_CG, DEFAULTS, CostParams(0.25, 0.5), GRID)
        with pytest.raises(ParameterError):
            OptimizationProblem(
                GD, CG, EpidemicParams(0.5, 0.25, 0.01, 10.0), CostParams(0.25, 0.5), GRID
            )


def variant(name, value):
    """SMALL with ``name`` (beta, b or c) set to ``value``."""
    if name == "beta":
        return replace(SMALL, params=replace(DEFAULTS, beta=value))
    return replace(SMALL, cost=replace(SMALL.cost, **{name: value}))


def row_alone(name, value):
    """The sweep row of one value, computed one solve and one simulation at a time."""
    prob = variant(name, value)
    res = optimize(prob)
    const, none = (
        evaluate_cost(simulate_grouped(SMALL_GD, SMALL_CG, sched, prob.params, SMALL_GRID),
                      sched, SMALL_CG, prob.cost)
        for sched in (constant_strategy(prob.params, SMALL_GRID, 3), zero_strategy(SMALL_GRID, 3))
    )
    return SweepPoint(
        value, res.J, const.J, none.J,
        improvement_percent(const.J, res.J), improvement_percent(none.J, res.J),
        res.breakdown.infection_term, const.infection_term, none.infection_term,
        res.converged,
    )


def digest(data):
    return hashlib.sha256(data).hexdigest()


def sweep_in(processes, monkeypatch, name, values, problem=SMALL):
    """``sweep(problem, name, values)`` shared by ``processes`` processes."""
    monkeypatch.setattr(epinetopt.optimizer, "_processes", lambda n_points: processes)
    return sweep(problem, name, values)


# SMALL at b = c = 0.01, whose line searches try points whose sweeps leave
# [0, 1]. When such sweeps were clipped, the solve converged to J = 0.14158,
# 6.7 % below the optimum of the model's own dynamics, exploiting the clip.
CHEAP = replace(SMALL, cost=CostParams(0.01, 0.01))


def failures_recorded(monkeypatch):
    """Record the row count of each ``optimizer._forward`` call that raises
    :class:`NumericalFailureError`, in the list returned."""
    forward, failed = epinetopt.optimizer._forward, []

    def recording(problems, xs, trajs=None):
        try:
            return forward(problems, xs, trajs)
        except NumericalFailureError:
            failed.append(len(problems))
            raise

    monkeypatch.setattr(epinetopt.optimizer, "_forward", recording)
    return failed


class TestTrialsLeavingTheRange:
    def test_optimum_keeps_the_unclipped_dynamics(self, monkeypatch):
        failed = failures_recorded(monkeypatch)
        res = optimize(CHEAP)
        assert res.converged and failed  # trials failed, and each was rejected
        npt.assert_allclose(res.J, 0.1518123622165999, rtol=1e-6)
        a = SMALL_CG.assignment
        s, i = stepwise_integrate(SMALL_GD, DEFAULTS, SMALL_GRID, res.schedule.u[a], res.schedule.v[a])
        assert np.array_equal(res.trajectory.s_hat, s) and np.array_equal(res.trajectory.i_hat, i)
        assert 0 <= min(s.min(), i.min()) and max(s.max(), i.max()) <= 1

    @pytest.mark.parametrize("processes", [1, 2])
    def test_sweep_rows_equal_the_solves_alone(self, processes, monkeypatch):
        values = [0.01, 0.25]
        solves = [optimize(replace(CHEAP, cost=replace(CHEAP.cost, b=b))) for b in values]
        failed = failures_recorded(monkeypatch)
        for row, res in zip(sweep_in(processes, monkeypatch, "b", values, CHEAP), solves):
            assert (row.J_optimal, row.cumulative_infected_optimal, row.converged) == (
                res.J, res.breakdown.infection_term, True
            )
        if processes == 1:  # a batched search raised, and its rows were searched alone
            assert 2 in failed and 1 in failed


class TestSweep:
    def test_single_point_matches_optimize(self):
        rows = sweep(SMALL, "b", [0.25])
        res = optimize(SMALL)
        assert rows[0].J_optimal == res.J
        const = constant_strategy(DEFAULTS, SMALL_GRID, 3)
        traj_c = simulate_grouped(SMALL_GD, SMALL_CG, const, DEFAULTS, SMALL_GRID)
        assert rows[0].J_constant == evaluate_cost(traj_c, const, SMALL_CG, SMALL.cost).J

    @pytest.mark.parametrize("name, values", [("b", [0.25, 0.5, 1.0]), ("beta", [0.3, 0.5, 0.4])])
    def test_rows_equal_solves_one_at_a_time(self, name, values):
        # points solved in lockstep keep the bits of their solves alone
        for row, value in zip(sweep(SMALL, name, values), values):
            assert row == row_alone(name, value)

    @pytest.mark.parametrize("name", ["b", "beta"])
    def test_row_does_not_depend_on_the_other_values(self, name):
        values = [0.25, 0.5, 1.0] if name == "b" else [0.3, 0.5, 0.4]
        rows = dict(zip(values, sweep(SMALL, name, values)))
        for subset in (values[::-1], values[1:]):  # reordered, and one removed
            assert sweep(SMALL, name, subset) == [rows[v] for v in subset]

    @pytest.mark.parametrize("name", ["b", "beta"])
    def test_each_schedule_simulated_once(self, name, monkeypatch, tmp_path):
        integrate = epinetopt.optimizer._integrate
        integrate_batch = epinetopt.optimizer._integrate_batch
        log = None  # the file of the sweep running

        def record(beta, u_z, v_z):
            # (beta, digest of the per-group controls) of a forward sweep, one
            # line each, appended by every process of the sweep
            with open(log, "a") as out:
                out.write(f"{beta!r} {digest(u_z.tobytes() + v_z.tobytes())}\n")

        def recording(gd, params, grid, u_z=None, v_z=None):
            record(params.beta, u_z, v_z)
            return integrate(gd, params, grid, u_z, v_z)

        def recording_batch(gd, assignment, params, grid, u, v):
            for p, u_b, v_b in zip(params, u, v):
                record(p.beta, u_b[assignment], v_b[assignment])
            return integrate_batch(gd, assignment, params, grid, u, v)

        monkeypatch.setattr(epinetopt.optimizer, "_integrate", recording)
        monkeypatch.setattr(epinetopt.optimizer, "_integrate_batch", recording_batch)
        values = [0.25, 0.5, 1.0] if name == "b" else [0.3, 0.5, 0.4]
        zeros = digest(bytes(2 * 8 * SMALL_GRID.n_points * 8))
        for processes in (1, 2):
            log = tmp_path / f"sweeps-{processes}.txt"
            rows = sweep_in(processes, monkeypatch, name, values)
            assert all(r.converged for r in rows)
            sweeps = log.read_text().splitlines()
            assert len(set(sweeps)) == len(sweeps)
            # a b sweep simulates each heuristic once, a beta sweep once per point
            assert sum(line.endswith(zeros) for line in sweeps) == (
                1 if name == "b" else len(values)
            )

    def test_vaccination_cost_sweep_is_monotone(self):
        rows = sweep(SMALL, "b", [0.1, 0.5, 1.0])
        js = [r.J_optimal for r in rows]
        assert js == sorted(js)
        for r in rows:
            assert r.J_optimal <= min(r.J_constant, r.J_none)
            assert r.converged

    def test_beta_sweep_optimal_always_below_heuristics(self):
        for r in sweep(SMALL, "beta", [0.2, 0.35, 0.5]):
            assert r.J_optimal < r.J_constant
            assert r.J_optimal < r.J_none

    def test_invalid_parameter_name(self):
        with pytest.raises(ParameterError):
            sweep(SMALL, "gamma", [0.1])

    def test_failed_point_is_recorded_not_raised(self):
        rows = sweep(SMALL, "beta", [0.5, -1.0])
        assert rows[0].error is None
        assert rows[1].error is not None
        assert np.isnan(rows[1].J_optimal)

    def test_failing_point_leaves_its_batch_unchanged(self):
        # beta = 40 overflows in the first gradient, which it shares with beta = 0.5
        rows = sweep(SMALL, "beta", [0.5, 40.0, 0.4])
        assert [rows[0], rows[2]] == [row_alone("beta", 0.5), row_alone("beta", 0.4)]
        with pytest.raises(NumericalFailureError) as failed:
            optimize(variant("beta", 40.0))
        assert rows[1].error == str(failed.value) and np.isnan(rows[1].J_optimal)


class TestSweepProcesses:
    @pytest.mark.parametrize("cpus, n_points, expected", [
        (2, 0, 1), (2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 9, 2), (1, 4, 1), (8, 5, 3), (8, 40, 8),
    ])
    def test_one_process_per_cpu_that_fills_a_lockstep(self, cpus, n_points, expected,
                                                       monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert epinetopt.optimizer._processes(n_points) == expected
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert epinetopt.optimizer._processes(n_points) == expected
        monkeypatch.delattr(os, "fork", raising=False)
        assert epinetopt.optimizer._processes(n_points) == 1

    @pytest.mark.parametrize("name, values", [
        ("b", [0.25, 0.5, 1.0]),
        ("beta", [0.3, 0.5, 0.4]),
        ("beta", [0.5, 40.0, 0.4]),  # beta = 40 leaves [0, 1] at once
        ("beta", [0.5, -1.0, 0.4]),  # beta = -1 has no problem to solve
    ])
    def test_rows_do_not_depend_on_the_process_count(self, name, values, monkeypatch):
        one, two = (sweep_in(processes, monkeypatch, name, values) for processes in (1, 2))
        assert two == one
        if values[1] == 40.0:
            with pytest.raises(NumericalFailureError) as failed:
                optimize(variant("beta", 40.0))
            assert two[1].error == str(failed.value)
        if values[1] == -1.0:
            assert two[1].error == "beta must be finite and >= 0, got -1.0"

    @pytest.mark.parametrize("processes", [1, 2])
    def test_failed_shared_heuristics_fail_every_point(self, processes, monkeypatch):
        # beta = 1e300 overflows in the b sweep's shared heuristic sweeps, then
        # in each point's constant heuristic, which is its solve's first
        # iterate, so that no point is solved
        hot, values = variant("beta", 1e300), [0.25, 0.5]
        for row, b in zip(sweep_in(processes, monkeypatch, "b", values, hot), values):
            with pytest.raises(NumericalFailureError) as failed:
                optimize(replace(hot, cost=replace(hot.cost, b=b)))
            assert row.error == str(failed.value)
            assert np.isnan([row.J_optimal, row.J_constant, row.J_none]).all()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_point_whose_heuristics_fail_leaves_the_others(self, processes, monkeypatch):
        rows = sweep_in(processes, monkeypatch, "beta", [0.5, 1e300])
        assert rows[0] == row_alone("beta", 0.5)
        with pytest.raises(NumericalFailureError) as failed:
            optimize(variant("beta", 1e300))
        assert rows[1].error == str(failed.value)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_point_whose_constant_start_fails_is_simulated_once_and_not_solved(
            self, processes, monkeypatch, tmp_path):
        # beta = 40's constant heuristic, its solve's first iterate, leaves
        # [0, 1]: that sweep is its only one, no solve starts from it, and its
        # no-control schedule is never simulated
        integrate = epinetopt.optimizer._integrate
        integrate_batch = epinetopt.optimizer._integrate_batch
        solve = epinetopt.optimizer._solve
        sweeps, solves = tmp_path / "sweeps.txt", tmp_path / "solves.txt"

        def record(path, line):
            with open(path, "a") as out:
                out.write(f"{line}\n")

        def recording(gd, params, grid, u_z=None, v_z=None):
            record(sweeps, f"{params.beta!r} {digest(u_z.tobytes() + v_z.tobytes())}")
            return integrate(gd, params, grid, u_z, v_z)

        def recording_batch(gd, assignment, params, grid, u, v):
            for p, u_b, v_b in zip(params, u, v):
                controls = u_b[assignment].tobytes() + v_b[assignment].tobytes()
                record(sweeps, f"{p.beta!r} {digest(controls)}")
            return integrate_batch(gd, assignment, params, grid, u, v)

        def counting(problem, *args, **kwargs):
            record(solves, repr(problem.params.beta))
            return solve(problem, *args, **kwargs)

        hot = variant("beta", 40.0)
        with pytest.raises(NumericalFailureError) as failed:
            optimize(hot)
        a = SMALL_CG.assignment
        const, none = (digest(s.u[a].tobytes() + s.v[a].tobytes()) for s in (
            constant_strategy(hot.params, SMALL_GRID, 3), zero_strategy(SMALL_GRID, 3)))
        monkeypatch.setattr(epinetopt.optimizer, "_integrate", recording)
        monkeypatch.setattr(epinetopt.optimizer, "_integrate_batch", recording_batch)
        monkeypatch.setattr(epinetopt.optimizer, "_solve", counting)
        rows = sweep_in(processes, monkeypatch, "beta", [0.5, 40.0])
        hot_sweeps = [line.split()[1] for line in sweeps.read_text().splitlines()
                      if line.startswith("40.0 ")]
        assert hot_sweeps == [const] and none not in hot_sweeps
        assert solves.read_text().split() == ["0.5"]
        assert rows[0] == row_alone("beta", 0.5)
        assert rows[1].error == str(failed.value) and np.isnan(rows[1].J_constant)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_point_whose_problem_cannot_be_built_does_no_work(self, processes, monkeypatch,
                                                              tmp_path):
        # beta = -1 has no problem: its job fails at its first step, before it
        # simulates a schedule or starts a solve, and its row carries the
        # ParameterError that building the problem raises
        forward, solve = epinetopt.optimizer._forward, epinetopt.optimizer._solve
        log = tmp_path / "work.txt"

        def record(kind, problems):
            with open(log, "a") as out:
                out.writelines(f"{kind} {q.params.beta!r}\n" for q in problems)

        def recording(problems, xs, trajs=None):
            record("forward", problems)
            return forward(problems, xs, trajs)

        def counting(problem, *args, **kwargs):
            record("solve", [problem])
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(epinetopt.optimizer, "_forward", recording)
        monkeypatch.setattr(epinetopt.optimizer, "_solve", counting)
        rows = sweep_in(processes, monkeypatch, "beta", [0.5, -1.0])
        work = log.read_text().splitlines()
        assert {"forward 0.5", "solve 0.5"} <= set(work)
        assert not [line for line in work if not line.endswith(" 0.5")]
        assert rows[0].error is None and rows[0].converged
        with pytest.raises(ParameterError) as failed:
            variant("beta", -1.0)
        assert rows[1].error == str(failed.value) and np.isnan(rows[1].J_optimal)

    def test_clipped_constant_heuristic_is_not_the_solves_first_iterate(self, monkeypatch):
        # under a rate bound below beta/2 the solve starts from the clipped
        # constant schedule, so the unclipped heuristic's failure is its own:
        # the point is still solved, and its row carries that error unchanged
        bounded = replace(SMALL, cost=CostParams(0.25, 0.5, "dose", rate_max=0.2))
        res, forward = optimize(bounded), epinetopt.optimizer._forward
        [row] = sweep_in(1, monkeypatch, "b", [0.25], bounded)
        assert (row.J_optimal, row.converged) == (res.J, res.converged)
        const = constant_strategy(DEFAULTS, SMALL_GRID, 3)
        traj = simulate_grouped(SMALL_GD, SMALL_CG, const, DEFAULTS, SMALL_GRID)
        assert row.J_constant == evaluate_cost(traj, const, SMALL_CG, bounded.cost).J
        solved = []

        def failing(problems, xs, trajs=None):
            if any(np.array_equal(x, pack(const)) for x in xs):
                raise NumericalFailureError("constant failed")
            solved.extend(x for x in xs if x.max() <= 0.2 and x.any())
            return forward(problems, xs, trajs)

        monkeypatch.setattr(epinetopt.optimizer, "_forward", failing)
        [row] = sweep_in(1, monkeypatch, "b", [0.25], bounded)
        assert row.error == "constant failed" and solved

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("solve_fails", [False, True], ids=["none fails", "solve fails too"])
    def test_row_error_is_the_solves_before_the_no_control_heuristics(
            self, solve_fails, processes, monkeypatch):
        # beta = 0.4's no-control schedule fails, and with solve_fails an
        # overflow in the projection of its solve's 5th line-search trial
        # fails its solve too: the row carries the solve's error, if any,
        # and NaN
        forward, project = epinetopt.optimizer._forward, epinetopt.optimizer._project
        inputs = []

        def recording(x, upper):
            inputs.append(x.copy())
            return project(x, upper)

        def failing(problems, xs, trajs=None):
            if any(q.params.beta == 0.4 and not x.any() for q, x in zip(problems, xs)):
                raise NumericalFailureError("no control failed")
            return forward(problems, xs, trajs)

        def overflowing(x, upper):
            if np.array_equal(x, target):
                np.full(1, 1e308) * 10.0
            return project(x, upper)

        expected = row_alone("beta", 0.5)
        monkeypatch.setattr(epinetopt.optimizer, "_project", recording)
        alone = optimize(variant("beta", 0.4))
        target = inputs[5]
        monkeypatch.setattr(epinetopt.optimizer, "_forward", failing)
        if solve_fails:
            monkeypatch.setattr(epinetopt.optimizer, "_project", overflowing)
            with pytest.raises(NumericalFailureError) as failed:
                optimize(variant("beta", 0.4))
            error = str(failed.value)
            assert error.startswith("optimize: floating-point overflow")
        else:
            monkeypatch.setattr(epinetopt.optimizer, "_project", project)
            assert optimize(variant("beta", 0.4)).J == alone.J and alone.converged
            error = "no control failed"
        rows = sweep_in(processes, monkeypatch, "beta", [0.5, 0.4])
        assert rows[0] == expected
        assert rows[1].error == error and rows[1].converged is False
        numeric = [getattr(rows[1], f.name) for f in fields(SweepPoint)[1:-2]]
        assert len(numeric) == 8 and np.isnan(numeric).all()

    @pytest.mark.parametrize("fault", [None, "child exits", "fork fails", "truncated answer"])
    def test_no_child_is_left_and_every_fallback_gives_the_same_rows(self, fault, monkeypatch):
        values = [0.3, 0.5, 0.4]
        expected = sweep_in(1, monkeypatch, "beta", values)
        parent = os.getpid()
        lockstep, dumps = epinetopt.optimizer._lockstep, pickle.dumps

        def dying(jobs):
            if os.getpid() != parent:
                os._exit(1)
            return lockstep(jobs)

        def no_fork():
            raise OSError("fork failed")

        if fault == "child exits":
            monkeypatch.setattr(epinetopt.optimizer, "_lockstep", dying)
        elif fault == "fork fails":
            monkeypatch.setattr(os, "fork", no_fork)
        elif fault == "truncated answer":
            monkeypatch.setattr(pickle, "dump", lambda answer, out: out.write(dumps(answer)[:-9]))
        assert sweep_in(2, monkeypatch, "beta", values) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_are_killed_and_reaped_when_the_sweep_raises(self, monkeypatch):
        parent = os.getpid()
        lockstep = epinetopt.optimizer._lockstep

        class Interrupted(Exception):
            pass

        def interrupted(jobs):
            if os.getpid() == parent:
                raise Interrupted
            return lockstep(jobs)

        monkeypatch.setattr(epinetopt.optimizer, "_lockstep", interrupted)
        with pytest.raises(Interrupted):
            sweep_in(3, monkeypatch, "beta", [0.3, 0.5, 0.4])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("call", [0, 5], ids=["solve step", "search step"])
    def test_overflow_in_the_solvers_own_step_fails_its_row_alone(self, call, monkeypatch,
                                                                  tmp_path):
        # _project overflows when it is given the input of beta = 0.4's call-th
        # projection alone: call 0 projects the solve's start, and call 5 is a
        # line search's trial point. That row fails with optimize's error, the
        # other keeps its bits, and no solve is started a second time.
        expected = row_alone("beta", 0.5)
        project, solve = epinetopt.optimizer._project, epinetopt.optimizer._solve
        inputs, log = [], tmp_path / "solves.txt"

        def recording(x, upper):
            inputs.append(x.copy())
            return project(x, upper)

        monkeypatch.setattr(epinetopt.optimizer, "_project", recording)
        optimize(variant("beta", 0.4))
        target = inputs[call]

        def overflowing(x, upper):
            if np.array_equal(x, target):
                np.full(1, 1e308) * 10.0
            return project(x, upper)

        def counting(*args, **kwargs):
            with open(log, "a") as out:
                out.write("solve\n")
            return solve(*args, **kwargs)

        monkeypatch.setattr(epinetopt.optimizer, "_project", overflowing)
        monkeypatch.setattr(epinetopt.optimizer, "_solve", counting)
        with pytest.raises(NumericalFailureError) as failed:
            optimize(variant("beta", 0.4))
        assert str(failed.value).startswith("optimize: floating-point overflow")
        assert log.read_text().count("solve") == 1
        for processes in (1, 2):
            log.unlink()
            rows = sweep_in(processes, monkeypatch, "beta", [0.5, 0.4])
            assert rows[0] == expected
            assert rows[1].error == str(failed.value) and np.isnan(rows[1].J_optimal)
            assert log.read_text().count("solve") == 2

    def test_row_failing_in_a_batched_line_search_leaves_the_other(self, monkeypatch):
        # beta = 0.4's third trial point fails as a non-finite objective does,
        # in a line search batched with beta = 0.5's: the batch is searched
        # again row by row, where the failed trial is rejected and the step
        # halves, so each row keeps the bits of its solve alone
        expected, forward = row_alone("beta", 0.5), epinetopt.optimizer._forward
        evaluated, batches = [], []

        def recording(problems, xs, trajs=None):
            evaluated.extend(xs)
            return forward(problems, xs, trajs)

        monkeypatch.setattr(epinetopt.optimizer, "_forward", recording)
        unpatched = row_alone("beta", 0.4)
        target = evaluated[3]  # evaluated[0] is the solve's start

        def failing(problems, xs, trajs=None):
            if any(q.params.beta == 0.4 and np.array_equal(x, target)
                   for q, x in zip(problems, xs)):
                batches.append(len(problems))
                raise NumericalFailureError("objective is not finite")
            return forward(problems, xs, trajs)

        monkeypatch.setattr(epinetopt.optimizer, "_forward", failing)
        rows = sweep_in(1, monkeypatch, "beta", [0.5, 0.4])
        assert batches == [2, 1]  # batched first, then alone
        assert rows[0] == expected
        assert rows[1] == row_alone("beta", 0.4) != unpatched  # the same rejection alone
        assert rows[1].error is None and rows[1].converged

    def test_pickled_row_compares_equal(self):
        for row in (SweepPoint(0.5, error="failed"), row_alone("b", 0.25)):
            assert pickle.loads(pickle.dumps(row)) == row
