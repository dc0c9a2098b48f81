"""Acceptance gate: one test per stated numerical target.

Every test prints a ``CRITERION n: PASS|FAIL (...)`` line with the
measured values before asserting the target at its stated tolerance, so
one run of this file doubles as the acceptance report. The expensive
default-parameter optimizations are shared through module fixtures;
criteria that need other parameter points run their own solves, which
makes this the slowest file of the suite.

The optimization targets (criteria 3 and 5-8) come from the paper, whose
cost functional is not stated. They run in the paper's setting: the
"dose" functional with rates in [0, 1] (``paper_cost``), which prices the
heuristics the way the paper's improvement figures imply, on groups with
the SIR (excess-degree) infection pressure (``*_PAPER_GD``). The optimum
and both heuristics are priced with the same cost object, and every
solve must converge; a sweep whose state leaves [0, 1] raises. The other
criteria check the program's defaults.
"""

import glob
import os

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt import (
    ControlSchedule,
    CostParams,
    DEFAULT_GRID_POINTS,
    DegreeDistribution,
    EpidemicParams,
    OptimizationProblem,
    TimeGrid,
    amass_control_groups,
    constant_strategy,
    cumulative_infected,
    evaluate_cost,
    from_edge_list,
    grouped_stats,
    grouping_error,
    improvement_percent,
    load_edge_list,
    objective_and_gradient,
    optimize,
    partition_equal_mass,
    poisson_distribution,
    power_law_distribution,
    resource_allocation,
    simulate_grouped,
    zero_strategy,
)

from dosing import dosed_coordinates, finite_difference_gradient

PL2 = power_law_distribution(2.0, 6, 105)
ER = poisson_distribution(17.5, 1, 45)
DEFAULTS = EpidemicParams(beta=0.5, gamma=0.25, i0=0.01, duration=20.0)
COST = CostParams(b=0.25, c=0.5)
GRID = TimeGrid(DEFAULT_GRID_POINTS, 20.0)


def paper_cost(b=0.25, c=0.5):
    """The functional the paper's optimization targets are checked under."""
    return CostParams(b, c, functional="dose", rate_max=1.0)


PAPER_COST = paper_cost()


def _groups(dist, z=21, m=3, excess_degree=False):
    gd = grouped_stats(dist, partition_equal_mass(dist, z), excess_degree)
    return gd, amass_control_groups(gd, m)


PL2_GD, PL2_CG = _groups(PL2)
ER_GD, ER_CG = _groups(ER)
# the paper's setting; the control groups depend on the masses only
PL2_PAPER_GD = _groups(PL2, excess_degree=True)[0]
ER_PAPER_GD = _groups(ER, excess_degree=True)[0]


def _report(n, ok, details):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({details})")


def _optimal(gd, cg, params=DEFAULTS, cost=PAPER_COST):
    """Solve, insist on a clean solve, and attach the optimal trajectory."""
    result = optimize(OptimizationProblem(gd, cg, params, cost, GRID))
    traj = result.trajectory
    assert result.converged, "optimal solve did not converge"
    return result, traj


def _heuristic_objectives(gd, cg, params=DEFAULTS, cost=PAPER_COST):
    """J of the constant and no-control heuristics, priced like the optimum."""
    objectives = []
    for sched in (constant_strategy(params, GRID, cg.n_control), zero_strategy(GRID, cg.n_control)):
        traj = simulate_grouped(gd, cg, sched, params, GRID)
        objectives.append(evaluate_cost(traj, sched, cg, cost).J)
    return tuple(objectives)


@pytest.fixture(scope="module")
def pl2_optimal():
    """The default problem's optimum, for the property checks."""
    return optimize(OptimizationProblem(PL2_GD, PL2_CG, DEFAULTS, COST, GRID))


@pytest.fixture(scope="module")
def er_optimal():
    return optimize(OptimizationProblem(ER_GD, ER_CG, DEFAULTS, COST, GRID))


@pytest.fixture(scope="module")
def pl2_paper():
    """The paper's optimum and its trajectory, for criteria 5 and 7."""
    return _optimal(PL2_PAPER_GD, PL2_CG)


@pytest.fixture(scope="module")
def er_paper():
    return _optimal(ER_PAPER_GD, ER_CG)


def test_criterion_1_uncontrolled_cumulative_infected():
    ci = cumulative_infected(simulate_grouped(PL2_GD, None, None, DEFAULTS, GRID))
    ok = abs(ci - 3.9683) <= 0.005 * 3.9683
    _report(1, ok, f"no control ci={ci:.6f}, target 3.9683 +/- 0.5%")
    npt.assert_allclose(ci, 3.9683, rtol=0.005)


def test_criterion_2_constant_control_cumulative_infected():
    sched = constant_strategy(DEFAULTS, GRID, 3)
    npt.assert_allclose(sched.u, 0.25)
    npt.assert_allclose(sched.v, 0.125)
    ci = cumulative_infected(simulate_grouped(PL2_GD, PL2_CG, sched, DEFAULTS, GRID))
    ok = abs(ci - 2.3277) <= 0.01 * 2.3277
    _report(2, ok, f"constant control ci={ci:.6f}, target 2.3277 +/- 1%")
    npt.assert_allclose(ci, 2.3277, rtol=0.01)


def test_criterion_3_real_world_network():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates = []
    for pattern in ("data/*", "datasets/*"):
        candidates += [
            p for p in glob.glob(os.path.join(here, pattern))
            if os.path.isfile(p) and p.endswith((".txt", ".csv", ".edges"))
        ]
    if not candidates:
        print("CRITERION 3: WAIVED (no real-world edge list shipped; "
              "criterion 9 property suite stands in)")
        pytest.skip("real-world dataset not available; waived per criterion text")
    dist, _ = from_edge_list(load_edge_list(candidates[0]))
    gd, cg = _groups(dist, excess_degree=True)
    result, _ = _optimal(gd, cg)
    j_constant, j_none = _heuristic_objectives(gd, cg)
    ok = (
        abs(j_constant - 2.3105) <= 0.01 * 2.3105
        and abs(j_none - 3.9569) <= 0.01 * 3.9569
        and result.J <= 0.7977 * 1.05
    )
    _report(3, ok, f"J=({result.J:.4f}, {j_constant:.4f}, {j_none:.4f}), "
                   f"target (<=0.8376, 2.3105 +/- 1%, 3.9569 +/- 1%)")
    npt.assert_allclose(j_constant, 2.3105, rtol=0.01)
    npt.assert_allclose(j_none, 3.9569, rtol=0.01)
    assert result.J <= 0.7977 * 1.05


def test_criterion_4_grouping_error_thresholds():
    vals = {}
    for name, dist in (("pl2", PL2), ("er", ER)):
        z21, identity = grouping_error(dist, [21, dist.n_classes], DEFAULTS, GRID)
        vals.update({f"{name}_z21": z21, f"{name}_identity": identity})
    ok = (
        vals["pl2_z21"] < 1e-3
        and vals["er_z21"] < 1e-3
        and vals["pl2_identity"] <= 1e-12
        and vals["er_identity"] <= 1e-12
    )
    _report(4, ok, "Z=21 errors (pl2 {pl2_z21:.2e}, er {er_z21:.2e}) < 1e-3; "
                   "identity ({pl2_identity:.1e}, {er_identity:.1e}) <= 1e-12".format(**vals))
    assert vals["pl2_z21"] < 1e-3
    assert vals["er_z21"] < 1e-3
    assert vals["pl2_identity"] <= 1e-12
    assert vals["er_identity"] <= 1e-12


def test_criterion_5_optimal_strategy_outcome(pl2_paper):
    pl2_optimal, _ = pl2_paper
    ci = pl2_optimal.breakdown.infection_term
    j_constant, j_none = _heuristic_objectives(PL2_PAPER_GD, PL2_CG)
    dominates = pl2_optimal.J <= min(j_constant, j_none) * (1 + 1e-12)
    ok = dominates and abs(ci - 0.3810) <= 0.10 * 0.3810
    _report(5, ok, f"optimal ci={ci:.4f} (target 0.3810 +/- 10%); "
                   f"J={pl2_optimal.J:.4f} vs constant {j_constant:.4f}, none {j_none:.4f}")
    assert dominates
    npt.assert_allclose(ci, 0.3810, rtol=0.10)


def test_criterion_6_high_beta_improvements():
    params = EpidemicParams(beta=0.8, gamma=0.25, i0=0.01, duration=20.0)
    measured = []
    for gd, cg in ((PL2_PAPER_GD, PL2_CG), (ER_PAPER_GD, ER_CG)):
        result, _ = _optimal(gd, cg, params=params)
        j_constant, j_none = _heuristic_objectives(gd, cg, params=params)
        measured += [
            improvement_percent(j_constant, result.J),
            improvement_percent(j_none, result.J),
        ]
    target = [67.2, 80.31, 53.59, 72.78]
    ok = np.all(np.abs(np.array(measured) - target) <= 2.0)
    _report(6, ok, "beta=0.8 improvements (pl2 const/none, er const/none) = "
                   f"({measured[0]:.2f}, {measured[1]:.2f}, {measured[2]:.2f}, "
                   f"{measured[3]:.2f})%, target ({target[0]}, {target[1]}, "
                   f"{target[2]}, {target[3]}) +/- 2pp")
    npt.assert_allclose(measured, target, rtol=0, atol=2.0)


def test_criterion_7_resource_allocation(pl2_paper, er_paper):
    pl2 = resource_allocation(pl2_paper[0].schedule, PL2_CG, PAPER_COST, pl2_paper[1])
    er = resource_allocation(er_paper[0].schedule, ER_CG, PAPER_COST, er_paper[1])
    g_pl2, s_pl2 = pl2.group_shares, pl2.strategy_shares
    g_er, s_er = er.group_shares, er.strategy_shares
    ordinal_pl2 = g_pl2[2] > g_pl2[1] > g_pl2[0]  # High > Medium > Low
    ordinal_er = g_er[1] > g_er[2] > g_er[0]  # Medium > High > Low
    ok = (
        ordinal_pl2
        and ordinal_er
        and np.all(np.abs(g_pl2 - [7.96, 16.94, 75.1]) <= 3.0)
        and np.all(np.abs(s_pl2 - [54.8, 45.2]) <= 3.0)
        and np.all(np.abs(g_er - [26.2, 39.66, 34.14]) <= 3.0)
        and np.all(np.abs(s_er - [78.95, 21.05]) <= 3.0)
    )
    _report(
        7,
        ok,
        "group shares pl2 ({:.2f}, {:.2f}, {:.2f}) target (7.96, 16.94, 75.1); "
        "split pl2 ({:.2f}, {:.2f}) target (54.8, 45.2); "
        "group shares er ({:.2f}, {:.2f}, {:.2f}) target (26.2, 39.66, 34.14); "
        "split er ({:.2f}, {:.2f}) target (78.95, 21.05); all +/- 3pp".format(
            *g_pl2, *s_pl2, *g_er, *s_er
        ),
    )
    assert ordinal_pl2, f"expected High > Medium > Low group shares, got {g_pl2}"
    assert ordinal_er, f"expected Medium > High > Low group shares, got {g_er}"
    npt.assert_allclose(g_pl2, [7.96, 16.94, 75.1], rtol=0, atol=3.0)
    npt.assert_allclose(s_pl2, [54.8, 45.2], rtol=0, atol=3.0)
    npt.assert_allclose(g_er, [26.2, 39.66, 34.14], rtol=0, atol=3.0)
    npt.assert_allclose(s_er, [78.95, 21.05], rtol=0, atol=3.0)


def test_criterion_8_cost_sweeps():
    cases = [
        ("pl2 J(b=0.2)", PL2_PAPER_GD, PL2_CG, paper_cost(0.2, 0.5), 0.6241),
        ("pl2 J(b=1)", PL2_PAPER_GD, PL2_CG, paper_cost(1.0, 0.5), 0.8419),
        ("er J(b=0.2)", ER_PAPER_GD, ER_CG, paper_cost(0.2, 0.5), 0.7273),
        ("er J(b=1)", ER_PAPER_GD, ER_CG, paper_cost(1.0, 0.5), 1.4314),
        ("pl2 J(c=0.2)", PL2_PAPER_GD, PL2_CG, paper_cost(0.25, 0.2), 0.5873),
        ("pl2 J(c=1)", PL2_PAPER_GD, PL2_CG, paper_cost(0.25, 1.0), 0.7392),
        ("er J(c=0.2)", ER_PAPER_GD, ER_CG, paper_cost(0.25, 0.2), 0.6989),
        ("er J(c=1)", ER_PAPER_GD, ER_CG, paper_cost(0.25, 1.0), 0.8711),
    ]
    measured_j = [
        _optimal(gd, cg, cost=cost)[0].J for _, gd, cg, cost, _ in cases
    ]
    targets_j = [t for *_, t in cases]

    split_cases = [((0.1, 0.1), (49.9, 50.1)), ((1.0, 1.0), (44.7, 55.3)),
                   ((0.5, 0.1), (25.94, 74.06)), ((0.1, 0.5), (71.85, 28.15))]
    measured_s = []
    for (b, c), _ in split_cases:
        cost = paper_cost(b, c)
        result, traj = _optimal(PL2_PAPER_GD, PL2_CG, cost=cost)
        measured_s.append(
            resource_allocation(result.schedule, PL2_CG, cost, traj).strategy_shares
        )
    targets_s = [t for _, t in split_cases]

    ok_j = np.abs(np.array(measured_j) / targets_j - 1.0) <= 0.05
    ok_s = np.all(np.abs(np.array(measured_s) - targets_s) <= 4.0, axis=1)
    details = "; ".join(
        f"{name}={m:.4f} (target {t})"
        for (name, *_, t), m in zip(cases, measured_j)
    )
    details += "; splits " + ", ".join(
        f"(b={b},c={c})=({m[0]:.1f}/{m[1]:.1f}) target {t}"
        for ((b, c), t), m in zip(split_cases, measured_s)
    )
    _report(8, bool(np.all(ok_j) and np.all(ok_s)), details)
    npt.assert_allclose(measured_j, targets_j, rtol=0.05)
    npt.assert_allclose(measured_s, targets_s, rtol=0, atol=4.0)


def test_criterion_9_property_suite(pl2_optimal, er_optimal):
    items = {}

    # conservation and nonnegativity across randomized configurations; a
    # sweep whose state leaves [0, 1] raises
    rng = np.random.default_rng(2024)
    worst_gap, nonneg = 0.0, True
    for _ in range(100):
        if rng.random() < 0.5:
            k_min = int(rng.integers(1, 4))
            k_max = k_min + int(rng.integers(10, 60))
            dist = power_law_distribution(rng.uniform(1.5, 3.0), k_min, k_max)
        else:
            lam = rng.uniform(2.0, 20.0)
            dist = poisson_distribution(lam, 1, int(lam + 6 * np.sqrt(lam)) + 1)
        params = EpidemicParams(
            beta=rng.uniform(0.05, 8.0) / dist.k_max,
            gamma=rng.uniform(0.05, 1.0),
            i0=rng.uniform(1e-4, 0.2),
            duration=float(rng.uniform(5.0, 25.0)),
        )
        grid = TimeGrid(801, params.duration)
        z = int(rng.integers(1, dist.n_classes + 1))
        gd = grouped_stats(dist, partition_equal_mass(dist, z))
        if rng.random() < 0.3:
            traj = simulate_grouped(gd, None, None, params, grid)
        else:
            m = int(rng.integers(1, gd.n_groups + 1))
            cg = amass_control_groups(gd, m)
            scale = rng.uniform(0.0, 1.0)
            sched = ControlSchedule(
                scale * rng.random((m, grid.n_points)),
                scale * rng.random((m, grid.n_points)),
                grid,
            )
            traj = simulate_grouped(gd, cg, sched, params, grid)
        gap = np.abs(traj.s_hat + traj.i_hat + traj.r_hat - 1.0).max()
        worst_gap = max(worst_gap, gap, np.abs(traj.s + traj.i + traj.r - 1.0).max())
        nonneg &= bool(traj.s.min() >= 0 and traj.i.min() >= 0 and traj.r.min() >= -1e-12)
    items["conservation"] = worst_gap <= 1e-9 and nonneg

    # identity grouping reproduces the full model
    items["identity_grouping"] = (
        grouping_error(PL2, [PL2.n_classes], DEFAULTS, GRID)[0] <= 1e-12
        and grouping_error(ER, [ER.n_classes], DEFAULTS, GRID)[0] <= 1e-12
    )

    # adjoint gradient vs central differences at random coordinates, for the
    # default and the paper's setting (the dose functional at coordinates
    # whose block is still dosed)
    rng = np.random.default_rng(99)
    fd_ok = True
    for gds, cg in (((PL2_GD, PL2_PAPER_GD), PL2_CG), ((ER_GD, ER_PAPER_GD), ER_CG)):
        for gd, cost in zip(gds, (COST, PAPER_COST)):
            problem = OptimizationProblem(gd, cg, DEFAULTS, cost, GRID)
            sched = constant_strategy(DEFAULTS, GRID, 3)
            x = np.concatenate([sched.u.ravel(), sched.v.ravel()])
            x += rng.uniform(0.01, 0.3, x.size)
            _, grad = objective_and_gradient(problem, x)
            pool = x.size if cost.functional == "rate" else dosed_coordinates(problem, x)
            idx = rng.choice(pool, size=20, replace=False)
            fd = finite_difference_gradient(problem, x, indices=idx)
            rel = np.abs(grad[idx] - fd) / np.maximum(np.abs(fd), 1e-8)
            fd_ok &= bool(rel.max() < 1e-5)
    items["adjoint_vs_fd"] = fd_ok

    # integrator order on y' = -y (beta=0, gamma=1 leaves pure decay)
    dist = DegreeDistribution(5, 5, [1.0])
    gd1 = grouped_stats(dist, partition_equal_mass(dist, 1))
    decay = EpidemicParams(beta=0.0, gamma=1.0, i0=0.5, duration=1.0)
    exact = 0.5 * np.exp(-1.0)
    errs = [
        abs(simulate_grouped(gd1, None, None, decay, TimeGrid(n, 1.0)).i[-1] - exact)
        for n in (101, 201)
    ]
    ratio = errs[0] / errs[1]
    items["heun_order"] = 3.9 <= ratio <= 4.1

    # optimizer descent record never increases
    items["descent"] = bool(
        np.all(np.diff(pl2_optimal.history) <= 1e-12)
        and np.all(np.diff(er_optimal.history) <= 1e-12)
    )

    # allocation normalizations
    rng = np.random.default_rng(7)
    alloc_ok = True
    schedules = [pl2_optimal.schedule, er_optimal.schedule] + [
        ControlSchedule(rng.random((3, GRID.n_points)), rng.random((3, GRID.n_points)), GRID)
        for _ in range(10)
    ]
    for sched in schedules:
        alloc = resource_allocation(sched, PL2_CG, COST)
        alloc_ok &= bool(
            abs(alloc.pair_shares.sum() - 100.0) <= 1e-9
            and abs(alloc.group_shares.sum() - 100.0) <= 1e-9
            and abs(alloc.strategy_shares.sum() - 100.0) <= 1e-9
        )
    items["allocation_sums"] = alloc_ok

    ok = all(items.values())
    _report(9, ok, "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in items.items())
            + f"; worst conservation gap {worst_gap:.2e}, heun ratio {ratio:.3f}")
    assert ok, f"failed items: {[k for k, v in items.items() if not v]}"
