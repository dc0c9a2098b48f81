"""Tests of the benchmark itself; the repository's own test run does not collect them.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer  # noqa: E402

TINY = ("grid.points=401",)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_grid_run_passes_every_check(name, trace):
    run, metrics = bench.run_workload(bench.WORKLOADS[name], seed=3, seconds=0, trace=trace,
                                      overrides=TINY, n_nodes=3000)
    assert run.problems == []
    assert run.attempted >= 1 and run.failed == 0
    expected = [n for n, _, _ in tracer.PER_LAYER] if trace else [n for n, _ in bench.END_TO_END]
    assert list(metrics) == expected
    if trace and name == "group_error_full":
        assert metrics["optimizer.solves"][0] == metrics["optimizer.n_gradient"][0] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, u) for n, u, _ in tracer.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _span(i, start, end, parent=None, name="x"):
    return {"id": i, "name": name, "parent": parent, "run": "r", "start": start, "end": end}


def test_self_time_is_span_time_minus_child_coverage():
    root = _span(0, 0.0, 10.0, name="cli.main")
    a = _span(1, 1.0, 4.0, 0, "grouping.build")
    b = _span(2, 3.0, 6.0, 0, "grouping.build")  # overlaps a
    c = _span(3, 8.0, 12.0, 0, "cli.report_write")  # runs past its parent
    grandchild = _span(4, 2.0, 3.0, 1, "network.distribution")
    assert tracer.self_time(root, [c, a, b]) == pytest.approx(10.0 - 5.0 - 2.0)
    assert tracer.self_time(a, [grandchild]) == pytest.approx(2.0)
    assert tracer.self_time(grandchild, []) == pytest.approx(1.0)
    derived = tracer.derive([root, a, b, c, grandchild])
    assert derived["trace.self_coverage"] == pytest.approx(0.7)
    assert derived["cli.report_write_s"] == pytest.approx(4.0)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_duplicate_detector_counts_k_repeats_of_one_simulation(k):
    from epinetopt import (EpidemicParams, TimeGrid, amass_control_groups, constant_strategy,
                           grouped_stats, partition_equal_mass, power_law_distribution,
                           simulate_grouped)

    dist = power_law_distribution(2.0, 6, 30)
    gd = grouped_stats(dist, partition_equal_mass(dist, 5))
    cg = amass_control_groups(gd, 2)
    params = EpidemicParams(0.5, 0.25, 0.01, 5.0)
    grid = TimeGrid(51, 5.0)
    schedule = constant_strategy(params, grid, 2)
    t = tracer.Tracer("test")
    tracer.install(t)
    try:
        for _ in range(k + 1):
            simulate_grouped(gd, cg, schedule, params, grid)
        simulate_grouped(gd, None, None, params, grid)  # different inputs: not a repeat
    finally:
        t.uninstall()
    assert tracer.duplicate_counts(t.spans) == (k, k + 2)
