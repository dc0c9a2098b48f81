"""End-to-end tests of the command-line experiment runner."""

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from epinetopt import cli, dynamics, optimizer
from epinetopt.cli import ExperimentConfig, main, write_history_csv
from epinetopt.errors import ConfigError
from epinetopt.network import read_distribution
from epinetopt.optimizer import OptimizationProblem, optimize

# Small instance so the optimizing subcommands stay fast.
SMALL = [
    "--set", "network.k_min=3",
    "--set", "network.k_max=12",
    "--set", "grouping.z=4",
    "--set", "grouping.m=2",
    "--set", "grid.points=201",
]


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    assert main(["compare", "--output", str(out), *SMALL]) == 0
    return out


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_file(None)
        assert cfg.network == {"kind": "power_law", "alpha": 2.0, "k_min": 6, "k_max": 105}
        assert (cfg.params.beta, cfg.params.gamma) == (0.5, 0.25)
        assert (cfg.params.i0, cfg.params.duration) == (0.01, 20.0)
        assert (cfg.cost.b, cfg.cost.c) == (0.25, 0.5)
        assert (cfg.n_groups, cfg.n_control) == (21, 3)
        assert cfg.grid.n_points == 1001
        assert cfg.strategies == ("optimal", "constant", "none")

    def test_demo_config_shows_the_defaults(self):
        # the README points to demos/experiment.ini for every default value
        defaults = ExperimentConfig.from_file(None)
        demo = Path(__file__).resolve().parent.parent / "demos" / "experiment.ini"
        assert replace(ExperimentConfig.from_file(demo), output_dir=defaults.output_dir) == defaults

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[epidemic]\nbeta = 0.4\n\n[grouping]\nz = 7\n")
        cfg = ExperimentConfig.from_file(path, ["epidemic.beta=0.6"])
        assert cfg.params.beta == 0.6
        assert cfg.n_groups == 7

    def test_effective_text_round_trips(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            None, ["network.kind=poisson", "network.lambda=9.5", "epidemic.i0=0.001"]
        )
        path = tmp_path / "eff.ini"
        path.write_text(cfg.effective_text())
        assert ExperimentConfig.from_file(path) == cfg

    def test_poisson_fields(self):
        cfg = ExperimentConfig.from_file(None, ["network.kind=poisson"])
        assert cfg.network == {"kind": "poisson", "lambda": 17.5, "k_min": 1, "k_max": 45}

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[epidemics]\nbeta = 0.4\n")
        with pytest.raises(ConfigError, match="epidemics"):
            ExperimentConfig.from_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="epidemic.betta"):
            ExperimentConfig.from_file(None, ["epidemic.betta=0.4"])
        with pytest.raises(ConfigError, match="^network.kind: expected one of .* got 'lattice'$"):
            ExperimentConfig.from_file(None, ["network.kind=lattice"])

    def test_bad_number_names_field(self):
        with pytest.raises(ConfigError, match="cost.b"):
            ExperimentConfig.from_file(None, ["cost.b=cheap"])
        with pytest.raises(ConfigError, match="grid.points"):
            ExperimentConfig.from_file(None, ["grid.points=3.5"])

    @pytest.mark.parametrize("override", [
        "cost.b=-1", "epidemic.i0=1.5", "grid.points=1",
        "grouping.z=200", "grouping.m=30", "network.k_max=3",
        "grouping.z=0", "grouping.m=0",
    ])
    def test_out_of_range_names_field(self, tmp_path, capsys, override):
        # some ranges depend on the network, so they are checked when it is built
        field, _, value = override.partition("=")
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_file(None, [override]).build()
        assert main(["simulate", "--output", str(tmp_path / "out"), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and not (tmp_path / "out").exists()
        if value == "0":
            assert err == f"error: {field}: must be >= 1, got 0\n"

    def test_kind_override_drops_file_network_keys(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[network]\nkind = power_law\nalpha = 2.0\nk_min = 6\nk_max = 105\n")
        out = tmp_path / "out"
        code = main([
            "simulate", "-c", str(path), "--output", str(out),
            "--set", "network.kind=poisson", "--set", "grid.points=201",
        ])
        assert code == 0
        text = (out / "effective_config.ini").read_text()
        assert "[network]\nkind = poisson\nlambda = 17.5\nk_min = 1\nk_max = 45\n" in text
        # in any order, the overrides themselves are kept
        cfg = ExperimentConfig.from_file(path, ["network.k_max=40", "network.kind=poisson"])
        assert cfg.network == {"kind": "poisson", "lambda": 17.5, "k_min": 1, "k_max": 40}

    def test_file_mixing_kinds_rejected(self, tmp_path):
        path = tmp_path / "mixed.ini"
        path.write_text("[network]\nkind = poisson\nalpha = 2.0\n")
        for overrides in ([], ["network.kind=poisson"]):
            with pytest.raises(ConfigError, match="network.alpha"):
                ExperimentConfig.from_file(path, overrides)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategies"):
            ExperimentConfig.from_file(None, ["run.strategies=optimal, greedy"])
        with pytest.raises(ConfigError, match="strategies"):
            ExperimentConfig.from_file(None, ["run.strategies="])

    def test_path_required_for_file_kinds(self):
        with pytest.raises(ConfigError, match="network.path"):
            ExperimentConfig.from_file(None, ["network.kind=edge_list"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            ExperimentConfig.from_file(None, ["beta=0.4"])


class TestCompare:
    def test_report_bundle_written(self, compare_dir):
        for name in (
            "trajectories.csv",
            "controls.csv",
            "allocation.csv",
            "summary.txt",
            "history.csv",
            "effective_config.ini",
        ):
            assert (compare_dir / name).exists()

    def test_trajectory_table(self, compare_dir):
        with open(compare_dir / "trajectories.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == [
            "t",
            "s_optimal", "i_optimal", "r_optimal",
            "s_constant", "i_constant", "r_constant",
            "s_none", "i_none", "r_none",
        ]
        data = np.loadtxt(compare_dir / "trajectories.csv", delimiter=",", skiprows=1)
        assert data.shape == (201, 10)
        npt.assert_allclose(data[:, 1:4].sum(axis=1), 1.0, atol=1e-9)

    def test_controls_table(self, compare_dir):
        data = np.loadtxt(compare_dir / "controls.csv", delimiter=",", skiprows=1)
        assert data.shape == (201, 5)  # t plus u_1, u_2, v_1, v_2
        assert data[:, 1:].min() >= 0

    def test_allocation_normalizations(self, compare_dir):
        rows = np.genfromtxt(
            compare_dir / "allocation.csv",
            delimiter=",",
            skip_header=1,
            dtype=None,
            encoding="utf-8",
        )
        for strategy in ("optimal", "constant"):
            for family in ("pair", "group", "split"):
                total = sum(
                    float(r[3]) for r in rows if r[0] == strategy and r[1] == family
                )
                npt.assert_allclose(total, 100.0, atol=1e-9)
        none_rows = [r for r in rows if r[0] == "none"]
        assert [r[2] for r in none_rows] == ["no_resources"]

    def test_summary_sections(self, compare_dir):
        text = (compare_dir / "summary.txt").read_text()
        for marker in (
            "[network]",
            "achieved_groups = 4",
            "[strategy.optimal]",
            "gradient_norm = ",
            "[strategy.none]",
            "[improvements]",
            "optimal_vs_none_percent = ",
        ):
            assert marker in text

    def test_rerun_is_bitwise_identical(self, compare_dir, tmp_path):
        assert main(["compare", "--output", str(tmp_path), *SMALL]) == 0
        for name in ("trajectories.csv", "controls.csv", "allocation.csv", "history.csv"):
            assert (tmp_path / name).read_bytes() == (compare_dir / name).read_bytes()

    def test_effective_config_reproduces_results(self, compare_dir, tmp_path):
        code = main([
            "compare",
            "-c", str(compare_dir / "effective_config.ini"),
            "--output", str(tmp_path),
        ])
        assert code == 0
        assert (
            (tmp_path / "trajectories.csv").read_bytes()
            == (compare_dir / "trajectories.csv").read_bytes()
        )


class TestOtherCommands:
    def test_simulate_skips_optimizer(self, tmp_path):
        code = main(["simulate", "--output", str(tmp_path), *SMALL])
        assert code == 0
        text = (tmp_path / "summary.txt").read_text()
        assert "[strategy.constant]" in text and "[strategy.none]" in text
        assert "optimal" not in text
        assert not (tmp_path / "history.csv").exists()

    def test_simulate_with_only_optimal_is_config_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--output", str(tmp_path), "--set", "run.strategies=optimal",
        ])
        assert code == 1
        assert "simulate" in capsys.readouterr().err

    def test_optimize_runs_single_strategy(self, tmp_path):
        code = main(["optimize", "--output", str(tmp_path), *SMALL])
        assert code == 0
        text = (tmp_path / "summary.txt").read_text()
        assert "[strategy.optimal]" in text
        assert "[strategy.constant]" not in text
        assert (tmp_path / "history.csv").exists()

    def test_zero_seed_runs_report_empty_allocation(self, tmp_path):
        code = main([
            "simulate", "--output", str(tmp_path), *SMALL,
            "--set", "epidemic.i0=0", "--set", "run.strategies=none",
        ])
        assert code == 0
        assert "J = 0.0" in (tmp_path / "summary.txt").read_text()
        assert "no_resources" in (tmp_path / "allocation.csv").read_text()

    def test_zero_seed_compare_reports_nan_improvement(self, tmp_path):
        # doing nothing costs J = 0 with no one infected; no improvement over it exists
        code = main(["compare", "--output", str(tmp_path), *SMALL, "--set", "epidemic.i0=0"])
        assert code == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        values = dict(line.split(" = ", 1) for line in lines if " = " in line)
        assert values["optimal_vs_none_percent"] == "nan"
        assert np.isfinite(float(values["optimal_vs_constant_percent"]))

    def test_zero_seed_sweep_reports_nan_improvement(self, tmp_path):
        code = main([
            "sweep", "--output", str(tmp_path), *SMALL, "--set", "epidemic.i0=0",
            "--parameter", "b", "--values", "0.25",
        ])
        assert code == 0
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["J_none"] == "0.0"
        assert cells["improvement_over_none"] == "nan"
        assert cells["error"] == ""

    def test_history_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_file(None, SMALL[1::2])
        _, gd, cg = cfg.build()
        res = optimize(OptimizationProblem(gd, cg, cfg.params, cfg.cost, cfg.grid))
        path = tmp_path / "history.csv"
        write_history_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,J"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(res.history)
        npt.assert_allclose(data[:, 1], res.history)
        assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]

    def test_failed_line_search_iterations_match_history(self, tmp_path, monkeypatch):
        # at these weights a search that tries the unit step only fails
        # after 11 accepted steps
        monkeypatch.setattr(optimizer, "_MAX_BACKTRACKS", 1)
        code = main([
            "optimize", "--output", str(tmp_path), *SMALL, "--set", "cost.b=20", "--set", "cost.c=40",
        ])
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert "converged = False" in summary
        rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
        assert f"iterations = {len(rows) - 1}" in summary

    def test_group_error_table(self, tmp_path):
        code = main([
            "group-error", "--output", str(tmp_path), *SMALL,
            "--z-min", "9", "--z-max", "10",
        ])
        assert code == 0
        data = np.loadtxt(tmp_path / "group_error.csv", delimiter=",", skiprows=1)
        npt.assert_array_equal(data[:, 0], [9, 10])
        assert data[0, 1] > data[1, 1] >= 0
        assert data[1, 1] <= 1e-12  # ten classes: Z=10 reproduces every class

    def test_group_error_on_zero_mass_class(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("6 0.4\n7 0.3\n8 0.0\n9 0.3\n")
        with pytest.warns(UserWarning, match="merged"):
            code = main([
                "group-error", "--output", str(tmp_path / "out"),
                "--set", "network.kind=distribution", "--set", f"network.path={path}",
            ])
        assert code == 0
        data = np.loadtxt(tmp_path / "out" / "group_error.csv", delimiter=",", skiprows=1)
        npt.assert_array_equal(data[:, 0], [1, 2, 3, 4])
        assert data[-1, 1] <= 1e-12

    def test_group_error_range_validated(self, tmp_path, capsys):
        code = main([
            "group-error", "--output", str(tmp_path), *SMALL, "--z-max", "99",
        ])
        assert code == 1
        assert "group-error range" in capsys.readouterr().err

    def test_sweep_table(self, tmp_path):
        code = main([
            "sweep", "--output", str(tmp_path), *SMALL,
            "--parameter", "b", "--values", "0.25,1.0",
        ])
        assert code == 0
        data = np.loadtxt(
            tmp_path / "sweep.csv", delimiter=",", skiprows=1, usecols=range(9)
        )
        npt.assert_array_equal(data[:, 0], [0.25, 1.0])
        assert np.all(data[:, 1] < data[:, 2]) and np.all(data[:, 1] < data[:, 3])

    def test_sweep_bad_values(self, tmp_path, capsys):
        for values in ("a,b", ","):
            code = main([
                "sweep", "--output", str(tmp_path), "--parameter", "b", "--values", values,
            ])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: --values: ")

    def test_ingest_round_trip(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n3 1\n1 1\n2 3\n")
        out = tmp_path / "dist.txt"
        assert main(["ingest", "--input", str(edges), "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "nodes = 3" in stdout and "self_loops_dropped = 1" in stdout
        dist = read_distribution(out)
        assert (dist.k_min, dist.k_max) == (2, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.txt", "edges.txt"]

    def test_edge_list_compare_matches_its_ingested_distribution(self, tmp_path):
        # 60 nodes and 150 edges; the last two add a self-loop and a repeat of the first edge
        ends = np.random.default_rng(5).integers(1, 61, size=(148, 2))
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{a} {b}\n" for a, b in [*ends, (7, 7), ends[0][::-1]]))
        dist = tmp_path / "dist.txt"
        assert main(["ingest", "--input", str(edges), "--output", str(dist)]) == 0
        out = {}
        for kind, path in (("edge_list", edges), ("distribution", dist)):
            out[kind] = tmp_path / kind
            assert main([
                "compare", "--output", str(out[kind]),
                "--set", f"network.kind={kind}", "--set", f"network.path={path}",
                "--set", "grouping.z=4", "--set", "grouping.m=2", "--set", "grid.points=201",
            ]) == 0
        by_edges, by_dist = out["edge_list"], out["distribution"]
        for name in ("trajectories.csv", "controls.csv", "allocation.csv", "history.csv"):
            assert (by_edges / name).read_bytes() == (by_dist / name).read_bytes()
        lines = [(by_edges / "summary.txt").read_text().splitlines(),
                 (by_dist / "summary.txt").read_text().splitlines()]
        assert len(lines[0]) == len(lines[1])
        assert [pair for pair in zip(*lines) if pair[0] != pair[1]] == [
            ("kind = edge_list", "kind = distribution")
        ]

    def test_ingest_keep_duplicates_rejects_repeated_edge(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 1\n")
        out = tmp_path / "dist.txt"
        assert main(["ingest", "--input", str(edges), "--output", str(out)]) == 0
        capsys.readouterr()
        code = main(["ingest", "--input", str(edges), "--output", str(out), "--keep-duplicates"])
        assert code == 3
        assert "duplicate edge" in capsys.readouterr().err

    def test_ingest_malformed_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2 3 4\n")
        code = main(["ingest", "--input", str(edges), "--output", str(tmp_path / "d.txt")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["compare", "-c", str(tmp_path / "nope.ini")]) == 3

    def test_non_utf8_distribution_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        path.write_bytes(b"# degr\xe9e probabilit\xe9\n2 0.5\n3 0.5\n")
        code = main([
            "compare", "--output", str(tmp_path / "out"),
            "--set", "network.kind=distribution", "--set", f"network.path={path}",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(path) in err and "UTF-8" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, line",
        [
            ("6 nan\n7 nan\n", 1),
            ("6 0.5\n7 nan\n8 0.5\n", 2),
            ("6 -0.5\n7 1.5\n", 1),
            ("6 inf\n7 0.5\n", 1),
        ],
        ids=["all-nan", "nan", "negative", "inf"],
    )
    def test_bad_probability_is_io_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "dist.txt"
        path.write_text(text)
        code = main([
            "compare", "--output", str(tmp_path / "out"), "--set", "grouping.z=3",
            "--set", "network.kind=distribution", "--set", f"network.path={path}",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {path}:{line}: probability must be finite")
        assert not (tmp_path / "out").exists()

    def test_degree_below_one_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        path.write_text("0 0.5\n1 0.5\n")
        code = main([
            "simulate", "--output", str(tmp_path / "out"),
            "--set", "network.kind=distribution", "--set", f"network.path={path}",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {path}:1: degree must be >= 1, got 0")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        # not UTF-8, and a key before any section header
        for text in (b"# exp\xe9rience\n[cost]\nb = 0.25\n", b"b = 0.25\n[cost]\n"):
            path.write_bytes(text)
            code = main(["compare", "-c", str(path), "--output", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid config file: ") and str(path) in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--set", "run.output="], ["--output", ""], ["--output", "  "],
    ], ids=["set", "flag", "whitespace"])
    def test_empty_output_is_config_error_before_any_solve(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "optimize", no_solve)
        monkeypatch.chdir(tmp_path)
        assert main(["compare", *SMALL, *flags]) == 1
        assert capsys.readouterr().err == "error: run.output: must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_field_is_config_error(self, tmp_path):
        code = main(["compare", "--output", str(tmp_path), "--set", "epidemic.bogus=1"])
        assert code == 1

    def test_clamped_group_error_is_numerical_failure(self, tmp_path, capsys):
        code = main(["group-error", "--output", str(tmp_path), "--set", "grid.points=251"])
        assert code == 2
        assert "the reference model left [0, 1] at grid step" in capsys.readouterr().err
        assert not (tmp_path / "group_error.csv").exists()

    @pytest.mark.parametrize("overrides", [
        ["grid.points=126"], ["grid.points=201"], ["grid.points=3"],
        ["cost.b=20", "cost.c=40", "grid.points=201"],
    ], ids=["126", "201", "3", "costly-201"])
    def test_grid_too_coarse_names_the_strategy_and_step(self, overrides, tmp_path, capsys):
        # the constant start of the optimal strategy leaves [0, 1] on each grid
        root = Path(__file__).resolve().parent.parent
        code = main(["compare", "-c", str(root / "bench" / "experiment.ini"),
                     "--output", str(tmp_path / "out"), *(a for o in overrides for a in ("--set", o))])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: strategy optimal: state left \[0, 1\] "
                            r"at grid step [1-9]\d*\n", err), err
        assert not (tmp_path / "out").exists()

    def test_non_finite_objective_is_numerical_failure(self, tmp_path):
        with np.errstate(over="ignore"):
            code = main([
                "optimize", "--output", str(tmp_path), *SMALL,
                "--set", "cost.b=1.7e308",
            ])
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_numerical_failure_without_warnings(self, tmp_path, capsys):
        code = main(["compare", "--output", str(tmp_path), *SMALL, "--set", "epidemic.beta=40"])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: strategy optimal: state left [0, 1] at grid step 1\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_sweep_records_overflow_in_its_row(self, tmp_path):
        code = main([
            "sweep", "--output", str(tmp_path), *SMALL,
            "--parameter", "beta", "--values", "0.5,40",
        ])
        assert code == 0
        ok, failed = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert ok.startswith("0.5,") and ok.endswith(",True,")
        assert failed.startswith("40.0,nan,") and failed.endswith(',"state left [0, 1] at grid step 1"')

    @pytest.mark.parametrize("source", ["override", "file"])
    def test_solver_section_is_config_error(self, tmp_path, capsys, source):
        # an effective config written before the solver settings became constants
        path = tmp_path / "old.ini"
        path.write_text("[solver]\nmemory = 10\n")
        given = ["--set", "solver.memory=10"] if source == "override" else ["-c", str(path)]
        code = main(["optimize", "--output", str(tmp_path / "out"), *SMALL, *given])
        assert code == 1
        assert "unknown config section [solver]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_bad_flag_remaps_argparse_exit(self, capsys):
        assert main(["sweep", "--parameter", "gamma", "--values", "1"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        listed = capsys.readouterr().out.split()
        for command in ("simulate", "optimize", "compare", "group-error", "sweep", "ingest"):
            assert command in listed


def gone_or_zombie(pid):
    """Whether process ``pid`` has exited: it is gone, or a zombie not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestKilledRun:
    """A forking command's children do not outlive it, however it is ended."""

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs /proc/<pid>/task/<pid>/children")
    @pytest.mark.skipif(dynamics._cpus() < 2, reason="needs two usable CPUs to fork")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--parameter", "b", "--values", "0.1,0.25,0.5,1"],
        ["group-error", "--z-min", "1", "--z-max", "100"],
    ], ids=["sweep", "group-error"])
    def test_children_end_with_the_run(self, command, sig, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "epinetopt.cli", *command,
             "-c", str(root / "bench" / "experiment.ini"), "--output", str(tmp_path / "out")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # signal the run as soon as it has forked, ~0.3-0.5 s in
        listing, children = f"/proc/{proc.pid}/task/{proc.pid}/children", []
        try:
            while not children and proc.poll() is None:
                with open(listing) as found:
                    children = found.read().split()
                time.sleep(0.002)
            proc.send_signal(sig)
        finally:
            code = proc.wait(timeout=60)
        assert children, "the run ended without forking"
        assert code == (143 if sig == signal.SIGTERM else -signal.SIGKILL)
        # a child left running would finish its share 1-2 s later
        deadline = time.monotonic() + 1.0
        while not all(map(gone_or_zombie, children)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(map(gone_or_zombie, children))
