"""Benchmark of the ``epinetopt`` command line.

Runs one workload's CLI command as a user would, in a fresh process at a
time, checks every output, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload compare_default --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs (see ``bench/tracer.py``) and reports the
per-module metrics. ``--workload all`` runs every workload in both modes.
Scratch files go to ``.bench_work/`` in the repository root. Why each
workload and metric was chosen is in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import edgelist  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170  # a run of this script must end within 180 s
SWEEP_VALUES = (0.1, 0.25, 0.5, 1.0)
Z_RANGE = (1, 100)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # subcommand and its arguments
    config: str  # file under bench/
    setup: str  # what probe_setup.py builds: "build" or "distribution"
    edge_list: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare_default", ("compare",), "experiment.ini", "build"),
        Workload("sweep_cost",
                 ("sweep", "--parameter", "b", "--values", ",".join(map(str, SWEEP_VALUES))),
                 "experiment.ini", "build"),
        Workload("group_error_full",
                 ("group-error", "--z-min", str(Z_RANGE[0]), "--z-max", str(Z_RANGE[1])),
                 "experiment.ini", "distribution"),
        Workload("edge_list_compare", ("compare",), "edge_list.ini", "build", edge_list=True),
    )
}


@dataclass
class Sample:
    """One child process: exit code, wall and CPU seconds, peak RSS."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


@dataclass
class Run:
    """State of one benchmark run of one workload."""

    workload: Workload
    seed: int
    overrides: tuple[str, ...]
    deadline: float
    env: dict = field(default_factory=dict)
    reference: dict | None = None
    network: dict | None = None  # expected summary [network] values
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, results: list[list[str]], what: str) -> bool:
        """Count operations; returns True when all of them passed."""
        self.attempted += len(results)
        bad = [p for p in results if p]
        self.failed += len(bad)
        for p in bad:
            self.problems.append(f"{what}: {'; '.join(p)}")
        return not bad


def spawn(run: Run, argv: list[str], log: Path) -> Sample:
    """Run a child to completion; kill it when the run's deadline passes."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=run.env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, run.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, log)


def prepare(workload: Workload, seed: int, overrides=(), n_nodes=edgelist.N_NODES) -> Run:
    """Untimed set-up: environment, reference values, generated edge list."""
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = Run(workload, seed, tuple(overrides), time.monotonic() + RUN_BUDGET_S, env)
    if not overrides and n_nodes == edgelist.N_NODES:
        # Recorded at the seed commit for these exact inputs only.
        run.reference = json.loads((BENCH / "reference.json").read_text())
    if workload.edge_list:
        edges = edgelist.generate(seed, n_nodes)
        path = WORK / "edges.txt"
        edgelist.write(edges, path)
        expected = edgelist.expected_counts(edges)
        run.overrides += (f"network.path={path}",)
        run.network = {"degree_range": f"{expected['k_min']}-{expected['k_max']}",
                       "classes": expected["k_max"] - expected["k_min"] + 1}
        sample = spawn(run, [sys.executable, "-m", "epinetopt.cli", "ingest", "--input",
                             str(path), "--output", str(WORK / "edges.dist")],
                       WORK / "ingest.log")
        results = checks.check_ingest(sample.log.read_text(), expected)
        if sample.code != 0:
            results = [[f"exit code {sample.code}"]]
        run.record(results, "ingest")
    return run


def cli_argv(run: Run, out: Path) -> list[str]:
    argv = [*run.workload.command, "-c", str(BENCH / run.workload.config), "--output", str(out)]
    for item in run.overrides:
        argv += ["--set", item]
    return argv


def check(run: Run, out: Path, sample: Sample) -> bool:
    """Check one CLI run's outputs and count its operations."""
    name = run.workload.name
    ref = run.reference
    tol = ref["tolerance"] if ref else None
    if name == "sweep_cost":
        results = checks.check_sweep(out, list(SWEEP_VALUES), ref and ref[name]["rows"], tol)
    elif name == "group_error_full":
        results = checks.check_group_error(
            out, Z_RANGE, ref and ref[name]["combined_relative_error"], tol)
    else:
        results = checks.check_compare(out, ref and ref.get(name), tol, run.network)
    if sample.code != 0:
        tail = sample.log.read_text(errors="replace")[-500:]
        results = [[f"exit code {sample.code}: {tail}"]] * len(results)
    return run.record(results, f"{name} run")


def run_cli(run: Run, traced_as: str | None = None) -> tuple[Sample, bool]:
    """One CLI command in a fresh process; ``traced_as`` is a spans file."""
    out = WORK / f"out-{run.workload.name}"
    shutil.rmtree(out, ignore_errors=True)
    argv = cli_argv(run, out)
    if traced_as is None:
        argv = [sys.executable, "-m", "epinetopt.cli", *argv]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), traced_as, Path(traced_as).stem,
                "--", *argv]
    sample = spawn(run, argv, WORK / f"{run.workload.name}.log")
    return sample, check(run, out, sample)


def probe_setup(run: Run) -> float:
    argv = [sys.executable, str(BENCH / "probe_setup.py"), run.workload.setup,
            str(BENCH / run.workload.config), *run.overrides]
    sample = spawn(run, argv, WORK / "setup.log")
    text = sample.log.read_text(errors="replace")
    if sample.code != 0:
        run.problems.append(f"set-up probe exit code {sample.code}: {text[-500:]}")
        return sample.wall_s
    return float(text.split()[-1])


def measure(run: Run, seconds: float, once) -> list:
    """Call ``once()`` while another call is expected to fit in ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - t0)
    return results


def end_to_end(run: Run, seconds: float) -> dict:
    setup = [probe_setup(run) for _ in range(SETUP_REPEATS)]
    samples = measure(run, seconds, lambda: run_cli(run))
    passed = [s for s, ok in samples if ok] or [s for s, _ in samples]
    values = {
        "wall_s": [s.wall_s for s in passed],
        "cpu_s": [s.cpu_s for s in passed],
        "setup_s": setup,
        "peak_rss_mb": [s.peak_rss_mb for s in passed],
    }
    return {name: (statistics.median(values[name]), unit, values[name])
            for name, unit in END_TO_END}


def src_lines() -> dict[str, int]:
    def count(path):
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)

    lines = {f"{m}.src_lines": count(SRC / "epinetopt" / f"{m}.py") for m in tracer.MODULES}
    lines["src.lines"] = sum(count(p) for p in SRC.rglob("*.py"))
    return lines


def per_layer(run: Run, seconds: float) -> dict:
    counter = itertools.count()

    def pair():
        untraced, _ = run_cli(run)
        spans_path = WORK / f"spans-{run.workload.name}-{run.seed}-{next(counter)}.json"
        traced, _ = run_cli(run, traced_as=str(spans_path))
        spans = json.loads(spans_path.read_text()) if traced.code == 0 else []
        return untraced.wall_s, traced.wall_s, spans

    pairs = measure(run, seconds, pair)
    derived = [tracer.derive(spans) for _, _, spans in pairs if spans]
    if not derived:
        run.problems.append("no traced run completed")
        derived = [tracer.derive([])]
    units = {name: (unit, kind) for name, unit, kind in tracer.PER_LAYER}
    metrics = {}
    for name, values in {k: [d[k] for d in derived] for k in derived[0]}.items():
        unit, kind = units[name]
        if kind == "count" and len(set(values)) > 1:
            run.problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = (values[0] if kind == "count" else statistics.median(values), unit, values)
    out = WORK / f"out-{run.workload.name}"
    metrics["cli.bytes_written"] = (
        sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.is_dir() else 0,
        "B", [])
    for name, value in src_lines().items():
        metrics[name] = (value, "lines", [])
    untraced = statistics.median(u for u, _, _ in pairs)
    traced = statistics.median(t for _, t, _ in pairs)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio", [])
    print(f"untraced wall_s = {untraced!r} s, traced wall_s = {traced!r} s (n={len(pairs)})")
    if metrics["dynamics.clamp_events"][0] != 0:
        run.problems.append("forward sweeps clamped the state")
    repeated, sweeps = tracer.duplicate_counts(pairs[0][2])
    print(f"duplicate forward sweeps = {repeated}/{sweeps}")
    return {name: metrics[name] for name, _, _ in tracer.PER_LAYER}


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "seed": seed,
        **src_lines(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 overrides=(), n_nodes=edgelist.N_NODES):
    """Prepare, measure and check one workload; returns (run, metrics)."""
    run = prepare(workload, seed, overrides, n_nodes)
    metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    return run, metrics


def report(workload: str, trace: bool, run: Run, metrics: dict) -> None:
    print(f"# {workload} (trace {int(trace)}, seed {run.seed})")
    for name, (value, unit, samples) in metrics.items():
        spread = f" (n={len(samples)}: {', '.join(f'{x:.4g}' for x in samples)})" if samples else ""
        print(f"{name} = {value!r} {unit}{spread}")
    rate = run.failed / run.attempted if run.attempted else float("nan")
    print(f"error_rate = {rate!r} ({run.failed}/{run.attempted} operations failed)")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epinetopt" / "cli.py").is_file():
        print(f"error: no epinetopt sources under {SRC}", file=sys.stderr)
        return 2

    print("environment = " + json.dumps(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    correct, attempted, failed, result = True, 0, 0, {}
    for name in names:
        for trace in modes:
            run, metrics = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            report(name, trace, run, metrics)
            correct = correct and not run.problems and run.attempted > 0
            attempted += run.attempted
            failed += run.failed
            prefix = f"{name}." if args.workload == "all" else ""
            result.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
