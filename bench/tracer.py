"""Span tracer for the benchmark's traced runs.

The tracer replaces, by the name the calling module looks up, each function
through which one epinetopt module calls into another, and records one span
per call: name, start, end, parent span and run id. Spans stay in memory and
are written out when the traced command ends. :func:`derive` turns the spans
of one run into the per-module metrics listed in ``PER_LAYER``.

Run as a script, it executes one ``epinetopt`` command under the tracer::

    PYTHONPATH=src python3 bench/tracer.py SPANS.json RUN_ID -- compare -c bench/experiment.ini
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

MODULES = ("network", "grouping", "dynamics", "control", "optimizer", "cli")

# (name, unit, kind): "count" metrics repeat exactly from run to run, "time"
# metrics are measured; both are reported for every workload.
PER_LAYER = (
    ("network.ingest_s", "s", "time"),
    ("network.edges_per_s", "1/s", "time"),
    ("grouping.build_s", "s", "time"),
    ("grouping.grouping_error.calls", "count", "count"),
    ("grouping.grouping_error.self_s", "s", "time"),
    ("dynamics.forward.calls", "count", "count"),
    ("dynamics.forward.steps", "count", "count"),
    ("dynamics.forward.total_s", "s", "time"),
    ("dynamics.forward.us_per_step", "us", "time"),
    ("dynamics.forward.duplicate_ratio", "ratio", "count"),
    ("dynamics.clamp_events", "count", "count"),
    ("optimizer.solves", "count", "count"),
    ("optimizer.iterations", "count", "count"),
    ("optimizer.n_forward", "count", "count"),
    ("optimizer.n_gradient", "count", "count"),
    ("optimizer.n_backtracks", "count", "count"),
    ("optimizer.n_resets", "count", "count"),
    ("optimizer.adjoint.self_s", "s", "time"),
    ("optimizer.adjoint.us_per_step", "us", "time"),
    ("optimizer.line_search.total_s", "s", "time"),
    ("optimizer.solver.self_s", "s", "time"),
    ("control.evaluate_cost.calls", "count", "count"),
    ("control.total_s", "s", "time"),
    ("cli.config_s", "s", "time"),
    ("cli.report_write_s", "s", "time"),
    ("cli.bytes_written", "B", "count"),
    *((f"{m}.src_lines", "lines", "count") for m in MODULES),
    ("src.lines", "lines", "count"),
    ("trace.overhead_ratio", "ratio", "time"),
    ("trace.self_coverage", "ratio", "time"),
)


class Tracer:
    """Records spans of wrapped calls; :meth:`uninstall` restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._forward_inputs: set[bytes] = set()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``describe(args, kwargs, result)`` returns extra span fields; it runs
        after the span has ended.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def describe_forward(self, args, kwargs, traj) -> dict:
        """Steps, clamp events and whether these sweep inputs were seen before."""
        gd, params, grid, *rest = args
        u_z = kwargs.get("u_z", rest[0] if rest else None)
        v_z = kwargs.get("v_z", rest[1] if len(rest) > 1 else None)
        if u_z is None:  # uncontrolled: _integrate runs with zero controls
            u_z = v_z = np.zeros((len(gd.k_hat), grid.n_points))
        h = hashlib.blake2b(digest_size=16)
        for a in (gd.p_hat, gd.q_hat, gd.k_hat, u_z, v_z):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr((params.beta, params.gamma, params.i0, params.duration,
                       grid.n_points, grid.duration)).encode())
        key = h.digest()
        duplicate = key in self._forward_inputs
        self._forward_inputs.add(key)
        return {
            "steps": grid.n_points - 1,
            "clamps": int(traj.clamp_events),
            "duplicate": duplicate,
        }


def install(tracer: Tracer) -> None:
    """Wrap the cross-module call sites of epinetopt, by the caller's names."""
    import epinetopt.cli as cli
    import epinetopt.dynamics as dynamics
    import epinetopt.optimizer as optimizer

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(cli, "_load_config", "cli.config")
    for attr in ("_write_table", "_atomic_write", "write_history_csv"):
        wrap(cli, attr, "cli.report_write")
    for attr in ("power_law_distribution", "poisson_distribution", "read_distribution"):
        wrap(cli, attr, "network.distribution")
    wrap(cli, "load_edge_list", "network.ingest", lambda a, k, r: {"edges": len(r)})
    wrap(cli, "from_edge_list", "network.ingest")
    for attr in ("partition_equal_mass", "grouped_stats", "amass_control_groups"):
        wrap(cli, attr, "grouping.build")
    wrap(cli, "grouping_error", "grouping.grouping_error")
    # optimizer imports _integrate itself; simulate_full/simulate_grouped (also
    # as grouping_error imports them) reach it through the dynamics module.
    for module in (dynamics, optimizer):
        wrap(module, "_integrate", "dynamics.forward", tracer.describe_forward)
    for module in (cli, optimizer):  # cli.optimize for compare, optimizer.optimize for sweep
        wrap(module, "optimize", "optimizer.solve",
             lambda a, k, r: {"iterations": int(r.iterations)})
        for attr in ("evaluate_cost", "constant_strategy", "zero_strategy"):
            wrap(module, attr, f"control.{attr}")
    wrap(cli, "sweep", "optimizer.sweep")
    wrap(optimizer, "objective_and_gradient", "optimizer.gradient")
    wrap(optimizer, "_line_search", "optimizer.line_search",
         lambda a, k, r: {"accepted": r is not None})
    wrap(cli, "resource_allocation", "control.resource_allocation")


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children's spans cover."""
    start, end = span["start"], span["end"]
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def derive(spans: list[dict]) -> dict[str, float]:
    """Per-module metrics of one traced run (all but src lines and overhead).

    A span whose call raised has no fields from ``describe``; it counts as zero.
    """
    children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    self_s = {s["id"]: self_time(s, children[s["id"]]) for s in spans}

    def named(prefix):
        return [s for s in spans if s["name"] == prefix or s["name"].startswith(prefix + ".")]

    def total(items):
        return sum((s["end"] - s["start"] for s in items), 0.0)

    def own(items):
        return sum((self_s[s["id"]] for s in items), 0.0)

    forward = named("dynamics.forward")
    steps = sum(s.get("steps", 0) for s in forward)
    ingest = named("network.ingest")
    ingest_s = total(ingest)
    edges = sum(s.get("edges", 0) for s in ingest)
    gradients = named("optimizer.gradient")
    gradient_steps = sum(c.get("steps", 0) for g in gradients for c in children[g["id"]]
                         if c["name"] == "dynamics.forward")
    adjoint_s = own(gradients)
    searches = named("optimizer.line_search")
    search_forwards = sum(1 for s in searches for c in children[s["id"]]
                          if c["name"] == "dynamics.forward")
    # A reset retries a failed line search with steepest descent: it is the
    # line search that directly follows a failed one in the same solve.
    resets = 0
    for solve in named("optimizer.solve"):
        inner = [c for c in children[solve["id"]]
                 if c["name"] in ("optimizer.line_search", "optimizer.gradient")]
        resets += sum(1 for prev, cur in zip(inner, inner[1:])
                      if prev["name"] == cur["name"] == "optimizer.line_search"
                      and not prev.get("accepted"))
    roots = [s for s in spans if s["parent"] is None]
    root_total = total(roots)
    return {
        "network.ingest_s": ingest_s,
        "network.edges_per_s": edges / ingest_s if ingest_s > 0 else 0.0,
        "grouping.build_s": total(named("grouping.build")),
        "grouping.grouping_error.calls": len(named("grouping.grouping_error")),
        "grouping.grouping_error.self_s": own(named("grouping.grouping_error")),
        "dynamics.forward.calls": len(forward),
        "dynamics.forward.steps": steps,
        "dynamics.forward.total_s": total(forward),
        "dynamics.forward.us_per_step": total(forward) / steps * 1e6 if steps else 0.0,
        "dynamics.forward.duplicate_ratio": (
            duplicate_counts(spans)[0] / len(forward) if forward else 0.0
        ),
        "dynamics.clamp_events": sum(s.get("clamps", 0) for s in forward),
        "optimizer.solves": len(named("optimizer.solve")),
        "optimizer.iterations": sum(s.get("iterations", 0) for s in named("optimizer.solve")),
        "optimizer.n_forward": len(gradients) + search_forwards,
        "optimizer.n_gradient": len(gradients),
        "optimizer.n_backtracks": search_forwards - sum(s.get("accepted", False) for s in searches),
        "optimizer.n_resets": resets,
        "optimizer.adjoint.self_s": adjoint_s,
        "optimizer.adjoint.us_per_step": (
            adjoint_s / gradient_steps * 1e6 if gradient_steps else 0.0
        ),
        "optimizer.line_search.total_s": total(searches),
        "optimizer.solver.self_s": own(named("optimizer.solve")) + own(named("optimizer.sweep")),
        "control.evaluate_cost.calls": len(named("control.evaluate_cost")),
        "control.total_s": own(named("control")),
        "cli.config_s": total(named("cli.config")),
        "cli.report_write_s": own(named("cli.report_write")),
        "trace.self_coverage": (
            1.0 - own(roots) / root_total if root_total > 0 else 0.0
        ),
    }


def duplicate_counts(spans: list[dict]) -> tuple[int, int]:
    """(repeated forward sweeps, all forward sweeps) of one traced run."""
    forward = [s for s in spans if s["name"] == "dynamics.forward"]
    return sum(s.get("duplicate", False) for s in forward), len(forward)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- COMMAND ARGS...")
    import epinetopt.cli as cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
