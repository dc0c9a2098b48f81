"""Configuration-driven experiment runner.

A single INI-style config file describes an experiment end to end:
network model, degree grouping, epidemic parameters, cost weights,
time grid, and which strategies to run. The solver's stop rule is fixed
(see :func:`~epinetopt.optimizer.optimize`), so no config sets it. Each
subcommand turns that description into plot-ready CSV tables plus a
structured text summary. Outputs are deterministic, written atomically
(write to a sibling temp file, then rename), and the effective config —
with every default filled in — is saved next to the results so any run
can be reproduced from its own output directory.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O or ingestion error; 143 when ended by SIGTERM.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import signal
import sys
from configparser import ConfigParser
from configparser import Error as _IniError
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .control import (
    CostBreakdown,
    CostParams,
    constant_strategy,
    evaluate_cost,
    resource_allocation,
    zero_strategy,
)
from .dynamics import (
    DEFAULT_GRID_POINTS,
    ControlSchedule,
    EpidemicParams,
    TimeGrid,
    Trajectory,
    grouping_error,
    simulate_grouped,
)
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    IngestionError,
    NumericalFailureError,
    ParameterError,
)
from .grouping import amass_control_groups, grouped_stats, partition_equal_mass
from .network import (
    DegreeDistribution,
    format_distribution,
    from_edge_list,
    load_edge_list,
    poisson_distribution,
    power_law_distribution,
    read_distribution,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    SweepPoint,
    improvement_percent,
    optimize,
    sweep,
)

__all__ = ["ExperimentConfig", "main"]

STRATEGY_NAMES = ("optimal", "constant", "none")

# The config schema: section -> field -> default, in the order the effective
# config lists them. A default's type is the field's type; None marks a
# required string. [network] fields depend on the network kind.
_NETWORK_FIELDS = {
    "power_law": {"alpha": 2.0, "k_min": 6, "k_max": 105},
    "poisson": {"lambda": 17.5, "k_min": 1, "k_max": 45},
    "distribution": {"path": None},
    "edge_list": {"path": None},
}
_FIELDS = {
    "grouping": {"z": 21, "m": 3},
    "epidemic": {"beta": 0.5, "gamma": 0.25, "i0": 0.01, "duration": 20.0},
    "cost": {"b": 0.25, "c": 0.5},
    "grid": {"points": DEFAULT_GRID_POINTS},
    "run": {"strategies": "optimal, constant, none", "output": "out"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with every default filled in.

    ``network`` holds the ``[network]`` section: its ``kind`` and that
    kind's own fields, ``power_law`` (``alpha``, ``k_min``, ``k_max``),
    ``poisson`` (``lambda``, ``k_min``, ``k_max``), or one of the
    file-backed kinds ``distribution`` / ``edge_list`` (``path``). The
    remaining fields mirror the config file sections one to one.
    """

    network: dict
    n_groups: int
    n_control: int
    params: EpidemicParams
    cost: CostParams
    grid: TimeGrid
    strategies: tuple[str, ...]
    output_dir: str

    def __post_init__(self):
        _check_kind(self.network["kind"])
        if not self.strategies:
            raise ConfigError("run.strategies: at least one strategy is required")
        for name in self.strategies:
            if name not in STRATEGY_NAMES:
                raise ConfigError(
                    f"run.strategies: expected names from {STRATEGY_NAMES}, got {name!r}"
                )
        if self.n_groups < 1:
            raise ConfigError(f"grouping.z: must be >= 1, got {self.n_groups}")
        if self.n_control < 1:
            raise ConfigError(f"grouping.m: must be >= 1, got {self.n_control}")
        if not self.output_dir.strip():
            raise ConfigError("run.output: must not be empty")

    @classmethod
    def from_file(cls, path=None, overrides=()) -> "ExperimentConfig":
        """Parse a config file, apply ``section.key=value`` overrides.

        With ``path=None`` the built-in defaults alone are used. Every
        missing field falls back to its default; unknown sections, keys,
        or malformed values raise :class:`ConfigError` naming the field.
        An override that changes ``network.kind`` drops the file's other
        ``[network]`` keys, which belong to the file's kind.
        """
        cp = ConfigParser(interpolation=None)
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    cp.read_file(fh, source=os.fspath(path))
            except _IniError as exc:
                raise ConfigError(f"invalid config file: {exc}") from exc
            except UnicodeDecodeError:
                raise ConfigError(f"invalid config file: {path}: not UTF-8 text") from None
        given = ConfigParser(interpolation=None)
        for item in overrides:
            key, sep, value = item.partition("=")
            section, dot, option = key.strip().partition(".")
            if not (sep and dot and section and option):
                raise ConfigError(
                    f"overrides take the form section.key=value, got {item!r}"
                )
            if not given.has_section(section):
                given.add_section(section)
            given.set(section, option.strip(), value.strip())
        kind = given.get("network", "kind", fallback="").lower()
        if kind and kind != cp.get("network", "kind", fallback="power_law").lower():
            cp.remove_section("network")
        cp.read_dict(given)
        return cls._from_parser(cp)

    @classmethod
    def _from_parser(cls, cp: ConfigParser) -> "ExperimentConfig":
        for section in cp.sections():
            if section != "network" and section not in _FIELDS:
                raise ConfigError(f"unknown config section [{section}]")
        kind = cp.get("network", "kind", fallback="power_law").strip().lower()
        _check_kind(kind)
        network = {**_read(cp, "network", _network_fields(kind)), "kind": kind}
        values = {section: _read(cp, section, fields) for section, fields in _FIELDS.items()}
        params = _named("epidemic", EpidemicParams, **values["epidemic"])
        run = values["run"]
        names = [s.strip().lower() for s in run["strategies"].split(",") if s.strip()]
        return cls(
            network=network,
            n_groups=values["grouping"]["z"],
            n_control=values["grouping"]["m"],
            params=params,
            grid=_named("grid", TimeGrid, values["grid"]["points"], params.duration),
            cost=_named("cost", CostParams, **values["cost"]),
            strategies=tuple(dict.fromkeys(names)),
            output_dir=run["output"],
        )

    def effective_text(self) -> str:
        """Serialize the full configuration, defaults included.

        The text round-trips: parsing it with :meth:`from_file` rebuilds
        an identical config (floats are written with ``repr`` so no
        precision is lost).
        """
        values = {
            "network": self.network,
            "grouping": {"z": self.n_groups, "m": self.n_control},
            "epidemic": asdict(self.params),
            "cost": asdict(self.cost),
            "grid": {"points": self.grid.n_points},
            "run": {"strategies": ", ".join(self.strategies), "output": self.output_dir},
        }
        schema = {"network": _network_fields(self.network["kind"]), **_FIELDS}
        blocks = [
            "\n".join([f"[{section}]"]
                      + [f"{key} = {_format(values[section][key])}" for key in fields])
            for section, fields in schema.items()
        ]
        return "\n\n".join(blocks) + "\n"

    def build_distribution(self) -> DegreeDistribution:
        """Construct the degree distribution described by the network section."""
        net = self.network
        if net["kind"] == "power_law":
            return _named("network", power_law_distribution,
                          net["alpha"], net["k_min"], net["k_max"])
        if net["kind"] == "poisson":
            return _named("network", poisson_distribution,
                          net["lambda"], net["k_min"], net["k_max"])
        if net["kind"] == "distribution":
            return read_distribution(net["path"])
        dist, _ = from_edge_list(load_edge_list(net["path"]))
        return dist

    def build(self):
        """Build the (distribution, grouped stats, control groups) triple."""
        dist = self.build_distribution()
        gd = grouped_stats(dist, _named("grouping", partition_equal_mass, dist, self.n_groups))
        cg = _named("grouping", amass_control_groups, gd, self.n_control)
        return dist, gd, cg


def _check_kind(kind):
    if kind not in _NETWORK_FIELDS:
        raise ConfigError(
            f"network.kind: expected one of {', '.join(sorted(_NETWORK_FIELDS))}, got {kind!r}"
        )


def _network_fields(kind):
    return {"kind": "power_law", **_NETWORK_FIELDS[kind]}


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _read(cp, section, fields) -> dict:
    """Typed values of ``fields`` in ``section``, defaults filled in.

    Each value is parsed with the type of its default; keys that
    ``fields`` does not list are rejected.
    """
    if cp.has_section(section):
        for key in cp.options(section):
            if key not in fields:
                raise ConfigError(f"{section}.{key}: unknown field")
    values = {}
    for key, default in fields.items():
        if not cp.has_option(section, key):
            if default is None:
                raise ConfigError(f"{section}.{key}: required")
            values[key] = default
            continue
        raw = cp.get(section, key).strip()
        parse = str if default is None else type(default)
        try:
            values[key] = parse(raw)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected {_TYPE_NAMES[parse]}, got {raw!r}"
            ) from None
    return values


def _named(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value out of range names ``section.key``."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{section}.{exc.field}: {exc}") from None


# ---------------------------------------------------------------------------
# report emission


def _format(value) -> str:
    """Deterministic cell text; floats use repr so reruns are bitwise equal."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _atomic_write(path, text: str) -> None:
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_table(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format(cell) for cell in row])
    _atomic_write(path, buf.getvalue())


def write_history_csv(result: OptimizationResult, path) -> None:
    """Per-iteration objective values as a two-column CSV, both columns as ``%.18e``."""
    rows = ((f"{k:.18e}", f"{j:.18e}") for k, j in enumerate(result.history))
    _write_table(path, ["iteration", "J"], rows)


@dataclass(frozen=True)
class StrategyOutcome:
    """Everything recorded about one strategy of an experiment run."""

    name: str
    schedule: ControlSchedule
    trajectory: Trajectory
    breakdown: CostBreakdown
    result: OptimizationResult | None = None


def _run_strategy(name: str, config: ExperimentConfig, gd, cg) -> StrategyOutcome:
    if name == "optimal":
        problem = OptimizationProblem(gd, cg, config.params, config.cost, config.grid)
        result = optimize(problem)
        return StrategyOutcome(name, result.schedule, result.trajectory, result.breakdown, result)
    if name == "constant":
        schedule = constant_strategy(config.params, config.grid, cg.n_control)
    else:
        schedule = zero_strategy(config.grid, cg.n_control)
    traj = simulate_grouped(gd, cg, schedule, config.params, config.grid)
    return StrategyOutcome(name, schedule, traj, evaluate_cost(traj, schedule, cg, config.cost))


def _summary_text(config, dist, gd, cg, outcomes) -> str:
    lines = [
        "[network]",
        f"kind = {config.network['kind']}",
        f"degree_range = {dist.k_min}-{dist.k_max}",
        f"classes = {dist.n_classes}",
        f"mean_degree = {_format(dist.mean_degree)}",
        "",
        "[grouping]",
        f"requested_groups = {config.n_groups}",
        f"achieved_groups = {gd.n_groups}",
        f"boundaries = {' '.join(str(int(b)) for b in gd.grouping.boundaries)}",
        f"control_groups = {cg.n_control}",
        f"x = {' '.join(_format(v) for v in cg.x)}",
    ]
    for o in outcomes:
        lines += [
            "",
            f"[strategy.{o.name}]",
            f"J = {_format(o.breakdown.J)}",
            f"infection_term = {_format(o.breakdown.infection_term)}",
            f"vaccination_term = {_format(o.breakdown.vaccination_term)}",
            f"treatment_term = {_format(o.breakdown.treatment_term)}",
            f"cumulative_infected = {_format(o.breakdown.infection_term)}",
            f"clamp_events = {o.trajectory.clamp_events}",
        ]
        if o.result is not None:
            lines += [
                f"iterations = {o.result.iterations}",
                f"converged = {o.result.converged}",
                f"gradient_norm = {_format(o.result.gradient_norm)}",
            ]
    by_name = {o.name: o for o in outcomes}
    if "optimal" in by_name and len(outcomes) > 1:
        lines += ["", "[improvements]"]
        j_opt = by_name["optimal"].breakdown.J
        for name in ("constant", "none"):
            if name in by_name:
                gain = improvement_percent(by_name[name].breakdown.J, j_opt)
                lines.append(f"optimal_vs_{name}_percent = {_format(gain)}")
    return "\n".join(lines) + "\n"


def _allocation_rows(name: str, schedule: ControlSchedule, cg, cost: CostParams):
    alloc = resource_allocation(schedule, cg, cost)
    if alloc.no_resources:
        return [(name, "none", "no_resources", 0.0)]
    m = cg.n_control
    rows = []
    for j in range(m):
        rows.append((name, "pair", f"u_{j + 1}", alloc.pair_shares[0, j]))
    for j in range(m):
        rows.append((name, "pair", f"v_{j + 1}", alloc.pair_shares[1, j]))
    for j in range(m):
        rows.append((name, "group", f"g_{j + 1}", alloc.group_shares[j]))
    rows.append((name, "split", "vaccination", alloc.strategy_shares[0]))
    rows.append((name, "split", "treatment", alloc.strategy_shares[1]))
    return rows


def run_experiment(config: ExperimentConfig) -> None:
    """Run every configured strategy and write the report bundle.

    The output directory receives trajectories.csv (aggregate s/i/r per
    strategy), controls.csv (the optimized schedule when present, else
    the first strategy's), allocation.csv (percentage resource shares),
    summary.txt, the effective config, and history.csv whenever the
    optimizer ran. A strategy's :class:`NumericalFailureError` is raised
    with the strategy's name before anything is written.
    """
    dist, gd, cg = config.build()
    outcomes = []
    for name in config.strategies:
        try:
            outcomes.append(_run_strategy(name, config, gd, cg))
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"strategy {name}: {exc}") from exc
    out = config.output_dir

    header = ["t"]
    columns = [config.grid.t]
    for o in outcomes:
        header += [f"s_{o.name}", f"i_{o.name}", f"r_{o.name}"]
        columns += [o.trajectory.s, o.trajectory.i, o.trajectory.r]
    _write_report(config, "trajectories.csv", header, zip(*columns))

    shown = next((o for o in outcomes if o.name == "optimal"), outcomes[0])
    m = shown.schedule.n_control
    header = ["t"] + [f"u_{j + 1}" for j in range(m)] + [f"v_{j + 1}" for j in range(m)]
    columns = [config.grid.t, *shown.schedule.u, *shown.schedule.v]
    _write_table(os.path.join(out, "controls.csv"), header, zip(*columns))

    rows = []
    for o in outcomes:
        rows += _allocation_rows(o.name, o.schedule, cg, config.cost)
    _write_table(os.path.join(out, "allocation.csv"), ["strategy", "family", "label", "percent"], rows)

    _atomic_write(os.path.join(out, "summary.txt"), _summary_text(config, dist, gd, cg, outcomes))
    if shown.result is not None:
        write_history_csv(shown.result, os.path.join(out, "history.csv"))


def _write_report(config: ExperimentConfig, name: str, header, rows) -> None:
    """Write one table to the output directory, the effective config beside it."""
    os.makedirs(config.output_dir, exist_ok=True)
    _write_table(os.path.join(config.output_dir, name), header, rows)
    _atomic_write(
        os.path.join(config.output_dir, "effective_config.ini"), config.effective_text()
    )


# ---------------------------------------------------------------------------
# command line


def _load_config(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.output is not None:
        overrides.append(f"run.output={args.output}")
    return ExperimentConfig.from_file(args.config, overrides)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    kept = tuple(s for s in config.strategies if s != "optimal")
    if not kept:
        raise ConfigError(
            "simulate runs heuristic strategies only; use optimize or compare "
            "for the optimal schedule"
        )
    run_experiment(replace(config, strategies=kept))
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    run_experiment(replace(config, strategies=("optimal",)))
    return 0


def _cmd_compare(args) -> int:
    run_experiment(_load_config(args))
    return 0


def _cmd_group_error(args) -> int:
    """Write group_error.csv: the grouping error for each Z in --z-min..--z-max."""
    config = _load_config(args)
    dist = config.build_distribution()
    z_min, z_max = args.z_min, dist.n_classes if args.z_max is None else args.z_max
    if not 1 <= z_min <= z_max <= dist.n_classes:
        raise ConfigError(
            f"group-error range [{z_min}, {z_max}] must lie within "
            f"[1, {dist.n_classes}]"
        )
    group_counts = range(z_min, z_max + 1)
    rows = zip(group_counts, grouping_error(dist, group_counts, config.params, config.grid))
    _write_report(config, "group_error.csv", ["z", "combined_relative_error"], rows)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values: expected comma-separated numbers, got {args.values!r}")
    if not values:
        raise ConfigError("--values: at least one value is required")
    _, gd, cg = config.build()
    problem = OptimizationProblem(gd, cg, config.params, config.cost, config.grid)
    # per-point failures fill the error column instead of aborting the run
    rows = [["" if cell is None else cell for cell in astuple(p)]
            for p in sweep(problem, args.parameter, values)]
    _write_report(config, "sweep.csv", [f.name for f in fields(SweepPoint)], rows)
    return 0


def _cmd_ingest(args) -> int:
    edges = load_edge_list(args.input)
    dist, stats = from_edge_list(edges, dedupe=not args.keep_duplicates)
    _atomic_write(args.output, format_distribution(dist))
    print(f"nodes = {stats.n_nodes}")
    print(f"edges = {stats.n_edges}")
    print(f"mean_degree = {_format(stats.mean_degree)}")
    print(f"classes = {stats.n_classes}")
    print(f"self_loops_dropped = {stats.n_self_loops}")
    print(f"duplicates_dropped = {stats.n_duplicates}")
    print(f"written = {args.output}")
    return 0


def _add_command(sub, name, help_text, func):
    p = sub.add_parser(name, help=help_text, description=help_text)
    p.add_argument("-c", "--config", metavar="FILE", help="experiment config file")
    p.add_argument("--output", metavar="DIR", help="output directory (overrides run.output)")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a single config field (repeatable)",
    )
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epinetopt",
        description="Vaccination/treatment scheduling experiments on heterogeneous networks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    _add_command(sub, "simulate", "run the configured heuristic strategies", _cmd_simulate)
    _add_command(sub, "optimize", "compute the optimal schedule only", _cmd_optimize)
    _add_command(
        sub, "compare", "run every configured strategy and report improvements", _cmd_compare
    )
    p = _add_command(
        sub, "group-error", "grouping-accuracy curve over a range of group counts", _cmd_group_error
    )
    p.add_argument("--z-min", type=int, default=1, help="smallest group count (default 1)")
    p.add_argument("--z-max", type=int, default=None, help="largest group count (default: all classes)")
    p = _add_command(sub, "sweep", "optimize across a parameter range", _cmd_sweep)
    p.add_argument("--parameter", required=True, choices=("beta", "b", "c"))
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p = sub.add_parser(
        "ingest",
        help="convert an edge list to a degree-distribution file",
        description="Convert a two-column edge list to a degree-distribution file.",
    )
    p.add_argument("--input", required=True, metavar="FILE", help="edge list, one edge per line")
    p.add_argument("--output", required=True, metavar="FILE", help="distribution file to write")
    p.add_argument("--keep-duplicates", action="store_true",
                   help="fail on a self-loop or repeated edge instead of dropping it")
    p.set_defaults(func=_cmd_ingest)
    parser.set_defaults(func=None)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    A SIGTERM while it runs raises ``SystemExit(143)``, so the forked
    children of ``sweep`` and ``group-error`` are killed and reaped on the
    way out, and the shell still sees 143.
    """
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _main(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage; remap its code
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, ParameterError, DegenerateDistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, IngestionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
