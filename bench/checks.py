"""Checks on the outputs of one ``epinetopt`` CLI run.

Each check returns one list of problems per operation of the run (one
operation per CLI run, or one per sweep point); an operation with any
problem counts as failed. Reference values, when given, were recorded from
the same workload at the seed commit and are compared with ``tolerance``.
"""

from __future__ import annotations

import csv
import math
from configparser import ConfigParser
from configparser import Error as IniError
from pathlib import Path

import numpy as np

STRATEGIES = ("optimal", "constant", "none")
COMPARE_FILES = ("trajectories.csv", "controls.csv", "allocation.csv", "summary.txt",
                 "effective_config.ini", "history.csv")
CONSERVATION_TOL = 1e-12  # s + i + r is 1 by construction, up to roundoff


def close(actual: float, expected: float, tolerance: dict) -> bool:
    return abs(actual - expected) <= tolerance["rtol"] * abs(expected) + tolerance["atol"]


def _missing(out: Path, names) -> list[str]:
    return [f"missing {name}" for name in names if not (out / name).is_file()]


def _compare_against(values: dict, reference: dict, tolerance: dict, where: str) -> list[str]:
    return [
        f"{where}{key} = {values[key]!r}, reference {expected!r}"
        for key, expected in reference.items()
        if not close(values[key], expected, tolerance)
    ]


def check_compare(out: Path, reference: dict | None, tolerance: dict,
                  network: dict | None = None) -> list[list[str]]:
    """``compare`` bundle: files, conservation, clamps, convergence, J order.

    ``network`` holds expected ``degree_range``/``classes`` summary values.
    """
    problems = _missing(out, COMPARE_FILES)
    if problems:
        return [problems]
    try:
        summary = ConfigParser(interpolation=None)
        summary.read(out / "summary.txt", encoding="utf-8")
        values = {}
        for name in STRATEGIES:
            section = summary[f"strategy.{name}"]
            values[f"J_{name}"] = float(section["J"])
            if int(section["clamp_events"]) != 0:
                problems.append(f"{name}: clamp_events = {section['clamp_events']}")
        if summary["strategy.optimal"]["converged"] != "True":
            problems.append("optimal: converged is not True")
        if values["J_optimal"] > min(values["J_constant"], values["J_none"]):
            problems.append("optimal J is above a heuristic's J")
        for name in ("constant", "none"):
            key = f"optimal_vs_{name}_percent"
            values[key] = float(summary["improvements"][key])
        for key, expected in (network or {}).items():
            if summary["network"][key] != str(expected):
                problems.append(f"network.{key} = {summary['network'][key]}, expected {expected}")

        with open(out / "trajectories.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1, ndmin=2)
        for name in STRATEGIES:
            cols = [header.index(f"{x}_{name}") for x in "sir"]
            drift = float(np.max(np.abs(data[:, cols].sum(axis=1) - 1.0)))
            if not drift <= CONSERVATION_TOL:
                problems.append(f"{name}: |s+i+r-1| reaches {drift!r}")
        if reference is not None:
            problems += _compare_against(values, reference, tolerance, "")
    except (IniError, KeyError, ValueError, OSError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return [problems]


def check_sweep(out: Path, values: list[float], reference: list[dict] | None,
                tolerance: dict) -> list[list[str]]:
    """``sweep`` table: one operation per point, each converged and error-free."""
    missing = _missing(out, ("sweep.csv", "effective_config.ini"))
    if missing:
        return [missing] * len(values)
    try:
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error) as exc:
        return [[f"malformed sweep.csv: {exc!r}"]] * len(values)
    results = []
    for index, value in enumerate(values):
        if index >= len(rows):
            results.append([f"no row for value {value}"])
            continue
        row, problems = rows[index], []
        where = f"value {value}: "
        try:
            numbers = {key: float(row[key]) for key in row if key not in ("converged", "error")}
            if numbers["value"] != value:
                problems.append(f"{where}row holds value {numbers['value']}")
            if row["error"]:
                problems.append(f"{where}error {row['error']!r}")
            if row["converged"] != "True":
                problems.append(f"{where}converged is {row['converged']}")
            if not all(math.isfinite(x) for x in numbers.values()):
                problems.append(f"{where}non-finite entry")
            elif numbers["J_optimal"] > min(numbers["J_constant"], numbers["J_none"]):
                problems.append(f"{where}optimal J is above a heuristic's J")
            if reference is not None:
                problems += _compare_against(numbers, reference[index], tolerance, where)
        except (KeyError, ValueError) as exc:
            problems.append(f"{where}malformed row: {exc!r}")
        results.append(problems)
    return results


def check_group_error(out: Path, z_range: tuple[int, int], reference: list[float] | None,
                      tolerance: dict) -> list[list[str]]:
    """``group-error`` table: one row per Z, finite and nonnegative."""
    problems = _missing(out, ("group_error.csv", "effective_config.ini"))
    if problems:
        return [problems]
    try:
        with open(out / "group_error.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        z = [int(r["z"]) for r in rows]
        err = [float(r["combined_relative_error"]) for r in rows]
    except (OSError, csv.Error, KeyError, ValueError) as exc:
        return [[f"malformed group_error.csv: {exc!r}"]]
    if z != list(range(z_range[0], z_range[1] + 1)):
        problems.append(f"rows cover Z = {z[:1]}..{z[-1:]}, expected {z_range}")
    if not all(math.isfinite(e) and e >= 0 for e in err):
        problems.append("an error entry is negative or not finite")
    if reference is not None and not problems:
        problems += [
            f"Z={zz}: error {e!r}, reference {r!r}"
            for zz, e, r in zip(z, err, reference)
            if not close(e, r, tolerance)
        ]
    return [problems]


def check_ingest(stdout: str, expected: dict) -> list[list[str]]:
    """``ingest`` report against the generator's own counts."""
    reported = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            reported[key.strip()] = value.strip()
    problems = []
    for key in ("nodes", "edges", "self_loops_dropped", "duplicates_dropped", "mean_degree"):
        if key not in reported:
            problems.append(f"ingest did not report {key}")
            continue
        try:
            value = float(reported[key])
        except ValueError:
            problems.append(f"ingest reported {key} = {reported[key]!r}")
            continue
        if value != expected[key]:
            problems.append(f"ingest {key} = {reported[key]}, generator expects {expected[key]}")
    return [problems]
