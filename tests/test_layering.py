"""The package modules import one another in one direction only.

Each module may import only from modules earlier in ``LAYERS``. Every
import is checked, including those inside functions; imports under
``if TYPE_CHECKING:`` are for annotations only and are skipped. The
benchmark's tracer wraps the cross-module calls by the names the calling
modules look up, so those names are checked to resolve as well.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import epinetopt
import epinetopt.cli

LAYERS = ("errors", "network", "grouping", "dynamics", "control", "optimizer", "cli")
PACKAGE = Path(epinetopt.__file__).resolve().parent


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def imported_modules(node):
    """Package modules imported anywhere under ``node``, outside TYPE_CHECKING blocks."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        children = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    if isinstance(node, ast.ImportFrom):
        if node.level:  # from .x import y, or from . import x
            yield from [node.module.split(".")[0]] if node.module else (a.name for a in node.names)
        elif (node.module or "").startswith("epinetopt."):
            yield node.module.split(".")[1]
    elif isinstance(node, ast.Import):
        yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("epinetopt."))
    for child in children:
        yield from imported_modules(child)


def test_layers_cover_the_package():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    later = set(LAYERS[LAYERS.index(module):])
    assert sorted(set(imported_modules(tree)) & later) == []


MODEL_COEFFICIENTS = {"k_hat", "q_hat", "p_hat", "beta", "gamma"}


def model_coefficient_reads(source):
    """(line, attribute) of every read of a model coefficient in ``source``."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in MODEL_COEFFICIENTS
    )


def test_optimizer_reads_no_model_coefficient():
    # the model's equations and their adjoint live in dynamics, the objective's
    # derivatives in control; the solver only passes the model through
    source = (PACKAGE / "optimizer.py").read_text(encoding="utf-8")
    assert model_coefficient_reads(source) == []


def test_model_coefficient_reads_are_found():
    source = "beta, gamma = params.beta, params.gamma\nw = np.outer(gd.p_hat, x)\n"
    assert model_coefficient_reads(source) == [(1, "beta"), (1, "gamma"), (2, "p_hat")]


def test_benchmark_tracer_names_resolve():
    path = PACKAGE.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = epinetopt.cli.optimize
    recorder = tracer.Tracer("layering")
    try:
        tracer.install(recorder)  # raises AttributeError on a renamed or dropped name
        assert epinetopt.cli.optimize is not original
    finally:
        recorder.uninstall()
    assert epinetopt.cli.optimize is original
