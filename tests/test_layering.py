"""The package modules import one another in one direction only.

Each module may import only from modules earlier in ``LAYERS``. Every
import is checked, including those inside functions and those under
``if TYPE_CHECKING:``, so an annotation cannot name a later layer either. The
benchmark's tracer wraps the cross-module calls by the names the calling
modules look up, so those names are checked to resolve and to be reached
by a solve. Every name a module imports must be read in it, and every
private function and class must be read in the package: no name stays
only for the tracer.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import epinetopt
import epinetopt.cli

LAYERS = ("errors", "network", "grouping", "dynamics", "control", "optimizer", "cli")
PACKAGE = Path(epinetopt.__file__).resolve().parent


def imported_modules(node):
    """Package modules imported anywhere under ``node``."""
    if isinstance(node, ast.ImportFrom):
        if node.level:  # from .x import y, or from . import x
            yield from [node.module.split(".")[0]] if node.module else (a.name for a in node.names)
        elif (node.module or "").startswith("epinetopt."):
            yield node.module.split(".")[1]
    elif isinstance(node, ast.Import):
        yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("epinetopt."))
    for child in ast.iter_child_nodes(node):
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


EVALUATION_STEPS = {"_integrate", "_integrate_batch", "evaluate_cost"}


def evaluation_step_reads(node):
    """Sorted names of the forward sweeps and the pricing read under ``node``."""
    return sorted(
        n.id for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in EVALUATION_STEPS
    )


def test_optimizer_evaluates_schedules_in_one_function():
    # every schedule the solver prices goes through _forward, which picks the
    # one-system or the batched kernel; no other function simulates or prices
    tree = ast.parse((PACKAGE / "optimizer.py").read_text(encoding="utf-8"))
    [forward] = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_forward"]
    everywhere = evaluation_step_reads(tree)
    assert evaluation_step_reads(forward) == everywhere == sorted(EVALUATION_STEPS)


def test_package_exports_every_module_list():
    # the package's list is the union of the module lists, each name bound to
    # the object its module defines; errors lists exactly its exception classes
    modules = [importlib.import_module(f"epinetopt.{m}") for m in LAYERS[:-1]]
    errors = {name for name, obj in vars(epinetopt.errors).items()
              if isinstance(obj, type) and issubclass(obj, epinetopt.errors.EpinetoptError)}
    assert set(epinetopt.errors.__all__) == errors
    exported = [name for name in epinetopt.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    assert set(exported) == set().union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(epinetopt, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__
    namespace = {}
    exec("from epinetopt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(epinetopt.__all__)


def unused_imports(source):
    """(line, name) of every name ``source`` imports and never reads.

    A name read only inside a string annotation counts as unread.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", LAYERS)
def test_every_import_is_used(module):
    # the names the benchmark's tracer wraps must be live call sites too,
    # not imports kept only for it
    assert unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def unread_private_definitions(sources):
    """(module, name) of every private top-level function and class of
    ``sources`` (module name to source) that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(
        (module, node.name) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and node.name not in read
    )


def test_every_private_definition_is_read():
    # a private function or class that nothing in the package reads is dead,
    # or kept only for the tracer, which must not shape the program
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_definitions(sources) == []


def test_unread_private_definitions_are_found():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    _gone = 1\n\nclass _Ghost:\n    pass\n",
        "b": "from .a import _used\nimport a\n_used()\na._Ghost\ndef public():\n    pass\n",
    }
    assert unread_private_definitions(sources) == [("a", "_dead")]


def test_unused_imports_are_found():
    source = (
        "import os, numpy as np\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .m import A, B\n"
        "def f(a: 'A | None') -> None:\n    os = np\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "A"), (4, "B")]


def test_benchmark_tracer_names_resolve():
    path = PACKAGE.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = epinetopt.cli.optimize
    # a small problem: Z = 5 groups, M = 2 blocks, N = 151 grid points, on
    # which every sweep stays in [0, 1] (at N = 101 the uncontrolled one does not)
    dist = epinetopt.power_law_distribution(2.0, 6, 105)
    gd = epinetopt.grouped_stats(dist, epinetopt.partition_equal_mass(dist, 5))
    cg = epinetopt.amass_control_groups(gd, 2)
    params = epinetopt.EpidemicParams(0.5, 0.25, 0.01, 20.0)
    grid = epinetopt.TimeGrid(151, 20.0)
    problem = epinetopt.OptimizationProblem(gd, cg, params, epinetopt.CostParams(0.25, 0.5), grid)
    recorder = tracer.Tracer("layering")
    try:
        tracer.install(recorder)  # raises AttributeError on a renamed or dropped name
        assert epinetopt.cli.optimize is not original
        # the wrappers read the arguments and results of the calls they trace
        for schedule in (None, epinetopt.constant_strategy(params, grid, 2)):
            epinetopt.dynamics.simulate_grouped(gd, cg, schedule, params, grid)
        epinetopt.optimizer.optimize(problem)
    finally:
        recorder.uninstall()
    assert epinetopt.cli.optimize is original
    forward = [s for s in recorder.spans if s["name"] == "dynamics.forward"]
    assert len(forward) > 2
    assert all(s["steps"] == 150 and s["clamps"] == 0 for s in forward)
    [solve] = [s for s in recorder.spans if s["name"] == "optimizer.solve"]
    assert solve["iterations"] >= 1
    # optimize reaches the wrapped gradient and line search, whose trial
    # points are simulated by the wrapped forward sweep
    searches = {s["id"] for s in recorder.spans if s["name"] == "optimizer.line_search"}
    assert any(s["parent"] in searches for s in forward)
    assert any(s["name"] == "optimizer.gradient" for s in recorder.spans)
