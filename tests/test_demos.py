"""The demo scripts import only public names of the package.

The demos are not run by the suite (each takes seconds to minutes), so
this parses them and checks every name they import from ``epinetopt``.
"""

import ast
from pathlib import Path

import pytest

import epinetopt

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_are_public(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "epinetopt"
        for alias in node.names
    ]
    assert imported, f"{path.name} imports nothing from epinetopt"
    assert sorted(set(imported) - set(epinetopt.__all__)) == []
