"""No module of the package reads another module's private names.

A name with a leading underscore is its module's own: another module that
imports it, or reads it as an attribute of the imported module, depends on
internals (such as the evaluator's tape layout) that its owner may change.
"""

import ast
from pathlib import Path

import daedisc

PACKAGE = Path(daedisc.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(path: Path) -> list[str]:
    """``file:line name`` for each private name that the module at ``path``
    imports from the package, or reads from a package module it imported."""
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "daedisc"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                if node.module in (None, "daedisc"):  # from . import evaluator
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_a_private_name_of_another():
    found = [read for path in sorted(PACKAGE.glob("*.py")) for read in private_reads(path)]
    assert found == []


def test_the_scan_sees_both_ways_in(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from .evaluator import _tape, evaluate\n"
                      "from . import evaluator\n"
                      "from daedisc.dsl import _depth\n"
                      "from __future__ import annotations\n"
                      "plan = evaluator._plan(evaluator.evaluate)\n")
    assert private_reads(module) == ["probe.py:1 _tape", "probe.py:3 _depth",
                                     "probe.py:5 evaluator._plan"]
