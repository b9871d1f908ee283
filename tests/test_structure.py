"""Source-level guards on the package: no environment knobs, each
tolerance constant defined by exactly one module, and one propagator."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "simcompose"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.stem for p in MODULES} >= {"linalg", "abstraction", "geometry", "simulate", "cli"}


def test_no_module_reads_the_environment():
    readers = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in ("environ", "getenv") for alias in node.names):
                    readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_each_tolerance_has_one_owner():
    owners = defaultdict(list)
    for path in MODULES:
        for node in parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                    owners[target.id].append(path.name)
    assert {"REL_TOL", "RESIDUAL_TOL", "BOUND_TOL"} <= owners.keys()
    shared = {name: files for name, files in owners.items() if len(files) != 1}
    assert shared == {}


def calls_by_function() -> dict[str, set[str]]:
    """Names called inside each module-level function, nested code included."""
    called = defaultdict(set)
    for path in MODULES:
        for func in parse(path).body:
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        called[func.name].add(node.func.id)
    return called


def test_one_propagator():
    called = calls_by_function()
    assert {name for name, names in called.items() if "_step_maps" in names} == {"_run_lti"}
    assert "_run_lti" in called["integrate"]
    assert "_run_lti" in called["refine_and_run"]
