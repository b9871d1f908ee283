"""Source-level guards on the package: no environment knobs, each
tolerance constant defined by exactly one module, one propagator, one
reader of the entry grammar, one owner for the 2-norm and rank
decisions, one owner of the network layout, one reader of the
interface law, and one encoding of the bundled example."""

import ast
import subprocess
import sys
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


def test_entry_grammar_is_used_only_by_the_reader():
    # every numeric field goes through cli.read_numbers, the one place
    # that parses a "[sign][coefficient]name" entry
    users = {
        f"{path.stem}.{func.name}"
        for path in MODULES
        for func in parse(path).body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if (isinstance(node, ast.Name) and node.id in ("parse_entry", "_ENTRY_RE"))
        or (isinstance(node, ast.Attribute) and node.attr in ("parse_entry", "_ENTRY_RE"))
    }
    assert users == {"cli.read_numbers", "cli.parse_entry"}


def test_network_layout_has_one_owner():
    # where each subsystem sits in the stacked vectors, and which columns
    # of D each channel owns, is worked out by systems.py alone; every
    # other module reads it (Interconnection.state_slice and its offsets,
    # LinearSystem.channel_slice) instead of summing sizes itself
    sizes = {"width", "n", "m", "q"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.stem != "systems"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Name)
        and any(
            isinstance(part, ast.Attribute) and part.attr in sizes
            for part in ast.walk(node.value)
        )
    ]
    assert found == []


def _is_numpy_linalg(func: ast.expr, name: str) -> bool:
    """``func`` is ``np.linalg.<name>`` or ``numpy.linalg.<name>``."""
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "linalg"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("np", "numpy")
    )


def test_two_norm_and_rank_have_one_owner():
    # the 2-norm and every rank decision go through linalg (spectral_norm,
    # rank_tol), never through numpy directly
    found = []
    for stem in ("abstraction", "geometry", "compose"):
        path = SRC / f"{stem}.py"
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            if _is_numpy_linalg(node.func, "matrix_rank"):
                found.append(f"{path.name}:{node.lineno} matrix_rank")
            elif _is_numpy_linalg(node.func, "norm"):
                order = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "ord"), None
                )
                if isinstance(order, ast.Constant) and order.value == 2:
                    found.append(f"{path.name}:{node.lineno} norm(..., 2)")
    assert found == []


def test_one_table_writer():
    # every CSV goes through simulate.write_table's exact %.17g kernel
    users = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Attribute) and node.attr == "savetxt")
        or (isinstance(node, ast.alias) and node.name == "savetxt")
    ]
    assert users == []


def test_demo_network_is_written_only_as_a_document():
    # demo_project() is the one encoding of the example; every other
    # helper parses it instead of building systems by hand
    built = [
        f"demo.py:{node.lineno} {node.func.id}"
        for node in ast.walk(parse(SRC / "demo.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("LinearSystem", "InternalChannel", "Interconnection")
    ]
    assert built == []


def test_demo_and_cli_import_in_either_order():
    for first, second in (("demo", "cli"), ("cli", "demo")):
        code = f"import simcompose.{first}, simcompose.{second}"
        subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=SRC.parent,
            capture_output=True, timeout=60,
        )


def test_interface_law_is_read_only_through_its_gains():
    # simulate.py takes the law u = K1 (x - P xhat) - K2 xhat - K3 what
    # + K4 uhat from abstraction.interface_gains, never from the gains
    # themselves
    path = SRC / "simulate.py"
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr in ("K1", "K2", "K3", "K4")
    ]
    assert found == []
