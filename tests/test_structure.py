"""Source-level guards on the package: no environment knobs, each
tolerance constant defined by exactly one module, every threshold a
verdict uses named in linalg's tolerance table (and README's), one
propagator with one per-step loop, one reader of the entry grammar, one
owner for the 2-norm and rank decisions, one owner of the network
layout, one reader of the interface law, one encoding of the bundled
example, no function in src/ that the program never reaches,
certification that calls numpy once per stack of subsystems, and no
eigendecomposition in composition or co-simulation."""

import ast
import re
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


def tolerance_table() -> list[str]:
    """The entries of linalg's tolerance table: its module-level
    assignments documented by a ``#:`` line."""
    path = SRC / "linalg.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        target.id
        for node in parse(path).body
        if isinstance(node, ast.Assign) and lines[node.lineno - 2].startswith("#:")
        for target in node.targets
        if isinstance(target, ast.Name)
    ]


def test_tolerance_table_entries_are_assigned_only_in_linalg():
    table = tolerance_table()
    assert {"REL_TOL", "COMPUTED_CERT_TOL", "BRACKET_TOL", "BOUND_TOL"} <= set(table)
    assigned = [
        f"{path.name}:{node.lineno} {target.id}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id in table
    ]
    assert sorted(name.split(" ")[1] for name in assigned) == sorted(table)
    assert all(name.startswith("linalg.py:") for name in assigned)


def test_readme_lists_the_tolerance_table():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(tolerance_table())


def test_no_bare_threshold_decides_a_verdict():
    # a float in (0, 1) compared against, or passed as a tolerance, is a
    # threshold: it must be a named entry of linalg's table. The CSV
    # writer's _G17 compares against rounding constants that format
    # digits and decide no verdict.
    found = set()
    for path in MODULES:
        tree = parse(path)
        exempt = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_G17"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Compare):
                scope = node
            elif isinstance(node, ast.keyword) and node.arg in ("tol", "rtol", "atol", "rcond"):
                scope = node.value
            else:
                continue
            found |= {
                f"{path.name}:{literal.lineno}"
                for literal in ast.walk(scope)
                if isinstance(literal, ast.Constant) and type(literal.value) is float
                and 0.0 < literal.value < 1.0
            }
    assert sorted(found) == []


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


def test_simulate_reads_no_environment_and_marches_in_one_function():
    # the propagator's form is chosen by its density rule, never by a
    # setting, and _run_lti is the only loop over the grid: every other
    # function in simulate.py works on whole arrays
    tree = parse(SRC / "simulate.py")
    readers = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "putenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os")
    ]
    assert readers == []
    per_grid_point = {"grid", "states", "starts", "times", "inputs", "drive"}
    marching = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            head = loop.iter if isinstance(loop, ast.For) else loop.test
            measured = {
                arg.id
                for call in ast.walk(head)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "len"
                for arg in call.args
                if isinstance(arg, ast.Name)
            }
            if measured & per_grid_point:
                marching.add(func.name)
    assert marching == {"_run_lti"}


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
    for path in MODULES:
        if path.stem == "linalg":
            continue
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


def test_no_eigendecomposition_in_compose_or_simulate():
    # the spectral radius and the weights come from perron's Noda
    # iteration; no dense eig or eigvals stands beside it
    found = []
    for path in (SRC / "compose.py", SRC / "simulate.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call) and any(
                _is_numpy_linalg(node.func, name) for name in ("eig", "eigvals")
            ):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("eig", "eigvals")]
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


def _referenced(node: ast.AST) -> set[str]:
    """Every name, attribute and string constant inside ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_every_function_in_src_is_reachable():
    # src/ holds what the program runs: every top-level function is
    # reached, by name, from cli.main, from an __all__ or from bench/
    # (whose span table names functions as strings); test-only code
    # lives in tests/oracles.py
    edges = defaultdict(set)
    functions = []
    roots = {"main"}
    for path in MODULES:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges[node.name] |= _referenced(node)
                if isinstance(node, ast.FunctionDef):
                    functions.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        edges[target.id] |= _referenced(node.value)
                        if target.id == "__all__":
                            roots |= _referenced(node.value)
    bench = SRC.parent.parent / "bench"
    for path in bench.glob("*.py"):
        roots |= _referenced(parse(path))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges.get(name, ()))
    assert [f"{module}.{name}" for module, name in functions if name not in reached] == []


def test_certification_calls_numpy_once_per_stack(monkeypatch):
    # check_P_conditions and decay_certificate call each numpy.linalg
    # routine once per stack of same-shape subsystems: certifying a ring
    # of 40 nodes makes as many calls as one of 20, where a loop over the
    # members would double them. Nodes 20-39 of the larger ring repeat
    # nodes 0-19, so both take the same data-dependent steps.
    import numpy as np
    from conftest import heterogeneous_ring
    from simcompose import abstraction, cli

    small = heterogeneous_ring(np.random.default_rng(5), 20)
    large = heterogeneous_ring(np.random.default_rng(5), 40)
    for node, twin in zip(large["subsystems"], small["subsystems"]):
        assert (node["A"], node["D"]) == (twin["A"], twin["D"])
    for node, twin in zip(large["subsystems"][20:], small["subsystems"]):
        node.update(A=twin["A"], D=twin["D"])
    calls = defaultdict(int)
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def stage(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name in ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
                 "matrix_rank", "norm", "pinv", "qr", "slogdet", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for name in ("check_P_conditions", "decay_certificate"):
        monkeypatch.setattr(abstraction, name, stage(getattr(abstraction, name)))
    counts = []
    for doc in (small, large):
        calls.clear()
        results = cli.build_abstractions(cli.parse_project(doc))
        assert len(results) == len(doc["subsystems"])
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 20
