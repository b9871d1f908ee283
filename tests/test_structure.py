"""Source-level guards on the package: no environment knobs, each
tolerance constant defined by exactly one module, every threshold a
verdict uses named in linalg's tolerance table (and README's), one
propagator with one per-step loop, one reader of the entry grammar, one
owner for the 2-norm and rank decisions, one owner of the network
layout, one reader of the interface law, one encoding of the bundled
example, no function in src/ that the program never reaches and no
class member it never reads, a reason for every parameter default, one
no pointwise deviation function in src/ beside the run's,
certification that calls numpy once per stack of subsystems, one
front half of the run for ``check`` and ``bounds``, stacked
routines that return values or raise but keep no failure dicts, one
calling form (stacks) in every module, no
``lstsq`` beside the stacked least squares, and no eigendecomposition
in composition or co-simulation."""

import ast
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "simcompose"
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


def calls_by_function(paths=MODULES) -> dict[str, set[str]]:
    """Names called inside each module-level function, nested code included."""
    called = defaultdict(set)
    for path in paths:
        for func in parse(path).body:
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        called[func.name].add(node.func.id)
    return called


def test_one_propagator():
    called = calls_by_function()
    assert {name for name, names in called.items() if "_step_maps" in names} == {"_run_lti"}
    assert "_run_lti" in calls_by_function([TESTS / "oracles.py"])["integrate"]
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


def test_no_lstsq_in_src():
    # least squares is linalg.least_squares, one SVD per stack: no
    # per-member lstsq stands beside it, under any name
    found = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute) and node.attr == "lstsq":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name == "lstsq"]
    assert found == []


def test_stacked_routines_return_no_failure_dicts():
    # a stack certifies whole or raises its first failing member's error;
    # cli.certify alone turns a failed stack into per-member outcomes
    found = []
    for name in ("linalg.py", "geometry.py", "abstraction.py"):
        for node in ast.walk(parse(SRC / name)):
            if (
                (isinstance(node, ast.Name) and node.id == "failures")
                or (isinstance(node, ast.arg) and node.arg == "failures")
                or (isinstance(node, ast.Subscript)
                    and ast.unparse(node).replace(" ", "") == "dict[int,Exception]")
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_cli_certifies_only_through_build_abstraction():
    # check, abstract and bounds share one verdict path: the command line
    # reaches the injection and certificate tests only through
    # build_abstraction, and runs no check of its own beside it
    tests = {"check_P_conditions", "check_certificate", "certificate_slacks", "decay_certificate"}
    found, names = [], set()
    for node in ast.walk(parse(SRC / "cli.py")):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        names.add(name)
        if name in tests:
            found.append(f"cli.py:{node.lineno} {name}")
        elif isinstance(node, ast.FunctionDef) and node.name == "_check_stack":
            found.append(f"cli.py:{node.lineno} def _check_stack")
    assert found == []
    assert "build_abstraction" in names


def test_check_and_bounds_share_everything_before_the_run():
    # one function of cli.py builds the run's input signal and initial
    # states; check and the bounds pipeline both call it, so check runs
    # no small-gain, width or length test of its own
    called = calls_by_function([SRC / "cli.py"])
    front = {"build_input_signal", "resolve_initial_states"}
    builders = [name for name, names in called.items() if names & front]
    assert len(builders) == 1 and front <= called[builders[0]]
    assert builders[0] in called["cmd_check"] and builders[0] in called["_run_pipeline"]
    assert not {"small_gain", "gain_matrices"} & called["cmd_check"]


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


def _read(node: ast.AST) -> set[str]:
    """Every attribute read and string constant inside ``node``: the ways
    a class member is reached, by name (``getattr`` and bench's span
    table name members as strings)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _class_members(cls: ast.ClassDef):
    """``(name, node)`` of the non-dunder methods, properties and fields
    of ``cls``; an ``InitVar`` or ``KW_ONLY`` annotation declares a
    constructor parameter, not a member."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
            yield node.name, node
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not {"InitVar", "KW_ONLY"} & _referenced(node.annotation)
        ):
            yield node.target.id, node


def program_walk():
    """What the program reaches, by name, from ``cli.main`` and from
    bench/: the top-level names it refers to, the members it reads, and
    every ``(module.Class.member, name)`` of src/.

    A function, class or module constant is reached when reached code
    names it; a class's own statements (bases, decorators, dunder
    methods) come with it, and a member's body only once reached code
    reads the member. bench/'s span table names functions as strings."""
    code = defaultdict(list)
    members = []
    for path in MODULES:
        for node in parse(path).body:
            if isinstance(node, ast.ClassDef):
                own = list(_class_members(node))
                members += [(f"{path.stem}.{node.name}.{name}", name, body) for name, body in own]
                bodies = [body for _, body in own]
                code[node.name] += [
                    part for part in ast.iter_child_nodes(node)
                    if not any(part is body for body in bodies)
                ]
            elif isinstance(node, ast.FunctionDef):
                code[node.name].append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        code[target.id].append(node.value)
    names, reads = {"main"}, set()
    for path in (SRC.parent.parent / "bench").glob("*.py"):
        tree = parse(path)
        names |= _referenced(tree)
        reads |= _read(tree)
    seen = set()
    while True:
        todo = [node for name in names for node in code.get(name, ()) if id(node) not in seen]
        todo += [body for _, name, body in members if name in reads and id(body) not in seen]
        if not todo:
            return names, reads, [(qualname, name) for qualname, name, _ in members]
        for node in todo:
            seen.add(id(node))
            names |= _referenced(node)
            reads |= _read(node)


# Functions the program never calls but README documents for use from
# Python, each with the reason it stays in src/.
DOCUMENTED_ENTRY_POINTS = {
    # the bundled example's network, for building on it in Python
    "demo.demo_interconnection",
    # the example's published injections, beside the network
    "demo.demo_projections",
    # the example's published certificates, beside the network
    "demo.demo_certificates",
    # the interface law at one point, u for given xhat, x, what and uhat
    "abstraction.interface",
}


def test_every_function_in_src_is_reachable():
    # src/ holds what the program runs: every top-level function is
    # reached, by name, from cli.main or from bench/, or is a documented
    # entry point; test-only code lives in tests/oracles.py
    names, _, _ = program_walk()
    unreached = {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, ast.FunctionDef) and node.name not in names
    }
    assert unreached == DOCUMENTED_ENTRY_POINTS


def test_every_class_member_in_src_is_read_by_the_program():
    # every non-dunder method, property and dataclass field of a src/
    # class is read, by name, by code the program reaches or by bench/;
    # a member only tests read belongs in the tests
    _, reads, members = program_walk()
    assert len(members) > 50
    assert [qualname for qualname, name in members if name not in reads] == []


def test_one_encoding_of_the_deviation_function():
    # V is evaluated by refine_and_run's row loop alone; the pointwise
    # reference the tests check it against is oracles.eval_simfn
    defined = {
        node.name: node
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "eval_simfn" not in defined
    for name in ("QuadraticSimFn", "ComposedSimFn"):
        methods = {node.name for node in defined[name].body if isinstance(node, ast.FunctionDef)}
        assert "__call__" not in methods


# Every parameter default in src/, by module.function.parameter (a
# dataclass InitVar as module.Class.field), with the reason it stays.
PARAMETER_DEFAULTS = {
    # used by the program with both values
    "abstraction.build_abstraction.certificates": "computed certificates unless the project injects one",
    "cli.run_compose.eta": "compose --eta overrides it; bounds and check take the Perron weights",
    "cli.run_compose.epsilon": "compose --eps overrides it; bounds and check choose it",
    "cli._run_pipeline.t_final": "--tfinal overrides the project's horizon; reproduce-example keeps it",
    "cli._run_pipeline.dt": "--dt overrides the project's step; reproduce-example keeps it",
    "cli._run_pipeline.v0": "--v0 overrides the bound's start level; reproduce-example keeps it",
    "compose.small_gain.eta": "the weight override compose --eta passes on",
    "compose.small_gain.epsilon": "the margin override compose --eps passes on",
    "geometry.image.tol": "P's rank, sums and intersections pass a cutoff; [P, B] takes rank_tol",
    "geometry.kernel.tol": "intersections pass their operands' cutoff; ker C takes rank_tol",
    "linalg.rank_tol.norm": "check_P_conditions passes |P|; the other callers have no norm",
    "linalg._sign_solve.members": "refinement advances the members still active; the first solve all",
    "simulate._SparseRows.map_rows.out": "the drive maps into the states buffer; the outputs allocate",
    "simulate._finite.axis": "one verdict for the run, then one per row to name the first bad one",
    "simulate.bound_report.v0": "cli passes the --v0 override; bench/ takes the run's start",
    "systems.LinearSystem.finite": "the project reader has checked every entry; other builders have not",
    # reuse parameters whose default only direct callers rely on: the
    # program passes what it has computed, a direct call computes it
    "abstraction.decay_certificate.pbh": "build_abstraction passes check_P_conditions' PBH verdicts",
    "linalg.stabilize.pbh": "decay_certificate passes the PBH verdicts it was given",
    "linalg.pbh_stabilizable.norm": "check_P_conditions passes |A|, computed for its own residuals",
    # entry points and protocols
    "cli.main.argv": "the console script calls main() on the command line's arguments",
    "demo.demo_project.d1": "the published coupling; the program builds the example as published",
    "demo.demo_project.d2": "the published coupling; the program builds the example as published",
    "demo.demo_project.d3": "the published coupling; the program builds the example as published",
    "demo.demo_interconnection.d1": "documented entry point, with demo_project's couplings",
    "demo.demo_interconnection.d2": "documented entry point, with demo_project's couplings",
    "demo.demo_interconnection.d3": "documented entry point, with demo_project's couplings",
    "simulate._SparseRows.__array__.dtype": "numpy's __array__ protocol",
    "simulate._SparseRows.__array__.copy": "numpy's __array__ protocol",
}


def _defaults(node: ast.AST, prefix: str):
    """Qualified names of the parameters with a default in every function
    under ``node``, and of the dataclass ``InitVar`` fields with one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            yield from (f"{prefix}{child.name}.{arg.arg}" for arg in with_default)
            yield from _defaults(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defaults(child, f"{prefix}{child.name}.")
        elif (
            isinstance(child, ast.AnnAssign)
            and child.value is not None
            and "InitVar" in _referenced(child.annotation)
        ):
            yield f"{prefix}{child.target.id}"


def test_every_parameter_default_in_src_has_a_reason():
    # a default no program call relies on is a second calling form of
    # its function; the ones left are listed above with their reason
    found = sorted(name for path in MODULES for name in _defaults(parse(path), f"{path.stem}."))
    assert found == sorted(PARAMETER_DEFAULTS)
    assert all(reason for reason in PARAMETER_DEFAULTS.values())


def _enclosing_functions(tree: ast.Module):
    """``(top-level function name or None, node)`` for every node."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield name, node


def test_numerics_take_stacks_only():
    # one calling form in every module: one matrix is a stack of one and
    # one subsystem a sequence of one, with no one-matrix mode, no
    # coercion of a matrix to a stack, and no guess of the form from
    # the argument
    trees = {path.name: parse(path) for path in MODULES}
    singles = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ("single", "as_stack"))
        or (isinstance(node, (ast.arg, ast.keyword)) and node.arg == "single")
        or (isinstance(node, ast.Attribute) and node.attr == "as_stack")
        or (isinstance(node, ast.FunctionDef) and node.name == "as_stack")
    ]
    assert singles == []
    dispatch = [
        f"abstraction.py:{node.lineno}"
        for node in ast.walk(trees["abstraction.py"])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and "LinearSystem" in _referenced(node.args[1])
    ]
    assert dispatch == []
    # Subspace holds a basis: residuals, sums and intersections take
    # sequences of subspaces, one member as a sequence of one
    subspace = next(
        node for node in trees["geometry.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "Subspace"
    )
    methods = {node.name for node in subspace.body if isinstance(node, ast.FunctionDef)}
    assert methods.isdisjoint({"residual", "sum", "intersect"})


def test_certification_calls_numpy_once_per_stack(monkeypatch):
    # build_abstraction, from the injection check to K4, calls each
    # numpy.linalg routine once per stack of same-shape subsystems:
    # certifying a ring of 40 nodes makes as many calls as one of 20,
    # where a loop over the members would double them. Nodes 20-39 of
    # the larger ring repeat nodes 0-19, so both take the same
    # data-dependent steps.
    import numpy as np
    from conftest import heterogeneous_ring
    from simcompose import cli

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
    monkeypatch.setattr(cli, "build_abstraction", stage(cli.build_abstraction))
    counts = []
    for doc in (small, large):
        calls.clear()
        results = cli.build_abstractions(cli.parse_project(doc))
        assert len(results) == len(doc["subsystems"])
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 20
