"""The ``check`` command on injections and subsystems that fail: it
prints what ``cli.certify`` decides, as ``abstract`` does, and then fails
what ``bounds`` rejects before its run, with ``bounds``' exit code and
error."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heterogeneous_ring, random_network
from oracles import serialize_project
from simcompose import cli
from simcompose.abstraction import build_abstraction
from simcompose.cli import Directive, Project, SimulationSpec, main, parse_project
from simcompose.demo import demo_project
from simcompose.linalg import NumericsError
from test_stack import FAR_FROM_NORMAL


def run_check(tmp_path, capsys, doc):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    return code, capsys.readouterr().out


def test_check_reports_unstabilizable_subsystem_once(tmp_path, capsys):
    for a, b in (
        ([[1.0]], [[0.0]]),
        # the unstable mode is uncoupled from the input, the stable one driven
        ([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]]),
    ):
        doc = {
            "subsystems": [
                {"name": "solo", "A": a, "B": b, "C": [[1.0] + [0.0] * (len(a) - 1)]}
            ]
        }
        with pytest.raises(ValueError, match=r"^injection conditions failed for solo: "
                           r"stabilizable: no \(witness \(1\+0j\)\); "):
            cli.build_abstractions(parse_project(doc))
        code, out = run_check(tmp_path, capsys, doc)
        assert code == 1
        assert ("solo: construction failed: injection conditions failed for solo:"
                " stabilizable: no (witness (1+0j)); ") in out
        assert out.count("stabilizable") == 1
        assert "check: FAIL" in out


def test_check_reports_rank_deficient_injection(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][1]["abstraction"]["P"] = [[1.0, 1.0], [1.0, 1.0]]
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 1
    assert "s2: construction failed: P must have full column rank" in out
    assert "s1: stabilizable yes" in out
    assert "check: FAIL" in out


def test_check_rejects_the_injected_certificate_bounds_rejects(tmp_path, capsys):
    # lambda 5 violates the decay inequality; 1e308 overflows 2 lam M
    for lam, reason in ((5.0, "output slack -8.561e-03, "), (1e308, "not finite")):
        doc = demo_project()
        doc["subsystems"][0]["abstraction"]["certificate"]["lambda"] = lam
        code, out = run_check(tmp_path, capsys, doc)
        assert code == 1
        lines = [line for line in out.splitlines() if "certificate rejected" in line]
        assert len(lines) == 1
        assert lines[0].startswith("s1: construction failed: certificate rejected for s1: ")
        assert reason in lines[0]
        assert out.endswith("check: FAIL\n")
        assert main(["bounds", str(tmp_path / "project.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: certificate rejected for s1: ")
        # one rejection, one text
        assert lines[0] == "s1: construction failed: " + err.removeprefix("error: ").rstrip("\n")


def test_a_marginally_stable_computed_subsystem_is_placed(tmp_path, capsys):
    # s1's A less 1e-14 I is Hurwitz by a hair, inside the margin at which
    # the PBH test treats an eigenvalue as marginal. Accepted unplaced, its
    # decay rate of 5e-15 left a Lyapunov solution too stiff to scale;
    # stabilize places it at that margin
    doc = demo_project()
    s1 = doc["subsystems"][0]
    del s1["abstraction"]["certificate"]
    s1["A"] = (np.array(s1["A"]) - 1e-14 * np.eye(3)).tolist()
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 0
    assert out.endswith("check: pass\n")
    assert main(["bounds", str(tmp_path / "project.json")]) == 0
    assert capsys.readouterr().err == ""


def test_an_asymmetric_injected_m_is_a_rejected_certificate(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][0]["abstraction"]["certificate"]["M"][0][1] += 1.0
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 1
    assert "s1: construction failed: certificate rejected for s1: M must be symmetric\n" in out
    assert out.endswith("check: FAIL\n")
    path = str(tmp_path / "project.json")
    assert main(["abstract", path, "--out", str(tmp_path / "out")]) == 1
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "s1: construction failed: certificate rejected for s1: M must be symmetric"
    assert not (tmp_path / "out" / "s1_M.csv").exists()
    assert (tmp_path / "out" / "s2_M.csv").exists()
    capsys.readouterr()
    for command in ("bounds", "compose"):
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert err == "error: certificate rejected for s1: M must be symmetric\n"


def test_an_injection_with_no_columns_is_rejected(tmp_path, capsys):
    # a stable subsystem with nothing to abstract: no inputs, no
    # disturbances and no outputs leave the minimal invariant subspace 0
    for k, p in enumerate(("minimal-invariant", [[], []])):
        doc = demo_project()
        doc["subsystems"].append(
            {"name": "a", "A": [[-1.0, 0.0], [0.0, -2.0]], "abstraction": {"P": p}}
        )
        code, out = run_check(tmp_path, capsys, doc)
        assert code == 1
        message = "P has no columns: an abstraction needs at least one state"
        assert f"a: construction failed: {message}\n" in out
        assert out.endswith("check: FAIL\n")
        path = str(tmp_path / "project.json")
        out_dir = tmp_path / f"out{k}"
        assert main(["abstract", path, "--out", str(out_dir)]) == 1
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert summary[-1] == f"a: construction failed: {message}"
        for name in ("s1", "s2", "s3", "s4"):
            assert (out_dir / f"{name}_M.csv").exists()
        capsys.readouterr()
        assert main(["bounds", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_check_makes_one_call_per_stack_and_names_each_rejected_member(tmp_path, capsys, monkeypatch):
    # four same-shape subsystems are certified as one stack; a stack that
    # raises is certified again as its halves, so each rejected
    # injection keeps its own line and the reports stay in network order
    sizes = []

    def counted(systems, *args):
        sizes.append(len(systems))
        return build_abstraction(systems, *args)

    monkeypatch.setattr(cli, "build_abstraction", counted)
    shared = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
    doc = {
        "subsystems": [
            {"name": f"s{i}", **shared, "abstraction": {"P": [[1.0], [0.0]]}} for i in range(4)
        ]
    }
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 0 and sizes == [4]
    for i in (1, 3):
        doc["subsystems"][i]["abstraction"]["P"] = [[0.0], [0.0]]
    sizes.clear()
    code, failed = run_check(tmp_path, capsys, doc)
    assert code == 1 and sizes == [4, 2, 1, 1, 2, 1, 1]
    blocks, passing = reports(failed), reports(out)
    assert list(blocks) == ["s0", "s1", "s2", "s3"]
    for i in (1, 3):
        assert blocks[f"s{i}"] == [f"s{i}: construction failed: P must have full column rank"
                                   " (injective state mapping)"]
    # the members that pass report exactly what they report in a passing stack
    assert blocks["s0"] == passing["s0"] and blocks["s2"] == passing["s2"]


def test_check_tests_the_injected_certificates_once_per_stack(tmp_path, capsys, monkeypatch):
    # the demo's stacks are [s1], [s2, s4] and [s3], one certification
    # each; a stack that fails is certified again as its halves, so only
    # the failing member reports its certificate
    sizes = []

    def counted(systems, *args):
        sizes.append(len(systems))
        return build_abstraction(systems, *args)

    monkeypatch.setattr(cli, "build_abstraction", counted)
    code, out = run_check(tmp_path, capsys, demo_project())
    assert code == 0 and sizes == [1, 2, 1]
    doc = demo_project()
    doc["subsystems"][3]["abstraction"]["certificate"]["lambda"] = 5.0
    sizes.clear()
    code, failed = run_check(tmp_path, capsys, doc)
    assert code == 1 and sizes == [1, 2, 1, 1, 1]
    project = parse_project(doc)
    directive = project.directives["s4"]
    with pytest.raises(NumericsError) as alone:
        build_abstraction(
            [project.interconnection["s4"]], directive.p[None], [directive.certificate]
        )
    rejected = f"s4: construction failed: {alone.value}"
    blocks, passing = reports(failed), reports(out)
    assert [line for line in failed.splitlines() if "certificate" in line] == [rejected]
    assert blocks["s4"] == [rejected]
    for name in ("s1", "s2", "s3"):
        assert blocks[name] == passing[name]


@pytest.mark.parametrize("module, name", [
    ("abstraction", "check_P_conditions"), ("abstraction", "certificate_slacks"),
])
def test_check_exits_3_on_a_linalg_error(tmp_path, capsys, monkeypatch, module, name):
    # numpy's LinAlgError is a ValueError, but a numerical failure, not a
    # subsystem's verdict: check reports it as bounds does, with exit 3
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(f"simcompose.{module}.{name}", broken)
    path = tmp_path / "project.json"
    path.write_text(json.dumps(demo_project()))
    assert main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert err == "error: numerical failure in numpy.linalg: SVD did not converge\n"
    assert "rejected" not in out and "check:" not in out


def test_check_rejects_the_computed_certificate_bounds_rejects(tmp_path, capsys):
    # the injection conditions hold, but the computed certificate fails
    # the decay inequality: check fails with the text bounds prints
    doc = {"subsystems": [{"name": "far", "A": FAR_FROM_NORMAL, "C": np.eye(2).tolist()}]}
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 1
    assert main(["bounds", str(tmp_path / "project.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: certificate rejected for far: ") and "decay slack -3.973e-01" in err
    assert out.splitlines()[1:] == [
        "far: construction failed: " + err.removeprefix("error: ").rstrip("\n"), "check: FAIL",
    ]


def run_quietly(argv) -> tuple[int, str, str]:
    """``main`` on ``argv``: its exit code, standard output and standard
    error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# edits of the demo's simulation block that every subsystem certifies
# and bounds rejects before its run, with its error after "error: "
REJECTED_INPUTS = {
    "xhat0 one entry short": (
        lambda sim: sim["xhat0"].pop(), "xhat0 has length 3, the abstractions have 4 states",
    ),
    "x0 of length 3": (
        lambda sim: sim.update(x0=[0.0, 0.0, 0.0]),
        "x0 has length 3, the interconnection has 10 states",
    ),
    "s1 amplitude of width 2": (
        lambda sim: sim["inputs"]["s1"]["amplitude"].pop(),
        "input for s1 has width 2, the abstraction takes 3",
    ),
    "s2 times decrease": (
        lambda sim: sim["inputs"].update(
            s2={"kind": "samples", "times": [1.0, 0.0], "values": [[0.0], [0.0]]}),
        "simulation.inputs.s2: sample times must be strictly increasing",
    ),
    "s2 fewer rows than times": (
        lambda sim: sim["inputs"].update(
            s2={"kind": "samples", "times": [0.0, 1.0], "values": [[0.0]]}),
        "simulation.inputs.s2: signal needs one value row per sample time",
    ),
}


def rejected_before_the_run():
    """``(project, exit code, error)`` of each network above, of a ring
    whose couplings fail the small-gain test, and of the demo from an
    ``xhat0`` whose matched ``x0`` overflows."""
    cases = {}
    for label, (edit, message) in REJECTED_INPUTS.items():
        doc = demo_project()
        edit(doc["simulation"])
        cases[label] = (doc, 2, message)
    cases["ring of radius 7.15"] = (
        heterogeneous_ring(np.random.default_rng(1), 6, coupling=3.0), 1,
        "small-gain test failed: spectral radius 7.15034 >= 1; dominant cycle",
    )
    # the matched x0 = P xhat0 passes the float range for s2 and s4
    doc = demo_project()
    doc["simulation"]["xhat0"] = [1e308] * 4
    cases["xhat0 of 1e308"] = (
        doc, 3,
        "xhat0 is too large for subsystem s2: its matched initial state P xhat0"
        " has non-finite entries\n",
    )
    return cases


@pytest.mark.parametrize("label", list(rejected_before_the_run()))
def test_check_fails_what_bounds_rejects_before_its_run(tmp_path, capsys, label):
    doc, expected, message = rejected_before_the_run()[label]
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert code == expected and err.startswith(f"error: {message}")
    # every subsystem certified, and no verdict line
    assert "construction failed" not in out and "check:" not in out
    assert main(["bounds", str(path)]) == code
    assert capsys.readouterr().err == err


class ReachedTheRun(Exception):
    """Raised in place of the co-simulation: the command accepted the
    network."""


def reached(*args, **kwargs):
    raise ReachedTheRun


@settings(max_examples=40, deadline=None, derandomize=True)
@given(edit=st.none() | st.sampled_from(list(REJECTED_INPUTS)), coupling=st.floats(0.25, 2.0))
def test_check_exits_as_bounds_does_up_to_its_run(tmp_path_factory, edit, coupling):
    # the demo's radius grows linearly with its couplings and reaches 1
    # near coupling 1.05; check exits 0 exactly when bounds starts its
    # run, and otherwise with bounds' exit code and error
    doc = demo_project(coupling, coupling, coupling)
    if edit is not None:
        REJECTED_INPUTS[edit][0](doc["simulation"])
    path = tmp_path_factory.mktemp("demo") / "project.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_quietly(["check", str(path)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "refine_and_run", reached)
        try:
            bounds = run_quietly(["bounds", str(path)])
        except ReachedTheRun:
            bounds = None
    if bounds is None:
        assert (code, err) == (0, "") and out.endswith("check: pass\n")
    else:
        assert (code, err) == bounds[::2] and code != 0
        assert "check:" not in out


@settings(max_examples=24, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), ring=st.booleans(), size=st.integers(2, 6))
def test_check_passes_exactly_what_bounds_accepts_before_its_run(tmp_path_factory, seed, ring, size):
    # random networks (identity or minimal-invariant injections) fail on
    # unstabilizable pairs and on certificates; rings whose nodes lose
    # their input fail the injection conditions inside a stack; networks
    # that certify may still fail the small-gain test
    rng = np.random.default_rng(seed)
    if ring:
        doc = heterogeneous_ring(rng, size)
        for node in doc["subsystems"]:
            if rng.uniform() < 0.3:
                node["B"] = [[0.0]] * 3
    else:
        ic = random_network(rng, max_width=2, count=size)
        directives = {
            name: Directive(p=str(rng.choice(["identity", "minimal-invariant"])))
            for name in ic.names
        }
        doc = serialize_project(Project(ic, directives, SimulationSpec()))
    work = tmp_path_factory.mktemp("network")
    path = work / "project.json"
    path.write_text(json.dumps(doc))
    project = parse_project(doc)
    certified = accepted = False
    try:
        results = cli.build_abstractions(project)
        certified = True
        sim = project.simulation
        cli._prepare_run(project, results, sim.t_final, sim.dt)
        accepted = True
    except (ValueError, NumericsError):
        pass
    code, out, err = run_quietly(["check", str(path)])
    assert (code == 0) == accepted
    if accepted:
        assert out.endswith("check: pass\n") and err == ""
    elif certified:
        # bounds' error, before its run
        assert "check:" not in out
        assert run_quietly(["bounds", str(path)])[::2] == (code, err)
    else:
        assert code == 1 and out.endswith("check: FAIL\n")
    abstract_code, summary, _ = run_quietly(["abstract", str(path), "--out", str(work / "out")])
    assert abstract_code == (0 if certified else 1)
    failed = [line for line in summary.splitlines() if ": construction failed: " in line]
    assert [line for line in out.splitlines() if ": construction failed: " in line] == failed
    assert bool(failed) != certified


def reports(out) -> dict[str, list[str]]:
    """The lines of ``check``'s output by subsystem: its own line and the
    indented lines after it."""
    blocks = {}
    for line in out.splitlines()[1:-1]:
        if line.startswith(" "):
            blocks[name].append(line)
        else:
            name = line.split(":")[0]
            blocks.setdefault(name, []).append(line)
    return blocks
