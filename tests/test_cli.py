"""Project files, the entry grammar, and the command-line interface."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from simcompose import simulate
from simcompose.abstraction import build_abstraction
from simcompose.cli import (
    ProjectError,
    build_abstractions,
    build_input_signal,
    load_project,
    main,
    parse_project,
    read_numbers,
    resolve_initial_states,
    resolve_injection,
    run_compose,
)
from simcompose.demo import demo_project
from simcompose.simulate import Signal, bound_report, refine_and_run

from oracles import serialize_project

PARAMS = {"d1": 0.5, "d2": 0.25}


def write_project(tmp_path, doc, name="project.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def solo_project(inputs=None):
    return {
        "subsystems": [
            {
                "name": "solo",
                "A": [[-1.0]],
                "B": [[1.0]],
                "C": [[1.0]],
                "abstraction": {"P": "identity"},
            }
        ],
        "simulation": {"t_final": 1.0, "dt": 1e-3, "inputs": inputs or {}},
    }


def read_entry(entry):
    return float(read_numbers(entry, PARAMS, "t", ()))


def test_parse_entry_numbers_and_parameters():
    assert read_entry(2) == 2.0
    assert read_entry(-0.5) == -0.5
    assert read_entry("d1") == 0.5
    assert read_entry("-d2") == -0.25
    assert read_entry("2d2") == 0.5
    assert read_entry("2*d2") == 0.5
    assert read_entry("+.5d1") == 0.25
    assert read_entry(" d1 ") == 0.5


def test_parse_entry_rejects_garbage():
    with pytest.raises(ProjectError, match="boolean"):
        read_entry(True)
    with pytest.raises(ProjectError, match="unknown parameter"):
        read_entry("d9")
    with pytest.raises(ProjectError, match="cannot parse"):
        read_entry("d1+d2")
    with pytest.raises(ProjectError, match="cannot parse"):
        read_entry("1e-3d1")
    with pytest.raises(ProjectError, match="cannot parse"):
        read_entry("1.5")
    with pytest.raises(ProjectError, match="unsupported type"):
        read_entry(None)


def test_parse_matrix():
    rows = read_numbers([[1, "d1"], ["-2d2", 0]], PARAMS, "M", (None, None))
    assert rows.tolist() == [[1.0, 0.5], [-0.5, 0.0]]
    with pytest.raises(ProjectError, match="array of array rows"):
        read_numbers([1, 2], PARAMS, "M", (None, None))
    with pytest.raises(ProjectError, match=r"M\[0\]\[1\]"):
        read_numbers([[1, "bogus entry"]], PARAMS, "M", (None, None))


def test_read_numbers_shapes():
    assert read_numbers([], PARAMS, "B", (None, None)).shape == (0, 0)
    assert read_numbers([[], []], PARAMS, "B", (2, None)).shape == (2, 0)
    assert read_numbers(7, PARAMS, "t", None).shape == ()
    with pytest.raises(ProjectError, match=r"^P: expected 3 rows, got 0$"):
        read_numbers([], PARAMS, "P", (3, None))
    with pytest.raises(ProjectError, match=r"^x: expected a number$"):
        read_numbers([1.0], PARAMS, "x", ())
    with pytest.raises(ProjectError, match=r"^v\[1\]: rows have unequal lengths$"):
        read_numbers([[[1], [2]], [[3], [4, 5]]], PARAMS, "v", None)
    with pytest.raises(ProjectError, match=r"^v: rows have unequal depths$"):
        read_numbers([[1.0], [[2.0]]], PARAMS, "v", None)


# a rectangular array of depth 0-2 mixing numbers and parameter entries
ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (x, x)),
    st.integers(-10**6, 10**6).map(lambda k: (k, float(k))),
    st.sampled_from([("d1", 0.5), ("-d2", -0.25), ("2*d2", 0.5), ("+.5d1", 0.25)]),
)
REJECTED = st.sampled_from([
    (True, "boolean is not a matrix entry"),
    (None, "entry None has unsupported type"),
    ({}, "entry {} has unsupported type"),
    ("d9", "unknown parameter 'd9'"),
    (float("nan"), "entry nan is not finite"),
    (10**400, "integer entry is beyond the double range"),
])


@st.composite
def arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    flat = draw(st.lists(ENTRIES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    doc = np.empty(shape, dtype=object)
    expected = np.empty(shape)
    for k, index in enumerate(np.ndindex(shape)):
        doc[index], expected[index] = flat[k]
    return doc.tolist(), expected, shape


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(), st.data())
def test_read_numbers_property(case, data):
    doc, expected, shape = case
    for want in (None, shape, tuple(None for _ in shape)):
        got = read_numbers(copy.deepcopy(doc), PARAMS, "f", want)
        assert got.shape == shape
        assert np.array_equal(got, expected)
    # one rejected entry is named by exactly its index
    index = data.draw(st.sampled_from(list(np.ndindex(shape))))
    bad, message = data.draw(REJECTED)
    if shape:
        container = doc
        for i in index[:-1]:
            container = container[i]
        container[index[-1]] = bad
    else:
        doc = bad
    where = "f" + "".join(f"[{i}]" for i in index)
    with pytest.raises(ProjectError) as exc_info:
        read_numbers(doc, PARAMS, "f", shape)
    assert str(exc_info.value).startswith(f"{where}: ")
    assert message in str(exc_info.value)


def test_parse_project_demo_document():
    project = parse_project(demo_project())
    ic = project.interconnection
    assert ic.names == ["s1", "s2", "s3", "s4"]
    assert ic["s1"].D[2, 0] == 0.5
    assert np.array_equal(ic["s2"].D, [[-0.5], [1.0]])
    assert ic["s2"].B.shape == (2, 0)
    assert project.directives["s2"].certificate[2] == 2.0
    assert project.simulation.t_final == 20.0
    assert project.simulation.x0 == "matched"


def test_parse_project_errors():
    with pytest.raises(ProjectError, match="JSON object"):
        parse_project([1, 2])
    with pytest.raises(ProjectError, match="must be a number"):
        parse_project({"parameters": {"d1": True}, "subsystems": [{}]})
    with pytest.raises(ProjectError, match="nonempty subsystems"):
        parse_project({"subsystems": []})
    with pytest.raises(ProjectError, match="needs a name"):
        parse_project({"subsystems": [{"A": [[1]]}]})

    doc = solo_project()
    doc["subsystems"][0]["abstraction"] = {"P": "smallest"}
    with pytest.raises(ProjectError, match="unknown P directive"):
        parse_project(doc)

    doc = solo_project()
    doc["subsystems"][0]["abstraction"] = {"certificate": {"M": [[1]]}}
    with pytest.raises(ProjectError, match="certificate needs"):
        parse_project(doc)

    doc = solo_project()
    doc["subsystems"][0]["abstraction"] = {
        "certificate": {"M": [[1]], "K1": [[0]], "lambda": True}
    }
    with pytest.raises(ProjectError, match="lambda must be a number"):
        parse_project(doc)

    doc = solo_project()
    doc["simulation"]["t_final"] = -1.0
    with pytest.raises(ProjectError, match="simulation: horizon must be nonnegative"):
        parse_project(doc)
    doc["simulation"].update(t_final=1.0, dt=0)
    with pytest.raises(ProjectError, match="simulation: step size must be positive"):
        parse_project(doc)

    doc = solo_project()
    doc["simulation"]["x0"] = "somewhere"
    with pytest.raises(ProjectError, match="matched"):
        parse_project(doc)

    doc = solo_project(inputs={"solo": {"kind": "triangle"}})
    with pytest.raises(ProjectError, match="kind"):
        parse_project(doc)

    doc = solo_project()
    doc["subsystems"][0]["inputs"] = [{"from": "ghost"}]
    with pytest.raises(ProjectError, match="'from' and 'width'"):
        parse_project(doc)


def _container(doc, path):
    """The object or array holding the field at ``path``."""
    for step in path[:-1]:
        doc = doc[step]
    return doc


S1 = ("subsystems", 0)
S1_CERT = S1 + ("abstraction", "certificate")


@pytest.mark.parametrize("path, value, message", [
    (("simulation", "xhat0"), 5, "xhat0: expected an array of numbers"),
    (S1 + ("inputs", 0, "width"), [1], "subsystem s1.inputs[0].width: expected an integer"),
    (S1 + ("inputs", 0, "width"), 1.7, "subsystem s1.inputs[0].width: expected an integer"),
    (S1 + ("inputs", 0, "width"), True, "subsystem s1.inputs[0].width: expected an integer"),
    (S1 + ("inputs", 0, "from"), ["s3"],
     "subsystem s1.inputs[0].from: expected a subsystem name"),
    (S1 + ("outputs_to",), [], "subsystem s1.outputs_to: expected an object"),
    (S1 + ("name",), ["x"], "subsystem name must be a string"),
    (S1 + ("abstraction", "P"), [[1.0], [0.0, 1.0], [0.0]],
     "subsystem s1.P: rows have unequal lengths"),
    (S1 + ("abstraction", "P"), [[1.0], [0.0]], "subsystem s1.P: expected 3 rows, got 2"),
    (S1_CERT + ("M",), [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
     "subsystem s1.M: rows have unequal lengths"),
    (S1_CERT + ("M",), [[1.0, 0.0], [0.0, 1.0]],
     "subsystem s1.M: expected shape (3, 3), got (2, 2)"),
    (S1_CERT + ("K1",), [[1, 2]], "subsystem s1.K1: expected shape (1, 3), got (1, 2)"),
    (S1_CERT + ("lambda",), float("nan"),
     "subsystem s1: certificate lambda must be finite and positive, got nan"),
    (S1_CERT + ("lambda",), float("inf"),
     "subsystem s1: certificate lambda must be finite and positive, got inf"),
    (S1_CERT + ("lambda",), 0,
     "subsystem s1: certificate lambda must be finite and positive, got 0.0"),
    (("simulation", "inputs", "s1", "kind"), ["square"], "input for 's1' needs a kind"),
    (("parameters", "d1"), 10**400, "parameter 'd1' is beyond the double range"),
    (S1 + ("A", 0, 0), 10**400, "subsystem s1.A[0][0]: integer entry is beyond the double range"),
], ids=[
    "xhat0-scalar", "width-list", "width-float", "width-bool", "from-list",
    "outputs_to-list", "name-list", "P-ragged", "P-rows", "M-ragged", "M-2x2", "K1-1x2",
    "lambda-nan", "lambda-inf", "lambda-zero", "kind-list", "parameter-overflow",
    "entry-overflow",
])
def test_cli_malformed_field_exits_2_and_names_it(tmp_path, capsys, path, value, message):
    doc = demo_project()
    _container(doc, path)[path[-1]] = value
    assert main(["compose", write_project(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def _paths(value, prefix=()):
    """Every position in a JSON document, containers included."""
    if prefix:
        yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


DEMO_DOC = demo_project()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(list(_paths(DEMO_DOC))), JSON_VALUES)
def test_parse_project_swapped_field_raises_only_value_error(path, value):
    # a field of another JSON type is either accepted or a ValueError
    # (ProjectError, or a wiring error), never another exception
    doc = copy.deepcopy(DEMO_DOC)
    container = _container(doc, path)
    assume(type(container[path[-1]]) is not type(value))
    container[path[-1]] = value
    try:
        parse_project(doc)
    except ValueError:
        pass


def test_parse_project_shape_errors_name_the_subsystem():
    doc = solo_project()
    doc["subsystems"][0]["A"] = [[1.0, 0.0]]
    with pytest.raises(ProjectError, match="subsystem solo"):
        parse_project(doc)


def test_parse_project_rejects_a_subsystem_without_states():
    doc = solo_project()
    doc["subsystems"].append({"name": "z", "A": [], "B": [], "C": [], "D": []})
    with pytest.raises(ProjectError, match=r"subsystem z: z\.A has no states"):
        parse_project(doc)


def renamed(doc, old, new):
    """The project document with subsystem ``old`` renamed to ``new``
    wherever it appears."""
    return json.loads(json.dumps(doc).replace(json.dumps(old), json.dumps(new)))


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
def test_parse_project_rejects_a_name_that_is_not_a_file_name(name):
    with pytest.raises(ProjectError, match=f"subsystem name {re.escape(repr(name))} is not"):
        parse_project(renamed(demo_project(), "s2", name))


def test_cli_abstract_rejects_an_escaping_name_before_writing(tmp_path, capsys):
    path = write_project(tmp_path, renamed(demo_project(), "s2", "../escaped"))
    assert main(["abstract", path, "--out", str(tmp_path / "absout" / "sub")]) == 2
    assert "error: subsystem name '../escaped' is not a plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["project.json"]


def test_parse_project_wiring_errors_propagate():
    doc = solo_project()
    doc["subsystems"][0]["inputs"] = [{"from": "ghost", "width": 1}]
    doc["subsystems"][0]["D"] = [[1.0]]
    with pytest.raises(ValueError, match="unknown subsystem") as exc_info:
        parse_project(doc)
    assert not isinstance(exc_info.value, ProjectError)


def test_load_project(tmp_path):
    path = write_project(tmp_path, demo_project())
    project = load_project(path)
    assert project.interconnection.names == ["s1", "s2", "s3", "s4"]
    with pytest.raises(ProjectError, match="cannot read"):
        load_project(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json }")
    with pytest.raises(ProjectError, match=r"broken\.json:1:"):
        load_project(bad)


def test_serialize_roundtrip_is_exact():
    first = parse_project(demo_project())
    second = parse_project(serialize_project(first))
    for name in first.interconnection.names:
        a, b = first.interconnection[name], second.interconnection[name]
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C_ext, b.C_ext)
        assert np.array_equal(a.D, b.D)
        assert sorted(a.C_int) == sorted(b.C_int)
        for peer in a.C_int:
            assert np.array_equal(a.C_int[peer], b.C_int[peer])
        assert a.channels_in == b.channels_in
        da, db = first.directives[name], second.directives[name]
        assert np.array_equal(da.p, db.p)
        assert np.array_equal(da.certificate[0], db.certificate[0])
        assert da.certificate[2] == db.certificate[2]
    assert second.simulation.t_final == first.simulation.t_final
    assert second.simulation.inputs.keys() == first.simulation.inputs.keys()
    for name, spec in first.simulation.inputs.items():
        assert second.simulation.inputs[name].keys() == spec.keys()
        for key, value in spec.items():
            assert np.array_equal(second.simulation.inputs[name][key], value)


def test_empty_k1_parses_to_the_zero_feedback():
    # the parser is the one place an empty K1 becomes the m x n zero gain;
    # the abstraction then sees exactly the gain it would be given by hand
    doc = solo_project()
    doc["subsystems"][0]["abstraction"]["certificate"] = {
        "M": [[2.0]], "K1": [], "lambda": 0.5,
    }
    project = parse_project(doc)
    m, k1, lam = project.directives["solo"].certificate
    assert k1.shape == (1, 1) and not k1.any()
    parsed = build_abstractions(project)["solo"]
    (explicit,) = build_abstraction(
        [project.interconnection["solo"]], np.eye(1)[None], [(m, np.zeros((1, 1)), lam)]
    )
    for key in ("P", "M", "K1", "K2", "K3", "K4"):
        assert np.array_equal(getattr(parsed.simfn, key), getattr(explicit.simfn, key))
    for key in ("A", "B", "C_ext", "D"):
        assert np.array_equal(getattr(parsed.system, key), getattr(explicit.system, key))
    assert parsed.gains == explicit.gains


def test_resolve_injection_directives():
    project = parse_project(demo_project())
    ic = project.interconnection

    identity = resolve_injection(ic["s1"], type(project.directives["s1"])())
    assert np.array_equal(identity, np.eye(3))

    from simcompose.cli import Directive

    # the integrator chain is reachable from its inputs, so the minimal
    # invariant subspace is everything
    p = resolve_injection(ic["s1"], Directive(p="minimal-invariant"))
    assert p.shape == (3, 3)
    assert np.linalg.matrix_rank(p) == 3

    # the damped node is driven only along an eigenvector
    p = resolve_injection(ic["s2"], Directive(p="minimal-invariant"))
    assert p.shape == (2, 1)
    direction = p[:, 0] / p[0, 0]
    assert np.allclose(direction, [1.0, -2.0])


def test_build_input_signal_kinds():
    doc = solo_project(inputs={
        "solo": {
            "kind": "samples",
            "times": [0.0, 0.5],
            "values": [[0.2], [0.4]],
        }
    })
    project = parse_project(doc)
    results = build_abstractions(project)
    sig = build_input_signal(project, results, 1.0)
    assert np.allclose(sig.sample([0.25])[0], [0.2])
    assert np.allclose(sig.sample([0.75])[0], [0.4])

    doc = solo_project(inputs={"solo": {"kind": "constant", "value": [0.3]}})
    project = parse_project(doc)
    sig = build_input_signal(project, build_abstractions(project), 1.0)
    assert np.allclose(sig.sample([10.0])[0], [0.3])

    doc = solo_project(inputs={"solo": {"kind": "constant", "value": [0.3, 0.1]}})
    project = parse_project(doc)
    with pytest.raises(ProjectError, match="width"):
        build_input_signal(project, build_abstractions(project), 1.0)


def test_resolve_initial_states():
    project = parse_project(demo_project())
    results = build_abstractions(project)
    xhat0, x0 = resolve_initial_states(project, results)
    assert np.allclose(xhat0, [0.6, -0.4, 0.5, 0.3])
    expected = np.concatenate([
        [0.6, 0.0, 0.0], [-0.4, 0.8], [0.5, 0.0, 0.0], [0.3, -0.6],
    ])
    assert np.allclose(x0, expected)

    project.simulation.xhat0 = np.zeros(3)
    with pytest.raises(ProjectError, match="xhat0 has length"):
        resolve_initial_states(project, results)

    project.simulation.xhat0 = np.zeros(4)
    project.simulation.x0 = np.zeros(9)
    with pytest.raises(ProjectError, match="x0 has length"):
        resolve_initial_states(project, results)


_E1 = [[1.0, 0.0, 0.0]]


def ring_document(couplings, xhat0, amplitudes, rotation):
    """A directed ring of triple integrators (third derivative u + d w),
    each listening to its predecessor and abstracted to its position with
    a computed certificate; the subsystem list starts at ``rotation``."""
    size = len(couplings)
    names = [f"r{i}" for i in range(size)]
    subsystems = [
        {
            "name": name,
            "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            "B": [[0.0], [0.0], [1.0]],
            "C": _E1,
            "D": [[0.0], [0.0], [couplings[i]]],
            "inputs": [{"from": names[i - 1], "width": 1}],
            "outputs_to": {names[(i + 1) % size]: _E1},
            "abstraction": {"P": [[1.0], [0.0], [0.0]]},
        }
        for i, name in enumerate(names)
    ]
    order = [(i + rotation) % size for i in range(size)]
    return {
        "subsystems": [subsystems[i] for i in order],
        "simulation": {
            "t_final": 1.0,
            "dt": 0.01,
            "xhat0": [xhat0[i] for i in order],
            "inputs": {
                name: {"kind": "square", "amplitude": [amplitudes[i]] * 3, "period": 0.37}
                for i, name in enumerate(names)
            },
        },
    }


def run_document(doc):
    project = parse_project(doc)
    results = build_abstractions(project)
    gm, _, composed = run_compose(project, results)
    uhat = build_input_signal(project, results, project.simulation.t_final)
    xhat0, x0 = resolve_initial_states(project, results)
    run = refine_and_run(
        project.interconnection, results, composed, x0, xhat0, uhat,
        t_final=project.simulation.t_final, dt=project.simulation.dt,
    )
    return gm, composed, run, bound_report(run, composed, gm, uhat)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_pipeline_is_unchanged_by_reordering_subsystems(data):
    size = data.draw(st.integers(2, 5))
    entries = st.lists(st.floats(-0.5, 0.5), min_size=size, max_size=size)
    couplings = data.draw(st.lists(st.floats(0.05, 0.25), min_size=size, max_size=size))
    xhat0, amplitudes = data.draw(entries), data.draw(entries)
    rotation = data.draw(st.integers(1, size - 1))
    gm, composed, run, report = run_document(ring_document(couplings, xhat0, amplitudes, 0))
    gm_r, composed_r, run_r, report_r = run_document(
        ring_document(couplings, xhat0, amplitudes, rotation)
    )
    perm = [(i + rotation) % size for i in range(size)]
    assert gm_r.names == tuple(gm.names[i] for i in perm)
    assert np.array_equal(gm_r.gamma, gm.gamma[np.ix_(perm, perm)])
    assert np.array_equal(gm_r.lam, gm.lam[perm])
    assert np.array_equal(gm_r.rho, gm.rho[perm])
    assert composed_r.lam == pytest.approx(composed.lam, rel=1e-12, abs=0.0)
    assert composed_r.rho == pytest.approx(composed.rho, rel=1e-12, abs=0.0)
    assert np.abs(run_r.v - run.v[:, perm]).max() <= 1e-9 * np.abs(run.v).max()
    assert report_r.ok == report.ok


def test_cli_bounds_on_a_hundred_node_ring_matches_the_exact_propagation(
    tmp_path, capsys, monkeypatch
):
    # the 400 joint states take the sparse row form; the oracle is the
    # exact propagation with held inputs, and the tolerance the global
    # error of classical fourth order, T |A|^5 dt^4 / 120 with a factor 10
    rng = np.random.default_rng(431)
    size = 100
    doc = ring_document(
        rng.uniform(0.12, 0.2, size).tolist(), rng.uniform(-0.5, 0.5, size).tolist(),
        rng.uniform(-0.05, 0.05, size).tolist(), 0,
    )
    runs, forms = [], []
    real_run, real_maps = simulate._run_lti, simulate._step_maps

    def recording(*args):
        runs.append((args, real_run(*args)))
        return runs[-1][1]

    def spy(a, dt):
        forms.append(type(a))
        return real_maps(a, dt)

    monkeypatch.setattr(simulate, "_run_lti", recording)
    monkeypatch.setattr(simulate, "_step_maps", spy)
    assert main(["bounds", write_project(tmp_path, doc)]) == 0
    assert "VIOLATED" not in capsys.readouterr().out
    ((a, b, inputs, x0, grid, dt), states), = runs
    assert a.shape == (4 * size, 4 * size)
    assert forms == [simulate._SparseRows]
    n, width = b.shape
    aug = np.zeros((n + width, n + width))
    aug[:n, :n], aug[:n, n:] = a, b
    step = expm(aug * dt)
    exact = np.empty_like(states)
    exact[0] = x0
    for k in range(len(grid) - 1):
        exact[k + 1] = step[:n, :n] @ exact[k] + step[:n, n:] @ inputs[k]
    scale = max(1.0, float(np.max(np.abs(exact))))
    tol = 10.0 * grid[-1] * np.linalg.norm(a, 2) ** 5 * dt ** 4 / 120.0 * scale
    assert np.max(np.abs(states - exact)) <= tol


def test_cli_check_demo(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "4 subsystems, wiring ok" in out
    assert "s1: stabilizable yes" in out
    assert "check: pass" in out


def test_demo_subsystems_share_no_objects():
    # editing one subsystem of the bundled document leaves its twin as it was
    doc = demo_project()
    s1, s2, s3, s4 = doc["subsystems"]
    s2["abstraction"]["P"][0][0] = 7.0
    s2["abstraction"]["certificate"]["M"][0][0] = 7.0
    s2["outputs_to"]["s3"][0][0] = 7.0
    s1["abstraction"]["certificate"]["M"][0][0] = 7.0
    s1["abstraction"]["certificate"]["lambda"] = 7.0
    s1["A"][0][1] = 7.0
    _, _, fresh3, fresh4 = demo_project()["subsystems"]
    assert s3 == fresh3 and s4 == fresh4


def test_cli_check_rejects_bad_injection(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][1]["abstraction"]["P"] = [[0.0], [1.0]]
    path = write_project(tmp_path, doc)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "check: FAIL" in out


def test_cli_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_linalg_error_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must still exit as a numerical
    # failure, not as a failed analysis
    def broken(project):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("simcompose.cli.build_abstractions", broken)
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "SVD did not converge" in err


def test_cli_compose_demo(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path]) == 0
    out = capsys.readouterr().out
    assert "spectral radius of Gamma Lambda^-1: 0.475976" in out
    assert "eta (dominant vector):" in out
    assert "(strict)" in out
    assert "composed lambda:" in out


def test_cli_compose_published_overrides(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path, "--eta", "0.4,0.6,0.5,0.6", "--eps", "4"]) == 0
    out = capsys.readouterr().out
    assert "eta (override): [0.4, 0.6, 0.5, 0.6]" in out
    assert "NOT strict" in out
    assert "composed lambda: 0.8" in out
    assert "rho/lambda: 5.89256" in out


def test_cli_compose_labels_each_override_by_its_own_flag(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path, "--eps", "4"]) == 0
    out = capsys.readouterr().out
    assert "eta (dominant vector): [0.410223, 0.609425, 0.5, 0.609425]" in out
    assert "epsilon (override): 4" in out
    assert main(["compose", path, "--eta", "0.4,0.6,0.5,0.6"]) == 0
    out = capsys.readouterr().out
    assert "eta (override): [0.4, 0.6, 0.5, 0.6]" in out
    assert "epsilon (default):" in out


def test_cli_compose_unreadable_eta_names_the_flag(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path, "--eta", "a,b,c,d"]) == 1
    err = capsys.readouterr().err
    assert "error: --eta: " in err
    assert "'a'" in err


def test_cli_compose_strong_coupling_fails(tmp_path, capsys):
    doc = demo_project()
    doc["parameters"] = {"d1": 1.1, "d2": 1.1, "d3": 1.1}
    path = write_project(tmp_path, doc)
    assert main(["compose", path]) == 1
    assert "small-gain test failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coupling, radius, gain", [
    (1e150, "9.51952e+149", "7.55565e+149"),
    (1e300, "9.51952e+299", "7.55565e+299"),
], ids=["1e150", "1e300"])
def test_cli_overflowing_couplings_fail_the_small_gain_test(
    tmp_path, capsys, coupling, radius, gain
):
    # the loop's gains pass the float range when multiplied, and their
    # squares when measured: each subsystem still certifies, and the
    # small-gain error names a finite mean gain, with no numpy warning
    path = write_project(tmp_path, demo_project(coupling, coupling, coupling))
    for command in ("check", "compose"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err == (
            f"error: small-gain test failed: spectral radius {radius} >= 1; dominant cycle"
            f" s1 -> s2 -> s3 -> s1 with mean gain {gain}\n"
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_subnormal_couplings_pass_without_warning(tmp_path, capsys):
    # S eta is subnormal: the ratio eta / (S eta) that bounds epsilon is
    # infinite, and EPSILON_CAP caps it
    path = write_project(tmp_path, demo_project(1e-310, 1e-310, 1e-310))
    assert main(["check", path]) == 0
    assert "check: pass" in capsys.readouterr().out
    assert main(["compose", path]) == 0
    assert "path margin: 0.5 (strict)" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_compose_subnormal_eta_override_exits_1_without_warning(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path, "--eta", "1e-320,1,1,1"]) == 1
    assert capsys.readouterr().err == (
        "error: epsilon must be finite and positive, got -0.99"
        " (the largest the given eta admits)\n"
    )


def test_cli_compose_bad_eta_count(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["compose", path, "--eta", "1,2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compose", "--eps", "nan"], "epsilon must be finite and positive, got nan"),
    (["compose", "--eps", "inf"], "epsilon must be finite and positive, got inf"),
    (["compose", "--eta", "nan,0.6,0.5,0.6"], "eta must be finite and strictly positive"),
    (["bounds", "--v0", "nan"], "bound start level v0 must be finite, got nan"),
], ids=["eps-nan", "eps-inf", "eta-nan", "v0-nan"])
def test_cli_non_finite_override_exits_1(tmp_path, capsys, argv, message):
    path = write_project(tmp_path, demo_project())
    assert main([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "nan" not in captured.out.lower()


def test_cli_negative_v0_exits_1(tmp_path, capsys):
    # a deviation level is a norm: a negative start is an invalid argument,
    # not an envelope to judge the run against
    path = write_project(tmp_path, demo_project())
    assert main(["bounds", path, "--v0", "-1", "--tfinal", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: bound start level v0 must be nonnegative, got -1.0" in captured.err
    assert "VIOLATED" not in captured.out


def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.84 PiB for an array")

    monkeypatch.setattr("simcompose.cli.refine_and_run", exhausted)
    path = write_project(tmp_path, demo_project())
    assert main(["bounds", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 2.84 PiB for an array\n"


def test_cli_abstract_exports(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    out_dir = tmp_path / "matrices"
    assert main(["abstract", path, "--out", str(out_dir)]) == 0
    for label in ("Ahat", "Bhat", "Chat", "Dhat", "P", "Phat",
                  "M", "K1", "K2", "K3", "K4", "gains"):
        for name in ("s1", "s2", "s3", "s4"):
            assert (out_dir / f"{name}_{label}.csv").exists()
    summary = (out_dir / "summary.txt").read_text()
    assert "s2: nhat 1, Ahat [-2]" in summary
    assert "rho 1.41421" in summary
    assert "K4 norm 1.47541" in summary
    ahat = np.loadtxt(out_dir / "s2_Ahat.csv", delimiter=",").reshape(-1)
    assert ahat[0] == pytest.approx(-2.0, abs=1e-12)


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    out_csv = tmp_path / "run.csv"
    assert main(["simulate", path, "--out", str(out_csv), "--tfinal", "2.0"]) == 0
    out = capsys.readouterr().out
    assert out_csv.exists()
    assert (tmp_path / "run.gp").exists()
    assert "trajectory written to" in out
    assert "scalar bound" in out
    assert "conservative external gain" in out


def test_cli_simulate_rejects_an_out_its_script_would_overwrite(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    out = tmp_path / "run.gp"
    assert main(["simulate", path, "--out", str(out), "--tfinal", "0.01"]) == 1
    captured = capsys.readouterr()
    assert f"error: --out {out}: the gnuplot script would overwrite the trajectory" in captured.err
    assert "written" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["project.json"]


def test_cli_simulate_quotes_the_csv_name_in_the_script(tmp_path, capsys):
    # gnuplot ends a single-quoted string at a lone quote; '' is a quote
    path = write_project(tmp_path, demo_project())
    assert main(["simulate", path, "--out", str(tmp_path / "it's.csv"), "--tfinal", "0.01"]) == 0
    script = (tmp_path / "it's.gp").read_text()
    assert script.splitlines()[0] == "csv = 'it''s.csv'"


def test_cli_writes_non_ascii_output_names(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["simulate", path, "--out", str(tmp_path / "ü.csv"), "--tfinal", "0.01"]) == 0
    script = (tmp_path / "ü.gp").read_text(encoding="utf-8")
    assert script.splitlines()[0] == "csv = 'ü.csv'"
    out_dir = tmp_path / "matrices"
    doc = renamed(demo_project(), "s2", "sé")
    assert main(["abstract", write_project(tmp_path, doc), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    assert "sé: nhat 1, Ahat [-2]" in summary
    assert (out_dir / "sé_Ahat.csv").exists()
    capsys.readouterr()


def test_cli_rejects_a_horizon_too_long_to_hold(tmp_path, capsys, monkeypatch):
    # 10^15 steps: check and bounds both reject the run before any signal,
    # a square wave's switch times first, is allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("a signal was built")

    monkeypatch.setattr(Signal, "square", unreachable)
    doc = demo_project()
    doc["simulation"].update(t_final=1e15, dt=1)
    path = write_project(tmp_path, doc)
    message = re.compile(
        r"error: simulation: horizon 1000000000000000\.0 in steps of size 1\.0 needs"
        r" \S+ GB for the run's states and inputs, more than the \S+ GB of physical memory\n"
    )
    for command in ("check", "bounds"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert message.fullmatch(captured.err), captured.err
        assert "pass" not in captured.out
    # as an override, the horizon is measured once the abstract sizes are known
    path = write_project(tmp_path, demo_project())
    assert main(["bounds", path, "--tfinal", "1e15", "--dt", "1"]) == 1
    assert "error: horizon 1000000000000000.0 in steps of size 1.0 needs" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude, quantity", [
    (1e160, r"deviation V_s1 overflows the float range at t = 0\.001"),
    (1e154, r"input sup norm overflows the float range: its largest entry is 1e\+154"),
])
def test_cli_names_a_norm_that_overflows_instead_of_a_violated_bound(
    tmp_path, capsys, amplitude, quantity
):
    # the states stay finite, but the squares in a norm pass the float
    # range: exit 3 naming the quantity, not an inf/nan bound VIOLATED
    # (pytest turns numpy's overflow warnings into errors)
    doc = demo_project()
    doc["simulation"]["inputs"]["s1"]["amplitude"] = [amplitude] * 3
    doc["simulation"]["t_final"] = 1.0
    path = write_project(tmp_path, doc)
    for command in (["bounds", path], ["simulate", path, "--out", str(tmp_path / "run.csv")]):
        assert main(command) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(f"error: {quantity}.*\n", captured.err), captured.err
        assert "VIOLATED" not in captured.out and "nan" not in captured.out


def test_cli_rejects_a_square_wave_far_below_the_step(tmp_path, capsys, monkeypatch):
    # a period of 1e-12 puts 4e13 switch times in the demo's 20 s: check
    # and bounds both reject it before any signal is built, naming them
    def unreachable(*args, **kwargs):
        raise AssertionError("a signal was built")

    monkeypatch.setattr(Signal, "square", unreachable)
    doc = demo_project()
    for spec in doc["simulation"]["inputs"].values():
        spec["period"] = 1e-12
    path = write_project(tmp_path, doc)
    message = re.compile(
        r"error: simulation: horizon 20\.0 in steps of size 0\.001 and 4e\+13 square-wave"
        r" switch times needs \S+ GB for the run's states and inputs, more than the \S+ GB"
        r" of physical memory\n"
    )
    for command in (["check", path], ["bounds", path, "--tfinal", "1"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert message.fullmatch(captured.err), captured.err
        assert "pass" not in captured.out


def test_cli_memory_guard_charges_the_switch_times_of_every_period(tmp_path, capsys, monkeypatch):
    # four square inputs of distinct periods near 0.01 s: the stacked
    # input holds the union of their switch times, 15 577 rows in 20 s,
    # where the busiest input alone holds 4 000. A memory of 15 000 rows
    # past the grid's 2 001 points, for the 10 concrete states, is too
    # small, and check and bounds say so before any signal is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a signal was built")

    monkeypatch.setattr(Signal, "square", unreachable)
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 10 * (2001 + 15000)}
    monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
    doc = demo_project()
    doc["simulation"]["dt"] = 0.01
    for name, width, period in (
        ("s1", 3, 0.01), ("s2", 1, 0.0101), ("s3", 3, 0.0102), ("s4", 1, 0.0103),
    ):
        doc["simulation"]["inputs"][name] = {
            "kind": "square", "amplitude": [0.01] * width, "period": period,
        }
    path = write_project(tmp_path, doc)
    message = re.compile(
        r"error: simulation: horizon 20\.0 in steps of size 0\.01 and 1\.58e\+04 square-wave"
        r" switch times needs 0\.00142 GB for the run's states and inputs, more than the"
        r" 0\.00136 GB of physical memory\n"
    )
    for command in (["check", path], ["bounds", path]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert message.fullmatch(captured.err), captured.err
        assert "pass" not in captured.out


def test_cli_unwritable_out_exits_1(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    missing = tmp_path / "no" / "such" / "run.csv"
    assert main(["simulate", path, "--out", str(missing), "--tfinal", "0.1"]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {missing}: No such file or directory" in err
    assert "Traceback" not in err
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the output directory should go")
    assert main(["abstract", path, "--out", str(blocker / "matrices")]) == 1
    assert f"error: cannot write {blocker / 'matrices'}: Not a directory" in capsys.readouterr().err


def test_cli_bounds(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    assert main(["bounds", path, "--tfinal", "2.0", "--v0", "0.85"]) == 0
    out = capsys.readouterr().out
    assert "scalar bound" in out
    assert "margin" in out


def test_cli_rejects_non_finite_horizon_and_step(tmp_path, capsys):
    path = write_project(tmp_path, demo_project())
    for flag, value, label in (
        ("--tfinal", "inf", "horizon"), ("--tfinal", "nan", "horizon"),
        ("--dt", "nan", "step size"),
    ):
        assert main(["bounds", path, flag, value]) == 1
        assert f"error: {label} must be finite, got {value}" in capsys.readouterr().err
    # finite values whose step count is not
    assert main(["bounds", path, "--tfinal", "1e300", "--dt", "1e-10"]) == 1
    assert (
        "error: horizon 1e+300 holds too many steps of size 1e-10 to count"
        in capsys.readouterr().err
    )
    doc = demo_project()
    doc["simulation"]["t_final"] = float("inf")
    assert main(["bounds", write_project(tmp_path, doc)]) == 2
    assert "t_final: entry inf is not finite" in capsys.readouterr().err


def test_cli_project_horizon_off_the_step_grid_exits_2(tmp_path, capsys):
    # judged when the project is read, so check rejects it as bounds would
    doc = demo_project()
    doc["simulation"].update(t_final=1.0, dt=0.3)
    path = write_project(tmp_path, doc)
    for command in ("check", "bounds"):
        assert main([command, path]) == 2
        assert (
            "error: simulation: horizon 1.0 is not a whole number of steps of size 0.3"
            in capsys.readouterr().err
        )
    # a finite step count too large for an array index is not counted either
    for dt, shown in ((1e-10, "1e-10"), (1, "1.0")):
        doc["simulation"].update(t_final=1e300, dt=dt)
        path = write_project(tmp_path, doc)
        for command in ("check", "bounds"):
            assert main([command, path]) == 2
            assert (
                f"error: simulation: horizon 1e+300 holds too many steps of size {shown} to count"
                in capsys.readouterr().err
            )


def test_cli_project_zero_horizon_is_accepted_like_the_flag(tmp_path, capsys):
    doc = demo_project()
    doc["simulation"]["t_final"] = 0
    assert main(["bounds", write_project(tmp_path, doc)]) == 0
    from_document = capsys.readouterr().out
    assert main(["bounds", write_project(tmp_path, demo_project(), "demo.json"),
                 "--tfinal", "0"]) == 0
    assert capsys.readouterr().out == from_document


def test_cli_rejects_non_finite_matrix_entry(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][0]["A"][0][1] = float("nan")
    assert main(["compose", write_project(tmp_path, doc)]) == 2
    assert "subsystem s1.A[0][1]: entry nan is not finite" in capsys.readouterr().err
    doc = demo_project()
    doc["parameters"]["d1"] = float("inf")
    with pytest.raises(ProjectError, match=r"D\[2\]\[0\]: entry 'd1' is not finite"):
        parse_project(doc)


def test_cli_rejects_bad_input_signal_entries(tmp_path, capsys):
    for field, value, message in (
        ("period", float("inf"), "simulation.inputs.s1.period: entry inf is not finite"),
        ("period", 0.0, "simulation.inputs.s1.period: expected a positive number, got 0.0"),
        ("period", [5.0], "simulation.inputs.s1.period: expected a positive number"),
        ("amplitude", [float("nan")], "simulation.inputs.s1.amplitude[0]: entry nan is not finite"),
        ("amplitude", ["gain"], "simulation.inputs.s1.amplitude[0]: unknown parameter 'gain'"),
    ):
        doc = demo_project()
        doc["simulation"]["inputs"]["s1"][field] = value
        assert main(["bounds", write_project(tmp_path, doc)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    doc = demo_project()
    del doc["simulation"]["inputs"]["s1"]["period"]
    assert main(["bounds", write_project(tmp_path, doc)]) == 2
    assert "simulation.inputs.s1: a square input needs 'period'" in capsys.readouterr().err
    doc = demo_project()
    doc["simulation"]["inputs"]["s1"] = {
        "kind": "samples", "times": [0.0, 0.0], "values": [[0.1], [0.2]],
    }
    assert main(["bounds", write_project(tmp_path, doc)]) == 2
    assert "simulation.inputs.s1: sample times must be strictly increasing" in (
        capsys.readouterr().err
    )
    doc = demo_project()
    doc["simulation"]["inputs"]["S1"] = doc["simulation"]["inputs"].pop("s1")
    assert main(["bounds", write_project(tmp_path, doc)]) == 2
    assert "simulation.inputs.S1: no subsystem is named 'S1'" in capsys.readouterr().err


@pytest.mark.parametrize("signal, message", [
    ({"kind": "samples", "times": [0.0, 1.0], "values": [[0.1, 0.1, 0.1], [0.2]]},
     "simulation.inputs.s1.values: rows have unequal lengths"),
    ({"kind": "samples", "times": [0.0, 1.0], "values": [[0.1, 0.1, 0.1], 0.2]},
     "simulation.inputs.s1.values: rows have unequal depths"),
    ({"kind": "samples", "times": [0.0, 1.0], "values": [[[0.1, 0.1, 0.1]], [[0.2, 0.2, 0.2]]]},
     "simulation.inputs.s1.values: expected an array of array rows"),
    ({"kind": "samples", "times": [[0.0], [1.0]], "values": [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]},
     "simulation.inputs.s1.times: expected an array of numbers"),
    ({"kind": "square", "amplitude": [[0.1, 0.1, 0.1]], "period": 5.0},
     "simulation.inputs.s1.amplitude: expected an array of numbers"),
    ({"kind": "constant", "value": [[0.1], [0.1, 0.1]]},
     "simulation.inputs.s1.value: rows have unequal lengths"),
], ids=["values-ragged", "values-mixed-depth", "values-over-deep", "times-over-deep",
        "amplitude-over-deep", "value-ragged"])
def test_cli_ragged_or_over_deep_signal_field_exits_2(tmp_path, capsys, signal, message):
    doc = demo_project()
    doc["simulation"]["inputs"]["s1"] = signal
    assert main(["bounds", write_project(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_input_signal_entries_read_parameters():
    doc = solo_project(inputs={
        "solo": {"kind": "square", "amplitude": ["2*d"], "period": "p"},
    })
    doc["parameters"] = {"d": 0.05, "p": 0.4}
    project = parse_project(doc)
    assert project.simulation.inputs["solo"] == {
        "kind": "square", "amplitude": [0.1], "period": 0.4,
    }
    sig = build_input_signal(project, build_abstractions(project), 1.0)
    assert np.allclose(sig.sample([0.1])[0], [0.1])
    assert np.allclose(sig.sample([0.3])[0], [-0.1])

def test_cli_reproduce_example(capsys):
    assert main(["reproduce-example"]) == 0
    first = capsys.readouterr().out
    assert "PASS (flagged)" in first
    assert "0.19" in first
    assert "0.475976" in first
    assert "is not reproduced" in first
    assert "overrides" in first
    assert "FAIL" not in first.replace("PASS (flagged)", "")
    assert main(["reproduce-example"]) == 0
    second = capsys.readouterr().out
    assert first == second
