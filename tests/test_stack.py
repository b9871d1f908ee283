"""Certification by stacks: subsystems of one shape are certified
together, and each member gets exactly what it gets alone."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heterogeneous_ring, random_valid_instance
from simcompose.abstraction import build_abstraction
from simcompose.cli import build_abstractions, main, parse_project
from simcompose.demo import CERT_K1_INTEGRATOR, CERT_M_INTEGRATOR, demo_project
from simcompose.linalg import NumericsError
from simcompose.systems import InternalChannel, LinearSystem

# A 2x2 Jordan block at -0.0227 seen in a random basis: its computed
# certificate fails the decay inequality (test_abstraction).
FAR_FROM_NORMAL = [
    [1006.0411635689442, -1665.1842743209959], [607.839334359755, -1006.0865668593262]
]


def assert_same(result, alone):
    """Every field of two abstraction results is equal, bit for bit."""
    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)

    for got, want in ((result.system, alone.system),):
        for field in ("A", "B", "C_ext", "D"):
            same(getattr(got, field), getattr(want, field))
        assert got.C_int.keys() == want.C_int.keys()
        for peer in got.C_int:
            same(got.C_int[peer], want.C_int[peer])
    for field in ("P", "M", "K1", "K2", "K3", "K4"):
        same(getattr(result.simfn, field), getattr(alone.simfn, field))
    assert result.simfn.lam == alone.simfn.lam
    assert result.gains == alone.gains
    for field in ("phat", "e", "f"):
        same(getattr(result, field), getattr(alone, field))
    got, want = result.conditions, alone.conditions
    assert got == want
    assert (got.norm_a, got.norm_d, got.norm_p) == (want.norm_a, want.norm_d, want.norm_p)
    same(got.image_p.basis, want.image_p.basis)
    same(got.kernel_c.basis, want.kernel_c.basis)


def certify_alone(sys, p, certificate=None):
    try:
        return build_abstraction(sys, p, certificate=certificate)
    except (ValueError, NumericsError) as exc:
        return exc


def assert_stack_matches_alone(systems, injections):
    results, failures = build_abstraction(systems, np.stack(injections))
    for i, (sys, p) in enumerate(zip(systems, injections)):
        alone = certify_alone(sys, p)
        if isinstance(alone, Exception):
            assert results[i] is None
            assert type(failures[i]) is type(alone) and str(failures[i]) == str(alone)
        else:
            assert i not in failures
            assert_same(results[i], alone)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    nhat_frac=st.floats(0.0, 1.0),
    m=st.integers(1, 2),
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    size=st.integers(2, 6),
    broken=st.booleans(),
)
def test_a_stack_certifies_each_member_as_alone(seed, n, nhat_frac, m, p, q, size, broken):
    # random pairs are mostly unstable, so stabilize's placement loop
    # runs with members leaving it at different steps, real and complex
    # eigenvalues mixed in one stack; a broken member (no input and an
    # unstable mode) fails the injection conditions
    rng = np.random.default_rng(seed)
    nhat = 1 + int(nhat_frac * (n - 1))
    members = [random_valid_instance(rng, n, nhat, m, p, q, name=f"s{k}") for k in range(size)]
    if broken:
        sys, pmat = members[-1]
        members[-1] = (LinearSystem(
            sys.name, sys.A + 2.0 * np.eye(n), np.zeros_like(sys.B), sys.C_ext, sys.D,
            sys.channels_in, {},
        ), pmat)
    assert_stack_matches_alone([s for s, _ in members], [pm for _, pm in members])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heterogeneous_ring_certifies_as_its_nodes_alone(seed):
    project = parse_project(heterogeneous_ring(np.random.default_rng(seed), 12))
    results = build_abstractions(project)
    for sub in project.interconnection.subsystems:
        assert_same(results[sub.name], build_abstraction(sub, project.directives[sub.name].p))


def node(name, a, b=((0.0,), (1.0,))):
    return {
        "name": name, "A": [list(row) for row in a], "B": [list(row) for row in b],
        "C": [[1.0] + [0.0] * (len(a) - 1)], "D": [[]] * len(a),
        "abstraction": {"P": np.eye(len(a)).tolist()},
    }


def failing_doc():
    # s1 (position 1) fails its certificate; bad (position 3) fails the
    # injection conditions and sits in the stack certified first
    subsystems = [
        node("s0", [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]], [[0.0], [0.0], [1.0]]),
        node("s1", FAR_FROM_NORMAL),
        node("s2", [[-1.0, 0.5], [0.0, -2.0]]),
        node("bad", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], [[0.0]] * 3),
        node("s4", [[-3.0, 1.0], [-1.0, -2.0]]),
    ]
    return {"subsystems": subsystems, "simulation": {"t_final": 0.1, "dt": 0.01}}


def test_a_failing_member_fails_as_alone_and_the_first_in_network_order_is_raised():
    project = parse_project(failing_doc())
    subs = project.interconnection
    alone = {name: certify_alone(subs[name], project.directives[name].p) for name in subs.names}
    assert isinstance(alone["s1"], NumericsError) and "certificate rejected" in str(alone["s1"])
    assert isinstance(alone["bad"], ValueError)
    assert "injection conditions failed for bad" in str(alone["bad"])
    stack = [subs["s1"], subs["s2"], subs["s4"]]
    results, failures = build_abstraction(stack, np.stack([np.eye(2)] * 3))
    assert failures.keys() == {0} and str(failures[0]) == str(alone["s1"])
    for result, name in zip(results[1:], ("s2", "s4")):
        assert_same(result, alone[name])
    with pytest.raises(NumericsError) as raised:
        build_abstractions(project)
    assert str(raised.value) == str(alone["s1"])


def test_cli_abstract_exports_every_member_but_the_failing_ones(tmp_path, capsys):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(failing_doc()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["abstract", str(path), "--out", str(out)]) == 1
    project = parse_project(failing_doc())
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(":")[0] for line in lines] == project.interconnection.names
    for name in ("s1", "bad"):
        alone = certify_alone(project.interconnection[name], project.directives[name].p)
        assert f"{name}: construction failed: {alone}" in lines
        assert not (out / f"{name}_M.csv").exists()
    for name in ("s0", "s2", "s4"):
        assert (out / f"{name}_M.csv").exists() and (out / f"{name}_gains.csv").exists()
    capsys.readouterr()


def test_injected_certificates_certify_as_a_stack():
    # same-shape subsystems with injected certificates form one stack too
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    systems = [
        LinearSystem(f"i{k}", a * (1 + 0.1 * k), np.array([[0.0], [1.0]]), np.eye(2)[:1],
                     np.array([[0.1], [0.0]]), (InternalChannel("w", 1),), {})
        for k in range(3)
    ]
    certificates = [(np.eye(2) * (2.0 + k), np.zeros((1, 2)), 0.5) for k in range(3)]
    results, failures = build_abstraction(systems, np.stack([np.eye(2)] * 3), certificates)
    for result, sys, cert in zip(results, systems, certificates):
        alone = build_abstraction(sys, np.eye(2), certificate=cert)
        assert_same(result, alone)
    assert failures == {}


def overflowing_demo():
    # s1's decay rate overflows 2 lam M; s3 shares its shape and stack
    doc = demo_project()
    doc["subsystems"][0]["abstraction"]["certificate"]["lambda"] = 1e308
    return doc


def test_an_overflowing_member_fails_alone_and_leaves_the_stack_as_it_was():
    # three integrators with the published certificate; the middle one's
    # decay rate overflows 2 lam M
    sub = parse_project(demo_project()).interconnection["s1"]
    systems = [
        LinearSystem(f"i{k}", sub.A, sub.B, sub.C_ext, sub.D * (1 + 0.1 * k), sub.channels_in, {})
        for k in range(3)
    ]
    certificates = [(CERT_M_INTEGRATOR, CERT_K1_INTEGRATOR, lam) for lam in (1.0, 1e308, 1.0)]
    p = np.array([[1.0], [0.0], [0.0]])
    results, failures = build_abstraction(systems, np.stack([p] * 3), certificates)
    assert failures.keys() == {1} and results[1] is None
    message = str(failures[1])
    assert message.startswith("certificate rejected for i1: ") and "not finite" in message
    for k in (0, 2):
        assert_same(results[k], build_abstraction(systems[k], p, certificate=certificates[k]))
    with pytest.raises(NumericsError) as raised:
        build_abstraction(systems[1], p, certificate=certificates[1])
    assert str(raised.value) == message


def test_cli_abstract_exports_every_subsystem_but_the_overflowing_one(tmp_path, capsys):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(overflowing_demo()), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["abstract", str(path), "--out", str(out)]) == 1
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("s1: construction failed: certificate rejected for s1: ")
    assert "not finite" in lines[0]
    assert not (out / "s1_M.csv").exists()
    for name in ("s2", "s3", "s4"):
        assert (out / f"{name}_M.csv").exists()
    assert main(["bounds", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: certificate rejected for s1: ") and "not finite" in err


def test_cli_bounds_names_the_subsystem_whose_certificate_fails(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][0]["abstraction"]["certificate"]["lambda"] = 5.0
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bounds", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: certificate rejected for s1: output slack -8.561e-03, ")
