"""Certification by stacks: subsystems of one shape are certified
together, and each member gets exactly what it gets alone. A stack that
fails raises a member's own error, and ``certify`` halves it until each
member has its own outcome."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import heterogeneous_ring, random_valid_instance
from simcompose import abstraction, cli
from simcompose.abstraction import build_abstraction
from simcompose.cli import build_abstractions, certify, main, parse_project
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
    same(result.phat, alone.phat)
    got, want = result.conditions, alone.conditions
    assert got == want
    assert (got.norm_a, got.norm_d, got.norm_p) == (want.norm_a, want.norm_d, want.norm_p)
    same(got.image_p.basis, want.image_p.basis)
    same(got.kernel_c.basis, want.kernel_c.basis)


def certify_alone(sys, p, certificate=None):
    try:
        return build_abstraction([sys], p[None], None if certificate is None else [certificate])[0]
    except (ValueError, NumericsError) as exc:
        return exc


def assert_outcome(outcome, alone):
    """A member's outcome is the abstraction or the error it gets alone."""
    if isinstance(alone, Exception):
        assert (type(outcome), str(outcome)) == (type(alone), str(alone))
    else:
        assert_same(outcome, alone)


def assert_stack_matches_alone(systems, injections):
    # an all-pass stack gives each member its result alone, bit for bit;
    # a broken one raises the error one of its members raises alone, and
    # certify's halving gives every member its own outcome
    alone = [certify_alone(sys, p) for sys, p in zip(systems, injections)]
    errors = [(type(exc), str(exc)) for exc in alone if isinstance(exc, Exception)]
    try:
        results = build_abstraction(systems, np.stack(injections))
    except (ValueError, NumericsError) as exc:
        assert (type(exc), str(exc)) in errors
        results = cli._certify_stack([(sys, p, None) for sys, p in zip(systems, injections)])
    else:
        assert errors == []
    for outcome, want in zip(results, alone):
        assert_outcome(outcome, want)


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


def counting(patch, module=cli, name="build_abstraction") -> list:
    """The stack size of each call of ``module.<name>`` from now on; by
    default the size of each stack ``cli`` certifies."""
    sizes = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        sizes.append(len(args[0]))
        return real(*args, **kwargs)

    patch.setattr(module, name, counted)
    return sizes


@pytest.mark.parametrize("injected", [False, True])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    nhat_frac=st.floats(0.0, 1.0),
    m=st.integers(1, 2),
    p=st.integers(0, 2),
    q=st.integers(0, 2),
    kinds=st.integers(1, 3),
)
def test_members_equal_but_in_d_share_one_certification_exactly(
    seed, n, nhat_frac, m, p, q, kinds, injected
):
    # each kind of subsystem comes as a copy, a copy with its own D, a
    # copy whose A holds -0.0 for one +0.0 and, with injected
    # certificates, a copy whose M differs by one ulp in one entry. The
    # first two share the kind's class; the other two are classes of
    # their own. Shuffled into one stack, every member gets what it gets
    # alone, bit for bit, and the injection check and the certificate
    # test run once per class.
    rng = np.random.default_rng(seed)
    nhat = 1 + int(nhat_frac * (n - 1))
    members = []
    for _ in range(kinds):
        sys, pmat = random_valid_instance(rng, n, nhat, m, p, q)
        # an exact zero in A that keeps A P, and so the injection
        # conditions: row i moves along row j of I - P P^T
        a, i = sys.A.copy(), int(rng.integers(n))
        proj = np.eye(n) - pmat @ pmat.T
        j = int(np.argmax(np.diag(proj)))
        if nhat < n:
            a[i] -= a[i, j] / proj[j, j] * proj[j]
        a[i, j] = 0.0
        negated = a.copy()
        negated[i, j] = -0.0

        def copy(a=a, d=sys.D, sys=sys):
            return LinearSystem("", a, sys.B, sys.C_ext, d, sys.channels_in, {})

        cert = None
        if injected:
            base = certify_alone(copy(), pmat)
            assume(not isinstance(base, Exception))
            cert = (base.simfn.M, base.simfn.K1, base.simfn.lam)
        own_d = pmat @ rng.standard_normal((nhat, p)) + sys.B @ rng.standard_normal((m, p))
        members += [(copy(), pmat, cert), (copy(d=own_d), pmat, cert),
                    (copy(a=negated), pmat, cert)]
        if injected:
            bumped = cert[0].copy()
            bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
            members.append((copy(), pmat, (bumped, *cert[1:])))
    stacked = [
        (LinearSystem(f"s{k}", sys.A, sys.B, sys.C_ext, sys.D, sys.channels_in, {}), pm, cert)
        for k, (sys, pm, cert) in enumerate(members[i] for i in rng.permutation(len(members)))
    ]
    alone = [certify_alone(*member) for member in stacked]
    with pytest.MonkeyPatch.context() as patch:
        checked, certified = (
            counting(patch, abstraction, name) for name in ("pbh_stabilizable", "check_certificate")
        )
        outcomes = list(cli._certify_stack(stacked))
    for outcome, want in zip(outcomes, alone):
        assert_outcome(outcome, want)
    assert checked[0] == 2 * kinds
    if not any(isinstance(want, Exception) for want in alone):
        assert certified == [(2 + injected) * kinds]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heterogeneous_ring_certifies_as_its_nodes_alone(seed):
    project = parse_project(heterogeneous_ring(np.random.default_rng(seed), 12))
    results = build_abstractions(project)
    for sub in project.interconnection.subsystems:
        assert_same(
            results[sub.name], build_abstraction([sub], project.directives[sub.name].p[None])[0]
        )


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
    # s1, s2 and s4 form one stack, which raises s1's error; certify
    # gives each its own outcome
    with pytest.raises(NumericsError) as raised:
        build_abstraction([subs[name] for name in ("s1", "s2", "s4")], np.stack([np.eye(2)] * 3))
    assert str(raised.value) == str(alone["s1"])
    outcomes = certify(project)
    assert list(outcomes) == subs.names
    for name in subs.names:
        assert_outcome(outcomes[name], alone[name])
    with pytest.raises(NumericsError) as raised:
        build_abstractions(project)
    assert str(raised.value) == str(alone["s1"])


def repeated_ring(edit: str) -> dict:
    """A ring of 12 nodes that repeat node 0 in everything but ``D``,
    so one class, with ``edit`` applied: ``"B"`` zeroes ``B`` at
    positions 3 and 7, a failing class after a passing one; ``"D"``
    moves position 5's disturbance off ``im P + im B``, a condition 3
    failure in one member of the class."""
    doc = heterogeneous_ring(np.random.default_rng(4), 12)
    nodes = doc["subsystems"]
    for sub in nodes:
        sub["A"] = nodes[0]["A"]
    if edit == "B":
        for k in (3, 7):
            nodes[k]["B"] = [[0.0], [0.0], [0.0]]
    else:
        nodes[5]["D"] = [[0.0], nodes[5]["D"][2], [0.0]]
    return doc


@pytest.mark.parametrize("edit, failing", [("B", ["h003", "h007"]), ("D", ["h005"])])
def test_a_member_of_a_class_fails_as_alone(tmp_path, capsys, edit, failing):
    # a failure in a step that does not read D belongs to its class's
    # first member, and one that reads D to its member only: either way
    # build_abstractions raises the first failing member's own error, and
    # certify and check give each member its own outcome and text
    doc = repeated_ring(edit)
    project = parse_project(doc)
    subs = project.interconnection
    alone = {name: certify_alone(subs[name], project.directives[name].p) for name in subs.names}
    assert [name for name in subs.names if isinstance(alone[name], Exception)] == failing
    with pytest.raises(ValueError) as raised:
        build_abstractions(project)
    assert str(raised.value) == str(alone[failing[0]])
    outcomes = certify(project)
    for name in subs.names:
        assert_outcome(outcomes[name], alone[name])
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "construction failed" in line] == [
        f"{name}: construction failed: {alone[name]}" for name in failing
    ]
    assert lines[-1] == "check: FAIL"


def test_certify_halves_a_failed_stack_down_to_the_failing_member(monkeypatch):
    # 32 same-shape nodes, one of which fails its certificate: the stack
    # and one half at each of 5 levels make 11 build_abstraction calls,
    # where a retry member by member would make 33
    nodes = [node(f"n{k}", [[-1.0 - 0.01 * k, 0.5], [0.0, -2.0]]) for k in range(32)]
    nodes[13] = node("n13", FAR_FROM_NORMAL)
    project = parse_project({"subsystems": nodes, "simulation": {"t_final": 0.1, "dt": 0.01}})
    calls = counting(monkeypatch)
    outcomes = certify(project)
    assert calls[0] == 32 and len(calls) <= 11
    subs = project.interconnection
    for name in subs.names:
        assert_outcome(outcomes[name], certify_alone(subs[name], project.directives[name].p))
    assert [name for name, outcome in outcomes.items() if isinstance(outcome, Exception)] == ["n13"]


def test_build_abstractions_descends_once_into_a_failing_stack(monkeypatch):
    # every node of a 200-node ring fails its injection conditions (no
    # input, so A e1 leaves im P + im B). build_abstractions needs only
    # the first failure: the stack and at most ceil(log2 200) = 8 halves,
    # where certify's halving makes 2 * 200 - 1 = 399 certifications
    doc = heterogeneous_ring(np.random.default_rng(1), 200)
    for sub in doc["subsystems"]:
        sub["B"] = [[0.0], [0.0], [0.0]]
    project = parse_project(doc)
    first = project.interconnection.subsystems[0]
    alone = certify_alone(first, project.directives[first.name].p)
    assert isinstance(alone, ValueError) and first.name in str(alone)
    calls = counting(monkeypatch)
    with pytest.raises(ValueError) as raised:
        build_abstractions(project)
    assert str(raised.value) == str(alone)
    assert calls[0] == 200 and len(calls) <= 9


def test_build_abstractions_raises_the_first_members_own_error(monkeypatch):
    # member 0 fails its certificate and member 1 its injection
    # conditions, an earlier phase, so the stack raises member 1's
    # error; certifying member 0 alone finds its own, and member 1 is
    # never certified alone
    doc = {
        "subsystems": [node("s1", FAR_FROM_NORMAL), node("bad", [[1.0, 0.0], [0.0, -1.0]])],
        "simulation": {"t_final": 0.1, "dt": 0.01},
    }
    project = parse_project(doc)
    subs = project.interconnection
    alone = [certify_alone(subs[name], project.directives[name].p) for name in subs.names]
    assert isinstance(alone[0], NumericsError) and isinstance(alone[1], ValueError)
    with pytest.raises(ValueError) as raised:
        build_abstraction(subs.subsystems, np.stack([np.eye(2)] * 2))
    assert str(raised.value) == str(alone[1])
    calls = counting(monkeypatch)
    with pytest.raises(NumericsError) as raised:
        build_abstractions(project)
    assert str(raised.value) == str(alone[0])
    assert calls == [2, 1]


def test_certify_lets_a_linalg_error_through(monkeypatch):
    # numpy's LinAlgError is a ValueError, but no member's own verdict:
    # certify neither records it nor halves the stack
    calls = []

    def broken(*args, **kwargs):
        calls.append(len(args[0]))
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "build_abstraction", broken)
    with pytest.raises(np.linalg.LinAlgError):
        certify(parse_project(failing_doc()))
    assert len(calls) == 1


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
    results = build_abstraction(systems, np.stack([np.eye(2)] * 3), certificates)
    assert len(results) == 3
    for result, sys, cert in zip(results, systems, certificates):
        (alone,) = build_abstraction([sys], np.eye(2)[None], [cert])
        assert_same(result, alone)


def overflowing_demo():
    # s1's decay rate overflows 2 lam M; s3 shares its shape and stack
    doc = demo_project()
    doc["subsystems"][0]["abstraction"]["certificate"]["lambda"] = 1e308
    return doc


def test_an_overflowing_member_fails_alone_and_leaves_the_stack_as_it_was():
    # three integrators with the published certificate; the middle one's
    # decay rate overflows 2 lam M, and the stack raises its error
    sub = parse_project(demo_project()).interconnection["s1"]
    systems = [
        LinearSystem(f"i{k}", sub.A, sub.B, sub.C_ext, sub.D * (1 + 0.1 * k), sub.channels_in, {})
        for k in range(3)
    ]
    certificates = [(CERT_M_INTEGRATOR, CERT_K1_INTEGRATOR, lam) for lam in (1.0, 1e308, 1.0)]
    p = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(NumericsError) as raised:
        build_abstraction(systems, np.stack([p] * 3), certificates)
    message = str(raised.value)
    assert message.startswith("certificate rejected for i1: ") and "not finite" in message
    with pytest.raises(NumericsError) as alone:
        build_abstraction([systems[1]], p[None], [certificates[1]])
    assert str(alone.value) == message
    outcomes = list(cli._certify_stack(list(zip(systems, [p] * 3, certificates))))
    assert str(outcomes[1]) == message
    for k in (0, 2):
        assert_same(outcomes[k], build_abstraction([systems[k]], p[None], [certificates[k]])[0])


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
