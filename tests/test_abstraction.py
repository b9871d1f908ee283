"""Certificate construction, injection conditions, and relation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcompose import abstraction, linalg
from conftest import random_valid_instance
from oracles import check_relation, eval_simfn, graph_subspace, integrate, simfn_from_relation
from simcompose.abstraction import (
    INJECTED_CERT_TOL,
    QuadraticSimFn,
    build_abstraction,
    certificate_slacks,
    check_certificate,
    check_P_conditions,
    compute_k4,
    decay_certificate,
    interface,
    _system_stack,
)
from simcompose.demo import (
    CERT_K1_INTEGRATOR,
    CERT_LAM_INTEGRATOR,
    CERT_LAM_NODE,
    CERT_M_INTEGRATOR,
    CERT_M_NODE,
    demo_certificates,
    demo_interconnection,
    demo_projections,
)
from simcompose.geometry import image, zero_subspace
from simcompose.linalg import REL_TOL, NumericsError, spectral_abscissa, spectral_norm, sqrtm_spd
from simcompose.simulate import Signal
from simcompose.systems import LinearSystem

K4_SCALAR = 0.9 / 0.61  # argmin of 4.59 - 1.8 k + 0.61 k^2
RHO_INTEGRATOR = np.sqrt(4.59 - 0.81 / 0.61)
RHO_NODE = np.sqrt(2.0)


def demo_results(certificates=True, **couplings):
    ic = demo_interconnection(**couplings)
    projections = demo_projections()
    certs = demo_certificates() if certificates else {}
    return ic, {
        name: build_abstraction(
            [ic[name]], projections[name][None], [certs[name]] if name in certs else None
        )[0]
        for name in ic.names
    }


def assert_construction_identities(sys, res, tol=1e-8):
    """The algebraic identities every construction output must satisfy."""
    p, fn = res.simfn.P, res.simfn
    ahat, dhat = res.system.A, res.system.D
    assert spectral_norm((sys.A @ p - p @ ahat - sys.B @ fn.K2)[None])[0] <= tol
    assert spectral_norm((sys.D - p @ dhat - sys.B @ fn.K3)[None])[0] <= tol
    assert spectral_norm((res.system.C_ext - sys.C_ext @ p)[None])[0] <= tol
    for peer, blk in sys.C_int.items():
        assert spectral_norm((res.system.C_int[peer] - blk @ p)[None])[0] <= tol
    assert spectral_norm((res.phat @ p - np.eye(p.shape[1]))[None])[0] <= tol
    stacked = np.vstack([sys.C_ext] + [sys.C_int[k] for k in sorted(sys.C_int)])
    assert spectral_norm((stacked @ p @ res.phat - stacked)[None])[0] <= tol
    assert spectral_norm((stacked @ (np.eye(sys.n) - p @ res.phat))[None])[0] <= tol


def test_decay_certificate_scalar():
    (m,), (k1,), (lam,) = decay_certificate(
        np.array([[[-1.0]]]), np.zeros((1, 1, 0)), [np.array([[[1.0]]])]
    )
    assert k1.shape == (0, 1)
    assert lam == pytest.approx(0.5, abs=1e-12)
    # M0 = 1 from the shifted equation, then the output scaling and the
    # one percent headroom give exactly 1.01.
    assert m[0, 0] == pytest.approx(1.01, abs=1e-12)


def test_computed_certificates_satisfy_inequalities():
    ic = demo_interconnection()
    for name in ic.names:
        sub = ic[name]
        blocks = [blk[None] for blk in sub.output_blocks()]
        (m,), (k1,), (lam,) = decay_certificate(sub.A[None], sub.B[None], blocks)
        assert lam > 0.0
        assert spectral_abscissa((sub.A + sub.B @ k1)[None])[0] < 0.0
        (out_slack,), (decay_slack,) = certificate_slacks(
            sub.A[None], sub.B[None], blocks, m[None], k1[None], np.array([lam])
        )
        assert out_slack >= -1e-7
        assert decay_slack >= -1e-7


def test_nested_list_output_matrix_is_one_matrix():
    # the output blocks are a list of block stacks, one 1 x 2 row here;
    # a block stack of another width is rejected
    a, b = np.array([[[0.0, 1.0], [0.0, 0.0]]]), np.array([[[0.0], [1.0]]])
    row = np.array([[[1.0, 0.0]]])
    m, k1, lam = decay_certificate(a, b, [row])
    assert lam[0] == 0.5
    for c in ([np.array([[[1.0, 0.0, 0.0]]])], [row, np.ones((1, 1, 3))]):
        with pytest.raises(ValueError, match="output block has 3 columns, expected 2"):
            decay_certificate(a, b, c)
        with pytest.raises(ValueError, match="output block has 3 columns, expected 2"):
            certificate_slacks(a, b, c, m, k1, lam)


def test_computed_certificates_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = rng.integers(1, 6)
        m_in = rng.integers(0, 3)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m_in))
        if m_in == 0 and not spectral_abscissa(a[None])[0] < 0.0:
            a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
        c = rng.standard_normal((rng.integers(1, 3), n))
        m, k1, lam = decay_certificate(a[None], b[None], [c[None]])
        (out_slack,), (decay_slack,) = certificate_slacks(a[None], b[None], [c[None]], m, k1, lam)
        assert out_slack >= -1e-7
        assert decay_slack >= -1e-7


def test_injected_node_certificate_is_marginal():
    # The published 2x2 certificate satisfies both inequalities with
    # equality; both slacks must sit at zero up to roundoff.
    node = demo_interconnection()["s2"]
    (out_slack,), (decay_slack,) = certificate_slacks(
        node.A[None], node.B[None], [blk[None] for blk in node.output_blocks()],
        CERT_M_NODE[None], np.zeros((1, 0, 2)), np.array([CERT_LAM_NODE]),
    )
    assert abs(out_slack) <= 1e-9
    assert abs(decay_slack) <= 1e-9


def test_injected_integrator_certificate_needs_loose_tolerance():
    # Rounded three-digit data violates the inequalities by a few 1e-3;
    # the loose tolerance accepts it, a tight one must not.
    integ = demo_interconnection()["s1"]
    args = (
        integ.A[None], integ.B[None], [blk[None] for blk in integ.output_blocks()],
        CERT_M_INTEGRATOR[None], CERT_K1_INTEGRATOR[None], np.array([CERT_LAM_INTEGRATOR]),
    )
    check_certificate(*args, tol=5e-2, rejected=["certificate rejected"], cause="")
    with pytest.raises(NumericsError):
        check_certificate(*args, tol=1e-4, rejected=["certificate rejected"], cause="")
    (out_slack,), (decay_slack,) = certificate_slacks(*args)
    assert -5e-2 < min(out_slack, decay_slack) < 0.0


def test_nan_slack_fails_the_certificate_check(monkeypatch):
    integ = demo_interconnection()["s1"]
    args = (
        integ.A[None], integ.B[None], [blk[None] for blk in integ.output_blocks()],
        CERT_M_INTEGRATOR[None], CERT_K1_INTEGRATOR[None], np.array([CERT_LAM_INTEGRATOR]),
    )
    for slacks in ((np.nan, 0.0), (0.0, np.nan)):
        monkeypatch.setattr(
            abstraction, "certificate_slacks", lambda *_: tuple(np.array([s]) for s in slacks)
        )
        with pytest.raises(NumericsError, match="certificate rejected"):
            check_certificate(*args, INJECTED_CERT_TOL, ["certificate rejected"], "")


# Draw 102 of test_linalg's far-from-normal Lyapunov draws: a 2x2 Jordan
# block at -0.0227 with superdiagonal about 2e3, seen in a random basis.
FAR_FROM_NORMAL = np.array(
    [[1006.0411635689442, -1665.1842743209959], [607.839334359755, -1006.0865668593262]]
)


def test_computed_certificate_rejection_names_the_lyapunov_solve():
    # The shifted solve meets its residual gate, which is relative to
    # |A| |M|, yet the decay slack is -0.40; the message must say so.
    far = LinearSystem("far", FAR_FROM_NORMAL, np.zeros((2, 0)), np.eye(2), np.zeros((2, 0)))
    with pytest.raises(NumericsError) as computed:
        build_abstraction([far], np.eye(2)[None])
    assert "decay slack -3.973e-01" in str(computed.value)
    assert str(computed.value).endswith(
        "; M came from the shifted Lyapunov solve, which met its residual gate,"
        " but the closed loop is too far from normal for the decay inequality"
    )
    with pytest.raises(NumericsError) as injected:
        build_abstraction([far], np.eye(2)[None], [(np.eye(2), np.zeros((0, 2)), 1.0)])
    assert str(injected.value).endswith("tolerance 5.0e-02")


def test_build_abstraction_names_a_k1_of_the_wrong_shape():
    sub = demo_interconnection()["s1"]
    with pytest.raises(ValueError, match=r"s1: K1 has shape \(0, 3\), expected \(1, 3\)"):
        build_abstraction(
            [sub], np.eye(3)[None], [(CERT_M_INTEGRATOR, np.zeros((0, 3)), CERT_LAM_INTEGRATOR)]
        )


def test_p_conditions_identity_injection():
    sub = demo_interconnection()["s1"]
    (report,) = check_P_conditions(*_system_stack([sub]), np.eye(3)[None])
    assert report.ok
    assert report.complement_ok and report.invariance_ok and report.disturbance_ok


def test_p_conditions_demo_injections():
    ic = demo_interconnection()
    projections = demo_projections()
    for name in ic.names:
        (report,) = check_P_conditions(*_system_stack([ic[name]]), projections[name][None])
        assert report.ok, report.lines()
        assert report.invariance_residual <= 1e-12
        assert report.disturbance_residual <= 1e-12


def test_p_conditions_reject_rank_deficient():
    sub = demo_interconnection()["s1"]
    with pytest.raises(ValueError):
        check_P_conditions(
            *_system_stack([sub]), np.array([[[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
        )


def test_p_conditions_rank_uses_the_package_cutoff():
    # sigma_min = 1e-12 lies between numpy's default matrix_rank cutoff
    # (3 * eps here) and rank_tol (3e-9 here): P is rank deficient under
    # the package's one rank rule
    sub = demo_interconnection()["s1"]
    p = np.array([[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]])
    assert np.linalg.svd(p, compute_uv=False)[-1] > 3 * np.finfo(float).eps
    with pytest.raises(ValueError, match="full column rank"):
        check_P_conditions(*_system_stack([sub]), p[None])


def test_p_conditions_flag_bad_direction():
    # Injecting along the second integrator state: that direction lies in
    # ker C, so im P + ker C misses the first state, and A maps it outside
    # im P + im B.
    sub = demo_interconnection()["s1"]
    (report,) = check_P_conditions(*_system_stack([sub]), np.array([[[0.0], [1.0], [0.0]]]))
    assert not report.ok
    assert not report.complement_ok
    assert not report.invariance_ok
    assert any("FAIL" in line for line in report.lines())


def test_build_abstraction_rejects_bad_injection_when_strict():
    sub = demo_interconnection()["s1"]
    bad = np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(ValueError):
        build_abstraction([sub], bad[None])


def test_build_abstraction_runs_each_check_once(monkeypatch):
    # one call computes the PBH verdict, the check of M and sqrt(M) once
    # and passes them on, for a pair that stabilize has to move
    sub = demo_interconnection()["s1"]
    assert not spectral_abscissa(sub.A[None])[0] < 0.0
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("pbh_stabilizable", "sqrtm_spd", "check_spd"):
        wrapped = counted(name, getattr(linalg, name))
        for module in (linalg, abstraction):
            monkeypatch.setattr(module, name, wrapped)
    build_abstraction([sub], demo_projections()["s1"][None])
    assert counts == {"pbh_stabilizable": 1, "sqrtm_spd": 1, "check_spd": 1}


def test_decay_certificate_takes_the_abscissa_stabilize_decided_on(monkeypatch):
    # decay_certificate takes no spectrum of its own: every eigenvalue
    # computation is stabilize's (open loop, PBH, one per placement) or
    # the Lyapunov solver's Hurwitz check
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    calls = []
    real = linalg.eigenvalues

    def counted(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(linalg, "eigenvalues", counted)
    (k,), (abscissa,) = linalg.stabilize(a[None], b[None])
    in_stabilize = len(calls)
    calls.clear()
    (m,), (k1,), (lam,) = decay_certificate(a[None], b[None], [np.array([[[1.0, 0.0, 0.0]]])])
    assert len(calls) == in_stabilize + 1 == 6
    assert np.array_equal(k1, k) and lam == 0.5 * abs(abscissa)


def test_decay_certificate_alone_still_runs_pbh():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(NumericsError, match=r"eigenvalue \(1\+0j\)"):
        decay_certificate(a[None], b[None], [np.eye(2)[None]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 5), (5, 1), (4, 4), (60, 62)])
def test_spectral_norm_matches_numpy_exactly(shape):
    a = np.random.default_rng(7).standard_normal(shape)
    assert spectral_norm(a[None])[0] == np.linalg.norm(a, 2)


def test_integrator_abstraction_structure():
    ic, results = demo_results()
    res = results["s1"]
    assert abs(res.system.A[0, 0]) <= 1e-8
    assert np.max(np.abs(res.system.D)) <= 1e-8
    assert np.allclose(res.system.C_ext, [[1.0]])
    assert np.allclose(res.system.C_int["s2"], [[1.0]])
    assert np.max(np.abs(res.simfn.K2)) <= 1e-8
    assert res.simfn.K3[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert res.system.B.shape == (1, 3)
    assert_construction_identities(ic["s1"], res)


def test_node_abstraction_structure():
    ic, results = demo_results()
    res = results["s2"]
    assert res.system.A[0, 0] == pytest.approx(-2.0, abs=1e-8)
    assert res.system.D[0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert np.allclose(res.system.C_ext, [[1.0]])
    # No concrete input: the matching gains are empty and the abstract
    # input reduces to the single kernel direction, up to sign.
    assert res.simfn.K2.shape == (0, 1)
    assert res.simfn.K4.shape == (0, 1)
    assert res.system.B.shape == (1, 1)
    assert abs(res.system.B[0, 0]) == pytest.approx(1.0, abs=1e-8)
    assert_construction_identities(ic["s2"], res)


def test_third_subsystem_tracks_two_channels():
    ic, results = demo_results(d3=0.7)
    res = results["s3"]
    assert np.allclose(res.simfn.K3, [[0.7, 0.7]], atol=1e-8)
    assert res.gains.mu == pytest.approx(
        (np.sqrt(0.61) * 0.7, np.sqrt(0.61) * 0.7), abs=1e-9
    )
    assert_construction_identities(ic["s3"], res)


def test_published_gains():
    _, results = demo_results()
    assert results["s1"].gains.rho == pytest.approx(RHO_INTEGRATOR, abs=1e-9)
    assert results["s3"].gains.rho == pytest.approx(RHO_INTEGRATOR, abs=1e-9)
    assert results["s2"].gains.rho == pytest.approx(RHO_NODE, abs=1e-9)
    assert results["s1"].gains.mu[0] == pytest.approx(np.sqrt(0.61) * 0.5, abs=1e-9)
    assert results["s2"].gains.mu[0] == pytest.approx(np.sqrt(2.0) * 0.5, abs=1e-9)
    assert results["s1"].gains.lam == 1.0
    assert results["s2"].gains.lam == 2.0


def test_identity_injection_roundtrip():
    sub = demo_interconnection()["s1"]
    (res,) = build_abstraction([sub], np.eye(3)[None])
    # A = Ahat + B K2 exactly, and the twin keeps every output.
    assert spectral_norm((sub.A - res.system.A - sub.B @ res.simfn.K2)[None])[0] <= 1e-10
    x = np.array([0.3, -0.2, 0.9])
    assert eval_simfn(res.simfn, x, x) <= 1e-12
    assert_construction_identities(sub, res)


def test_construction_identities_random_instances():
    rng = np.random.default_rng(211)
    for _ in range(25):
        n = rng.integers(2, 7)
        nhat = rng.integers(1, n)
        m = rng.integers(1, 3)
        sys, p = random_valid_instance(rng, n, nhat, m, p=rng.integers(0, 3))
        (res,) = build_abstraction([sys], p[None])
        assert_construction_identities(sys, res)
        assert res.conditions.ok


def test_compute_k4_scalar_direction():
    p = np.array([[1.0], [0.0], [0.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    (k4,), (rho,) = compute_k4(
        sqrtm_spd(CERT_M_INTEGRATOR[None]), p[None], np.ones((1, 1, 1)), b[None]
    )
    assert k4[0, 0] == pytest.approx(K4_SCALAR, abs=1e-9)
    assert rho == pytest.approx(RHO_INTEGRATOR, abs=1e-9)


def test_compute_k4_zero_input_matrix():
    p = np.array([[1.0], [0.0]])
    bhat = np.array([[2.0]])
    (k4,), (rho,) = compute_k4(np.eye(2)[None], p[None], bhat[None], np.zeros((1, 2, 1)))
    assert np.max(np.abs(k4)) <= 1e-12
    assert rho == pytest.approx(2.0, abs=1e-12)


def test_compute_k4_exact_match_when_reachable():
    rng = np.random.default_rng(223)
    p = rng.standard_normal((3, 2))
    bhat = rng.standard_normal((2, 2))
    (k4,), (rho,) = compute_k4(np.eye(3)[None], p[None], bhat[None], np.eye(3)[None])
    assert rho <= 1e-10
    assert np.allclose(k4, p @ bhat, atol=1e-10)


def test_interface_components():
    fn = QuadraticSimFn(
        P=np.array([[1.0], [0.0], [0.0]]),
        M=CERT_M_INTEGRATOR,
        K1=CERT_K1_INTEGRATOR,
        K2=np.zeros((1, 1)),
        K3=np.array([[0.5]]),
        K4=np.array([[K4_SCALAR]]),
        lam=1.0,
    )
    zeros = interface(fn, [0.0], [0.0, 0.0, 0.0], [0.0], [0.0])
    assert np.allclose(zeros, [0.0])
    # Pure abstract input: u = K4 uhat.
    assert interface(fn, [0.0], [0.0, 0.0, 0.0], [0.0], [1.0])[0] == pytest.approx(K4_SCALAR)
    # Pure deviation along the third state: u = K1 e3.
    assert interface(fn, [0.0], [0.0, 0.0, 1.0], [0.0], [0.0])[0] == pytest.approx(-3.03)
    # Pure internal abstract signal: u = -K3 what.
    assert interface(fn, [0.0], [0.0, 0.0, 0.0], [1.0], [0.0])[0] == pytest.approx(-0.5)
    # On the manifold, the interface cancels the injected dynamics.
    xhat = np.array([0.8])
    on_manifold = interface(fn, xhat, fn.P @ xhat, [0.0], [0.0])
    assert on_manifold[0] == pytest.approx(-fn.K2[0, 0] * 0.8, abs=1e-12)


def test_eval_simfn_values():
    fn = QuadraticSimFn(
        P=np.array([[1.0], [0.0], [0.0]]),
        M=CERT_M_INTEGRATOR,
        K1=CERT_K1_INTEGRATOR,
        K2=np.zeros((1, 1)),
        K3=np.array([[0.5]]),
        K4=np.array([[K4_SCALAR]]),
        lam=1.0,
    )
    assert eval_simfn(fn, [0.7], [0.7, 0.0, 0.0]) <= 1e-12
    assert eval_simfn(fn, [0.0], [0.0, 0.0, 1.0]) == pytest.approx(np.sqrt(0.61), abs=1e-12)
    rng = np.random.default_rng(227)
    xhat = rng.standard_normal(1)
    x = rng.standard_normal(3)
    assert eval_simfn(fn, 2 * xhat, 2 * x) == pytest.approx(
        2 * eval_simfn(fn, xhat, x), rel=1e-12
    )


def test_output_distance_bounded_by_simfn():
    # With a computed certificate, |C x - Chat xhat| <= V(xhat, x) for
    # every output block; checked on a large random cloud.
    ic = demo_interconnection()
    rng = np.random.default_rng(229)
    for name in ("s1", "s2"):
        sub = ic[name]
        (res,) = build_abstraction([sub], demo_projections()[name][None])
        xhat = rng.standard_normal((10_000, 1))
        x = rng.standard_normal((10_000, sub.n))
        err = x - xhat @ res.simfn.P.T
        v = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", err, res.simfn.M, err), 0.0))
        for blk, blk_hat in zip(
            [sub.C_ext] + [sub.C_int[k] for k in sorted(sub.C_int)],
            [res.system.C_ext] + [res.system.C_int[k] for k in sorted(res.system.C_int)],
        ):
            mismatch = np.linalg.norm(x @ blk.T - xhat @ blk_hat.T, axis=1)
            assert np.all(mismatch <= v + 1e-9)


def test_deviation_decays_along_trajectories():
    # Drive one abstraction and its refined concrete twin with differing
    # internal signals; the deviation must obey the decay estimate
    #   V(t+d) <= exp(-lam d) V(t)
    #            + (1 - exp(-lam d)) (rho |uhat| + mu |w - what|) / lam.
    ic = demo_interconnection()
    sub = ic["s1"]
    (res,) = build_abstraction([sub], demo_projections()["s1"][None])
    fn, gains = res.simfn, res.gains
    nhat, n = 1, 3

    a_joint = np.zeros((nhat + n, nhat + n))
    a_joint[:nhat, :nhat] = res.system.A
    a_joint[nhat:, :nhat] = sub.B @ (-fn.K1 @ fn.P - fn.K2)
    a_joint[nhat:, nhat:] = sub.A + sub.B @ fn.K1
    b_joint = np.block([
        [res.system.B, res.system.D, np.zeros((nhat, 1))],
        [sub.B @ fn.K4, -sub.B @ fn.K3, sub.D],
    ])
    joint = LinearSystem("joint", a_joint, b_joint, np.zeros((0, nhat + n)), [])

    t_final, dt = 8.0, 1e-3
    uhat = Signal.square([0.05, 0.03, -0.04], period=3.0, t_final=t_final)
    what = Signal.square([0.2], period=2.5, t_final=t_final)
    w = Signal(what.times, what.values + 0.1)
    stacked = Signal.stack([uhat, what, w])
    traj = integrate(joint, [0.4, -0.2, 0.3, 0.1], u=stacked, t_final=t_final, dt=dt)

    err = traj.states[:, nhat:] - traj.states[:, :nhat] @ fn.P.T
    v = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", err, fn.M, err), 0.0))
    lam = gains.lam
    offset = (gains.rho * uhat.sup_norm + gains.mu[0] * 0.1) / lam
    delta = 250 * dt
    decay = np.exp(-lam * delta)
    for i in range(0, len(v) - 250, 125):
        bound = decay * v[i] + (1.0 - decay) * offset
        assert v[i + 250] <= bound * (1.0 + 1e-4) + 1e-12


def test_check_relation_on_constructed_graph():
    ic, results = demo_results(certificates=False)
    sub = ic["s1"]
    res = results["s1"]
    report = check_relation(res.system, sub, graph_subspace(res.simfn.P))
    assert report.ok
    assert report.controlled_invariant and report.stabilizable
    assert report.invariance_residual <= 1e-9
    assert report.output_residual <= 1e-9
    # rho > 0 here, so the exact-feedthrough condition must fail.
    assert not report.feedthrough_ok


def test_check_relation_zero_subspace_misses_disturbances():
    sub = demo_interconnection()["s1"]
    report = check_relation(sub, sub, zero_subspace(6, 6 * REL_TOL))
    assert not report.disturbance_ok
    assert not report.ok


def test_check_relation_full_space_breaks_outputs():
    node = demo_interconnection()["s2"]
    report = check_relation(node, node, image(np.eye(4)[None])[0])
    assert report.controlled_invariant
    assert not report.output_ok
    assert not report.ok


def test_check_relation_rejects_mismatched_widths():
    ic = demo_interconnection()
    with pytest.raises(ValueError):
        check_relation(ic["s1"], ic["s2"], zero_subspace(5, 5 * REL_TOL))


def relation_of_pair(a, b, v):
    """``check_relation`` for the concrete pair ``(a, b)`` and the relation
    ``{0} x im v``, against a stable one-state abstract system without
    inputs, outputs or disturbances. The abstract state adds only the
    stable eigenvalue -1, so the verdicts are those of ``im v`` for
    ``(a, b)``."""
    n = a.shape[0]
    abstract = LinearSystem("abstract", [[-1.0]], np.zeros((1, 0)), np.zeros((0, 1)), [])
    concrete = LinearSystem("concrete", a, b, np.zeros((0, n)), [])
    return check_relation(
        abstract, concrete, image(np.vstack([np.zeros((1, v.shape[1])), v])[None])[0]
    )


def test_check_relation_external_stabilizability_examples():
    damped_node = np.array([[0.0, 1.0], [-6.0, -5.0]])
    report = relation_of_pair(damped_node, np.zeros((2, 0)), np.zeros((2, 0)))
    assert report.ok and report.stabilizable and report.witness is None
    report = relation_of_pair(np.array([[1.0]]), np.zeros((1, 0)), np.zeros((1, 0)))
    assert report.controlled_invariant and not report.stabilizable
    assert report.witness == pytest.approx(1.0)
    # an unstable direction inside the relation does not matter
    report = relation_of_pair(np.diag([3.0, -1.0]), np.zeros((2, 1)), np.array([[1.0], [0.0]]))
    assert report.ok and report.stabilizable


def test_check_relation_without_controlled_invariance_has_no_witness():
    # no input authority: a generic plane is not invariant under a generic
    # matrix, and stabilizability is not decided
    rng = np.random.default_rng(39)
    a = rng.standard_normal((4, 4))
    v = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    report = relation_of_pair(a, np.zeros((4, 1)), v)
    assert not report.controlled_invariant and not report.ok
    assert (report.stabilizable, report.witness) == (False, None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 2),
    k_frac=st.floats(0.0, 1.0),
    planted=st.sampled_from([None, -1.0, 0.0, 1.5]),
    inner=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_relation_decides_external_stabilizability_by_pbh(
    n, m, k_frac, planted, inner, seed
):
    # R = span of the first k columns of an orthogonal Q, and
    # A = Q [[A11, A12], [0, A22]] Q^T - B F0 keeps R controlled invariant
    # with the friend F0. A planted mode has a decoupled row and a zero row
    # of B. Inside R an unstable one does not matter; in the quotient, R is
    # externally stabilizable exactly when the planted mode is stable.
    rng = np.random.default_rng(seed)
    k = min(int(k_frac * (n + 1)), n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    upper = rng.standard_normal((n, n))
    upper[k:, :k] = 0.0
    b_local = rng.standard_normal((n, m))
    if k == n:
        planted = None
    rows = {}
    if inner and k:
        rows[int(rng.integers(0, k))] = 2.0
    if planted is not None:
        rows[int(rng.integers(k, n))] = planted
    for row, mode in rows.items():
        upper[row] = 0.0
        upper[row, row] = mode
        b_local[row] = 0.0
    b = q @ b_local
    a = q @ upper @ q.T - b @ rng.standard_normal((m, n))
    report = relation_of_pair(a, b, q[:, :k])
    assert report.controlled_invariant
    expected = planted is None or planted < 0.0
    assert report.stabilizable == expected
    if expected:
        assert report.witness is None
    else:
        assert report.witness == pytest.approx(
            planted, abs=1e-8 * max(1.0, spectral_norm(a[None])[0])
        )


def test_simfn_from_relation_matches_direct_construction():
    ic, results = demo_results(certificates=False)
    sub = ic["s1"]
    res = results["s1"]
    fn_rel = simfn_from_relation(res.system, sub, graph_subspace(res.simfn.P))
    rng = np.random.default_rng(233)
    for _ in range(100):
        xhat = rng.standard_normal(1)
        x = rng.standard_normal(3)
        direct = eval_simfn(res.simfn, xhat, x)
        via_relation = eval_simfn(fn_rel, xhat, x)
        assert via_relation == pytest.approx(direct, rel=1e-9, abs=1e-12)
    assert np.allclose(fn_rel.K2, res.simfn.K2, atol=1e-9)
    assert np.allclose(fn_rel.K3, res.simfn.K3, atol=1e-9)


def test_simfn_from_relation_identical_systems():
    node = demo_interconnection()["s2"]
    loner = LinearSystem("n", node.A, [[0.0], [1.0]], node.C_ext, [])
    fn = simfn_from_relation(loner, loner, graph_subspace(np.eye(2)))
    assert np.allclose(fn.P, np.eye(2), atol=1e-12)
    rng = np.random.default_rng(239)
    x = rng.standard_normal(2)
    assert eval_simfn(fn, x, x) <= 1e-10
    assert np.max(np.abs(fn.K2)) <= 1e-10


def test_simfn_from_relation_rejects_non_graphs():
    node = demo_interconnection()["s2"]
    loner = LinearSystem("n", node.A, [[0.0], [1.0]], node.C_ext, [])
    with pytest.raises(ValueError):
        simfn_from_relation(loner, loner, zero_subspace(4, 4 * REL_TOL))
    # A vertical subspace is not the graph of any map on the abstract states.
    vertical = image(np.vstack([np.zeros((2, 2)), np.eye(2)])[None])[0]
    with pytest.raises(ValueError):
        simfn_from_relation(loner, loner, vertical)
