"""End-to-end acceptance checks: published values, bounds, and agreement
between the constructive and the relation-based routes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_hurwitz, random_spd, random_valid_instance
from oracles import check_relation, graph_subspace, integrate
from simcompose.abstraction import (
    INJECTED_CERT_TOL,
    build_abstraction,
    certificate_slacks,
    check_P_conditions,
    compute_k4,
    _system_stack,
)
from simcompose.cli import main
from simcompose.compose import compose_simfn, gain_matrices, small_gain
from simcompose.demo import (
    DEMO_INPUT_AMPLITUDE,
    DEMO_INPUT_PERIOD,
    DEMO_XHAT0,
    demo_certificates,
    demo_interconnection,
    demo_projections,
)
from simcompose.geometry import image, minimal_invariant, residuals
from simcompose.linalg import solve_lyapunov, spectral_norm, sqrtm_spd
from simcompose.simulate import Signal, bound_report, refine_and_run
from simcompose.systems import LinearSystem


def demo_results(d=(0.5, 0.5, 0.5), injected=True):
    ic = demo_interconnection(*d)
    projections = demo_projections()
    certs = demo_certificates() if injected else {n: None for n in ic.names}
    results = {
        name: build_abstraction(
            [ic[name]], projections[name][None], None if certs[name] is None else [certs[name]]
        )[0]
        for name in ic.names
    }
    return ic, results


def test_published_gains_from_injected_certificates():
    start = time.perf_counter()
    for d1, d2 in ((0.5, 0.5), (0.3, 0.8)):
        ic, results = demo_results((d1, d2, 0.5))
        certs = demo_certificates()
        (k4,), _ = compute_k4(
            sqrtm_spd(certs["s1"][0][None]), demo_projections()["s1"][None], np.ones((1, 1, 1)),
            ic["s1"].B[None],
        )
        assert abs(float(k4[0, 0]) - 1.47) <= 0.01
        assert abs(results["s1"].gains.rho - 1.81) <= 0.01
        assert abs(results["s3"].gains.rho - 1.81) <= 0.01
        assert abs(results["s2"].gains.rho - 1.41) <= 0.01
        assert abs(results["s4"].gains.rho - 1.41) <= 0.01
        assert abs(results["s1"].gains.mu[0] - 0.78 * d1) <= 0.01 * d1
        assert abs(results["s2"].gains.mu[0] - 1.41 * d2) <= 0.01 * d2
    assert time.perf_counter() - start < 1.0


def test_abstraction_structure_is_exact():
    d1, d2, d3 = 0.37, 0.61, 0.23
    ic, results = demo_results((d1, d2, d3))

    s1 = results["s1"]
    assert np.max(np.abs(s1.system.A)) <= 1e-8
    assert np.max(np.abs(s1.system.D)) <= 1e-8
    assert np.max(np.abs(s1.simfn.K2)) <= 1e-8
    assert np.allclose(s1.simfn.K3, [[d1]], atol=1e-8)
    assert np.allclose(s1.system.C_ext, [[1.0]], atol=1e-8)

    s2 = results["s2"]
    assert np.allclose(s2.system.A, [[-2.0]], atol=1e-8)
    assert np.allclose(s2.system.D, [[-d2]], atol=1e-8)
    assert np.allclose(s2.system.C_ext, [[1.0]], atol=1e-8)

    s3 = results["s3"]
    assert np.allclose(s3.simfn.K3, [[d3, d3]], atol=1e-8)

    # abstract input matrices are fixed only up to an input transform,
    # so compare coordinate-free quantities: the interface gain is
    # invariant under any rotation of the abstract input
    assert abs(abs(float(s2.system.B[0, 0])) - 1.0) <= 1e-8
    bhat1 = s1.system.B
    assert bhat1.shape == (1, 3)
    assert np.linalg.matrix_rank(bhat1) == 1
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m, p, b = sqrtm_spd(s1.simfn.M[None]), s1.simfn.P[None], ic["s1"].B[None]
    _, (rho_direct,) = compute_k4(m, p, bhat1[None], b)
    _, (rho_rotated,) = compute_k4(m, p, (bhat1 @ q)[None], b)
    assert abs(rho_direct - rho_rotated) <= 1e-8
    assert abs(rho_direct - s1.gains.rho) <= 1e-8


def test_published_composition_path(capsys):
    ic, results = demo_results()
    gm = gain_matrices(ic, {n: results[n].gains for n in ic.names})

    path = small_gain(gm)
    assert path.rho_spec < 1.0
    assert path.validated
    # the printed radius 0.19 is not what the gain matrix gives
    assert abs(path.rho_spec - 0.19) > 0.05

    published = small_gain(gm, eta=(0.4, 0.6, 0.5, 0.6), epsilon=4.0)
    composed = compose_simfn(gm, published)
    assert composed.lam == 0.8
    assert 4.5 <= composed.rho <= 4.8
    assert 5.6 <= composed.rho / composed.lam <= 6.0

    assert main(["reproduce-example"]) == 0
    out = capsys.readouterr().out
    assert "PASS (flagged)" in out
    assert "is not reproduced" in out


def random_piecewise_input(rng, t_final):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_final, 5))])
    values = np.zeros((6, 8))
    driven = [0, 1, 2, 4, 5, 6]  # the two integrator abstractions
    raw = rng.standard_normal((6, len(driven)))
    raw *= (rng.uniform(0.02, 0.1, 6) / np.linalg.norm(raw, axis=1))[:, None]
    values[:, driven] = raw
    return Signal(times, values)


def test_deviation_bounds_hold_across_random_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(824)
    cases = [(np.array([0.5, 0.5, 0.5]), np.array(DEMO_XHAT0), None)]
    for _ in range(50):
        cases.append((rng.uniform(0.1, 0.9, 3), rng.uniform(-1.0, 1.0, 4), rng))
    for d, xhat0, case_rng in cases:
        ic, results = demo_results(tuple(d))
        gm = gain_matrices(ic, {n: results[n].gains for n in ic.names})
        path = small_gain(gm)
        assert path.validated
        composed = compose_simfn(gm, path)
        x0 = np.concatenate([
            results[n].simfn.P @ xhat0[i:i + 1] for i, n in enumerate(ic.names)
        ])
        if case_rng is None:
            amp = np.zeros(8)
            amp[0:3] = DEMO_INPUT_AMPLITUDE
            amp[4:7] = -DEMO_INPUT_AMPLITUDE
            uhat = Signal.square(amp, DEMO_INPUT_PERIOD, 20.0)
        else:
            uhat = random_piecewise_input(case_rng, 20.0)
        assert uhat.sup_norm <= 0.1 + 1e-12
        run = refine_and_run(
            ic, results, composed, x0, xhat0, uhat, t_final=20.0, dt=1e-3
        )
        assert run.v_composed[0] <= 1e-9
        report = bound_report(run, composed, gm, uhat)
        assert report.min_margin >= -1e-6
        assert report.ok
    assert time.perf_counter() - start < 60.0


def assert_identities(sys, result, tol=1e-8):
    fn = result.simfn
    ahat, dhat = result.system.A, result.system.D
    p, phat = fn.P, result.phat
    stacked = np.vstack([sys.C_ext] + [sys.C_int[k] for k in sorted(sys.C_int)])
    assert np.max(np.abs(sys.A @ p - p @ ahat - sys.B @ fn.K2)) <= tol
    assert np.max(np.abs(sys.D - p @ dhat - sys.B @ fn.K3)) <= tol
    assert np.max(np.abs(result.system.C_ext - sys.C_ext @ p)) <= tol
    assert np.max(np.abs(phat @ p - np.eye(p.shape[1]))) <= tol
    assert np.max(np.abs(stacked @ p @ phat - stacked)) <= tol
    nhat = p.shape[1]
    if nhat:
        assert np.linalg.matrix_rank(p) == nhat


def test_construction_identities_and_certificate_slacks():
    for injected in (True, False):
        ic, results = demo_results(injected=injected)
        for name in ic.names:
            assert_identities(ic[name], results[name])

    # freshly computed certificates satisfy both matrix inequalities
    ic, results = demo_results(injected=False)
    for name in ic.names:
        sub, fn = ic[name], results[name].simfn
        (out_slack,), (decay_slack,) = certificate_slacks(
            sub.A[None], sub.B[None], [blk[None] for blk in sub.output_blocks()],
            fn.M[None], fn.K1[None], np.array([fn.lam]),
        )
        assert out_slack >= -1e-7
        assert decay_slack >= -1e-7

    # the bundled example certificates are rounded to two decimals and
    # are accepted at their documented tolerance
    ic = demo_interconnection()
    certs = demo_certificates()
    for name in ic.names:
        sub = ic[name]
        m, k1, lam = certs[name]
        (out_slack,), (decay_slack,) = certificate_slacks(
            sub.A[None], sub.B[None], [blk[None] for blk in sub.output_blocks()],
            m[None], k1[None], np.array([lam]),
        )
        assert min(out_slack, decay_slack) >= -INJECTED_CERT_TOL

    rng = np.random.default_rng(505)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        nhat = int(rng.integers(1, n))
        sys, p = random_valid_instance(rng, n, nhat, m=int(rng.integers(1, 4)))
        assert_identities(sys, build_abstraction([sys], p[None])[0])


def test_geometry_routes_agree():
    rng = np.random.default_rng(606)

    # invariant-subspace computation against the plain power basis
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        k = int(rng.integers(0, n + 1))
        seed = image((rng.standard_normal((n, k)) if k else np.zeros((n, 0)))[None])[0]
        direct = minimal_invariant(a, seed)
        powers = [seed.basis]
        for _ in range(n - 1):
            nxt = a @ powers[-1]
            scale = np.linalg.norm(nxt)
            powers.append(nxt / scale if scale > 0 else nxt)
        brute = image(np.hstack(powers)[None])[0] if k else image(np.zeros((1, n, 0)))[0]
        assert direct.dim == brute.dim
        assert residuals([brute], direct.basis[None])[0] <= 1e-8 if direct.dim else True
        assert residuals([direct], brute.basis[None])[0] <= 1e-8 if brute.dim else True

    # the P-condition route and the joint-space relation route accept
    # and reject the same injections
    accepted = 0
    rejected = 0
    while accepted + rejected < 100:
        n = int(rng.integers(4, 8))
        nhat = int(rng.integers(1, 3))
        sys, p = random_valid_instance(rng, n, nhat, m=1)
        if accepted < 50:
            (pred,) = check_P_conditions(*_system_stack([sys]), p[None])
            assert pred.ok
            (result,) = build_abstraction([sys], p[None])
            rel = check_relation(result.system, sys, graph_subspace(p))
            assert rel.ok
            accepted += 1
        else:
            p_bad = p + 0.4 * rng.standard_normal(p.shape)
            (pred,) = check_P_conditions(*_system_stack([sys]), p_bad[None])
            if pred.ok:
                continue  # the random tilt happened to stay admissible
            (result,) = build_abstraction([sys], p[None])
            rel = check_relation(result.system, sys, graph_subspace(p_bad))
            assert not rel.ok
            rejected += 1


def test_numeric_kernels_meet_tolerances():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        a = random_hurwitz(rng, n)
        q = random_spd(rng, n)
        m = solve_lyapunov(a[None], q[None])[0]
        residual = spectral_norm((a.T @ m + m @ a + q)[None])[0]
        scale = spectral_norm(a[None])[0] * spectral_norm(m[None])[0] + spectral_norm(q[None])[0]
        assert residual <= 1e-8 * max(1.0, scale)

    for _ in range(20):
        n = int(rng.integers(1, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(-rng.uniform(0.2, 3.0, n)) @ q.T
        x0 = rng.standard_normal(n)
        sys = LinearSystem("s", a, np.zeros((n, 0)), np.eye(n), [], (), {})
        traj = integrate(sys, x0, t_final=1.0, dt=1e-3)
        vals, vecs = np.linalg.eig(a)
        exact = (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)).real @ x0
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8


def test_benchmark_selftest_passes():
    # the benchmark's checker must accept clean runs and reject corrupted
    # ones; it writes only under the git-ignored .bench_work/
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=root, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
