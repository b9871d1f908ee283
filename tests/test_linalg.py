"""Linear-algebra kernel tests: frozen hand values plus seeded sweeps."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hurwitz, random_spd
from oracles import open_loop
from simcompose import linalg
from simcompose.linalg import (
    REL_TOL,
    NumericsError,
    check_spd,
    eigenvalues,
    least_squares,
    RESIDUAL_TOL,
    pbh_stabilizable,
    residual_ok,
    solve_lyapunov,
    spectral_abscissa,
    spectral_norm,
    sqrtm_spd,
    stabilize,
)

TRIPLE_INTEGRATOR = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
TRIPLE_INPUT = np.array([[0.0], [0.0], [1.0]])
DAMPED_NODE = np.array([[0.0, 1.0], [-6.0, -5.0]])

M_NODE = np.array([[26.0, 10.0], [10.0, 4.0]])


def test_eigenvalues_diagonal():
    vals = eigenvalues(np.diag([-1.0, -2.0])[None])[0]
    assert np.allclose(vals, [-2.0, -1.0])


def test_eigenvalues_damped_node():
    vals = eigenvalues(DAMPED_NODE[None])[0]
    assert np.allclose(vals, [-3.0, -2.0], atol=1e-12)


def test_eigenvalues_nilpotent():
    vals = eigenvalues(TRIPLE_INTEGRATOR[None])[0]
    assert np.max(np.abs(vals)) <= 1e-10


def test_eigenvalues_sorted_deterministically():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    vals = eigenvalues(a[None])[0]
    again = eigenvalues(a[None])[0]
    assert np.array_equal(vals, again)
    assert np.all(np.diff(vals.real) >= -1e-15)


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3))[None])


def test_eigenvalues_against_singular_values():
    # For any A the eigenvalues of A^T A are the squared singular values.
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 7)
        a = rng.standard_normal((n, n))
        sigma = np.linalg.svd(a, compute_uv=False)
        gram_eigs = np.sort(eigenvalues((a.T @ a)[None])[0].real)[::-1]
        assert np.allclose(gram_eigs, sigma**2, rtol=1e-8, atol=1e-10)


def test_spectral_abscissa_and_radius():
    assert spectral_abscissa(DAMPED_NODE[None])[0] == pytest.approx(-2.0, abs=1e-12)
    assert spectral_abscissa(DAMPED_NODE[None])[0] < 0.0
    assert not spectral_abscissa(TRIPLE_INTEGRATOR[None])[0] < 0.0
    assert spectral_norm(np.zeros((3, 0))[None])[0] == 0.0


def test_solve_lyapunov_scalar():
    m = solve_lyapunov(np.array([[-1.0]])[None], np.array([[2.0]])[None])[0]
    assert m[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_solve_lyapunov_decoupled_diagonal():
    # For A = diag(-1, -2) and Q = I the equation decouples entrywise:
    # 2 a_i m_ii = -1, so M = diag(1/2, 1/4).
    m = solve_lyapunov(np.diag([-1.0, -2.0])[None], np.eye(2)[None])[0]
    assert np.allclose(m, np.diag([0.5, 0.25]), atol=1e-12)


def test_solve_lyapunov_matches_scipy():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = rng.integers(1, 7)
        a = random_hurwitz(rng, n)
        q = random_spd(rng, n)
        m = solve_lyapunov(a[None], q[None])[0]
        # scipy solves A X + X A^H = Q, so transpose and negate to match.
        ref = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        assert np.allclose(m, ref, rtol=1e-8, atol=1e-10)


def test_solve_lyapunov_residual_bound():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = rng.integers(1, 11)
        a = random_hurwitz(rng, n)
        q = np.eye(n)
        m = solve_lyapunov(a[None], q[None])[0]
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m)[0] > 0.0
        residual = np.linalg.norm(a.T @ m + m @ a + q, "fro")
        bound = 1e-8 * (
            spectral_norm(a[None])[0] * spectral_norm(m[None])[0] + spectral_norm(q[None])[0]
        )
        assert residual <= max(bound, 1e-14)


def solve_against_the_spectrum(a):
    """``solve_lyapunov(a, I)``, checked against the spectrum taken first.

    A matrix whose spectral abscissa is not below 0 is rejected with the
    message naming its rightmost eigenvalue, unless the sign iteration
    brings it to -I and M meets the residual gate; no other matrix gets
    that message. Returns M, or None on a rejection.
    """
    n = a.shape[0]
    worst = eigenvalues(a[None])[0, -1]
    hurwitz = spectral_abscissa(a[None])[0] < 0.0
    message = (
        f"Lyapunov equation requires a Hurwitz matrix; eigenvalue {worst} "
        f"has real part {worst.real:.6g} >= 0"
    )
    try:
        m = solve_lyapunov(a[None], np.eye(n)[None])[0]
    except NumericsError as exc:
        assert (str(exc) == message) != hurwitz
        return None
    residual = np.linalg.norm(a.T @ m + m @ a + np.eye(n), "fro")
    assert residual <= 1e-8 * (spectral_norm(a[None])[0] * spectral_norm(m[None])[0] + 1.0)
    return m


def test_solve_lyapunov_rejects_non_hurwitz():
    # the sign iteration is the Hurwitz test: every matrix the spectrum
    # calls unstable is rejected with the message it gave when the
    # spectrum was taken first
    for a in (np.array([[1.0]]), TRIPLE_INTEGRATOR, np.diag([0.0, -1.0])):
        with pytest.raises(NumericsError, match="requires a Hurwitz matrix"):
            solve_lyapunov(a[None], np.eye(len(a))[None])
        assert solve_against_the_spectrum(a) is None
    rng = np.random.default_rng(3)
    for k in range(60):
        n = int(rng.integers(1, 25))
        a = random_hurwitz(rng, n)
        if k % 2:
            # half of the draws shifted right of the axis by up to 0.5
            a = a + (abs(spectral_abscissa(a[None])[0]) + rng.uniform(-0.5, 0.5)) * np.eye(n)
        accepted = solve_against_the_spectrum(a) is not None
        assert accepted == (spectral_abscissa(a[None])[0] < 0.0)


# A shifted, stabilized closed loop from a random injection instance:
# |A|_2 = 1.4e5, eigenvector condition 1.2e7, |M|_2 = 1.9e8. The plain
# sign iteration leaves a residual of about 5 here; the Kronecker solve
# reached 2.7e-3 and scipy's Bartels-Stewart 8.6e-3.
STIFF_CLOSED_LOOP = np.array([
    [9188.716029967482, 18761.390441889896, -26857.85265569105, 10801.241437389475],
    [17932.617200048895, 36613.17915174901, -52412.9198836981, 21079.359697883163],
    [4185.407773380968, 8545.122633273082, -12232.65873205971, 4920.220642551055],
    [-28564.650972331518, -58321.94610168635, 83489.87064552422, -33576.23538572964],
])


def lyapunov_oracle(a, q):
    # scipy solves A X + X A^H = Q, so transpose and negate to match.
    return scipy.linalg.solve_continuous_lyapunov(a.T, -q)


def test_solve_lyapunov_matches_scipy_up_to_100_states():
    rng = np.random.default_rng(41)
    for n in range(1, 101):
        a = random_hurwitz(rng, n)
        q = random_spd(rng, n)
        m = solve_lyapunov(a[None], q[None])[0]
        ref = lyapunov_oracle(a, q)
        assert np.allclose(m, ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max()), n


def test_solve_lyapunov_near_defective_closed_loop():
    # the stabilized triple integrator has a nearly defective triple
    # eigenvalue; shifted by half its decay margin as decay_certificate does
    (k,), (abscissa,) = stabilize(
        TRIPLE_INTEGRATOR[None], TRIPLE_INPUT[None],
        *open_loop(TRIPLE_INTEGRATOR[None], TRIPLE_INPUT[None]),
    )
    a_cl = TRIPLE_INTEGRATOR + TRIPLE_INPUT @ k
    a = a_cl + 0.5 * abs(abscissa) * np.eye(3)
    m = solve_lyapunov(a[None], np.eye(3)[None])[0]
    ref = lyapunov_oracle(a, np.eye(3))
    assert np.allclose(m, ref, rtol=1e-9, atol=0.0)
    assert np.linalg.norm(a.T @ m + m @ a + np.eye(3), 2) <= 1e-12 * np.linalg.norm(m, 2)


def test_solve_lyapunov_stiff_residual_below_kronecker_level():
    a = STIFF_CLOSED_LOOP
    q = np.eye(4)
    m = solve_lyapunov(a[None], q[None])[0]
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m)[0] > 0.0
    assert np.linalg.norm(a.T @ m + m @ a + q, 2) < 1e-2 * np.linalg.norm(q, 2)


def test_solve_lyapunov_200_states():
    # the Kronecker system would be 40000 x 40000, 12.8 GB
    rng = np.random.default_rng(43)
    n = 200
    a = random_hurwitz(rng, n)
    q = random_spd(rng, n)
    m = solve_lyapunov(a[None], q[None])[0]
    ref = lyapunov_oracle(a, q)
    assert np.allclose(m, ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max())


def test_solve_lyapunov_far_from_normal_fails_only_with_numerics_error():
    # Hurwitz Jordan-like blocks with superdiagonals up to 1e4, seen in a
    # random basis. Some are too ill-conditioned to solve, on some a sign
    # iterate is numerically singular, and on 86 the computed spectrum
    # crosses the axis; every failure must still be a NumericsError with
    # the message the spectrum decides, and every returned M must meet
    # the residual gate.
    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        block = -10 ** rng.uniform(-2, 1) * np.eye(n)
        block += np.diag(np.full(n - 1, 10 ** rng.uniform(2, 4)), 1)
        t = rng.standard_normal((n, n))
        a = t @ block @ np.linalg.inv(t)
        solved += solve_against_the_spectrum(a) is not None
    # robustness floor: refinement with the sign iterates solves 67 draws
    assert solved >= 65


def test_solve_lyapunov_memory_is_quadratic():
    n = 60
    rng = np.random.default_rng(47)
    a = random_hurwitz(rng, n)
    tracemalloc.start()
    try:
        solve_lyapunov(a[None], np.eye(n)[None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few dozen n x n arrays, against 8 n^4 = 104 MB for Kronecker
    assert peak < 100 * 8 * n * n


def far_from_normal(rng):
    """A draw of ``test_solve_lyapunov_far_from_normal_fails_only_with_numerics_error``:
    a Hurwitz Jordan-like block with its superdiagonal up to 1e4, seen in
    a random basis."""
    n = int(rng.integers(2, 8))
    block = -10 ** rng.uniform(-2, 1) * np.eye(n)
    block += np.diag(np.full(n - 1, 10 ** rng.uniform(2, 4)), 1)
    t = rng.standard_normal((n, n))
    return t @ block @ np.linalg.inv(t)


def test_solve_lyapunov_refines_a_stack_as_each_member_alone(monkeypatch):
    # of 400 draws, 119 solve and 86 of those are refined; stacked by
    # size, every member gets the bits of its solve alone, refinement
    # included, and a stack with one non-Hurwitz member raises the error
    # that member gets alone
    passes = []
    sign_solve = linalg._sign_solve

    def counted(at, r):
        passes.append(len(at))
        return sign_solve(at, r)

    monkeypatch.setattr(linalg, "_sign_solve", counted)
    rng = np.random.default_rng(5)
    solved, unstable = {}, {}
    refined = 0
    for _ in range(400):
        a = far_from_normal(rng)
        n = len(a)
        passes.clear()
        try:
            m = solve_lyapunov(a[None], np.eye(n)[None])[0]
        except NumericsError as exc:
            if "requires a Hurwitz matrix" in str(exc):
                unstable.setdefault(n, (a, str(exc)))
            continue
        solved.setdefault(n, []).append((a, m))
        refined += len(passes) > 1
    assert sum(map(len, solved.values())) == 119 and refined == 86
    refined_in_stacks = 0
    for n, members in solved.items():
        stack = np.stack([a for a, _ in members])
        passes.clear()
        m = solve_lyapunov(stack, np.broadcast_to(np.eye(n), stack.shape))
        assert all(got.tobytes() == alone.tobytes() for got, (_, alone) in zip(m, members))
        # the second pass is the first refinement cycle, over its members
        refined_in_stacks += passes[1] if len(passes) > 1 else 0
        if n not in unstable:
            continue
        bad, message = unstable[n]
        half = len(members) // 2
        with pytest.raises(NumericsError) as failed:
            solve_lyapunov(np.concatenate([stack[:half], bad[None], stack[half:]]),
                           np.broadcast_to(np.eye(n), (len(stack) + 1, n, n)))
        assert str(failed.value) == message
    assert refined_in_stacks == refined and sorted(unstable) == [3, 4, 5, 6, 7]


def test_solve_lyapunov_memory_does_not_grow_with_the_newton_steps(monkeypatch):
    # symmetric inputs whose spectra spread over 10 and 1e4 take 5 and 7
    # Newton steps; the iteration keeps no iterate, so its traced peak
    # stays within half an n x n matrix
    n = 60
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    inv = np.linalg.inv
    steps, peaks = [], []

    def counted(x):
        steps[-1] += 1
        return inv(x)

    for spread in (10.0, 1e4):
        a = (basis @ np.diag(-np.geomspace(1.0, spread, n)) @ basis.T)[None]
        steps.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", counted)
            solve_lyapunov(a, np.eye(n)[None])
        tracemalloc.start()
        try:
            solve_lyapunov(a, np.eye(n)[None])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert steps == [5, 7]
    assert peaks[1] <= peaks[0] + 4 * n * n


def test_solve_lyapunov_rejects_asymmetric_q():
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([-1.0, -2.0])[None], np.array([[0.0, 1.0], [0.0, 0.0]])[None])


def test_solve_lyapunov_takes_one_norm_of_an_exactly_symmetric_q(monkeypatch):
    # |a|_2, |m|_2 and one |q|_2, which serves the symmetry test and the
    # residual bound; a q symmetric only to rounding also takes |q - q^T|_2
    rng = np.random.default_rng(8)
    a = random_hurwitz(rng, 6)[None]
    q = random_spd(rng, 6)[None]
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    m = solve_lyapunov(a, q)
    assert len(calls) == 3
    calls.clear()
    nearly = q.copy()
    nearly[0, 0, 1] += 1e-15
    assert np.allclose(solve_lyapunov(a, nearly), m, rtol=1e-12, atol=0.0)
    assert len(calls) == 4


def test_stabilize_returns_zero_for_hurwitz():
    b = np.array([[0.0], [1.0]])
    (k,), (abscissa,) = stabilize(
        DAMPED_NODE[None], b[None], *open_loop(DAMPED_NODE[None], b[None])
    )
    assert np.array_equal(k, np.zeros((1, 2)))
    # the open loop's own abscissa, the one the verdict was taken on
    assert abscissa == spectral_abscissa((DAMPED_NODE + b @ k)[None])[0] == spectral_abscissa(
        DAMPED_NODE[None]
    )[0]


def test_stabilize_scalar_integrator():
    a, b = np.array([[0.0]]), np.array([[1.0]])
    (k,), (abscissa,) = stabilize(a[None], b[None], *open_loop(a[None], b[None]))
    assert abscissa == spectral_abscissa((a + b @ k)[None])[0]
    assert abscissa < 0.0


def test_stabilize_triple_integrator():
    # shifted left by 1e-14 the open loop is Hurwitz by a hair, inside the
    # margin the PBH test treats as marginal, so it is placed too
    for shift in (0.0, 1e-14):
        a = TRIPLE_INTEGRATOR - shift * np.eye(3)
        (k,), (abscissa,) = stabilize(
            a[None], TRIPLE_INPUT[None], *open_loop(a[None], TRIPLE_INPUT[None])
        )
        assert abscissa == spectral_abscissa((a + TRIPLE_INPUT @ k)[None])[0]
        assert abscissa < -REL_TOL


def test_stabilize_random_controllable_pairs():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = rng.integers(1, 7)
        m = rng.integers(1, 3)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        (k,), (abscissa,) = stabilize(a[None], b[None], *open_loop(a[None], b[None]))
        assert abscissa == spectral_abscissa((a + b @ k)[None])[0]
        assert abscissa < 0.0


def pbh(a, b):
    return pbh_stabilizable(a[None], b[None], spectral_norm(a[None]))


def test_pbh_examples():
    (ok,), (witness,), _ = pbh(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))
    assert not ok
    assert witness == pytest.approx(1.0)
    (ok,), (witness,), _ = pbh(TRIPLE_INTEGRATOR, TRIPLE_INPUT)
    assert ok and witness is None
    # An uncontrollable but stable mode is fine.
    (ok,), _, _ = pbh(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    assert ok
    # No input at all: stabilizable exactly when already Hurwitz.
    (ok,), _, _ = pbh(DAMPED_NODE, np.zeros((2, 0)))
    assert ok
    (ok,), _, _ = pbh(np.array([[1.0]]), np.zeros((1, 0)))
    assert not ok


def test_check_spd():
    m = check_spd(M_NODE[None], ["M"])[0]
    assert np.allclose(m, M_NODE)
    # every rejection is the NumericsError the certificate test reports
    with pytest.raises(NumericsError, match="^M must be symmetric$"):
        check_spd(np.array([[1.0, 1.0], [0.0, 1.0]])[None], ["M"])
    with pytest.raises(NumericsError, match=r"^M must be square, got \(2, 3\)$"):
        check_spd(np.ones((1, 2, 3)), ["M"])
    with pytest.raises(NumericsError, match="^M is not positive semidefinite"):
        check_spd(np.diag([1.0, -1.0])[None], ["M"])
    # the cutoff scales with |M|_2 once, not squared
    with pytest.raises(NumericsError):
        check_spd(np.diag([1e6, -100.0])[None], ["M"])


def test_sqrtm_spd_squares_back():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = rng.integers(1, 7)
        m = random_spd(rng, n)
        root = sqrtm_spd(m[None])[0]
        assert np.allclose(root, root.T)
        assert np.allclose(root @ root, m, rtol=1e-9, atol=1e-10)


def test_least_squares_exact_system():
    a = np.array([[1.0, 1.0], [-2.0, 0.0]])
    (x,), (residual,) = least_squares(a[None], np.array([[[-2.0], [4.0]]]))
    assert np.allclose(x[:, 0], [-2.0, 0.0], atol=1e-12)
    assert residual <= 1e-12


def test_least_squares_minimum_norm():
    (x,), (residual,) = least_squares(np.array([[[1.0, 0.0]]]), np.array([[[3.0]]]))
    assert residual <= 1e-12
    assert np.allclose(x[:, 0], [3.0, 0.0], atol=1e-12)


def test_least_squares_inconsistent():
    a = np.array([[1.0], [1.0]])
    (x,), (residual,) = least_squares(a[None], np.array([[[0.0], [1.0]]]))
    assert x[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert residual == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_least_squares_matrix_rhs():
    rng = np.random.default_rng(71)
    a = rng.standard_normal((5, 3))
    target = rng.standard_normal((3, 2))
    (x,), (residual,) = least_squares(a[None], (a @ target)[None])
    assert np.allclose(x, target, atol=1e-9)
    assert residual <= 1e-9


def least_squares_stack(rng, count, rows, cols, k, repeated):
    """A stack of ``count`` random ``rows x cols`` systems with ``k``
    right-hand sides; the members flagged in ``repeated`` repeat their
    first column in the last, so they are rank-deficient."""
    a = rng.standard_normal((count, rows, cols)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    if cols > 1:
        a[repeated, :, -1] = a[repeated, :, 0]
    return a, rng.standard_normal((count, rows, k))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5),
    k=st.integers(1, 3),
    repeated=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_least_squares_stack_matches_lstsq(seed, count, rows, cols, k, repeated):
    # full-rank, rank-deficient, zero-column and zero-row members, each
    # against numpy's lstsq at the same cutoff where the rank is clear
    rng = np.random.default_rng(seed)
    a, b = least_squares_stack(rng, count, rows, cols, k, np.array(repeated[:count]))
    x, residual = least_squares(a, b)
    assert x.shape == (count, cols, k) and residual.shape == (count,)
    for j in range(count):
        rcond = REL_TOL * max(rows, cols)
        want, *_ = np.linalg.lstsq(a[j], b[j], rcond=rcond)
        svals = np.linalg.svd(a[j], compute_uv=False) if a[j].size else np.zeros(0)
        kept = svals[svals > rcond * svals.max(initial=0.0)]
        if kept.size and kept[-1] < 1e-6 * kept[0]:
            continue  # ill-conditioned: the two solvers may differ past roundoff
        scale = 1.0 + np.abs(want).max(initial=0.0)
        assert np.abs(x[j] - want).max(initial=0.0) <= 1e-9 * scale
        assert residual[j] == pytest.approx(np.linalg.norm(a[j] @ want - b[j]), abs=1e-9)


def test_least_squares_member_alone_equals_its_result_in_a_stack():
    rng = np.random.default_rng(83)
    for rows, cols in ((3, 3), (4, 2), (2, 5), (3, 0), (0, 3)):
        a, b = least_squares_stack(rng, 6, rows, cols, 2, np.arange(6) % 2 == 1)
        x, residual = least_squares(a, b)
        for j in range(6):
            (alone,), (alone_residual,) = least_squares(a[j][None], b[j][None])
            assert np.array_equal(alone, x[j]) and alone_residual == residual[j]
        # two right-hand sides share the SVD and keep their own residuals
        x1, r1, x2, r2 = least_squares(a, b[:, :, :1], b[:, :, 1:])
        assert np.allclose(np.concatenate([x1, x2], axis=-1), x, rtol=0, atol=1e-12)
        assert np.allclose(np.hypot(r1, r2), residual, rtol=1e-12, atol=1e-15)


def test_residual_ok_scales_with_reference_norm():
    big = spectral_norm(4.0 * np.eye(2)[None])
    # equality is accepted, and the tolerance scales with the spectral norm
    assert residual_ok(RESIDUAL_TOL * 4.0, big)
    assert not residual_ok(RESIDUAL_TOL * 4.0 * (1.0 + 1e-6), big)
    # below unit norm the floor keeps the tolerance absolute
    small = spectral_norm(1e-3 * np.eye(2)[None])
    assert residual_ok(RESIDUAL_TOL, small)
    assert not residual_ok(2.0 * RESIDUAL_TOL, small)
    assert residual_ok(RESIDUAL_TOL, spectral_norm(np.zeros((1, 3, 0))))
