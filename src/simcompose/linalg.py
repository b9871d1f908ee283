"""Dense linear-algebra helpers used throughout the package.

Everything operates on plain ``numpy`` arrays in double precision. The
routines here are small and deliberately explicit: spectra, an O(n^3)
Lyapunov solver (matrix sign function iteration with iterative
refinement on the same iterates, hundreds of states), a stabilizing
feedback by eigenvalue assignment, PBH stabilizability tests, symmetric
square roots, and a minimum-norm least-squares solver.

Two relative tolerances are fixed here and used package-wide:
``REL_TOL`` scales singular-value cutoffs for rank decisions, and
``RESIDUAL_TOL`` bounds the residual of a construction identity through
:func:`residual_ok`.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

#: Relative tolerance coefficient for rank and eigenvalue decisions.
REL_TOL = 1e-9

#: Relative residual accepted for construction and invariance identities.
RESIDUAL_TOL = 1e-8

_EPS = float(np.finfo(float).eps)

# Lyapunov solver: Newton steps allowed for the sign iteration (determinant
# scaling converges in well under 20 on every input seen), the distance
# to -I after which one more step reaches roundoff, and the cycles of
# iterative refinement.
_SIGN_MAX_STEPS = 60
_SIGN_TOL = np.sqrt(_EPS)
_REFINE_CYCLES = 4


class NumericsError(RuntimeError):
    """A numerical routine could not certify its result.

    Raised for structurally sound inputs that fail a numerical
    requirement: a matrix that must be Hurwitz is not, a gramian that
    must be invertible is singular, a residual exceeds its bound.
    """


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float array; 1-D input becomes a column."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def block_diag(blocks) -> Matrix:
    """Block-diagonal matrix of 2-D blocks, any of which may be empty."""
    blocks = [as_matrix(b) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def spectral_norm(a) -> float:
    """Largest singular value; 0 for an empty matrix.

    The same LAPACK call ``np.linalg.norm(a, 2)`` makes, without its
    axis-handling wrapper, so the value is bit-identical.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def residual_ok(residual: float, ref, norm: float | None = None) -> bool:
    """Whether an identity residual is at noise level relative to ``ref``.

    Accepts ``residual <= RESIDUAL_TOL * max(1, |ref|_2)``; the floor at 1
    keeps an absolute tolerance for small or zero reference matrices.
    ``norm`` is ``|ref|_2`` when the caller has already computed it.
    """
    if norm is None:
        norm = spectral_norm(ref)
    return residual <= RESIDUAL_TOL * max(1.0, norm)


def rank_tol(a, norm: float | None = None) -> float:
    """Singular-value cutoff for rank decisions about ``a``.

    Scales with the larger dimension and the spectral norm; the norm
    factor is floored at 1 so zero and near-zero matrices still get a
    positive tolerance. ``norm`` is ``|a|_2`` when the caller has
    already computed it.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return REL_TOL
    if norm is None:
        norm = spectral_norm(a)
    return REL_TOL * max(a.shape) * max(1.0, norm)


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, sorted by (real, imag) for determinism."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def spectral_abscissa(a) -> float:
    """Largest real part over the spectrum (``-inf`` for a 0x0 matrix)."""
    vals = eigenvalues(a)
    if vals.size == 0:
        return -np.inf
    return float(vals.real.max())


def is_hurwitz(a) -> bool:
    return spectral_abscissa(a) < 0.0


def _symmetrize(m: Matrix) -> Matrix:
    return 0.5 * (m + m.T)


def _sign_iterates(at: Matrix) -> list[tuple[float, Matrix]]:
    """Scaled Newton iterates for the matrix sign function of ``at``.

    ``E <- (c E + E^-1 / c) / 2`` from ``E = at``, with the determinant
    scaling ``c = |det E|^(-1/n)``, converges quadratically to
    ``sign(at) = -I`` for a Hurwitz matrix (Roberts 1980; Byers 1987).
    Returns every ``(c, E)`` the step was taken from; the last step is
    the one after ``|E + I|_1`` fell below ``_SIGN_TOL``, which brings
    the iterate to roundoff.
    """
    n = at.shape[0]
    eye = np.eye(n)
    e = at
    steps = []
    for _ in range(_SIGN_MAX_STEPS):
        c = float(np.exp(-np.linalg.slogdet(e)[1] / n))
        steps.append((c, e))
        e = 0.5 * (c * e + np.linalg.inv(e) / c)
        if np.linalg.norm(e + eye, 1) <= _SIGN_TOL:
            steps.append((1.0, e))
            break
    return steps


def _sign_solve(steps, r: Matrix) -> Matrix:
    """Approximate ``X`` with ``A^T X + X A = -R`` from the sign iterates of ``A^T``.

    Runs the coupled iteration ``G <- (c G + E^-1 G E^-T / c) / 2`` from
    ``G = R``; ``G`` tends to ``2 X`` as ``E`` tends to ``-I``. The map
    is linear in ``R``, so the same iterates serve any right-hand side.
    The products with ``E^-1`` are LU solves: on stiff inputs they keep
    the residual orders of magnitude below an explicit inverse.
    """
    g = r
    for c, e in steps:
        g = 0.5 * (c * g + np.linalg.solve(e, np.linalg.solve(e, g).T).T / c)
    return 0.5 * g


def _refine(a: Matrix, q: Matrix, m: Matrix, steps) -> tuple[Matrix, float]:
    """Iterative refinement of ``A^T M + M A = -Q`` with the sign iterates.

    Unless the residual ``R`` of ``m`` is already at roundoff, ``8 n eps
    (2 |A|_F |M|_F + |Q|_F)``, each cycle solves the correction equation
    ``A^T D + D A = -R`` by :func:`_sign_solve` on the same iterates
    (Moler 1967) and keeps ``m + D`` only if that lowers the residual,
    for at most ``_REFINE_CYCLES`` cycles. Returns the refined ``m`` and
    the Frobenius norm of its residual.
    """
    def residual_of(x):
        return a.T @ x + x @ a + q

    residual = residual_of(m)
    res_norm = np.linalg.norm(residual, "fro")
    roundoff = 8 * a.shape[0] * _EPS * (
        2.0 * np.linalg.norm(a, "fro") * np.linalg.norm(m, "fro") + np.linalg.norm(q, "fro")
    )
    if res_norm <= roundoff:
        return m, res_norm
    for _ in range(_REFINE_CYCLES):
        trial = _symmetrize(m + _sign_solve(steps, residual))
        trial_residual = residual_of(trial)
        trial_norm = np.linalg.norm(trial_residual, "fro")
        if not trial_norm < res_norm:
            break
        m, residual, res_norm = trial, trial_residual, trial_norm
    return m, res_norm


def solve_lyapunov(a, q) -> Matrix:
    """Solve ``A^T M + M A = -Q`` for symmetric ``M``.

    O(n^3) time and O(n^2) memory, so hundreds of states are practical.
    The scaled Newton iteration for the matrix sign function of ``A^T``
    gives a first solution (:func:`_sign_solve`). On stiff inputs far
    from normal its residual can sit far above roundoff; :func:`_refine`
    then lowers it by iterative refinement on the same sign iterates.

    Parameters
    ----------
    a : array, n x n, must be Hurwitz.
    q : array, n x n, symmetric.

    Raises
    ------
    NumericsError
        If ``a`` is not Hurwitz, the sign iteration meets a numerically
        singular iterate, or the residual check fails.
    """
    a = as_matrix(a, "a")
    q = as_matrix(q, "q")
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValueError(f"need square matrices of equal size, got {a.shape} and {q.shape}")
    if spectral_norm(q - q.T) > rank_tol(q):
        raise ValueError("q must be symmetric")
    abscissa = spectral_abscissa(a)
    if not abscissa < 0.0:
        worst = eigenvalues(a)[-1]
        raise NumericsError(
            f"Lyapunov equation requires a Hurwitz matrix; eigenvalue {worst} "
            f"has real part {worst.real:.6g} >= 0"
        )
    q = _symmetrize(q)
    if n == 0:
        return np.zeros((0, 0))

    try:
        steps = _sign_iterates(a.T)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "Lyapunov sign iteration reached a numerically singular iterate; "
            "the equation is too ill-conditioned for the dense solver"
        ) from exc
    m, residual = _refine(a, q, _symmetrize(_sign_solve(steps, q)), steps)
    bound = RESIDUAL_TOL * (spectral_norm(a) * spectral_norm(m) + spectral_norm(q))
    if residual > max(bound, 1e-14):
        raise NumericsError(
            f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}; "
            "the equation is too ill-conditioned for the dense solver"
        )
    return m


def pbh_stabilizable(a, b, norm: float | None = None) -> tuple[bool, complex | None]:
    """PBH test: is the pair ``(a, b)`` stabilizable?

    Checks ``rank [a - s I, b] == n`` for every eigenvalue ``s`` of ``a``
    that lies in the closed right half plane (within tolerance of the
    imaginary axis counts, so marginally stable clusters are tested too).
    Every pencil is ranked at the one cutoff ``rank_tol([a, b])``.
    ``norm`` is ``|a|_2`` when the caller has already computed it.

    Returns
    -------
    (ok, witness)
        ``witness`` is an offending eigenvalue when ``ok`` is False.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape}")
    if n == 0:
        return True, None
    margin = REL_TOL * max(1.0, spectral_norm(a) if norm is None else norm)
    tested = [s for s in eigenvalues(a) if not s.real < -margin]
    if not tested:
        return True, None
    tol = rank_tol(np.hstack([a, b]))
    # a repeated eigenvalue gives the same pencil: rank it once
    for s in dict.fromkeys(tested):
        pencil = np.hstack([a - s * np.eye(n), b]).astype(complex)
        if np.linalg.matrix_rank(pencil, tol=tol) < n:
            return False, complex(s)
    return True, None


def _left_invariant_block(acl: Matrix, lam: complex, u: np.ndarray):
    """Orthonormal left-invariant basis for one eigenvalue or pair.

    ``u`` is a (possibly complex) eigenvector of ``acl.T``. Returns
    ``(U, L)`` with ``U^T acl = L U^T``; ``L`` is 1 x 1 for a real
    eigenvalue and 2 x 2 for a conjugate pair.
    """
    if abs(lam.imag) <= 1e-10 * max(1.0, abs(lam)):
        # strip the arbitrary complex phase, the direction is real
        phase = u[np.argmax(np.abs(u))]
        real = (u * np.conj(phase / abs(phase))).real
        basis = real[:, np.newaxis] / np.linalg.norm(real)
    else:
        basis, _ = np.linalg.qr(np.column_stack([u.real, u.imag]))
    return basis, basis.T @ acl @ basis


def _place_block(block: Matrix, bu: Matrix) -> Matrix:
    """Feedback ``F`` moving the spectrum of ``block + bu F`` left of -1.

    One real eigenvalue gets a min-norm shift; a conjugate pair keeps
    its frequency and gets its real part reflected past -1, through an
    exact solve when ``bu`` has full row rank and a two-state polynomial
    placement when only one input direction is available.
    """
    if block.shape[0] == 1:
        lam = float(block[0, 0])
        shift = -1.0 - max(lam, 0.0) - lam
        row = bu[0]
        return (shift / float(row @ row)) * row[:, np.newaxis]
    sigma = 0.5 * float(np.trace(block))
    omega_sq = max(float(np.linalg.det(block)) - sigma * sigma, 0.0)
    target = -1.0 - max(sigma, 0.0)
    if np.linalg.matrix_rank(bu) == 2:
        omega = np.sqrt(omega_sq)
        desired = np.array([[target, omega], [-omega, target]])
        return np.linalg.pinv(bu) @ (desired - block)
    # single usable input direction: classical two-state placement on
    # the characteristic polynomial s^2 - 2 target s + (target^2 + omega^2)
    _, _, vt = np.linalg.svd(bu)
    g = vt[0]
    bv = bu @ g
    ctrb = np.column_stack([bv, block @ bv])
    poly = (
        block @ block
        - 2.0 * target * block
        + (target * target + omega_sq) * np.eye(2)
    )
    f_row = -np.linalg.solve(ctrb.T, np.array([0.0, 1.0])) @ poly
    return g[:, np.newaxis] * f_row[np.newaxis, :]


def stabilize(a, b, pbh: tuple[bool, complex | None] | None = None) -> Matrix:
    """Return ``K`` such that ``a + b K`` is Hurwitz.

    Already-Hurwitz matrices get ``K = 0``. Otherwise unstable
    eigenvalues are moved one real eigenvalue or conjugate pair at a
    time: if ``U`` spans a left invariant subspace of the current closed
    loop (``U^T A = L U^T``), adding ``F U^T`` to the feedback changes
    only the spectrum of ``L + (U^T b) F`` and leaves every other
    eigenvalue where it was. Stable modes are never touched, each step
    is a one- or two-dimensional placement, and the gains stay moderate
    where a single gramian-based design would overdrive the weakly
    coupled directions.

    ``pbh`` is the verdict ``pbh_stabilizable(a, b)`` when the caller
    has already computed it for these same matrices; the test is then
    not run again.

    Raises
    ------
    NumericsError
        If the pair fails the PBH test (message names the witness
        eigenvalue), or the assignment loop fails a final Hurwitz
        verification because an unstable mode is too close to
        uncontrollable.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape}")
    m = b.shape[1]
    if is_hurwitz(a):
        return np.zeros((m, n))
    ok, witness = pbh_stabilizable(a, b) if pbh is None else pbh
    if not ok:
        raise NumericsError(
            f"pair is not stabilizable: eigenvalue {witness} cannot be moved by the input"
        )
    k = np.zeros((m, n))
    acl = a
    for _ in range(2 * n + 4):
        vals, vecs = np.linalg.eig(acl.T)
        idx = int(np.argmax(vals.real))
        basis, block = _left_invariant_block(acl, vals[idx], vecs[:, idx])
        k = k + _place_block(block, basis.T @ b) @ basis.T
        acl = a + b @ k
        if is_hurwitz(acl):
            return k
    raise NumericsError(
        "eigenvalue assignment did not converge; an unstable mode is "
        "too close to uncontrollable"
    )


def check_spd(m, name: str = "matrix") -> Matrix:
    """Validate symmetry and positive semidefiniteness, return symmetrized copy."""
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    tol = rank_tol(m)
    if spectral_norm(m - m.T) > tol:
        raise ValueError(f"{name} must be symmetric")
    m = _symmetrize(m)
    if m.shape[0]:
        w = np.linalg.eigvalsh(m)
        if w[0] < -tol:
            raise NumericsError(f"{name} is not positive semidefinite (eigenvalue {w[0]:.3e})")
    return m


def sqrtm_spd(m, checked: bool = False) -> Matrix:
    """Symmetric square root of a positive semidefinite matrix.

    Computed from the eigendecomposition; eigenvalues below the noise
    floor are clipped to zero. ``checked`` says ``m`` is already the
    output of :func:`check_spd`, so the check is not run again.
    """
    if not checked:
        m = check_spd(m)
    if m.shape[0] == 0:
        return m
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return u @ np.diag(np.sqrt(w)) @ u.T


def least_squares(a, b) -> tuple[Matrix, float]:
    """Minimum-norm least-squares solution of ``a @ x = b``.

    Rank-revealing (SVD-backed); among all residual minimizers the
    Frobenius-minimal ``x`` is returned.

    Returns
    -------
    (x, residual)
        ``residual`` is the Frobenius norm of ``a @ x - b``; callers judge
        it with :func:`residual_ok`.
    """
    a = as_matrix(a, "a")
    b_arr = np.asarray(b, dtype=float)
    squeeze = b_arr.ndim == 1
    b2 = as_matrix(b_arr, "b")
    if b2.shape[0] != a.shape[0]:
        raise ValueError(f"a has {a.shape[0]} rows but b has {b2.shape[0]}")
    cutoff = REL_TOL * max(a.shape) if a.size else None
    x, *_ = np.linalg.lstsq(a, b2, rcond=cutoff)
    residual = float(np.linalg.norm(a @ x - b2, "fro"))
    if squeeze:
        return x[:, 0], residual
    return x, residual
