"""Dense linear-algebra helpers used throughout the package.

Everything operates on plain ``numpy`` arrays in double precision. The
routines here are small and deliberately explicit: spectra, an O(n^3)
Lyapunov solver (matrix sign function iteration, rerun for iterative
refinement, hundreds of states), a stabilizing feedback by eigenvalue
assignment, PBH stabilizability tests, symmetric square roots, and a
minimum-norm least-squares solver.

The unit of work is a stack: same-shape matrices along a leading axis,
which each ``numpy.linalg`` routine processes in one call, with the
same LAPACK result for every member as alone. Every numerical routine
here, as in :mod:`~simcompose.geometry` and
:mod:`~simcompose.abstraction`, takes stacks only and returns one value
per member; one matrix is passed as a stack of one (``a[np.newaxis]``),
a view of the same memory, and its value read back with ``[0]``. Steps
that depend on a member's data (the sign iteration's stopping step, the
refinement's accept/reject, the pencils the PBH test ranks, the
eigenvalue placement) run on the members still concerned, so every
member's arithmetic is the one it gets alone. A routine returns a
stack's values only if every member passes; otherwise it raises the
error of its first failing member, with the message that member gets
alone (``cli`` searches a failed stack: ``certify`` and ``check`` for
every failing member, ``build_abstractions`` for the first). Reductions
keep the kernels one matrix uses: a Frobenius norm, a BLAS dot for one
matrix, is a row-by-column product per member.

This module also owns the tolerance table below: every threshold a
verdict of the pipeline is decided against, from the rank cutoffs and
the certificate slacks to the small-gain weights, the sampled bounds
and the reproduction report's rows. Each is named once, with the reason
for its value, and the module that decides imports it; none can be set
from outside the program.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

_EPS = float(np.finfo(float).eps)

# The tolerance table. Each entry's "#:" line gives the reason for its
# value; README's Tolerances section lists the same entries.

#: Rank and stability-margin coefficient: singular values at or below
#: ``REL_TOL * max(shape) * max(1, |A|_2)`` count as zero, and the PBH
#: test and :func:`stabilize` share the margin
#: ``-REL_TOL * max(1, |A|_2)`` (:func:`_stability_margin`). About 5e6
#: units of roundoff, so rounding never decides a rank, while the data
#: (given to a few digits) has no genuine singular value that small.
REL_TOL = 1e-9

#: Relative residual accepted for construction and invariance identities
#: (:func:`residual_ok`): a backward-stable solve of a consistent system
#: stays below it up to condition numbers near 1e8; an inconsistent one
#: leaves a residual of the data's own size.
RESIDUAL_TOL = 1e-8

#: Absolute floor of the Lyapunov residual gate: about 45 units of
#: roundoff at unit scale, under which the relative gate of a near-zero
#: equation would judge the rounding of its own residual.
LYAPUNOV_RESIDUAL_FLOOR = 1e-14

#: Distance ``|E + I|_1`` of a sign iterate from ``-I`` after which one
#: more Newton step reaches roundoff: the step squares the error, and
#: ``sqrt(eps)`` squared is ``eps``.
SIGN_TOL = np.sqrt(_EPS)

#: Relative imaginary part at or below which eigenvalue placement treats
#: an eigenvalue as real: a real eigenvalue comes out of ``eig`` with an
#: imaginary part at roundoff, and the real and imaginary parts of such a
#: near-real "pair" would span no plane to place it in.
REAL_EIG_TOL = 1e-10

#: Reciprocal condition number at or below which the state decomposition
#: ``[P, W]`` is singular: its inverse, which gives ``phat``, would keep
#: fewer than 4 of the 16 digits.
SPLIT_RCOND = 1e-12

#: Floor on the output scaling of a computed certificate, so that a
#: subsystem with zero outputs still gets a positive definite ``M``; no
#: nonzero output block of unit-scale data scales that low.
SCALE_FLOOR = 1e-12

#: Eigenvalue slack accepted on the two certificate inequalities for a
#: certificate the package computed: its 1 % headroom makes both hold in
#: exact arithmetic, and this absorbs the rounding of their eigenvalues
#: for matrices of norm up to about 1e8.
COMPUTED_CERT_TOL = 1e-7

#: The same slack for a certificate given in a project: published tables
#: are rounded to two or three digits, which leaves the inequalities
#: violated by a few 1e-3 (the bundled integrators by 8.6e-3).
INJECTED_CERT_TOL = 5e-2

#: Relative width of the Collatz-Wielandt bracket at which the
#: spectral-radius iteration stops: a few units of roundoff, the
#: rounding of its row ratios, below which the bracket cannot shrink.
BRACKET_TOL = 8 * _EPS

#: Fraction of the largest feasible small-gain epsilon used by default:
#: the largest makes one row of ``(1 + eps) S eta <= eta`` an equality,
#: and 1 % less keeps the inequality strict after rounding.
EPSILON_SAFETY = 0.99

#: Relative tolerance of the time grid: a trajectory's steps must agree,
#: and a horizon must be a whole number of steps, to this. A trajectory
#: may also carry the rounding of its own grid points, 2 ulps of its
#: largest time: the steps of ``k dt`` drift by about ``k eps`` relative
#: to ``dt``, past this tolerance from several million steps.
GRID_TOL = 1e-9

#: Absolute slack of a deviation bound sampled at the grid points: the
#: integration error of RK4 at the default step, about ``dt^4``, and the
#: rounding of the margins stay far below it.
BOUND_TOL = 1e-6

#: Reproduction report: gains and ratios published to two decimals, off
#: by their rounding (at most 0.005) plus that of the three-digit
#: certificates they came from.
PUBLISHED_GAIN_TOL = 0.01

#: Reproduction report: the published weights, given to one decimal,
#: match the recomputed ones to 0.0102; a wrong published digit would
#: miss by 0.1.
PUBLISHED_ETA_TOL = 0.02

#: Reproduction report: abstraction entries the construction determines
#: exactly, solved to ``RESIDUAL_TOL`` at unit scale.
EXACT_ENTRY_TOL = 1e-8

# Lyapunov solver: Newton steps allowed for the sign iteration (determinant
# scaling converges in well under 20 on every input seen) and the cycles
# of iterative refinement.
_SIGN_MAX_STEPS = 60
_REFINE_CYCLES = 4


class NumericsError(RuntimeError):
    """A numerical routine could not certify its result.

    Raised for structurally sound inputs that fail a numerical
    requirement: a matrix that must be Hurwitz is not, a gramian that
    must be invertible is singular, a residual exceeds its bound.
    """


def as_matrix(a, name: str) -> Matrix:
    """Coerce to a 2-D float array; 1-D input becomes a column."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def stack(arrays) -> np.ndarray:
    """``np.stack`` of same-shape arrays, and a view of one array as a
    stack of one. Either way every member keeps its memory layout, which
    decides the BLAS kernel a product of it takes, and so its last bits."""
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)


def by_shape(fn, *members):
    """Apply ``fn`` to the members of equal shapes as stacks.

    ``members`` are stacks (arrays along axis 0) or sequences with one
    array per member; every set of members whose arrays have equal shapes
    is passed to ``fn`` as stacks (:func:`stack`) in one call. Returns ``fn``'s result for
    each member, in order (a tuple per member when ``fn`` returns a tuple
    of stacks). This is how a data-dependent shape, such as each member's
    own rank, keeps the one-call-per-stack rule: the members split by
    that shape, not one by one.
    """
    count = len(members[0])
    if not count:
        return []
    lists = [seq for seq in members if not isinstance(seq, np.ndarray)]
    if count == 1 or all(x.shape == seq[0].shape for seq in lists for x in seq):
        result = fn(*[seq if isinstance(seq, np.ndarray) else stack(seq) for seq in members])
        return list(zip(*result)) if isinstance(result, tuple) else list(result)
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*[[x.shape for x in seq] for seq in lists])):
        groups.setdefault(key, []).append(i)
    out: list = [None] * count
    for positions in groups.values():
        result = fn(*[stack([seq[i] for i in positions]) for seq in members])
        for j, i in enumerate(positions):
            out[i] = tuple(r[j] for r in result) if isinstance(result, tuple) else result[j]
    return out


def frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a C-ordered stack.

    ``np.linalg.norm(x, "fro")`` of one matrix is a BLAS dot of its
    entries; a row-by-column product per member is the same dot, where
    a stacked ``einsum`` would sum in another order. A finite member
    whose sum of squares passes the float range is summed again scaled
    to unit maximum entry, so its norm is finite.
    """
    flat = x.reshape(x.shape[0], 1, x.shape[-2] * x.shape[-1])
    with np.errstate(over="ignore"):
        squares = (flat @ flat.swapaxes(-1, -2))[:, 0, 0]
    norms = np.sqrt(squares)
    over = ~np.isfinite(squares)
    if over.any():
        scale = np.abs(flat).max(axis=-1)[:, 0]
        over &= np.isfinite(scale)
        scaled = flat[over] / scale[over, None, None]
        norms[over] = scale[over] * np.sqrt((scaled @ scaled.swapaxes(-1, -2))[:, 0, 0])
    return norms


def spectral_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each member; 0 for an empty matrix.

    The same LAPACK call ``np.linalg.norm(a, 2)`` makes, without its
    axis-handling wrapper, so the value is bit-identical.
    """
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def residual_ok(residual, norm):
    """Whether each identity residual is at noise level relative to the
    spectral norm ``norm`` of its reference matrix.

    Accepts ``residual <= RESIDUAL_TOL * max(1, norm)``; the floor at 1
    keeps an absolute tolerance for small or zero reference matrices.
    """
    return residual <= RESIDUAL_TOL * np.maximum(1.0, norm)


def rank_tol(a: np.ndarray, norm=None) -> np.ndarray:
    """Singular-value cutoff for rank decisions about each member.

    Scales with the larger dimension and the spectral norm; the norm
    factor is floored at 1 so zero and near-zero matrices still get a
    positive tolerance. ``norm`` is ``|a|_2`` when the caller has
    already computed it.
    """
    if a.shape[-1] * a.shape[-2] == 0:
        return np.full(a.shape[:-2], REL_TOL)
    if norm is None:
        norm = spectral_norm(a)
    return REL_TOL * max(a.shape[-2:]) * np.maximum(1.0, norm)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each square member, one row per member, sorted by
    (real, imag) for determinism."""
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"eigenvalues need a square matrix, got {a.shape[-2:]}")
    if n == 0:
        return np.zeros(a.shape[:-1], dtype=complex)
    vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return vals[np.arange(len(vals))[:, np.newaxis], order]


def spectral_abscissa(a: np.ndarray) -> np.ndarray:
    """Largest real part over each member's spectrum (``-inf`` for a 0x0
    matrix)."""
    vals = eigenvalues(a)
    if vals.shape[-1] == 0:
        return np.full(vals.shape[:-1], -np.inf)
    return vals.real.max(axis=-1)


def _symmetrize(m: Matrix) -> Matrix:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _require_hurwitz(a: np.ndarray, members: np.ndarray) -> None:
    """Raise the ``NumericsError`` of the first of ``members`` (positions
    in the stack ``a``) whose spectral abscissa is not below 0, naming
    its rightmost eigenvalue; return if there is none."""
    if not members.size:
        return
    # sorted by (real, imag): the last eigenvalue has the largest real part
    rightmost = eigenvalues(a[members])[:, -1]
    unstable = np.flatnonzero(~(rightmost.real < 0.0))
    if unstable.size:
        worst = rightmost[unstable[0]]
        raise NumericsError(
            f"Lyapunov equation requires a Hurwitz matrix; eigenvalue {worst} "
            f"has real part {worst.real:.6g} >= 0"
        )


def _sign_solve(at: np.ndarray, r: np.ndarray):
    """Approximate ``X`` with ``A^T X + X A = -R`` for each member of ``at = A^T``.

    The scaled Newton iteration ``E <- (c E + E^-1 / c) / 2`` from ``E =
    at``, with the determinant scaling ``c = |det E|^(-1/n)``, converges
    quadratically to ``sign(at)``, which is ``-I`` exactly when ``at`` is
    Hurwitz (Roberts 1980; Byers 1987). Each of its steps also advances
    ``G <- (c G + E^-1 G E^-T / c) / 2`` from ``G = R``, and ``G`` tends
    to ``2 X`` as ``E`` tends to ``-I``. The products with ``E^-1`` are
    LU solves: on stiff inputs they keep the residual orders of magnitude
    below an explicit inverse. A member takes one last step, at ``c =
    1``, once ``|E + I|_1`` falls below ``SIGN_TOL``, which brings the
    iterate to roundoff; the members still iterating go on, so each
    member takes the steps it takes alone.

    Returns ``(X, unconverged)``: the stack of solutions and the
    positions of the members that never came within ``SIGN_TOL`` of
    ``-I`` in ``_SIGN_MAX_STEPS`` steps (their ``X`` is that of their
    last iterate). When an iterate is numerically singular ``X`` is None
    and ``unconverged`` holds every member still iterating.
    """
    def step(e, g, c):
        solved = np.linalg.solve(e, np.linalg.solve(e, g).swapaxes(-1, -2)).swapaxes(-1, -2)
        return 0.5 * (c * g + solved / c)

    n = at.shape[-1]
    eye = np.eye(n)
    x = np.empty(r.shape)
    live = np.arange(at.shape[0])
    e, g = at, r
    for _ in range(_SIGN_MAX_STEPS):
        if not live.size:
            break
        c = np.exp(-np.linalg.slogdet(e)[1] / n)[:, None, None]
        try:
            # G first: E^-1 is not yet held while G's solves run
            g = step(e, g, c)
            e = 0.5 * (c * e + np.linalg.inv(e) / c)
        except np.linalg.LinAlgError:
            return None, live
        done = np.linalg.norm(e + eye, 1, axis=(-2, -1)) <= SIGN_TOL
        if done.any():
            x[live[done]] = 0.5 * step(e[done], g[done], 1.0)
            live, e, g = live[~done], e[~done], g[~done]
    x[live] = 0.5 * g
    return x, live


def _refine(a, q, m) -> tuple[np.ndarray, np.ndarray]:
    """Iterative refinement of ``A^T M + M A = -Q`` by the sign iteration.

    Unless the residual ``R`` of ``m`` is already at roundoff, ``8 n eps
    (2 |A|_F |M|_F + |Q|_F)``, each cycle solves the correction equation
    ``A^T D + D A = -R`` by :func:`_sign_solve` (Moler 1967) and keeps
    ``m + D`` only if that lowers the residual, for at most
    ``_REFINE_CYCLES`` cycles; a member stops at its first rejected
    correction. A cycle reruns the iteration on its active members:
    their iterates do not depend on ``R``, so each takes the steps of the
    first solve again. Returns the refined ``m`` and the Frobenius norm
    of each residual.
    """
    def residual_of(a, x, q):
        return a.swapaxes(-1, -2) @ x + x @ a + q

    residual = residual_of(a, m, q)
    res_norm = frobenius(residual)
    roundoff = 8 * a.shape[-1] * _EPS * (
        2.0 * frobenius(a) * frobenius(m) + frobenius(q)
    )
    active = ~(res_norm <= roundoff)
    for _ in range(_REFINE_CYCLES):
        if not active.any():
            break
        pos = np.flatnonzero(active)
        correction, _ = _sign_solve(a[pos].swapaxes(-1, -2), residual[pos])
        trial = _symmetrize(m[pos] + correction)
        trial_residual = residual_of(a[pos], trial, q[pos])
        trial_norm = frobenius(trial_residual)
        better = trial_norm < res_norm[pos]
        kept = pos[better]
        m[kept], residual[kept], res_norm[kept] = (
            trial[better], trial_residual[better], trial_norm[better]
        )
        active[pos[~better]] = False
    return m, res_norm


def solve_lyapunov(a, q):
    """Solve ``A^T M + M A = -Q`` for symmetric ``M``.

    O(n^3) time and O(n^2) memory, so hundreds of states are practical.
    The scaled Newton iteration for the matrix sign function of ``A^T``
    gives a first solution (:func:`_sign_solve`), in one pass that keeps
    no iterates. On stiff inputs far from normal its residual can sit far
    above roundoff; :func:`_refine` then lowers it by iterative
    refinement, each cycle a new pass of the iteration.

    The iteration is also the Hurwitz test: it reaches ``-I`` exactly
    when ``A`` is Hurwitz, so no spectrum is taken up front. Only a
    member that fails takes one, at the point it fails: a numerically
    singular iterate (every member still iterating), no convergence in
    ``_SIGN_MAX_STEPS`` steps, or the residual gate. A member the
    iteration brings to ``-I`` and whose ``M`` meets the gate is
    accepted, even where ``eigvals`` puts an eigenvalue of its ``A`` at
    or right of the axis by rounding.

    Parameters
    ----------
    a : stack of n x n matrices, each Hurwitz.
    q : stack of n x n symmetric matrices.

    Returns
    -------
    The stack of solutions ``M``.

    Raises
    ------
    ValueError
        If a ``q`` is not symmetric.
    NumericsError
        If a failing member's spectral abscissa is not below 0:
        "Lyapunov equation requires a Hurwitz matrix; eigenvalue ...
        has real part ... >= 0", naming its rightmost eigenvalue.
        Otherwise, for a failing Hurwitz member, the iteration's own
        error: a numerically singular iterate, or a residual over its
        bound. The stack raises the Hurwitz error of its first failing
        member that is not Hurwitz, else the error of its first failing
        member, as the spectrum taken first did.
    """
    n = a.shape[-1]
    if a.shape[1:] != (n, n) or q.shape != a.shape:
        raise ValueError(
            f"need square matrices of equal size, got {a.shape[-2:]} and {q.shape[-2:]}"
        )
    # one |q|_2 serves the symmetry test and the residual bound; an
    # exactly symmetric q (decay_certificate's identities) needs no test
    q_norm = spectral_norm(q)
    if not np.array_equal(q, q.swapaxes(-1, -2)) and (
        spectral_norm(q - q.swapaxes(-1, -2)) > rank_tol(q, q_norm)
    ).any():
        raise ValueError("q must be symmetric")
    if n == 0:
        return np.zeros(a.shape)
    # C-ordered, whatever the caller's layout: the layout decides the
    # BLAS kernels a product takes, and so its last bits
    a, q = np.ascontiguousarray(a), _symmetrize(np.ascontiguousarray(q))
    x, unconverged = _sign_solve(a.swapaxes(-1, -2), q)
    # the iteration is the Hurwitz test: a member that did not reach -I
    # is judged by its spectrum, and only a Hurwitz one goes on
    _require_hurwitz(a, unconverged)
    if x is None:
        raise NumericsError(
            "Lyapunov sign iteration reached a numerically singular iterate; "
            "the equation is too ill-conditioned for the dense solver"
        )
    m, residual = _refine(a, q, _symmetrize(x))
    bound = RESIDUAL_TOL * (spectral_norm(a) * spectral_norm(m) + q_norm)
    failed = np.flatnonzero(residual > np.maximum(bound, LYAPUNOV_RESIDUAL_FLOOR))
    if failed.size:
        _require_hurwitz(a, failed)
        j = failed[0]
        raise NumericsError(
            f"Lyapunov residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}; "
            "the equation is too ill-conditioned for the dense solver"
        )
    return m


def _stability_margin(norm):
    """Real part below which an eigenvalue of a matrix with spectral norm
    ``norm`` is stable: ``-REL_TOL * max(1, norm)``. The PBH test ranks
    the pencils of the eigenvalues not below it, and :func:`stabilize`
    places every open loop whose abscissa is not below it, so one margin
    decides both."""
    return -REL_TOL * np.maximum(1.0, norm)


def pbh_stabilizable(a, b, norm):
    """PBH test: is each pair ``(a, b)`` of the stacks stabilizable?

    Checks ``rank [a - s I, b] == n`` for every eigenvalue ``s`` of ``a``
    not below :func:`_stability_margin` of ``norm``, the spectral norms
    ``|a|_2`` (so marginally stable clusters are tested too). Every
    pencil is ranked at its member's one cutoff ``rank_tol([a, b])``,
    and the pencils of all members in one call.

    Returns
    -------
    (ok, witness, abscissa)
        An array of verdicts, a list of witnesses and the array of the
        open-loop spectral abscissae: a member's witness is an offending
        eigenvalue when its verdict is False, the first in sorted order,
        and None otherwise. The abscissa is :func:`spectral_abscissa` of
        the member, from the spectrum the test took (``-inf`` for
        ``n = 0``): :func:`stabilize` starts from it, with ``norm``.
    """
    count, n = a.shape[0], a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"a must be square, got {a.shape[-2:]}")
    if b.shape[-2] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape[-2:]}")
    ok = [True] * count
    witness: list = [None] * count
    abscissa = np.full(count, -np.inf)
    if n and count:
        vals = eigenvalues(a)
        abscissa = vals.real.max(axis=-1)
        # "not below the margin", as the eigenvalues are finite
        tested = vals.real >= np.reshape(_stability_margin(norm), (-1, 1))
        # a repeated eigenvalue gives the same pencil: rank it once (the
        # sort puts equal eigenvalues next to each other)
        tested[:, 1:] &= vals[:, 1:] != vals[:, :-1]
        member, which = np.nonzero(tested)
        if member.size:
            s = vals[member, which]
            tol = rank_tol(np.concatenate([a, b], axis=-1))
            pencils = np.concatenate(
                [a[member] - s[:, None, None] * np.eye(n), b[member]], axis=-1
            ).astype(complex)
            short = np.linalg.matrix_rank(pencils, tol=tol[member]) < n
            # the first failing eigenvalue of each member is its witness
            for i, value in zip(member[short][::-1].tolist(), s[short][::-1].tolist()):
                ok[i] = False
                witness[i] = complex(value)
    return np.array(ok), witness, abscissa


def _real_directions(u: np.ndarray, member_real: np.ndarray) -> np.ndarray:
    """Unit real left eigenvectors for real eigenvalues, as ``(L, n, 1)``.

    Strips the arbitrary complex phase of each ``u``: the direction is
    real. A member whose whole spectrum is real has real eigenvectors
    alone, so its phase is stripped in real arithmetic, as it would be
    on its own; ``member_real`` flags those members.
    """
    rows = np.arange(len(u))
    phase = u[rows, np.argmax(np.abs(u), axis=-1)]
    real = (u * np.conj(phase / np.abs(phase))[:, None]).real
    if np.iscomplexobj(u):
        sign = phase.real / np.abs(phase.real)
        real = np.where(member_real[:, None], u.real * sign[:, None], real)
    return real[:, :, None] / np.sqrt(
        (real[:, None, :] @ real[:, :, None])[:, 0, 0]
    )[:, None, None]


def _place_real(block: np.ndarray, bu: np.ndarray) -> np.ndarray:
    """Feedback moving one real eigenvalue ``block`` (``1 x 1``) to
    ``-1 - max(lam, 0)`` by a min-norm shift."""
    lam = block[:, 0, 0]
    shift = -1.0 - np.maximum(lam, 0.0) - lam
    row = bu[:, 0, :]
    norm_sq = (row[:, None, :] @ row[:, :, None])[:, 0, 0]
    return (shift / norm_sq)[:, None, None] * row[:, :, None]


def _place_pair(block: np.ndarray, bu: np.ndarray) -> np.ndarray:
    """Feedback giving a conjugate pair ``block`` (``2 x 2``) its
    frequency with the real part reflected past -1.

    An exact solve when ``bu`` has full row rank; a two-state polynomial
    placement when only one input direction is available.
    """
    count = len(block)
    sigma = 0.5 * (block[:, 0, 0] + block[:, 1, 1])
    omega_sq = np.maximum(np.linalg.det(block) - sigma * sigma, 0.0)
    target = -1.0 - np.maximum(sigma, 0.0)
    gain = np.zeros((count, bu.shape[-1], 2))
    full = np.linalg.matrix_rank(bu) == 2
    if full.any():
        omega = np.sqrt(omega_sq[full])
        desired = np.empty((int(full.sum()), 2, 2))
        desired[:, 0, 0] = desired[:, 1, 1] = target[full]
        desired[:, 0, 1], desired[:, 1, 0] = omega, -omega
        gain[full] = np.linalg.pinv(bu[full]) @ (desired - block[full])
    one = ~full
    if one.any():
        # single usable input direction: classical two-state placement on
        # the characteristic polynomial s^2 - 2 target s + (target^2 + omega^2)
        blk, t = block[one], target[one]
        g = np.linalg.svd(bu[one])[2][:, 0, :]
        bv = bu[one] @ g[:, :, None]
        ctrb = np.concatenate([bv, blk @ bv], axis=-1)
        poly = (
            blk @ blk
            - (2.0 * t)[:, None, None] * blk
            + (t * t + omega_sq[one])[:, None, None] * np.eye(2)
        )
        rhs = np.broadcast_to(np.array([[0.0], [1.0]]), (len(blk), 2, 1))
        f_row = -np.linalg.solve(ctrb.swapaxes(-1, -2), rhs).swapaxes(-1, -2) @ poly
        gain[one] = g[:, :, None] * f_row
    return gain


def _assignment_step(acl: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Feedback update that moves the rightmost eigenvalue (or conjugate
    pair) of each closed loop ``acl`` left of -1 and no other.

    If ``U`` spans a left invariant subspace of ``acl`` (``U^T acl = L
    U^T``), adding ``F U^T`` to the feedback changes only the spectrum of
    ``L + (U^T b) F``. ``U`` is one real direction or an orthonormal
    basis of a pair's real and imaginary parts.
    """
    count, n = acl.shape[0], acl.shape[-1]
    vals, vecs = np.linalg.eig(acl.swapaxes(-1, -2))
    rows = np.arange(count)
    idx = np.argmax(vals.real, axis=-1)
    lam, u = vals[rows, idx], vecs[rows, :, idx]
    update = np.zeros((count, b.shape[-1], n))
    real = np.abs(lam.imag) <= REAL_EIG_TOL * np.maximum(1.0, np.abs(lam))
    if real.any():
        basis = _real_directions(u[real], (vals[real].imag == 0).all(axis=-1))
        update[real] = _placed(acl[real], b[real], basis, _place_real)
    pair = ~real
    if pair.any():
        basis = np.linalg.qr(np.stack([u[pair].real, u[pair].imag], axis=-1))[0]
        update[pair] = _placed(acl[pair], b[pair], basis, _place_pair)
    return update


def _placed(acl, b, basis, place) -> np.ndarray:
    """The feedback ``F U^T`` that ``place`` chooses on the invariant
    block ``U^T acl U`` with input ``U^T b``, for ``U = basis``."""
    basis_t = basis.swapaxes(-1, -2)
    return place(basis_t @ acl @ basis, basis_t @ b) @ basis_t


def stabilize(a, b, abscissa, norm):
    """Return the stacks ``(K, abscissa)``: each ``a + b K`` is Hurwitz
    with spectral abscissa ``abscissa`` below the stability margin.

    Every pair must have passed the PBH test (:func:`pbh_stabilizable`):
    ``abscissa`` holds the open-loop spectral abscissae it returned and
    ``norm`` the ``|a|_2`` it was given, one per member, so the
    stability margin is the test's own. An open loop whose abscissa is
    below :func:`_stability_margin` gets ``K = 0``; every other one is
    placed, so no loop the PBH test treats as marginal is accepted
    unplaced.
    Unstable eigenvalues are moved one real eigenvalue or conjugate pair
    at a time (:func:`_assignment_step`): stable modes are never
    touched, each step is a one- or two-dimensional placement, and the
    gains stay moderate where a single gramian-based design would
    overdrive the weakly coupled directions. Each closed loop is judged
    by one :func:`spectral_abscissa` (the placement's ``eig`` of the
    transpose differs in the last digits) against the same margin, and
    the passing one returned. In a stack each member leaves the loop at
    the step its closed loop passes, so its steps are those it takes
    alone.

    Raises
    ------
    NumericsError
        If the assignment loop fails a final Hurwitz verification
        because an unstable mode is too close to uncontrollable. The
        stack raises the error of its first failing member.
    """
    count, n = a.shape[0], a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError(f"a must be square, got {a.shape[-2:]}")
    if b.shape[-2] != n:
        raise ValueError(f"b must have {n} rows, got {b.shape[-2:]}")
    # a copy: the placed members' entries are overwritten below
    abscissa = np.array(abscissa, dtype=float)
    margin = _stability_margin(norm)
    k = np.zeros((count, b.shape[-1], n))
    live = np.flatnonzero(~(abscissa < margin))
    acl = a[live]
    for _ in range(2 * n + 4):
        if not live.size:
            break
        k[live] = k[live] + _assignment_step(acl, b[live])
        acl = a[live] + b[live] @ k[live]
        closed = spectral_abscissa(acl)
        done = closed < margin[live]
        abscissa[live[done]] = closed[done]
        live, acl = live[~done], acl[~done]
    if live.size:
        raise NumericsError(
            "eigenvalue assignment did not converge; an unstable mode is "
            "too close to uncontrollable"
        )
    return k, abscissa


def check_spd(m, names):
    """Validate that each member is square, symmetric and positive
    semidefinite, and return the symmetrized stack. The stack raises
    the ``NumericsError`` of its first failing member; ``names`` lists
    one name per member for the message."""
    if m.shape[-2] != m.shape[-1]:
        raise NumericsError(f"{names[0]} must be square, got {m.shape[-2:]}")
    tols = rank_tol(m)
    asymmetric = np.flatnonzero(spectral_norm(m - m.swapaxes(-1, -2)) > tols)
    if asymmetric.size:
        raise NumericsError(f"{names[asymmetric[0]]} must be symmetric")
    m = _symmetrize(m)
    if m.shape[-1]:
        lowest = np.linalg.eigvalsh(m)[:, 0]
        indefinite = np.flatnonzero(lowest < -tols)
        if indefinite.size:
            i = indefinite[0]
            raise NumericsError(
                f"{names[i]} is not positive semidefinite (eigenvalue {lowest[i]:.3e})"
            )
    return m


def sqrtm_spd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of each member of a stack that
    :func:`check_spd` returned (symmetric positive semidefinite).

    Computed from the eigendecomposition; eigenvalues below the noise
    floor are clipped to zero.
    """
    if m.shape[-1]:
        w, u = np.linalg.eigh(m)
        diag = np.zeros_like(u)
        idx = np.arange(m.shape[-1])
        diag[:, idx, idx] = np.sqrt(np.clip(w, 0.0, None))
        m = u @ diag @ u.swapaxes(-1, -2)
    return m


def least_squares(a: np.ndarray, *rhs: np.ndarray):
    """Minimum-norm least-squares solution of ``a @ x = b`` for each
    member of the stack ``a`` and each stack ``b`` in ``rhs``.

    One SVD ``a = U S V^T`` per stack serves every right-hand side:
    singular values at or below ``REL_TOL * max(shape) * s_max`` count
    as zero, and ``x = V S^+ U^T b`` is, among all residual minimizers,
    the Frobenius-minimal one (Golub & Van Loan, *Matrix Computations*,
    5.5). A matrix with no rows or no columns gives ``x = 0``.

    Returns
    -------
    (x, residual) for each right-hand side, in order
        ``x`` is the stack of solutions and ``residual`` the Frobenius
        norm of each member's ``a @ x - b``; callers judge it with
        :func:`residual_ok`.
    """
    count, rows, cols = a.shape
    for part in rhs:
        if part.shape[:2] != (count, rows):
            raise ValueError(f"a has shape {a.shape} but b has shape {part.shape}")
    b = np.concatenate(rhs, axis=-1) if len(rhs) > 1 else rhs[0]
    if rows and cols:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        # a dropped singular value divides by inf: its direction gets 0
        s[s <= (REL_TOL * max(rows, cols)) * s[:, :1]] = np.inf
        x = vt.swapaxes(-1, -2) @ ((u.swapaxes(-1, -2) @ b) / s[:, :, None])
    else:
        x = np.zeros((count, cols, b.shape[-1]))
    error = a @ x - b
    out = []
    stop = 0
    for part in rhs:
        start, stop = stop, stop + part.shape[-1]
        out += [
            np.ascontiguousarray(x[..., start:stop]),
            frobenius(np.ascontiguousarray(error[..., start:stop])),
        ]
    return tuple(out)
