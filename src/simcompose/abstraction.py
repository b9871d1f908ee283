"""Reduced-order abstractions of subsystems with quadratic deviation
certificates.

Given a subsystem ``dx/dt = A x + B u + D w`` with outputs ``C x`` and a
tall injection ``P`` mapping abstract states into the concrete state
space, this module constructs an abstract twin

    dxhat/dt = Ahat xhat + Bhat uhat + Dhat w,    output Chat xhat,

together with a quadratic function ``V(xhat, x) = |sqrt(M) (x - P xhat)|``
and an interface feedback such that ``V`` decays at rate ``lam`` up to
gains on the abstract input (``rho``) and on internal-input mismatch
(one ``mu`` coefficient per scalar disturbance column).

The unit of certification is a stack: subsystems of one shape (state,
input, disturbance and abstract sizes, output block rows, and whether
the certificate is computed or injected) are checked and certified
together, each ``numpy.linalg`` routine called once for the whole stack
(:mod:`~simcompose.linalg`). Every certification function takes stacks
only (a sequence of same-shape subsystems, 3-D stacks of matrices, a
list of output block stacks), one subsystem as a stack of one, and
returns one result per member. Steps that depend on a member's data
(its ranks, its PBH pencils, its iteration counts) run on the members
they concern, so every member's numbers are those it gets alone. A
stack is certified whole or not at all: a member that fails makes the
stack raise the error that member raises alone. ``cli.certify``
certifies the halves of a failed stack again to give each member its
own outcome; ``cli.build_abstractions`` stops at its first failing
member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Subspace, image, intersections, kernel, residuals, sums
from .linalg import (
    COMPUTED_CERT_TOL,
    INJECTED_CERT_TOL,
    SCALE_FLOOR,
    SPLIT_RCOND,
    Matrix,
    NumericsError,
    as_matrix,
    by_shape,
    check_spd,
    frobenius,
    least_squares,
    pbh_stabilizable,
    rank_tol,
    residual_ok,
    spectral_norm,
    sqrtm_spd,
    stabilize,
    solve_lyapunov,
    stack,
)
from .systems import LinearSystem


@dataclass
class QuadraticSimFn:
    """Weighted deviation function plus the interface gain matrices.

    ``V(xhat, x) = sqrt((x - P xhat)^T M (x - P xhat))``, which a run
    (:func:`~simcompose.simulate.refine_and_run`) samples, and the
    interface ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``.
    """

    P: Matrix
    M: Matrix
    K1: Matrix
    K2: Matrix
    K3: Matrix
    K4: Matrix
    lam: float


@dataclass(frozen=True)
class ComparisonGains:
    """Decay rate and input gains of one subsystem's deviation function."""

    lam: float
    rho: float
    mu: tuple[float, ...]

    @property
    def mu_total(self) -> float:
        return float(sum(self.mu))


@dataclass
class PConditionReport:
    """Verdicts for the four injection conditions on ``(system, P)``.

    Also carries what the checks computed and the construction reuses:
    ``im P``, ``ker C`` (``C`` stacked over all output blocks) and the
    spectral norms of ``A``, ``D`` and ``P``.
    """

    n: int
    stabilizable: bool
    witness: complex | None
    invariance_ok: bool
    invariance_residual: float
    disturbance_ok: bool
    disturbance_residual: float
    complement_ok: bool
    complement_dim: int
    image_p: Subspace = field(repr=False, compare=False)
    kernel_c: Subspace = field(repr=False, compare=False)
    norm_a: float = field(repr=False, compare=False)
    norm_d: float = field(repr=False, compare=False)
    norm_p: float = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return (
            self.stabilizable
            and self.invariance_ok
            and self.disturbance_ok
            and self.complement_ok
        )

    def lines(self) -> list[str]:
        return [
            f"stabilizable: {'yes' if self.stabilizable else f'no (witness {self.witness})'}",
            f"A-invariance modulo inputs: residual {self.invariance_residual:.3e} "
            f"({'ok' if self.invariance_ok else 'FAIL'})",
            f"disturbance coverage: residual {self.disturbance_residual:.3e} "
            f"({'ok' if self.disturbance_ok else 'FAIL'})",
            f"injection/kernel complement: dim {self.complement_dim} of {self.n} "
            f"({'ok' if self.complement_ok else 'FAIL'})",
        ]


@dataclass
class AbstractionResult:
    """Abstract twin plus certificate data for one subsystem."""

    system: LinearSystem
    simfn: QuadraticSimFn
    gains: ComparisonGains
    phat: Matrix
    conditions: PConditionReport


def _check_widths(blocks, n: int) -> None:
    """Reject output block stacks whose members do not have ``n`` columns."""
    for block in blocks:
        if block.shape[-1] != n:
            raise ValueError(f"output block has {block.shape[-1]} columns, expected {n}")


def _system_stack(systems) -> tuple[Matrix, Matrix, Matrix, list[Matrix]]:
    """``A``, ``B``, ``D`` and the output blocks of same-shape subsystems,
    each stacked over the subsystems."""
    blocks = [sys.output_blocks() for sys in systems]
    shapes = {
        (sys.A.shape, sys.B.shape, sys.D.shape, tuple(blk.shape for blk in own))
        for sys, own in zip(systems, blocks)
    }
    if len(shapes) != 1:
        raise ValueError(f"a stack needs subsystems of one shape, got {sorted(shapes)}")
    return (
        stack([sys.A for sys in systems]),
        stack([sys.B for sys in systems]),
        stack([sys.D for sys in systems]),
        [stack(column) for column in zip(*blocks)],
    )


def decay_certificate(a, b, blocks, pbh=None):
    """Compute the stacks ``(M, K1, lam)`` certifying exponential
    deviation decay of each member of the stacks ``a`` and ``b``.

    ``K1`` stabilizes ``(a, b)``; ``lam`` is half the closed-loop decay
    margin, read from the spectral abscissa :func:`stabilize` accepted;
    ``M`` solves a shifted Lyapunov equation and is scaled so every
    output block ``Cb`` satisfies ``Cb^T Cb <= M`` while

        (a + b K1)^T M + M (a + b K1) <= -2 lam M.

    ``blocks`` is the list of output block stacks; the scaling uses each
    member's worst block. The 1 percent headroom keeps both inequalities
    strictly satisfied under roundoff. ``pbh`` is the PBH verdicts and
    witnesses on ``(a, b)``, a pair of per-member sequences, when the
    caller already has them (see :func:`stabilize`). The stack raises
    the error of its first failing member.
    """
    count, n = a.shape[0], a.shape[-1]
    _check_widths(blocks, n)
    k1, abscissa = stabilize(a, b, pbh=pbh)
    lam = 0.5 * np.abs(abscissa)
    m0 = solve_lyapunov(
        a + b @ k1 + lam[:, None, None] * np.eye(n), np.tile(np.eye(n), (count, 1, 1))
    )
    try:
        chol = np.linalg.cholesky(m0)
    except np.linalg.LinAlgError:
        raise NumericsError(
            "certificate scaling failed: the Lyapunov solution is numerically "
            "indefinite, the closed loop is too stiff"
        ) from None
    scale = np.full(count, SCALE_FLOOR)
    for block in blocks:
        # smallest s with Cb^T Cb <= s * m0 equals |Cb L^-T|^2 for m0 = L L^T
        z = np.linalg.solve(chol, block.swapaxes(-1, -2))
        # squared by Python's pow, as one member is: numpy squares by a
        # product, which differs from pow in the last bit
        squared = np.array([norm ** 2 for norm in spectral_norm(z).tolist()])
        scale = np.where(squared > scale, squared, scale)
    m = (1.01 * scale)[:, None, None] * m0
    return m, k1, lam


def certificate_slacks(a, b, blocks, m, k1, lam) -> tuple[np.ndarray, np.ndarray]:
    """Worst eigenvalue slacks of the two certificate inequalities, one
    pair per member of the stacks.

    Returns ``(output_slack, decay_slack)``; both must be >= 0 for an
    exact certificate, and >= -tol for an acceptable one. ``output_slack``
    is the most negative eigenvalue of ``M - Cb^T Cb`` over the output
    block stacks ``blocks``, ``decay_slack`` the negated largest
    eigenvalue of ``(a + b k1)^T M + M (a + b k1) + 2 lam M``, with one
    rate ``lam`` per member. A slack is nan where its matrix is not
    finite (an overflowing ``lam``, say); its eigenvalues are not taken.
    ``M`` is read as symmetric: :func:`check_certificate` is the test
    that rejects one that is not symmetric positive semidefinite.
    """
    count, n = m.shape[0], m.shape[-1]
    _check_widths(blocks, n)
    if not n:
        return np.zeros(count), np.zeros(count)
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = [m - blk.swapaxes(-1, -2) @ blk for blk in blocks] or [m]
        a_cl = a + b @ k1
        decay = a_cl.swapaxes(-1, -2) @ m + m @ a_cl + (2.0 * lam)[:, None, None] * m
    # one mask for every block: a nan slack of a later block would lose
    # to a finite one in the comparison below
    finite = np.logical_and.reduce([_finite(mat) for mat in outputs])
    output_slack = None
    for mat in outputs:
        slack = _eigvalsh(mat, finite)[:, 0]
        # the first block's slack unless a later one is smaller, as min() keeps it
        output_slack = slack if output_slack is None else np.where(
            slack < output_slack, slack, output_slack
        )
    return output_slack, -_eigvalsh(decay, _finite(decay))[:, -1]


def _finite(mats: np.ndarray) -> np.ndarray:
    return np.isfinite(mats).all(axis=(-2, -1))


def _eigvalsh(mats: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Eigenvalues of the members flagged ``finite``, nan for the others:
    one non-finite member would fail ``eigvalsh`` for the whole stack."""
    values = np.full(mats.shape[:-1], np.nan)
    if finite.any():
        values[finite] = np.linalg.eigvalsh(mats[finite])
    return values


def check_certificate(a, b, blocks, m, k1, lam, tol: float, rejected, cause: str) -> np.ndarray:
    """The certificate test, on stacks: a member's certificate is
    rejected unless its ``m`` is symmetric positive semidefinite and
    both inequalities (:func:`certificate_slacks`) hold to ``tol``
    (absolute eigenvalue slack).

    Returns the symmetrized stack ``m``, or raises the ``NumericsError``
    of the first failing member. Its message starts with the member's
    text in ``rejected``, and a slack rejection ends with ``cause``.
    """
    try:
        m = check_spd(m, [f"{start}: M" for start in rejected])
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise NumericsError(str(exc)) from None
    slacks = certificate_slacks(a, b, blocks, m, k1, lam)
    for start, pair in zip(rejected, zip(*(s.tolist() for s in slacks))):
        out_slack, decay_slack = pair
        if not (out_slack >= -tol and decay_slack >= -tol):
            nan = [kind for kind, slack in zip(("output", "decay"), pair) if np.isnan(slack)]
            note = f"; the {' and '.join(nan)} inequality is not finite" if nan else ""
            raise NumericsError(
                f"{start}: output slack {out_slack:.3e}, decay slack "
                f"{decay_slack:.3e}, tolerance {tol:.1e}{note}{cause}"
            )
    return m


def check_P_conditions(a, b, d, blocks, p):
    """Check the four conditions an injection ``P`` must satisfy, for
    each member of the stacks ``a``, ``b``, ``d`` and the output block
    stacks ``blocks`` of same-shape subsystems, and its member of the
    stack ``p``.

    1. ``(A, B)`` stabilizable;
    2. ``A (im P)`` inside ``im P + im B``;
    3. ``im D`` inside ``im P + im B``;
    4. ``im P + ker C`` is the whole state space (``C`` stacked over all
       output blocks).

    ``P`` must be injective and have at least one column; those are
    shape-level requirements, not conditions, so a ``P`` that fails them
    raises ``ValueError``. Its rank is decided at the package cutoff
    :func:`~simcompose.linalg.rank_tol`.

    Returns the list of the members' reports, or raises the error of
    the first member whose ``P`` is rejected.
    """
    count, n = a.shape[0], a.shape[-1]
    if p.shape[-2] != n:
        raise ValueError(f"P must have {n} rows, got {p.shape[-2:]}")
    if not p.shape[-1]:
        raise ValueError("P has no columns: an abstraction needs at least one state")
    norm_p = spectral_norm(p)
    im_p = image(p, tol=rank_tol(p, norm_p))
    if any(space.dim < p.shape[-1] for space in im_p):
        raise ValueError("P must have full column rank (injective state mapping)")
    norm_a = spectral_norm(a)
    norm_d = spectral_norm(d)
    ok_stab, witness = pbh_stabilizable(a, b, norm=norm_a)
    reach = image(np.concatenate([p, b], axis=-1))
    inv_res = residuals(reach, a @ p)
    dist_res = residuals(reach, d)
    outputs = np.concatenate(blocks, axis=-2) if blocks else np.zeros((count, 0, n))
    ker_c = kernel(outputs)
    comp = sums(im_p, ker_c)
    stab, inv_ok, dist_ok = (
        ok_stab.tolist(),
        residual_ok(inv_res, norm_a).tolist(),
        residual_ok(dist_res, norm_d).tolist(),
    )
    return [
        PConditionReport(
            n=n,
            stabilizable=stab[j],
            witness=witness[j],
            invariance_ok=inv_ok[j],
            invariance_residual=inv_res[j].item(),
            disturbance_ok=dist_ok[j],
            disturbance_residual=dist_res[j].item(),
            complement_ok=comp[j].dim == n,
            complement_dim=comp[j].dim,
            image_p=im_p[j],
            kernel_c=ker_c[j],
            norm_a=norm_a[j].item(),
            norm_d=norm_d[j].item(),
            norm_p=norm_p[j].item(),
        )
        for j in range(count)
    ]


def _left_inverse_through_kernel(p: np.ndarray, reports: list):
    """Build ``phat`` with ``phat p = I`` and ``C p phat = C``, and the
    orthonormal basis ``e`` of ``ker C``, for each member of the stack
    ``p``.

    Decomposes the state space as ``im p (+) W`` with ``W`` a complement
    of ``im p  ker C`` inside ``ker C``; ``phat`` reads off the ``p``
    coordinate of that splitting, so ``I - p phat`` factors through
    ``ker C``: its residual ``(I - e e^T)(I - p phat)`` is checked.
    ``im p``, ``ker C`` and ``|p|`` come from ``reports``, the
    :func:`check_P_conditions` of each member. Returns ``(phat, e)``;
    ``e`` is a list, since ``dim ker C`` is each member's own. Raises
    the ``NumericsError`` of the first member whose splitting fails.
    """
    n, nhat = p.shape[1:]
    e = [report.kernel_c.basis for report in reports]
    overlap = intersections([report.image_p for report in reports],
                            [report.kernel_c for report in reports])
    t = by_shape(_splitting, p, e, [space.basis for space in overlap])
    for t_j in t:
        if t_j.shape[1] != n:
            raise NumericsError(
                f"im P and ker C do not decompose the state space: got dimension "
                f"{t_j.shape[1]} of {n}"
            )
    t = stack(t)
    svals = np.linalg.svd(t, compute_uv=False)
    if (svals[:, -1] <= SPLIT_RCOND * svals[:, 0]).any():
        raise NumericsError("state decomposition [P, W] is numerically singular")
    phat = np.linalg.solve(t, np.eye(n))[:, :nhat, :]
    # one product per stack of members with the same dim ker C
    rest = by_shape(
        lambda e, r: frobenius(r - e @ (e.swapaxes(-1, -2) @ r)), e, np.eye(n) - p @ phat
    )
    for report, res in zip(reports, rest):
        if not residual_ok(res, report.norm_p):
            raise NumericsError(
                f"projector residual {res:.3e}: I - P phat does not factor through ker C"
            )
    return phat, e


def _splitting(p, k, o):
    """``[P, W]`` for stacks of injections ``p``, ``ker C`` bases ``k``
    and bases ``o`` of ``im P`` and ``ker C``'s overlap: ``W`` spans a
    complement of the overlap inside ``ker C``, in ambient coordinates."""
    inside = kernel((k.swapaxes(-1, -2) @ o).swapaxes(-1, -2))
    return by_shape(
        lambda p, k, w: np.concatenate([p, k @ w], axis=-1), p, k, [space.basis for space in inside]
    )


def build_abstraction(systems, p, certificates=None):
    """Construct the abstract twin of each of the same-shape ``systems``
    along its member of the stack of injections ``p``.

    Solves ``A P = P Ahat + B K2`` and ``D = P Dhat + B K3`` in the
    least-squares sense (exact when the conditions hold), sets
    ``Chat = C P`` blockwise, builds the left inverse ``phat`` through
    ``ker C``, takes ``Bhat = [phat B, phat A E]``, and optimizes ``K4``
    for the smallest abstract-input gain ``rho``.

    Parameters
    ----------
    certificates : optional, one ``(M, K1, lam)`` per member
        Injected deviation certificates, all of one shape. When omitted
        every certificate is computed; injected certificates are
        verified at the loose tolerance appropriate for rounded
        published data.

    The stack is certified in one pass. Returns the list of the
    members' results, or raises the error of its first failing member,
    with the message that member gets alone.

    Raises
    ------
    ValueError
        If the injection conditions fail.
    NumericsError
        If the certificate or the construction identities fail.
    """
    a, b, d, blocks = _system_stack(systems)
    reports = check_P_conditions(a, b, d, blocks, p)
    for sub, report in zip(systems, reports):
        if not report.ok:
            raise ValueError(
                f"injection conditions failed for {sub.name}: " + "; ".join(report.lines())
            )
    if certificates is None:
        m, k1, lam = decay_certificate(
            a, b, blocks,
            pbh=([r.stabilizable for r in reports], [r.witness for r in reports]),
        )
        tol = COMPUTED_CERT_TOL
        # the solve's residual gate is relative to |A| |M|, the slack absolute
        cause = (
            "; M came from the shifted Lyapunov solve, which met its residual"
            " gate, but the closed loop is too far from normal for the decay"
            " inequality"
        )
    else:
        m = stack([as_matrix(cert[0], "M") for cert in certificates])
        k1 = stack([as_matrix(cert[1], "K1") for cert in certificates])
        lam = np.array([float(cert[2]) for cert in certificates])
        n, m_in = a.shape[-1], b.shape[-1]
        if k1.shape[1:] != (m_in, n):
            raise ValueError(
                f"{systems[0].name}: K1 has shape {k1.shape[1:]}, expected ({m_in}, {n})"
            )
        tol = INJECTED_CERT_TOL
        cause = ""
    # the one symmetry and definiteness check of M: K4 and every mu
    # below work on this M and on its one square root
    m = check_certificate(
        a, b, blocks, m, k1, lam, tol,
        [f"certificate rejected for {sub.name}" for sub in systems], cause,
    )

    nhat = p.shape[-1]
    # one SVD of [P, B] serves both identities
    sol_a, res_a, sol_d, res_d = least_squares(np.concatenate([p, b], axis=-1), a @ p, d)
    consistent = (
        residual_ok(res_a, np.array([r.norm_a for r in reports]))
        & residual_ok(res_d, np.array([r.norm_d for r in reports]))
    )
    if not consistent.all():
        j = np.argmin(consistent)
        raise NumericsError(
            f"construction identities inconsistent: residuals {res_a[j]:.3e}, {res_d[j]:.3e}"
        )
    phat, e = _left_inverse_through_kernel(p, reports)

    bhat = by_shape(
        lambda phat_b, phat_a, e: np.concatenate([phat_b, phat_a @ e], axis=-1),
        phat @ b, phat @ a, e,
    )
    root = sqrtm_spd(m)
    k4_rho = by_shape(compute_k4, root, p, bhat, b)
    mu = [spectral_norm(root @ d[:, :, k, None]).tolist() for k in range(d.shape[-1])]
    lam = lam.tolist()
    results = []
    for j, sub in enumerate(systems):
        pj, sol_a_j, sol_d_j = p[j], sol_a[j], sol_d[j]
        k4, rho = k4_rho[j]
        abstract = LinearSystem(
            name=sub.name,
            A=sol_a_j[:nhat, :],
            B=bhat[j],
            C_ext=sub.C_ext @ pj,
            D=sol_d_j[:nhat, :],
            channels_in=sub.channels_in,
            C_int={peer: blk @ pj for peer, blk in sub.C_int.items()},
        )
        simfn = QuadraticSimFn(
            P=pj, M=m[j], K1=k1[j], K2=sol_a_j[nhat:, :], K3=sol_d_j[nhat:, :], K4=k4,
            lam=lam[j],
        )
        gains = ComparisonGains(lam=lam[j], rho=float(rho), mu=tuple(column[j] for column in mu))
        results.append(AbstractionResult(
            system=abstract, simfn=simfn, gains=gains, phat=phat[j], conditions=reports[j],
        ))
    return results


def compute_k4(root, p, bhat, b):
    """Abstract-input matching gains and the resulting deviation gains of
    stacks, from one least-squares solve of the whole stack.

    Minimizes ``|sqrt(M) (P Bhat - B K4)|`` columnwise (minimum-norm
    solution), for the stack ``root`` of square roots ``sqrtm_spd(M)``;
    ``rho`` is the spectral norm of the optimal residual. With no
    concrete input (``B`` has zero width) this degenerates to ``K4``
    empty and ``rho = |sqrt(M) P Bhat|``. Returns the stack of gains
    and one ``rho`` per member.
    """
    target = root @ (p @ bhat)
    root_b = root @ b
    k4, _ = least_squares(root_b, target)
    return k4, spectral_norm(target - root_b @ k4)


def interface_gains(fn: QuadraticSimFn) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Gain blocks of one subsystem's interface law.

    The law ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``,
    grouped by signal, gives ``-(K1 P) - K2`` on ``xhat``, ``K1`` on
    ``x``, ``-K3`` on ``what`` and ``K4`` on ``uhat``.  This is the one
    encoding of the law: :func:`interface` evaluates it at a point, and
    :func:`~simcompose.simulate.refine_and_run` writes it into the joint
    system one subsystem at a time.
    """
    return -(fn.K1 @ fn.P) - fn.K2, fn.K1, -fn.K3, fn.K4


def interface(fn: QuadraticSimFn, xhat, x, what, uhat) -> np.ndarray:
    """Concrete input that tracks the abstract system.

    ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``.
    """
    signals = [np.asarray(s, dtype=float).reshape(-1) for s in (xhat, x, what, uhat)]
    return sum(g @ s for g, s in zip(interface_gains(fn), signals))
