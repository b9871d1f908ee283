"""Reduced-order abstractions of subsystems with quadratic deviation
certificates.

Given a subsystem ``dx/dt = A x + B u + D w`` with outputs ``C x`` and a
tall injection ``P`` mapping abstract states into the concrete state
space, this module constructs an abstract twin

    dxhat/dt = Ahat xhat + Bhat uhat + Dhat w,    output Chat xhat,

together with a quadratic function ``V(xhat, x) = |sqrt(M) (x - P xhat)|``
and an interface feedback such that ``V`` decays at rate ``lam`` up to
gains on the abstract input (``rho``) and on internal-input mismatch
(one ``mu`` coefficient per scalar disturbance column). The same data
can be produced from a joint-space relation instead of ``P``; both
routes must agree and are kept separate on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Subspace, image, kernel
from .linalg import (
    Matrix,
    NumericsError,
    as_matrix,
    check_spd,
    least_squares,
    pbh_stabilizable,
    rank_tol,
    residual_ok,
    spectral_norm,
    sqrtm_spd,
    stabilize,
    solve_lyapunov,
)
from .systems import LinearSystem

#: Eigenvalue slack accepted for certificates this package computed itself.
COMPUTED_CERT_TOL = 1e-7

#: Eigenvalue slack for user-supplied certificates, which typically come
#: from rounded published tables.
INJECTED_CERT_TOL = 5e-2

#: Floor on the output-scaling factor so zero-output systems still get a
#: positive definite weight.
_SCALE_FLOOR = 1e-12


@dataclass
class QuadraticSimFn:
    """Weighted deviation function plus the interface gain matrices.

    ``V(xhat, x) = sqrt((x - P xhat)^T M (x - P xhat))`` and the
    interface ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``.
    """

    P: Matrix
    M: Matrix
    K1: Matrix
    K2: Matrix
    K3: Matrix
    K4: Matrix
    lam: float

    def __call__(self, xhat, x) -> float:
        return eval_simfn(self, xhat, x)


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
    e: Matrix
    f: Matrix
    conditions: PConditionReport


def _output_blocks(c, n: int) -> list[Matrix]:
    """Nonempty blocks of ``c``, each with ``n`` columns: ``c`` is one matrix
    (an array or a nested list of numbers) or a list of 2-D blocks. A 1-D
    matrix is one output row, as :class:`LinearSystem` reads ``C_ext``."""
    if not (isinstance(c, (list, tuple)) and any(np.ndim(b) == 2 for b in c)):
        c = [c]
    rows = [np.reshape(b, (1, -1)) if np.ndim(b) == 1 and np.size(b) else b for b in c]
    blocks = [as_matrix(b, "c") for b in rows]
    for block in blocks:
        if block.shape[0] and block.shape[1] != n:
            raise ValueError(f"output block has {block.shape[1]} columns, expected {n}")
    return [b for b in blocks if b.shape[0]]


def _stacked_outputs(sys: LinearSystem) -> Matrix:
    blocks = sys.output_blocks()
    if not blocks:
        return np.zeros((0, sys.n))
    return np.vstack(blocks)


def decay_certificate(
    a, b, c, pbh: tuple[bool, complex | None] | None = None
) -> tuple[Matrix, Matrix, float]:
    """Compute ``(M, K1, lam)`` certifying exponential deviation decay.

    ``K1`` stabilizes ``(a, b)``; ``lam`` is half the closed-loop decay
    margin, read from the spectral abscissa :func:`stabilize` accepted;
    ``M`` solves a shifted Lyapunov equation and is scaled so every
    output block ``Cb`` satisfies ``Cb^T Cb <= M`` while

        (a + b K1)^T M + M (a + b K1) <= -2 lam M.

    ``c`` may be a single output matrix or a list of blocks; the scaling
    uses the worst block. The 1 percent headroom keeps both inequalities
    strictly satisfied under roundoff. ``pbh`` is the PBH verdict on
    ``(a, b)`` when the caller already has it (see :func:`stabilize`).
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    k1, abscissa = stabilize(a, b, pbh=pbh)
    a_cl = a + b @ k1
    lam = 0.5 * abs(abscissa)
    m0 = solve_lyapunov(a_cl + lam * np.eye(n), np.eye(n))
    try:
        chol = np.linalg.cholesky(m0)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "certificate scaling failed: the Lyapunov solution is numerically "
            "indefinite, the closed loop is too stiff"
        ) from exc
    scale = _SCALE_FLOOR
    for block in _output_blocks(c, n):
        # smallest s with Cb^T Cb <= s * m0 equals |Cb L^-T|^2 for m0 = L L^T
        z = np.linalg.solve(chol, block.T)
        scale = max(scale, spectral_norm(z) ** 2)
    m = 1.01 * scale * m0
    return m, k1, lam


def certificate_slacks(a, b, c, m, k1, lam) -> tuple[float, float]:
    """Worst eigenvalue slacks of the two certificate inequalities.

    Returns ``(output_slack, decay_slack)``; both must be >= 0 for an
    exact certificate, and >= -tol for an acceptable one. ``output_slack``
    is the most negative eigenvalue of ``M - Cb^T Cb`` over the output
    blocks, ``decay_slack`` the negated largest eigenvalue of
    ``(a + b k1)^T M + M (a + b k1) + 2 lam M``.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    m = check_spd(m, "M")
    k1 = as_matrix(k1, "K1")
    return _slacks(a, b, _output_blocks(c, a.shape[0]), m, k1, lam)


def _slacks(a, b, blocks, m, k1, lam) -> tuple[float, float]:
    """:func:`certificate_slacks` of already validated matrices."""
    if blocks:
        output_slack = min(
            float(np.linalg.eigvalsh(m - blk.T @ blk)[0]) for blk in blocks
        )
    else:
        output_slack = float(np.linalg.eigvalsh(m)[0]) if m.shape[0] else 0.0
    a_cl = a + b @ k1
    decay = a_cl.T @ m + m @ a_cl + 2.0 * lam * m
    decay_slack = -float(np.linalg.eigvalsh(decay)[-1]) if m.shape[0] else 0.0
    return output_slack, decay_slack


def check_certificate(a, b, c, m, k1, lam, tol: float) -> None:
    """Raise ``NumericsError`` if either certificate inequality is
    violated by more than ``tol`` (absolute eigenvalue slack)."""
    _require_slacks(certificate_slacks(a, b, c, m, k1, lam), tol)


def _require_slacks(slacks: tuple[float, float], tol: float, cause: str = "") -> None:
    out_slack, decay_slack = slacks
    if not (out_slack >= -tol and decay_slack >= -tol):
        raise NumericsError(
            f"certificate rejected: output slack {out_slack:.3e}, decay slack "
            f"{decay_slack:.3e}, tolerance {tol:.1e}{cause}"
        )


def check_P_conditions(sys: LinearSystem, p) -> PConditionReport:
    """Check the four conditions an injection ``P`` must satisfy.

    1. ``(A, B)`` stabilizable;
    2. ``A (im P)`` inside ``im P + im B``;
    3. ``im D`` inside ``im P + im B``;
    4. ``im P + ker C`` is the whole state space (``C`` stacked over all
       output blocks).

    ``P`` must be injective; that is a shape-level requirement, not a
    condition, so a rank-deficient ``P`` raises ``ValueError``. Its rank
    is decided at the package cutoff :func:`~simcompose.linalg.rank_tol`.
    """
    p = as_matrix(p, "P")
    n = sys.n
    if p.shape[0] != n:
        raise ValueError(f"P must have {n} rows, got {p.shape}")
    norm_p = spectral_norm(p)
    im_p = image(p, tol=rank_tol(p, norm_p))
    if im_p.dim < p.shape[1]:
        raise ValueError("P must have full column rank (injective state mapping)")
    norm_a = spectral_norm(sys.A)
    norm_d = spectral_norm(sys.D)
    ok_stab, witness = pbh_stabilizable(sys.A, sys.B, norm=norm_a)
    reach = image(np.hstack([p, sys.B]))
    inv_res = reach.residual(sys.A @ p)
    dist_res = reach.residual(sys.D) if sys.p else 0.0
    ker_c = kernel(_stacked_outputs(sys))
    comp = im_p.sum(ker_c)
    return PConditionReport(
        n=n,
        stabilizable=ok_stab,
        witness=witness,
        invariance_ok=residual_ok(inv_res, sys.A, norm=norm_a),
        invariance_residual=float(inv_res),
        disturbance_ok=residual_ok(dist_res, sys.D, norm=norm_d),
        disturbance_residual=float(dist_res),
        complement_ok=comp.dim == n,
        complement_dim=comp.dim,
        image_p=im_p,
        kernel_c=ker_c,
        norm_a=norm_a,
        norm_d=norm_d,
        norm_p=norm_p,
    )


def _left_inverse_through_kernel(
    sys: LinearSystem, p: Matrix, report: PConditionReport
) -> tuple[Matrix, Matrix, Matrix]:
    """Build ``(phat, e, f)`` with ``phat p = I``, ``C p phat = C`` and
    ``p phat + e f = I`` where ``im e = ker C``.

    Decomposes the state space as ``im p (+) W`` with ``W`` a complement
    of ``im p  ker C`` inside ``ker C``; ``phat`` reads off the ``p``
    coordinate of that splitting. ``im p``, ``ker C`` and ``|p|`` come
    from ``report``, the :func:`check_P_conditions` of ``(sys, p)``.
    """
    n = sys.n
    nhat = p.shape[1]
    ker_c = report.kernel_c
    overlap = report.image_p.intersect(ker_c)
    # complement of the overlap inside ker C, expressed in ambient coordinates
    coords = ker_c.basis.T @ overlap.basis
    w_basis = ker_c.basis @ kernel(coords.T).basis if ker_c.dim else np.zeros((n, 0))
    t_full = np.hstack([p, w_basis])
    if t_full.shape[1] != n:
        raise NumericsError(
            f"im P and ker C do not decompose the state space: got dimension "
            f"{t_full.shape[1]} of {n}"
        )
    svals = np.linalg.svd(t_full, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise NumericsError("state decomposition [P, W] is numerically singular")
    phat = np.linalg.solve(t_full, np.eye(n))[:nhat, :]
    e = ker_c.basis
    f, f_res = least_squares(e, np.eye(n) - p @ phat)
    if not residual_ok(f_res, p, norm=report.norm_p):
        raise NumericsError(
            f"projector residual {f_res:.3e}: I - P phat does not factor through ker C"
        )
    return phat, e, f


def build_abstraction(
    sys: LinearSystem,
    p,
    certificate: tuple | None = None,
) -> AbstractionResult:
    """Construct the abstract twin of ``sys`` along the injection ``p``.

    Solves ``A P = P Ahat + B K2`` and ``D = P Dhat + B K3`` in the
    least-squares sense (exact when the conditions hold), sets
    ``Chat = C P`` blockwise, builds the left inverse ``phat`` through
    ``ker C``, takes ``Bhat = [phat B, phat A E]``, and optimizes ``K4``
    for the smallest abstract-input gain ``rho``.

    Parameters
    ----------
    certificate : optional ``(M, K1, lam)``
        Injected deviation certificate. When omitted one is computed;
        injected certificates are verified at the loose tolerance
        appropriate for rounded published data.

    Raises
    ------
    ValueError
        If the injection conditions fail.
    NumericsError
        If the certificate or the construction identities fail.
    """
    p = as_matrix(p, "P")
    report = check_P_conditions(sys, p)
    if not report.ok:
        raise ValueError(
            "injection conditions failed for "
            f"{sys.name}: " + "; ".join(report.lines())
        )
    blocks = sys.output_blocks()
    if certificate is None:
        m, k1, lam = decay_certificate(
            sys.A, sys.B, blocks, pbh=(report.stabilizable, report.witness)
        )
        tol = COMPUTED_CERT_TOL
        # the solve's residual gate is relative to |A| |M|, the slack absolute
        cause = (
            "; M came from the shifted Lyapunov solve, which met its residual"
            " gate, but the closed loop is too far from normal for the decay"
            " inequality"
        )
    else:
        m, k1, lam = certificate
        tol = INJECTED_CERT_TOL
        cause = ""
    # the one symmetry and definiteness check of M: the slacks, K4 and
    # every mu below work on this M and on its one square root
    m = check_spd(m, "M")
    k1 = as_matrix(k1, "K1")
    if k1.shape != (sys.m, sys.n):
        raise ValueError(
            f"{sys.name}: K1 has shape {k1.shape}, expected ({sys.m}, {sys.n})"
        )
    lam = float(lam)
    _require_slacks(_slacks(sys.A, sys.B, blocks, m, k1, lam), tol, cause)

    nhat = p.shape[1]
    pb = np.hstack([p, sys.B])
    sol_a, res_a = least_squares(pb, sys.A @ p)
    ahat, k2 = sol_a[:nhat, :], sol_a[nhat:, :]
    sol_d, res_d = least_squares(pb, sys.D)
    dhat, k3 = sol_d[:nhat, :], sol_d[nhat:, :]
    if not (
        residual_ok(res_a, sys.A, norm=report.norm_a)
        and residual_ok(res_d, sys.D, norm=report.norm_d)
    ):
        raise NumericsError(
            f"construction identities inconsistent: residuals {res_a:.3e}, {res_d:.3e}"
        )
    phat, e, f = _left_inverse_through_kernel(sys, p, report)

    bhat = np.hstack([phat @ sys.B, phat @ sys.A @ e])
    root = sqrtm_spd(m, checked=True)
    k4, rho = compute_k4(m, p, bhat, sys.B, root=root)
    mu = tuple(spectral_norm(root @ sys.D[:, k, None]) for k in range(sys.p))

    abstract = LinearSystem(
        name=sys.name,
        A=ahat,
        B=bhat,
        C_ext=sys.C_ext @ p,
        D=dhat,
        channels_in=sys.channels_in,
        C_int={peer: blk @ p for peer, blk in sys.C_int.items()},
    )
    simfn = QuadraticSimFn(P=p, M=m, K1=k1, K2=k2, K3=k3, K4=k4, lam=lam)
    gains = ComparisonGains(lam=lam, rho=rho, mu=mu)
    return AbstractionResult(
        system=abstract,
        simfn=simfn,
        gains=gains,
        phat=phat,
        e=e,
        f=f,
        conditions=report,
    )


def compute_k4(m, p, bhat, b, root=None) -> tuple[Matrix, float]:
    """Abstract-input matching gain and the resulting deviation gain.

    Minimizes ``|sqrt(M) (P Bhat - B K4)|`` columnwise (minimum-norm
    solution); ``rho`` is the spectral norm of the optimal residual.
    With no concrete input (``B`` has zero width) this degenerates to
    ``K4`` empty and ``rho = |sqrt(M) P Bhat|``. ``root`` is
    ``sqrtm_spd(m)`` when the caller has already formed it.
    """
    p = as_matrix(p, "P")
    bhat = as_matrix(bhat, "Bhat")
    b = as_matrix(b, "B")
    if root is None:
        root = sqrtm_spd(m)
    target = root @ (p @ bhat)
    k4, _ = least_squares(root @ b, target)
    rho = spectral_norm(target - (root @ b) @ k4)
    return k4, float(rho)


def eval_simfn(fn: QuadraticSimFn, xhat, x) -> float:
    """Value of the deviation function at one abstract/concrete pair."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    e = x - fn.P @ xhat
    return float(np.sqrt(max(e @ fn.M @ e, 0.0)))


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


@dataclass
class RelationReport:
    """Verdicts for the joint-space relation conditions.

    ``controlled_invariant`` is the inclusion ``A R <= R + im B`` that
    ``invariance_residual`` measures. ``stabilizable`` is external
    stabilizability of ``R``, decided by one PBH test on ``(A, [B, V])``
    with ``V`` a basis of ``R``; ``witness`` is the eigenvalue that fails
    it. The first conditions certify an approximate refinement (nonzero
    abstract-input gain allowed); ``feedthrough_ok`` additionally holds
    only in the exact case where the abstract input can be reproduced
    through the concrete one.
    """

    controlled_invariant: bool
    stabilizable: bool
    witness: complex | None
    invariance_residual: float
    disturbance_residual: float
    output_residual: float
    feedthrough_residual: float
    disturbance_ok: bool
    output_ok: bool
    feedthrough_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.controlled_invariant
            and self.stabilizable
            and self.disturbance_ok
            and self.output_ok
        )


def _joint_matrices(sys1: LinearSystem, sys2: LinearSystem):
    n1, n2 = sys1.n, sys2.n
    if sys1.p != sys2.p:
        raise ValueError(
            f"disturbance widths differ: {sys1.name} has {sys1.p}, {sys2.name} has {sys2.p}"
        )
    c1 = _stacked_outputs(sys1)
    c2 = _stacked_outputs(sys2)
    if c1.shape[0] != c2.shape[0]:
        raise ValueError(
            f"stacked output row counts differ: {c1.shape[0]} vs {c2.shape[0]}"
        )
    a12 = np.block([
        [sys1.A, np.zeros((n1, n2))],
        [np.zeros((n2, n1)), sys2.A],
    ])
    b12 = np.vstack([np.zeros((n1, sys2.m)), sys2.B])
    b21 = np.vstack([sys1.B, np.zeros((n2, sys1.m))])
    d12 = np.vstack([sys1.D, sys2.D])
    c12 = np.hstack([-c1, c2])
    return a12, b12, b21, d12, c12


def check_relation(sys1: LinearSystem, sys2: LinearSystem, r: Subspace) -> RelationReport:
    """Check whether ``r`` relates abstract ``sys1`` to concrete ``sys2``.

    Conditions on the joint space (block matrices over both states):
    controlled invariance of ``r = im V`` modulo the concrete input,
    external stabilizability of ``r``, disturbance coverage, output
    matching on ``r``, and (for the exact case only) abstract-input
    coverage. A controlled-invariant ``r`` is externally stabilizable
    exactly when ``(A, [B, V])`` passes the PBH test: for any friend, the
    left eigenvectors of ``A`` that annihilate ``B`` and ``V`` are those
    of the quotient pair that annihilate its input, with the same
    eigenvalues.
    """
    a12, b12, b21, d12, c12 = _joint_matrices(sys1, sys2)
    if r.ambient != a12.shape[0]:
        raise ValueError(
            f"relation lives in dimension {r.ambient}, expected {a12.shape[0]}"
        )
    target = r.sum(image(b12))
    inv_res = target.residual(a12 @ r.basis) if r.dim else 0.0
    dist_res = target.residual(d12) if d12.shape[1] else 0.0
    out_res = spectral_norm(c12 @ r.basis) if r.dim else 0.0
    feed_res = target.residual(b21) if b21.shape[1] else 0.0
    invariant = residual_ok(inv_res, a12)
    ok_stab, witness = (
        pbh_stabilizable(a12, np.hstack([b12, r.basis])) if invariant else (False, None)
    )
    return RelationReport(
        controlled_invariant=invariant,
        stabilizable=ok_stab,
        witness=witness,
        invariance_residual=float(inv_res),
        disturbance_residual=float(dist_res),
        output_residual=float(out_res),
        feedthrough_residual=float(feed_res),
        disturbance_ok=residual_ok(dist_res, d12),
        output_ok=residual_ok(out_res, c12),
        feedthrough_ok=residual_ok(feed_res, b21),
    )


def graph_subspace(p) -> Subspace:
    """The relation ``{(xhat, P xhat)}`` as a joint-space subspace."""
    p = as_matrix(p, "P")
    return image(np.vstack([np.eye(p.shape[1]), p]))


def simfn_from_relation(sys1: LinearSystem, sys2: LinearSystem, r: Subspace) -> QuadraticSimFn:
    """Deviation certificate built from a joint-space relation.

    Requires ``r`` to be the graph of an injection (abstract states on
    top); extracts that map and assembles the certificate directly from
    the relation conditions. Kept as an independent route so it can be
    cross-checked against :func:`build_abstraction`.
    """
    nhat, n = sys1.n, sys2.n
    if r.ambient != nhat + n:
        raise ValueError(f"relation ambient {r.ambient} does not match {nhat}+{n}")
    if r.dim != nhat:
        raise ValueError(f"graph relation must have dimension {nhat}, got {r.dim}")
    x1 = r.basis[:nhat, :]
    x2 = r.basis[nhat:, :]
    svals = np.linalg.svd(x1, compute_uv=False) if nhat else np.zeros(0)
    if nhat and svals[-1] <= 1e-10 * max(1.0, svals[0]):
        raise ValueError("relation is not the graph of a map on the abstract states")
    p = x2 @ np.linalg.inv(x1) if nhat else np.zeros((n, 0))
    m, k1, lam = decay_certificate(sys2.A, sys2.B, sys2.output_blocks())
    k2, _ = least_squares(sys2.B, sys2.A @ p - p @ sys1.A)
    k3, _ = least_squares(sys2.B, sys2.D - p @ sys1.D)
    k4, _ = compute_k4(m, p, sys1.B, sys2.B)
    return QuadraticSimFn(P=p, M=m, K1=k1, K2=k2, K3=k3, K4=k4, lam=lam)
