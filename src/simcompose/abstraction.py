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
:func:`check_relation` states the same conditions on a joint-space
relation instead of ``P``.

The unit of certification is a stack: subsystems of one shape (state,
input, disturbance and abstract sizes, output block rows, and whether
the certificate is computed or injected) are checked and certified
together, each ``numpy.linalg`` routine called once for the whole stack
(:mod:`~simcompose.linalg`). One subsystem is a stack of one. Steps that
depend on a member's data (its ranks, its PBH pencils, its iteration
counts) run on the members they concern, so every member's numbers are
those it gets alone, and a member that fails drops out of the stack with
the error it raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

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
    as_stack,
    by_shape,
    check_spd,
    least_squares,
    pbh_stabilizable,
    per_member,
    rank_tol,
    residual_ok,
    spectral_norm,
    sqrtm_spd,
    stabilize,
    solve_lyapunov,
    stack,
    unstack,
)
from .systems import LinearSystem


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


class _Members(SimpleNamespace):
    """Data of the members of a stack still being certified: arrays are
    stacks along axis 0, lists hold one item per member and tuples hold
    several stacks. ``positions`` are the members' places in the stack."""

    def drop(self, failed: dict, failures: dict) -> None:
        """Record ``failed``, keyed by place among these members, in
        ``failures``, keyed by place in the stack, and remove them."""
        if not failed:
            return
        keep = np.ones(len(self.positions), dtype=bool)
        for j, exc in failed.items():
            failures[int(self.positions[j])] = exc
            keep[j] = False

        def take(value):
            if isinstance(value, np.ndarray):
                return value[keep]
            if isinstance(value, tuple):
                return tuple(take(v) for v in value)
            return [v for v, k in zip(value, keep) if k]

        for key, value in list(vars(self).items()):
            setattr(self, key, take(value))


def decay_certificate(a, b, c, pbh=None):
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

    For a stack, ``a`` and ``b`` are stacks, ``c`` a list of block stacks
    and ``pbh`` a pair of per-member sequences; returns ``(M, K1, lam,
    failures)``.
    """
    a, single = as_stack(a, "a")
    b, _ = as_stack(b, "b")
    count, n = a.shape[0], a.shape[-1]
    blocks = [blk[np.newaxis] for blk in _output_blocks(c, n)] if single else list(c)
    if single and pbh is not None:
        pbh = ([pbh[0]], [pbh[1]])
    k1, abscissa, failed = stabilize(a, b, pbh=pbh)
    failures: dict[int, Exception] = {}
    live = _Members(
        positions=np.arange(count), a=a, b=b, k1=k1, abscissa=abscissa, blocks=tuple(blocks)
    )
    live.drop(failed, failures)
    lam = 0.5 * np.abs(live.abscissa)
    m0, failed = solve_lyapunov(
        live.a + live.b @ live.k1 + lam[:, None, None] * np.eye(n),
        np.tile(np.eye(n), (len(lam), 1, 1)),
    )
    live.lam, live.m0 = lam, m0
    live.drop(failed, failures)
    chol, singular = per_member(np.linalg.cholesky, live.m0)
    live.chol = chol
    live.drop({j: NumericsError(
        "certificate scaling failed: the Lyapunov solution is numerically "
        "indefinite, the closed loop is too stiff"
    ) for j in singular}, failures)
    scale = np.full(len(live.positions), SCALE_FLOOR)
    for block in live.blocks:
        # smallest s with Cb^T Cb <= s * m0 equals |Cb L^-T|^2 for m0 = L L^T
        z = np.linalg.solve(live.chol, block.swapaxes(-1, -2))
        # squared by Python's pow, as one member is: numpy squares by a
        # product, which differs from pow in the last bit
        squared = np.array([norm ** 2 for norm in spectral_norm(z).tolist()])
        scale = np.where(squared > scale, squared, scale)
    m = np.zeros((count, n, n))
    m[live.positions] = (1.01 * scale)[:, None, None] * live.m0
    lam = np.zeros(count)
    lam[live.positions] = live.lam
    return unstack(single, failures, m, k1, lam)


def certificate_slacks(a, b, c, m, k1, lam) -> tuple[float, float]:
    """Worst eigenvalue slacks of the two certificate inequalities.

    Returns ``(output_slack, decay_slack)``; both must be >= 0 for an
    exact certificate, and >= -tol for an acceptable one. ``output_slack``
    is the most negative eigenvalue of ``M - Cb^T Cb`` over the output
    blocks, ``decay_slack`` the negated largest eigenvalue of
    ``(a + b k1)^T M + M (a + b k1) + 2 lam M``; a slack is nan where
    its matrix is not finite.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    m = check_spd(m, "M")
    k1 = as_matrix(k1, "K1")
    blocks = [blk[np.newaxis] for blk in _output_blocks(c, a.shape[0])]
    slacks = _slacks(a[np.newaxis], b[np.newaxis], blocks, m[np.newaxis], k1[np.newaxis],
                     np.array([lam], dtype=float))
    return float(slacks[0][0]), float(slacks[1][0])


def _slacks(a, b, blocks, m, k1, lam) -> tuple[np.ndarray, np.ndarray]:
    """:func:`certificate_slacks` of validated stacks, one pair per member.

    A slack is nan where its inequality matrices are not finite (an
    overflowing ``lam``, say); their eigenvalues are not taken.
    """
    count, n = m.shape[0], m.shape[-1]
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


def _require_slacks(slacks: tuple[float, float], tol: float, cause: str = "",
                    name: str = "") -> None:
    """Reject a certificate unless both slacks are at least ``-tol``;
    ``name`` is the subsystem the message names."""
    out_slack, decay_slack = slacks
    if not (out_slack >= -tol and decay_slack >= -tol):
        overflowed = [kind for kind, slack in zip(("output", "decay"), slacks) if np.isnan(slack)]
        if overflowed:
            cause = f"; the {' and '.join(overflowed)} inequality is not finite" + cause
        where = f" for {name}" if name else ""
        raise NumericsError(
            f"certificate rejected{where}: output slack {out_slack:.3e}, decay slack "
            f"{decay_slack:.3e}, tolerance {tol:.1e}{cause}"
        )


def check_P_conditions(sys, p):
    """Check the four conditions an injection ``P`` must satisfy.

    1. ``(A, B)`` stabilizable;
    2. ``A (im P)`` inside ``im P + im B``;
    3. ``im D`` inside ``im P + im B``;
    4. ``im P + ker C`` is the whole state space (``C`` stacked over all
       output blocks).

    ``P`` must be injective; that is a shape-level requirement, not a
    condition, so a rank-deficient ``P`` raises ``ValueError``. Its rank
    is decided at the package cutoff :func:`~simcompose.linalg.rank_tol`.

    ``sys`` may be a sequence of same-shape subsystems and ``p`` the
    stack of their injections: then returns ``(reports, failures)``, with
    ``None`` for a member whose ``P`` is rejected.
    """
    single = isinstance(sys, LinearSystem)
    systems = [sys] if single else list(sys)
    p, _ = as_stack(p, "P")
    n = systems[0].n
    if p.shape[-2] != n:
        raise ValueError(f"P must have {n} rows, got {p.shape[-2:]}")
    a, b, d, blocks = _system_stack(systems)
    norm_p = spectral_norm(p)
    im_p = image(p, tol=rank_tol(p, norm_p))
    live = _Members(positions=np.arange(len(systems)), a=a, b=b, d=d, p=p,
                    blocks=tuple(blocks), norm_p=norm_p, im_p=im_p)
    failures: dict[int, Exception] = {}
    deficient = [j for j, space in enumerate(im_p) if space.dim < p.shape[-1]]
    live.drop({
        j: ValueError("P must have full column rank (injective state mapping)")
        for j in deficient
    }, failures)
    reports: list = [None] * len(systems)
    if len(live.positions):
        norm_a = spectral_norm(live.a)
        norm_d = spectral_norm(live.d)
        ok_stab, witness = pbh_stabilizable(live.a, live.b, norm=norm_a)
        reach = image(np.concatenate([live.p, live.b], axis=-1))
        inv_res = residuals(reach, live.a @ live.p)
        dist_res = residuals(reach, live.d)
        outputs = (
            np.concatenate(live.blocks, axis=-2) if live.blocks
            else np.zeros((len(live.positions), 0, n))
        )
        ker_c = kernel(outputs)
        comp = sums(live.im_p, ker_c)
        stab, inv_ok, dist_ok = (
            ok_stab.tolist(),
            residual_ok(inv_res, None, norm=norm_a).tolist(),
            residual_ok(dist_res, None, norm=norm_d).tolist(),
        )
        for j, i in enumerate(live.positions.tolist()):
            reports[i] = PConditionReport(
                n=n,
                stabilizable=stab[j],
                witness=witness[j],
                invariance_ok=inv_ok[j],
                invariance_residual=inv_res[j].item(),
                disturbance_ok=dist_ok[j],
                disturbance_residual=dist_res[j].item(),
                complement_ok=comp[j].dim == n,
                complement_dim=comp[j].dim,
                image_p=live.im_p[j],
                kernel_c=ker_c[j],
                norm_a=norm_a[j].item(),
                norm_d=norm_d[j].item(),
                norm_p=live.norm_p[j].item(),
            )
    return unstack(single, failures, reports)


def _left_inverse_through_kernel(p: np.ndarray, reports: list):
    """Build ``(phat, e, f)`` with ``phat p = I``, ``C p phat = C`` and
    ``p phat + e f = I`` where ``im e = ker C``, for each member of the
    stack ``p``.

    Decomposes the state space as ``im p (+) W`` with ``W`` a complement
    of ``im p  ker C`` inside ``ker C``; ``phat`` reads off the ``p``
    coordinate of that splitting. ``im p``, ``ker C`` and ``|p|`` come
    from ``reports``, the :func:`check_P_conditions` of each member.
    Returns ``(phat, e, f, failures)``; ``e`` and ``f`` are lists, since
    ``dim ker C`` is each member's own.
    """
    count, n, nhat = p.shape
    ker_c = [report.kernel_c for report in reports]
    overlap = intersections([report.image_p for report in reports], ker_c)
    t_full = by_shape(
        _splitting, p, [space.basis for space in ker_c], [space.basis for space in overlap]
    )
    failures: dict[int, Exception] = {}
    for j, t in enumerate(t_full):
        if t.shape[1] != n:
            failures[j] = NumericsError(
                f"im P and ker C do not decompose the state space: got dimension "
                f"{t.shape[1]} of {n}"
            )
    square = [j for j in range(count) if j not in failures]
    phat = np.zeros((count, nhat, n))
    e: list = [None] * count
    f: list = [None] * count
    if not square:
        return phat, e, f, failures
    t = stack([t_full[j] for j in square])
    svals = np.linalg.svd(t, compute_uv=False)
    singular = svals[:, -1] <= SPLIT_RCOND * svals[:, 0]
    good = []
    for j, bad in zip(square, singular.tolist()):
        if bad:
            failures[j] = NumericsError("state decomposition [P, W] is numerically singular")
        else:
            good.append(j)
    projectors = []
    if len(good) == count:
        phat = np.linalg.solve(t, np.eye(n))[:, :nhat, :]
        projectors = np.eye(n) - p @ phat
    elif good:
        phat[good] = np.linalg.solve(t[~singular], np.eye(n))[:, :nhat, :]
        projectors = np.eye(n) - p[good] @ phat[good]
    for j, rest in zip(good, projectors):
        e[j] = ker_c[j].basis
        f[j], f_res = least_squares(e[j], rest)
        if not residual_ok(f_res, None, norm=reports[j].norm_p):
            failures[j] = NumericsError(
                f"projector residual {f_res:.3e}: I - P phat does not factor through ker C"
            )
    return phat, e, f, failures


def _splitting(p, k, o):
    """``[P, W]`` for stacks of injections ``p``, ``ker C`` bases ``k``
    and bases ``o`` of ``im P`` and ``ker C``'s overlap: ``W`` spans a
    complement of the overlap inside ``ker C``, in ambient coordinates."""
    inside = kernel((k.swapaxes(-1, -2) @ o).swapaxes(-1, -2))
    return by_shape(
        lambda p, k, w: np.concatenate([p, k @ w], axis=-1), p, k, [space.basis for space in inside]
    )


def build_abstraction(sys, p, certificate=None):
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

    A stack is certified in one pass: ``sys`` is then a sequence of
    same-shape subsystems, ``p`` the stack of their injections and
    ``certificate`` ``None`` (every certificate computed) or one injected
    certificate per member, all of one shape. Returns ``(results,
    failures)``: ``results[i]`` is ``None`` where ``failures[i]`` holds
    the error member ``i`` raises alone.

    Raises
    ------
    ValueError
        If the injection conditions fail.
    NumericsError
        If the certificate or the construction identities fail.
    """
    single = isinstance(sys, LinearSystem)
    systems = [sys] if single else list(sys)
    if single and certificate is not None:
        certificate = [certificate]
    p, _ = as_stack(p, "P")
    count = len(systems)
    reports, failed = check_P_conditions(systems, p)
    for j, report in enumerate(reports):
        if report is not None and not report.ok:
            failed[j] = ValueError(
                "injection conditions failed for "
                f"{systems[j].name}: " + "; ".join(report.lines())
            )
    failures: dict[int, Exception] = {}
    live = _Members(positions=np.arange(count), systems=systems, reports=reports, p=p)
    live.drop(failed, failures)
    results: list = [None] * count
    if not len(live.positions):
        return unstack(single, failures, results)
    a, b, d, blocks = _system_stack(live.systems)
    live.a, live.b, live.d, live.blocks = a, b, d, tuple(blocks)
    if certificate is None:
        m, k1, lam, failed = decay_certificate(
            a, b, blocks,
            pbh=([r.stabilizable for r in live.reports], [r.witness for r in live.reports]),
        )
        tol = COMPUTED_CERT_TOL
        # the solve's residual gate is relative to |A| |M|, the slack absolute
        cause = (
            "; M came from the shifted Lyapunov solve, which met its residual"
            " gate, but the closed loop is too far from normal for the decay"
            " inequality"
        )
    else:
        injected = [certificate[i] for i in live.positions.tolist()]
        m = stack([as_matrix(cert[0], "M") for cert in injected])
        k1 = stack([as_matrix(cert[1], "K1") for cert in injected])
        lam = np.array([float(cert[2]) for cert in injected])
        failed = {}
        tol = INJECTED_CERT_TOL
        cause = ""
    live.m, live.k1, live.lam = m, k1, lam
    live.drop(failed, failures)
    # the one symmetry and definiteness check of M: the slacks, K4 and
    # every mu below work on this M and on its one square root
    live.m, failed = check_spd(live.m, "M")
    live.drop(failed, failures)
    n, m_in = a.shape[-1], b.shape[-1]
    if live.k1.shape[1:] != (m_in, n):
        live.drop({
            j: ValueError(f"{sub.name}: K1 has shape {live.k1.shape[1:]}, expected ({m_in}, {n})")
            for j, sub in enumerate(live.systems)
        }, failures)
        return unstack(single, failures, results)
    failed = {}
    for j, slacks in enumerate(zip(*(s.tolist() for s in _slacks(
        live.a, live.b, live.blocks, live.m, live.k1, live.lam
    )))):
        try:
            _require_slacks(slacks, tol, cause, live.systems[j].name)
        except NumericsError as exc:
            failed[j] = exc
    live.drop(failed, failures)

    nhat = p.shape[-1]
    pb = np.concatenate([live.p, live.b], axis=-1)
    ap = live.a @ live.p
    live.sol_a, live.sol_d, failed = [], [], {}
    for j, report in enumerate(live.reports):
        sol_a, res_a = least_squares(pb[j], ap[j])
        sol_d, res_d = least_squares(pb[j], live.d[j])
        live.sol_a.append(sol_a)
        live.sol_d.append(sol_d)
        if not (
            residual_ok(res_a, None, norm=report.norm_a)
            and residual_ok(res_d, None, norm=report.norm_d)
        ):
            failed[j] = NumericsError(
                f"construction identities inconsistent: residuals {res_a:.3e}, {res_d:.3e}"
            )
    live.drop(failed, failures)
    live.phat, live.e, live.f, failed = _left_inverse_through_kernel(live.p, live.reports)
    live.drop(failed, failures)
    if not len(live.positions):
        return unstack(single, failures, results)

    bhat = by_shape(
        lambda phat_b, phat_a, e: np.concatenate([phat_b, phat_a @ e], axis=-1),
        live.phat @ live.b, live.phat @ live.a, live.e,
    )
    root = sqrtm_spd(live.m, checked=True)
    k4_rho = by_shape(compute_k4, live.m, live.p, bhat, live.b, root)
    mu = [spectral_norm(root @ live.d[:, :, k, None]).tolist() for k in range(live.d.shape[-1])]
    lam = live.lam.tolist()
    for j, i in enumerate(live.positions.tolist()):
        sub, pj, sol_a, sol_d = live.systems[j], live.p[j], live.sol_a[j], live.sol_d[j]
        k4, rho = k4_rho[j]
        abstract = LinearSystem(
            name=sub.name,
            A=sol_a[:nhat, :],
            B=bhat[j],
            C_ext=sub.C_ext @ pj,
            D=sol_d[:nhat, :],
            channels_in=sub.channels_in,
            C_int={peer: blk @ pj for peer, blk in sub.C_int.items()},
        )
        simfn = QuadraticSimFn(
            P=pj, M=live.m[j], K1=live.k1[j], K2=sol_a[nhat:, :], K3=sol_d[nhat:, :], K4=k4,
            lam=lam[j],
        )
        gains = ComparisonGains(lam=lam[j], rho=float(rho), mu=tuple(column[j] for column in mu))
        results[i] = AbstractionResult(
            system=abstract, simfn=simfn, gains=gains, phat=live.phat[j], e=live.e[j],
            f=live.f[j], conditions=live.reports[j],
        )
    return unstack(single, failures, results)


def compute_k4(m, p, bhat, b, root=None):
    """Abstract-input matching gain and the resulting deviation gain.

    Minimizes ``|sqrt(M) (P Bhat - B K4)|`` columnwise (minimum-norm
    solution); ``rho`` is the spectral norm of the optimal residual.
    With no concrete input (``B`` has zero width) this degenerates to
    ``K4`` empty and ``rho = |sqrt(M) P Bhat|``. ``root`` is
    ``sqrtm_spd(m)`` when the caller has already formed it. Stacks give
    a stack of gains and one ``rho`` per member (the least-squares
    solves run member by member).
    """
    p, single = as_stack(p, "P")
    bhat, _ = as_stack(bhat, "Bhat")
    b, _ = as_stack(b, "B")
    root, _ = as_stack(sqrtm_spd(m) if root is None else root)
    target = root @ (p @ bhat)
    root_b = root @ b
    k4 = stack([least_squares(x, y)[0] for x, y in zip(root_b, target)])
    rho = spectral_norm(target - root_b @ k4)
    if single:
        return k4[0], float(rho[0])
    return k4, rho


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


def _relation_matrices(sys1: LinearSystem, sys2: LinearSystem):
    """Joint-space matrices of the relation between abstract ``sys1`` and
    concrete ``sys2``: ``A`` of both states, the concrete and abstract
    input matrices, the stacked disturbances and the output difference."""
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
    a12, b12, b21, d12, c12 = _relation_matrices(sys1, sys2)
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
