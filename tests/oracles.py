"""Test-side oracles: independent constructions the tests cross-check
the program against, beside scipy. None of them runs in the program.

- :func:`graph_subspace` and :func:`simfn_from_relation` build the
  deviation certificate from a joint-space relation, a second route to
  what :func:`~simcompose.abstraction.build_abstraction` computes from
  ``P``;
- :func:`check_relation` checks a joint-space relation between an
  abstract and a concrete subsystem, a test of the certificate that does
  not go through ``P``;
- :func:`open_loop` takes the PBH test that
  :func:`~simcompose.abstraction.check_P_conditions` runs before a
  certificate is computed, for tests that call ``decay_certificate`` or
  ``stabilize`` on pairs directly;
- :func:`eval_simfn` evaluates a deviation function at one pair of
  states, the reference for the sampled ``V`` of
  :func:`~simcompose.simulate.refine_and_run`;
- :func:`interface` evaluates the interface law at one point, the
  reference for the gains :func:`~simcompose.abstraction.interface_gains`
  writes into the joint system;
- :func:`integrate` runs one linear system through the program's one
  propagator, ``simulate._run_lti``;
- :func:`build_monolithic` flattens an interconnection into one system,
  the dense joint matrices ``simulate.refine_and_run`` assembles from
  subsystem blocks;
- :func:`vector_recursion` iterates the per-subsystem deviation
  recursion whose fixed point :func:`~simcompose.simulate.vector_bound`
  solves for;
- :func:`project` and :func:`contains` project onto a subspace and
  decide containment;
- :func:`serialize_project` writes a parsed project back as a document.
"""

from dataclasses import dataclass

import numpy as np

from simcompose.abstraction import QuadraticSimFn, compute_k4, decay_certificate, interface_gains
from simcompose.geometry import Subspace, image, residuals, sums
from simcompose.linalg import (
    Matrix,
    NumericsError,
    as_matrix,
    least_squares,
    pbh_stabilizable,
    residual_ok,
    spectral_norm,
    sqrtm_spd,
)
from simcompose.simulate import Signal, Trajectory, _run_lti, time_grid
from simcompose.systems import Interconnection, LinearSystem


def graph_subspace(p) -> Subspace:
    """The relation ``{(xhat, P xhat)}`` as a joint-space subspace."""
    p = as_matrix(p, "P")
    return image(np.vstack([np.eye(p.shape[1]), p])[np.newaxis])[0]


def simfn_from_relation(sys1, sys2, r: Subspace) -> QuadraticSimFn:
    """Deviation certificate built from a joint-space relation.

    Requires ``r`` to be the graph of an injection (abstract states on
    top); extracts that map and assembles the certificate directly from
    the relation conditions, independently of ``build_abstraction``.
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
    a2, b2 = sys2.A[np.newaxis], sys2.B[np.newaxis]
    (m,), (k1,), (lam,) = decay_certificate(
        a2, b2, [blk[np.newaxis] for blk in sys2.output_blocks()], *open_loop(a2, b2)
    )
    k2 = least_squares(b2, (sys2.A @ p - p @ sys1.A)[np.newaxis])[0][0]
    k3 = least_squares(b2, (sys2.D - p @ sys1.D)[np.newaxis])[0][0]
    k4 = compute_k4(sqrtm_spd(m[np.newaxis]), p[np.newaxis], sys1.B[np.newaxis], b2)[0][0]
    return QuadraticSimFn(P=p, M=m, K1=k1, K2=k2, K3=k3, K4=k4, lam=lam)


def open_loop(a, b):
    """``(abscissa, norm)`` of the stacks of pairs ``(a, b)``: the
    open-loop spectral abscissae and ``|a|_2`` that ``decay_certificate``
    and ``stabilize`` take, from the PBH test ``check_P_conditions``
    runs. A stack with a pair that fails the test raises
    ``NumericsError`` naming the first such pair's witness."""
    norm = spectral_norm(a)
    ok, witness, abscissa = pbh_stabilizable(a, b, norm)
    if not ok.all():
        raise NumericsError(
            f"pair is not stabilizable: eigenvalue {witness[np.argmin(ok)]} "
            "cannot be moved by the input"
        )
    return abscissa, norm


def interface(fn: QuadraticSimFn, xhat, x, what, uhat) -> np.ndarray:
    """Concrete input that tracks the abstract system.

    ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``.
    """
    signals = [np.asarray(s, dtype=float).reshape(-1) for s in (xhat, x, what, uhat)]
    return sum(g @ s for g, s in zip(interface_gains(fn), signals))


def eval_simfn(fn: QuadraticSimFn, xhat, x) -> float:
    """Value of the deviation function ``|sqrt(M) (x - P xhat)|`` at one
    abstract/concrete pair."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    e = x - fn.P @ xhat
    return float(np.sqrt(max(e @ fn.M @ e, 0.0)))


def _stacked_outputs(sys: LinearSystem) -> Matrix:
    blocks = sys.output_blocks()
    if not blocks:
        return np.zeros((0, sys.n))
    return np.vstack(blocks)


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

    def norm(x):
        return spectral_norm(x[np.newaxis])[0]

    target = sums([r], image(b12[np.newaxis]))[0]
    inv_res = residuals([target], (a12 @ r.basis)[np.newaxis])[0] if r.dim else 0.0
    dist_res = residuals([target], d12[np.newaxis])[0] if d12.shape[1] else 0.0
    out_res = norm(c12 @ r.basis) if r.dim else 0.0
    feed_res = residuals([target], b21[np.newaxis])[0] if b21.shape[1] else 0.0
    invariant = residual_ok(inv_res, norm(a12))
    ok_stab, witness = (False, None)
    if invariant:
        ok, witnesses, _ = pbh_stabilizable(
            a12[np.newaxis], np.hstack([b12, r.basis])[np.newaxis], spectral_norm(a12[np.newaxis])
        )
        ok_stab, witness = ok[0], witnesses[0]
    return RelationReport(
        controlled_invariant=invariant,
        stabilizable=ok_stab,
        witness=witness,
        invariance_residual=float(inv_res),
        disturbance_residual=float(dist_res),
        output_residual=float(out_res),
        feedthrough_residual=float(feed_res),
        disturbance_ok=residual_ok(dist_res, norm(d12)),
        output_ok=residual_ok(out_res, norm(c12)),
        feedthrough_ok=residual_ok(feed_res, norm(b21)),
    )


def integrate(sys, x0, u: Signal | None = None, w: Signal | None = None,
              t_final: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """Integrate a linear system under piecewise-constant inputs.

    Classical fourth-order steps with the inputs held over each step:
    external input ``u`` and internal input ``w``.  A network flattened
    by :func:`build_monolithic` has no internal
    inputs; its couplings are already folded into the state matrix.

    Returns
    -------
    Trajectory
        States and external outputs on the uniform grid.
    """
    if not isinstance(sys, LinearSystem):
        raise TypeError(f"cannot integrate {type(sys).__name__}")
    n = sys.n
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if len(x0) != n:
        raise ValueError(f"initial state has length {len(x0)}, expected {n}")
    if not np.isfinite(x0).all():
        raise ValueError("initial state has non-finite entries")
    grid = time_grid(t_final, dt)
    inputs = []
    for mat, sig in ((sys.B, u), (sys.D, w)):
        width = mat.shape[1]
        if sig is None:
            sig = Signal.zero(width)
        if sig.width != width:
            raise ValueError(
                f"signal width {sig.width} does not match input width {width}"
            )
        inputs.append(sig.sample(grid))
    states = _run_lti(
        sys.A, np.hstack([sys.B, sys.D]), np.hstack(inputs), x0, grid, dt
    )
    return Trajectory(grid, states, states @ sys.C_ext.T)


def build_monolithic(ic: Interconnection) -> LinearSystem:
    """Flatten an interconnection by substituting ``w_ij = C_ji x_j``.

    The result is one system named ``"network"`` with no internal
    inputs, laid out as ``ic`` records: ``A`` holds the subsystem blocks
    on the diagonal and each coupling ``D_i[:, channel from j] @ C_ji``
    in its ``(i, j)`` block, and ``B`` and ``C_ext`` are block diagonal
    over the external inputs and outputs.
    """
    states, inputs, outputs = ic.state_offsets, ic.input_offsets, ic.output_offsets
    n_total = states[-1]
    a = np.zeros((n_total, n_total))
    b = np.zeros((n_total, inputs[-1]))
    c = np.zeros((outputs[-1], n_total))
    for i, sub in enumerate(ic.subsystems):
        rows = slice(states[i], states[i + 1])
        a[rows, rows] = sub.A
        for ch in sub.channels_in:
            # added onto zeros, as in a full-width sum, so zero signs match it
            a[rows, ic.state_slice(ch.source)] += (
                sub.d_block(ch.source) @ ic[ch.source].C_int[sub.name]
            )
        b[rows, inputs[i]:inputs[i + 1]] = sub.B
        c[outputs[i]:outputs[i + 1], rows] = sub.C_ext
    return LinearSystem("network", a, b, c, np.zeros((n_total, 0)), (), {})


def vector_recursion(gm, uhat_inf, v0=None, steps: int = 50) -> np.ndarray:
    """The iterates ``V <- Lambda^-1 (Gamma V + Zhat)`` from ``v0`` (zero
    when omitted), ``Zhat_i = rho_i * uhat_inf_i``: a ``(steps + 1, N)``
    array, the start first. Their fixed point solves ``(Lambda - Gamma)
    V = Zhat``."""
    z = gm.rho * np.asarray(uhat_inf, dtype=float)
    iterates = np.empty((steps + 1, len(z)))
    iterates[0] = np.zeros_like(z) if v0 is None else np.asarray(v0, dtype=float)
    for k in range(steps):
        iterates[k + 1] = (gm.gamma @ iterates[k] + z) / gm.lam
    return iterates


def project(space: Subspace, x) -> np.ndarray:
    """Orthogonal projection of vectors (columns) onto the subspace."""
    x = np.asarray(x, dtype=float)
    return space.basis @ (space.basis.T @ x)


def contains(space: Subspace, other) -> bool:
    """Containment test for a Subspace or for explicit column vectors."""
    if isinstance(other, Subspace):
        if other.ambient != space.ambient:
            raise ValueError("ambient dimensions differ")
        return residuals([space], other.basis[np.newaxis])[0] <= max(space.tol, other.tol)
    return residuals([space], as_matrix(other, "x")[np.newaxis])[0] <= space.tol


def serialize_project(project) -> dict:
    """Project back to a JSON document with all parameters resolved.

    Floats survive the JSON round trip bit for bit, so parsing the
    result reproduces the same interconnection exactly.
    """
    subsystems = []
    for sub in project.interconnection.subsystems:
        directive = project.directives[sub.name]
        abstraction = {"P": directive.p}
        if directive.certificate is not None:
            m, k1, lam = directive.certificate
            abstraction["certificate"] = {"M": m, "K1": k1, "lambda": lam}
        subsystems.append({
            "name": sub.name, "A": sub.A, "B": sub.B, "C": sub.C_ext, "D": sub.D,
            "inputs": [{"from": ch.source, "width": ch.width} for ch in sub.channels_in],
            "outputs_to": dict(sorted(sub.C_int.items())),
            "abstraction": abstraction,
        })
    sim = project.simulation
    simulation = {"t_final": sim.t_final, "dt": sim.dt, "x0": sim.x0, "inputs": sim.inputs}
    if sim.xhat0 is not None:
        simulation["xhat0"] = sim.xhat0
    return _lists({"subsystems": subsystems, "simulation": simulation})


def _lists(value):
    """A document with every array written back as nested lists."""
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_lists(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value
