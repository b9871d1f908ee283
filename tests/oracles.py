"""Test-side oracles: independent constructions the tests cross-check
the program against, beside scipy. None of them runs in the program.

- :func:`graph_subspace` and :func:`simfn_from_relation` build the
  deviation certificate from a joint-space relation, a second route to
  what :func:`~simcompose.abstraction.build_abstraction` computes from
  ``P``;
- :func:`project` and :func:`contains` project onto a subspace and
  decide containment;
- :func:`serialize_project` writes a parsed project back as a document.
"""

import numpy as np

from simcompose.abstraction import QuadraticSimFn, compute_k4, decay_certificate
from simcompose.geometry import Subspace, image
from simcompose.linalg import as_matrix, least_squares


def graph_subspace(p) -> Subspace:
    """The relation ``{(xhat, P xhat)}`` as a joint-space subspace."""
    p = as_matrix(p, "P")
    return image(np.vstack([np.eye(p.shape[1]), p]))


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
    m, k1, lam = decay_certificate(sys2.A, sys2.B, sys2.output_blocks())
    k2, _ = least_squares(sys2.B, sys2.A @ p - p @ sys1.A)
    k3, _ = least_squares(sys2.B, sys2.D - p @ sys1.D)
    k4, _ = compute_k4(m, p, sys1.B, sys2.B)
    return QuadraticSimFn(P=p, M=m, K1=k1, K2=k2, K3=k3, K4=k4, lam=lam)


def project(space: Subspace, x) -> np.ndarray:
    """Orthogonal projection of vectors (columns) onto the subspace."""
    x = np.asarray(x, dtype=float)
    return space.basis @ (space.basis.T @ x)


def contains(space: Subspace, other) -> bool:
    """Containment test for a Subspace or for explicit column vectors."""
    if isinstance(other, Subspace):
        if other.ambient != space.ambient:
            raise ValueError("ambient dimensions differ")
        return space.residual(other.basis) <= max(space.tol, other.tol)
    return space.residual(other) <= space.tol


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
