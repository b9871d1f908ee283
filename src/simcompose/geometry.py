"""Subspace geometry for linear control: images, kernels, invariant
subspaces, friends, and quotient dynamics.

A subspace is represented by an orthonormal basis (columns) plus the
tolerance it was computed at. Tolerances travel with the subspace and
are never re-derived from the basis, so containment decisions stay
consistent across composite operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Matrix,
    as_matrix,
    least_squares,
    pbh_stabilizable,
    rank_tol,
    residual_ok,
    spectral_norm,
)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^ambient with an orthonormal basis."""

    ambient: int
    basis: Matrix  # shape (ambient, dim), orthonormal columns
    tol: float

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != self.ambient:
            raise ValueError(
                f"basis must be {self.ambient} x k, got shape {basis.shape}"
            )
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of vectors (columns) onto the subspace."""
        x = np.asarray(x, dtype=float)
        return self.basis @ (self.basis.T @ x)

    def residual(self, x) -> float:
        """Largest distance of the given columns from the subspace."""
        x = as_matrix(np.asarray(x, dtype=float), "x")
        if x.shape[1] == 0:
            return 0.0
        r = x - self.project(x)
        return float(np.linalg.norm(r, axis=0).max())

    def contains(self, other) -> bool:
        """Containment test for a Subspace or for explicit column vectors."""
        if isinstance(other, Subspace):
            if other.ambient != self.ambient:
                raise ValueError("ambient dimensions differ")
            return self.residual(other.basis) <= max(self.tol, other.tol)
        return self.residual(other) <= self.tol

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimensions differ")
        tol = max(self.tol, other.tol)
        stacked = np.hstack([self.basis, other.basis])
        return image(stacked, tol=tol) if stacked.size else zero_subspace(self.ambient, tol)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, computed from the kernel of the stacked bases."""
        if other.ambient != self.ambient:
            raise ValueError("ambient dimensions differ")
        tol = max(self.tol, other.tol)
        if self.dim == 0 or other.dim == 0:
            return zero_subspace(self.ambient, tol)
        # columns [a; b] with S a = T b span the intersection via S a
        null = kernel(np.hstack([self.basis, -other.basis]), tol=tol)
        vecs = self.basis @ null.basis[: self.dim]
        return image(vecs, tol=tol)

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        if self.dim == 0:
            return image(np.eye(self.ambient), tol=self.tol)
        return kernel(self.basis.T, tol=self.tol)


def zero_subspace(ambient: int, tol: float | None = None) -> Subspace:
    return Subspace(ambient, np.zeros((ambient, 0)), rank_tol(np.eye(max(ambient, 1))) if tol is None else tol)


def image(a, tol: float | None = None) -> Subspace:
    """Column space of ``a`` as an orthonormal-basis subspace."""
    a = as_matrix(a, "a")
    if tol is None:
        tol = rank_tol(a)
    if a.shape[1] == 0:
        return Subspace(a.shape[0], np.zeros((a.shape[0], 0)), tol)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol))
    return Subspace(a.shape[0], u[:, :rank], tol)


def kernel(a, tol: float | None = None) -> Subspace:
    """Null space of ``a`` as an orthonormal-basis subspace."""
    a = as_matrix(a, "a")
    n = a.shape[1]
    if tol is None:
        tol = rank_tol(a)
    if a.shape[0] == 0 or n == 0:
        return Subspace(n, np.eye(n), tol)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > tol))
    return Subspace(n, vt[rank:].T, tol)


def minimal_invariant(a, seed: Subspace) -> Subspace:
    """Smallest ``a``-invariant subspace containing ``seed``.

    Fixpoint iteration ``S <- seed + a S``; the dimension grows strictly
    until the fixpoint, so at most ``ambient`` rounds are needed.
    """
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape != (n, n) or seed.ambient != n:
        raise ValueError("a must be square and match the seed's ambient dimension")
    current = seed
    for _ in range(n + 1):
        grown = current.sum(image(a @ current.basis, tol=current.tol)) if current.dim else current
        if grown.dim == current.dim:
            return grown
        current = grown
    return current


def friend(a, b, r: Subspace) -> Matrix | None:
    """A feedback ``K`` making ``r`` invariant for ``a + b K``, or None.

    Among all residual-minimizing feedbacks the Frobenius-minimal one is
    returned (so an already-invariant subspace, the zero subspace, and
    the whole space all yield ``K = 0``). Returns None when the
    containment residual cannot be brought below the invariance
    tolerance, i.e. the subspace is not controlled invariant.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or r.ambient != n:
        raise ValueError("dimension mismatch between a, b and the subspace")
    m = b.shape[1]
    if r.dim == 0:
        return np.zeros((m, n))
    v = r.basis
    proj_out = np.eye(n) - v @ v.T
    # A v + B (K v) must stay in span(v): solve for W = K v minimizing
    # the out-of-subspace residual, minimum-norm via least squares.
    w, _ = least_squares(proj_out @ b, -proj_out @ a @ v)
    k = w @ v.T
    residual = spectral_norm(proj_out @ (a + b @ k) @ v)
    if not residual_ok(residual, a):
        return None
    return k


@dataclass(frozen=True)
class QuotientData:
    """Change of basis splitting an invariant subspace off the state space.

    ``t_inv @ a @ t`` is block upper triangular; ``f22`` is the quotient
    dynamics and ``pi`` the quotient projection, satisfying
    ``f22 @ pi == pi @ a``.
    """

    t: Matrix
    t_inv: Matrix
    f22: Matrix
    pi: Matrix

    @property
    def dim_invariant(self) -> int:
        return self.t.shape[1] - self.f22.shape[0]


def quotient(a, r: Subspace) -> QuotientData:
    """Quotient dynamics of ``a`` modulo the ``a``-invariant subspace ``r``.

    Raises
    ------
    ValueError
        If ``r`` is not invariant under ``a`` (residual reported).
    """
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape != (n, n) or r.ambient != n:
        raise ValueError("a must be square and match the subspace's ambient dimension")
    v = r.basis
    v_perp = r.complement().basis
    residual = spectral_norm(v_perp.T @ a @ v) if r.dim and v_perp.shape[1] else 0.0
    if not residual_ok(residual, a):
        raise ValueError(
            f"subspace is not invariant: out-of-subspace residual {residual:.3e}"
        )
    t = np.hstack([v, v_perp])
    t_inv = t.T  # orthogonal by construction
    pi = v_perp.T
    f22 = pi @ a @ v_perp
    return QuotientData(t=t, t_inv=t_inv, f22=f22, pi=pi)


def externally_stabilizable(a, b, r: Subspace) -> tuple[bool, complex | None]:
    """Can the dynamics transverse to ``r`` be stabilized by ``b``?

    First closes the loop with a friend of ``r`` (error if none exists),
    then runs the PBH test on the quotient pair. The friend's residual
    freedom only enters the quotient through the projected input, so any
    friend gives the same verdict.

    Returns ``(ok, witness_eigenvalue)``.
    """
    k0 = friend(a, b, r)
    if k0 is None:
        raise ValueError("subspace is not controlled invariant; no friend exists")
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    q = quotient(a + b @ k0, r)
    return pbh_stabilizable(q.f22, q.pi @ b)
