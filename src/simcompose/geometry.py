"""Subspace geometry for linear control: images, kernels, sums,
intersections and invariant hulls.

A subspace is represented by an orthonormal basis (columns) plus the
tolerance it was computed at. Tolerances travel with the subspace and
are never re-derived from the basis, so containment decisions stay
consistent across composite operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, as_matrix, rank_tol


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
