"""Subspace geometry for linear control: images, kernels, sums,
intersections and invariant hulls.

A subspace is represented by an orthonormal basis (columns) plus the
tolerance it was computed at. Tolerances travel with the subspace and
are never re-derived from the basis, so containment decisions stay
consistent across composite operations. :class:`Subspace` holds a basis
and does no arithmetic of its own.

:func:`image` and :func:`kernel` take stacks of matrices only and give
one subspace per member, each at its own rank; :func:`residuals`,
:func:`sums` and :func:`intersections` work on sequences of subspaces,
one per member, and stack the members of equal dimensions into one call
(:func:`~simcompose.linalg.by_shape`). One matrix is passed as a stack
of one (a bare matrix raises ``ValueError``), and one subspace as a
sequence of one: ``residuals([space], x[np.newaxis])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, as_matrix, by_shape, rank_tol


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


def zero_subspace(ambient: int, tol: float) -> Subspace:
    return Subspace(ambient, np.zeros((ambient, 0)), tol)


def _member_tols(a: np.ndarray, tol, routine: str) -> np.ndarray:
    """One cutoff per member of ``a``, after checking ``a`` is a stack."""
    if np.ndim(a) != 3:
        raise ValueError(
            f"{routine} takes a stack of matrices, got shape {np.shape(a)}; "
            "pass one matrix as a[np.newaxis]"
        )
    tol = np.asarray(rank_tol(a) if tol is None else tol, dtype=float)
    return np.full(len(a), tol) if tol.ndim == 0 else tol


def image(a: np.ndarray, tol=None) -> list[Subspace]:
    """Column space of each member of the stack ``a``, as orthonormal-basis
    subspaces; ``tol`` is one cutoff for every member or one per member."""
    tols = _member_tols(a, tol, "image")
    rows, cols = a.shape[-2:]
    if cols == 0:
        spaces = [Subspace(rows, np.zeros((rows, 0)), t) for t in tols.tolist()]
    else:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        ranks = (s > tols[:, None]).sum(axis=-1).tolist()
        spaces = [Subspace(rows, x[:, :r], t) for x, r, t in zip(u, ranks, tols.tolist())]
    return spaces


def kernel(a: np.ndarray, tol=None) -> list[Subspace]:
    """Null space of each member of the stack ``a``, as orthonormal-basis
    subspaces; ``tol`` is one cutoff for every member or one per member."""
    tols = _member_tols(a, tol, "kernel")
    rows, n = a.shape[-2:]
    if rows == 0 or n == 0:
        spaces = [Subspace(n, np.eye(n), t) for t in tols.tolist()]
    else:
        _, s, vt = np.linalg.svd(a, full_matrices=True)
        ranks = (s > tols[:, None]).sum(axis=-1).tolist()
        spaces = [Subspace(n, x[r:].T, t) for x, r, t in zip(vt, ranks, tols.tolist())]
    return spaces


def residuals(spaces, x) -> np.ndarray:
    """Largest distance of the columns of ``x[i]`` from ``spaces[i]``, for
    each member; ``x`` is a stack."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        return np.zeros(len(spaces))

    def largest(basis, cols):
        r = cols - basis @ (basis.swapaxes(-1, -2) @ cols)
        # the column norms as np.linalg.norm(r, axis=0) sums them
        with np.errstate(over="ignore"):
            squares = np.add.reduce(r * r, axis=-2)
        norms = np.sqrt(squares)
        # a finite column whose squares pass the float range: summed
        # again scaled to unit maximum entry
        over = ~np.isfinite(squares)
        if over.any():
            scale = np.abs(r).max(axis=-2)
            over &= np.isfinite(scale)
            scaled = r.swapaxes(-1, -2)[over] / scale[over][:, None]
            norms[over] = scale[over] * np.sqrt(np.add.reduce(scaled * scaled, axis=-1))
        return norms.max(axis=-1)

    return np.array(by_shape(largest, [s.basis for s in spaces], x))


def sums(first, second) -> list[Subspace]:
    """``first[i] + second[i]`` for each member."""
    out: list = [None] * len(first)
    todo = []
    for i, (u, w) in enumerate(zip(first, second)):
        if w.ambient != u.ambient:
            raise ValueError("ambient dimensions differ")
        if u.ambient and u.dim + w.dim:
            todo.append(i)
        else:
            out[i] = zero_subspace(u.ambient, max(u.tol, w.tol))
    stacked = by_shape(
        lambda u, w, tol: image(np.concatenate([u, w], axis=-1), tol=tol),
        [first[i].basis for i in todo],
        [second[i].basis for i in todo],
        np.array([max(first[i].tol, second[i].tol) for i in todo]),
    )
    for i, space in zip(todo, stacked):
        out[i] = space
    return out


def intersections(first, second) -> list[Subspace]:
    """``first[i] & second[i]`` for each member, from the kernel of the
    stacked bases: columns ``[a; b]`` with ``S a = T b`` span it via ``S a``."""
    out: list = [None] * len(first)
    todo = []
    for i, (u, w) in enumerate(zip(first, second)):
        if w.ambient != u.ambient:
            raise ValueError("ambient dimensions differ")
        if u.dim and w.dim:
            todo.append(i)
        else:
            out[i] = zero_subspace(u.ambient, max(u.tol, w.tol))
    tols = np.array([max(first[i].tol, second[i].tol) for i in todo])
    nulls = by_shape(
        lambda u, w, tol: kernel(np.concatenate([u, -w], axis=-1), tol=tol),
        [first[i].basis for i in todo],
        [second[i].basis for i in todo],
        tols,
    )
    stacked = by_shape(
        lambda u, null, tol: image(u @ null[:, : u.shape[-1]], tol=tol),
        [first[i].basis for i in todo],
        [null.basis for null in nulls],
        tols,
    )
    for i, space in zip(todo, stacked):
        out[i] = space
    return out


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
        if not current.dim:
            return current
        grown = sums([current], image((a @ current.basis)[np.newaxis], tol=current.tol))[0]
        if grown.dim == current.dim:
            return grown
        current = grown
    return current
