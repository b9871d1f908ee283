"""Subspace arithmetic and invariant-subspace algorithm tests."""

import numpy as np
import pytest

from simcompose.geometry import (
    image,
    intersections,
    kernel,
    minimal_invariant,
    residuals,
    sums,
    zero_subspace,
)
from simcompose.linalg import spectral_norm

from oracles import contains, project

DAMPED_NODE = np.array([[0.0, 1.0], [-6.0, -5.0]])
NODE_COUPLING = np.array([[-0.5], [1.0]])


def krylov_span(a, seed_basis):
    """Brute-force smallest invariant subspace: stack seed, A seed, ...

    Each power block is rescaled to unit norm (the span is unchanged) so
    the dominant eigenvalue cannot swamp the rank decision.
    """
    n = a.shape[0]
    blocks = [seed_basis]
    for _ in range(n - 1):
        nxt = a @ blocks[-1]
        scale = np.linalg.norm(nxt)
        blocks.append(nxt / scale if scale > 0 else nxt)
    return image(np.hstack(blocks)[None])[0] if seed_basis.size else zero_subspace(n)


def test_image_examples():
    assert image(np.zeros((1, 3, 2)))[0].dim == 0
    span = image(NODE_COUPLING[None])[0]
    assert span.dim == 1
    assert residuals([span], np.array([[[1.0], [-2.0]]]))[0] <= 1e-12


def test_kernel_examples():
    ker = kernel(np.array([[[1.0, 0.0, 0.0]]]))[0]
    assert ker.dim == 2
    assert residuals([ker], np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))[0] <= 1e-12
    assert kernel(np.eye(3)[None])[0].dim == 0
    assert kernel(np.zeros((1, 0, 4)))[0].dim == 4


@pytest.mark.parametrize("a", [np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.zeros((3, 0))])
def test_image_rejects_one_matrix(a):
    # the one-matrix form is gone: a matrix must come as a stack of one
    with pytest.raises(ValueError, match=r"image takes a stack of matrices, got shape"):
        image(a)


@pytest.mark.parametrize("a", [np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.zeros((3, 0))])
def test_kernel_rejects_one_matrix(a):
    with pytest.raises(ValueError, match=r"kernel takes a stack of matrices, got shape"):
        kernel(a)


def test_rank_nullity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rows = rng.integers(1, 6)
        cols = rng.integers(1, 6)
        rank = rng.integers(0, min(rows, cols) + 1)
        a = (
            rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            if rank
            else np.zeros((rows, cols))
        )
        assert image(a[None])[0].dim + kernel(a[None])[0].dim == cols


def test_subspace_projection_and_residual():
    rng = np.random.default_rng(5)
    sub = image(rng.standard_normal((5, 2))[None])[0]
    x = rng.standard_normal(5)
    proj = project(sub, x)
    assert np.allclose(project(sub, proj), proj, atol=1e-12)
    assert residuals([sub], proj[None, :, None])[0] <= 1e-12
    assert residuals([sub], (x - proj)[None, :, None])[0] == pytest.approx(
        np.linalg.norm(x - proj), abs=1e-10
    )


def test_contains_is_a_partial_order():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vecs = rng.standard_normal((5, 3))
        small = image(vecs[None, :, :1])[0]
        mid = image(vecs[None, :, :2])[0]
        large = image(vecs[None])[0]
        assert contains(small, small)
        assert contains(mid, small) and contains(large, mid)
        assert contains(large, small)
        assert not contains(small, mid)


def test_sum_and_intersection_dimensions():
    # dim(U + W) + dim(U & W) = dim U + dim W.
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = rng.integers(2, 7)
        u = image(rng.standard_normal((n, rng.integers(1, n + 1)))[None])[0]
        w = image(rng.standard_normal((n, rng.integers(1, n + 1)))[None])[0]
        (total,) = sums([u], [w])
        (overlap,) = intersections([u], [w])
        assert total.dim + overlap.dim == u.dim + w.dim
        assert contains(total, u) and contains(total, w)
        assert contains(u, overlap) and contains(w, overlap)


def test_minimal_invariant_zero_seed():
    grown = minimal_invariant(np.eye(3), zero_subspace(3))
    assert grown.dim == 0


def test_minimal_invariant_eigenvector_seed():
    # (1, -2) is an eigenvector of the node matrix, so the span is already
    # invariant and the iteration stops at dimension one.
    grown = minimal_invariant(DAMPED_NODE, image(NODE_COUPLING[None])[0])
    assert grown.dim == 1
    assert residuals([grown], NODE_COUPLING[None])[0] <= 1e-12


def test_minimal_invariant_grows_to_reachable_space():
    # A triple integrator driven through the last state reaches everything.
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    grown = minimal_invariant(a, image(np.array([[[0.0], [0.0], [1.0]]]))[0])
    assert grown.dim == 3


def test_minimal_invariant_matches_krylov():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = rng.integers(1, 7)
        a = rng.standard_normal((n, n))
        seed_cols = rng.integers(0, 3)
        seed_mat = rng.standard_normal((n, seed_cols))
        grown = minimal_invariant(a, image(seed_mat[None])[0])
        brute = krylov_span(a, seed_mat)
        assert grown.dim == brute.dim
        assert contains(grown, brute) and contains(brute, grown)
        if grown.dim:
            assert residuals([grown], (a @ grown.basis)[None])[0] <= 1e-8 * max(
                1.0, spectral_norm(a[None])[0]
            )
