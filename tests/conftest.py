"""Shared generators for randomized tests.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed and the suite stays reproducible.
"""

import numpy as np

from simcompose.linalg import pbh_stabilizable, spectral_abscissa
from simcompose.systems import Interconnection, InternalChannel, LinearSystem


def random_hurwitz(rng, n):
    """Random dense matrix shifted until strictly Hurwitz."""
    a = rng.standard_normal((n, n))
    shift = spectral_abscissa(a) + rng.uniform(0.2, 1.5)
    return a - shift * np.eye(n)


def random_spd(rng, n):
    """Random symmetric positive definite matrix."""
    g = rng.standard_normal((n, n))
    return g @ g.T + (0.1 + rng.uniform()) * np.eye(n)


def random_valid_instance(rng, n, nhat, m, p=1, q=1, name="sys"):
    """Draw a subsystem and an injection satisfying all its conditions.

    The state matrix is corrected so that ``A (im P)`` lands inside
    ``im P + im B``, the disturbance matrix is assembled from an abstract
    part plus an input part (so coverage holds exactly), and the output
    rows are composed with the orthogonal projector onto ``im P`` so that
    ``ker C`` complements ``im P``.  The injection is drawn with
    orthonormal columns, which keeps the corrected state matrix at a
    moderate norm.  Pairs failing the PBH test are redrawn; random pairs
    essentially never do.
    """
    for _ in range(50):
        pmat, _ = np.linalg.qr(rng.standard_normal((n, nhat)))
        b = rng.standard_normal((n, m))
        a0 = rng.standard_normal((n, n))
        on_p = pmat @ rng.standard_normal((nhat, nhat)) + b @ rng.standard_normal((m, nhat))
        a = a0 + (on_p - a0 @ pmat) @ pmat.T
        d = pmat @ rng.standard_normal((nhat, p)) + b @ rng.standard_normal((m, p))
        c = rng.standard_normal((q, n)) @ (pmat @ pmat.T)
        ok, _ = pbh_stabilizable(a, b)
        if not ok:
            continue
        channels = (InternalChannel("w", p),) if p else ()
        return LinearSystem(name, a, b, c, d, channels, {}), pmat
    raise AssertionError("failed to draw a valid random instance")


def random_invariant_pair(rng, n, k):
    """Matrix with a known invariant subspace of dimension ``k``.

    Builds ``A = T [[X, Y], [0, Z]] T^{-1}`` with orthogonal ``T``, so the
    span of the first ``k`` columns of ``T`` is invariant and the spectrum
    splits as ``spec(X)`` union ``spec(Z)``.
    """
    t, _ = np.linalg.qr(rng.standard_normal((n, n)))
    upper = rng.standard_normal((n, n))
    upper[k:, :k] = 0.0
    a = t @ upper @ t.T
    return a, t[:, :k], upper[:k, :k], upper[k:, k:]


def random_network(rng, max_width, count=5, max_inputs=2):
    """Subsystems of 1-4 states and 0 to ``max_inputs`` inputs, each
    receiving from a random subset of the others over channels 1 to
    ``max_width`` wide."""
    names = [f"n{i}" for i in range(count)]
    sizes = rng.integers(1, 5, size=count)
    sources = [
        [j for j in range(count) if j != i and rng.uniform() < 0.6] for i in range(count)
    ]
    widths = {
        (i, j): int(rng.integers(1, max_width + 1)) for i in range(count) for j in sources[i]
    }
    subs = []
    for i, name in enumerate(names):
        n = sizes[i]
        channels = tuple(InternalChannel(names[j], widths[i, j]) for j in sources[i])
        outputs = {
            names[k]: rng.standard_normal((widths[k, i], n))
            for k in range(count) if i in sources[k]
        }
        subs.append(LinearSystem(
            name, rng.standard_normal((n, n)),
            rng.standard_normal((n, int(rng.integers(0, max_inputs + 1)))),
            rng.standard_normal((int(rng.integers(0, 3)), n)),
            rng.standard_normal((n, sum(ch.width for ch in channels))),
            channels, outputs,
        ))
    return Interconnection(subs)
