"""Shared generators for randomized tests.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed and the suite stays reproducible.
"""

import numpy as np

from simcompose.linalg import pbh_stabilizable, spectral_abscissa, spectral_norm
from simcompose.systems import Interconnection, InternalChannel, LinearSystem


def random_hurwitz(rng, n):
    """Random dense matrix shifted until strictly Hurwitz."""
    a = rng.standard_normal((n, n))
    shift = spectral_abscissa(a[None])[0] + rng.uniform(0.2, 1.5)
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
        (ok,), _, _ = pbh_stabilizable(a[None], b[None], spectral_norm(a[None]))
        if not ok:
            continue
        channels = (InternalChannel("w", p),) if p else ()
        return LinearSystem(name, a, b, c, d, channels, {}), pmat
    raise AssertionError("failed to draw a valid random instance")


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


def heterogeneous_ring(rng, size, coupling=0.05):
    """Project document of a directed ring of ``size`` nodes that differ.

    Each node is a companion-form chain ``x''' = -c0 x - c1 x' - c2 x'' + u
    + d w`` whose last row comes from random stable roots, a real triple
    or a real root and a complex pair, so the ring mixes real and complex
    spectra. ``P = e1`` passes the injection conditions, since ``A e1``
    lies in ``im B``. Each node hears its predecessor's position through
    ``d`` of at most ``coupling``, small enough for the small-gain test
    with computed certificates.
    """
    names = [f"h{i:03d}" for i in range(size)]
    subsystems = []
    for i, name in enumerate(names):
        real = -rng.uniform(0.4, 1.5)
        if rng.uniform() < 0.5:
            part, freq = -rng.uniform(0.4, 1.5), rng.uniform(0.2, 2.0)
            roots = [real, complex(part, freq), complex(part, -freq)]
        else:
            roots = [real, -rng.uniform(0.4, 1.5), -rng.uniform(0.4, 1.5)]
        c0, c1, c2 = np.real(np.poly(roots))[:0:-1].tolist()
        subsystems.append({
            "name": name,
            "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-c0, -c1, -c2]],
            "B": [[0.0], [0.0], [1.0]],
            "C": [[1.0, 0.0, 0.0]],
            "D": [[0.0], [0.0], [coupling * float(rng.uniform(0.5, 1.0))]],
            "inputs": [{"from": names[i - 1], "width": 1}],
            "outputs_to": {names[(i + 1) % size]: [[1.0, 0.0, 0.0]]},
            "abstraction": {"P": [[1.0], [0.0], [0.0]]},
        })
    return {
        "subsystems": subsystems,
        "simulation": {"t_final": 0.2, "dt": 0.01, "x0": "matched"},
    }
