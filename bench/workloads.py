"""Project documents for the benchmark workloads.

Each generator returns a JSON-ready project document; the program only
ever sees that document, written to disk.  ``ring`` and ``wide`` are
drawn from ``numpy.random.default_rng(seed)``, so one seed always gives
the same document.  ``demo`` is the bundled example and ignores the
seed, because its published values are fixed.
"""

import numpy as np

WORKLOADS = ("demo", "ring", "wide")

# ring: triple integrators x''' = u + d w coupled in one directed cycle.
RING_SIZE = 200
# With computed certificates the small-gain radius is about 0.72 * d / 0.2
# (the geometric mean of d over the cycle); d = 0.3 fails at 1.08.
RING_COUPLING = (0.12, 0.2)
RING_T_FINAL = 2.0

# wide: three dense subsystems reduced along a random 3-dimensional P.
WIDE_COUNT = 3
WIDE_STATES = 60
WIDE_ABSTRACT = 3
WIDE_INPUTS = 2
# Spectral radius of Gamma Lambda^-1 the couplings are scaled to.
WIDE_TARGET_RADIUS = 0.5
WIDE_T_FINAL = 2.0

DT = 1e-3
_INTEGRATOR_A = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
_E1 = [[1.0, 0.0, 0.0]]


def generate(name: str, seed: int) -> dict:
    if name == "demo":
        from simcompose.demo import demo_project

        return demo_project()
    rng = np.random.default_rng(seed)
    if name == "ring":
        return ring_project(rng)
    if name == "wide":
        return wide_project(rng)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")


def _square(rng, width: int, amplitude: float) -> dict:
    """Square wave whose switch times fall mid-step, never on a grid point."""
    half = (int(rng.integers(150, 600)) + 0.5) * DT
    return {
        "kind": "square",
        "amplitude": (amplitude * rng.uniform(-1.0, 1.0, width)).tolist(),
        "period": 2.0 * half,
    }


def ring_project(rng, size: int = RING_SIZE) -> dict:
    """``size`` triple integrators, each listening to its predecessor.

    Every node is abstracted to its position (``P = e1``) with a computed
    certificate; its abstract input has width 3 (``Bhat = [phat B, phat A
    E]`` with ``dim ker C = 2``).  The start is matched, ``x0 = P xhat0``.
    """
    names = [f"r{i:03d}" for i in range(size)]
    couplings = rng.uniform(*RING_COUPLING, size)
    subsystems = []
    for i, name in enumerate(names):
        subsystems.append({
            "name": name,
            "A": _INTEGRATOR_A,
            "B": [[0.0], [0.0], [1.0]],
            "C": _E1,
            "D": [[0.0], [0.0], [float(couplings[i])]],
            "inputs": [{"from": names[i - 1], "width": 1}],
            "outputs_to": {names[(i + 1) % size]: _E1},
            "abstraction": {"P": [[1.0], [0.0], [0.0]]},
        })
    return {
        "subsystems": subsystems,
        "simulation": {
            "t_final": RING_T_FINAL,
            "dt": DT,
            "xhat0": rng.uniform(-0.5, 0.5, size).tolist(),
            "x0": "matched",
            "inputs": {name: _square(rng, 3, 0.05) for name in names},
        },
    }


def _lyapunov_eig(a: np.ndarray) -> np.ndarray:
    """``X`` with ``a^T X + X a = -I`` through an eigendecomposition of ``a``.

    Accurate enough to scale couplings; the program's own solver is
    checked against scipy elsewhere.
    """
    vals, vecs = np.linalg.eig(a)
    inv = np.linalg.inv(vecs)
    # with a = V L V^-1 and X = V^-H Y V^-1 the equation decouples into
    # conj(l_i) Y_ij + Y_ij l_j = -(V^H V)_ij
    y = -(vecs.conj().T @ vecs) / (vals.conj()[:, None] + vals[None, :])
    return (inv.conj().T @ y @ inv).real


def _dense_subsystem(rng):
    """Random ``(A, B, P, R)`` satisfying every injection condition.

    ``A (im P)`` lies in ``im P + im B`` by construction, and output rows
    ``r P^T`` make ``ker C`` complement ``im P``.  ``A`` is then shifted by
    a multiple of the identity so its spectral abscissa sits at ``-gap``:
    dense random matrices have stable modes arbitrarily close to the
    imaginary axis, which leaves the decay certificate too stiff to scale.
    The shift keeps the injection conditions, since ``(A - sI) P = P (Ahat
    - sI) + B K2``.
    """
    n, nhat, m = WIDE_STATES, WIDE_ABSTRACT, WIDE_INPUTS
    p, _ = np.linalg.qr(rng.standard_normal((n, nhat)))
    b = rng.standard_normal((n, m))
    a0 = rng.standard_normal((n, n)) / np.sqrt(n)
    on_p = p @ rng.standard_normal((nhat, nhat)) + b @ rng.standard_normal((m, nhat))
    a = a0 + (on_p - a0 @ p) @ p.T
    gap = rng.uniform(0.4, 0.8)
    a -= (np.linalg.eigvals(a).real.max() + gap) * np.eye(n)
    return a, b, p


def wide_project(rng) -> dict:
    """Three dense 60-state subsystems, each fed by the other two.

    Every coupling column is drawn inside ``im P + im B`` and scaled so
    that its certificate gain is ``c * lam_i``.  Gamma Lambda^-1 is then
    similar to ``c (J - I)``, whose spectral radius is ``2 c``.  Inputs are
    square waves and the concrete start is offset from ``P xhat0``.
    """
    names = [f"w{i}" for i in range(WIDE_COUNT)]
    c = WIDE_TARGET_RADIUS / (WIDE_COUNT - 1)
    subsystems, x0 = [], []
    xhat0 = rng.uniform(-0.5, 0.5, WIDE_COUNT * WIDE_ABSTRACT)
    for i, name in enumerate(names):
        a, b, p = _dense_subsystem(rng)
        peers = [peer for peer in names if peer != name]
        rows = {label: rng.standard_normal((1, WIDE_ABSTRACT)) @ p.T
                for label in ["ext", *peers]}
        # the certificate the program will compute: K1 = 0 (A is Hurwitz),
        # lam half the decay margin, M the shifted Lyapunov solution scaled
        # to dominate every output block
        lam = 0.5 * abs(np.linalg.eigvals(a).real.max())
        m0 = _lyapunov_eig(a + lam * np.eye(len(a)))
        m0 = 0.5 * (m0 + m0.T)
        chol = np.linalg.cholesky(m0)
        scale = max(np.linalg.norm(np.linalg.solve(chol, r.T), 2) ** 2
                    for r in rows.values())
        root_m = np.linalg.cholesky(1.01 * scale * m0).T
        d = np.empty((WIDE_STATES, len(peers)))
        for k in range(len(peers)):
            col = p @ rng.standard_normal(WIDE_ABSTRACT) + b @ rng.standard_normal(WIDE_INPUTS)
            d[:, k] = col * (c * lam / np.linalg.norm(root_m @ col))
        subsystems.append({
            "name": name,
            "A": a.tolist(),
            "B": b.tolist(),
            "C": rows["ext"].tolist(),
            "D": d.tolist(),
            "inputs": [{"from": peer, "width": 1} for peer in peers],
            "outputs_to": {peer: rows[peer].tolist() for peer in peers},
            "abstraction": {"P": p.tolist()},
        })
        start = xhat0[i * WIDE_ABSTRACT:(i + 1) * WIDE_ABSTRACT]
        x0.append(p @ start + rng.uniform(-0.05, 0.05, WIDE_STATES))
    # Bhat = [phat B, phat A E] with dim ker C = WIDE_STATES - 3
    width = WIDE_INPUTS + WIDE_STATES - WIDE_ABSTRACT
    return {
        "subsystems": subsystems,
        "simulation": {
            "t_final": WIDE_T_FINAL,
            "dt": DT,
            "xhat0": xhat0.tolist(),
            "x0": np.concatenate(x0).tolist(),
            "inputs": {name: _square(rng, width, 0.02) for name in names},
        },
    }
