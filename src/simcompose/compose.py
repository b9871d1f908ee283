"""Network-level composition of per-subsystem deviation certificates.

The per-subsystem gains are collected into a matrix ``Gamma`` (entry
``(i, j)``: summed mu coefficients of subsystem ``i`` over the scalar
channels it receives from ``j``) and a diagonal ``Lambda`` of decay
rates. When the spectral radius of ``Gamma Lambda^{-1}`` is below one, a
max-form deviation function for the whole network exists; its weights
come from a positive vector ``eta`` satisfying the strict small-gain
inequality ``(1 + eps) Gamma Lambda^{-1} eta < eta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionResult, ComparisonGains
from .linalg import BRACKET_TOL, EPSILON_SAFETY, Matrix, NumericsError
from .systems import Interconnection

#: Ceiling on the automatically chosen margin parameter epsilon.
EPSILON_CAP = 1e3


class SmallGainError(NumericsError):
    """The network gain loop is too strong for composition."""

    def __init__(self, rho_spec: float, cycle: tuple[str, ...], cycle_gain: float):
        self.rho_spec = rho_spec
        self.cycle = cycle
        self.cycle_gain = cycle_gain
        super().__init__(
            f"small-gain test failed: spectral radius {rho_spec:.6g} >= 1; dominant cycle"
            f" {' -> '.join(cycle + cycle[:1])} with mean gain {cycle_gain:.6g}"
        )


@dataclass(frozen=True)
class GainMatrices:
    """Stacked comparison gains of an interconnection; caches no derived result."""

    names: tuple[str, ...]
    gamma: Matrix
    lam: np.ndarray  # diagonal of Lambda
    rho: np.ndarray

    @property
    def scaled(self) -> Matrix:
        """``Gamma Lambda^{-1}`` (column scaling by decay rates)."""
        return self.gamma / self.lam[None, :]


@dataclass(frozen=True)
class OmegaPath:
    """Weight vector and margin certifying the small-gain condition.

    ``margin`` is the componentwise minimum of
    ``eta - (1 + epsilon) Gamma Lambda^{-1} eta``; positive when the
    strict inequality holds. ``validated`` records whether it does
    (user-supplied overrides may carry a negative margin and are kept
    with ``validated = False``).
    """

    eta: np.ndarray
    epsilon: float
    rho_spec: float
    margin: float
    validated: bool


@dataclass
class ComposedSimFn:
    """Max-form deviation function of the interconnection.

    ``V = max_i weights[i] * V_i`` with ``weights[i] = lam_i / eta_i``;
    decays at rate ``lam`` with abstract-input gain ``rho``. A run
    (:func:`~simcompose.simulate.refine_and_run`) samples ``V``.
    """

    names: tuple[str, ...]
    weights: np.ndarray
    lam: float
    rho: float


def gain_matrices(ic: Interconnection, gains: dict[str, ComparisonGains]) -> GainMatrices:
    """Assemble ``Gamma``, ``Lambda`` and the abstract-input gain vector.

    ``gains[name].mu`` must carry one coefficient per scalar column of
    the subsystem's internal input matrix, in declared channel order.
    """
    names = tuple(ic.names)
    n = len(names)
    gamma = np.zeros((n, n))
    lam = np.zeros(n)
    rho = np.zeros(n)
    for i, sub in enumerate(ic.subsystems):
        g = gains[sub.name]
        if len(g.mu) != sub.p:
            raise ValueError(
                f"{sub.name}: {len(g.mu)} mu coefficients for {sub.p} scalar channels"
            )
        if not g.lam > 0:
            raise ValueError(f"{sub.name}: decay rate must be positive, got {g.lam}")
        lam[i] = g.lam
        rho[i] = g.rho
        for ch in sub.channels_in:
            gamma[i, ic.index(ch.source)] += sum(g.mu[sub.channel_slice(ch.source)])
    return GainMatrices(names=names, gamma=gamma, lam=lam, rho=rho)


def perron(mat) -> tuple[float, np.ndarray]:
    """Spectral radius and a positive weight vector of ``mat >= 0``.

    No eigendecomposition. For an irreducible ``mat`` (its graph of
    nonzero entries strongly connected), both come from Noda's
    iteration (Numer. Math. 17, 1971), shifted inverse iteration whose
    shift is the Collatz-Wielandt upper bound: from ``x = 1``, solve
    ``(r_k I - mat) y = x_k`` with ``r_k = max_i (mat x_k)_i / (x_k)_i``
    and scale ``y`` to unit maximum. Every iterate is positive and
    brackets the radius, ``min_i (mat x)_i / x_i <= rho <= max_i (mat
    x)_i / x_i``; the iteration stops when the bracket is within
    ``BRACKET_TOL`` (relative), when it stops shrinking, or when a
    solve is exactly singular (``r_k`` is then the radius and ``x_k``
    its vector), and returns the upper end.

    A reducible ``mat`` has the largest radius of the diagonal blocks
    of its strongly connected components (a one-node block's radius is
    its entry, so a nilpotent matrix gives exactly 0), and its vector
    is ``x = (r I - mat)^-1 1`` with ``r = (1 + rho) / 2`` below unit
    radius (else ``2 rho``): ``x >= 1 / r > 0`` and ``mat x = r x - 1 <
    r x``, a small-gain margin of ``1 / r - 1 > 0``. The vector has unit
    maximum. A matrix that is not square, has a negative entry or is
    not finite raises ``ValueError``.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"need a square matrix, got {mat.shape}")
    if np.any(mat < 0):
        raise ValueError("gain matrix must be nonnegative")
    if not np.isfinite(mat).all():
        raise ValueError("gain matrix must be finite")
    if n == 0:
        return 0.0, np.zeros(0)
    blocks = _components(mat)
    if len(blocks) == 1:
        return _noda(mat)
    rho = max(_noda(mat[np.ix_(block, block)])[0] for block in blocks)
    shift = (1.0 + rho) / 2.0 if rho < 1.0 else 2.0 * rho
    # block by block: Tarjan emits a component after every component it
    # reaches, so the right-hand side of its rows is known by then
    vec = np.zeros(n)
    for block in blocks:
        shifted = -mat[np.ix_(block, block)]
        shifted.flat[:: len(block) + 1] += shift
        vec[block] = np.linalg.solve(shifted, 1.0 + mat[block] @ vec)
    return rho, vec / vec.max()


def _noda(mat: Matrix) -> tuple[float, np.ndarray]:
    """Noda's iteration on an irreducible ``mat >= 0`` (see :func:`perron`)."""
    n = len(mat)
    ones = np.ones(n)
    x = ones
    lo, hi = _collatz_wielandt(mat, x)
    while hi - lo > BRACKET_TOL * hi:
        # solved in the frame X^-1 mat X of the iterate, where the solution
        # is near one, so that the small entries of x keep their accuracy
        shifted = mat * -x / x[:, None]
        shifted.flat[:: n + 1] += hi
        try:
            step = np.linalg.solve(shifted, ones)
        except np.linalg.LinAlgError:
            break
        y = x * step
        y /= y[np.argmax(np.abs(y))]
        if not np.all(y > 0.0):
            break
        lo_y, hi_y = _collatz_wielandt(mat, y)
        if not hi_y - lo_y < hi - lo:
            break
        x, lo, hi = y, lo_y, hi_y
    return hi, x


def _collatz_wielandt(mat: Matrix, x: np.ndarray) -> tuple[float, float]:
    """``min_i`` and ``max_i`` of ``(mat x)_i / x_i`` for ``x > 0``."""
    ratios = mat @ x / x
    return float(ratios.min()), float(ratios.max())


def _components(mat: Matrix) -> list[list[int]]:
    """Strongly connected components of the graph with an edge ``i -> j``
    for each nonzero ``mat[i, j]``: Tarjan's algorithm (1972), walked with
    an explicit stack."""
    n = len(mat)
    rows, cols = np.nonzero(mat)
    ends = np.searchsorted(rows, np.arange(1, n + 1)).tolist()
    cols = cols.tolist()
    edge = [0, *ends[:-1]]  # next edge of each node to follow
    index, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, found, count = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        path = [root]
        while path:
            v = path[-1]
            if edge[v] < ends[v]:
                w = cols[edge[v]]
                edge[v] += 1
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append(w)
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                low[path[-1]] = min(low[path[-1]], low[v])
            if low[v] == index[v]:
                block = []
                while not block or block[-1] != v:
                    block.append(stack.pop())
                    on_stack[block[-1]] = False
                found.append(block)
    return found


def _dominant_cycle(scaled: Matrix, names: tuple[str, ...]):
    """Greedy max-weight walk in the strongly connected component of
    largest radius, where every node feeds another, from its heaviest
    edge until a node repeats; returns the cycle and its geometric-mean
    gain. A diagnostic witness, not an exact maximum-cycle search."""
    block = sorted(max(_components(scaled), key=lambda b: _noda(scaled[np.ix_(b, b)])[0]))
    sub = scaled[np.ix_(block, block)]
    node = int(np.unravel_index(int(np.argmax(sub)), sub.shape)[1])
    walk = []
    while node not in walk:
        walk.append(node)
        node = int(np.argmax(sub[:, node]))
    cycle = walk[walk.index(node):]
    edges = [sub[cycle[(k + 1) % len(cycle)], cycle[k]] for k in range(len(cycle))]
    # a mean of logarithms, as the product of large gains passes the float range
    return tuple(names[block[k]] for k in cycle), float(np.exp(np.mean(np.log(edges))))


def small_gain(
    gm: GainMatrices,
    eta: np.ndarray | None = None,
    epsilon: float | None = None,
) -> OmegaPath:
    """Find a weight vector certifying the network small-gain condition.

    Default path: take the spectral radius and positive weight vector
    of ``Gamma Lambda^{-1}`` from one :func:`perron` call, and normalize
    the vector so the max-form deviation function bounds the stacked
    output mismatch with unit coefficient. Without an ``epsilon``
    override, ``epsilon`` is ``EPSILON_SAFETY`` times the largest value
    the weights admit, ``min_i eta_i / (Gamma Lambda^{-1} eta)_i - 1``,
    capped at ``EPSILON_CAP``.

    ``eta``/``epsilon`` overrides are accepted verbatim; the strict
    inequality is then only reported, not enforced.

    Raises
    ------
    SmallGainError
        If no overrides are given and the spectral radius is >= 1, or
        the weights admit no positive ``epsilon``.
    ValueError
        If an override is not finite and positive, or has the wrong
        length.
    """
    scaled = gm.scaled
    n = scaled.shape[0]
    rho_spec, vec = perron(scaled)
    overridden = eta is not None or epsilon is not None
    if not overridden and rho_spec >= 1.0:
        raise SmallGainError(rho_spec, *_dominant_cycle(scaled, gm.names))

    if eta is None:
        eta_vec = vec
        # normalize so that sqrt(N) * max_i eta_i / lam_i == 1; the
        # composed function then bounds the stacked output mismatch
        # directly, without an extra comparison factor
        if n:
            eta_vec /= np.sqrt(n) * float(np.max(eta_vec / gm.lam))
    else:
        eta_vec = np.asarray(eta, dtype=float).copy()
        if eta_vec.shape != (n,):
            raise ValueError(f"eta must have {n} entries, got shape {eta_vec.shape}")
        if not (np.all(np.isfinite(eta_vec)) and np.all(eta_vec > 0)):
            raise ValueError(f"eta must be finite and strictly positive, got {eta_vec}")

    s_eta = scaled @ eta_vec
    if epsilon is None:
        # Collatz-Wielandt: (1 + eps) S eta <= eta holds exactly for
        # eps <= min_i eta_i / (S eta)_i - 1 over the rows with (S eta)_i > 0
        driven = s_eta > 0.0
        # a subnormal (S eta)_i gives an infinite ratio, which EPSILON_CAP caps
        with np.errstate(over="ignore"):
            eps_max = (
                float(np.min(eta_vec[driven] / s_eta[driven])) - 1.0 if driven.any() else np.inf
            )
        if not overridden and not eps_max > 0.0:
            raise SmallGainError(rho_spec, *_dominant_cycle(scaled, gm.names))
        eps = min(EPSILON_SAFETY * eps_max, EPSILON_CAP)
    else:
        eps = float(epsilon)
    if not (np.isfinite(eps) and eps > 0):
        source = "" if epsilon is not None else " (the largest the given eta admits)"
        raise ValueError(f"epsilon must be finite and positive, got {eps}{source}")

    margin = float(np.min(eta_vec - (1.0 + eps) * s_eta)) if n else np.inf
    return OmegaPath(
        eta=eta_vec,
        epsilon=eps,
        rho_spec=float(rho_spec),
        margin=margin,
        validated=margin > 0.0,
    )


def compose_simfn(gm: GainMatrices, path: OmegaPath) -> ComposedSimFn:
    """Assemble the max-form network deviation function.

    Decay rate ``min_i lam_i * eps / (1 + eps)`` and abstract-input gain
    ``max_i rho_i * lam_i / eta_i`` (identity comparison functions
    throughout).
    """
    weights = gm.lam / path.eta
    lam_c = float(np.min(gm.lam) * path.epsilon / (1.0 + path.epsilon))
    rho_c = float(np.max(gm.rho * weights)) if len(gm.names) else 0.0
    return ComposedSimFn(names=gm.names, weights=weights, lam=lam_c, rho=rho_c)


def compose_abstractions(
    ic: Interconnection,
    results: dict[str, AbstractionResult],
) -> Interconnection:
    """Interconnection of the abstract twins, wired like the original.

    The abstract internal outputs are the originals pushed through each
    injection, so channel widths are preserved and validation holds by
    construction.
    """
    missing = [name for name in ic.names if name not in results]
    if missing:
        raise ValueError(f"missing abstractions for {missing}")
    return Interconnection([results[name].system for name in ic.names])
