"""Fixed-step trajectory integration and error-bound evaluation.

Abstract and concrete interconnections are co-integrated as one joint
linear system: the abstract network runs open loop on the supplied
input, and every concrete subsystem is driven through its interface,
so the deviation functions can be sampled along the pair of
trajectories and compared with the scalar and vector bounds.  The
bounds are checked at the grid points only.

Every run, of a single system (:func:`integrate`) or of the joint
system (:func:`refine_and_run`), goes through one propagator,
:func:`_run_lti`.  With the input held over each step, classical
fourth-order Runge-Kutta is the matrix recursion ``x+ = phi x + d_k``.
The propagator evaluates that recursion in blocks of ``L`` steps that
advance side by side as the rows of one matrix, and the rows advance in
one of two forms:

* dense, for small or densely coupled systems: ``L`` is about
  ``sqrt(steps)``, so a run costs about ``3 sqrt(steps)`` dense matrix
  products rather than one matrix-vector product per step;
* sparse, for large sparsely coupled networks: ``phi`` is built from the
  nonzeros of ``A`` and kept as a fixed number of (column, value) pairs
  per row, and ``L = 1``, one sparse matrix-vector product per step.

One density rule picks the form from the state size and the nonzeros of
``A`` and ``phi`` (:func:`_sparse_pays`), with constants fitted to a
measured sweep of both forms.  The drive ``d_k`` is one dense matrix
product in the dense form, and a gather of the inputs, one column per
stored pair of ``core B``, in the sparse form.
"""

import os
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionResult, interface_gains
from .compose import ComposedSimFn, GainMatrices, compose_abstractions, perron
from .linalg import BOUND_TOL, GRID_TOL, Matrix, NumericsError
from .systems import Interconnection, LinearSystem, build_monolithic

# Default iteration count for the vector recursion.
DEFAULT_BOUND_ITERATIONS = 50

# The density rule of the propagator (see _sparse_pays), in units of one
# stored pair of the sparse march: its fixed cost per step, and the cost
# per step of one of the n^2 entries of the blocked dense march.
SPARSE_STEP_OVERHEAD = 5000
DENSE_ENTRY_COST = 1 / 11

# Rows of the inputs _SparseRows.map_rows gathers at a time for the stored
# pairs after the first (256 rows of 800 states: 1.6 MB).
_GATHER_ROWS = 256


@dataclass(frozen=True)
class Signal:
    """Piecewise-constant signal, zero before the first sample time.

    Parameters
    ----------
    times : (k,) ndarray
        Strictly increasing sample times.
    values : (k, width) ndarray
        Value held on ``[times[i], times[i + 1])``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        if times.ndim != 1 or values.ndim != 2 or len(times) != len(values):
            raise ValueError("signal needs one value row per sample time")
        if len(times) == 0:
            raise ValueError("signal needs at least one sample")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("signal samples must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def sup_norm(self) -> float:
        """Largest euclidean norm over the sample values."""
        if self.width == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def value(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            return np.zeros(self.width)
        return self.values[idx]

    def sample(self, grid) -> np.ndarray:
        """Evaluate on a whole time grid at once."""
        grid = np.asarray(grid, dtype=float)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        out = self.values[np.maximum(idx, 0)]
        out[idx < 0] = 0.0
        return out

    @classmethod
    def zero(cls, width: int) -> "Signal":
        return cls(np.zeros(1), np.zeros((1, width)))

    @classmethod
    def constant(cls, value) -> "Signal":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.zeros(1), value[np.newaxis, :])

    @classmethod
    def square(cls, amplitude, period: float, t_final: float) -> "Signal":
        """Square wave alternating between ``+amplitude`` and ``-amplitude``.

        Switches every half ``period``, starting positive at ``t = 0``.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        times = np.arange(0.0, max(t_final, period / 2.0), period / 2.0)
        signs = np.where(np.arange(len(times)) % 2 == 0, 1.0, -1.0)
        return cls(times, signs[:, np.newaxis] * amplitude[np.newaxis, :])

    @classmethod
    def stack(cls, signals) -> "Signal":
        """Stack several signals into one over the union of sample times."""
        signals = list(signals)
        if not signals:
            raise ValueError("nothing to stack")
        times = np.unique(np.concatenate([s.times for s in signals]))
        return cls(times, np.hstack([s.sample(times) for s in signals]))


@dataclass(frozen=True)
class Trajectory:
    """States and outputs sampled on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.outputs)):
            raise ValueError("trajectory arrays must share a length")
        steps = np.diff(self.times)
        if len(steps) and not np.allclose(steps, steps[0], rtol=GRID_TOL, atol=0.0):
            raise ValueError("time grid must be uniform")


def grid_steps(t_final: float, dt: float) -> int:
    """Number of steps of size ``dt`` in the horizon ``t_final``.

    Both must be finite, ``dt`` positive, ``t_final`` nonnegative and a
    whole number of steps, at most ``np.iinfo(np.intp).max`` of them;
    otherwise ``ValueError`` names the values.
    """
    for label, value in (("horizon", t_final), ("step size", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{label} must be finite, got {value!r}")
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    if t_final < 0:
        raise ValueError(f"horizon must be nonnegative, got {t_final}")
    ratio = float(t_final) / float(dt)
    if not ratio <= np.iinfo(np.intp).max:
        raise ValueError(f"horizon {t_final!r} holds too many steps of size {dt!r} to count")
    steps = int(round(ratio))
    if abs(steps * dt - t_final) > GRID_TOL * max(1.0, t_final):
        raise ValueError(
            f"horizon {t_final!r} is not a whole number of steps of size {dt!r}"
        )
    return steps


def require_memory(t_final: float, dt: float, width: int, switches: float = 0) -> None:
    """Reject a run that cannot fit in physical memory before it starts.

    A run keeps ``width`` doubles at every point of the grid ``0, dt,
    ..., t_final`` (see :func:`grid_steps`), its states and its input
    samples, and the input signal keeps a row at every switch time of
    its square waves (``switches``, see :func:`square_switches`).
    ``ValueError`` names the horizon and the size, and the switch times
    when they outnumber the grid points, when those bytes exceed the
    machine's physical memory (``os.sysconf``); where the platform does
    not report it, nothing is rejected.
    """
    points = grid_steps(t_final, dt) + 1
    need = 8 * (points + switches) * width
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        cause = f" and {switches:.3g} square-wave switch times" if switches > points else ""
        raise ValueError(
            f"horizon {t_final!r} in steps of size {dt!r}{cause} needs {need / 1e9:.3g} GB"
            f" for the run's states and inputs, more than the {have / 1e9:.3g} GB"
            " of physical memory"
        )


def square_switches(period: float, t_final: float) -> float:
    """How many switch times :meth:`Signal.square` holds up to ``t_final``,
    counted as ``np.arange`` counts them, without making them."""
    half = period / 2.0
    return float(np.ceil(max(t_final, half) / half))


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Uniform grid ``0, dt, ..., t_final`` (see :func:`grid_steps`)."""
    return np.arange(grid_steps(t_final, dt) + 1) * dt


def _step_maps(a, dt: float):
    """One-step state map and input integral of classical fourth order.

    For constant input over the step the update ``x+ = phi @ x +
    core @ (B u)`` reproduces the Runge-Kutta stages exactly, so the
    whole run reduces to one matrix recursion.  ``a`` is a dense matrix
    or a :class:`_SparseRows`, and the maps come back in the same form.
    """
    eye = a.identity() if isinstance(a, _SparseRows) else np.eye(a.shape[0])
    ad = dt * a
    ad2 = ad @ ad
    ad3 = ad2 @ ad
    phi = eye + ad + ad2 / 2.0 + ad3 / 6.0 + ad3 @ ad / 24.0
    core = dt * (eye + ad / 2.0 + ad2 / 6.0 + ad3 / 24.0)
    return phi, core


def _run_lti(a: Matrix, b: Matrix, inputs: np.ndarray, x0: np.ndarray,
             grid: np.ndarray, dt: float) -> np.ndarray:
    """March ``x+ = phi x + d_k``, ``d_k = core B inputs[k]``, over the grid.

    ``inputs`` holds one input row per grid point, held over the step
    that starts there.  The grid's steps are cut into blocks of ``L``
    steps, and all blocks advance together, one row of a matrix each:

    1. a zero-state march ``Z_{j+1} = Z_j phi^T + D_j`` over every block
       (``L`` matrix products; the first step is just the drive) leaves
       each block's forced response;
    2. the block starts follow in sequence, ``s_{b+1} = phi^L s_b +
       Z_L[b]`` (one matrix-vector product per block);
    3. a second march of the same recursion from the true starts fills
       in the states inside every block.

    The rows advance in one of two forms, picked by :func:`_sparse_pays`:

    * dense: ``phi`` and ``core B`` are dense matrices, and ``L`` is a
      power of two within a factor ``sqrt(2)`` of ``sqrt(steps)``,
      halved while ``phi^L`` overflows, so that an unstable mode the
      state never excites does not turn ``inf * 0`` into NaN;
    * sparse: ``phi`` and ``core B`` are formed from the nonzeros of
      ``A`` and ``B`` (:class:`_SparseRows`) and ``L = 1``, so the march
      is step 2 alone, one sparse matrix-vector product per step.  The
      dense ``phi``, ``phi^L`` and ``core B`` are never formed; the drive
      is gathered from the inputs, one column per stored pair of
      ``core B``, straight into the states (the first step of the
      zero-state march).

    The states are written straight into the returned array; a blow-up
    is reported at the first grid time with a non-finite state.
    """
    n = len(x0)
    phi = None
    # A's nonzeros bound phi's from below, so a dense A builds nothing sparse
    if _sparse_pays(n, np.count_nonzero(a)):
        phi, core = _step_maps(_SparseRows.from_dense(a), dt)
        if not _sparse_pays(n, phi.pairs):
            phi = None
    sparse = phi is not None
    if sparse:
        states = np.empty((len(grid), n))
        # the drive of each step is the zero-state march's next row
        (core @ _SparseRows.from_dense(b)).map_rows(inputs[:-1], out=states[1:])
    else:
        phi, core = _step_maps(a, dt)
        drive = inputs @ (core @ b).T
        # made after the maps' temporaries are freed: made first, the
        # states raised wide's peak memory by 3.7 MB in 4 of 6 runs
        states = np.empty((len(grid), n))
    # overflow is handled by the explicit finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        block, power = 1, phi
        for _ in range(0 if sparse else (len(grid) - 1).bit_length() // 2):
            square = power @ power
            if not np.isfinite(square).all():
                break
            block, power = 2 * block, square

        def march(first, stop):
            # row j + 1 of every block from row j, for first <= j < stop
            for j in range(first, stop):
                rows = states[j + 1::block]
                m = len(rows)
                rows[...] = states[j::block][:m] @ phi.T + drive[j::block][:m]

        # the zero-state march starts from zero rows, so its first step
        # is the drive (already written in the sparse form, where L = 1)
        if not sparse:
            firsts = states[1::block]
            firsts[...] = drive[::block][:len(firsts)]
        march(1, block)
        starts = states[::block]
        starts[0] = x0
        for k in range(1, len(starts)):
            starts[k] += power @ starts[k - 1]
        march(0, block - 1)
    if not _finite(states):
        row_ok = _finite(states, axis=1)
        raise NumericsError(
            f"state diverged to non-finite values at t = {grid[np.argmin(row_ok)]:.6g}"
        )
    return states


def _sparse_pays(n: int, pairs: int) -> bool:
    """The density rule: whether the sparse row form of :func:`_run_lti`
    beats the dense one for ``n`` states and a step map of ``pairs``
    stored (column, value) pairs.

    Per step, the sparse march costs ``SPARSE_STEP_OVERHEAD + pairs``,
    counted in stored pairs, and the blocked dense march about
    ``DENSE_ENTRY_COST * n^2`` (its ``n^3`` set-up products come on top,
    which favours the sparse form on short runs).  Both constants are
    fitted to a sweep of both forms over ring networks and block-diagonal
    systems of 100 to 1024 states, 200 to 20 000 steps (CHANGES.md).  No
    system of fewer than 235 states takes the sparse form.  The rule is
    applied to the nonzeros of ``A`` first, which bound ``phi``'s from
    below, and then to the pairs of the sparse ``phi`` itself.
    """
    return SPARSE_STEP_OVERHEAD + pairs <= DENSE_ENTRY_COST * n * n


class _SparseRows:
    """A matrix stored as the same number of (column, value) pairs in
    every row, with just the algebra :func:`_step_maps` and the march use.

    Rows with fewer nonzeros are padded with the pair (own column, 0),
    the last column for a row beyond it.  A padded pair adds ``0 * x_i``
    to row ``i``, which is NaN only when ``x_i`` is already not finite.
    """

    def __init__(self, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]):
        self.cols, self.vals, self.shape = cols, vals, shape

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape) -> "_SparseRows":
        """Sum of the entries ``vals`` at ``(rows, cols)``, exact zeros left out."""
        n, m = shape
        keys, where = np.unique(rows * m + cols, return_inverse=True)
        sums = np.bincount(where, weights=vals, minlength=len(keys))
        keep = sums != 0.0
        rows, cols = np.divmod(keys[keep], m)
        counts = np.bincount(rows, minlength=n)
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        width = int(counts.max(initial=0))
        out_cols = np.repeat(np.minimum(np.arange(n), m - 1)[:, None], width, axis=1)
        out_vals = np.zeros((n, width))
        out_cols[rows, slot] = cols
        out_vals[rows, slot] = sums[keep]
        return cls(out_cols, out_vals, shape)

    @classmethod
    def from_dense(cls, a: Matrix) -> "_SparseRows":
        rows, cols = np.nonzero(a)
        return cls.from_triplets(rows, cols, a[rows, cols], a.shape)

    def identity(self) -> "_SparseRows":
        n = self.shape[0]
        return _SparseRows(np.arange(n)[:, None], np.ones((n, 1)), (n, n))

    @property
    def pairs(self) -> int:
        return self.vals.size

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, width = self.cols.shape
        return np.repeat(np.arange(n), width), self.cols.ravel(), self.vals.ravel()

    def todense(self) -> Matrix:
        out = np.zeros(self.shape)
        rows, cols, vals = self.triplets()
        np.add.at(out, (rows, cols), vals)
        return out

    def __add__(self, other: "_SparseRows") -> "_SparseRows":
        both = zip(self.triplets(), other.triplets())
        return _SparseRows.from_triplets(*(np.concatenate(p) for p in both), self.shape)

    def __mul__(self, scalar: float) -> "_SparseRows":
        return _SparseRows(self.cols, self.vals * scalar, self.shape)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "_SparseRows":
        return _SparseRows(self.cols, self.vals / scalar, self.shape)

    def map_rows(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x @ self.T``: every row of ``x`` mapped by the matrix, one
        column gather of ``x`` per stored pair, written into ``out`` when
        it is given."""
        if out is None:
            out = np.empty((len(x), self.shape[0]))
        if not self.pairs:
            out[...] = 0.0
            return out
        # the columns are in range; "raise" would gather into a buffer first
        np.take(x, self.cols[:, 0], axis=1, out=out, mode="clip")
        out *= self.vals[:, 0]
        # the other pairs are added _GATHER_ROWS rows at a time, so that
        # no second array the size of out is made
        term = np.empty((min(len(x), _GATHER_ROWS), self.shape[0]))
        for start in range(0, len(x), _GATHER_ROWS):
            rows = x[start:start + _GATHER_ROWS]
            part, buf = out[start:start + _GATHER_ROWS], term[:len(rows)]
            for cols, vals in zip(self.cols.T[1:], self.vals.T[1:]):
                np.take(rows, cols, axis=1, out=buf, mode="clip")
                buf *= vals
                part += buf
        return out

    def __matmul__(self, other):
        """Product with a vector (dense result) or a :class:`_SparseRows`."""
        if isinstance(other, np.ndarray):
            return np.einsum("ij,ij->i", self.vals, other[self.cols])
        n, width = self.cols.shape
        terms = width * other.cols.shape[1]
        shape = (n, other.shape[1])
        if terms > shape[1]:
            # more terms per row than the product has entries: form it densely
            return _SparseRows.from_dense(self.todense() @ other.todense())
        return _SparseRows.from_triplets(
            np.repeat(np.arange(n), terms),
            other.cols[self.cols].ravel(),
            (self.vals[:, :, None] * other.vals[self.cols]).ravel(),
            shape,
        )


def _finite(x: np.ndarray, axis=None):
    """Whether ``x`` (or each slice along ``axis``) is free of inf and NaN,
    without a boolean temporary the size of ``x``."""
    return np.isfinite(x.min(axis=axis, initial=0.0)) & np.isfinite(
        x.max(axis=axis, initial=0.0)
    )


def integrate(sys, x0, u: Signal | None = None, w: Signal | None = None,
              t_final: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """Integrate a linear system under piecewise-constant inputs.

    Classical fourth-order steps with the inputs held over each step:
    external input ``u`` and internal input ``w``.  A network flattened
    by :func:`~simcompose.systems.build_monolithic` has no internal
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


@dataclass(frozen=True)
class RefinementRun:
    """Paired abstract/concrete trajectories with sampled deviations.

    ``v`` holds one column per subsystem; ``v_composed`` is the
    max-form composition and ``mismatch`` the euclidean norm of the
    stacked external output error.
    """

    names: tuple[str, ...]
    abstract: Trajectory
    concrete: Trajectory
    v: np.ndarray
    v_composed: np.ndarray
    mismatch: np.ndarray
    input_offsets: tuple[int, ...]

    @property
    def times(self) -> np.ndarray:
        return self.concrete.times


def refine_and_run(
    concrete: Interconnection,
    abstractions: dict[str, AbstractionResult],
    composed: ComposedSimFn,
    x0,
    xhat0,
    uhat: Signal,
    t_final: float = 20.0,
    dt: float = 1e-3,
) -> RefinementRun:
    """Run the abstract network and its interface-refined concrete twin.

    The abstract interconnection is driven by ``uhat``; every concrete
    input is produced by its subsystem's interface from the local pair
    of states, the abstract signals it receives and its slice of
    ``uhat``.  Both networks advance together as one joint linear system,
    assembled block by block (:func:`_joint_matrices`), which keeps the
    refinement exactly synchronous.

    Parameters
    ----------
    concrete : Interconnection
        The original coupled subsystems.
    abstractions : dict
        Abstraction per subsystem name, as built by
        :func:`~simcompose.abstraction.build_abstraction`.
    composed : ComposedSimFn
        Composition whose weights score the sampled deviations.
    x0, xhat0 : array_like
        Stacked concrete and abstract initial states, in subsystem
        order; every entry must be finite.
    uhat : Signal
        Stacked abstract input.

    Returns
    -------
    RefinementRun
    """
    abstract_ic = compose_abstractions(concrete, abstractions)
    mono_c = build_monolithic(concrete)
    mono_a = build_monolithic(abstract_ic)
    names = tuple(concrete.names)
    if tuple(composed.names) != names:
        raise ValueError("composition and interconnection name orders differ")
    order = [abstractions[name] for name in names]
    a_joint, b_joint = _joint_matrices(concrete, abstractions, abstract_ic, mono_c, mono_a)
    n_hat, n = mono_a.n, mono_c.n

    if uhat.width != b_joint.shape[1]:
        raise ValueError(
            f"abstract input width {uhat.width}, expected {b_joint.shape[1]}"
        )
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
    if len(x0) != n or len(xhat0) != n_hat:
        raise ValueError(
            f"initial states have lengths {len(xhat0)}/{len(x0)}, "
            f"expected {n_hat}/{n}"
        )
    for label, start in (("xhat0", xhat0), ("x0", x0)):
        if not np.isfinite(start).all():
            raise ValueError(f"initial state {label} has non-finite entries")

    grid = time_grid(t_final, dt)
    states = _run_lti(
        a_joint, b_joint, uhat.sample(grid), np.concatenate([xhat0, x0]), grid, dt
    )

    xhat_states = states[:, :n_hat]
    x_states = states[:, n_hat:]
    yhat = xhat_states @ mono_a.C_ext.T
    y = x_states @ mono_c.C_ext.T

    v = np.empty((len(grid), len(order)))
    for i, (name, res) in enumerate(zip(names, order)):
        err = (
            x_states[:, concrete.state_slice(name)]
            - xhat_states[:, abstract_ic.state_slice(name)] @ res.simfn.P.T
        )
        quad = np.einsum("ti,ti->t", err @ res.simfn.M, err)
        v[:, i] = np.sqrt(np.maximum(quad, 0.0))
    v_composed = np.max(v * composed.weights[np.newaxis, :], axis=1)
    mismatch = np.linalg.norm(yhat - y, axis=1)

    return RefinementRun(
        names=names,
        abstract=Trajectory(grid, xhat_states, yhat),
        concrete=Trajectory(grid, x_states, y),
        v=v,
        v_composed=v_composed,
        mismatch=mismatch,
        input_offsets=abstract_ic.input_offsets,
    )


def _joint_matrices(concrete: Interconnection, abstractions: dict[str, AbstractionResult],
                    abstract_ic: Interconnection, mono_c: LinearSystem,
                    mono_a: LinearSystem) -> tuple[Matrix, Matrix]:
    """State and input matrices of the joint system: the abstract network
    (flattened as ``mono_a``) stacked over its refined twin (``mono_c``).

    Subsystem ``i``'s interface reads only its own states, the ``what_i``
    it receives and its slice of ``uhat``, so its rows ``B_i u_i`` are
    written one subsystem at a time, where the two layouts put them.
    """
    n_hat = mono_a.n
    size = n_hat + mono_c.n
    a = np.zeros((size, size))
    a[:n_hat, :n_hat] = mono_a.A
    a[n_hat:, n_hat:] = mono_c.A
    b = np.zeros((size, mono_a.m))
    b[:n_hat] = mono_a.B
    states, inputs = concrete.state_offsets, abstract_ic.input_offsets
    for i, sub in enumerate(concrete.subsystems):
        xhat_gain, x_gain, what_gain, uhat_gain = interface_gains(abstractions[sub.name].simfn)
        rows = slice(n_hat + states[i], n_hat + states[i + 1])
        a[rows, abstract_ic.state_slice(sub.name)] = sub.B @ xhat_gain
        a[rows, rows] += sub.B @ x_gain
        for ch in sub.channels_in:
            a[rows, abstract_ic.state_slice(ch.source)] = sub.B @ (
                what_gain[:, sub.channel_slice(ch.source)]
                @ abstract_ic[ch.source].C_int[sub.name]
            )
        b[rows, inputs[i]:inputs[i + 1]] = sub.B @ uhat_gain
    return a, b


def scalar_bound(v0: float, lam: float, rho: float, u_inf: float, times) -> np.ndarray:
    """Exponential-plus-offset deviation bound ``e^{-lam t} v0 + (rho/lam) u_inf``."""
    if lam <= 0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    times = np.asarray(times, dtype=float)
    return np.exp(-lam * times) * v0 + (rho / lam) * u_inf


def appendix_gammas(lam: float, rho: float, mu_total: float) -> tuple[float, float]:
    """Conservative worst-case external/internal gain coefficients.

    These are ``4 rho / lam`` and ``4 mu_total / lam``, reported
    alongside the tighter ``rho / lam`` used by :func:`scalar_bound`.
    """
    if lam <= 0:
        raise ValueError(f"decay rate must be positive, got {lam}")
    return 4.0 * rho / lam, 4.0 * mu_total / lam


def vector_bound(gm: GainMatrices, uhat_inf, v0=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-subsystem deviation recursion and its fixed point.

    Iterates ``V <- S V + Lambda^-1 Zhat`` with ``S = Gamma Lambda^-1``
    and ``Zhat_i = rho_i * uhat_inf_i`` for ``DEFAULT_BOUND_ITERATIONS``
    steps, and also returns the closed-form fixed point
    ``(I - S)^-1 Lambda^-1 Zhat``. The recursion converges exactly when
    ``rho(S) < 1``, which for ``S >= 0`` holds exactly when ``(I - S) x
    = 1`` has a solution ``x > 0`` (``I - S`` is a nonsingular M-matrix;
    Berman and Plemmons 1979). That solve decides; ``NumericsError`` is
    raised on divergence, with the radius from :func:`perron`.

    Parameters
    ----------
    gm : GainMatrices
        Interconnection gains.
    uhat_inf : (N,) array_like
        Supremum norm of each subsystem's abstract input.
    v0 : (N,) array_like, optional
        Starting iterate, zero when omitted.

    Returns
    -------
    iterates : (DEFAULT_BOUND_ITERATIONS + 1, N) ndarray
    fixed_point : (N,) ndarray
    """
    uhat_inf = np.asarray(uhat_inf, dtype=float).reshape(-1)
    if len(uhat_inf) != len(gm.names):
        raise ValueError(
            f"{len(uhat_inf)} input norms for {len(gm.names)} subsystems"
        )
    if np.any(uhat_inf < 0):
        raise ValueError("input norms must be nonnegative")
    scaled = gm.scaled
    z = gm.rho * uhat_inf / gm.lam
    i_minus_s = np.eye(len(z)) - scaled
    try:
        converges = bool(np.all(np.linalg.solve(i_minus_s, np.ones(len(z))) > 0.0))
    except np.linalg.LinAlgError:
        converges = False
    if not converges:
        radius, _ = perron(scaled)
        raise NumericsError(
            f"deviation recursion diverges: spectral radius {radius:.6g} >= 1"
        )
    iterates = np.empty((DEFAULT_BOUND_ITERATIONS + 1, len(z)))
    iterates[0] = np.zeros_like(z) if v0 is None else np.asarray(v0, dtype=float)
    for k in range(DEFAULT_BOUND_ITERATIONS):
        iterates[k + 1] = scaled @ iterates[k] + z
    fixed_point = np.linalg.solve(i_minus_s, z)
    return iterates, fixed_point


@dataclass(frozen=True)
class BoundReport:
    """Sampled bounds versus observed deviations for one run.

    ``margin`` is the scalar bound minus the output mismatch per
    sample; ``vvec_margin`` is the worst slack of each subsystem
    deviation against its fixed-point bound plus decaying transient.
    """

    names: tuple[str, ...]
    times: np.ndarray
    v0: float
    lam: float
    rho: float
    u_inf: float
    scalar_samples: np.ndarray
    mismatch: np.ndarray
    margin: np.ndarray
    vvec_fixed_point: np.ndarray
    vvec_margin: np.ndarray

    @property
    def rho_over_lambda(self) -> float:
        return self.rho / self.lam

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin))

    @property
    def ok(self) -> bool:
        return (
            self.min_margin >= -BOUND_TOL
            and float(np.min(self.vvec_margin)) >= -BOUND_TOL
        )

    def lines(self) -> list[str]:
        out = [
            f"scalar bound: exp(-{self.lam:.6g} t) * {self.v0:.6g}"
            f" + {self.rho_over_lambda:.6g} * {self.u_inf:.6g}",
            f"max output mismatch {float(np.max(self.mismatch)):.6g},"
            f" min margin {self.min_margin:.6g}"
            f" [{'ok' if self.min_margin >= -BOUND_TOL else 'VIOLATED'}]",
        ]
        for i, name in enumerate(self.names):
            flag = "ok" if self.vvec_margin[i] >= -BOUND_TOL else "VIOLATED"
            out.append(
                f"V_{name}: fixed point {self.vvec_fixed_point[i]:.6g},"
                f" margin {self.vvec_margin[i]:.6g} [{flag}]"
            )
        return out


def bound_report(
    run: RefinementRun,
    composed: ComposedSimFn,
    gm: GainMatrices,
    uhat: Signal,
    v0: float | None = None,
) -> BoundReport:
    """Evaluate the scalar and vector bounds along a completed run.

    ``v0`` overrides the initial composed deviation in the scalar
    bound (to evaluate the bound from a prescribed level rather than
    the realised start).  Supremum norms are taken over the supplied
    samples, so the bounds are relative to the simulated horizon.
    """
    if tuple(run.names) != tuple(gm.names):
        raise ValueError("run and gain matrices order their subsystems differently")
    if v0 is None:
        v0 = float(run.v_composed[0])
    elif not np.isfinite(v0):
        raise ValueError(f"bound start level v0 must be finite, got {v0}")
    elif v0 < 0:
        raise ValueError(f"bound start level v0 must be nonnegative, got {v0}")
    u_inf = uhat.sup_norm
    scalar_samples = scalar_bound(v0, composed.lam, composed.rho, u_inf, run.times)
    margin = scalar_samples - run.mismatch

    per_inf = np.empty(len(run.names))
    for i in range(len(run.names)):
        block = uhat.values[:, run.input_offsets[i]:run.input_offsets[i + 1]]
        per_inf[i] = np.max(np.linalg.norm(block, axis=1)) if block.shape[1] else 0.0
    _, fixed_point = vector_bound(gm, per_inf)
    transient = np.exp(-gm.lam[np.newaxis, :] * run.times[:, np.newaxis])
    allowance = fixed_point[np.newaxis, :] + transient * run.v[0][np.newaxis, :]
    vvec_margin = np.min(allowance - run.v, axis=0)

    return BoundReport(
        names=tuple(run.names),
        times=run.times,
        v0=v0,
        lam=composed.lam,
        rho=composed.rho,
        u_inf=u_inf,
        scalar_samples=scalar_samples,
        mismatch=run.mismatch,
        margin=margin,
        vvec_fixed_point=fixed_point,
        vvec_margin=vvec_margin,
    )


def write_csv(path, run: RefinementRun) -> None:
    """Export a run as CSV: time, concrete states and outputs, deviations
    (see :func:`write_table`).  The rows are formatted straight from the
    run's arrays, without first copying them into one table."""
    header = (
        ["t"]
        + [f"x[{i}]" for i in range(run.concrete.states.shape[1])]
        + [f"y[{i}]" for i in range(run.concrete.outputs.shape[1])]
        + ["V"]
        + [f"V_{i + 1}" for i in range(run.v.shape[1])]
    )
    _write_columns(
        path,
        [run.times[:, None], run.concrete.states, run.concrete.outputs,
         run.v_composed[:, None], run.v],
        header,
    )


def write_table(path, table, header=None) -> None:
    """Write a float matrix as CSV, one line per row, after an optional
    header line.

    Every value is written exactly as ``b"%.17g" % value`` writes it, so
    rereading reproduces the doubles bit for bit and the file matches
    ``np.savetxt(fmt="%.17g", delimiter=",")`` byte for byte.  Chunks of
    whole rows, about ``2**13`` values each, are formatted in numpy (see
    :class:`_G17`).

    For ``|x|`` in ``[1e-280, 1e280]`` the scaled value
    ``y = |x| 10**(16 - E0)``, ``E0 = floor(log10 |x|)``, is one exact
    Dekker product against ``10**k = hi + lo`` plus the correction
    ``|x| lo``; its error is below ``1e-14`` units of the last digit.  So
    rounding ``y`` to the integer ``N`` gives the correctly rounded 17
    digits whenever the fraction of ``y`` lies more than ``_TIE_WINDOW``
    (``1e-9``) from one half and ``y`` lies more than that inside
    ``[1e16, 1e17 - 0.5)``, where ``N`` keeps 17 digits.  Zeros are
    written directly.  Every other value is formatted by ``%`` itself:
    near-ties, values where ``log10`` is off by one, and ``|x|`` outside
    the range, inf and NaN included.
    """
    _write_columns(path, [np.atleast_2d(np.asarray(table, dtype=float))], header)


def _write_columns(path, blocks, header) -> None:
    """:func:`write_table` of the matrices ``blocks`` placed side by side;
    they share their row count."""
    rows = blocks[0].shape[0]
    cols = sum(block.shape[1] for block in blocks)
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode("ascii"))
        if cols == 0:
            fh.write(b"\n" * rows)
            return
        step = max(1, _CHUNK // cols)
        fmt = _G17(cols, min(rows, step) * cols)
        for start in range(0, rows, step):
            chunk = np.hstack([block[start:start + step] for block in blocks])
            fh.write(fmt(chunk.ravel()))


def write_gnuplot(path, csv_path, run: RefinementRun) -> None:
    """Emit a gnuplot script plotting the outputs and deviations of a CSV."""
    q = run.concrete.outputs.shape[1]
    n = run.concrete.states.shape[1]
    plots = [
        f"csv using 1:{n + 2 + j} with lines title 'y[{j}]'" for j in range(q)
    ]
    plots.append(f"csv using 1:{n + q + 2} with lines title 'V'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "\n".join(
                [
                    # gnuplot doubles a quote inside a single-quoted string
                    "csv = '" + csv_path.replace("'", "''") + "'",
                    "set datafile separator ','",
                    "set xlabel 't'",
                    "set key outside",
                    "plot " + ", \\\n     ".join(plots),
                    "",
                ]
            )
        )


# Values per formatting chunk, rounded down to whole rows (a wider row is
# one chunk).  Its temporaries, about 200 bytes a value, keep the writer's
# peak memory under 2 MB beyond the arrays it reads.
_CHUNK = 1 << 13
# Veltkamp's splitter for doubles, 2**27 + 1.
_SPLIT = 134217729.0
# The fast path's magnitude range; its powers 10**k stay normal doubles.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -270, 300
# Distance from a rounding tie, or from the ends of [1e16, 1e17 - 0.5),
# below which a value goes to the exact fallback; the scaled value's error
# is under 1e-14.
_TIE_WINDOW = 1e-9
_QUADS = np.arange(10000, dtype=np.int16)
# "%04d" of 0..9999 as one uint32 each, and its trailing zeros
_DIGITS4 = (
    np.stack([_QUADS // 10**j % 10 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8) + ord("0")
).view(np.uint32).ravel()
_TRAILING4 = sum((_QUADS % 10**j == 0).astype(np.int8) for j in (1, 2, 3, 4))
_EXP_OFFSET = 400
_EXPONENTS = np.array(
    [b"e%+03d" % e for e in range(-_EXP_OFFSET, _EXP_OFFSET)], dtype="S5"
)
# One value's slots: sign | "0" | 17 integer digits | "." | "000" |
# 17 fraction digits | exponent | separator.  Both digit fields hold all
# 17 digits; the mask keeps the integer part from the first and the
# fraction from the second.
_TEMPLATE = np.frombuffer(b"-0" + b"?" * 17 + b".000" + b"?" * 22 + b",", np.uint8)
_SLOTS = len(_TEMPLATE)


def _slot_masks() -> np.ndarray:
    """Kept slots for every (category, significant digits, sign).

    Categories ``E + 4`` are ``%g``'s fixed notation, ``-4 <= E < 17``;
    21 and 22 are exponent notation with two and three exponent digits.
    """
    masks = np.zeros((23, 17, 2, _SLOTS), bool)
    sig = np.arange(1, 18)[:, None, None]
    j = np.arange(17)
    for cat in range(23):
        e = cat - 4
        fixed = cat < 21
        m = masks[cat]
        # integer digits in the first field, after the "0." of |x| < 1
        whole = (e + 1 if e >= 0 else 0) if fixed else 1
        m[..., 1] = fixed and e < 0
        m[..., 2:19] = j < whole
        m[..., 19] = sig[..., 0] > whole
        m[..., 20:23] = np.arange(3) < (-e - 1 if fixed else 0)
        m[..., 23:40] = (j >= whole) & (j < sig)
        m[..., 40:45] = np.arange(5) < (0 if fixed else cat - 17)
    masks[..., 0] = [False, True]
    masks[..., -1] = True
    return masks.reshape(-1, _SLOTS).view(np.dtype((np.void, _SLOTS))).ravel()


_MASKS = _slot_masks()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split ``a = hi + lo`` into halves of 26 bits each."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


class _G17:
    """``%.17g`` text of the values of one table, chunk by chunk.

    Holds the slot buffer and the powers of ten, ``10**k = hi + lo``
    with ``hi`` split for the Dekker product; a power is built, in exact
    integer arithmetic, the first time a chunk needs it.
    """

    def __init__(self, cols: int, size: int):
        self.cols = cols
        self.slots = np.empty((size, _SLOTS), np.uint8)
        self.built = np.zeros(_K_MAX - _K_MIN + 1, bool)
        self.powers = np.empty((4, _K_MAX - _K_MIN + 1))

    def _powers_of_ten(self, k: np.ndarray) -> np.ndarray:
        idx = k - _K_MIN
        for i in np.unique(idx[~self.built[idx]]):
            e = int(i) + _K_MIN
            num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
            # integer true division rounds correctly: hi is 10**e rounded,
            # lo the exact remainder num/den - hi rounded
            hi = num / den
            a, b = hi.as_integer_ratio()
            self.powers[:, i] = (hi, *_split(hi), (num * b - a * den) / (den * b))
            self.built[i] = True
        return np.take(self.powers, idx, axis=1)

    def _round17(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``|v|`` as ``N 10**(E - 16)`` with ``N`` the correctly rounded
        17-digit integer; returns ``(N, E, exact)``, where ``exact`` is
        false for the values the fallback must format.  Zeros give
        ``N = 0``, ``E = 0``."""
        x = np.abs(v)
        zero = x == 0.0
        exact = (x >= _FAST_MIN) & (x <= _FAST_MAX)
        x[~exact] = 1.0
        e = np.floor(np.log10(x)).astype(np.int64)
        hi, hi1, hi2, lo = self._powers_of_ten(16 - e)
        # y = x 10**k = p + c: Dekker's exact product x hi = p + err, plus x lo
        p = x * hi
        x1, x2 = _split(x)
        c = (((x1 * hi1 - p) + x1 * hi2 + x2 * hi1) + x2 * hi2) + x * lo
        floor = np.floor(c)
        frac = c - floor
        exact &= np.abs(frac - 0.5) > _TIE_WINDOW
        # y must round into [1e16, 1e17): no carry into an 18th digit
        exact &= ((p - 1e16) + c > _TIE_WINDOW) & ((p - 1e17) + c < -0.5 - _TIE_WINDOW)
        digits17 = p.astype(np.int64) + (floor + (frac > 0.5)).astype(np.int64)
        # a zero's x is 1.0, which gave E = 0
        digits17[zero] = 0
        return digits17, e, exact | zero

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Text of ``v``, the flat values of whole table rows."""
        n = len(v)
        digits17, e, exact = self._round17(v)
        # the 17 digits as ASCII: a lead digit and four groups of four
        quads = np.empty((n, 5), np.int32)
        upper, lower = np.divmod(digits17, 10**8)
        quads[:, 0], upper = np.divmod(upper, 10**8)
        quads[:, 1], quads[:, 2] = np.divmod(upper, 10**4)
        quads[:, 3], quads[:, 4] = np.divmod(lower, 10**4)
        digits = np.take(_DIGITS4, quads).view(np.uint8)[:, 3:]
        trailing = _TRAILING4[quads[:, 4]]
        for col in (3, 2, 1):
            below = 4 * (4 - col)  # trailing zeros when the groups after col are all zero
            trailing = np.where(trailing == below, below + _TRAILING4[quads[:, col]], trailing)

        # slot mask by notation, significant digits and sign
        cat = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
        key = (cat * 17 + 16 - trailing) * 2 + np.signbit(v)
        mask = np.take(_MASKS, key).view(bool).reshape(n, _SLOTS)
        raw = self.slots[:n]
        raw[:, :2] = _TEMPLATE[:2]
        raw[:, 19:23] = _TEMPLATE[19:23]
        raw[:, 2:19] = digits
        raw[:, 23:40] = digits
        raw[:, 40:45] = np.take(_EXPONENTS, e + _EXP_OFFSET).view(np.uint8).reshape(n, 5)
        raw[:, -1] = ord(",")
        raw[self.cols - 1::self.cols, -1] = ord("\n")
        for i in np.flatnonzero(~exact):
            text = b"%.17g" % v[i]
            raw[i, :len(text)] = np.frombuffer(text, np.uint8)
            mask[i, :-1] = np.arange(_SLOTS - 1) < len(text)
        return raw[mask]
