"""Fixed-step trajectory integration and error-bound evaluation.

Abstract and concrete interconnections are co-integrated as one joint
linear system: the abstract network runs open loop on the supplied
input, and every concrete subsystem is driven through its interface,
so the deviation functions can be sampled along the pair of
trajectories and compared with the scalar and vector bounds.  The
bounds are checked at the grid points only.

Every run of the joint system (:func:`refine_and_run`) goes through one
propagator, :func:`_run_lti`.  With the input held over each step, classical
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

The joint system is never flattened network by network: its ``A``, ``B``
and output maps are lists of subsystem blocks (:func:`_joint_blocks`,
:class:`_Blocks`).  In the dense form the blocks are written into zeros;
in the sparse form they become (column, value) pairs directly, so no
dense network-wide matrix is formed, and the outputs are gathered from
the states through the ``C_ext`` blocks' pairs.
"""

import os
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionResult, interface_gains
from .compose import ComposedSimFn, GainMatrices, compose_abstractions, perron
from .linalg import BOUND_TOL, GRID_TOL, Matrix, NumericsError
from .systems import Interconnection

# The density rule of the propagator (see _sparse_pays), in units of one
# stored pair of the sparse march: its fixed cost per step, and the cost
# per step of one of the n^2 entries of the blocked dense march.
SPARSE_STEP_OVERHEAD = 5000
DENSE_ENTRY_COST = 1 / 11

# Rows of the inputs _SparseRows.map_rows gathers at a time for the stored
# pairs after the first (256 rows of 800 states: 1.6 MB), and of the input
# samples Signal.sup_norm and _block_sup_norms square at a time.
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
        """Largest euclidean norm over the sample values, squared
        ``_GATHER_ROWS`` rows at a time."""
        if self.width == 0:
            return 0.0
        return float(max(
            np.linalg.norm(self.values[first:first + _GATHER_ROWS], axis=1).max()
            for first in range(0, len(self.values), _GATHER_ROWS)
        ))

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
        """Stack several signals into one over the union of sample times.

        Each part's columns are filled from its own sample times, where
        they sit in the union, rather than by sampling it on the union.
        """
        signals = list(signals)
        if not signals:
            raise ValueError("nothing to stack")
        times = np.unique(np.concatenate([s.times for s in signals]))
        # C order, as np.hstack made it: sup_norm's row sums can change in
        # the last bit on another layout
        bounds = np.cumsum([0] + [s.width for s in signals])
        values = np.empty((len(times), bounds[-1]))
        for s, col, stop in zip(signals, bounds, bounds[1:]):
            starts = np.searchsorted(times, s.times)
            part = values[:, col:stop]
            part[:starts[0]] = 0.0
            part[starts[0]:] = np.repeat(s.values, np.diff(starts, append=len(times)), axis=0)
        return cls(times, values)


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
        if not len(steps):
            return
        # on top of GRID_TOL, the rounding of the grid's own points: a step
        # is the difference of two points, each off by up to half an ulp
        # of the largest time, so two steps differ by up to 2 ulps
        rounding = 2 * np.spacing(np.abs(self.times).max())
        spread = max(steps.max() - steps[0], steps[0] - steps.min())
        if not spread <= GRID_TOL * abs(steps[0]) + rounding:
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


def require_memory(t_final: float, dt: float, width: int, switches: float) -> None:
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
    Each map is the sum of its Taylor terms, left to right.
    """
    sparse = isinstance(a, _SparseRows)
    eye = a.identity() if sparse else np.eye(a.shape[0])
    ad = dt * a
    ad2 = ad @ ad
    ad3 = ad2 @ ad
    if sparse:
        # one from_triplets pass over all the terms, not one per +
        phi = _SparseRows.total([eye, ad, ad2 / 2.0, ad3 / 6.0, ad3 @ ad / 24.0])
        core = dt * _SparseRows.total([eye, ad / 2.0, ad2 / 6.0, ad3 / 24.0])
    else:
        # term by term: holding every dense term at once raised wide's
        # peak memory by 0.7 MB
        phi = eye + ad + ad2 / 2.0 + ad3 / 6.0 + ad3 @ ad / 24.0
        core = dt * (eye + ad / 2.0 + ad2 / 6.0 + ad3 / 24.0)
    return phi, core


def _run_lti(a: "Matrix | _SparseRows", b: "Matrix | _SparseRows", inputs: np.ndarray,
             x0: np.ndarray, grid: np.ndarray, dt: float) -> np.ndarray:
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

    ``A`` and ``B`` come as dense matrices or as :class:`_SparseRows`,
    and either form is converted to the one the rule picks.  The states
    are written straight into the returned array; a blow-up is reported
    at the first grid time with a non-finite state.
    """
    n = len(x0)
    phi = None
    # A's nonzeros bound phi's from below, so a dense A builds nothing sparse
    if _sparse_pays(n, np.count_nonzero(a.vals if isinstance(a, _SparseRows) else a)):
        phi, core = _step_maps(_SparseRows.of(a), dt)
        if not _sparse_pays(n, phi.pairs):
            phi = None
    sparse = phi is not None
    if sparse:
        states = np.empty((len(grid), n))
        # the drive of each step is the zero-state march's next row
        (core @ _SparseRows.of(b)).map_rows(inputs[:-1], out=states[1:])
    else:
        phi, core = _step_maps(np.asarray(a), dt)
        drive = inputs @ (core @ np.asarray(b)).T
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

    @classmethod
    def of(cls, a) -> "_SparseRows":
        """``a`` itself, or the rows of a dense matrix."""
        return a if isinstance(a, _SparseRows) else cls.from_dense(a)

    @classmethod
    def total(cls, terms) -> "_SparseRows":
        """Sum of same-shape ``terms`` in one :meth:`from_triplets` pass:
        ``bincount`` adds each entry's terms in the order given, so the sum
        is bit for bit the left-to-right one, without a sort per ``+``."""
        parts = zip(*(term.triplets() for term in terms))
        return cls.from_triplets(*(np.concatenate(p) for p in parts), terms[0].shape)

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

    def __array__(self, dtype=None, copy=None) -> Matrix:
        # np.asarray gives the dense matrix, for the dense form and oracles
        return self.todense() if dtype is None else self.todense().astype(dtype)

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
    t_final: float,
    dt: float,
) -> RefinementRun:
    """Run the abstract network and its interface-refined concrete twin.

    The abstract interconnection is driven by ``uhat``; every concrete
    input is produced by its subsystem's interface from the local pair
    of states, the abstract signals it receives and its slice of
    ``uhat``.  Both networks advance together as one joint linear system,
    which keeps the refinement exactly synchronous.

    The joint ``A`` and ``B`` are built once, as the list of subsystem
    blocks (:func:`_joint_blocks`), and the density rule on ``A``'s
    nonzeros picks their form: written into dense zeros for a small or
    dense system (every system under 235 states), or turned straight into
    the sparse rows of :func:`_run_lti` otherwise, so no network-wide
    dense matrix is formed.  The outputs come from the ``C_ext`` blocks
    in the same form.  A deviation or output mismatch whose squares pass
    the float range raises ``NumericsError`` naming it, rather than
    reading as an infinite violation.

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
    t_final, dt : float
        Horizon and step size of the time grid.

    Returns
    -------
    RefinementRun
    """
    abstract_ic = compose_abstractions(concrete, abstractions)
    names = tuple(concrete.names)
    if tuple(composed.names) != names:
        raise ValueError("composition and interconnection name orders differ")
    order = [abstractions[name] for name in names]
    a_blocks, b_blocks = _joint_blocks(concrete, abstractions, abstract_ic)
    n_hat, n = abstract_ic.state_offsets[-1], concrete.state_offsets[-1]

    if uhat.width != b_blocks.shape[1]:
        raise ValueError(
            f"abstract input width {uhat.width}, expected {b_blocks.shape[1]}"
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

    # the density rule on A's nonzeros picks the form of every joint matrix
    sparse = _sparse_pays(a_blocks.shape[0], a_blocks.nonzeros())
    form = _Blocks.rows if sparse else _Blocks.dense
    grid = time_grid(t_final, dt)
    states = _run_lti(
        form(a_blocks), form(b_blocks), uhat.sample(grid), np.concatenate([xhat0, x0]),
        grid, dt,
    )

    xhat_states = states[:, :n_hat]
    x_states = states[:, n_hat:]
    # overflow is reported below, by name, once every quantity is formed
    with np.errstate(over="ignore", invalid="ignore"):
        yhat, y = (
            _map_rows(form(_output_blocks(ic)), part)
            for ic, part in ((abstract_ic, xhat_states), (concrete, x_states))
        )
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
    # the states are finite (_run_lti), so a non-finite value here is a
    # square or product beyond the float range, not a violated bound
    for values, labels in (
        (v, [f"deviation V_{name}" for name in names]),
        (mismatch[:, np.newaxis], ["output mismatch"]),
    ):
        if not _finite(values):
            row = np.argmin(_finite(values, axis=1))
            raise NumericsError(
                f"{labels[np.argmin(np.isfinite(values[row]))]} overflows the float range"
                f" at t = {grid[row]:.6g}, with every state finite"
            )

    return RefinementRun(
        names=names,
        abstract=Trajectory(grid, xhat_states, yhat),
        concrete=Trajectory(grid, x_states, y),
        v=v,
        v_composed=v_composed,
        mismatch=mismatch,
        input_offsets=abstract_ic.input_offsets,
    )


def _map_rows(m, x: np.ndarray) -> np.ndarray:
    """``x @ m.T``, by the stored pairs when ``m`` is a :class:`_SparseRows`."""
    if not isinstance(m, _SparseRows):
        return x @ m.T
    out = m.map_rows(x)
    # a dense product sums from +0, so its zeros are never -0
    out += 0.0
    return out


@dataclass(frozen=True)
class _Blocks:
    """A matrix of the joint system as the blocks ``(row, column,
    block)`` that a network's layout puts at ``[row:, column:]``, no two
    overlapping, with zeros elsewhere.  Two consumers read the list:
    :meth:`dense` writes the blocks into zeros, and :meth:`rows` turns
    them into the (column, value) pairs of :class:`_SparseRows` without
    forming the dense matrix."""

    shape: tuple[int, int]
    blocks: list

    def nonzeros(self) -> int:
        return sum(np.count_nonzero(block) for _, _, block in self.blocks)

    def dense(self) -> Matrix:
        out = np.zeros(self.shape)
        for row, col, block in self.blocks:
            out[row:row + block.shape[0], col:col + block.shape[1]] = block
        return out

    def rows(self) -> "_SparseRows":
        """The blocks' entries as triplets, one stack of same-shape blocks
        at a time; the exact zeros are left out, so the pairs are bit for
        bit :meth:`_SparseRows.from_dense` of :meth:`dense`."""
        stacks: dict[tuple, list] = {}
        for block in self.blocks:
            stacks.setdefault(block[2].shape, []).append(block)
        parts = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
        for (height, width), members in stacks.items():
            corners = np.array([(row, col) for row, col, _ in members])
            vals = np.stack([block for _, _, block in members])
            rows = corners[:, 0, None, None] + np.arange(height)[:, None]
            cols = corners[:, 1, None, None] + np.arange(width)
            parts.append((
                np.broadcast_to(rows, vals.shape).ravel(),
                np.broadcast_to(cols, vals.shape).ravel(),
                vals.ravel(),
            ))
        return _SparseRows.from_triplets(*(np.concatenate(p) for p in zip(*parts)), self.shape)


def _output_blocks(ic: Interconnection) -> _Blocks:
    """The block-diagonal external output map of ``ic``'s stacked state."""
    states, outputs = ic.state_offsets, ic.output_offsets
    return _Blocks(
        (outputs[-1], states[-1]),
        [(outputs[i], states[i], sub.C_ext) for i, sub in enumerate(ic.subsystems)],
    )


def _joint_blocks(concrete: Interconnection, abstractions: dict[str, AbstractionResult],
                  abstract_ic: Interconnection) -> tuple[_Blocks, _Blocks]:
    """State and input matrices of the joint system, as subsystem blocks:
    the abstract network stacked over its refined twin.

    Each network contributes its subsystems' ``A`` on the diagonal, each
    coupling ``D_i[:, channel from j] @ C_ji`` in its ``(i, j)`` block and
    ``B_i`` in the abstract rows.  Subsystem ``i``'s interface reads only
    its own states, the ``what_i`` it receives and its slice of
    ``uhat``, so its terms ``B_i u_i`` are written one subsystem at a
    time, where the two layouts put them.
    """
    hat_states, inputs = abstract_ic.state_offsets, abstract_ic.input_offsets
    states = [hat_states[-1] + offset for offset in concrete.state_offsets]
    a, b = [], []

    def couplings(ic, sub, offsets):
        # (column, block) of each channel sub receives; each coupling is
        # added onto zeros, as in a full-width sum, so zero signs match it
        for ch in sub.channels_in:
            j = ic.index(ch.source)
            yield offsets[j], sub.d_block(ch.source) @ ic[ch.source].C_int[sub.name] + 0.0

    for i, twin in enumerate(abstract_ic.subsystems):
        row = hat_states[i]
        a.append((row, row, twin.A))
        a += [(row, col, block) for col, block in couplings(abstract_ic, twin, hat_states)]
        b.append((row, inputs[i], twin.B))
    for i, sub in enumerate(concrete.subsystems):
        xhat_gain, x_gain, what_gain, uhat_gain = interface_gains(abstractions[sub.name].simfn)
        row = states[i]
        a.append((row, row, sub.A + sub.B @ x_gain))
        a += [(row, col, block) for col, block in couplings(concrete, sub, states)]
        a.append((row, hat_states[i], sub.B @ xhat_gain))
        for ch in sub.channels_in:
            a.append((row, hat_states[abstract_ic.index(ch.source)], sub.B @ (
                what_gain[:, sub.channel_slice(ch.source)]
                @ abstract_ic[ch.source].C_int[sub.name]
            )))
        b.append((row, inputs[i], sub.B @ uhat_gain))
    size = states[-1]
    return _Blocks((size, size), a), _Blocks((size, inputs[-1]), b)


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


def vector_bound(gm: GainMatrices, uhat_inf) -> np.ndarray:
    """Fixed point of the per-subsystem deviation recursion.

    The recursion ``V <- S V + Lambda^-1 Zhat``, with ``S = Gamma
    Lambda^-1`` and ``Zhat_i = rho_i * uhat_inf_i``, has the fixed point
    ``(I - S)^-1 Lambda^-1 Zhat``, returned here. It converges exactly
    when ``rho(S) < 1``, which for ``S >= 0`` holds exactly when ``(I -
    S) x = 1`` has a solution ``x > 0`` (``I - S`` is a nonsingular
    M-matrix; Berman and Plemmons 1979). That solve decides;
    ``NumericsError`` is raised on divergence, with the radius from
    :func:`perron`.

    Parameters
    ----------
    gm : GainMatrices
        Interconnection gains.
    uhat_inf : (N,) array_like
        Supremum norm of each subsystem's abstract input.

    Returns
    -------
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
    return np.linalg.solve(i_minus_s, z)


@dataclass(frozen=True)
class BoundReport:
    """Sampled bounds versus observed deviations for one run.

    ``margin`` is the scalar bound minus the output mismatch per
    sample; ``vvec_margin`` is the worst slack of each subsystem
    deviation against its fixed-point bound plus decaying transient.
    """

    names: tuple[str, ...]
    v0: float
    lam: float
    rho: float
    u_inf: float
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
    samples, so the bounds are relative to the simulated horizon; a sup
    norm that overflows raises ``NumericsError`` naming it.
    """
    if tuple(run.names) != tuple(gm.names):
        raise ValueError("run and gain matrices order their subsystems differently")
    if v0 is None:
        v0 = float(run.v_composed[0])
    elif not np.isfinite(v0):
        raise ValueError(f"bound start level v0 must be finite, got {v0}")
    elif v0 < 0:
        raise ValueError(f"bound start level v0 must be nonnegative, got {v0}")
    # a finite input whose squares pass the float range has an infinite
    # norm, which would read as a violated bound
    with np.errstate(over="ignore"):
        u_inf = uhat.sup_norm
        block_norms = _block_sup_norms(uhat.values, run.input_offsets)
    if not (np.isfinite(u_inf) and np.isfinite(block_norms).all()):
        raise NumericsError(
            "input sup norm overflows the float range: its largest entry is"
            f" {np.abs(uhat.values).max():.6g}"
        )
    margin = scalar_bound(v0, composed.lam, composed.rho, u_inf, run.times) - run.mismatch

    fixed_point = vector_bound(gm, block_norms)
    # fixed point + exp(-lam t) v(0) - v, one steps x subsystems array
    allowance = np.multiply(run.times[:, np.newaxis], -gm.lam)
    np.exp(allowance, out=allowance)
    allowance *= run.v[0]
    allowance += fixed_point
    allowance -= run.v
    vvec_margin = np.min(allowance, axis=0)

    return BoundReport(
        names=tuple(run.names),
        v0=v0,
        lam=composed.lam,
        rho=composed.rho,
        u_inf=u_inf,
        mismatch=run.mismatch,
        margin=margin,
        vvec_fixed_point=fixed_point,
        vvec_margin=vvec_margin,
    )


def _block_sup_norms(values: np.ndarray, offsets) -> np.ndarray:
    """Largest euclidean norm over the rows of each column block
    ``values[:, offsets[i]:offsets[i + 1]]``, 0 for an empty block, in
    one pass over ``values``, ``_GATHER_ROWS`` rows of squares at a time."""
    offsets = np.asarray(offsets)
    nonempty = np.diff(offsets) > 0
    norms = np.zeros(len(offsets) - 1)
    if nonempty.any():
        squares = np.zeros(np.count_nonzero(nonempty))
        for first in range(0, len(values), _GATHER_ROWS):
            # reduceat returns the entry at an offset equal to the next
            # one, not 0, so the empty blocks are left out
            sums = np.add.reduceat(
                values[first:first + _GATHER_ROWS] ** 2, offsets[:-1][nonempty], axis=1
            )
            np.maximum(squares, sums.max(axis=0), out=squares)
        norms[nonempty] = np.sqrt(squares)
    return norms


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


def write_table(path, table) -> None:
    """Write a float matrix as CSV, one line per row.

    Every value is written exactly as ``b"%.17g" % value`` writes it, so
    rereading reproduces the doubles bit for bit and the file matches
    ``np.savetxt(fmt="%.17g", delimiter=",")`` byte for byte.  Chunks of
    whole rows, about ``2**13`` values each, are formatted in numpy (see
    :class:`_G17`): each value's text is laid out in four 64-bit words,
    a prefix, its 16 trailing digits and the exponent with the separator,
    and one mask by notation, significant digits and sign keeps its bytes.

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
    the range, inf and NaN included; they are formatted together, one
    list per chunk.
    """
    _write_columns(path, [np.atleast_2d(np.asarray(table, dtype=float))], None)


def _write_columns(path, blocks, header) -> None:
    """:func:`write_table` of the matrices ``blocks`` placed side by side,
    after the line ``header`` unless it is None; they share their row
    count."""
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
# one chunk).  Its 32-byte rows and the temporaries, released as soon as
# they are used, peak at about 140 bytes a value: the writer stays under
# 2 MB beyond the arrays it reads.
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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split ``a = hi + lo`` into halves of 26 bits each."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _power_splits() -> np.ndarray:
    """Rows ``hi1, hi2, lo`` of ``10**k = hi1 + hi2 + lo`` for ``k`` from
    ``_K_MIN`` to ``_K_MAX``: ``10**k`` rounded, split as ``hi1 + hi2``
    for the Dekker product, and ``lo`` the exact remainder rounded.
    Integer true division rounds correctly."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.stack([*_split(np.array(hi)), np.array(lo)])


_POWERS = _power_splits()

_QUADS = np.arange(10000, dtype=np.int16)
# "%04d" of 0..9999 as one little-endian uint32 each, and its trailing zeros
_DIGITS4 = (
    np.stack([_QUADS // 10**j % 10 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8) + ord("0")
).view("<u4").ravel()
_TRAILING4 = sum((_QUADS % 10**j == 0).astype(np.int8) for j in (1, 2, 3, 4))

# A value's text is laid out in a 32-byte row of four little-endian
# uint64 words:
#   word 0     the prefix, right-aligned: the sign, the "0." and leading
#              zeros of 1e-4 <= |x| < 1, the lead digit, and the "." of
#              exponent notation;
#   words 1-2  the 16 digits after the lead digit; in fixed notation with
#              1 <= |x| < 1e16 a "." is inserted after the integer digits,
#              which moves the last digit into word 3;
#   word 3     the exponent and the separator, after that moved digit.
# A mask keyed by notation, significant digits and sign keeps the bytes of
# "%.17g"; a value with 17 significant digits keeps one contiguous run.
#
# Notations are categories of the decimal exponent E: E + 4 for %g's fixed
# notation, -4 <= E <= 16, then 21 and 22 for exponent notation with two
# and three exponent digits.
_EXP_OFFSET = 400
_EXPONENTS = np.arange(-_EXP_OFFSET, _EXP_OFFSET)
_CATEGORY = np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS <= 16),
    _EXPONENTS + 4,
    np.where(np.abs(_EXPONENTS) < 100, 21, 22),
)
_CATS = np.arange(23)
_EXPONENT_NOTATION = _CATS >= 21
# fixed notation with a "." inserted after the integer digits, E in [0, 15]
_INSERTED = ~_EXPONENT_NOTATION & (_CATS >= 4) & (_CATS <= 19)


def _prefixes() -> np.ndarray:
    """Word 0 for every (category, sign, lead digit)."""
    texts = []
    for cat in range(23):
        zeros = b"0." + b"0" * (3 - cat) if cat < 4 else b""
        dot = b"." if _EXPONENT_NOTATION[cat] else b""
        for sign in (b"", b"-"):
            for lead in b"0123456789":
                texts.append((sign + zeros + bytes([lead]) + dot).rjust(8, b"\0"))
    return np.frombuffer(b"".join(texts), "<u8")


def _tails() -> np.ndarray:
    """Word 3 for every (exponent, last column): the exponent and the
    separator, after the byte of a moved digit where a "." was inserted."""
    texts = []
    for e, cat in zip(_EXPONENTS.tolist(), _CATEGORY.tolist()):
        exponent = b"e%+03d" % e if _EXPONENT_NOTATION[cat] else b""
        moved = b"\0" if _INSERTED[cat] else b""
        for sep in (b",", b"\n"):
            texts.append((moved + exponent + sep).ljust(8, b"\0"))
    return np.frombuffer(b"".join(texts), "<u8")


def _insertions() -> np.ndarray:
    """Rows ``low1, low2, dot1, dot2`` for every category: the bytes of
    words 1 and 2 before the inserted ".", and the "." in its place; a
    category without one keeps both words whole."""
    at = np.where(_INSERTED, _CATS - 4, 16)[:, None]
    byte = np.arange(16)
    low = np.where(byte < at, 0xFF, 0).astype(np.uint8)
    dot = np.where(byte == at, ord("."), 0).astype(np.uint8)
    return np.hstack([low.view("<u8"), dot.view("<u8")]).T.copy()


def _kept_masks() -> np.ndarray:
    """Kept bytes of a row for every (category, significant digits, sign),
    one 32-byte void each."""
    cat = _CATS[:, None, None, None]
    sig = np.arange(1, 18)[:, None, None]
    neg = np.arange(2)[:, None]
    byte = np.arange(32)
    e = cat - 4
    expo = _EXPONENT_NOTATION[cat]
    inserted = _INSERTED[cat]
    start = 8 - neg - np.where(expo, 2, np.where(e < 0, 2 - e, 1))
    prefix = (byte >= start) & (byte < 8) & ~(expo & (byte == 7) & (sig == 1))
    # fixed notation keeps every integer digit, and the "." only before a
    # fraction digit
    digits_end = 8 + np.where(inserted, np.where(sig > e + 1, sig, e), np.where(e == 16, 16, sig - 1))
    digits = (byte >= 8) & (byte < digits_end)
    # the separator, after "e+dd" or "e+ddd" in exponent notation
    tail_start = np.where(inserted, 25, 24)
    tail = (byte >= tail_start) & (byte < tail_start + np.where(expo, cat - 16, 1))
    masks = np.ascontiguousarray(prefix | digits | tail)
    return masks.reshape(-1, 32).view(np.dtype((np.void, 32))).ravel()


_PREFIXES = _prefixes()
_TAILS = _tails()
_INSERTIONS = _insertions()
_KEPT = _kept_masks()
_SEPARATORS = np.array([ord(","), ord("\n")], "<u8")


class _G17:
    """``%.17g`` text of the values of one table, chunk by chunk, in
    32-byte rows (see the layout above)."""

    def __init__(self, cols: int, size: int):
        self.words = np.empty((size, 4), "<u8")
        # 1 where a value ends its table row
        self.last = np.zeros(size, np.int8)
        self.last[cols - 1::cols] = 1

    def _round17(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``|v|`` as ``N 10**(E - 16)`` with ``N`` the correctly rounded
        17-digit integer; returns ``(N, E, exact)``, where ``exact`` is
        false for the values the fallback must format, whose ``N`` is 0.
        Zeros give ``N = 0``, ``E = 0``."""
        x = np.abs(v)
        zero = x == 0.0
        exact = (x >= _FAST_MIN) & (x <= _FAST_MAX)
        x[~exact] = 1.0
        e = np.floor(np.log10(x)).astype(np.int64)
        k = 16 - _K_MIN - e
        hi1, hi2, lo = (np.take(power, k) for power in _POWERS)
        # y = x 10**k = p + c: Dekker's exact product x hi = p + err, plus x lo
        p = x * (hi1 + hi2)
        x1, x2 = _split(x)
        c = (((x1 * hi1 - p) + x1 * hi2 + x2 * hi1) + x2 * hi2) + x * lo
        del x, x1, x2, k, hi1, hi2, lo
        floor = np.floor(c)
        frac = c - floor
        exact &= np.abs(frac - 0.5) > _TIE_WINDOW
        # y must round into [1e16, 1e17): no carry into an 18th digit
        exact &= ((p - 1e16) + c > _TIE_WINDOW) & ((p - 1e17) + c < -0.5 - _TIE_WINDOW)
        digits17 = p.astype(np.int64) + (floor + (frac > 0.5)).astype(np.int64)
        # a wrong decade leaves more than 17 digits: none may reach the tables
        digits17[~exact] = 0
        return digits17, e, exact | zero

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Text of ``v``, the flat values of whole table rows."""
        n = len(v)
        digits17, e, exact = self._round17(v)
        # the lead digit, and the 16 after it in two words of two groups of four
        lead = digits17 // 10**16
        rest = digits17 - lead * 10**16
        halves = np.empty((2, n), np.int64)
        halves[0] = rest // 10**8
        halves[1] = rest - halves[0] * 10**8
        del digits17, rest
        quads = np.empty((2, n, 2), np.int64)
        quads[..., 0] = halves // 10**4
        quads[..., 1] = halves - quads[..., 0] * 10**4
        del halves
        # trailing zeros, counted from the last group of four
        groups = quads[1, :, 1], quads[1, :, 0], quads[0, :, 1], quads[0, :, 0]
        trailing = _TRAILING4[groups[0]]
        for below, group in zip((4, 8, 12), groups[1:]):
            trailing = np.where(trailing == below, below + _TRAILING4[group], trailing)
        word1, word2 = np.take(_DIGITS4, quads).view("<u8")[..., 0]
        del quads, groups, group

        cat = np.take(_CATEGORY, e + _EXP_OFFSET)
        negative = np.signbit(v)
        key = (cat * 17 + 16 - trailing) * 2 + negative
        words = self.words[:n]
        words[:, 0] = np.take(_PREFIXES, (cat * 2 + negative) * 10 + lead)
        words[:, 3] = np.take(_TAILS, (e + _EXP_OFFSET) * 2 + self.last[:n])
        del e, lead, trailing, negative
        # insert the "." into words 1-2: the bytes after it move up one,
        # and the top byte of each word into the next
        low1, low2, dot1, dot2 = (np.take(table, cat) for table in _INSERTIONS)
        del cat
        kept = word1 & low1
        moved = word1 ^ kept
        words[:, 1] = kept | moved << 8 | dot1
        carry = moved >> 56
        kept = word2 & low2
        moved = word2 ^ kept
        words[:, 2] = kept | moved << 8 | carry | dot2
        words[:, 3] |= moved >> 56
        del word1, word2, low1, low2, dot1, dot2, kept, moved, carry

        mask = np.take(_KEPT, key).view(bool).reshape(n, 32)
        del key
        raw = words.view(np.uint8)
        bad = np.flatnonzero(~exact)
        if len(bad):
            # "%.17g" is at most 24 bytes: words 0-2, NUL-padded
            texts = np.array([b"%.17g" % x for x in v[bad].tolist()], "S24")
            words[bad, :3] = texts.view("<u8").reshape(-1, 3)
            words[bad, 3] = _SEPARATORS[self.last[bad]]
            mask[bad] = raw[bad] != 0
        return raw[mask]
