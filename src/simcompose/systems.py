"""Interconnected linear subsystems.

A subsystem

    dx/dt = A x + B u + D w,    zeta = C_ext x,    y_j = C_int[j] x

has an external input ``u``, an external output ``zeta``, an internal
disturbance vector ``w`` collecting everything received from peers, and
one internal output block per receiving peer. The columns of ``D`` are
grouped per incoming channel, in the order listed in ``channels_in``.

An interconnection wires internal outputs to internal inputs:
subsystem ``i`` receiving a channel from ``j`` reads ``w_ij = C_int``
of ``j`` toward ``i`` applied to ``x_j``. Widths must match and a
subsystem may not feed itself.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .linalg import Matrix, as_matrix


@dataclass(frozen=True)
class InternalChannel:
    """One incoming channel: the sending subsystem and its scalar width."""

    source: str
    width: int


@dataclass
class LinearSystem:
    """State-space subsystem with partitioned internal inputs/outputs.

    Every matrix is checked to be finite, unless ``finite=True`` says
    that whoever read it already did (the project reader checks each
    entry as it reads it, and names the one it rejects).
    """

    name: str
    A: Matrix
    B: Matrix
    C_ext: Matrix
    D: Matrix
    channels_in: tuple[InternalChannel, ...]
    C_int: dict[str, Matrix]
    _channel_slices: dict[str, slice] = field(init=False, repr=False, compare=False)
    _: KW_ONLY
    finite: InitVar[bool] = False

    def __post_init__(self, finite: bool):
        def checked(mat: Matrix, label: str) -> Matrix:
            return mat if finite else self._finite(mat, label)

        self.A = checked(as_matrix(self.A, f"{self.name}.A"), "A")
        n = self.A.shape[0]
        if n == 0:
            raise ValueError(f"{self.name}.A has no states; a subsystem needs at least one")
        if self.A.shape != (n, n):
            raise ValueError(f"{self.name}.A must be square, got {self.A.shape}")
        self.B = checked(self._coerce(self.B, n, "B"), "B")
        self.C_ext = checked(self._coerce_rows(self.C_ext, n, "C_ext"), "C_ext")
        self.D = checked(self._coerce(self.D, n, "D"), "D")
        self.channels_in = tuple(self.channels_in)
        self.C_int = {
            peer: checked(self._coerce_rows(c, n, f"C_int[{peer}]"), f"C_int[{peer}]")
            for peer, c in self.C_int.items()
        }
        bounds = _offsets(ch.width for ch in self.channels_in)
        if self.D.shape[1] != bounds[-1]:
            raise ValueError(
                f"{self.name}.D has {self.D.shape[1]} columns but channels "
                f"declare total width {bounds[-1]}"
            )
        slices = {}
        for ch, start, stop in zip(self.channels_in, bounds, bounds[1:]):
            if ch.source == self.name:
                raise ValueError(f"{self.name} may not receive a channel from itself")
            if ch.width <= 0:
                raise ValueError(f"channel from {ch.source} must have positive width")
            if ch.source in slices:
                raise ValueError(f"{self.name} lists two channels from {ch.source}")
            slices[ch.source] = slice(start, stop)
        self._channel_slices = slices

    def _finite(self, mat: Matrix, label: str) -> Matrix:
        if not np.isfinite(mat).all():
            raise ValueError(f"{self.name}.{label} has non-finite entries")
        return mat

    def _coerce(self, mat, n: int, label: str) -> Matrix:
        mat = np.asarray(mat, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.size == 0:
            mat = mat.reshape(n, -1)
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(f"{self.name}.{label} must have {n} rows, got shape {mat.shape}")
        return mat

    def _coerce_rows(self, mat, n: int, label: str) -> Matrix:
        mat = np.asarray(mat, dtype=float)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.size == 0:
            mat = mat.reshape(-1, n)
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError(f"{self.name}.{label} must have {n} columns, got shape {mat.shape}")
        return mat

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C_ext.shape[0]

    @property
    def p(self) -> int:
        return self.D.shape[1]

    def channel_slice(self, source: str) -> slice:
        """Column range of ``D`` belonging to the channel from ``source``."""
        try:
            return self._channel_slices[source]
        except KeyError:
            raise KeyError(f"{self.name} has no channel from {source}") from None

    def d_block(self, source: str) -> Matrix:
        return self.D[:, self.channel_slice(source)]

    def output_blocks(self) -> list[Matrix]:
        """External output first, then internal blocks in channel-name order."""
        blocks = [self.C_ext] if self.C_ext.shape[0] else []
        for peer in sorted(self.C_int):
            blk = self.C_int[peer]
            if blk.shape[0]:
                blocks.append(blk)
        return blocks


@dataclass
class Interconnection:
    """A named collection of subsystems with compatible channel wiring.

    :meth:`validate` also records the network layout: the position of
    each name, and where each subsystem sits in the stacked state,
    external input and external output vectors (``state_offsets[i]`` to
    ``state_offsets[i + 1]`` for subsystem ``i``, and likewise for the
    inputs and outputs). ``subsystems`` is stored as a tuple, so that
    layout cannot fall out of step with it.
    """

    subsystems: tuple[LinearSystem, ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    state_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    input_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    output_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.subsystems = tuple(self.subsystems)
        self.validate()

    def validate(self):
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate subsystem names in {names}")
        index = {name: i for i, name in enumerate(names)}
        self._positions = index
        self.state_offsets = _offsets(s.n for s in self.subsystems)
        self.input_offsets = _offsets(s.m for s in self.subsystems)
        self.output_offsets = _offsets(s.q for s in self.subsystems)
        for sub in self.subsystems:
            for ch in sub.channels_in:
                if ch.source not in index:
                    raise ValueError(f"{sub.name} receives from unknown subsystem {ch.source}")
                sender = self.subsystems[index[ch.source]]
                block = sender.C_int.get(sub.name)
                if block is None:
                    raise ValueError(
                        f"{sub.name} expects a channel from {ch.source}, but "
                        f"{ch.source} declares no output toward {sub.name}"
                    )
                if block.shape[0] != ch.width:
                    raise ValueError(
                        f"channel {ch.source} -> {sub.name}: declared width "
                        f"{ch.width} but the sender's output block has "
                        f"{block.shape[0]} rows"
                    )
        for sub in self.subsystems:
            for peer in sub.C_int:
                if peer not in index:
                    raise ValueError(f"{sub.name} declares an output toward unknown subsystem {peer}")

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.subsystems]

    def index(self, name: str) -> int:
        return self._positions[name]

    def __getitem__(self, name: str) -> LinearSystem:
        return self.subsystems[self.index(name)]

    def state_slice(self, name: str) -> slice:
        """Where subsystem ``name`` sits in the stacked state."""
        i = self.index(name)
        return slice(self.state_offsets[i], self.state_offsets[i + 1])


def _offsets(sizes) -> tuple[int, ...]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return tuple(out)
