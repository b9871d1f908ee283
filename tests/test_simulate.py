"""Signals, fixed-step integration, refinement runs, and bound reports."""

import io
import itertools
import re
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from conftest import heterogeneous_ring, random_hurwitz, random_network
from oracles import build_monolithic, integrate, vector_recursion
from simcompose.abstraction import QuadraticSimFn, build_abstraction
from simcompose.cli import (
    build_abstractions,
    build_input_signal,
    parse_project,
    resolve_initial_states,
    run_compose,
)
from simcompose.compose import (
    GainMatrices,
    compose_abstractions,
    compose_simfn,
    gain_matrices,
    perron,
    small_gain,
)
from simcompose.demo import (
    DEMO_INPUT_AMPLITUDE,
    DEMO_INPUT_PERIOD,
    DEMO_XHAT0,
    demo_certificates,
    demo_interconnection,
    demo_projections,
)
from simcompose import simulate
from simcompose.linalg import NumericsError
from simcompose.simulate import (
    BOUND_TOL,
    Signal,
    _run_lti,
    _step_maps,
    appendix_gammas,
    bound_report,
    refine_and_run,
    scalar_bound,
    square_switches,
    Trajectory,
    time_grid,
    vector_bound,
    write_csv,
    write_gnuplot,
    write_table,
)
from simcompose.systems import Interconnection, InternalChannel, LinearSystem

DAMPED_NODE = np.array([[0.0, 1.0], [-6.0, -5.0]])


def expm_eig(a, t):
    """Matrix exponential through an eigendecomposition (test oracle)."""
    vals, vecs = np.linalg.eig(a)
    return (vecs @ np.diag(np.exp(vals * t)) @ np.linalg.inv(vecs)).real


def demo_pipeline(uhat=None, x0=None, t_final=20.0, dt=1e-3):
    ic = demo_interconnection()
    projections = demo_projections()
    certs = demo_certificates()
    results = {
        name: build_abstraction([ic[name]], projections[name][None], [certs[name]])[0]
        for name in ic.names
    }
    gm = gain_matrices(ic, {n: results[n].gains for n in ic.names})
    path = small_gain(gm)
    composed = compose_simfn(gm, path)
    xhat0 = np.array(DEMO_XHAT0)
    if x0 is None:
        x0 = np.concatenate(
            [results[n].simfn.P @ xhat0[i:i + 1] for i, n in enumerate(ic.names)]
        )
    if uhat is None:
        amp = np.zeros(8)
        amp[0:3] = DEMO_INPUT_AMPLITUDE
        amp[4:7] = -DEMO_INPUT_AMPLITUDE
        uhat = Signal.square(amp, period=DEMO_INPUT_PERIOD, t_final=t_final)
    run = refine_and_run(ic, results, composed, x0, xhat0, uhat, t_final, dt)
    return ic, results, gm, path, composed, uhat, run


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Signal(np.array([1.0, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Signal(np.array([0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="signal needs one value row per sample time"):
        Signal(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        Signal(np.zeros(0), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        Signal(np.array([0.0]), np.array([[np.nan]]))


def test_signal_hold_semantics():
    sig = Signal(np.array([1.0, 2.0]), np.array([[3.0], [5.0]]))
    assert np.allclose(sig.sample([0.5])[0], [0.0])  # zero before the first sample
    assert np.allclose(sig.sample([1.0])[0], [3.0])
    assert np.allclose(sig.sample([1.999])[0], [3.0])
    assert np.allclose(sig.sample([2.0])[0], [5.0])
    assert np.allclose(sig.sample([10.0])[0], [5.0])
    grid = np.array([0.5, 1.0, 1.5, 2.5])
    sampled = sig.sample(grid)
    assert np.allclose(sampled, [[0.0], [3.0], [3.0], [5.0]])
    assert sig.sup_norm == 5.0


def test_signal_square_wave():
    sig = Signal.square([2.0, -1.0], period=4.0, t_final=10.0)
    assert np.allclose(sig.sample([0.0])[0], [2.0, -1.0])
    assert np.allclose(sig.sample([1.9])[0], [2.0, -1.0])
    assert np.allclose(sig.sample([2.0])[0], [-2.0, 1.0])
    assert np.allclose(sig.sample([4.0])[0], [2.0, -1.0])
    assert sig.sup_norm == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValueError):
        Signal.square([1.0], period=0.0, t_final=1.0)


def test_signal_stack():
    a = Signal.constant([1.0])
    b = Signal(np.array([0.0, 2.0]), np.array([[0.5, 0.0], [0.0, -1.0]]))
    stacked = Signal.stack([a, b])
    assert stacked.width == 3
    assert np.allclose(stacked.sample([1.0])[0], [1.0, 0.5, 0.0])
    assert np.allclose(stacked.sample([3.0])[0], [1.0, 0.0, -1.0])
    assert Signal.zero(2).sup_norm == 0.0


def test_signal_stack_matches_sampling_each_part_on_the_union():
    # at each time of the union, a part holds its last row sampled at or
    # before it, and zero before its first sample: a plain loop over the
    # union times, matched bit for bit, with the result in C order
    rng = np.random.default_rng(98)
    parts = [
        Signal(np.cumsum(rng.uniform(0.1, 1.0, k)) - rng.uniform(0.0, 1.0),
               rng.standard_normal((k, width)))
        for k, width in [(1, 2), (5, 1), (3, 0), (7, 3), (1, 1)]
    ]
    parts.append(Signal(parts[3].times[1:4], rng.standard_normal((3, 2))))
    stacked = Signal.stack(parts)
    times = np.unique(np.concatenate([p.times for p in parts]))
    want = np.zeros((len(times), sum(p.width for p in parts)))
    for row, t in enumerate(times):
        col = 0
        for p in parts:
            held = [k for k, start in enumerate(p.times) if start <= t]
            if held:
                want[row, col:col + p.width] = p.values[held[-1]]
            col += p.width
    assert np.array_equal(stacked.times, times)
    assert stacked.values.tobytes() == want.tobytes()
    assert stacked.values.flags.c_contiguous


def test_signal_sample_matches_the_fancy_index_gather():
    # np.take along axis 0 gathers the held rows as indexing does; the
    # signal starts after t = 0, so the leading rows are zero, and it
    # switches between grid points
    rng = np.random.default_rng(12)
    times = 0.0125 + np.cumsum(np.append(0.0, rng.uniform(0.003, 0.02, 39)))
    sig = Signal(times, rng.standard_normal((40, 8)))
    grid = time_grid(1.0, 1e-3)
    idx = np.searchsorted(sig.times, grid, side="right") - 1
    want = sig.values[np.maximum(idx, 0)]
    want[idx < 0] = 0.0
    got = sig.sample(grid)
    assert idx[0] < 0 and np.all(got[:13] == 0.0) and np.any(got[13] != 0.0)
    assert not np.isin(sig.times, grid).any()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_time_grid():
    grid = time_grid(1.0, 0.25)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        time_grid(-1.0, 0.1)
    # whole multiples whose quotient rounds in binary still pass
    assert len(time_grid(20.0, 1e-3)) == 20001
    assert len(time_grid(0.1, 1e-3)) == 101
    assert len(time_grid(0.0, 1e-3)) == 1
    # a horizon between grid points is rejected, naming both values
    with pytest.raises(ValueError, match=r"horizon 1\.0005.* 0\.001"):
        time_grid(1.0005, 1e-3)
    with pytest.raises(ValueError, match="whole number of steps"):
        time_grid(1.0, 0.3)


def test_trajectory_accepts_its_own_long_grid_and_rejects_a_moved_point():
    # ten million steps: the rounding of k dt drifts the steps by about
    # 1.6e-9 relative, past GRID_TOL, and is allowed as the grid's own
    grid = time_grid(10000.0, 1e-3)
    Trajectory(grid, np.zeros((len(grid), 0)), np.zeros((len(grid), 0)))
    del grid
    # on a demo-length grid, one point moved by 1e-6 dt is not rounding
    grid = time_grid(20.0, 1e-3)
    grid[7000] += 1e-6 * 1e-3
    empty = np.zeros((len(grid), 0))
    with pytest.raises(ValueError, match="time grid must be uniform"):
        Trajectory(grid, empty, empty)
    Trajectory(time_grid(20.0, 1e-3), empty, empty)


def test_block_sup_norms_match_the_loop_over_blocks():
    # empty blocks first, between and last read 0; the others match the
    # per-block norms to the rounding of the reordered sums.  Both norms
    # square _GATHER_ROWS rows at a time, and per row those are the
    # whole-array sums, so the maxima are the same bits
    rng = np.random.default_rng(97)
    rows = 2 * simulate._GATHER_ROWS + 7
    values = rng.standard_normal((rows, 9)) * 10.0 ** rng.uniform(-3, 3, 9)
    offsets = [0, 0, 2, 2, 3, 7, 9, 9]
    want = [
        np.max(np.linalg.norm(values[:, lo:hi], axis=1)) if hi > lo else 0.0
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]
    got = simulate._block_sup_norms(values, offsets)
    assert got.shape == (7,) and got[[0, 2, 6]].tolist() == [0.0, 0.0, 0.0]
    assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)
    whole = np.add.reduceat(values ** 2, [0, 2, 3, 7], axis=1).max(axis=0)
    assert got[[1, 3, 4, 5]].tobytes() == np.sqrt(whole).tobytes()
    assert Signal(np.arange(len(values)), values).sup_norm == np.max(
        np.linalg.norm(values, axis=1)
    )
    assert simulate._block_sup_norms(values[:, :0], [0, 0]).tolist() == [0.0]


def test_time_grid_rejects_non_finite_values():
    for t_final, dt, message in (
        (np.inf, 1e-3, "horizon must be finite, got inf"),
        (np.nan, 1e-3, "horizon must be finite, got nan"),
        (1.0, np.nan, "step size must be finite, got nan"),
        (1.0, np.inf, "step size must be finite, got inf"),
        (1e300, 1e-10, "horizon 1e\\+300 holds too many steps of size 1e-10 to count"),
    ):
        with pytest.raises(ValueError, match=message):
            time_grid(t_final, dt)


def test_require_memory_compares_the_run_with_physical_memory(monkeypatch):
    # 1000 pages of 4096 bytes hold 512 000 doubles
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
    monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
    simulate.require_memory(511999.0, 1.0, 1, 0)
    simulate.require_memory(255999.0, 1.0, 2, 0)
    with pytest.raises(ValueError, match=r"^horizon 512000\.0 in steps of size 1\.0 needs"
                       r" 0\.0041 GB .* than the 0\.0041 GB of physical memory$"):
        simulate.require_memory(512000.0, 1.0, 1, 0)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        simulate.require_memory(1.5, 1.0, 1, 0)

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(simulate.os, "sysconf", unknown)
    simulate.require_memory(1e12, 1.0, 1000, 0)


def test_require_memory_counts_square_wave_switch_times(monkeypatch):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
    monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
    simulate.require_memory(9.0, 1.0, 1, switches=511990)
    # switch times that outnumber the grid points are named as the cause
    with pytest.raises(ValueError, match=r"^horizon 9\.0 in steps of size 1\.0 and 5\.12e\+05"
                       r" square-wave switch times needs 0\.0041 GB"):
        simulate.require_memory(9.0, 1.0, 1, switches=511991)
    with pytest.raises(ValueError, match=r"^horizon 511000\.0 in steps of size 1\.0 needs"):
        simulate.require_memory(511000.0, 1.0, 1, switches=1000)


@pytest.mark.parametrize("period, t_final", [
    (5.0, 20.0), (0.3, 1.0), (0.1, 0.7), (2.0, 0.0), (7.0, 1.0), (1e-3, 2.0), (0.2 / 3, 1.3),
])
def test_square_switches_count_what_signal_square_holds(period, t_final):
    times = Signal.square([1.0], period, t_final).times
    assert square_switches(period, t_final) == len(times)
    # the switch times np.arange makes from 0 in steps of half the period
    want = np.arange(0.0, max(t_final, period / 2), period / 2)
    assert times.tobytes() == want.tobytes()


def test_integrate_scalar_decay():
    sys = LinearSystem("s", [[-1.0]], np.zeros((1, 0)), [[1.0]], [], (), {})
    traj = integrate(sys, [1.0], t_final=1.0, dt=1e-3)
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert traj.outputs.shape == (1001, 1)


def test_integrate_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(401)
    mats = [DAMPED_NODE]
    for _ in range(5):
        n = rng.integers(2, 5)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats.append(q @ np.diag(-rng.uniform(0.3, 3.0, n)) @ q.T)
    for a in mats:
        n = a.shape[0]
        x0 = rng.standard_normal(n)
        sys = LinearSystem("s", a, np.zeros((n, 0)), np.eye(n), [], (), {})
        traj = integrate(sys, x0, t_final=1.0, dt=1e-3)
        exact = expm_eig(a, 1.0) @ x0
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8


def test_integrate_zero_dynamics_is_straight_line():
    sys = LinearSystem("s", np.zeros((2, 2)), np.eye(2), np.eye(2), [], (), {})
    u = Signal.constant([1.0, -2.0])
    traj = integrate(sys, [0.0, 0.0], u=u, t_final=2.0, dt=1e-3)
    assert np.allclose(traj.states[-1], [2.0, -4.0], atol=1e-10)
    mid = traj.states[1000]
    assert np.allclose(mid, [1.0, -2.0], atol=1e-10)


def test_integrate_internal_channel_signal():
    sys = LinearSystem(
        "s", [[-1.0]], np.zeros((1, 0)), [[1.0]], [[1.0]],
        (InternalChannel("peer", 1),), {},
    )
    traj = integrate(sys, [0.0], w=Signal.constant([1.0]), t_final=3.0, dt=1e-3)
    exact = 1.0 - np.exp(-3.0)
    assert traj.states[-1, 0] == pytest.approx(exact, abs=1e-9)


def test_integrate_fourth_order_convergence():
    x0 = np.array([1.0, -1.0])
    sys = LinearSystem("s", DAMPED_NODE, np.zeros((2, 0)), np.eye(2), [], (), {})
    exact = expm_eig(DAMPED_NODE, 1.0) @ x0
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate(sys, x0, t_final=1.0, dt=dt)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 22.0


def test_integrate_detects_blowup():
    sys = LinearSystem("s", [[5.0]], np.zeros((1, 0)), [[1.0]], [], (), {})
    with pytest.raises(NumericsError, match="non-finite"):
        integrate(sys, [1.0], t_final=300.0, dt=1e-2)


def test_integrate_argument_checks():
    sys = LinearSystem("s", [[-1.0]], [[1.0]], [[1.0]], [], (), {})
    with pytest.raises(ValueError, match="width"):
        integrate(sys, [0.0], u=Signal.constant([1.0, 2.0]))
    with pytest.raises(ValueError, match="initial state"):
        integrate(sys, [0.0, 0.0])
    mono = build_monolithic(Interconnection([sys]))
    with pytest.raises(ValueError, match="input width 0"):
        integrate(mono, [0.0], w=Signal.constant([1.0]))
    with pytest.raises(TypeError):
        integrate(object(), [0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="initial state has non-finite entries"):
            integrate(sys, [bad])


def test_integrate_checks_width_of_zero_width_input():
    sys = LinearSystem("s", [[-1.0]], np.zeros((1, 0)), [[1.0]], [], (), {})
    with pytest.raises(ValueError, match="signal width 2 does not match input width 0"):
        integrate(sys, [1.0], u=Signal.constant([5.0, 7.0]))
    traj = integrate(sys, [1.0], u=Signal.zero(0), t_final=0.1)
    assert traj.states[-1, 0] == pytest.approx(np.exp(-0.1), rel=1e-12)


def test_integrate_zero_horizon():
    sys = LinearSystem("s", [[-1.0]], np.zeros((1, 0)), [[1.0]], [], (), {})
    traj = integrate(sys, [0.7], t_final=0.0, dt=1e-3)
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 0.7


def test_refinement_matched_start_zero_input():
    _, _, _, _, _, _, run = demo_pipeline(
        uhat=Signal.zero(8), t_final=5.0
    )
    assert np.max(run.v) <= 1e-9
    assert np.max(run.mismatch) <= 1e-9
    assert np.max(run.v_composed) <= 1e-9


def test_refinement_single_subsystem_identity_projection():
    sys = LinearSystem("solo", DAMPED_NODE, [[0.0], [1.0]], [[1.0, 0.0]], [], (), {})
    ic = Interconnection([sys])
    (res,) = build_abstraction([sys], np.eye(2)[None])
    gm = gain_matrices(ic, {"solo": res.gains})
    path = small_gain(gm)
    composed = compose_simfn(gm, path)
    x0 = np.array([1.0, 0.0])
    xhat0 = np.array([0.2, -0.4])
    run = refine_and_run(
        ic, {"solo": res}, composed, x0, xhat0,
        Signal.zero(res.system.m), t_final=4.0, dt=1e-3,
    )
    # No abstract input: the deviation obeys its own pure decay envelope.
    envelope = np.exp(-composed.lam * run.times) * run.v_composed[0]
    assert np.all(run.v_composed <= envelope * (1.0 + 1e-3) + 1e-12)
    # Matched start stays matched.
    run2 = refine_and_run(
        ic, {"solo": res}, composed, xhat0, xhat0,
        Signal.zero(res.system.m), t_final=2.0, dt=1e-3,
    )
    assert np.max(run2.v) <= 1e-10


def test_refinement_argument_checks():
    ic, results, gm, path, composed, uhat, _ = demo_pipeline(t_final=0.0)
    xhat0 = np.array(DEMO_XHAT0)
    x0 = np.zeros(10)
    with pytest.raises(ValueError, match="width"):
        refine_and_run(ic, results, composed, x0, xhat0, Signal.zero(5), 1.0, 1e-3)
    with pytest.raises(ValueError, match="lengths"):
        refine_and_run(ic, results, composed, np.zeros(9), xhat0, Signal.zero(8), 1.0, 1e-3)
    bad_x0, bad_xhat0 = x0.copy(), xhat0.copy()
    bad_x0[3], bad_xhat0[0] = np.nan, -np.inf
    with pytest.raises(ValueError, match="initial state x0 has non-finite entries"):
        refine_and_run(ic, results, composed, bad_x0, xhat0, Signal.zero(8), 1.0, 1e-3)
    with pytest.raises(ValueError, match="initial state xhat0 has non-finite entries"):
        refine_and_run(ic, results, composed, x0, bad_xhat0, Signal.zero(8), 1.0, 1e-3)


def random_twins(rng, ic, sparse_p):
    """A random abstract twin and interface gains for every subsystem of
    ``ic``, wired like it.  Only the shapes matter for the assembly.
    With ``sparse_p`` each column of ``P`` has one nonzero entry."""
    twins, abstractions = [], {}
    for sub in ic.subsystems:
        nhat, mhat = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        p = rng.standard_normal((sub.n, nhat))
        if sparse_p:
            p *= np.arange(sub.n)[:, None] == rng.integers(0, sub.n, size=nhat)
        twins.append(LinearSystem(
            sub.name, rng.standard_normal((nhat, nhat)), rng.standard_normal((nhat, mhat)),
            rng.standard_normal((sub.q, nhat)), rng.standard_normal((nhat, sub.p)),
            sub.channels_in,
            {peer: rng.standard_normal((blk.shape[0], nhat)) for peer, blk in sub.C_int.items()},
        ))
        fn = QuadraticSimFn(
            P=p, M=np.eye(sub.n),
            K1=rng.standard_normal((sub.m, sub.n)), K2=rng.standard_normal((sub.m, nhat)),
            K3=rng.standard_normal((sub.m, sub.p)), K4=rng.standard_normal((sub.m, mhat)),
            lam=1.0,
        )
        abstractions[sub.name] = SimpleNamespace(simfn=fn)
    return abstractions, Interconnection(twins)


def dense_parts(ic, abstractions, abstract_ic):
    """The network-wide matrices of the dense formula: block-diagonal
    ``B`` and interface gains, and the map from the stacked abstract
    state to the stacked ``what``, one full-width row block per channel."""
    mono_c, mono_a = build_monolithic(ic), build_monolithic(abstract_ic)
    fns = [abstractions[name].simfn for name in ic.names]
    gains = [block_diag(*[getattr(fn, key) for fn in fns]) for key in ("P", "K1", "K2", "K3", "K4")]
    n_hat = abstract_ic.state_offsets[-1]
    rows = [np.zeros((0, n_hat))]
    for receiver in abstract_ic.subsystems:
        for ch in receiver.channels_in:
            block = np.zeros((ch.width, n_hat))
            sender = abstract_ic[ch.source]
            block[:, abstract_ic.state_slice(ch.source)] = sender.C_int[receiver.name]
            rows.append(block)
    return [mono_a.A, mono_a.B, mono_c.A, mono_c.B, *gains, np.vstack(rows)]


def dense_joint(a_hat, b_hat, a_c, b_bd, p, k1, k2, k3, k4, what_map):
    """Joint matrices from network-wide products, as a reference."""
    xhat_gain, x_gain, what_gain, uhat_gain = -(k1 @ p) - k2, k1, -k3, k4
    n_hat, n = len(a_hat), len(a_c)
    a = np.zeros((n_hat + n, n_hat + n))
    a[:n_hat, :n_hat] = a_hat
    a[n_hat:, :n_hat] = b_bd @ (xhat_gain + what_gain @ what_map)
    a[n_hat:, n_hat:] = a_c + b_bd @ x_gain
    return a, np.vstack([b_hat, b_bd @ uhat_gain])


@pytest.mark.parametrize("max_width, max_inputs", [(1, 1), (3, 2)])
def test_joint_matrices_match_the_dense_formula(max_width, max_inputs):
    # With scalar channels, at most one input per subsystem and one
    # nonzero entry per column of P, every entry of every product has at
    # most one nonzero term, so the blockwise assembly must match the
    # dense one bit for bit.  Otherwise products sum several terms, which
    # BLAS may order (and fuse) differently once zero terms are left out.
    exact = max_width == 1
    rng = np.random.default_rng(47 + max_width)
    eps = np.finfo(float).eps
    for _ in range(20):
        ic = random_network(rng, max_width, max_inputs=max_inputs)
        abstractions, abstract_ic = random_twins(rng, ic, sparse_p=exact)
        a, b = (part.dense() for part in simulate._joint_blocks(ic, abstractions, abstract_ic))
        parts = dense_parts(ic, abstractions, abstract_ic)
        ref_a, ref_b = dense_joint(*parts)
        assert a.shape == ref_a.shape and b.shape == ref_b.shape
        if exact:
            assert np.array_equal(a, ref_a)
            assert np.array_equal(b, ref_b)
        else:
            # every product of absolute values bounds its terms
            scale = max(np.abs(m).max(initial=1.0) for m in dense_joint(*map(np.abs, parts)))
            assert np.abs(a - ref_a).max() <= 8 * eps * scale
            assert np.abs(b - ref_b).max(initial=0.0) <= 8 * eps * scale


@pytest.fixture(scope="module")
def hetero_ring():
    """Arguments of refine_and_run for ``conftest.heterogeneous_ring`` of
    300 nodes over 1 001 steps of 0.01, started off zero (node 0 at -0)."""
    doc = heterogeneous_ring(np.random.default_rng(53), 300)
    xhat0 = np.random.default_rng(54).uniform(-1.0, 1.0, 300)
    xhat0[0] = -0.0
    doc["simulation"].update(t_final=10.0, xhat0=xhat0.tolist())
    project = parse_project(doc)
    results = build_abstractions(project)
    _, _, composed = run_compose(project, results)
    uhat = build_input_signal(project, results, 10.0)
    xhat0, x0 = resolve_initial_states(project, results)
    return (project.interconnection, results, composed, x0, xhat0, uhat, 10.0, 0.01)


def assembly_cases(hetero_ring):
    """(interconnection, abstractions, abstract twin) on random networks
    of both parametrizations and on the heterogeneous ring."""
    for max_width, max_inputs in [(1, 1), (3, 2)]:
        rng = np.random.default_rng(61 + max_width)
        for _ in range(10):
            ic = random_network(rng, max_width, max_inputs=max_inputs)
            abstractions, abstract_ic = random_twins(rng, ic, sparse_p=max_width == 1)
            yield ic, abstractions, abstract_ic
    ic, results = hetero_ring[:2]
    yield ic, results, compose_abstractions(ic, results)


def test_sparse_joint_system_from_blocks_matches_the_dense_one(hetero_ring):
    # the triplets of the blocks, with the exact zeros left out, are the
    # pairs of the dense joint matrices, byte for byte, and the density
    # rule reads the same nonzero count from both
    for ic, abstractions, abstract_ic in assembly_cases(hetero_ring):
        a, b = simulate._joint_blocks(ic, abstractions, abstract_ic)
        for part in (a, b):
            dense = part.dense()
            got, want = part.rows(), simulate._SparseRows.from_dense(dense)
            assert got.shape == want.shape == dense.shape
            assert got.cols.tobytes() == want.cols.tobytes()
            assert got.vals.tobytes() == want.vals.tobytes()
            assert part.nonzeros() == np.count_nonzero(dense) == np.count_nonzero(got.vals)
        n = a.shape[0]
        assert simulate._sparse_pays(n, a.nonzeros()) == simulate._sparse_pays(
            n, np.count_nonzero(a.dense())
        )
    # the ring's matrices are the dense formula's (every product there
    # has one nonzero term), and its joint system takes the sparse form
    ic, results = hetero_ring[:2]
    abstract_ic = compose_abstractions(ic, results)
    a, b = simulate._joint_blocks(ic, results, abstract_ic)
    ring_a, ring_b = dense_joint(*dense_parts(ic, results, abstract_ic))
    assert np.array_equal(a.dense(), ring_a) and np.array_equal(b.dense(), ring_b)
    assert a.shape == (1200, 1200) and simulate._sparse_pays(1200, a.nonzeros())


def test_run_lti_receives_the_ring_as_sparse_rows_and_the_demo_dense(monkeypatch, hetero_ring):
    calls = []

    def recording(*args):
        calls.append(args[:2])
        return _run_lti(*args)

    monkeypatch.setattr(simulate, "_run_lti", recording)
    demo_pipeline(t_final=0.01)
    refine_and_run(*hetero_ring[:6], 0.05, 0.01)
    (demo_a, demo_b), (ring_a, ring_b) = calls
    assert type(demo_a) is np.ndarray and demo_a.shape == (14, 14)
    assert type(demo_b) is np.ndarray and demo_b.shape == (14, 8)
    assert isinstance(ring_a, simulate._SparseRows) and ring_a.shape == (1200, 1200)
    assert isinstance(ring_b, simulate._SparseRows) and ring_b.shape[0] == 1200


def test_refine_and_run_transient_is_no_larger_than_the_run_it_returns(hetero_ring):
    # beyond the arrays of the run it returns, refine_and_run holds at
    # most as much again: the joint system is never formed densely.  The
    # sparse step maps' own transient (about 5 MB here, the sort of their
    # product terms) does not grow with the horizon, so the run is long
    # enough (1 001 steps) for the states to outweigh it
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run = refine_and_run(*hetero_ring)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = [
        run.times, run.abstract.states, run.concrete.states, run.abstract.outputs,
        run.concrete.outputs, run.v, run.v_composed, run.mismatch,
    ]
    owners = {id(a.base if a.base is not None else a): a.base if a.base is not None else a
              for a in arrays}
    returned = sum(owner.nbytes for owner in owners.values())
    assert run.concrete.states.shape == (1001, 900)
    assert peak - returned <= returned


def test_sparse_outputs_match_the_dense_product(hetero_ring):
    # the ring's outputs come from the C_ext blocks, one stored pair per
    # row: bit for bit the dense product of the flattened networks, zero
    # signs included (node 0 starts at -0)
    ic, results = hetero_ring[:2]
    run = refine_and_run(*hetero_ring[:6], 0.05, 0.01)
    assert np.signbit(run.abstract.states[0, 0]) and not np.signbit(run.abstract.outputs[0, 0])
    for traj, net in ((run.concrete, ic), (run.abstract, compose_abstractions(ic, results))):
        want = traj.states @ build_monolithic(net).C_ext.T
        assert traj.outputs.tobytes() == want.tobytes()


def random_network_pipeline(rng, ic):
    """refine_and_run and bound_report on ``ic`` with random twins,
    weights and gains: only the reductions along the run are compared."""
    abstractions, abstract_ic = random_twins(rng, ic, sparse_p=False)
    for sub in abstract_ic.subsystems:
        abstractions[sub.name].system = sub
    count, n_hat = len(ic.names), abstract_ic.state_offsets[-1]
    composed = SimpleNamespace(names=ic.names, weights=rng.uniform(0.5, 2.0, count),
                               lam=rng.uniform(0.5, 2.0), rho=rng.uniform(0.5, 2.0))
    gm = SimpleNamespace(names=ic.names, lam=rng.uniform(0.5, 2.0, count),
                         rho=rng.uniform(0.5, 2.0, count),
                         gamma=rng.uniform(0.0, 0.5 / count, (count, count)))
    x0 = rng.standard_normal(ic.state_offsets[-1])
    widths = abstract_ic.input_offsets[-1]
    uhat = Signal(np.arange(4) * 0.25, rng.standard_normal((4, widths)))
    run = refine_and_run(ic, abstractions, composed, x0, rng.standard_normal(n_hat), uhat, 1.0, 0.01)
    return run, bound_report(run, composed, gm, uhat), composed, gm, uhat


def reduction_cases():
    """(run, report, composed, gains, input) on the demo, a heterogeneous
    ring of 12 nodes (12 outputs) and random networks of 0 to 10 outputs."""
    ic, results, gm, path, composed, uhat, run = demo_pipeline(t_final=2.0)
    yield run, bound_report(run, composed, gm, uhat), composed, gm, uhat
    project = parse_project(heterogeneous_ring(np.random.default_rng(17), 12))
    results = build_abstractions(project)
    gm, _, composed = run_compose(project, results)
    uhat = build_input_signal(project, results, 2.0)
    xhat0, x0 = resolve_initial_states(project, results)
    run = refine_and_run(project.interconnection, results, composed, x0, xhat0, uhat, 2.0, 0.01)
    yield run, bound_report(run, composed, gm, uhat), composed, gm, uhat
    rng = np.random.default_rng(23)
    for _ in range(12):
        yield random_network_pipeline(rng, random_network(rng, 3))


def test_run_reductions_match_their_row_wise_definitions():
    # v is column-major and the output error is summed output by output;
    # each reduction equals its definition on C-ordered copies bit for
    # bit, the mismatch being the in-order sum of squares over outputs
    widths = set()
    for run, report, composed, gm, uhat in reduction_cases():
        v = np.ascontiguousarray(run.v)
        assert run.v.flags.f_contiguous
        want = np.max(v * composed.weights[np.newaxis, :], axis=1)
        assert run.v_composed.tobytes() == want.tobytes()
        yhat, y = (np.ascontiguousarray(t.outputs) for t in (run.abstract, run.concrete))
        diff = yhat - y
        squares = np.zeros(len(diff))
        for column in diff.T:
            squares = squares + column * column
        widths.add(y.shape[1])
        assert run.mismatch.tobytes() == np.sqrt(squares).tobytes()
        want = scalar_bound(float(run.v_composed[0]), composed.lam, composed.rho,
                            uhat.sup_norm, run.times) - run.mismatch
        assert report.margin.tobytes() == want.tobytes()
        allowance = (np.exp(run.times * -composed.lam)[:, np.newaxis]
                     * (float(run.v_composed[0]) / composed.weights))
        want = np.min(allowance + report.vvec_fixed_point - v, axis=0)
        assert report.vvec_margin.tobytes() == want.tobytes()
    # widths on both sides of the 8 at which numpy's row sums turn pairwise
    assert min(widths) < 8 <= max(widths)


def test_demo_run_respects_scalar_and_vector_bounds():
    ic, results, gm, path, composed, uhat, run = demo_pipeline()
    report = bound_report(run, composed, gm, uhat)
    assert report.ok
    assert report.min_margin > 0.0
    assert np.max(run.mismatch) <= report.rho_over_lambda * uhat.sup_norm + 1e-9
    assert any("scalar bound" in line for line in report.lines())


def test_demo_vector_fixed_point_closed_form():
    # Hand reduction of the four-node fixed point (Lambda - Gamma) F = Z:
    # the integrator abstractions s1, s3 decay at 1 and take the inputs
    # (identical Z = z); the nodes s2, s4 decay at lam_n = 2 and each
    # hear s1 with gain mu_n. So F1 = F3 = (mu_n / lam_n) F0, F2 = mu_i
    # (F1 + F3) + z, and F0 = mu_i F2 + z gives F0 = z (1 + mu_i) / (1 -
    # 2 mu_i^2 mu_n / lam_n).
    ic, results, gm, path, composed, uhat, run = demo_pipeline(t_final=0.0)
    report = bound_report(run, composed, gm, uhat)
    mu_i = np.sqrt(0.61) * 0.5
    mu_n = np.sqrt(2.0) * 0.5
    lam_n = 2.0
    rho_1 = np.sqrt(4.59 - 0.81 / 0.61)
    z = rho_1 * 0.1 / np.sqrt(2.0)
    f0 = z * (1.0 + mu_i) / (1.0 - 2.0 * mu_i**2 * mu_n / lam_n)
    f1 = mu_n / lam_n * f0
    expected = np.array([f0, f1, 2.0 * mu_i * f1 + z, f1])
    assert np.allclose(report.vvec_fixed_point, expected, atol=1e-9)
    assert np.allclose(gm.lam, [1.0, lam_n, 1.0, lam_n])


def test_scalar_bound_values():
    times = np.array([0.0, 1.0])
    b = scalar_bound(0.85, 0.8, 4.7, 0.1, times)
    assert b[0] == pytest.approx(0.85 + 4.7 / 0.8 * 0.1, rel=1e-12)
    assert b[1] == pytest.approx(np.exp(-0.8) * 0.85 + 0.5875, rel=1e-12)
    flat = scalar_bound(0.0, 1.0, 2.0, 0.5, times)
    assert np.allclose(flat, 1.0)
    decay = scalar_bound(1.0, 2.0, 3.0, 0.0, times)
    assert decay[1] == pytest.approx(np.exp(-2.0), rel=1e-12)
    with pytest.raises(ValueError):
        scalar_bound(1.0, 0.0, 1.0, 1.0, times)


def test_appendix_gammas():
    assert appendix_gammas(1.0, 1.0, 0.0) == (4.0, 0.0)
    assert appendix_gammas(1.0, 0.0, 0.0)[0] == 0.0
    with pytest.raises(ValueError):
        appendix_gammas(-1.0, 1.0, 1.0)


def test_vector_bound_zero_gamma():
    gm = GainMatrices(
        names=("x", "y"), gamma=np.zeros((2, 2)),
        lam=np.array([1.0, 2.0]), rho=np.array([2.0, 4.0]),
    )
    fixed_point = vector_bound(gm, [0.5, 0.25])
    iterates = vector_recursion(gm, [0.5, 0.25])
    assert np.allclose(fixed_point, [1.0, 0.5])
    assert np.allclose(iterates[0], [0.0, 0.0])
    assert np.allclose(iterates[1], fixed_point)


def test_vector_bound_two_by_two_closed_form():
    a, b = 0.4, 0.5
    gm = GainMatrices(
        names=("x", "y"), gamma=np.array([[0.0, a], [b, 0.0]]),
        lam=np.ones(2), rho=np.array([1.0, 1.0]),
    )
    z = np.array([0.3, 0.1])
    fixed_point = vector_bound(gm, z)
    iterates = vector_recursion(gm, z)
    denom = 1.0 - a * b
    assert fixed_point[0] == pytest.approx((z[0] + a * z[1]) / denom, rel=1e-12)
    assert fixed_point[1] == pytest.approx((z[1] + b * z[0]) / denom, rel=1e-12)
    assert np.allclose(iterates[-1], fixed_point, atol=1e-9)
    # From zero the recursion climbs monotonically toward the fixed point.
    assert np.all(np.diff(iterates, axis=0) >= -1e-12)
    assert np.all(iterates[-1] <= fixed_point + 1e-12)


def test_vector_bound_solves_lambda_minus_gamma_with_unequal_rates():
    # with lam = (1, 10), Gamma Lambda^-1 and Lambda^-1 Gamma differ; the
    # fixed point solves (Lambda - Gamma) F = Z: F0 = a F1 + Z0 and
    # 10 F1 = b F0 + Z1
    a, b = 2.0, 3.0
    gm = GainMatrices(
        names=("x", "y"), gamma=np.array([[0.0, a], [b, 0.0]]),
        lam=np.array([1.0, 10.0]), rho=np.array([1.0, 1.0]),
    )
    z = np.array([0.3, 0.1])
    fixed_point = vector_bound(gm, z)
    denom = 1.0 - a * b / 10.0
    assert fixed_point[0] == pytest.approx((z[0] + a * z[1] / 10.0) / denom, rel=1e-12)
    assert fixed_point[1] == pytest.approx((z[1] + b * z[0]) / 10.0 / denom, rel=1e-12)
    assert np.allclose(vector_recursion(gm, z, steps=200)[-1], fixed_point, rtol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_vector_bound_and_composed_decay_stay_above_the_comparison_system(data):
    # z* + V_c(0) exp(-lam_c t) xi, xi = 1 / weights, is at or above the
    # solution of dz/dt = (Gamma - Lambda) z + Z, z(0) = V(0), taken
    # exactly with one matrix exponential of the system augmented by Z
    n = data.draw(st.integers(1, 6), label="n")
    entries = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    lam = np.array(data.draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n)))
    rho = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    uhat_inf = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    v0 = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    target = data.draw(st.floats(0.05, 0.95), label="radius")
    gamma = np.array(entries).reshape(n, n)
    radius = perron(gamma / lam[None, :])[0]
    assume(radius > 1e-3)
    gm = GainMatrices(names=tuple(f"s{i}" for i in range(n)),
                      gamma=gamma * (target / radius), lam=lam, rho=rho)
    path = small_gain(gm)
    assume(path.validated)
    composed = compose_simfn(gm, path)
    fixed_point = vector_bound(gm, uhat_inf)
    xi = 1.0 / composed.weights
    vc0 = float(np.max(composed.weights * v0))
    drift = np.zeros((n + 1, n + 1))
    drift[:n, :n] = gm.gamma - np.diag(lam)
    drift[:n, n] = rho * uhat_inf
    for t in (0.0, 0.01, 0.3, 1.0, 5.0, 40.0):
        flow = expm(drift * t)
        exact = flow[:n, :n] @ v0 + flow[:n, n]
        bound = fixed_point + vc0 * np.exp(-composed.lam * t) * xi
        assert np.all(bound >= exact - 1e-9 * (1.0 + np.abs(exact)))


def test_vector_bound_from_above():
    gm = GainMatrices(
        names=("x", "y"), gamma=np.array([[0.0, 0.4], [0.5, 0.0]]),
        lam=np.ones(2), rho=np.array([1.0, 1.0]),
    )
    fixed_point = vector_bound(gm, [0.3, 0.1])
    iterates = vector_recursion(gm, [0.3, 0.1], v0=fixed_point + 1.0)
    assert np.all(iterates >= fixed_point[None, :] - 1e-12)
    assert np.allclose(iterates[-1], fixed_point, atol=1e-6)


def test_vector_bound_rejects_divergent_recursion():
    gm = GainMatrices(
        names=("x", "y"), gamma=np.array([[0.0, 2.0], [1.0, 0.0]]),
        lam=np.ones(2), rho=np.array([1.0, 1.0]),
    )
    with pytest.raises(NumericsError, match="diverges: spectral radius 1.41421 >= 1"):
        vector_bound(gm, [0.1, 0.1])
    # radius exactly one: I - S is singular, and the message keeps the radius
    singular = GainMatrices(
        names=("x", "y"), gamma=np.array([[0.0, 1.0], [1.0, 0.0]]),
        lam=np.ones(2), rho=np.array([1.0, 1.0]),
    )
    with pytest.raises(NumericsError, match="diverges: spectral radius 1 >= 1"):
        vector_bound(singular, [0.1, 0.1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_vector_bound_diverges_exactly_when_the_radius_reaches_one(data):
    # the M-matrix test, (I - S) x = 1 with x > 0, against perron's radius
    n = data.draw(st.integers(1, 12), label="n")
    entries = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n))
    kept = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    target = data.draw(st.floats(0.3, 1.7), label="radius")
    s = (np.array(entries) * np.array(kept)).reshape(n, n)
    radius = perron(s)[0]
    if radius > 1e-3:
        s = s * (target / radius)
        radius = perron(s)[0]
    else:
        # nilpotent: perron gives its zero radius exactly
        assume(radius == 0.0)
    assume(abs(radius - 1.0) >= 1e-6)
    gm = GainMatrices(names=tuple(f"s{i}" for i in range(n)), gamma=s,
                      lam=np.ones(n), rho=np.ones(n))
    if radius >= 1.0:
        with pytest.raises(NumericsError, match="diverges"):
            vector_bound(gm, np.ones(n))
    else:
        fixed_point = vector_bound(gm, np.ones(n))
        assert np.all(fixed_point > 0.0)


def test_vector_bound_argument_checks():
    gm = GainMatrices(
        names=("x",), gamma=np.zeros((1, 1)), lam=np.ones(1), rho=np.ones(1)
    )
    with pytest.raises(ValueError):
        vector_bound(gm, [0.1, 0.2])
    with pytest.raises(ValueError):
        vector_bound(gm, [-0.1])


def test_bound_report_v0_override():
    ic, results, gm, path, composed, uhat, run = demo_pipeline(t_final=2.0)
    report = bound_report(run, composed, gm, uhat, v0=0.85)
    assert report.v0 == 0.85
    assert report.margin[0] + report.mismatch[0] == pytest.approx(
        0.85 + composed.rho / composed.lam * uhat.sup_norm, rel=1e-12
    )


def test_pipeline_computes_spectral_radius_once(monkeypatch):
    import simcompose.compose as compose_module
    import simcompose.simulate as simulate_module

    calls = []
    real_perron = compose_module.perron

    def counted(mat):
        calls.append(mat)
        return real_perron(mat)

    # patched in both modules, so a second decomposition anywhere counts
    monkeypatch.setattr(compose_module, "perron", counted)
    monkeypatch.setattr(simulate_module, "perron", counted, raising=False)
    ic, results, gm, path, composed, uhat, run = demo_pipeline(t_final=2.0)
    bound_report(run, composed, gm, uhat)
    assert len(calls) == 1
    assert path.rho_spec == real_perron(gm.scaled)[0]


def test_csv_export_roundtrip(tmp_path):
    _, _, _, _, _, _, run = demo_pipeline(t_final=0.5)
    csv_path = tmp_path / "run.csv"
    write_csv(csv_path, run)
    with open(csv_path) as fh:
        header = fh.readline().strip()
    assert header == (
        "t," + ",".join(f"x[{i}]" for i in range(10)) + ","
        + ",".join(f"y[{j}]" for j in range(4)) + ",V,V_1,V_2,V_3,V_4"
    )
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert table.shape == (501, 20)
    # 17 significant digits reproduce the doubles exactly.
    assert np.array_equal(table[:, 0], run.times)
    assert np.array_equal(table[:, 1:11], run.concrete.states)
    assert np.array_equal(table[:, 15], run.v_composed)


def percent_text(table) -> bytes:
    """``%.17g`` of every value, one value at a time (test oracle)."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    return b"".join(b",".join(b"%.17g" % x for x in row) + b"\n" for row in table.tolist())


def savetxt_text(table) -> bytes:
    """What ``np.savetxt`` writes for the table (test oracle)."""
    buf = io.BytesIO()
    np.savetxt(buf, np.atleast_2d(table), fmt="%.17g", delimiter=",")
    return buf.getvalue()


def written(tmp_path, table) -> bytes:
    path = tmp_path / "table.csv"
    write_table(path, table)
    return path.read_bytes()


def test_write_table_matches_percent_on_random_bit_patterns(tmp_path):
    # uniform 64-bit patterns cover every exponent; about 9% fall outside
    # the fast path's [1e-280, 1e280] and go to the exact fallback
    rng = np.random.default_rng(2024)
    values = rng.integers(0, 2**64, size=1_050_000, dtype=np.uint64).view(np.float64)
    table = values[np.isfinite(values)][:1_000_000].reshape(-1, 8)
    assert written(tmp_path, table) == percent_text(table)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_write_table_matches_percent_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("g17") / "row.csv"
    write_table(path, values)
    assert path.read_bytes() == b",".join(b"%.17g" % x for x in values) + b"\n"


def exact_ties(rng, count):
    """Doubles ``m / 2**k`` whose exact decimal has 18 significant digits
    ending in 5: rounding them to 17 digits is an exact tie."""
    ties = []
    while len(ties) < count:
        k = int(rng.integers(14, 24))
        x = (2 * int(rng.integers(0, 2**(k + 4))) + 1) / 2**k
        digits = Decimal(x).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties.append(x)
    return ties


def layout_grid() -> list[float]:
    """For every notation the writer lays out (each fixed-notation decade
    1e-4 ... 1e16, and exponents of two and three digits) and every count
    of significant digits 1 ... 17, a double whose ``%.17g`` has that
    decade and that many significant digits."""
    grid = []
    for exponent in [*range(-4, 17), -8, 17, -99, 98, -100, 100, -279, 280]:
        for sig in range(1, 18):
            # the first such decimal whose double keeps it in 17 digits
            for fill, last in itertools.product("1379", "123456789"):
                digits = ("1" + fill * (sig - 2) + last)[-sig:]
                x = float(f"{digits[0]}.{digits[1:]}e{exponent}")
                if "%.16e" % x == f"{digits[0]}.{digits[1:]:0<16}e{exponent:+03d}":
                    grid.append(x)
                    break
    assert len(grid) == 29 * 17
    return grid


def test_write_table_matches_percent_on_edge_values(tmp_path):
    tiny, huge = 5e-324, np.finfo(float).max
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edge = np.concatenate([
        # zeros, subnormals, the extremes, and the fallback's magnitude range
        [0.0, tiny, 1e-310, 3e-320, 2.2250738585072014e-308, huge,
         1e-281, 1e-280, 1e280, 1e281, 1.5e-300, 7e300],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        # the ends of [1e16, 1e17), and the fixed/exponent switch at 1e-4 and 1e-5
        [np.nextafter(1e6, 0.0), np.nextafter(1e16, 0.0), 99999999999999999.0,
         9.9999999999999999e-5, 9.99999999999999e-5, np.nextafter(1e-4, 0.0),
         np.nextafter(1e-5, 1.0)],
        # integers above 2**53, and decimals that end in zeros
        2.0**53 + np.arange(0, 200, 2), 2.0**60 + 2.0**8 * np.arange(50), [2.0**63, 1e22, 1e23],
        np.arange(0, 4001) / 1000, np.arange(0, 4001) / 8,
        exact_ties(np.random.default_rng(3), 100),
    ])
    table = np.concatenate([edge, -edge]).reshape(-1, 1)
    assert written(tmp_path, table) == percent_text(table)
    # every notation, significant-digit count and sign in the first,
    # middle and last column of a row
    grid = np.array(layout_grid())
    grid = np.concatenate([grid, -grid])
    table = np.column_stack([np.roll(grid, shift) for shift in range(3)])
    assert written(tmp_path, table) == percent_text(table)
    assert written(tmp_path, [[np.nan, np.inf, -np.inf]]) == b"nan,inf,-inf\n"


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_write_table_is_exact_when_log10_is_off_by_one(tmp_path, monkeypatch, shift):
    # the digits must not trust log10: a wrong decade leaves the scaled
    # value outside [1e16, 1e17 - 0.5) and sends the value to the fallback
    rng = np.random.default_rng(8)
    table = rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-30, 30, (500, 4))
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda x: real(x) + shift)
    assert written(tmp_path, table) == percent_text(table)


def test_write_table_matches_savetxt_on_every_shape(tmp_path):
    rng = np.random.default_rng(17)
    chunk = simulate._CHUNK
    tables = [
        np.zeros((3, 0)), np.zeros((0, 3)), np.zeros(0), rng.standard_normal(5),
        np.float64(-2.5), np.array(7.0), rng.standard_normal((1, 1)),
        rng.standard_normal((chunk - 1, 1)), rng.standard_normal((chunk + 1, 1)),
        # rows that straddle a chunk boundary
        rng.standard_normal((chunk // 7 + 1, 7)) * 10.0 ** rng.integers(-20, 20, (chunk // 7 + 1, 7)),
        rng.standard_normal((2 * chunk // 3 + 2, 3)),
        # rows wider than a chunk
        rng.standard_normal((3, chunk + 5)),
    ]
    for table in tables:
        assert written(tmp_path, table) == savetxt_text(table), np.shape(table)
    simulate._write_columns(tmp_path / "header.csv", [np.eye(2)], ["a", "b"])
    assert (tmp_path / "header.csv").read_bytes() == b"a,b\n1,0\n0,1\n"


def test_write_table_peak_memory_stays_under_2_mb(tmp_path):
    # the writer formats a chunk of about _CHUNK values at a time: five
    # chunks of 1000-column rows hold under 2 MB beyond the table
    rng = np.random.default_rng(29)
    rows, cols = 5 * simulate._CHUNK // 1000, 1000
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
    table[::7, ::11] = 1e-300  # a share of values for the fallback
    tracemalloc.start()
    try:
        write_table(tmp_path / "wide.csv", table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_demo_csv_matches_savetxt(tmp_path):
    _, _, _, _, _, _, run = demo_pipeline()
    csv_path = tmp_path / "run.csv"
    write_csv(csv_path, run)
    table = np.column_stack(
        [run.times, run.concrete.states, run.concrete.outputs, run.v_composed, run.v]
    )
    text = csv_path.read_bytes()
    header, body = text.split(b"\n", 1)
    assert header.startswith(b"t,x[0],")
    assert body == savetxt_text(table)


def test_gnuplot_script_references_csv(tmp_path):
    _, _, _, _, _, _, run = demo_pipeline(t_final=0.1)
    csv_path = tmp_path / "run.csv"
    gp_path = tmp_path / "run.gp"
    write_csv(csv_path, run)
    write_gnuplot(gp_path, "run.csv", run)
    text = gp_path.read_text()
    assert "csv = 'run.csv'" in text
    assert "plot " in text
    assert "'V'" in text


def test_run_lti_stability_against_long_horizon():
    # A long stable run must neither blow up nor drift: compare the
    # terminal state with the eigendecomposition oracle.
    rng = np.random.default_rng(409)
    a = random_hurwitz(rng, 4)
    sys = LinearSystem("s", a, np.zeros((4, 0)), np.eye(4), [], (), {})
    x0 = rng.standard_normal(4)
    traj = integrate(sys, x0, t_final=20.0, dt=1e-3)
    exact = expm_eig(a, 20.0) @ x0
    assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8


def reference_march(a, b, inputs, x0, grid, dt):
    """The per-step recursion ``x+ = phi x + core B u_k`` that the blocked
    propagator must reproduce, one matrix-vector product per step."""
    phi, core = _step_maps(a, dt)
    drive = inputs @ (core @ b).T
    states = np.empty((len(grid), len(x0)))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(grid) - 1):
            states[k + 1] = phi @ states[k] + drive[k]
    return states


def assert_matches_reference(a, b, inputs, x0, grid, dt):
    got = _run_lti(a, b, inputs, x0, grid, dt)
    ref = reference_march(a, b, inputs, x0, grid, dt)
    assert got.shape == ref.shape == (len(grid), len(x0))
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


def test_run_lti_matches_reference_on_demo_joint_system(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        return _run_lti(*args)

    monkeypatch.setattr(simulate, "_run_lti", recording)
    demo_pipeline(t_final=20.0)
    (args,) = calls
    assert len(args[4]) == 20001
    assert_matches_reference(*args)


def test_run_lti_matches_reference_with_input_switching_every_step():
    rng = np.random.default_rng(411)
    a = random_hurwitz(rng, 12)
    b = rng.standard_normal((12, 3))
    dt = 1e-2
    grid = time_grid(30.0, dt)
    inputs = rng.standard_normal((len(grid), 3))
    assert_matches_reference(a, b, inputs, rng.standard_normal(12), grid, dt)


def test_run_lti_matches_reference_on_every_grid_length():
    # every length of the last, partial block, a single step and an
    # empty grid; the input switches at every step
    rng = np.random.default_rng(412)
    a = random_hurwitz(rng, 5)
    b = rng.standard_normal((5, 2))
    dt = 0.05
    for steps in list(range(0, 70)) + [1000, 4099]:
        grid = np.arange(steps + 1) * dt
        inputs = rng.standard_normal((steps + 1, 2))
        assert_matches_reference(a, b, inputs, rng.standard_normal(5), grid, dt)


def test_run_lti_matches_reference_with_zero_width_input():
    rng = np.random.default_rng(413)
    a = random_hurwitz(rng, 4)
    grid = time_grid(7.0, 1e-3)
    assert_matches_reference(
        a, np.zeros((4, 0)), np.zeros((len(grid), 0)), rng.standard_normal(4), grid, 1e-3
    )


def test_run_lti_reports_the_reference_blowup_time():
    a, dt = np.array([[5.0]]), 1e-2
    grid = time_grid(300.0, dt)
    args = (a, np.zeros((1, 0)), np.zeros((len(grid), 0)), np.array([1.0]), grid, dt)
    ref = reference_march(*args)
    bad = ~np.isfinite(ref).all(axis=1)
    assert bad.any()
    first = grid[np.argmax(bad)]
    with pytest.raises(NumericsError, match="non-finite") as info:
        _run_lti(*args)
    reported = float(re.search(r"t = (\S+)$", str(info.value)).group(1))
    assert abs(reported - first) <= dt


def test_run_lti_unexcited_unstable_mode_stays_finite():
    # phi^L of the unstable mode overflows for long blocks; the state
    # never touches that mode, so the run must not see inf * 0 = NaN
    a = np.diag([-1.0, 800.0])
    sys = LinearSystem("s", a, np.zeros((2, 0)), np.eye(2), [], (), {})
    traj = integrate(sys, [1.0, 0.0], t_final=300.0, dt=1e-2)
    ref = reference_march(
        a, np.zeros((2, 0)), np.zeros((len(traj.times), 0)), np.array([1.0, 0.0]),
        traj.times, 1e-2,
    )
    assert np.isfinite(ref).all()
    assert np.array_equal(traj.states[:, 1], np.zeros(len(traj.times)))
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


def sparse_ring(rng, nodes=128):
    """A directed ring of stable third-order nodes, each listening to the
    first state of its predecessor, with one input on every third state:
    ``3 * nodes`` states and at most four nonzeros a row, large and
    sparse enough for the density rule to pick the sparse row form."""
    n = 3 * nodes
    a = np.zeros((n, n))
    first = np.arange(0, n, 3)
    a[first, first + 1] = a[first + 1, first + 2] = 1.0
    a[first + 2, first] = -1.0
    a[first + 2, first + 1] = a[first + 2, first + 2] = -3.0
    a[first + 2, np.roll(first, 1)] = rng.uniform(0.1, 0.2, nodes)
    b = np.zeros((n, 2))
    b[first + 2, rng.integers(0, 2, nodes)] = rng.uniform(-1.0, 1.0, nodes)
    return a, b


def forms_taken(monkeypatch) -> list:
    """Record the form of every step map ``_run_lti`` builds; the last
    one is the form the run took."""
    forms = []
    real = simulate._step_maps

    def spy(a, dt):
        forms.append("sparse" if isinstance(a, simulate._SparseRows) else "dense")
        return real(a, dt)

    monkeypatch.setattr(simulate, "_step_maps", spy)
    return forms


def test_density_rule_keeps_small_and_dense_systems_dense(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        return _run_lti(*args)

    monkeypatch.setattr(simulate, "_run_lti", recording)
    demo_pipeline(t_final=0.01)
    (demo_args,) = calls
    forms = forms_taken(monkeypatch)

    def form(a, b):
        forms.clear()
        grid = time_grid(0.03, 0.01)
        _run_lti(a, b, np.ones((len(grid), b.shape[1])), np.ones(len(a)), grid, 0.01)
        return forms[-1]

    rng = np.random.default_rng(421)
    assert len(demo_args[0]) == 14
    assert form(demo_args[0], demo_args[1]) == "dense"
    assert form(random_hurwitz(rng, 189), rng.standard_normal((189, 3))) == "dense"
    for n in range(1, 21):
        assert form(random_hurwitz(rng, n), rng.standard_normal((n, 2))) == "dense"
        assert form(-np.eye(n), np.zeros((n, 0))) == "dense"
    assert form(*sparse_ring(rng)) == "sparse"
    assert forms == ["sparse"]


def test_density_rule_reads_the_state_size_and_the_pairs():
    # the fixed cost per step keeps every system under 235 states dense;
    # above it, phi's stored pairs decide
    assert not simulate._sparse_pays(234, 0)
    assert simulate._sparse_pays(235, 0)
    assert simulate._sparse_pays(800, 8000)
    assert not simulate._sparse_pays(800, 800 * 800 // 10)


def test_sparse_form_matches_reference_on_every_grid_length(monkeypatch):
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(422)
    a, b = sparse_ring(rng)
    dt = 0.05
    for steps in range(0, 70):
        grid = np.arange(steps + 1) * dt
        inputs = rng.standard_normal((steps + 1, 2))
        assert_matches_reference(a, b, inputs, rng.standard_normal(len(a)), grid, dt)
    assert set(forms) == {"sparse"}


def test_sparse_form_matches_reference_with_input_switching_every_step(monkeypatch):
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(423)
    a, b = sparse_ring(rng)
    dt = 1e-2
    grid = time_grid(20.0, dt)
    inputs = rng.standard_normal((len(grid), 2))
    assert_matches_reference(a, b, inputs, rng.standard_normal(len(a)), grid, dt)
    assert forms == ["sparse"]


def test_sparse_form_matches_reference_with_zero_width_input(monkeypatch):
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(424)
    a, _ = sparse_ring(rng)
    grid = time_grid(2.0, 1e-3)
    assert_matches_reference(
        a, np.zeros((len(a), 0)), np.zeros((len(grid), 0)), rng.standard_normal(len(a)),
        grid, 1e-3,
    )
    assert forms == ["sparse"]


def test_sparse_drive_maps_the_input_rows():
    # the sparse form's drive, one column gather per stored pair, is
    # inputs @ (core B).T up to the order of the sums
    rng = np.random.default_rng(425)
    mat = rng.standard_normal((7, 5)) * (rng.uniform(size=(7, 5)) < 0.4)
    mat[3] = 0.0
    rows = simulate._SparseRows.from_dense(mat)
    assert rows.cols.shape[1] == np.count_nonzero(mat, axis=1).max()
    x = rng.standard_normal((11, 5))
    np.testing.assert_allclose(rows.map_rows(x), x @ mat.T, rtol=1e-14, atol=1e-15)
    single = simulate._SparseRows.from_dense(np.diag([2.0, -3.0]))
    assert np.array_equal(single.map_rows(x[:, :2]), x[:, :2] * [2.0, -3.0])
    empty = simulate._SparseRows.from_dense(np.zeros((4, 0)))
    assert np.array_equal(empty.map_rows(np.zeros((3, 0))), np.zeros((3, 4)))


def test_sparse_drive_gathers_into_the_given_rows_in_blocks():
    # map_rows writes into out, in blocks of _GATHER_ROWS rows, bit for
    # bit the whole-array gather: one product and the same sums per entry
    rng = np.random.default_rng(426)
    mat = rng.standard_normal((9, 6)) * (rng.uniform(size=(9, 6)) < 0.5)
    rows = simulate._SparseRows.from_dense(mat)
    assert rows.cols.shape[1] >= 3
    x = rng.standard_normal((2 * simulate._GATHER_ROWS + 7, 6))
    expected = x[:, rows.cols[:, 0]] * rows.vals[:, 0]
    for cols, vals in zip(rows.cols.T[1:], rows.vals.T[1:]):
        expected += x[:, cols] * vals
    states = np.full((len(x) + 1, 9), np.nan)
    assert np.shares_memory(rows.map_rows(x, out=states[1:]), states)
    assert np.array_equal(states[1:], expected)
    assert np.isnan(states[0]).all()


def test_sparse_form_reports_the_reference_blowup_time(monkeypatch):
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(425)
    a, b = sparse_ring(rng)
    a[0, 0] = 5.0
    dt = 0.1
    grid = time_grid(300.0, dt)
    args = (a, b, np.zeros((len(grid), 2)), rng.standard_normal(len(a)), grid, dt)
    ref = reference_march(*args)
    bad = ~np.isfinite(ref).all(axis=1)
    assert bad.any()
    first = grid[np.argmax(bad)]
    with pytest.raises(NumericsError, match="non-finite") as info:
        _run_lti(*args)
    reported = float(re.search(r"t = (\S+)$", str(info.value)).group(1))
    assert abs(reported - first) <= dt
    assert forms == ["sparse"]


def test_sparse_form_unexcited_unstable_mode_stays_finite(monkeypatch):
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(426)
    ring_a, ring_b = sparse_ring(rng)
    a = block_diag(ring_a, [[800.0]])
    b = np.vstack([ring_b, np.zeros((1, 2))])
    x0 = np.append(rng.standard_normal(len(ring_a)), 0.0)
    dt = 1e-2
    grid = time_grid(30.0, dt)
    inputs = rng.standard_normal((len(grid), 2))
    got = _run_lti(a, b, inputs, x0, grid, dt)
    ref = reference_march(a, b, inputs, x0, grid, dt)
    assert np.isfinite(ref).all()
    assert np.array_equal(got[:, -1], np.zeros(len(grid)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())
    assert forms == ["sparse"]


def test_sparse_attempt_with_a_hub_row_falls_back_to_the_dense_form(monkeypatch):
    # one state feeds and reads every other: A has about 3n nonzeros, but
    # phi is full, so the sparse maps are built (their products densely)
    # and then set aside
    forms = forms_taken(monkeypatch)
    rng = np.random.default_rng(427)
    n = 400
    a = -2.0 * np.eye(n)
    a[0, 1:] = rng.uniform(-0.01, 0.01, n - 1)
    a[1:, 0] = rng.uniform(-0.5, 0.5, n - 1)
    b = rng.standard_normal((n, 1))
    grid = time_grid(0.5, 1e-2)
    assert_matches_reference(
        a, b, rng.standard_normal((len(grid), 1)), rng.standard_normal(n), grid, 1e-2
    )
    assert forms == ["sparse", "dense"]


def test_sparse_total_matches_the_left_to_right_sum():
    # one from_triplets pass over all terms gives the bits of the sum
    # formed one + at a time, each + a from_triplets pass of its own
    rng = np.random.default_rng(429)

    def plus(x, y):
        both = zip(x.triplets(), y.triplets())
        return simulate._SparseRows.from_triplets(*(np.concatenate(p) for p in both), x.shape)

    for _ in range(20):
        terms = []
        for _ in range(5):
            mat = rng.standard_normal((30, 30)) * (rng.uniform(size=(30, 30)) < 0.2)
            mat[rng.uniform(size=(30, 30)) < 0.05] = 1.0
            terms.append(simulate._SparseRows.from_dense(mat * 10.0 ** rng.integers(-3, 4)))
        # entries that cancel exactly are dropped between two + and
        # cancel to zero in the one pass
        terms.insert(1, -1.0 * terms[0])
        want = terms[0]
        for term in terms[1:]:
            want = plus(want, term)
        got = simulate._SparseRows.total(terms)
        assert got.cols.tobytes() == want.cols.tobytes()
        assert got.vals.tobytes() == want.vals.tobytes()


def test_sparse_rows_pad_with_the_rows_own_column():
    # a padded pair adds 0 * x_i to row i, so a non-finite state elsewhere
    # never turns a finite row into NaN
    m = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 4.0], [0.0, 0.0, 5.0]])
    rows = simulate._SparseRows.from_dense(m)
    assert rows.cols.tolist() == [[0, 0, 0], [0, 1, 2], [2, 2, 2]]
    assert np.array_equal(rows.todense(), m)
    with np.errstate(invalid="ignore"):
        out = rows @ np.array([np.inf, 1.0, 2.0])
    assert out[2] == 10.0
    assert not np.isfinite(out[:2]).any()


def test_sparse_step_maps_match_the_dense_ones():
    rng = np.random.default_rng(428)
    a, b = sparse_ring(rng)
    dt = 1e-2
    phi, core = _step_maps(a, dt)
    sparse_phi, sparse_core = _step_maps(simulate._SparseRows.from_dense(a), dt)
    assert np.max(np.abs(sparse_phi.todense() - phi)) <= 1e-15 * np.abs(phi).max()
    core_b = (sparse_core @ simulate._SparseRows.from_dense(b)).todense()
    assert np.max(np.abs(core_b - core @ b)) <= 1e-15 * np.abs(core @ b).max()
    assert sparse_phi.pairs < len(a) ** 2 / 20


def test_demo_bounds_hold_on_a_ten_times_finer_grid():
    # bound_report checks grid points only; a finer grid samples the
    # gaps of the default one
    _, _, gm, _, composed, uhat, run = demo_pipeline(dt=1e-4)
    assert len(run.times) == 200001
    report = bound_report(run, composed, gm, uhat)
    assert report.min_margin >= -BOUND_TOL
    assert float(np.min(report.vvec_margin)) >= -BOUND_TOL
    assert report.ok
