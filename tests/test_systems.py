"""Subsystem containers, wiring validation, and monolithic assembly tests."""

import copy

import numpy as np
import pytest

from conftest import random_network
from oracles import build_monolithic, integrate
from simcompose.cli import _run_pipeline, parse_project
from simcompose.demo import demo_interconnection, demo_project
from simcompose.simulate import Signal
from simcompose.systems import Interconnection, InternalChannel, LinearSystem


def scalar_pair(gain_ab=1.0, gain_ba=1.0):
    """Two mutually coupled scalar systems: xdot_i = -x_i + w_i."""
    sa = LinearSystem(
        "a", [[-1.0]], np.zeros((1, 0)), [[1.0]], [[gain_ab]],
        (InternalChannel("b", 1),), {"b": [[1.0]]},
    )
    sb = LinearSystem(
        "b", [[-1.0]], np.zeros((1, 0)), [[1.0]], [[gain_ba]],
        (InternalChannel("a", 1),), {"a": [[1.0]]},
    )
    return Interconnection([sa, sb])


def test_coercion_of_vector_and_empty_blocks():
    sys = LinearSystem("s", [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0], [], (), {})
    assert sys.B.shape == (2, 1)
    assert sys.C_ext.shape == (1, 2)
    assert sys.D.shape == (2, 0)
    assert (sys.n, sys.m, sys.q, sys.p) == (2, 1, 1, 0)


def test_zero_width_input_matrix():
    sys = LinearSystem("s", [[-1.0]], np.zeros((1, 0)), [[1.0]], [], (), {})
    assert sys.m == 0
    assert sys.B.shape == (1, 0)


def test_a_subsystem_without_states_is_rejected():
    # [] reads as 0 x 1 and np.zeros((0, 0)) as 0 x 0: both have no states
    for a in ([], np.zeros((0, 0))):
        with pytest.raises(ValueError, match=r"z\.A has no states"):
            LinearSystem("z", a, np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((0, 0)), (), {})
    with pytest.raises(ValueError, match=r"z\.A has no states"):
        LinearSystem("z", [], [], [], [], (), {})


def test_non_finite_entries_are_rejected():
    with pytest.raises(ValueError, match=r"s\.A has non-finite entries"):
        LinearSystem("s", [[np.nan]], [[1.0]], [[1.0]], [], (), {})
    with pytest.raises(ValueError, match=r"s\.B has non-finite entries"):
        LinearSystem("s", [[-1.0]], [[np.inf]], [[1.0]], [], (), {})
    with pytest.raises(ValueError, match=r"s\.C_int\[t\] has non-finite entries"):
        LinearSystem("s", [[-1.0]], [[1.0]], [[1.0]], [], (), {"t": [[np.nan]]})


def test_the_project_reader_checks_finiteness_once(monkeypatch):
    # read_numbers names a non-finite entry where it reads it; the systems
    # it builds are not scanned again
    def rescan(self, mat, label):
        raise AssertionError(f"{self.name}.{label} scanned twice")

    monkeypatch.setattr(LinearSystem, "_finite", rescan)
    assert len(parse_project(demo_project()).interconnection.subsystems) == 4
    with pytest.raises(AssertionError, match=r"s\.A scanned twice"):
        LinearSystem("s", [[-1.0]], [[1.0]], [[1.0]], [], (), {})


def test_d_width_must_match_declared_channels():
    with pytest.raises(ValueError):
        LinearSystem(
            "s", [[-1.0]], [[1.0]], [[1.0]], [[1.0, 2.0]],
            (InternalChannel("p", 1),), {},
        )


def test_channel_sanity_checks():
    with pytest.raises(ValueError):
        LinearSystem(
            "s", [[-1.0]], [[1.0]], [[1.0]], [[1.0]],
            (InternalChannel("s", 1),), {},
        )
    with pytest.raises(ValueError):
        LinearSystem(
            "s", [[-1.0]], [[1.0]], [[1.0]], [[1.0, 1.0]],
            (InternalChannel("p", 1), InternalChannel("p", 1)), {},
        )
    with pytest.raises(ValueError):
        LinearSystem(
            "s", [[-1.0]], [[1.0]], [[1.0]], [[1.0]],
            (InternalChannel("p", 0),), {},
        )


def test_channel_slice_and_d_block():
    ic = demo_interconnection()
    s3 = ic["s3"]
    assert s3.channel_slice("s2") == slice(0, 1)
    assert s3.channel_slice("s4") == slice(1, 2)
    assert np.allclose(s3.d_block("s4"), [[0.0], [0.0], [0.5]])
    with pytest.raises(KeyError):
        s3.channel_slice("s1")


def test_output_blocks_external_first_then_sorted_peers():
    ic = demo_interconnection()
    blocks = ic["s1"].output_blocks()
    assert len(blocks) == 3
    assert all(np.allclose(b, [[1.0, 0.0, 0.0]]) for b in blocks)
    quiet = LinearSystem("q", [[-1.0]], [[1.0]], np.zeros((0, 1)), [], (), {})
    assert quiet.output_blocks() == []


def test_interconnection_validation_errors():
    base = LinearSystem("a", [[-1.0]], [[1.0]], [[1.0]], [], (), {})
    with pytest.raises(ValueError, match="duplicate"):
        Interconnection([base, LinearSystem("a", [[-1.0]], [[1.0]], [[1.0]], [], (), {})])
    with pytest.raises(ValueError, match="unknown subsystem"):
        Interconnection([
            LinearSystem(
                "a", [[-1.0]], [[1.0]], [[1.0]], [[1.0]],
                (InternalChannel("ghost", 1),), {},
            )
        ])
    # The receiver declares the channel but the sender has no matching block.
    with pytest.raises(ValueError, match="declares no output"):
        Interconnection([
            LinearSystem(
                "a", [[-1.0]], [[1.0]], [[1.0]], [[1.0]],
                (InternalChannel("b", 1),), {},
            ),
            LinearSystem("b", [[-1.0]], [[1.0]], [[1.0]], [], (), {}),
        ])
    # Widths must agree between declaration and the sender's block.
    with pytest.raises(ValueError, match="width"):
        Interconnection([
            LinearSystem(
                "a", np.diag([-1.0, -1.0]), [[1.0], [0.0]], [[1.0, 0.0]],
                [[1.0, 0.0], [0.0, 1.0]],
                (InternalChannel("b", 2),), {},
            ),
            LinearSystem(
                "b", [[-1.0]], [[1.0]], [[1.0]], [], (),
                C_int={"a": [[1.0]]},
            ),
        ])
    with pytest.raises(ValueError, match="unknown subsystem"):
        Interconnection([
            LinearSystem("a", [[-1.0]], [[1.0]], [[1.0]], [], (), C_int={"ghost": [[1.0]]})
        ])


def reversed_channels(doc):
    """The project document with every ``inputs`` list reversed and the
    column blocks of ``D`` permuted to match."""
    doc = copy.deepcopy(doc)
    for block in doc["subsystems"]:
        channels = block.get("inputs", [])
        starts = np.cumsum([0] + [ch["width"] for ch in channels])
        order = [j for i in reversed(range(len(channels))) for j in range(starts[i], starts[i + 1])]
        block["D"] = [[row[j] for j in order] for row in block["D"]]
        block["inputs"] = channels[::-1]
    return doc


@pytest.mark.parametrize("computed", [False, True])
def test_channel_order_does_not_change_the_pipeline(computed):
    # channels are looked up by source, so the order of the inputs list
    # only fixes D's column order; with injected or computed certificates
    # every composed figure and trajectory is bit-identical
    doc = demo_project(d1=0.3, d2=0.3, d3=0.2)
    doc["subsystems"][2]["D"] = [[0.0, 0.0], [0.0, 0.0], ["d3", "d1"]]
    if computed:
        for block in doc["subsystems"]:
            block["abstraction"] = {"P": block["abstraction"]["P"]}
    runs = [
        _run_pipeline(parse_project(d), t_final=2.0)
        for d in (doc, reversed_channels(doc))
    ]
    (res0, gm0, _, comp0, run0, rep0), (res1, gm1, _, comp1, run1, rep1) = runs
    assert np.array_equal(res1["s3"].system.D, res0["s3"].system.D[:, ::-1])
    for name in res0:
        assert np.array_equal(res0[name].simfn.M, res1[name].simfn.M)
    assert np.array_equal(gm0.gamma, gm1.gamma)
    assert (comp0.lam, comp0.rho) == (comp1.lam, comp1.rho)
    assert np.array_equal(run0.concrete.states, run1.concrete.states)
    assert np.array_equal(run0.abstract.states, run1.abstract.states)
    assert np.array_equal(run0.v, run1.v)
    assert rep0.min_margin == rep1.min_margin


def test_interconnection_subsystems_are_immutable():
    ic = scalar_pair()
    assert isinstance(ic.subsystems, tuple)
    with pytest.raises(AttributeError):
        ic.subsystems.append(LinearSystem("c", [[-1.0]], [[1.0]], [[1.0]], [], (), {}))


def test_interconnection_layout():
    ic = demo_interconnection()
    assert ic.state_offsets == (0, 3, 5, 8, 10)
    assert ic.input_offsets == (0, 1, 1, 2, 2)
    assert ic.output_offsets == (0, 1, 2, 3, 4)
    assert [ic.state_slice(name) for name in ic.names] == [
        slice(0, 3), slice(3, 5), slice(5, 8), slice(8, 10)
    ]
    with pytest.raises(KeyError):
        ic.state_slice("s5")
    mono = build_monolithic(ic)
    assert isinstance(mono, LinearSystem)
    assert mono.name == "network"
    assert (mono.n, mono.m, mono.q, mono.p) == (10, 2, 4, 0)


def test_single_subsystem_network():
    ic = Interconnection([LinearSystem("solo", [[-1.0]], [[1.0]], [[1.0]], [], (), {})])
    mono = build_monolithic(ic)
    assert np.allclose(mono.A, [[-1.0]])


def test_monolithic_two_scalar_loop():
    mono = build_monolithic(scalar_pair())
    assert np.allclose(mono.A, [[-1.0, 1.0], [1.0, -1.0]])
    assert mono.B.shape == (2, 0)
    assert np.allclose(mono.C_ext, np.eye(2))


def test_monolithic_without_channels_is_block_diagonal():
    s1 = LinearSystem("a", [[-1.0]], [[1.0]], [[1.0]], [], (), {})
    s2 = LinearSystem("b", np.diag([-2.0, -3.0]), [[0.0], [1.0]], [[1.0, 0.0]], [], (), {})
    mono = build_monolithic(Interconnection([s1, s2]))
    assert np.allclose(mono.A, np.diag([-1.0, -2.0, -3.0]))
    assert np.allclose(mono.B, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def test_monolithic_demo_against_brute_force():
    ic = demo_interconnection(d1=0.4, d2=0.6, d3=0.7)
    mono = build_monolithic(ic)
    sizes = [s.n for s in ic.subsystems]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_total = offsets[-1]
    assert mono.A.shape == (n_total, n_total)

    # Brute-force reassembly straight from the definition w_ij = C_ji x_j.
    brute = np.zeros((n_total, n_total))
    for i, sub in enumerate(ic.subsystems):
        rows = slice(offsets[i], offsets[i + 1])
        brute[rows, rows] += sub.A
        col = 0
        for ch in sub.channels_in:
            j = ic.index(ch.source)
            sender = ic.subsystems[j]
            d_cols = sub.D[:, col:col + ch.width]
            brute[rows, offsets[j]:offsets[j + 1]] += d_cols @ sender.C_int[sub.name]
            col += ch.width
    assert np.allclose(mono.A, brute, atol=1e-14)
    assert mono.B.shape == (10, 2)
    assert mono.C_ext.shape == (4, 10)


def reference_assembly(ic):
    """One full-width row block ``D_i @ W_i`` per subsystem, with ``W_i``
    mapping the whole stacked state to ``w_i``, built independently here."""
    names = [s.name for s in ic.subsystems]
    offsets = np.concatenate([[0], np.cumsum([s.n for s in ic.subsystems])])
    n_total = offsets[-1]
    a = np.zeros((n_total, n_total))
    b = np.zeros((n_total, sum(s.m for s in ic.subsystems)))
    c = np.zeros((sum(s.q for s in ic.subsystems), n_total))
    w_maps = []
    col_b = row_c = 0
    for i, sub in enumerate(ic.subsystems):
        rows = slice(offsets[i], offsets[i + 1])
        w_map = np.zeros((sub.p, n_total))
        row = 0
        for ch in sub.channels_in:
            j = names.index(ch.source)
            block = ic.subsystems[j].C_int[sub.name]
            w_map[row:row + ch.width, offsets[j]:offsets[j + 1]] = block
            row += ch.width
        w_maps.append(w_map)
        a[rows, rows] = sub.A
        a[rows, :] += sub.D @ w_map
        b[rows, col_b:col_b + sub.m] = sub.B
        c[row_c:row_c + sub.q, rows] = sub.C_ext
        col_b += sub.m
        row_c += sub.q
    return a, b, c, w_maps


def test_monolithic_assembly_equals_reference_exactly():
    # Scalar channels, several per receiver: each coupling entry has one
    # nonzero term, so the block products must match the full-width
    # reference bit for bit.
    rng = np.random.default_rng(29)
    for _ in range(20):
        ic = random_network(rng, max_width=1)
        ref_a, ref_b, ref_c, _ = reference_assembly(ic)
        mono = build_monolithic(ic)
        assert np.array_equal(mono.A, ref_a)
        assert np.array_equal(mono.B, ref_b)
        assert np.array_equal(mono.C_ext, ref_c)
        assert [ic.index(name) for name in ic.names] == list(range(len(ic.names)))


def test_monolithic_assembly_wide_channels():
    # Wider channels sum several terms; the block product leaves out the
    # zero terms of the full-width one, so BLAS may order the sum
    # differently, at most a few roundoffs apart.
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for _ in range(20):
        ic = random_network(rng, max_width=3)
        ref_a, ref_b, ref_c, w_maps = reference_assembly(ic)
        mono = build_monolithic(ic)
        scale = max(
            float(np.abs(sub.D).sum(axis=1).max(initial=0.0) * np.abs(w).max(initial=0.0))
            for sub, w in zip(ic.subsystems, w_maps)
        )
        assert np.abs(mono.A - ref_a).max() <= 8 * eps * max(scale, 1.0)
        assert np.array_equal(mono.B, ref_b)
        assert np.array_equal(mono.C_ext, ref_c)


def test_monolithic_permutation_equivariance():
    rng = np.random.default_rng(83)
    for _ in range(10):
        sizes = rng.integers(1, 4, size=3)
        mats = [rng.standard_normal((s, s)) for s in sizes]
        outs = [rng.standard_normal((1, s)) for s in sizes]
        gains = rng.standard_normal(3)
        names = ["a", "b", "c"]
        # A ring a -> b -> c -> a.
        subs = []
        for i, name in enumerate(names):
            src = names[(i - 1) % 3]
            subs.append(
                LinearSystem(
                    name, mats[i], np.zeros((sizes[i], 0)), outs[i],
                    gains[i] * np.ones((sizes[i], 1)),
                    (InternalChannel(src, 1),),
                    {names[(i + 1) % 3]: outs[i]},
                )
            )
        mono = build_monolithic(Interconnection(subs))
        rotated = build_monolithic(Interconnection([subs[1], subs[2], subs[0]]))
        # Permutation matrix sending the original stacking to the rotated one.
        perm = np.zeros((sum(sizes), sum(sizes)))
        old_off = np.concatenate([[0], np.cumsum(sizes)])
        new_sizes = [sizes[1], sizes[2], sizes[0]]
        new_off = np.concatenate([[0], np.cumsum(new_sizes)])
        for new_i, old_i in enumerate([1, 2, 0]):
            block = np.eye(sizes[old_i])
            perm[new_off[new_i]:new_off[new_i + 1], old_off[old_i]:old_off[old_i + 1]] = block
        assert np.allclose(rotated.A, perm @ mono.A @ perm.T, atol=1e-14)


def test_monolithic_matches_explicit_signal_exchange():
    # Independent oracle: integrate the coupled pair blockwise with classic
    # fourth-order steps, computing every internal input from the peer's
    # stage state instead of from a pre-assembled matrix.
    ic = scalar_pair(gain_ab=0.3, gain_ba=-0.4)
    mono = build_monolithic(ic)
    x0 = np.array([1.0, -0.5])
    dt, t_final = 1e-3, 5.0
    traj = integrate(mono, x0, t_final=t_final, dt=dt)

    a_blocks = [s.A for s in ic.subsystems]
    d_blocks = [s.D for s in ic.subsystems]

    def f(x):
        xa, xb = x[:1], x[1:]
        wa = ic["b"].C_int["a"] @ xb
        wb = ic["a"].C_int["b"] @ xa
        return np.concatenate([
            a_blocks[0] @ xa + d_blocks[0] @ wa,
            a_blocks[1] @ xb + d_blocks[1] @ wb,
        ])

    x = x0.copy()
    steps = int(round(t_final / dt))
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(traj.states[-1] - x)) <= 1e-6


def test_monolithic_simulation_with_external_inputs():
    s1 = LinearSystem(
        "a", [[-1.0]], [[1.0]], [[1.0]], [[0.5]],
        (InternalChannel("b", 1),), {"b": [[1.0]]},
    )
    s2 = LinearSystem(
        "b", [[-2.0]], [[1.0]], [[1.0]], [[0.5]],
        (InternalChannel("a", 1),), {"a": [[1.0]]},
    )
    mono = build_monolithic(Interconnection([s1, s2]))
    u = Signal.constant([1.0, -1.0])
    traj = integrate(mono, np.zeros(2), u=u, t_final=15.0, dt=1e-3)
    # Steady state solves A x + B u = 0; the slow mode sits near -0.8,
    # so 15 seconds leaves a transient well under the tolerance.
    target = np.linalg.solve(-mono.A, mono.B @ np.array([1.0, -1.0]))
    assert np.allclose(traj.states[-1], target, atol=1e-3)
