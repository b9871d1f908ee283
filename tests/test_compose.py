"""Network gain assembly, small-gain certification, and composition tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcompose.abstraction import build_abstraction
from simcompose.compose import (
    BRACKET_TOL,
    ComposedSimFn,
    GainMatrices,
    SmallGainError,
    compose_abstractions,
    compose_simfn,
    gain_matrices,
    perron,
    small_gain,
)
from oracles import eval_simfn
from simcompose.demo import demo_certificates, demo_interconnection, demo_projections
from simcompose.simulate import Signal, refine_and_run
from simcompose.systems import Interconnection, LinearSystem

# Spectral radius of the demo's scaled gain matrix: the graph has two
# parallel three-cycles with identical weight, so the nonzero spectrum
# solves r^3 = 2 (sqrt(2) d2 / 1)(sqrt(0.61) d3 / 2)(sqrt(0.61) d1 / 1).
def demo_rho_spec(d=0.5):
    return (np.sqrt(2.0) * 0.61 * d**3) ** (1.0 / 3.0)


def demo_setup(certificates=True, **couplings):
    ic = demo_interconnection(**couplings)
    projections = demo_projections()
    certs = demo_certificates() if certificates else {}
    results = {
        name: build_abstraction(
            [ic[name]], projections[name][None], [certs[name]] if name in certs else None
        )[0]
        for name in ic.names
    }
    gm = gain_matrices(ic, {name: results[name].gains for name in ic.names})
    return ic, results, gm


def test_gain_matrices_demo():
    _, _, gm = demo_setup()
    mu_i = np.sqrt(0.61) * 0.5
    mu_n = np.sqrt(2.0) * 0.5
    expected = np.zeros((4, 4))
    expected[0, 2] = mu_i
    expected[1, 0] = mu_n
    expected[2, 1] = expected[2, 3] = mu_i
    expected[3, 0] = mu_n
    assert gm.names == ("s1", "s2", "s3", "s4")
    assert np.allclose(gm.gamma, expected, atol=1e-9)
    assert np.allclose(gm.lam, [1.0, 2.0, 1.0, 2.0])
    assert np.allclose(gm.scaled, expected / gm.lam[None, :], atol=1e-12)


def test_gain_matrices_parametric_couplings():
    _, _, gm = demo_setup(d1=0.3, d2=0.7, d3=0.9)
    assert gm.gamma[0, 2] == pytest.approx(np.sqrt(0.61) * 0.3, abs=1e-9)
    assert gm.gamma[1, 0] == pytest.approx(np.sqrt(2.0) * 0.7, abs=1e-9)
    assert gm.gamma[2, 1] == pytest.approx(np.sqrt(0.61) * 0.9, abs=1e-9)
    assert gm.gamma[2, 3] == pytest.approx(np.sqrt(0.61) * 0.9, abs=1e-9)


def test_gain_matrices_validation():
    from simcompose.abstraction import ComparisonGains

    ic = Interconnection([LinearSystem("solo", [[-1.0]], [[1.0]], [[1.0]], [])])
    gm = gain_matrices(ic, {"solo": ComparisonGains(lam=1.0, rho=0.5, mu=())})
    assert np.allclose(gm.gamma, [[0.0]])
    with pytest.raises(ValueError, match="mu coefficients"):
        gain_matrices(ic, {"solo": ComparisonGains(lam=1.0, rho=0.5, mu=(1.0,))})
    for lam in (0.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            gain_matrices(ic, {"solo": ComparisonGains(lam=lam, rho=0.5, mu=())})


def test_perron_three_cycle():
    # Cyclic nonnegative matrix: spectral radius is the geometric mean.
    mat = np.array([[0.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    rho, vec = perron(mat)
    assert rho == pytest.approx(24.0 ** (1.0 / 3.0), rel=1e-8)
    assert np.all(vec > 0)
    assert np.allclose(mat @ vec, rho * vec, atol=1e-6 * rho)


def test_perron_zero_and_identity():
    rho, vec = perron(np.zeros((3, 3)))
    assert rho == pytest.approx(0.0, abs=1e-12)
    assert np.all(vec > 0)
    rho, _ = perron(np.eye(2))
    assert rho == pytest.approx(1.0, rel=1e-9)


def test_perron_rejects_negative_entries():
    with pytest.raises(ValueError):
        perron(np.array([[0.0, -1.0], [0.0, 0.0]]))


def test_perron_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            perron(np.array([[0.0, bad], [1.0, 0.0]]))


def collatz_wielandt(mat, vec):
    """The bracket ``min_i (mat vec)_i / vec_i <= rho <= max_i ...``."""
    ratios = mat @ vec / vec
    return ratios.min(), ratios.max()


def permuted(mat, rng):
    """``mat`` with its nodes relabelled, so blocks are not contiguous."""
    order = rng.permutation(len(mat))
    return mat[np.ix_(order, order)]


def test_perron_weighted_cycle_meets_the_geometric_mean():
    # every eigenvalue of a cycle has the same modulus, the geometric mean
    # of its weights; over four decades of weights a dense eig misses it
    # in the sixth digit
    w = 10 ** np.random.default_rng(92).uniform(-3, 1, 50)
    s = np.roll(np.diag(w), 1, axis=0)
    rho, vec = perron(s)
    exact = np.exp(np.mean(np.log(w)))
    assert rho == pytest.approx(exact, rel=1e-13)
    assert np.all(vec > 0) and vec.max() == 1.0
    lo, hi = collatz_wielandt(s, vec)
    assert lo <= rho <= hi
    assert hi - lo <= BRACKET_TOL * rho


def test_perron_block_triangular_takes_the_largest_block_radius():
    # diagonal blocks: a two-cycle of radius 2, a three-cycle of radius
    # 24^(1/3) and one node; the couplings above them do not count
    rng = np.random.default_rng(7)
    group = np.array([0, 0, 1, 1, 1, 2])
    for node, radius in ((1.5, 24.0 ** (1.0 / 3.0)), (5.0, 5.0)):
        s = rng.uniform(0.5, 2.0, (6, 6)) * (group[:, None] < group[None, :])
        s[0:2, 0:2] = [[0.0, 4.0], [1.0, 0.0]]
        s[2:5, 2:5] = [[0.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]
        s[5, 5] = node
        rho, vec = perron(permuted(s, rng))
        assert rho == pytest.approx(radius, rel=1e-14)
        assert np.all(vec > 0) and vec.max() == 1.0


def test_perron_nilpotent_radius_is_exactly_zero():
    rng = np.random.default_rng(8)
    s = permuted(np.triu(rng.uniform(0.1, 3.0, (9, 9)), 1), rng)
    rho, vec = perron(s)
    assert rho == 0.0
    assert np.all(vec > 0) and vec.max() == 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_perron_brackets_the_radius_of_irreducible_matrices(data):
    # a weighted cycle through every node makes the matrix irreducible;
    # further entries are drawn over four decades
    n = data.draw(st.integers(2, 14), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    s = np.zeros((n, n))
    s[order, np.roll(order, 1)] = 10 ** rng.uniform(-3, 1, n)
    extra = rng.random((n, n)) < data.draw(st.floats(0.0, 1.0), label="density")
    s[extra] += 10 ** rng.uniform(-3, 1, (n, n))[extra]
    rho, vec = perron(s)
    assert np.all(vec > 0) and vec.max() == 1.0
    lo, hi = collatz_wielandt(s, vec)
    eps = np.finfo(float).eps
    assert lo <= rho <= hi
    assert hi - lo <= 4 * n * eps * rho
    assert np.max(np.abs(s @ vec - rho * vec)) <= 4 * n * eps * np.max(s.sum(axis=1))
    assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(s))), rel=1e-6)


def test_small_gain_demo_default_path():
    _, _, gm = demo_setup()
    path = small_gain(gm)
    assert path.rho_spec == pytest.approx(demo_rho_spec(), rel=1e-9)
    assert path.validated
    assert path.margin > 0.0
    # eta is the dominant vector, normalized so sqrt(N) max eta_i/lam_i = 1.
    scaled = gm.scaled
    assert np.allclose(scaled @ path.eta, path.rho_spec * path.eta, atol=1e-6)
    assert np.sqrt(4.0) * np.max(path.eta / gm.lam) == pytest.approx(1.0, rel=1e-12)
    assert path.epsilon == pytest.approx(0.99 * (1.0 / path.rho_spec - 1.0), rel=1e-9)
    # epsilon is the Collatz-Wielandt value of eta, not a guess backed off
    assert path.epsilon == 0.99 * (np.min(path.eta / (scaled @ path.eta)) - 1.0)
    # The strict feasibility inequality, literally.
    assert np.all((1.0 + path.epsilon) * scaled @ path.eta < path.eta)


def test_small_gain_zero_gamma_caps_epsilon():
    ic = Interconnection([LinearSystem("solo", [[-1.0]], [[1.0]], [[1.0]], [])])
    from simcompose.abstraction import ComparisonGains

    gm = gain_matrices(ic, {"solo": ComparisonGains(lam=2.0, rho=1.0, mu=())})
    path = small_gain(gm)
    assert path.rho_spec == 0.0
    assert path.epsilon == 1e3
    assert path.validated
    assert path.eta[0] == pytest.approx(2.0, rel=1e-12)


def test_small_gain_two_cycle_closed_form():
    a, b = 0.3, 0.6
    gm = GainMatrices(
        names=("x", "y"),
        gamma=np.array([[0.0, a], [b, 0.0]]),
        lam=np.ones(2),
        rho=np.zeros(2),
    )
    path = small_gain(gm)
    assert path.rho_spec == pytest.approx(np.sqrt(a * b), rel=1e-8)


def test_small_gain_raises_beyond_unit_radius():
    _, _, gm = demo_setup(d1=1.1, d2=1.1, d3=1.1)
    with pytest.raises(SmallGainError, match="spectral radius") as excinfo:
        small_gain(gm)
    err = excinfo.value
    assert err.rho_spec == pytest.approx(demo_rho_spec(1.1), rel=1e-8)
    assert len(err.cycle) == 3
    assert "s3" in err.cycle
    assert err.cycle_gain > 0


def unit_gains(gamma) -> GainMatrices:
    n = len(gamma)
    return GainMatrices(tuple(f"n{i}" for i in range(n)), gamma, np.ones(n), np.ones(n))


@pytest.mark.parametrize("gain", [2.0, 20.0, 1e3])
def test_small_gain_validates_a_feedforward_chain(gain):
    # n0 -> n1 -> ... -> n9 has no cycle, so its radius is 0 whatever
    # the gains; the weights admit an epsilon of at least 1/r - 1 = 1
    # (r = 1/2), up to rounding
    gamma = np.diag(np.full(9, gain), -1)
    path = small_gain(unit_gains(gamma))
    assert path.rho_spec == 0.0 and path.validated
    assert path.epsilon >= 0.99 * (1.0 - 1e-12)
    assert np.all(path.eta > 0)
    assert np.all((1.0 + path.epsilon) * gamma @ path.eta < path.eta)


def test_small_gain_error_names_a_cycle_of_the_dominant_component():
    # a <-> b at 1.2 is the only cycle; the heavier edge c -> d ends at
    # the sink d, so no cycle passes through it
    gamma = np.zeros((4, 4))
    gamma[0, 1] = gamma[1, 0] = 1.2
    gamma[3, 2] = 5.0
    gm = GainMatrices(("a", "b", "c", "d"), gamma, np.ones(4), np.ones(4))
    with pytest.raises(SmallGainError) as excinfo:
        small_gain(gm)
    assert excinfo.value.rho_spec == pytest.approx(1.2, rel=1e-14)
    assert sorted(excinfo.value.cycle) == ["a", "b"]
    assert excinfo.value.cycle_gain == pytest.approx(1.2, rel=1e-14)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_small_gain_validates_every_reducible_network_below_unit_radius(data):
    # block upper triangular: irreducible-or-not diagonal blocks scaled
    # to radii below 0.999, couplings over six decades above them, and
    # the nodes relabelled
    n = data.draw(st.integers(2, 14), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    density = data.draw(st.floats(0.0, 1.0), label="density")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, n + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    group = np.searchsorted(cuts, np.arange(n), side="right")
    drawn = rng.random((n, n)) < density
    s = np.where(drawn & (group[:, None] < group[None, :]), 10 ** rng.uniform(-3, 3, (n, n)), 0.0)
    for g in range(k):
        block = np.ix_(group == g, group == g)
        s[block] = np.where(drawn[block], 10 ** rng.uniform(-3, 1, (n, n))[block], 0.0)
        radius = np.max(np.abs(np.linalg.eigvals(s[block])))
        if radius > 0:
            s[block] *= rng.uniform(0.0, 0.999) / radius
    s = permuted(s, rng)
    assert np.max(np.abs(np.linalg.eigvals(s))) < 1.0
    path = small_gain(unit_gains(s))
    assert path.validated and np.all(path.eta > 0)
    assert np.all((1.0 + path.epsilon) * s @ path.eta < path.eta)


def test_small_gain_radius_scales_linearly():
    _, _, gm1 = demo_setup()
    _, _, gm2 = demo_setup(d1=1.0, d2=1.0, d3=1.0)
    r1 = small_gain(gm1).rho_spec
    r2 = small_gain(gm2).rho_spec
    assert r2 == pytest.approx(2.0 * r1, rel=1e-8)


def test_small_gain_published_overrides_fail_strictly():
    _, _, gm = demo_setup()
    path = small_gain(gm, eta=np.array([0.4, 0.6, 0.5, 0.6]), epsilon=4.0)
    assert not path.validated
    # Worst slot: eta_2 - 5 * sqrt(2) d2 eta_1 = 0.6 - sqrt(2).
    assert path.margin == pytest.approx(0.6 - np.sqrt(2.0), abs=1e-9)
    assert np.allclose(path.eta, [0.4, 0.6, 0.5, 0.6])
    assert path.epsilon == 4.0


def test_small_gain_overrides_can_validate():
    _, _, gm = demo_setup()
    default = small_gain(gm)
    path = small_gain(gm, eta=default.eta, epsilon=1.0)
    assert path.validated
    assert path.margin > 0.0


def test_small_gain_overrides_bypass_radius_guard():
    _, _, gm = demo_setup(d1=1.1, d2=1.1, d3=1.1)
    path = small_gain(gm, eta=np.ones(4), epsilon=1.0)
    assert not path.validated
    assert path.rho_spec > 1.0


def test_small_gain_rejects_bad_overrides():
    _, _, gm = demo_setup()
    with pytest.raises(ValueError):
        small_gain(gm, eta=np.ones(3))
    with pytest.raises(ValueError):
        small_gain(gm, eta=np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        small_gain(gm, epsilon=-2.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            small_gain(gm, epsilon=bad)
        with pytest.raises(ValueError, match="eta must be finite and strictly positive"):
            small_gain(gm, eta=np.array([bad, 0.6, 0.5, 0.6]))
    # weights that no positive epsilon makes strict
    with pytest.raises(ValueError, match="the largest the given eta admits"):
        small_gain(gm, eta=np.array([1.0, 1e-3, 1.0, 1.0]))


def test_compose_simfn_published_overrides():
    _, results, gm = demo_setup()
    path = small_gain(gm, eta=np.array([0.4, 0.6, 0.5, 0.6]), epsilon=4.0)
    composed = compose_simfn(gm, path)
    assert composed.lam == 0.8
    assert composed.rho == pytest.approx(np.sqrt(2.0) * 10.0 / 3.0, rel=1e-9)
    assert composed.rho / composed.lam == pytest.approx(5.892557, abs=1e-5)
    assert np.allclose(composed.weights, [2.5, 10.0 / 3.0, 2.0, 10.0 / 3.0])


def test_compose_simfn_is_weighted_max():
    # the run samples each V_i at the pair of states it reached, and the
    # composed V as their max weighted by composed.weights
    ic, results, gm = demo_setup()
    path = small_gain(gm)
    composed = compose_simfn(gm, path)
    rng = np.random.default_rng(307)
    abstract_ic = compose_abstractions(ic, results)
    width = sum(results[n].system.m for n in gm.names)
    run = refine_and_run(
        ic, results, composed, rng.standard_normal(10), rng.standard_normal(4),
        Signal.zero(width), t_final=0.2, dt=1e-2,
    )
    for row in range(len(run.times)):
        values = [
            eval_simfn(
                results[name].simfn,
                run.abstract.states[row, abstract_ic.state_slice(name)],
                run.concrete.states[row, ic.state_slice(name)],
            )
            for name in gm.names
        ]
        assert run.v[row] == pytest.approx(values, rel=1e-12)
        direct = max(w * v for w, v in zip(composed.weights, values))
        assert run.v_composed[row] == pytest.approx(direct, rel=1e-12)


def test_compose_single_subsystem():
    from simcompose.abstraction import ComparisonGains

    ic = Interconnection([LinearSystem("solo", [[-1.0]], [[1.0]], [[1.0]], [])])
    gm = gain_matrices(ic, {"solo": ComparisonGains(lam=1.5, rho=0.7, mu=())})
    path = small_gain(gm, eta=np.array([1.0]), epsilon=4.0)
    composed = compose_simfn(gm, path)
    assert composed.lam == pytest.approx(1.5 * 4.0 / 5.0, rel=1e-12)
    assert composed.rho == pytest.approx(0.7 * 1.5, rel=1e-12)
    assert composed.weights[0] == pytest.approx(1.5, rel=1e-12)


def test_compose_abstractions_preserves_topology():
    ic, results, _ = demo_setup()
    abstract = compose_abstractions(ic, results)
    assert abstract.names == ic.names
    for name in ic.names:
        twin = abstract[name]
        original = ic[name]
        assert twin.n == 1
        assert twin.p == original.p
        assert [ch.source for ch in twin.channels_in] == [
            ch.source for ch in original.channels_in
        ]
    with pytest.raises(ValueError, match="missing"):
        compose_abstractions(ic, {k: v for k, v in results.items() if k != "s4"})


def test_composed_deviation_decays_in_closed_loop():
    # Computed certificates (so the decay estimate is sound), an
    # unmatched start, and no abstract input: the composed deviation must
    # lie under its own exponential envelope at every sample.
    ic, results, gm = demo_setup(certificates=False, d1=0.2, d2=0.2, d3=0.2)
    path = small_gain(gm)
    composed = compose_simfn(gm, path)
    xhat0 = np.array([0.5, -0.3, 0.4, 0.2])
    x0 = np.concatenate([
        results[name].simfn.P @ xhat0[i:i + 1] for i, name in enumerate(gm.names)
    ])
    x0 = x0 + 0.1 * np.array([1.0, -1.0, 0.5, 0.3, -0.2, 0.4, 0.1, -0.5, 0.2, 0.3])
    width = sum(results[n].system.m for n in gm.names)
    run = refine_and_run(
        ic, results, composed, x0, xhat0, Signal.zero(width),
        t_final=6.0, dt=1e-3,
    )
    v0 = run.v_composed[0]
    assert v0 > 0.01
    envelope = np.exp(-composed.lam * run.times) * v0
    assert np.all(run.v_composed <= envelope * (1.0 + 1e-3) + 1e-12)


def test_composed_deviation_respects_input_offset():
    # With a square-wave abstract input the envelope gains the rho/lam
    # offset; checked with the same computed-certificate setup.
    ic, results, gm = demo_setup(certificates=False, d1=0.2, d2=0.2, d3=0.2)
    path = small_gain(gm)
    composed = compose_simfn(gm, path)
    xhat0 = np.array([0.5, -0.3, 0.4, 0.2])
    x0 = np.concatenate([
        results[name].simfn.P @ xhat0[i:i + 1] for i, name in enumerate(gm.names)
    ])
    width = sum(results[n].system.m for n in gm.names)
    amplitude = np.full(width, 0.1 / np.sqrt(width))
    uhat = Signal.square(amplitude, period=4.0, t_final=6.0)
    run = refine_and_run(ic, results, composed, x0, xhat0, uhat, t_final=6.0, dt=1e-3)
    envelope = (
        np.exp(-composed.lam * run.times) * run.v_composed[0]
        + composed.rho / composed.lam * uhat.sup_norm
    )
    assert np.all(run.v_composed <= envelope * (1.0 + 1e-3) + 1e-12)
