import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_measure
from quncert import (BoundedRangeMap, BoundedShiftMap, DomainError,
                     GridMeasure, Interval, PiecewiseLinearMap,
                     alpha_deviation, convolve, gaussian_measure,
                     load_measure_csv, measure_from_spec, overall_width,
                     overall_width_interval, point_mass, pushforward,
                     save_measure_csv, sorted_measure, std_deviation,
                     translate, two_point, uniform_measure)
from quncert import ResourceError, measures
from quncert.measures import DEFAULT_CONVOLVE_CAP, _write_csv
from quncert.metrics import delta_alpha_smeared_closed_form
from quncert.states import (DEFAULT_GRID, GridSpec, make_gaussian,
                            momentum_distribution, parity,
                            position_distribution, save_wavefunction_csv)
from quncert.transport import optimal_coupling_lp, save_coupling_csv

HALF_HALF = sorted_measure([0.0, 1.0], [0.5, 0.5])


# -- type invariants ----------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        GridMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))


def test_atoms_must_increase():
    with pytest.raises(DomainError):
        GridMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("atoms, weights, message", [
    ([], [], "atoms and weights must be nonempty and equal length"),
    ([0.0, 1.0], [1.0], "atoms and weights must be nonempty and equal length"),
    ([0.0, math.nan], [0.5, 0.5], "atoms and weights must be finite"),
    ([0.0, 1.0], [math.inf, 0.5], "atoms and weights must be finite"),
    ([-1e308, 1e308], [0.5, 0.5], "atom span must be a finite float"),
    ([0.0, 0.0], [0.5, 0.5], "atoms must be strictly increasing"),
    ([0.0, 2.0, 1.0], [0.2, 0.3, 0.5], "atoms must be strictly increasing"),
    ([0.0, 1.0], [1.5, -0.5], "weights must be nonnegative"),
    ([0.0, 1.0], [0.5, 0.4],
     "weights must sum to 1 within 1e-12, got 0.9"),
    # a law that breaks several invariants reports the first in this order
    ([1.0, 0.0], [math.nan, 1.0], "atoms and weights must be finite"),
    ([-1e308, 1e308, 0.0], [0.5, 0.5, 0.0],
     "atom span must be a finite float"),
    ([1.0, 0.0], [-0.5, 0.4], "atoms must be strictly increasing"),
    ([0.0, 1.0], [-0.5, 0.4], "weights must be nonnegative"),
], ids=["empty", "length-mismatch", "nan-atom", "infinite-weight",
        "infinite-span", "tied-atoms", "unsorted-atoms", "negative-weight",
        "mass-off-one", "finite-before-order", "span-before-order",
        "order-before-sign", "sign-before-mass"])
def test_each_invalid_law_names_its_first_broken_invariant(atoms, weights,
                                                           message):
    with pytest.raises(DomainError) as exc:
        GridMeasure(np.array(atoms, dtype=float),
                    np.array(weights, dtype=float))
    assert str(exc.value) == message


def test_no_negative_weight():
    with pytest.raises(DomainError):
        GridMeasure(np.array([0.0, 1.0]), np.array([1.5, -0.5]))


def test_interval_width_nonnegative():
    with pytest.raises(DomainError):
        Interval(0.0, -1.0)
    j = Interval(2.0, 4.0)
    assert j.lo == 0.0 and j.hi == 4.0 and j.contains(4.0)


# -- cdf / quantile -----------------------------------------------------------

def test_cdf_examples():
    assert HALF_HALF.cdf(0.5) == 0.5
    assert HALF_HALF.cdf(-0.1) == 0.0
    assert HALF_HALF.cdf(1.0) == 1.0


def test_cdf_right_continuous_and_monotone(rng):
    m = random_measure(rng, max_atoms=15)
    xs = np.sort(np.concatenate([m.atoms, m.atoms + 1e-12, m.atoms - 1e-3]))
    vals = [m.cdf(float(x)) for x in xs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for x in m.atoms:  # mass at the atom included at the atom itself
        assert m.cdf(float(x)) == pytest.approx(m.cdf(float(x) + 1e-13))


def test_quantile_galois(rng):
    m = random_measure(rng, max_atoms=12)
    for t in np.linspace(0.01, 1.0, 23):
        q = m.quantile(float(t))
        assert m.cdf(q) >= t - 1e-9
    with pytest.raises(DomainError):
        m.quantile(0.0)


def test_interval_mass_counts_endpoints():
    assert HALF_HALF.interval_mass(Interval(0.5, 1.0)) == 1.0
    assert HALF_HALF.interval_mass(Interval(0.0, 0.0)) == 0.5


# -- spread functionals -------------------------------------------------------

def test_alpha_deviation_two_point_example():
    m = sorted_measure([-1.0, 1.0], [0.5, 0.5])
    assert alpha_deviation(m, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_alpha_deviation_gaussian_example():
    xs = np.linspace(-16.0, 16.0, 4096)
    w = np.exp(-0.5 * (xs / 2.0) ** 2)
    m = sorted_measure(xs, w / w.sum())
    assert alpha_deviation(m, 2.0) == pytest.approx(2.0, abs=1e-4)


def test_alpha_deviation_matches_brute_oracle(rng):
    for _ in range(25):
        m = random_measure(rng, max_atoms=12)
        for alpha in (1.0, 1.5, 2.0, 3.0):
            ours = alpha_deviation(m, alpha)
            ref = oracles.brute_alpha_deviation(m.atoms, m.weights, alpha)
            assert ours == pytest.approx(ref, abs=1e-7, rel=1e-7)


def test_alpha2_deviation_equals_std(rng):
    for _ in range(100):
        m = random_measure(rng)
        assert alpha_deviation(m, 2.0) == pytest.approx(std_deviation(m),
                                                        abs=1e-9)


def test_alpha1_deviation_is_the_objective_at_the_weighted_median(rng):
    for _ in range(200):
        m = random_measure(rng, max_atoms=40, min_atoms=2)
        half = 0.5 * math.fsum(m.weights)
        cum = 0.0
        for k, w in enumerate(m.weights):
            cum += w
            if cum >= half:
                break
        want = float(np.sum(m.weights * np.abs(m.atoms - m.atoms[k])))
        assert alpha_deviation(m, 1.0) == want


@st.composite
def deviation_cases(draw):
    """(measure, alpha): general laws with some zero weights, laws symmetric
    about one of their atoms, and two-point laws; alpha in [1, 8]."""
    kind = draw(st.sampled_from(["general", "symmetric", "two_point"]))
    if kind == "general":
        # subnormal atoms leave no float between them for the minimizer
        finite = st.floats(-50.0, 50.0, allow_subnormal=False)
        atoms = draw(st.lists(finite, min_size=2, max_size=30, unique=True))
        weights = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.0])
                                | st.floats(1e-3, 1.0),
                                min_size=len(atoms), max_size=len(atoms)))
        if not any(weights):
            weights[0] = 1.0
    elif kind == "symmetric":
        # dyadic offsets, so the mirror atoms c - o and c + o are exact
        center = draw(st.integers(-20, 20)) / 4.0
        offsets = draw(st.lists(st.integers(1, 200), min_size=1, max_size=10,
                                unique=True))
        side = draw(st.lists(st.floats(0.01, 1.0), min_size=len(offsets),
                             max_size=len(offsets)))
        atoms = [center] + [center + s * o / 8.0 for s in (-1.0, 1.0)
                            for o in offsets]
        weights = [draw(st.floats(0.01, 1.0))] + side + side
    else:
        lo = draw(st.floats(-50.0, 50.0, allow_subnormal=False))
        atoms = [lo, lo + draw(st.floats(1e-3, 100.0))]
        w1 = draw(st.floats(0.01, 0.99))
        weights = [w1, 1.0 - w1]
    m = sorted_measure(atoms, np.array(weights) / math.fsum(weights))
    alpha = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 8.0])
                 | st.floats(1.0, 8.0))
    return m, alpha


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(deviation_cases())
def test_alpha_deviation_is_the_minimum_a_scan_and_scipy_find(case):
    m, alpha = case
    ours = alpha_deviation(m, alpha)
    ref = oracles.scan_alpha_deviation(m.atoms, m.weights, alpha)
    # never above what the oracle reaches, and a minimum it confirms
    assert ours <= ref * (1.0 + 1e-12)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-300)


def test_alpha_deviation_requires_alpha_ge_one():
    with pytest.raises(DomainError):
        alpha_deviation(HALF_HALF, 0.5)


def test_overall_width_examples():
    assert overall_width(HALF_HALF, 0.4) == 1.0
    assert overall_width(HALF_HALF, 0.5) == 0.0


def test_overall_width_eps0_is_support_width(rng):
    for _ in range(20):
        m = random_measure(rng)
        assert overall_width(m, 0.0) == pytest.approx(
            m.support_hi - m.support_lo, abs=1e-12)


def test_overall_width_matches_brute_oracle(rng):
    for _ in range(40):
        m = random_measure(rng, max_atoms=14)
        for eps in (0.0, 0.1, 0.3, 0.6):
            assert overall_width(m, eps) == pytest.approx(
                oracles.brute_overall_width(m.atoms, m.weights, eps),
                abs=1e-12)


def test_overall_width_nonincreasing_in_eps(rng):
    for _ in range(20):
        m = random_measure(rng)
        widths = [overall_width(m, e) for e in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))


def test_spread_translation_invariance(rng):
    for _ in range(20):
        m = random_measure(rng)
        shifted = translate(m, 3.7)
        assert overall_width(shifted, 0.2) == pytest.approx(
            overall_width(m, 0.2), abs=1e-9)
        assert alpha_deviation(shifted, 1.0) == pytest.approx(
            alpha_deviation(m, 1.0), abs=1e-7)
        assert alpha_deviation(shifted, 2.0) == pytest.approx(
            alpha_deviation(m, 2.0), abs=1e-9)


def test_chebyshev_guard(rng):
    for _ in range(100):
        m = random_measure(rng)
        for eps in (0.1, 0.25, 0.5):
            bound = 2.0 * std_deviation(m) / math.sqrt(eps)
            assert overall_width(m, eps) <= bound + 1e-12


def test_overall_width_interval_consistency(rng):
    for _ in range(20):
        m = random_measure(rng)
        for eps in (0.05, 0.3):
            j = overall_width_interval(m, eps)
            assert j.width == pytest.approx(overall_width(m, eps), abs=1e-12)
            assert m.interval_mass(j) >= 1.0 - eps - 1e-9


# -- arithmetic ---------------------------------------------------------------

def test_convolve_gaussian_variance_additivity():
    g = gaussian_measure(0.0, 1.0)
    c = convolve(g, g)
    assert std_deviation(c) ** 2 == pytest.approx(2.0, abs=1e-3)
    assert float(np.sum(c.weights)) == pytest.approx(1.0, abs=1e-12)


def test_translate_that_merges_atoms_names_the_shift_and_spacing():
    # 1e150 + 0.5 rounds to 1e150, so the two atoms would merge
    with pytest.raises(DomainError, match=r"^shift 1e\+150 wipes out the "
                       r"atom spacing 0\.5$"):
        translate(two_point(0.0, 0.5), 1e150)
    far = translate(two_point(0.0, 0.5), 1e15)
    assert far.atoms.tolist() == [1e15, 1e15 + 0.5]


def test_convolve_point_is_translate():
    g = gaussian_measure(0.5, 1.0, n_atoms=101)
    shifted = convolve(g, point_mass(2.0))
    assert np.allclose(shifted.atoms, g.atoms + 2.0)
    assert np.allclose(shifted.weights, g.weights)


def test_convolve_commutes_within_bin(rng):
    for _ in range(10):
        a = random_measure(rng, max_atoms=10)
        b = random_measure(rng, max_atoms=10)
        ab, ba = convolve(a, b), convolve(b, a)
        bin_w = min(a.min_spacing() if len(a) > 1 else math.inf,
                    b.min_spacing() if len(b) > 1 else math.inf)
        if not math.isfinite(bin_w):
            continue
        assert ab.mean() == pytest.approx(ba.mean(), abs=1e-9)
        assert abs(std_deviation(ab) - std_deviation(ba)) <= bin_w


def _operand(rng, n, zero_frac, uniform):
    """n atoms (uniform or irregular, gaps >= 0.05) with ~zero_frac dead."""
    if uniform:
        atoms = float(rng.uniform(-5.0, 5.0)) + 0.1 * np.arange(n)
    else:
        atoms = float(rng.uniform(-5.0, 5.0)) + np.cumsum(
            rng.uniform(0.05, 0.2, n))
    w = rng.uniform(0.1, 1.0, n)
    w[rng.random(n) < zero_frac] = 0.0
    if not w.any():
        w[int(rng.integers(n))] = 1.0
    return GridMeasure(atoms, w / w.sum())


def _probe_law(live_weights):
    """A law on the 2048-point grid, live only around the origin."""
    w = np.zeros(2048)
    w[1020:1020 + len(live_weights)] = live_weights
    return GridMeasure(-16.0 + (32.0 / 2048) * np.arange(2048), w)


def _assert_close_to_reference(got, ref):
    """Atoms equal but for negligible end atoms; weights and means close."""
    for m, other in ((got, ref), (ref, got)):
        extra = ~np.isin(m.atoms, other.atoms)
        assert np.all(m.weights[extra] < 1e-15)
        inside = (m.atoms >= other.atoms[0]) & (m.atoms <= other.atoms[-1])
        assert not np.any(extra & inside)
    union = np.union1d(got.atoms, ref.atoms)

    def on_union(m):
        w = np.zeros(union.size)
        w[np.searchsorted(union, m.atoms)] = m.weights
        return w

    scale = max(float(got.weights.max()), float(ref.weights.max()))
    assert np.max(np.abs(on_union(got) - on_union(ref))) <= 1e-12 * scale
    assert got.mean() == pytest.approx(ref.mean(), abs=1e-12)


@pytest.mark.parametrize("uniform", [True, False])
def test_convolve_bit_identical_to_reference_without_zero_weights(uniform):
    rng = np.random.default_rng(7)
    for i in range(20):
        n_a = int(rng.integers(2, 300))
        n_b = n_a if i % 4 == 0 else int(rng.integers(2, 300))  # ties too
        a = _operand(rng, n_a, 0.0, uniform)
        b = _operand(rng, n_b, 0.0, uniform)
        for x, y in ((a, b), (b, a)):
            got, ref = convolve(x, y), oracles.convolve_reference(x, y)
            assert np.array_equal(got.atoms, ref.atoms)
            assert np.array_equal(got.weights, ref.weights)


@pytest.mark.parametrize("zero_frac", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("sparse_side", ["a", "b"])
def test_convolve_with_zero_weights_matches_reference(zero_frac, sparse_side):
    rng = np.random.default_rng(11)
    for i in range(40):
        sparse = _operand(rng, int(rng.integers(2, 300)), zero_frac, i % 2 == 0)
        dense = _operand(rng, int(rng.integers(2, 300)), 0.0, i % 3 == 0)
        a, b = (sparse, dense) if sparse_side == "a" else (dense, sparse)
        _assert_close_to_reference(convolve(a, b),
                                   oracles.convolve_reference(a, b))


def test_convolve_suite_shape_matches_reference():
    # a localized probe law with 5 live atoms against a smearing law
    law = _probe_law([0.1, 0.0, 0.2, 0.0, 0.4, 0.2, 0.0, 0.0, 0.0, 0.1])
    noise = gaussian_measure(0.0, 0.7, 801)
    for x, y in ((law, noise), (noise, law)):
        got = convolve(x, y)
        _assert_close_to_reference(got, oracles.convolve_reference(x, y))
        assert got.mean() == pytest.approx(law.mean() + noise.mean(),
                                           abs=1e-12)
        assert float(np.sum(got.weights)) == pytest.approx(1.0, abs=1e-12)


def _count_bincounts(monkeypatch):
    binned = []
    real_bincount = np.bincount

    def counting_bincount(x, *args, **kwargs):
        binned.append(len(x))
        return real_bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting_bincount)
    return binned


def test_convolve_work_scales_with_live_pairs(monkeypatch):
    law = _probe_law([0.25, 0.0, 0.5, 0.0, 0.25])
    noise = gaussian_measure(0.0, 0.7, 801)
    binned = _count_bincounts(monkeypatch)
    for x, y in ((law, noise), (noise, law)):
        binned.clear()
        convolve(x, y)
        # two bincounts per live atom of the law, each over the noise atoms
        assert binned == [801] * 6


def test_convolve_single_live_atom_among_zeros():
    w = np.zeros(50)
    w[17] = 1.0
    lone = GridMeasure(0.25 * np.arange(50), w)
    g = gaussian_measure(1.0, 1.0, 201)
    for x, y in ((lone, g), (g, lone)):
        got = convolve(x, y)
        _assert_close_to_reference(got, oracles.convolve_reference(x, y))
        assert got.mean() == pytest.approx(17 * 0.25 + g.mean(), abs=1e-12)
        # the re-binning displaces mass by at most one bin width
        assert std_deviation(got) == pytest.approx(std_deviation(g),
                                                   abs=g.min_spacing())


def test_convolve_cap_raises_before_pair_work(monkeypatch):
    a = uniform_measure(0.0, 10.0, 1001)
    b = uniform_measure(0.0, 10.0, 1001)

    def no_pair_work(*_args, **_kwargs):
        raise AssertionError("pair work ran before the cap check")

    monkeypatch.setattr(np, "bincount", no_pair_work)
    with pytest.raises(ResourceError, match="cap is 100"):
        convolve(a, b, max_atoms=100)


# -- convolve on a shared lattice ---------------------------------------------

def _lattice_pair(atoms, w_a, w_b):
    atoms = np.asarray(atoms, dtype=float)
    w_a, w_b = np.asarray(w_a, dtype=float), np.asarray(w_b, dtype=float)
    return (GridMeasure(atoms, w_a / w_a.sum()),
            GridMeasure(atoms, w_b / w_b.sum()))


def _assert_lattice_sum(a, b):
    # the dense np.convolve law on the lattice a0 + b0 + step k, with step
    # read off the shared atoms as convolve reads it
    step = float(a.atoms[-1] - a.atoms[0]) / (len(a) - 1)
    want = oracles.lattice_convolve_reference(a, b, step)
    for x, y in ((a, b), (b, a)):
        got = convolve(x, y)
        assert np.array_equal(got.atoms, want.atoms)
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-13,
                                   atol=0.0)
    return got


def test_convolve_on_a_shared_lattice_adds_atoms_exactly(monkeypatch):
    binned = _count_bincounts(monkeypatch)
    rng = np.random.default_rng(5)
    atoms = -3.0 + 0.1 * np.arange(40)
    sparse = [rng.random(40) * (rng.random(40) < live) for live in (0.3, 0.5)]
    sparse[0][[0, 39]] = 0.0  # zero ends, trimmed from the sum
    lone_a, lone_b = np.eye(40)[7], np.eye(40)[31]
    # interior zero weights on both sides and on one side; one live atom on
    # one side and on both
    for w_a, w_b in ((sparse[0], sparse[1]), (sparse[0], rng.random(40)),
                     (lone_a, rng.random(40)), (lone_a, lone_b)):
        _assert_lattice_sum(*_lattice_pair(atoms, w_a, w_b))
    lone = convolve(*_lattice_pair(atoms, lone_a, lone_b))
    assert len(lone) == 1
    assert lone.atoms[0] == pytest.approx(atoms[7] + atoms[31], abs=1e-14)
    # 2-atom lattices, with and without a zero weight
    for w_a, w_b in (([0.3, 0.7], [0.6, 0.4]), ([1.0, 0.0], [0.2, 0.8]),
                     ([0.0, 1.0], [1.0, 0.0])):
        _assert_lattice_sum(*_lattice_pair([-0.5, 1.25], w_a, w_b))
    assert binned == []


@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("axis", ["position", "momentum"])
def test_convolve_of_born_laws_on_a_named_grid_is_exact(monkeypatch, axis,
                                                         hbar):
    binned = _count_bincounts(monkeypatch)
    grid = DEFAULT_GRID
    born = position_distribution if axis == "position" else (
        lambda wf: momentum_distribution(wf, hbar))
    law = born(make_gaussian(grid, -0.7, 0.4, 0.8, hbar))
    smear = born(parity(make_gaussian(grid, 0.3, -0.2, 1.1, hbar)))
    got = _assert_lattice_sum(law, smear)
    assert binned == []
    # the step read off the atoms is within 2n ulps of the grid's step
    points, step = grid.lattice(axis, hbar)
    k = np.rint((got.atoms - 2 * points[0]) / step)
    assert np.max(np.abs(got.atoms - (2 * points[0] + step * k))) <= (
        2 * grid.n * 2.0 ** -52 * step)


def test_convolve_bins_laws_that_share_no_uniform_lattice(monkeypatch):
    binned = _count_bincounts(monkeypatch)
    rng = np.random.default_rng(9)
    uniform = -2.0 + 0.25 * np.arange(30)
    irregular = np.cumsum(rng.uniform(0.05, 0.2, 30))
    kinked = uniform.copy()
    kinked[12] += 1e-7 * 0.25  # one spacing off by 1e-7 of a step
    pairs = [
        # equal lengths, not identical atoms: another offset, another step
        (uniform, uniform + 0.1),
        (uniform, -2.0 + 0.3 * np.arange(30)),
        # identical atoms, not uniform
        (irregular, irregular),
        (kinked, kinked),
    ]
    for x_atoms, y_atoms in pairs:
        a = GridMeasure(x_atoms, np.full(30, 1.0 / 30))
        b = GridMeasure(y_atoms, rng.dirichlet(np.ones(30)))
        binned.clear()
        got = convolve(a, b)
        assert binned == [30] * 60  # two bincounts per atom of a
        ref = oracles.convolve_reference(a, b)
        assert np.array_equal(got.atoms, ref.atoms)
        assert np.array_equal(got.weights, ref.weights)


def test_convolve_cap_raises_on_a_shared_lattice_before_slice_adds(
        monkeypatch):
    a, b = _lattice_pair(0.5 * np.arange(2001), np.ones(2001),
                         np.arange(1.0, 2002.0))

    def no_accumulator(*_args, **_kwargs):
        raise AssertionError("an accumulator was allocated before the cap")

    monkeypatch.setattr(np, "zeros", no_accumulator)
    with pytest.raises(ResourceError, match="4002 atoms, cap is 4001"):
        convolve(a, b, max_atoms=4001)


@pytest.mark.parametrize("spec", [
    {"family": "uniform", "lo": 0.0, "hi": 1.0},
    {"family": "gaussian", "sigma": 1.0}])
def test_spec_n_atoms_cap_raises_before_allocation(spec, monkeypatch):
    def no_allocation(*_args, **_kwargs):
        raise AssertionError("atoms were allocated before the cap check")

    monkeypatch.setattr(np, "linspace", no_allocation)
    with pytest.raises(ResourceError, match="n_atoms"):
        measure_from_spec({**spec, "n_atoms": DEFAULT_CONVOLVE_CAP + 1})


def test_pushforward_monotone_table():
    f = PiecewiseLinearMap([0.0, 1.0], [1.0, 3.0])
    m = pushforward(HALF_HALF, f)
    assert np.allclose(m.atoms, [1.0, 3.0])
    g = PiecewiseLinearMap([0.0, 1.0], [3.0, 1.0])  # decreasing
    md = pushforward(HALF_HALF, g)
    assert np.allclose(md.atoms, [1.0, 3.0])


def test_bounded_shift_map_enforces_bound():
    f = BoundedShiftMap(lambda x: 0.5 * np.cos(x), 0.5)
    m = pushforward(uniform_measure(-3.0, 3.0, 61), f)
    assert abs(m.mean() - 0.0) < 0.2
    bad = BoundedShiftMap(lambda x: np.full_like(x, 2.0), 0.5)
    with pytest.raises(DomainError):
        pushforward(HALF_HALF, bad)


def test_bounded_range_map_enforces_range():
    f = BoundedRangeMap(lambda x: np.tanh(x), -1.0, 1.0)
    m = pushforward(uniform_measure(-5.0, 5.0, 41), f)
    assert m.support_lo >= -1.0 and m.support_hi <= 1.0
    bad = BoundedRangeMap(lambda x: x, -1.0, 1.0)
    with pytest.raises(DomainError):
        pushforward(uniform_measure(-5.0, 5.0, 11), bad)


def test_map_table_must_be_monotone():
    with pytest.raises(DomainError):
        PiecewiseLinearMap([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


# -- constructors and files ---------------------------------------------------

def test_two_point_weight_validation():
    m = two_point(-1.0, 3.0, 0.25)
    assert m.mean() == pytest.approx(0.25 * -1.0 + 0.75 * 3.0)
    with pytest.raises(DomainError):
        two_point(0.0, 1.0, 1.0)


def test_uniform_measure_masses():
    m = uniform_measure(-0.5, 0.5, 11)
    assert len(m) == 11
    assert m.mean() == pytest.approx(0.0, abs=1e-12)
    # one atom: the point mass at the midpoint, and at the gaussian's mean
    for one in (uniform_measure(-0.5, 1.5, 1), gaussian_measure(0.5, 2.0, 1),
                measure_from_spec({"family": "gaussian", "mean": 0.5,
                                   "sigma": 1, "n_atoms": 1})):
        assert one.atoms.tolist() == [0.5] and one.weights.tolist() == [1.0]


def test_measure_from_spec_families(tmp_path):
    assert measure_from_spec({"family": "point", "at": 2.0}).atoms[0] == 2.0
    m = measure_from_spec({"atoms": [0.0, 1.0], "weights": [1.0, 3.0]})
    assert m.weights[1] == pytest.approx(0.75)
    with pytest.raises(DomainError):
        measure_from_spec({"family": "two_point", "x1": 0.0})
    with pytest.raises(DomainError):
        measure_from_spec({"family": "nope"})
    path = tmp_path / "m.csv"
    save_measure_csv(HALF_HALF, str(path))
    again = measure_from_spec({"family": "file", "path": str(path)})
    assert np.array_equal(again.atoms, HALF_HALF.atoms)


def test_measure_spec_rejects_unknown_keys():
    with pytest.raises(DomainError, match="unrecognized keys.*'p'"):
        measure_from_spec(
            {"family": "two_point", "x1": -0.5, "x2": 1.5, "p": 0.3})
    with pytest.raises(DomainError, match="unrecognized keys"):
        measure_from_spec({"family": "gaussian", "sigma": 1.0, "sd": 2.0})
    with pytest.raises(DomainError, match="unrecognized keys"):
        measure_from_spec(
            {"atoms": [0.0], "weights": [1.0], "normalize": False})


def test_csv_round_trip(tmp_path, rng):
    m = random_measure(rng, max_atoms=17)
    path = tmp_path / "measure.csv"
    save_measure_csv(m, str(path))
    back = load_measure_csv(str(path))
    assert np.array_equal(back.atoms, m.atoms)
    assert np.allclose(back.weights, m.weights, atol=1e-15)


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.0,1.0\n")
    with pytest.raises(DomainError):
        load_measure_csv(str(path))


# -- CSV bytes: the csv.writer excel dialect -----------------------------------

_CSV_SPECIALS = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, -1e308, 0.0])


def _csv_floats(rng, rows):
    col = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    idx = rng.choice(rows, min(rows, _CSV_SPECIALS.size), replace=False)
    col[idx] = _CSV_SPECIALS[:idx.size]
    return col


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 4099])
def test_csv_bytes_match_the_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    amplitudes = _csv_floats(rng, rows) + 1j * _csv_floats(rng, rows)
    tables = {
        "measure": (("x", "w"), _csv_floats(rng, rows), _csv_floats(rng, rows)),
        # strided views, as a wavefunction's real and imaginary parts
        "wavefunction": (("x", "re", "im"), _csv_floats(rng, rows),
                         amplitudes.real, amplitudes.imag),
        "coupling": (("i", "j", "xi", "yj", "w"),
                     np.nonzero(np.ones(rows))[0],
                     rng.integers(0, 2 ** 40, rows), _csv_floats(rng, rows),
                     _csv_floats(rng, rows), _csv_floats(rng, rows)),
    }
    for name, (header, *columns) in tables.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        _write_csv(str(got), header, *columns)
        oracles.csv_writer_reference(str(want), header, *columns)
        assert got.read_bytes() == want.read_bytes()


def _count_reprs(monkeypatch):
    # the writer's `repr`, looked up in the module before the builtins
    calls = []

    def spy(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(measures, "_csv_blocks", {})
    monkeypatch.setattr(measures, "repr", spy, raising=False)
    return calls


def test_csv_blocks_formatted_once_keep_dtype_and_sign(tmp_path, monkeypatch):
    calls = _count_reprs(monkeypatch)
    rows = 2 * measures._CSV_BLOCK
    lattice = np.linspace(-8.0, 8.0, rows)
    zeros = np.zeros(rows)
    signed = np.concatenate([zeros[:measures._CSV_BLOCK],
                             -zeros[measures._CSV_BLOCK:]])
    index = np.zeros(rows, dtype=np.int64)
    assert index[:measures._CSV_BLOCK].tobytes() == \
        zeros[:measures._CSV_BLOCK].tobytes()
    tables = {
        # float 0.0 blocks are formatted first
        "float": (("x", "w"), lattice, zeros),
        # a -0.0 block beside a 0.0 block, the lattice column again
        "signed": (("x", "re", "im"), lattice, signed, zeros),
        # int64 zero indices share the bytes of the float 0.0 blocks
        "coupling": (("i", "j", "xi", "yj", "w"), index,
                     np.arange(rows), lattice, lattice, zeros),
    }
    for name, (header, *columns) in tables.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        _write_csv(str(got), header, *columns)
        oracles.csv_writer_reference(str(want), header, *columns)
        assert got.read_bytes() == want.read_bytes()
    # the distinct blocks: lattice x 2, float 0.0, -0.0, int64 0, arange x 2
    assert len(measures._csv_blocks) == 7
    assert len(calls) == 7 * measures._CSV_BLOCK


def test_csv_blocks_kept_are_bounded(tmp_path, monkeypatch):
    calls = _count_reprs(monkeypatch)
    rows = 40 * measures._CSV_BLOCK
    column = np.arange(rows, dtype=float)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_csv(str(got), ("x", "w"), column, np.zeros(rows))
    oracles.csv_writer_reference(str(want), ("x", "w"), column, np.zeros(rows))
    assert got.read_bytes() == want.read_bytes()
    assert len(measures._csv_blocks) == measures._CSV_BLOCKS_KEPT
    # the zero block, used on every row, is the most recently used one and
    # is never dropped: 40 column blocks and one zero block are formatted
    assert len(calls) == 41 * measures._CSV_BLOCK


def test_csv_savers_write_the_csv_writer_bytes(tmp_path, rng):
    m = random_measure(rng, min_atoms=600, max_atoms=700)
    wf = make_gaussian(GridSpec.symmetric(8.0, 1024), 0.5, -1.0, 0.7)
    coupling, _ = optimal_coupling_lp(random_measure(rng, max_atoms=90),
                                      random_measure(rng, max_atoms=90), 2.0)
    rows, cols = np.nonzero(coupling.joint > 0.0)
    for save, obj, header, columns in (
            (save_measure_csv, m, ("x", "w"), (m.atoms, m.weights)),
            (save_wavefunction_csv, wf, ("x", "re", "im"),
             (wf.xs(), wf.amplitudes.real, wf.amplitudes.imag)),
            (save_coupling_csv, coupling, ("i", "j", "xi", "yj", "w"),
             (rows, cols, coupling.row_atoms[rows],
              coupling.col_atoms[cols], coupling.joint[rows, cols]))):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save(obj, str(got))
        oracles.csv_writer_reference(str(want), header, *columns)
        assert got.read_bytes() == want.read_bytes()


# -- spreads far from the origin and at extreme magnitudes --------------------

def test_alpha_deviation_returns_far_from_the_origin():
    # the absolute 1e-10 stop lies below the float spacing of 1e6 (1.2e-10)
    for alpha in (1.0, 2.0, 3.0):
        near = alpha_deviation(two_point(0.0, 1.0), alpha)
        assert alpha_deviation(two_point(1e6, 1e6 + 1.0), alpha) == \
            pytest.approx(near, rel=1e-9)
    assert alpha_deviation(two_point(0.0, 2e6), 2.0) == pytest.approx(1e6, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spreads_at_extreme_magnitudes_stay_finite():
    wide = two_point(-1e200, 1e200)
    assert std_deviation(wide) == 1e200
    assert alpha_deviation(wide, 2.0) == pytest.approx(1e200, rel=1e-12)
    assert alpha_deviation(wide, 1.0) == pytest.approx(1e200, rel=1e-12)
    huge = uniform_measure(0.0, 1e308, 3)
    assert std_deviation(huge) == pytest.approx(0.5e308 * math.sqrt(2.0 / 3.0),
                                                rel=1e-12)
    # |d| / max |d| keeps the largest term: the norm tends to the half-span
    assert alpha_deviation(two_point(0.0, 2.0), 1e300) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_deviation_at_high_orders_matches_the_two_point_closed_form():
    for w1 in (0.5, 0.3):
        # from about 1,025 on, a power-of-two scaling made the sum subnormal
        for alpha in (8.0, 100.0, 600.0, 1000.0, 1070.0, 5000.0):
            want = oracles.two_point_alpha_deviation(-3.0, 5.0, w1, alpha)
            assert alpha_deviation(two_point(-3.0, 5.0, w1), alpha) == \
                pytest.approx(want, rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_norms_beyond_a_power_of_two_scaling_match_log_space():
    # scaled by a power of two, the sums of two_point(-3, 5, 0.3) left the
    # normal floats from alpha 1,025 (deviation) and 1,510 (closed form)
    symmetric = sorted_measure([-1.5, -0.5, 0.0, 0.5, 1.5],
                               [0.1, 0.2, 0.4, 0.2, 0.1])
    for alpha in (1025.0, 1510.0, 2000.0, 3333.0, 5000.0):
        for w1 in (0.3, 0.5, 0.9):
            m = two_point(-3.0, 5.0, w1)
            ratio = ((1.0 - w1) / w1) ** (1.0 / (alpha - 1.0))
            y = (-3.0 + ratio * 5.0) / (1.0 + ratio)  # the minimizer
            want = oracles.log_alpha_norm(m.atoms - y, m.weights, alpha)
            assert alpha_deviation(m, alpha) == pytest.approx(want, rel=1e-13)
            want = oracles.log_alpha_norm(m.atoms, m.weights, alpha)
            assert delta_alpha_smeared_closed_form(m, alpha) == \
                pytest.approx(want, rel=1e-13)
        want = oracles.log_alpha_norm(symmetric.atoms, symmetric.weights, alpha)
        assert alpha_deviation(symmetric, alpha) == pytest.approx(want, rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_norms_of_a_subnormal_weight_match_log_space():
    # the atom at max |d| carries a subnormal weight: the plain sums of the
    # norm and of the minimizer's slope fall below the normal floats
    m = sorted_measure([0.0, 1.0], [1.0, 5e-324])
    for alpha in (1.5, 2.0, 8.0, 100.0, 600.0, 2000.0):
        r = math.exp(math.log(5e-324) / (alpha - 1.0))
        y = r / (1.0 + r)  # the minimizer
        want = oracles.log_alpha_norm(m.atoms - y, m.weights, alpha)
        # no absolute tolerance: the values go down to 1e-216
        assert alpha_deviation(m, alpha) == pytest.approx(want, rel=1e-13,
                                                          abs=0.0)
        want = oracles.log_alpha_norm(m.atoms, m.weights, alpha)
        assert delta_alpha_smeared_closed_form(m, alpha) == \
            pytest.approx(want, rel=1e-13, abs=0.0)
    assert alpha_deviation(m, 1.0) == delta_alpha_smeared_closed_form(m, 1.0) \
        == 5e-324


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_deviation_near_one_of_a_subnormal_weight_matches_log_space():
    # the minimizer lies within the subnormals of the heavy atom, where the
    # Newton curvature overflows: a step of 0 from it is no convergence
    m = sorted_measure([0.0, 1.0], [1.0, 5e-324])
    for alpha in (1.0 + 1e-9, 1.0001, 1.001, 1.01, 1.1, 1.2):
        r = math.exp(math.log(5e-324) / (alpha - 1.0))
        y = r / (1.0 + r)  # the minimizer (0 up to alpha about 1.9)
        want = oracles.log_alpha_norm(m.atoms - y, m.weights, alpha)
        assert alpha_deviation(m, alpha) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_std_deviation_scaling_is_exact(rng):
    for _ in range(200):
        m = random_measure(rng, max_atoms=30, span=float(rng.uniform(0.1, 300)))
        variance = max(m.moment(2) - m.mean() ** 2, 0.0)
        assert std_deviation(m) == math.sqrt(variance)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measures_beyond_the_float_range_are_domain_errors():
    with pytest.raises(DomainError, match="atom span"):
        two_point(-1e308, 1e308)
    with pytest.raises(DomainError, match="total mass"):
        sorted_measure([0.0, 1.0], [1e308, 1e308])
    with pytest.raises(DomainError, match="weights must sum to 1"):
        GridMeasure(np.array([0.0, 1.0]), np.array([1e308, 1e308]))
    with pytest.raises(DomainError, match="finite span"):
        uniform_measure(-1e308, 1e308, 5)
    with pytest.raises(DomainError, match="finite span"):
        gaussian_measure(0.0, 1e308)
    wide = gaussian_measure(0.0, 1.0, 11, half_width=1e200)
    assert wide.weights[5] == 1.0


def test_pushforward_merges_atoms_a_table_rounds_together():
    # both images round to 1e6 (its ulp is 1.16e-10)
    f = PiecewiseLinearMap([0.0, 1.0], [1e6, 1e6 + 1.2e-10])
    m = pushforward(two_point(0.2, 0.3), f)
    assert m.atoms.tolist() == [1e6]
    assert m.weights.tolist() == [1.0]
