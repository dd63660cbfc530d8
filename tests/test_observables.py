"""Observable models: output laws, covariance, moments, joint distributions."""

import math
import sys
import weakref
from collections.abc import Mapping

import numpy as np
import pytest

from quncert import observables, states
from quncert.exceptions import AccuracyError, DomainError
from quncert.measures import (GridMeasure, convolve, gaussian_measure,
                              point_mass, std_deviation, translate, two_point)
from quncert.metrics import default_probe_config, error_bar_width
from quncert.observables import (CovariantMarginal, PushforwardObservable,
                                 SharpMomentum, SharpPosition, SmearedMomentum,
                                 SmearedPosition, TrivialObservable,
                                 covariant_marginals, joint_covariant_distribution,
                                 map_from_spec, moment_stats,
                                 observable_from_spec, observable_to_spec)
from quncert.states import (COVARIANT_GRID, DEFAULT_GRID, SOLVER_GRID,
                            GridSpec, MixedState, PhasePoint,
                            make_box, make_gaussian, make_hermite,
                            momentum_distribution, parity,
                            position_distribution,
                            state_from_spec, weyl_translate)
from quncert.states import test_ensemble as builtin_ensemble

from oracles import (binned_tv_reference, joint_margin_tv_reference,
                     joint_mass_reference, lattice_convolve_reference,
                     tv_distance)

GRID = DEFAULT_GRID


def _gauss(center=0.0, momentum=0.0, sigma=1.0, grid=GRID):
    return MixedState.pure(make_gaussian(grid, center, momentum, sigma))


# -- distribution: basic laws ------------------------------------------------

def test_trivial_is_state_independent():
    law = two_point(-1.0, 3.0, 0.25)
    obs = TrivialObservable(law)
    out_a = obs.distribution(_gauss(sigma=0.5))
    out_b = obs.distribution(_gauss(center=2.0, sigma=2.0))
    assert np.array_equal(out_a.atoms, out_b.atoms)
    assert np.array_equal(out_a.weights, out_b.weights)
    assert np.array_equal(out_a.atoms, law.atoms)


def test_point_mass_smearing_translates():
    state = _gauss(sigma=0.8)
    obs = SmearedPosition(point_mass(1.5))
    got = obs.distribution(state)
    want = translate(position_distribution(state), 1.5)
    assert abs(got.mean() - want.mean()) < 1e-9
    assert abs(std_deviation(got) - std_deviation(want)) < 1e-9


def test_gaussian_smearing_adds_variance():
    sigma_s, sigma_mu = 1.0, 0.7
    obs = SmearedPosition(gaussian_measure(0.0, sigma_mu))
    out = obs.distribution(_gauss(sigma=sigma_s))
    var = std_deviation(out) ** 2
    assert abs(var - (sigma_s ** 2 + sigma_mu ** 2)) < 1e-3


def test_smeared_momentum_adds_variance():
    # sigma=0.5 ground Gaussian has momentum std 1 at hbar=1
    obs = SmearedMomentum(gaussian_measure(0.0, 0.5))
    out = obs.distribution(_gauss(sigma=0.5))
    assert abs(std_deviation(out) ** 2 - (1.0 + 0.25)) < 1e-3


def test_sharp_laws_match_state_module():
    state = _gauss(center=1.0, momentum=-2.0, sigma=0.9)
    q_law = SharpPosition().distribution(state)
    assert abs(q_law.mean() - 1.0) < 1e-6
    p_law = SharpMomentum().distribution(state)
    assert abs(p_law.mean() - (-2.0)) < 1e-6


def test_pushforward_applies_map():
    state = _gauss(center=2.0, sigma=0.5)
    doubling = map_from_spec({"kind": "table", "xs": [-60.0, 60.0],
                              "ys": [-120.0, 120.0]})
    obs = PushforwardObservable(SharpPosition(), doubling)
    out = obs.distribution(state)
    assert abs(out.mean() - 4.0) < 1e-9
    assert abs(std_deviation(out) - 2.0 * std_deviation(
        position_distribution(state))) < 1e-9


# -- covariance properties -----------------------------------------------------

def test_smeared_position_is_translation_covariant():
    mu = gaussian_measure(0.3, 0.6)
    obs = SmearedPosition(mu)
    q = 1.7
    for state in (_gauss(sigma=0.7),
                  MixedState.pure(make_box(GRID, 0.0, 2.0, 0.0))):
        shifted = weyl_translate(state, PhasePoint(q, 0.0))
        got = obs.distribution(shifted)
        want = translate(obs.distribution(state), q)
        assert abs(got.mean() - want.mean()) <= GRID.dx


def test_cos_pushforward_breaks_covariance():
    # outcome map x + 0.5 cos x does not commute with translations; some
    # shift of some state must move the output law by a visible TV gap
    mu = gaussian_measure(0.0, 0.4)
    bent = PushforwardObservable(SmearedPosition(mu),
                                 map_from_spec({"kind": "cos_shift",
                                                "amplitude": 0.5}))
    witnessed = False
    for state in builtin_ensemble()[:6]:
        for q in (0.5 * math.pi, 1.0, 2.5):
            shifted = weyl_translate(state, PhasePoint(q, 0.0))
            got = bent.distribution(shifted)
            want = translate(bent.distribution(state), q)
            if tv_distance(got, want) > 0.01:
                witnessed = True
                break
        if witnessed:
            break
    assert witnessed


# -- covariant phase-space marginals ---------------------------------------------

def test_covariant_marginals_of_even_gaussian():
    tau = _gauss(sigma=1.3)
    mu_t, nu_t = covariant_marginals(tau)
    assert abs(mu_t.mean()) < 1e-9
    assert abs(std_deviation(mu_t) - 1.3) < 1e-4
    assert abs(nu_t.mean()) < 1e-9
    assert abs(std_deviation(nu_t) - 1.0 / (2.0 * 1.3)) < 1e-4


def test_covariant_marginals_reflect_center():
    tau = _gauss(center=2.0, sigma=0.8)
    mu_t, _ = covariant_marginals(tau)
    assert abs(mu_t.mean() - (-2.0)) <= GRID.dx


def test_covariant_marginals_obey_preparation_bound():
    for state in builtin_ensemble():
        mu_t, nu_t = covariant_marginals(state)
        assert std_deviation(mu_t) * std_deviation(nu_t) >= 0.5 - 1e-6


def test_covariant_marginal_observable_convolves():
    tau = _gauss(sigma=0.9)
    state = _gauss(center=1.0, sigma=0.6)
    obs = CovariantMarginal(tau, "position")
    out = obs.distribution(state)
    var_want = 0.6 ** 2 + 0.9 ** 2
    assert abs(out.mean() - 1.0) < 1e-4
    assert abs(std_deviation(out) ** 2 - var_want) < 1e-3


def test_covariant_marginal_smearing_cached():
    obs = CovariantMarginal(_gauss(sigma=1.0), "momentum")
    assert obs.smearing() is obs.smearing()


def test_covariant_marginal_axis_validated():
    with pytest.raises(DomainError):
        CovariantMarginal(_gauss(), "energy")


# -- joint covariant distribution -------------------------------------------------

def _husimi_lattice(grid, hbar=1.0, q_half=6.0, p_half=6.0, q_stride=8):
    dx = grid.dx
    dp = grid.momentum_step(hbar)
    q_step = q_stride * dx
    n_q = int(q_half / q_step)
    qs = q_step * np.arange(-n_q, n_q + 1)
    n_p = int(p_half / dp)
    ps = dp * np.arange(-n_p, n_p + 1)
    return qs, ps


def test_joint_vacuum_is_husimi():
    sigma = 1.0 / math.sqrt(2.0)
    tau = _gauss(sigma=sigma)
    state = _gauss(sigma=sigma)
    qs, ps = _husimi_lattice(GRID)
    joint = joint_covariant_distribution(tau, state, qs, ps)
    total = float(joint.mass.sum())
    assert abs(total - 1.0) < 1e-6
    q_mean = float((joint.mass.sum(axis=1) * qs).sum()) / total
    p_mean = float((joint.mass.sum(axis=0) * ps).sum()) / total
    q_var = float((joint.mass.sum(axis=1) * (qs - q_mean) ** 2).sum()) / total
    p_var = float((joint.mass.sum(axis=0) * (ps - p_mean) ** 2).sum()) / total
    # two independent vacuum variances add on each axis
    assert abs(q_var - 2.0 * sigma ** 2) < 1e-3
    assert abs(p_var - 2.0 * (1.0 / (4.0 * sigma ** 2))) < 1e-3


def test_joint_marginals_match_smeared_laws():
    tau = _gauss(sigma=1.0)
    for state in (_gauss(center=1.5, momentum=-1.0, sigma=0.8),
                  MixedState.pure(make_hermite(GRID, 1))):
        qs, ps = _husimi_lattice(GRID, q_half=8.0, p_half=8.0, q_stride=4)
        joint = joint_covariant_distribution(tau, state, qs, ps)
        assert joint.q_marginal_tv < 1e-3
        assert joint.p_marginal_tv < 1e-3


def test_joint_mass_nonnegative():
    tau = _gauss(sigma=1.0)
    qs, ps = _husimi_lattice(GRID)
    joint = joint_covariant_distribution(tau, _gauss(sigma=0.7), qs, ps)
    assert np.all(joint.mass >= 0.0)


def test_joint_narrow_window_raises_accuracy():
    tau = _gauss(sigma=1.0)
    state = _gauss(center=4.0, sigma=0.5)
    qs, ps = _husimi_lattice(GRID, q_half=1.0, p_half=1.0)
    with pytest.raises(AccuracyError):
        joint_covariant_distribution(tau, state, qs, ps)


def test_joint_off_lattice_values_rejected():
    tau = _gauss(sigma=1.0)
    qs = np.array([0.0, 0.3333])
    ps = np.array([0.0, GRID.momentum_step(1.0)])
    with pytest.raises(DomainError):
        joint_covariant_distribution(tau, _gauss(), qs, ps)


@pytest.mark.parametrize("change, message", [
    (lambda qs, ps: {"tau": _gauss(grid=GridSpec.symmetric(16.0, 1024))},
     "tau and state must share one grid"),
    (lambda qs, ps: {"q_values": qs[:1]},
     "need at least two lattice points per axis"),
    (lambda qs, ps: {"p_values": ps[::-1]},
     "lattice values must be strictly increasing"),
    (lambda qs, ps: {"p_values": GRID.momentum_step() * np.array(
        [GRID.n // 2 - 1, GRID.n // 2])},
     "p values fall outside the momentum band"),
    (lambda qs, ps: {"q_values": GRID.dx * np.array([0.0, 1.0, 3.0])},
     "lattice spacing must be uniform"),
], ids=["tau on another grid", "one q point", "decreasing p", "p beyond band",
        "non-uniform q"])
def test_joint_rejects_malformed_inputs(change, message):
    qs, ps = _husimi_lattice(GRID, q_half=1.0, p_half=1.0)
    args = {"tau": _gauss(), "state": _gauss(), "q_values": qs,
            "p_values": ps, **change(qs, ps)}
    with pytest.raises(DomainError, match=message) as caught:
        joint_covariant_distribution(**args)
    assert caught.type is DomainError


# -- moment statistics -------------------------------------------------------------

def test_sharp_moments_of_gaussian():
    stats = moment_stats(SharpPosition(), _gauss(center=1.0, sigma=1.0))
    assert abs(stats.first_moment_mean - 1.0) < 1e-3
    assert abs(stats.second_moment_mean - 2.0) < 1e-3
    assert stats.first_moment_sq_mean == stats.second_moment_mean


def test_point_smearing_has_zero_intrinsic_noise():
    obs = SmearedPosition(point_mass(0.7))
    stats = moment_stats(obs, _gauss(center=0.5, sigma=1.2))
    assert abs(stats.second_moment_mean - stats.first_moment_sq_mean) < 1e-12


def test_gaussian_smearing_noise_is_state_independent():
    s = 0.45
    obs = SmearedPosition(gaussian_measure(0.0, s))
    gaps = []
    for state in (_gauss(sigma=0.5), _gauss(center=2.0, sigma=1.5),
                  MixedState.pure(make_box(GRID, -1.0, 1.0, 2.0)),
                  MixedState.pure(make_hermite(GRID, 2)),
                  builtin_ensemble()[10]):
        st = moment_stats(obs, state)
        gaps.append(st.second_moment_mean - st.first_moment_sq_mean)
    for gap in gaps:
        assert abs(gap - s ** 2) < 1e-6


def test_smeared_momentum_moments():
    obs = SmearedMomentum(gaussian_measure(0.0, 0.3))
    st = moment_stats(obs, _gauss(momentum=2.0, sigma=1.0))
    assert abs(st.first_moment_mean - 2.0) < 1e-3
    assert abs((st.second_moment_mean - st.first_moment_sq_mean) - 0.09) < 1e-6


def test_covariant_marginal_moments_supported():
    obs = CovariantMarginal(_gauss(sigma=1.0), "position")
    st = moment_stats(obs, _gauss(center=1.0, sigma=1.0))
    assert abs(st.first_moment_mean - 1.0) < 1e-3
    assert abs((st.second_moment_mean - st.first_moment_sq_mean) - 1.0) < 1e-3


def test_trivial_moments_rejected():
    with pytest.raises(DomainError):
        moment_stats(TrivialObservable(point_mass(0.0)), _gauss())


def test_pushforward_moments_rejected():
    obs = PushforwardObservable(SharpPosition(), map_from_spec({"kind": "identity"}))
    with pytest.raises(DomainError):
        moment_stats(obs, _gauss())


# -- specs ------------------------------------------------------------------------

def test_observable_spec_round_trip():
    specs = [
        {"kind": "sharp_position"},
        {"kind": "sharp_momentum"},
        {"kind": "smeared_position",
         "measure": {"family": "two_point", "x1": -1.0, "x2": 1.0, "w1": 0.5}},
        {"kind": "trivial",
         "measure": {"family": "point", "at": 2.0}, "axis": "position"},
    ]
    state = _gauss(sigma=0.8)
    for spec in specs:
        obs = observable_from_spec(spec, GRID)
        again = observable_from_spec(observable_to_spec(obs), GRID)
        a = obs.distribution(state)
        b = again.distribution(state)
        assert np.allclose(a.atoms, b.atoms)
        assert np.allclose(a.weights, b.weights)


def test_pushforward_spec_builds():
    spec = {"kind": "pushforward", "inner": {"kind": "sharp_position"},
            "map": {"kind": "cos_shift", "amplitude": 0.5}}
    obs = observable_from_spec(spec, GRID)
    out = obs.distribution(_gauss())
    assert abs(sum(out.weights) - 1.0) < 1e-9


def test_covariant_marginal_spec_builds():
    spec = {"kind": "covariant_marginal", "axis": "momentum",
            "tau": {"family": "gaussian", "center": 0.0, "momentum": 0.0,
                    "sigma": 1.0}}
    obs = observable_from_spec(spec, GRID)
    out = obs.distribution(_gauss(sigma=1.0))
    # sharp momentum variance 0.25 plus nu_tau variance 0.25
    assert abs(std_deviation(out) ** 2 - 0.5) < 1e-3


def test_unknown_specs_rejected():
    with pytest.raises(DomainError):
        observable_from_spec({"kind": "sharp_energy"}, GRID)
    with pytest.raises(DomainError):
        map_from_spec({"kind": "spline"})
    with pytest.raises(DomainError):
        observable_from_spec({"kind": "smeared_position"}, GRID)


def test_stray_spec_keys_rejected():
    with pytest.raises(DomainError, match="unrecognized keys.*'mu'"):
        observable_from_spec(
            {"kind": "smeared_position",
             "measure": {"family": "point", "at": 0.0},
             "mu": {"family": "point", "at": 1.0}}, GRID)
    with pytest.raises(DomainError, match="unrecognized keys"):
        map_from_spec({"kind": "cos_shift", "amplitude": 0.5, "phase": 1.0})


def test_nonserializable_observable_rejected():
    obs = CovariantMarginal(_gauss(), "position")
    with pytest.raises(DomainError):
        observable_to_spec(obs)


def test_wavefunction_and_its_mixture_of_one_agree():
    tau_wf = make_gaussian(GRID, 0.0, 0.0, 1.0)
    state_wf = make_gaussian(GRID, 1.5, -1.0, 0.8)
    tau, state = MixedState.pure(tau_wf), MixedState.pure(state_wf)
    for axis in ("position", "momentum"):
        a = CovariantMarginal(tau_wf, axis).distribution(state_wf)
        b = CovariantMarginal(tau, axis).distribution(state)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.weights, b.weights)
    qs, ps = _husimi_lattice(GRID, q_half=8.0, p_half=8.0, q_stride=4)
    a = joint_covariant_distribution(tau_wf, state_wf, qs, ps)
    b = joint_covariant_distribution(tau, state, qs, ps)
    assert np.array_equal(a.mass, b.mass)
    assert (a.q_marginal_tv, a.p_marginal_tv) == (b.q_marginal_tv,
                                                  b.p_marginal_tv)


# -- covariant margins on the lattice ------------------------------------------

def _lattice_case(grid, hbar, mixed):
    tau = MixedState.pure(make_gaussian(grid, 0.3, -0.2, 1.1, hbar))
    if not mixed:
        return tau, MixedState.pure(make_gaussian(grid, -0.7, 0.4, 0.8, hbar))
    return tau, MixedState(((0.3, make_gaussian(grid, 1.0, 0.5, 0.6, hbar)),
                            (0.7, make_gaussian(grid, -1.5, -0.8, 1.4,
                                                hbar))))


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixture"])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, COVARIANT_GRID, SOLVER_GRID],
                         ids=["default", "covariant", "solver"])
def test_covariant_margins_match_the_binning_convolution(grid, hbar, mixed):
    tau, state = _lattice_case(grid, hbar, mixed)
    # position: every pair sum lands on a bin of the scatter, bit for bit
    obs = CovariantMarginal(tau, "position")
    got = obs.distribution(state, hbar)
    want = convolve(obs.sharp().distribution(state, hbar), obs.smearing(hbar))
    assert np.array_equal(got.atoms, want.atoms)
    assert np.array_equal(got.weights, want.weights)

    # momentum: an independent dense convolution of the two weight vectors
    obs = CovariantMarginal(tau, "momentum")
    got = obs.distribution(state, hbar)
    sharp, smear = obs.sharp().distribution(state, hbar), obs.smearing(hbar)
    dp = grid.momentum_step(hbar)
    lo = sharp.atoms[0] + smear.atoms[0]
    idx = np.rint((got.atoms - lo) / dp).astype(int)
    assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
    assert np.max(np.abs(got.atoms - (lo + dp * idx))) <= 1e-12 * grid.span
    dense = np.convolve(sharp.weights, smear.weights)
    top = float(got.weights.max())
    assert np.max(np.abs(dense[idx] - got.weights)) <= 1e-14 * top
    assert not np.any(np.delete(dense, idx))
    # ... and the scatter, whose bins at the minimum spacing drift off dp
    scatter = convolve(sharp, smear)
    s_idx = np.rint((scatter.atoms - lo) / dp).astype(int)
    shared = np.isin(s_idx, idx)
    assert np.all(np.isin(idx, s_idx))
    assert np.max(np.abs(scatter.weights[shared] - got.weights)) <= 1e-10 * top
    # its spill beyond the lattice law's ends is one more such difference
    extra = s_idx[~shared]
    assert np.all((extra < idx[0]) | (extra > idx[-1]))
    assert scatter.weights[~shared].sum() <= 1e-10 * top


def test_other_grid_and_fixed_noise_go_through_convolve(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return convolve(a, b)

    monkeypatch.setattr(observables, "convolve", spy)
    state = _gauss(center=0.5, sigma=0.8)
    # a generator on another grid: its smearing is not on the state's lattice
    for axis in ("position", "momentum"):
        obs = CovariantMarginal(_gauss(sigma=1.2, grid=SOLVER_GRID), axis)
        got = obs.distribution(state)
        want = convolve(obs.sharp().distribution(state), obs.smearing())
        assert np.array_equal(got.atoms, want.atoms)
        assert np.array_equal(got.weights, want.weights)
    assert len(calls) == 2
    # a fixed noise measure, even one on the lattice
    for obs in (SmearedPosition(two_point(-1.0, 3.0)),
                SmearedMomentum(gaussian_measure(0.0, 0.5))):
        got = obs.distribution(state)
        a, b = calls[-1]
        assert b is obs.noise
        want = convolve(a, b)
        assert np.array_equal(got.weights, want.weights)
    assert len(calls) == 4
    # a generator on the state's grid too: convolve finds the shared lattice
    CovariantMarginal(_gauss(), "momentum").distribution(state)
    assert len(calls) == 5


# -- joint margin check: the mini-cell CDF -----------------------------------------

def _binned_tvs(masses, centers, step, ref):
    return (observables._binned_tv(masses, centers, step, ref),
            binned_tv_reference(masses, centers, step, ref))


@pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("axis", ["position", "momentum"])
def test_binned_tv_matches_the_per_edge_cdf_on_lattice_laws(axis, stride):
    # a convolved margin on the lattice of its axis, from the sum of two
    # Born-law lattices, with zero weights inside its support
    step = GRID.dx if axis == "position" else GRID.momentum_step(1.0)
    lo = 2.0 * (GRID.x0 if axis == "position" else -step * (GRID.n // 2))
    k0 = int(round(-lo / step))
    rng = np.random.default_rng(stride)
    weights = rng.random(81)
    weights[[3, 20, 21, 57]] = 0.0
    ref = GridMeasure(lo + step * np.arange(k0 - 40, k0 + 41),
                      weights / weights.sum())
    # window edges on atoms and on half-cells: by the parity of the stride
    # times the offset of the centers
    for offset in (0.0, 0.5):
        centers = step * (offset + stride * np.arange(-6, 7))
        masses = 0.97 * rng.dirichlet(np.ones(centers.size))
        got, want = _binned_tvs(masses, centers, stride * step, ref)
        assert abs(got - want) <= 1e-15


def test_binned_tv_matches_the_per_edge_cdf_on_irregular_atoms():
    rng = np.random.default_rng(11)
    for _ in range(40):
        gaps = rng.uniform(0.05, 0.3, 60)
        gaps[rng.choice(60, 4, replace=False)] *= 25.0
        weights = rng.random(61)
        weights[rng.random(61) < 0.1] = 0.0
        weights[0] = 1.0
        ref = GridMeasure(-5.0 + np.concatenate([[0.0], np.cumsum(gaps)]),
                          weights / weights.sum())
        step = rng.uniform(0.05, 1.5)
        centers = ref.atoms[0] + step * np.arange(int(rng.integers(2, 80)))
        masses = rng.dirichlet(np.ones(centers.size))
        got, want = _binned_tvs(masses, centers, step, ref)
        assert abs(got - want) <= 1e-12


def test_binned_tv_keeps_the_jump_of_a_one_atom_law():
    # the atom sits on the edge between the first two windows; the
    # right-continuous cdf puts it wholly in the first
    ref = point_mass(0.5)
    centers = np.array([0.0, 1.0, 2.0])
    for masses, tv in (([1.0, 0.0, 0.0], 0.0), ([0.5, 0.5, 0.0], 0.5),
                       ([0.0, 0.0, 1.0], 1.0)):
        assert _binned_tvs(np.array(masses), centers, 1.0, ref) == (tv, tv)
    assert _binned_tvs(np.zeros(3), centers + 5.0, 1.0, ref) == (1.0, 1.0)


def test_joint_of_two_cells_checks_a_one_atom_position_margin():
    tau = state_from_spec({"family": "cell", "center": 0.0}, GRID)
    state = state_from_spec({"family": "cell", "center": 0.5}, GRID)
    assert len(CovariantMarginal(tau, "position").distribution(state)) == 1
    qs, ps = _husimi_lattice(GRID)
    with pytest.raises(AccuracyError, match=r"by TV 9\.704e-01 > 1\.0e-02"):
        joint_covariant_distribution(tau, state, qs, ps)


# -- joint margin check: against the full smeared law --------------------------

def _lattice_law(rng, grid, axis, live):
    # a law on every point of the axis lattice, positive on `live` random
    # points only (so interior zeros unless live is the whole lattice)
    points, _ = grid.lattice(axis)
    weights = np.zeros(points.size)
    weights[rng.choice(points.size, live, replace=False)] = rng.random(live)
    return GridMeasure(points, weights / weights.sum())


def _full_law_tvs(masses, centers, window, law, smear, step):
    # the smeared law as `convolve` builds it, and as the dense reference
    return (observables._binned_tv(masses, centers, window,
                                   convolve(law, smear)),
            binned_tv_reference(masses, centers, window,
                                lattice_convolve_reference(law, smear, step)))


@pytest.mark.parametrize("axis", ["position", "momentum"])
def test_edge_cdf_tv_matches_the_full_smeared_law(axis):
    grid = GridSpec.symmetric(4.0, 64)
    _, step = grid.lattice(axis)
    rng = np.random.default_rng(7)
    for live_law, live_smear in ((64, 64), (40, 9), (1, 30), (17, 1), (1, 1)):
        law = _lattice_law(rng, grid, axis, live_law)
        smear = _lattice_law(rng, grid, axis, live_smear)
        for stride in (1, 2, 3, 4, 7):
            # edges on atoms or on half-cells, by the parity of the stride
            # and the offset; windows inside, straddling and past the
            # support of the sum (which spans twice the lattice)
            for offset in (0.0, 0.5):
                for start in (-40, -3 * stride - 5, 20, 90, -200):
                    k = np.arange(start, start + 9)
                    centers = step * (offset + stride * k)
                    masses = 0.9 * rng.dirichlet(np.ones(centers.size))
                    got, want = _full_law_tvs(masses, centers,
                                              stride * step, law, smear,
                                              step)
                    assert abs(got - want) <= 1e-13


def test_edge_cdf_tv_keeps_the_jump_of_two_one_atom_laws():
    grid = GridSpec.symmetric(4.0, 64)
    points, step = grid.lattice("position")
    law = GridMeasure(points, np.eye(points.size)[40])
    smear = GridMeasure(points, np.eye(points.size)[30])
    # the one atom of the sum sits on the edge between the first two windows
    at = points[40] + points[30]
    centers = at + step * np.array([-0.5, 0.5, 1.5])
    for masses, tv in (([1.0, 0.0, 0.0], 0.0), ([0.5, 0.5, 0.0], 0.5),
                       ([0.0, 1.0, 0.0], 1.0)):
        got, want = _full_law_tvs(np.array(masses), centers, step, law,
                                  smear, step)
        assert got == tv == want


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixture"])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, COVARIANT_GRID, SOLVER_GRID],
                         ids=["default", "covariant", "solver"])
def test_joint_margin_tvs_match_the_full_law_reference(grid, hbar, mixed):
    tau, state = _lattice_case(grid, hbar, mixed)
    for q_stride in range(1, 9):
        qs, ps = _husimi_lattice(grid, hbar, q_half=6.0, p_half=5.0 * hbar,
                                 q_stride=q_stride)
        joint = joint_covariant_distribution(tau, state, qs, ps, hbar)
        want = joint_margin_tv_reference(tau, state, joint, hbar)
        assert abs(joint.q_marginal_tv - want[0]) <= 1e-13
        assert abs(joint.p_marginal_tv - want[1]) <= 1e-13


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixture"])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, COVARIANT_GRID, SOLVER_GRID],
                         ids=["default", "covariant", "solver"])
def test_joint_masses_match_the_shifted_spectrum_reference(grid, hbar, mixed):
    tau, state = _lattice_case(grid, hbar, mixed)
    for q_stride in range(1, 9):
        qs, ps = _husimi_lattice(grid, hbar, q_half=6.0, p_half=5.0 * hbar,
                                 q_stride=q_stride)
        joint = joint_covariant_distribution(tau, state, qs, ps, hbar)
        assert np.array_equal(joint.mass,
                              joint_mass_reference(tau, state, qs, ps, hbar))


_SMALL_GRID = GridSpec.symmetric(4.0, 64)


def _two_by_two_mixture(grid):
    tau = MixedState(((0.4, make_gaussian(grid, 0.5, 0.7, 0.6)),
                      (0.6, make_gaussian(grid, -1.0, -0.3, 0.9))))
    state = MixedState(((0.25, make_gaussian(grid, -0.8, 1.1, 0.5)),
                        (0.75, make_gaussian(grid, 1.2, -0.6, 1.1))))
    return tau, state


# q lattices in cells: counts 2, 3, 5 and 129 (none a multiple of the
# 4-row FFT block), shifts of 0, +-1 and +-n cells, rows all out of overlap
@pytest.mark.parametrize("cells", [
    (0, 1), (-1, 0, 1), (-64, 64), (-64, 0, 64), (63, 64),
    (-64, -32, 0, 32, 64), (-5, -4, -3, -2, -1), tuple(range(-64, 65))],
    ids=["2-at-0", "3-at-0", "2-at-n", "3-at-n", "2-to-n", "5-to-n",
         "5-below-0", "129-all"])
def test_joint_blocks_match_the_row_loop_reference(monkeypatch, cells):
    # masses bit for bit, whatever the margins: the TV check is off
    monkeypatch.setattr(observables, "_JOINT_TV_TOL", math.inf)
    grid = _SMALL_GRID
    tau, state = _two_by_two_mixture(grid)
    qs = grid.dx * np.array(cells, dtype=float)
    ps = grid.momentum_points()[8:57]
    joint = joint_covariant_distribution(tau, state, qs, ps)
    assert np.array_equal(joint.mass,
                          joint_mass_reference(tau, state, qs, ps))


def _live_span_cases(grid):
    # a state live up to both grid ends, and a mixture whose components are
    # live on different spans (the full grid first, then two boxes)
    wide = MixedState.pure(make_gaussian(grid, 0.3, 0.9, 1.5))
    staggered = MixedState(((0.3, make_gaussian(grid, 0.2, 0.4, 0.7)),
                            (0.2, make_box(grid, -2.0, 1.5, 1.0)),
                            (0.5, make_box(grid, 1.0, 2.5, -0.5))))
    return {"live-to-both-ends": wide, "staggered-spans": staggered}


@pytest.mark.parametrize("cells", [(-64, 0, 64), (-5, -4, -3, -2, -1),
                                   tuple(range(-64, 65))],
                         ids=["3-at-n", "5-below-0", "129-all"])
@pytest.mark.parametrize("case", ["live-to-both-ends", "staggered-spans"])
def test_joint_live_spans_match_the_row_loop_reference(monkeypatch, case,
                                                       cells):
    monkeypatch.setattr(observables, "_JOINT_TV_TOL", math.inf)
    grid = _SMALL_GRID
    tau, _ = _two_by_two_mixture(grid)
    state = _live_span_cases(grid)[case]
    spans = {(int(live[0]), int(live[-1]) + 1) for live in
             (np.flatnonzero(wf.amplitudes) for _, wf in state.components)}
    assert spans == ({(0, grid.n)} if case == "live-to-both-ends"
                     else {(0, grid.n), (10, 23), (30, 51)})
    qs = grid.dx * np.array(cells, dtype=float)
    ps = grid.momentum_points()[8:57]
    joint = joint_covariant_distribution(tau, state, qs, ps)
    assert np.array_equal(joint.mass,
                          joint_mass_reference(tau, state, qs, ps))


def test_joint_shift_by_the_grid_length_gives_zero_rows(monkeypatch):
    monkeypatch.setattr(observables, "_JOINT_TV_TOL", math.inf)
    tau, state = _two_by_two_mixture(_SMALL_GRID)
    qs = _SMALL_GRID.dx * np.array([-64.0, 0.0, 64.0])
    joint = joint_covariant_distribution(tau, state, qs,
                                         _SMALL_GRID.momentum_points())
    assert not joint.mass[[0, 2]].any() and joint.mass[1].any()


@pytest.mark.parametrize("cells", [(70, 71), (-77, -76), (0, 65), (-65, 0)])
def test_joint_rejects_q_values_beyond_the_grid(cells):
    tau, state = _two_by_two_mixture(_SMALL_GRID)
    qs = _SMALL_GRID.dx * np.array(cells, dtype=float)
    with pytest.raises(DomainError, match="q values fall outside the grid"):
        joint_covariant_distribution(tau, state, qs,
                                     _SMALL_GRID.momentum_points())


def _assert_margin_tvs_bin_the_margin_laws(tau, state, joint, hbar=1.0):
    # binned in the windows the joint law uses, its first lattice gap (not
    # stride * step, which can differ from it by an ulp)
    for axis, masses, values, tv in (
            ("position", joint.mass.sum(axis=1), joint.q_values,
             joint.q_marginal_tv),
            ("momentum", joint.mass.sum(axis=0), joint.p_values,
             joint.p_marginal_tv)):
        law = CovariantMarginal(tau, axis).distribution(state, hbar)
        assert tv == observables._binned_tv(masses, values,
                                            values[1] - values[0], law)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixture"])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, COVARIANT_GRID, SOLVER_GRID],
                         ids=["default", "covariant", "solver"])
def test_joint_margin_tvs_bin_the_margin_laws(grid, hbar, mixed):
    tau, state = _lattice_case(grid, hbar, mixed)
    for q_stride in range(1, 9):
        qs, ps = _husimi_lattice(grid, hbar, q_half=6.0, p_half=5.0 * hbar,
                                 q_stride=q_stride)
        joint = joint_covariant_distribution(tau, state, qs, ps, hbar)
        _assert_margin_tvs_bin_the_margin_laws(tau, state, joint, hbar)


def test_joint_margin_tvs_of_a_gaussian_pair_bin_the_margin_laws():
    tau, state = _gauss(), _gauss(center=1.5)
    qs, ps = _husimi_lattice(GRID, q_half=8.0, p_half=8.0, q_stride=4)
    joint = joint_covariant_distribution(tau, state, qs, ps)
    _assert_margin_tvs_bin_the_margin_laws(tau, state, joint)
    assert max(joint.q_marginal_tv, joint.p_marginal_tv) < 1e-3


# -- every law of a state is kept on the state -----------------------------------

def _count_convolutions(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(observables, "convolve", spy)
    return calls


def _assert_same_law(a, b):
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixture"])
@pytest.mark.parametrize("hbar", [1.0, 2.5])
def test_margin_laws_after_the_joint_law_equal_fresh_ones(monkeypatch, hbar,
                                                          mixed):
    tau, state = _lattice_case(DEFAULT_GRID, hbar, mixed)
    qs, ps = _husimi_lattice(DEFAULT_GRID, hbar, q_half=6.0, p_half=5.0 * hbar)
    joint_covariant_distribution(tau, state, qs, ps, hbar)
    calls = _count_convolutions(monkeypatch)
    kept = {axis: CovariantMarginal(tau, axis).distribution(state, hbar)
            for axis in ("position", "momentum")}
    assert calls == []

    # one key component changed at a time: each computes its law afresh,
    # equal to the kept law at the same hbar, and keeps it in turn
    for axis in ("position", "momentum"):
        for g, s, h in ((tau, MixedState(state.components), hbar),
                        (MixedState(tau.components), state, hbar),
                        (tau, state, 2.0 * hbar)):
            before = len(calls)
            law = CovariantMarginal(g, axis).distribution(s, h)
            assert len(calls) == before + 1
            if h == hbar:
                _assert_same_law(law, kept[axis])
            assert CovariantMarginal(g, axis).distribution(s, h) is law
    assert len(calls) == 6
    # other keys evict nothing
    for axis, law in kept.items():
        assert CovariantMarginal(tau, axis).distribution(state, hbar) is law
    # a fixed noise measure takes the same path; an equal but distinct
    # measure is another key
    noisy = SmearedPosition(two_point(-1.0, 3.0))
    first = noisy.distribution(state, hbar)
    assert noisy.distribution(state, hbar) is first
    _assert_same_law(first, SmearedPosition(two_point(-1.0, 3.0)).distribution(
        state, hbar))
    assert len(calls) == 8


def test_the_phase_space_pass_computes_each_born_law_once(monkeypatch):
    # one generator/state pair in the order of the benchmark's phase-space
    # pass (perfbench/phase_space.py, run_pass): the joint law, then both
    # margins with the sharp laws and smearings they are checked against,
    # then the generator's position law.  Each Born law is computed once:
    # of the state and of the reflected generator on both axes, and of the
    # generator on the position axis
    computed = []
    drop = states._drop_round_off

    def counting(weights):
        computed.append(weights.size)
        return drop(weights)

    monkeypatch.setattr(states, "_drop_round_off", counting)
    grid = COVARIANT_GRID
    tau = make_gaussian(grid, 0.4, -0.3, 1.0)
    state = weyl_translate(make_gaussian(grid, 0.0, 0.0, 0.8),
                           PhasePoint(1.3, 0.7))
    dp = grid.momentum_step()
    qs = 4.0 * grid.dx * (np.arange(129) - 64 + round(0.9 / (4.0 * grid.dx)))
    ps = dp * (np.arange(201) - 100 + round(1.0 / dp))
    joint_covariant_distribution(tau, state, qs, ps)
    position_distribution(state)
    for axis in ("position", "momentum"):
        marginal = CovariantMarginal(tau, axis)
        marginal.distribution(state)
        if axis == "momentum":
            momentum_distribution(state)
        marginal.smearing()
    position_distribution(tau)
    assert computed == [grid.n] * 5


def test_kept_laws_are_freed_with_their_state():
    tau = _gauss(sigma=0.9)
    state = _gauss(center=1.0, sigma=0.6)
    laws = [position_distribution(state), momentum_distribution(state, 2.0),
            parity(state), CovariantMarginal(tau, "momentum").distribution(state),
            SmearedPosition(two_point(-1.0, 3.0)).distribution(state)]
    # no module keeps a store that holds the state
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "quncert":
            for value in vars(module).values():
                if isinstance(value, Mapping):
                    assert not any(part is state for key in list(value)
                                   for part in (key if isinstance(key, tuple)
                                                else (key,))), name
    refs = [weakref.ref(x) for x in (state, *laws)]
    del state, laws
    # refcounts alone free them: the kept laws make no cycle
    assert all(ref() is None for ref in refs)


def test_a_kept_law_is_the_same_read_only_object_on_every_call():
    tau = _gauss(sigma=0.9)
    state = _gauss(center=1.0, sigma=0.6)
    for get in (lambda: position_distribution(state),
                lambda: momentum_distribution(state),
                lambda: momentum_distribution(state, 2.5),
                lambda: CovariantMarginal(tau, "position").distribution(state),
                lambda: CovariantMarginal(tau, "momentum").smearing(2.5),
                lambda: SharpMomentum().distribution(state, 2.5)):
        law = get()
        assert get() is law
        for values in (law.atoms, law.weights):
            with pytest.raises(ValueError):
                values[0] = 0.0
    # each hbar keeps its own momentum law
    assert momentum_distribution(state) is not momentum_distribution(state, 2.5)
    assert not np.array_equal(momentum_distribution(state).atoms,
                              momentum_distribution(state, 2.5).atoms)
    reflected = parity(state)
    assert parity(state) is reflected
    for _, wf in reflected.components:
        assert not wf.amplitudes.flags.writeable


# -- trivial devices ignore the state -------------------------------------------

def test_pushforward_of_a_trivial_device_computes_no_born_law(monkeypatch):
    state = _gauss()
    obs = PushforwardObservable(TrivialObservable(point_mass(0.5)),
                                map_from_spec({"kind": "cos_shift",
                                               "amplitude": 0.3}))
    want = obs.from_law(position_distribution(state), 1.0)
    calls = []

    def spy(*args):
        calls.append(args)
        return position_distribution(*args)

    monkeypatch.setattr(observables, "position_distribution", spy)
    got = obs.distribution(state)
    assert calls == []
    assert np.array_equal(got.atoms, want.atoms)
    assert np.array_equal(got.weights, want.weights)


def test_trivial_device_computes_no_born_law(monkeypatch):
    grid = GridSpec(-16.0, 0.0625, 512)
    cfg = default_probe_config(grid, 0.1)
    # a position-axis device shares the probe's position law (from_law);
    # a momentum-axis one is asked for its law of the probe state
    want = error_bar_width(TrivialObservable(point_mass(0.5), "position"),
                           SharpPosition(), cfg, grid)
    calls = []

    def spy(*args):
        calls.append(args)
        return momentum_distribution(*args)

    monkeypatch.setattr(observables, "momentum_distribution", spy)
    got = error_bar_width(TrivialObservable(point_mass(0.5), "momentum"),
                          SharpPosition(), cfg, grid)
    assert calls == []
    assert (got.value, got.witness, got.trace) == (want.value, want.witness,
                                                   want.trace)

