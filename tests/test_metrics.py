"""Error functionals: observable distance, error bars, resolution, noise."""

import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from quncert import observables
from quncert.exceptions import DomainError, InternalError
from quncert.measures import (convolve, gaussian_measure, overall_width,
                              point_mass, translate, two_point,
                              uniform_measure)
from quncert.metrics import (ProbeConfig, WidthEstimate, bias, bias_free_error,
                             default_probe_config, delta1_smeared_closed_form,
                             delta_alpha_smeared_closed_form, error_bar_width,
                             global_noise_error, gross_bias_free_error,
                             gross_error_bar_width, min_centered_window,
                             noise_based_error, observable_distance,
                             pushforward_delta1_closed_form, resolution_width)
from quncert.observables import (CovariantMarginal, PushforwardObservable,
                                 SharpMomentum, SharpPosition, SmearedPosition,
                                 TrivialObservable, map_from_spec)
from quncert.observables import (Sharp, Smeared, SmearedMomentum,
                                 covariant_marginals)
from quncert.states import (COVARIANT_GRID, DEFAULT_GRID, GridSpec,
                            MixedState, make_box, make_gaussian,
                            momentum_distribution)
from quncert.states import test_ensemble as builtin_ensemble
import oracles
from conftest import random_measure
from quncert.exceptions import QuncertError
from quncert.metrics import _localized_probes, _worst
from quncert.metrics import divergence_cutoff

GRID = GridSpec.symmetric(16.0, 512)
DX = GRID.dx


def _cfg(eps=0.1, delta=None, **kw):
    return default_probe_config(GRID, eps, delta=delta, **kw)


def _localized_ensemble():
    return [MixedState.pure(make_box(GRID, c, 4.0 * DX, 0.0))
            for c in (0.0, 1.5, -2.25)]


# -- ProbeConfig / WidthEstimate invariants -----------------------------------

def test_probe_config_validation():
    with pytest.raises(DomainError):
        ProbeConfig(x_samples=(0.0,), delta=1.0, eps=0.0)
    with pytest.raises(DomainError):
        ProbeConfig(x_samples=(0.0,), delta=1.0, eps=1.0)
    with pytest.raises(DomainError):
        ProbeConfig(x_samples=(0.0,), delta=-1.0, eps=0.1)
    with pytest.raises(DomainError):
        ProbeConfig(x_samples=(), delta=1.0, eps=0.1)


def test_probe_config_seed_is_keyword_only():
    # a fourth positional argument once set the probe count, not the seed
    with pytest.raises(TypeError):
        ProbeConfig((0.0,), 1.0, 0.1, 5)
    assert ProbeConfig((0.0,), 1.0, 0.1, seed=5).seed == 5


def test_delta_below_two_cells_rejected():
    cfg = _cfg(delta=DX)
    with pytest.raises(DomainError):
        error_bar_width(SharpPosition(), SharpPosition(), cfg, GRID)


def test_infinite_flag_implies_value_above_cutoff():
    est = observable_distance(TrivialObservable(point_mass(0.0)),
                              SharpPosition(), 1.0, _localized_ensemble())
    assert est.infinite_flag
    assert est.value >= 0.4 * GRID.span


# -- min_centered_window --------------------------------------------------------

def test_min_centered_window_quantiles():
    m = two_point(0.0, 3.0, 0.6)
    assert min_centered_window(m, 0.0, 0.5) == 0.0
    assert min_centered_window(m, 0.0, 0.3) == 6.0
    with pytest.raises(DomainError):
        min_centered_window(m, 0.0, 1.0)
    with pytest.raises(DomainError):
        min_centered_window(m, math.inf, 0.5)


# -- observable distance ----------------------------------------------------------

def test_distance_of_observable_to_itself_is_zero():
    obs = SmearedPosition(gaussian_measure(0.0, 0.5, n_atoms=201,
                                           half_width=6.0))
    est = observable_distance(obs, obs, 1.0, _localized_ensemble())
    assert est.value == 0.0
    assert est.is_lower_bound
    assert not est.infinite_flag


def test_point_smearing_distance_is_offset():
    a = 0.8
    est = observable_distance(SmearedPosition(point_mass(a)), SharpPosition(),
                              1.0, _localized_ensemble())
    assert abs(est.value - a) <= DX


def test_trivial_observable_distance_flagged_infinite():
    est = observable_distance(TrivialObservable(point_mass(0.0)),
                              SharpPosition(), 1.0, _localized_ensemble())
    assert est.infinite_flag


def test_distance_needs_probes():
    with pytest.raises(DomainError):
        observable_distance(SharpPosition(), SharpPosition(), 1.0, [])


# -- closed forms ------------------------------------------------------------------

def test_delta1_closed_forms():
    assert delta1_smeared_closed_form(point_mass(-2.5)) == 2.5
    assert abs(delta1_smeared_closed_form(two_point(-1.0, 1.0, 0.5)) - 1.0) < 1e-12
    sigma = 0.6
    mu = gaussian_measure(0.0, sigma)
    assert abs(delta1_smeared_closed_form(mu)
               - sigma * math.sqrt(2.0 / math.pi)) < 1e-4


def test_delta_alpha_closed_form():
    mu = two_point(-1.0, 1.0, 0.5)
    for alpha in (1.0, 2.0, 3.0):
        assert abs(delta_alpha_smeared_closed_form(mu, alpha) - 1.0) < 1e-12
    assert abs(delta_alpha_smeared_closed_form(point_mass(0.3), 2.0) - 0.3) < 1e-12
    with pytest.raises(DomainError):
        delta_alpha_smeared_closed_form(mu, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_delta_alpha_closed_form_at_large_alpha_matches_log_space():
    cases = [(gaussian_measure(0.0, 1.0), 400.0),
             (two_point(-1e-3, 1e-3), 400.0),
             (two_point(-3.0, 5.0, 0.5), 400.0)]
    tau = make_gaussian(COVARIANT_GRID, 0.0, 0.0, 1.0)
    # the Born floor leaves exact zeros at |q| ** 200 beyond the float range
    cases += [(mu, 200.0) for mu in covariant_marginals(tau)]
    for mu, alpha in cases:
        got = delta_alpha_smeared_closed_form(mu, alpha)
        assert math.isfinite(got) and got > 0.0
        want = oracles.log_alpha_norm(mu.atoms, mu.weights, alpha)
        assert got == pytest.approx(want, rel=1e-13)
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            delta_alpha_smeared_closed_form(two_point(-3.0, 5.0, 0.5), alpha)


def test_delta_alpha_closed_form_is_the_plain_sum_where_nothing_scales(rng):
    for _ in range(50):
        mu = random_measure(rng, max_atoms=40)
        plain = float(np.sum(mu.weights * np.abs(mu.atoms)))
        assert delta1_smeared_closed_form(mu) == plain
        for alpha in (1.0, 1.5, 2.0, 3.0, 8.0):
            want = float(np.sum(mu.weights * np.abs(mu.atoms) ** alpha)) \
                ** (1.0 / alpha)
            assert delta_alpha_smeared_closed_form(mu, alpha) == want


def test_pushforward_delta1_closed_form():
    assert pushforward_delta1_closed_form(0.5) == 0.5
    assert pushforward_delta1_closed_form(0.0) == 0.0
    with pytest.raises(DomainError):
        pushforward_delta1_closed_form(-1.0)


def test_cos_perturbation_estimator_near_closed_form():
    bent = PushforwardObservable(SharpPosition(),
                                 map_from_spec({"kind": "cos_shift",
                                                "amplitude": 0.5}))
    # probes at the cos extremum x=0 witness almost the full sup-norm
    ensemble = [MixedState.pure(make_box(GRID, 0.0, 4.0 * DX, 0.0))]
    est = observable_distance(bent, SharpPosition(), 1.0, ensemble)
    assert est.value >= 0.49
    assert est.value <= pushforward_delta1_closed_form(0.5) + 1e-9
    assert est.is_lower_bound


# -- error-bar widths ---------------------------------------------------------------

def test_sharp_approximating_itself_stays_within_delta():
    cfg = _cfg(eps=0.1, delta=8.0 * DX)
    est = error_bar_width(SharpPosition(), SharpPosition(), cfg, GRID)
    assert est.value <= cfg.delta + 1e-12
    assert est.is_lower_bound


def test_sharp_momentum_error_bar_within_delta():
    dp = GRID.momentum_step(1.0)
    cfg = ProbeConfig(x_samples=(0.0, 3.0 * dp), delta=4.0 * dp, eps=0.1)
    est = error_bar_width(SharpMomentum(), SharpMomentum(), cfg, GRID)
    assert est.value <= cfg.delta + 1e-12


def test_point_smearing_gross_width_is_twice_offset():
    a = 1.25
    est = gross_error_bar_width(SmearedPosition(point_mass(a)),
                                SharpPosition(), _cfg(eps=0.1), GRID)
    assert abs(est.value - 2.0 * a) <= 2.0 * DX


def test_bounded_readout_has_infinite_error_bars():
    bounded = PushforwardObservable(
        SharpPosition(), map_from_spec({"kind": "bounded_range",
                                        "half_range": 2.0}))
    est = error_bar_width(bounded, SharpPosition(), _cfg(eps=0.1), GRID)
    assert est.infinite_flag
    assert est.value > 0.4 * GRID.span


def test_bias_free_error_of_smeared_is_smearing_width():
    mu = uniform_measure(-0.5, 0.5, 201)
    est = gross_bias_free_error(SmearedPosition(mu), SharpPosition(),
                                _cfg(eps=0.1), GRID)
    assert abs(est.value - overall_width(mu, 0.1)) <= 2.0 * DX


def test_bias_free_error_of_point_smearing_vanishes():
    est = gross_bias_free_error(SmearedPosition(point_mass(1.25)),
                                SharpPosition(), _cfg(eps=0.1), GRID)
    assert est.value <= 2.0 * DX


def test_bias_free_error_of_sharp_within_delta():
    cfg = _cfg(eps=0.1, delta=6.0 * DX)
    est = bias_free_error(SharpPosition(), SharpPosition(), cfg, GRID)
    assert est.value <= cfg.delta + 1e-12


def test_bias_of_point_smearing():
    a = 1.25
    b = bias(SmearedPosition(point_mass(a)), SharpPosition(),
             _cfg(eps=0.1, delta=2.0 * DX), GRID)
    assert abs(b - 2.0 * a) <= 4.0 * DX


def test_bias_of_symmetric_smearing_vanishes():
    mu = gaussian_measure(0.0, 0.5, n_atoms=201, half_width=6.0)
    b = bias(SmearedPosition(mu), SharpPosition(),
             _cfg(eps=0.1, delta=2.0 * DX), GRID)
    assert abs(b) <= 4.0 * DX


def test_bias_of_exact_device_bounded_by_delta():
    cfg = _cfg(eps=0.1, delta=4.0 * DX)
    b = bias(SharpPosition(), SharpPosition(), cfg, GRID)
    assert abs(b) <= 2.0 * cfg.delta


def test_bias_rejects_infinite_error_bars():
    bounded = PushforwardObservable(
        SharpPosition(), map_from_spec({"kind": "bounded_range",
                                        "half_range": 2.0}))
    with pytest.raises(DomainError):
        bias(bounded, SharpPosition(), _cfg(eps=0.1), GRID)


# -- resolution width ---------------------------------------------------------------

def test_sharp_resolution_is_zero():
    est = resolution_width(SharpPosition(), 0.1, GRID, method="probes")
    assert est.value == 0.0
    assert not est.is_lower_bound


def test_uniform_smearing_resolution():
    mu = uniform_measure(-0.5, 0.5, 201)
    est = resolution_width(SmearedPosition(mu), 0.1, GRID)
    assert abs(est.value - 0.9) <= 2.0 * DX
    probed = resolution_width(SmearedPosition(mu), 0.1, GRID, method="probes")
    assert probed.value <= est.value + 2.0 * DX
    assert probed.value >= est.value - 1e-9


def test_covariant_marginal_resolution_closed_form():
    tau = MixedState.pure(make_gaussian(GRID, 0.0, 0.0, 1.0))
    obs = CovariantMarginal(tau, "position")
    est = resolution_width(obs, 0.05, GRID)
    assert est.value == overall_width(obs.smearing(), 0.05)


def test_resolution_closed_form_needs_smearing():
    with pytest.raises(DomainError):
        resolution_width(SharpPosition(), 0.1, GRID, method="closed_form")
    with pytest.raises(DomainError):
        resolution_width(SharpPosition(), 1.5, GRID)


# -- ordering, monotonicity, connections -----------------------------------------

def test_ordering_chain_for_smeared_instance():
    mu = uniform_measure(-0.5, 0.5, 201)
    obs = SmearedPosition(mu)
    eps = 0.1
    res = resolution_width(obs, eps, GRID).value
    cfg = _cfg(eps=eps)
    free = gross_bias_free_error(obs, SharpPosition(), cfg, GRID).value
    gross = gross_error_bar_width(obs, SharpPosition(), cfg, GRID).value
    assert abs(res - free) <= 2.0 * DX
    assert gross >= free - 2.0 * cfg.bisection_tol
    assert bias(obs, SharpPosition(), cfg, GRID) >= -2.0 * cfg.bisection_tol


def test_eps_monotonicity_of_error_bar():
    obs = SmearedPosition(gaussian_measure(0.0, 0.5, n_atoms=201,
                                           half_width=6.0))
    widths = [error_bar_width(obs, SharpPosition(), _cfg(eps=e), GRID).value
              for e in (0.05, 0.1, 0.2, 0.3, 0.4)]
    for lo, hi in zip(widths[1:], widths[:-1]):
        assert lo <= hi + 1e-9


def test_delta_monotonicity_of_error_bar():
    obs = SmearedPosition(gaussian_measure(0.0, 0.5, n_atoms=201,
                                           half_width=6.0))
    widths = [error_bar_width(obs, SharpPosition(),
                              _cfg(eps=0.1, delta=k * DX), GRID).value
              for k in (2, 4, 8)]
    for small, large in zip(widths[:-1], widths[1:]):
        assert large >= small - 1e-9


def test_gross_trace_is_monotone_delta_sweep():
    obs = SmearedPosition(gaussian_measure(0.0, 0.5, n_atoms=201,
                                           half_width=6.0))
    est = gross_error_bar_width(obs, SharpPosition(), _cfg(eps=0.1), GRID)
    deltas = [row["delta"] for row in est.trace]
    widths = [row["width"] for row in est.trace]
    assert deltas == sorted(deltas, reverse=True)
    for later, earlier in zip(widths[1:], widths[:-1]):
        assert later <= earlier + 1e-9


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_width_distance_connection(alpha):
    eps = 0.1
    for mu in (gaussian_measure(0.0, 0.5, n_atoms=201, half_width=6.0),
               uniform_measure(-1.0, 1.0, 101),
               two_point(-0.5, 1.5, 0.3)):
        gross = gross_error_bar_width(SmearedPosition(mu), SharpPosition(),
                                      _cfg(eps=eps), GRID).value
        dist = delta_alpha_smeared_closed_form(mu, alpha)
        assert gross <= (2.0 / eps ** (1.0 / alpha)) * dist + 4.0 * DX


def test_width_noise_connection():
    eps = 0.1
    for mu in (gaussian_measure(0.3, 0.5, n_atoms=201, half_width=6.0),
               uniform_measure(-1.0, 1.0, 101),
               two_point(-0.5, 1.5, 0.3)):
        gross = gross_error_bar_width(SmearedPosition(mu), SharpPosition(),
                                      _cfg(eps=eps), GRID).value
        noise = math.sqrt(float(np.sum(mu.weights * mu.atoms ** 2)))
        assert gross <= 2.0 * noise * (1.0 + math.sqrt(2.0 / eps)) + 4.0 * DX


def test_widths_invariant_under_probe_center_shift():
    obs = SmearedPosition(gaussian_measure(0.0, 0.5, n_atoms=201,
                                           half_width=6.0))
    # a shift by k whole cells with the seed lowered by k translates every
    # probe, the random ones too (their seed adds the centre's cell index)
    k = 83
    base = ProbeConfig(x_samples=(-3.0, 0.0, 2.0), delta=4.0 * DX, eps=0.1,
                       seed=1000)
    shifted = ProbeConfig(x_samples=tuple(x + k * DX for x in base.x_samples),
                          delta=base.delta, eps=base.eps, seed=base.seed - k)
    for fn in (error_bar_width, bias_free_error):
        a = fn(obs, SharpPosition(), base, GRID).value
        b = fn(obs, SharpPosition(), shifted, GRID).value
        assert abs(a - b) <= DX


def test_floating_widths_invariant_under_smearing_shift():
    mu = gaussian_measure(0.0, 0.5, n_atoms=201, half_width=6.0)
    moved = translate(mu, 1.7)
    cfg = _cfg(eps=0.1)
    a = gross_bias_free_error(SmearedPosition(mu), SharpPosition(), cfg,
                              GRID).value
    b = gross_bias_free_error(SmearedPosition(moved), SharpPosition(), cfg,
                              GRID).value
    assert abs(a - b) <= DX
    assert (resolution_width(SmearedPosition(moved), 0.1, GRID).value
            == pytest.approx(resolution_width(SmearedPosition(mu), 0.1,
                                              GRID).value, abs=1e-12))


# -- noise-based error -----------------------------------------------------------

def test_noise_error_of_exact_device_is_zero():
    state = MixedState.pure(make_gaussian(GRID, 1.0, 0.0, 1.0))
    assert noise_based_error(SharpPosition(), SharpPosition(), state) == 0.0


def test_noise_error_closed_form_state_independent():
    m, sd = 0.7, 0.4
    device = SmearedPosition(gaussian_measure(m, sd))
    states = [MixedState.pure(make_gaussian(GRID, 0.0, 0.0, 0.5)),
              MixedState.pure(make_gaussian(GRID, 2.0, -1.0, 1.5)),
              MixedState.pure(make_box(GRID, -1.0, 1.0, 2.0)),
              MixedState.pure(make_box(GRID, 0.0, 2.0, 0.0)),
              MixedState.pure(make_gaussian(GRID, -3.0, 1.0, 0.8))]
    values = [noise_based_error(SharpPosition(), device, s) for s in states]
    want = math.sqrt(m * m + sd * sd)
    for v in values:
        assert abs(v - want) < 1e-6
        assert abs(v - values[0]) < 1e-6


def test_noise_error_of_point_smearing_is_offset():
    device = SmearedPosition(point_mass(-1.5))
    state = MixedState.pure(make_gaussian(GRID, 0.5, 0.0, 1.0))
    assert abs(noise_based_error(SharpPosition(), device, state) - 1.5) < 1e-9


def test_noise_error_axis_mismatch_rejected():
    state = MixedState.pure(make_gaussian(GRID, 0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        noise_based_error(SharpPosition(), SharpMomentum(), state)
    with pytest.raises(DomainError):
        noise_based_error(SmearedPosition(point_mass(0.0)), SharpPosition(),
                          state)


def test_noise_error_rejects_trivial_device():
    state = MixedState.pure(make_gaussian(GRID, 0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        noise_based_error(SharpPosition(), TrivialObservable(point_mass(0.0)),
                          state)


def test_global_noise_error_takes_supremum():
    device = SmearedPosition(gaussian_measure(0.7, 0.4))
    est = global_noise_error(SharpPosition(), device, _localized_ensemble())
    assert isinstance(est, WidthEstimate)
    assert est.is_lower_bound
    assert abs(est.value - math.sqrt(0.65)) < 1e-6
    with pytest.raises(DomainError):
        global_noise_error(SharpPosition(), device, [])


@pytest.mark.parametrize("mu", [two_point(-0.5, 1.0, 0.3),
                                uniform_measure(-0.5, 0.5, 17)])
def test_probe_widths_agree_on_both_axes_when_lattices_coincide(mu):
    # hbar = N dx^2 / 2 pi makes dp == dx, so the momentum lattice is the
    # position lattice and every probe width must come out the same
    hbar = GRID.n * DX ** 2 / (2.0 * math.pi)
    assert GRID.momentum_step(hbar) == DX
    results = []
    for obs, target, axis in ((SmearedPosition(mu), SharpPosition(),
                               "position"),
                              (SmearedMomentum(mu), SharpMomentum(),
                               "momentum")):
        cfg = default_probe_config(GRID, 0.1, axis, hbar)
        ests = (error_bar_width(obs, target, cfg, GRID, hbar),
                bias_free_error(obs, target, cfg, GRID, hbar),
                gross_error_bar_width(obs, target, cfg, GRID, hbar),
                resolution_width(obs, 0.1, GRID, hbar=hbar, method="probes"))
        results.append([(e.value, e.witness) for e in ests])
    assert results[0] == results[1]


def test_momentum_distance_cutoff_follows_the_momentum_band():
    # a momentum offset of 20 exceeds 0.4 of the position span (12.8) but
    # is well inside 0.4 of the momentum band (about 40.2)
    ensemble = [MixedState.pure(make_gaussian(GRID, 0.0, 0.0, s))
                for s in (0.5, 1.0)]
    est = observable_distance(SmearedMomentum(point_mass(20.0)),
                              SharpMomentum(), 1.0, ensemble)
    assert est.value == pytest.approx(20.0, abs=1e-9)
    assert not est.infinite_flag
    far = observable_distance(SmearedMomentum(point_mass(45.0)),
                              SharpMomentum(), 1.0, ensemble)
    assert far.infinite_flag


def test_sweep_cutoff_comes_from_the_target_axis_not_the_config():
    # the config holds no cutoff; the sweep reads it from the target axis
    obs = SmearedPosition(two_point(-0.5, 0.5))
    derived = _cfg(eps=0.1)
    with pytest.raises(TypeError):
        ProbeConfig(x_samples=derived.x_samples, delta=derived.delta,
                    eps=derived.eps, w_cutoff=1e-3)
    for fn in (error_bar_width, gross_error_bar_width):
        est = fn(obs, SharpPosition(), derived, GRID)
        assert est.value < divergence_cutoff(GRID, "position")
        assert not est.infinite_flag


def test_distance_tie_keeps_the_first_probe_and_traces_every_probe():
    # a shift by 0.5 moves every law by exactly 0.5, so all probes tie
    ensemble = builtin_ensemble(GRID)
    est = observable_distance(Sharp("position"),
                              Smeared("position", point_mass(0.5)), 2.0,
                              ensemble)
    assert est.value == 0.5
    assert est.witness == ("ensemble", 0)
    assert est.is_lower_bound and not est.infinite_flag
    labels = [row["probe"] for row in est.trace]
    assert labels[:len(ensemble)] == [f"ensemble{i}"
                                      for i in range(len(ensemble))]
    scans = labels[len(ensemble):]
    assert len(scans) == 6 and all(p.startswith("scan@") for p in scans)
    assert all(row["distance"] == 0.5 for row in est.trace)


def _probe_family(build, grid, center, cfg, axis, hbar):
    try:
        x, probes = build(grid, center, cfg, axis, hbar)
    except QuncertError as exc:
        return type(exc), str(exc)
    return x, [(label, wf.x0, wf.dx, wf.amplitudes.tobytes())
               for label, wf in probes]


@pytest.mark.parametrize("grid", [GRID, GridSpec(-3.0, 0.0625, 256)],
                         ids=["symmetric", "off-centre"])
def test_probe_family_matches_counter_loop_oracle(grid):
    # labels, amplitudes, snapped centres and raised errors all bit for bit;
    # the edge centre leaves no room for the wide window
    raised = 0
    for axis, hbar in (("position", 1.0), ("momentum", 1.0),
                       ("momentum", 2.5)):
        _, step = grid.lattice(axis, hbar)
        centers = grid.around_midpoint(axis, (0.0, 0.3, 0.49), hbar)
        for steps, center in itertools.product((2.0, 4.0, 20.0), centers):
            cfg = ProbeConfig((0.0,), steps * step, 0.1, seed=5)
            expected = _probe_family(oracles.localized_probes_reference,
                                     grid, center, cfg, axis, hbar)
            assert _probe_family(_localized_probes, grid, center, cfg, axis,
                                 hbar) == expected
            raised += isinstance(expected[0], type)
    assert raised > 0


def test_momentum_probe_laws_hold_exactly_their_window_atoms():
    # the FFT round trip of a momentum probe leaves round-off below the
    # Born floor on every other atom, so only the window is live
    cfg = default_probe_config(DEFAULT_GRID, 0.1, "momentum")
    for center in cfg.x_samples:
        x, probes = _localized_probes(DEFAULT_GRID, center, cfg, "momentum",
                                      1.0)
        window = DEFAULT_GRID.window("momentum", x, cfg.delta)
        for _, probe in probes:
            live = momentum_distribution(probe).weights > 0.0
            assert np.array_equal(live, window)


def test_worst_near_tie_keeps_the_first_row_and_the_largest_value():
    # rows that tie in exact arithmetic differ by rounding: the witness is
    # the first of them, the value the largest entry, bit for bit
    top = 1.0 + 4e-16
    rows = [(("a",), {"w": 1.0}), (("b",), {"w": top}), (("c",), {"w": 0.5})]
    est = _worst(iter(rows), "w", True, cutoff=1.0)
    assert est.value == top and est.witness == ("a",)
    assert est.infinite_flag
    assert est.trace == tuple(entry for _, entry in rows)
    # a gap beyond rounding still picks the larger row
    est = _worst(iter([(("a",), {"w": 1.0}), (("b",), {"w": 1.0 + 1e-9})]),
                 "w", False)
    assert est.witness == ("b",) and est.value == 1.0 + 1e-9


def test_worst_rejects_a_nan_entry():
    # a NaN loses every comparison, so the value once read -1.0, the
    # starting value, with no witness
    rows = [(("a",), {"w": 1.0}), (("b",), {"w": math.nan})]
    with pytest.raises(InternalError, match="NaN"):
        _worst(iter(rows), "w", True)


# -- one sweep of probe laws, read at every eps --------------------------------

SWEEP_EPS = (0.05, 0.1, 0.25, 0.5)


def _sweep_observables():
    tau = make_gaussian(GRID, 0.0, 0.0, 1.0)
    cos_shift = map_from_spec({"kind": "cos_shift", "amplitude": 0.25})
    out = []
    for axis in ("position", "momentum"):
        out += [(f"sharp-{axis}", Sharp(axis)),
                (f"gaussian-{axis}",
                 Smeared(axis, gaussian_measure(0.2, 0.5, n_atoms=65))),
                (f"two-point-{axis}", Smeared(axis, two_point(-0.5, 1.0, 0.3))),
                (f"covariant-{axis}", CovariantMarginal(tau, axis)),
                (f"pushforward-{axis}",
                 PushforwardObservable(Smeared(axis, point_mass(0.25)),
                                       cos_shift))]
    return out


def _same(est, ref):
    # bit for bit: repr tells -0.0 from 0.0 and prints floats exactly
    return est == ref and repr(est) == repr(ref)


@pytest.mark.parametrize("name, obs", _sweep_observables(),
                         ids=[n for n, _ in _sweep_observables()])
def test_sweeps_at_every_eps_match_the_memo_free_loop(name, obs):
    target = Sharp(obs.axis)
    for eps in SWEEP_EPS:
        cfg = default_probe_config(GRID, eps, obs.axis)
        for fn, centered in ((error_bar_width, True),
                             (bias_free_error, False)):
            ref = oracles.probe_sweep_reference(obs, target, cfg, GRID, 1.0,
                                                centered)
            assert _same(fn(obs, target, cfg, GRID), ref), (fn.__name__, eps)


def _key_variants():
    """A momentum sweep and, per component of the probe-law key, a sweep
    that differs from it in that component only."""
    base = dict(approx=SmearedMomentum(two_point(-0.3, 0.5, 0.3)),
                target=SharpMomentum(), grid=GRID, hbar=1.0,
                cfg=ProbeConfig((-1.0, 0.0, 1.3), 0.6, 0.1))
    cfg = base["cfg"]
    changes = {
        "approx": {"approx": SmearedMomentum(two_point(-0.3, 0.6, 0.3))},
        "target axis": {"target": SharpPosition()},
        "grid": {"grid": GridSpec.symmetric(12.0, 512)},
        "hbar": {"hbar": 1.5},
        "delta": {"cfg": ProbeConfig(cfg.x_samples, 1.0, 0.1)},
        "seed": {"cfg": ProbeConfig(cfg.x_samples, 0.6, 0.1, seed=1)},
        "x_samples": {"cfg": ProbeConfig((-1.0, 0.0, 1.5), 0.6, 0.1)},
    }
    return base, [(name, {**base, **change})
                  for name, change in changes.items()]


def _sweep(call, fn=error_bar_width):
    return fn(call["approx"], call["target"], call["cfg"], call["grid"],
              call["hbar"])


def _sweep_reference(call, centered=True):
    return oracles.probe_sweep_reference(call["approx"], call["target"],
                                         call["cfg"], call["grid"],
                                         call["hbar"], centered)


def test_sweeps_that_differ_in_one_key_component_never_share_laws():
    # each variant alternates with the base sweep, so a memo that ignored
    # the component would serve one of them the other's laws
    base, variants = _key_variants()
    base_ref = (_sweep_reference(base), _sweep_reference(base, False))
    for name, call in variants:
        ref = (_sweep_reference(call), _sweep_reference(call, False))
        assert ref != base_ref, name
        for fn, want, base_want in ((error_bar_width, ref[0], base_ref[0]),
                                    (bias_free_error, ref[1], base_ref[1])):
            assert _same(_sweep(base, fn), base_want), name
            assert _same(_sweep(call, fn), want), name
            assert _same(_sweep(base, fn), base_want), name


@pytest.mark.parametrize("obs, field", [
    (Sharp("position"), "axis"),
    (Smeared("position", point_mass(0.0)), "noise"),
    (TrivialObservable(point_mass(0.0)), "law"),
    (PushforwardObservable(SharpPosition(), map_from_spec({"kind": "identity"})),
     "map"),
], ids=["sharp", "smeared", "trivial", "pushforward"])
def test_observables_are_frozen_so_kept_laws_cannot_go_stale(obs, field):
    # a kept sweep is keyed by the observable itself
    with pytest.raises(FrozenInstanceError):
        setattr(obs, field, getattr(obs, field))


def test_bias_sweeps_each_probe_law_once(monkeypatch):
    # 7 centers x 4 probes: the centered and floating sweeps share one cfg
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(observables, "convolve", counting)
    obs = SmearedPosition(gaussian_measure(0.3, 0.5))
    bias(obs, SharpPosition(), _cfg(eps=0.1), GRID)
    assert len(calls) == 7 * 4


# -- one Born law per probe ------------------------------------------------------

def _count_born_laws(monkeypatch):
    calls = {"position": 0, "momentum": 0}

    def counting(axis, born):
        def wrapped(*args, **kwargs):
            calls[axis] += 1
            return born(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(observables, "position_distribution",
                        counting("position", observables.position_distribution))
    monkeypatch.setattr(observables, "momentum_distribution",
                        counting("momentum", observables.momentum_distribution))
    return calls


@pytest.mark.parametrize("axis", ["position", "momentum"])
def test_a_same_axis_device_maps_the_born_law_its_probe_was_checked_by(
        monkeypatch, axis):
    # 7 centers x 4 probes; a fresh device, so no kept sweep serves it
    calls = _count_born_laws(monkeypatch)
    obs = Smeared(axis, gaussian_measure(0.3, 0.5))
    error_bar_width(obs, Sharp(axis), _cfg(axis=axis), GRID)
    assert calls == {"position": 0, "momentum": 0, axis: 7 * 4}


def test_a_cross_axis_device_takes_one_born_law_per_axis_per_probe(
        monkeypatch):
    calls = _count_born_laws(monkeypatch)
    obs = SmearedMomentum(gaussian_measure(0.3, 0.5))
    error_bar_width(obs, SharpPosition(), _cfg(), GRID)
    assert calls == {"position": 7 * 4, "momentum": 7 * 4}


def test_a_cross_axis_covariant_margin_matches_the_memo_free_loop():
    # the momentum margin has no kernel on the position law of its probes,
    # so the sweep builds its law from the probe state
    obs = CovariantMarginal(make_gaussian(GRID, 0.0, 0.0, 1.0), "momentum")
    target = SharpPosition()
    cfg = _cfg(eps=0.1)
    for fn, centered in ((error_bar_width, True), (bias_free_error, False)):
        ref = oracles.probe_sweep_reference(obs, target, cfg, GRID, 1.0,
                                            centered)
        assert _same(fn(obs, target, cfg, GRID), ref), fn.__name__
