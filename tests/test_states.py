import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from quncert import (ConvergenceError, DomainError, GridSpec,
                     GridTooSmallError, Interval, MixedState, PhasePoint,
                     WaveFunction, ground_state, load_wavefunction_csv,
                     make_box, make_gaussian, make_hermite,
                     make_random_localized, momentum_distribution, parity,
                     position_distribution, random_ensemble,
                     save_wavefunction_csv, state_from_spec, std_deviation,
                     translate, weyl_translate)
from quncert import test_ensemble as builtin_ensemble
from quncert import ResourceError, states

GRID = GridSpec.symmetric(16.0, 2048)


# -- grid and state types ------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, 0.1, 100)  # not a power of two
    with pytest.raises(DomainError):
        GridSpec(0.0, -0.1, 128)
    with pytest.raises(DomainError):
        GridSpec(0.0, 0.1, 2)


def test_grid_length_cap_is_resource_error():
    # the constructor allocates nothing, so the oversized length is safe here
    cap = states.MAX_GRID_POINTS
    with pytest.raises(ResourceError, match="cap"):
        GridSpec(-1.0, 1e-6, 2 * cap)
    assert GridSpec(-1.0, 1e-6, cap).n == cap


def test_lattice_geometry_from_the_midpoint():
    off = GridSpec(0.0, 0.0625, 512)
    assert off.around_midpoint("position", (-0.25, 0.0, 0.25)) == [8.0, 16.0, 24.0]
    assert GRID.around_midpoint("position", (0.0, 0.3)) == [0.0, 0.3 * GRID.span]
    assert off.around_midpoint("momentum", (0.0,)) == [0.0]
    assert off.snap("position", 16.02) == (256, 16.0)
    with pytest.raises(DomainError):
        off.snap("position", -0.5)
    mask = off.window("position", 16.0, 0.25)
    assert off.points()[mask].tolist() == [15.875, 15.9375, 16.0, 16.0625, 16.125]
    with pytest.raises(DomainError):
        off.window("position", 16.0, 0.0625)  # below two steps
    with pytest.raises(DomainError):
        off.window("position", 0.0, 1.0)  # reaches the first point


def test_grid_momentum_lattice():
    g = GridSpec.symmetric(8.0, 256)
    assert g.span == pytest.approx(16.0)
    assert g.momentum_step(1.0) == pytest.approx(2.0 * math.pi / 16.0)
    assert g.momentum_step(2.0) == pytest.approx(2.0 * 2.0 * math.pi / 16.0)
    ps = g.momentum_points(1.0)
    assert ps.size == 256
    assert ps[128] == pytest.approx(0.0)
    assert g.is_symmetric()


def test_wavefunction_requires_normalization():
    g = GridSpec.symmetric(4.0, 64)
    with pytest.raises(DomainError):
        WaveFunction(g.x0, g.dx, np.ones(64, dtype=complex))


def test_mixed_state_weights():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        MixedState(((0.5, wf), (0.6, wf)))
    s = MixedState(((0.25, wf), (0.75, wf)))
    assert len(s.components) == 2


def test_phase_point_finite():
    with pytest.raises(DomainError):
        PhasePoint(math.inf, 0.0)


# -- distributions --------------------------------------------------------------

def test_box_position_law_is_uniform():
    wf = make_box(GRID, 0.0, 1.0, 0.0, 1.0)
    law = position_distribution(wf)
    inside = law.weights[law.weights > 0.0]
    assert np.allclose(inside, inside[0])
    assert law.support_hi - law.support_lo == pytest.approx(1.0, abs=GRID.dx)


def test_gaussian_position_std():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 1.0)
    assert std_deviation(position_distribution(wf)) == pytest.approx(1.0,
                                                                     abs=1e-4)


def test_mixture_of_boxes_mean_zero():
    left = make_box(GRID, -2.0, 0.5, 0.0, 1.0)
    right = make_box(GRID, 2.0, 0.5, 0.0, 1.0)
    s = MixedState(((0.5, left), (0.5, right)))
    law = position_distribution(s)
    assert law.mean() == pytest.approx(0.0, abs=1e-9)


def test_momentum_law_gaussian():
    wf = make_gaussian(GRID, 0.0, 0.0, 0.5, 1.0)
    plaw = momentum_distribution(wf, 1.0)
    assert float(np.sum(plaw.weights)) == pytest.approx(1.0, abs=1e-9)
    assert std_deviation(plaw) == pytest.approx(1.0, abs=1e-4)  # hbar/(2 sigma)


def test_momentum_law_scales_with_hbar():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 2.0)
    plaw = momentum_distribution(wf, 2.0)
    assert std_deviation(plaw) == pytest.approx(1.0, abs=1e-4)


def test_parseval_for_every_ensemble_state():
    for s in builtin_ensemble(GRID, 1.0, 0):
        qlaw = position_distribution(s)
        plaw = momentum_distribution(s, 1.0)
        assert float(np.sum(qlaw.weights)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum(plaw.weights)) == pytest.approx(1.0, abs=1e-9)


def test_preparation_ur_on_ensemble():
    for s in builtin_ensemble(GRID, 1.0, 0):
        dq = std_deviation(position_distribution(s))
        dp = std_deviation(momentum_distribution(s, 1.0))
        assert dq * dp >= 0.5 - 1e-6


# -- phase-space translations ----------------------------------------------------

def test_weyl_position_covariance():
    wf = make_gaussian(GRID, 0.0, 0.5, 0.8, 1.0)
    q = 1.25  # whole number of cells
    moved = weyl_translate(wf, PhasePoint(q, 0.0), 1.0)
    got = position_distribution(moved)
    want = translate(position_distribution(wf), q)
    assert got.mean() == pytest.approx(want.mean(), abs=GRID.dx)
    aligned = np.interp(want.atoms, got.atoms, got.weights)
    assert np.max(np.abs(aligned - want.weights)) < 1e-9


def test_weyl_momentum_covariance():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 1.0)
    dp = GRID.momentum_step(1.0)
    boost = 8.0 * dp
    moved = weyl_translate(wf, PhasePoint(0.0, boost), 1.0)
    got = momentum_distribution(moved, 1.0)
    want = translate(momentum_distribution(wf, 1.0), boost)
    aligned = np.interp(want.atoms, got.atoms, got.weights)
    assert np.max(np.abs(aligned - want.weights)) < 1e-9


def test_weyl_subcell_shift_moves_mean():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 1.0)
    q = 0.3 * GRID.dx
    moved = weyl_translate(wf, PhasePoint(q, 0.0), 1.0)
    assert position_distribution(moved).mean() == pytest.approx(q, abs=1e-6)


@st.composite
def born_cases(draw):
    """(state, hbar) of a Gaussian, a two-part mixture of Gaussians or a
    weyl translation of either (q need not be whole cells) on a grid of 16
    to 256 points, centred on 0 or off-centre."""
    n = draw(st.sampled_from([16, 32, 64, 128, 256]))
    span = draw(st.floats(8.0, 48.0))
    x0 = -0.5 * span + draw(st.sampled_from([0.0, 0.3, -0.45, 2.0])) * span
    grid = GridSpec(x0, span / n, n)
    hbar = draw(st.sampled_from([1.0, 2.5]))
    mid = grid.around_midpoint("position", (0.0,))[0]
    band = math.pi * hbar / grid.dx
    # centres and shifts within span/16 of the midpoint and widths up to
    # span/24 leave 9 widths to either grid edge, so no shift wraps mass;
    # on 16 points the width floor dx is span/16, and a shift can wrap

    def gaussian():
        sigma = draw(st.floats(grid.dx, max(grid.dx, span / 24.0)))
        return make_gaussian(grid, mid + draw(st.floats(-1, 1)) * span / 16,
                             draw(st.floats(-0.3, 0.3)) * band, sigma, hbar)

    state = gaussian()
    if draw(st.booleans()):
        w = draw(st.floats(0.05, 0.95))
        state = MixedState(((w, state), (1.0 - w, gaussian())))
    if draw(st.booleans()):
        shift = PhasePoint(draw(st.floats(-1, 1)) * span / 16,
                           draw(st.floats(-0.3, 0.3)) * band)
        try:
            state = weyl_translate(state, shift, hbar)
        except DomainError:  # the shift would wrap mass past an edge
            reject()
    return state, hbar


@settings(max_examples=60, deadline=None)
@given(born_cases(), st.sampled_from(["position", "momentum"]))
def test_born_laws_drop_only_their_round_off_floor(case, axis):
    state, hbar = case
    law = (position_distribution(state) if axis == "position"
           else momentum_distribution(state, hbar))
    ref = oracles.born_law_reference(state, axis, hbar)
    floor = 2.0 ** -90 * float(np.sum(ref.weights))
    kept = law.weights > 0.0
    assert np.array_equal(law.atoms, ref.atoms)
    # every kept weight bit for bit, every weight below the floor cut
    assert np.array_equal(law.weights[kept], ref.weights[kept])
    assert np.array_equal(kept, ref.weights >= floor)
    assert float(np.sum(ref.weights[~kept])) <= state.grid.n * floor


def test_weyl_shift_out_of_range():
    wf = make_gaussian(GRID, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        weyl_translate(wf, PhasePoint(100.0, 0.0), 1.0)


def test_weyl_rejects_mass_falling_off_the_grid():
    wf = make_gaussian(GRID, 10.0, 0.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        weyl_translate(wf, PhasePoint(10.0, 0.0), 1.0)


def test_parity_reflects_position_law():
    wf = make_gaussian(GRID, 2.0, 0.0, 0.7, 1.0)
    law = position_distribution(parity(wf))
    assert law.mean() == pytest.approx(-2.0, abs=GRID.dx)


# -- constructors ---------------------------------------------------------------

def test_box_width_validation():
    with pytest.raises(DomainError):
        make_box(GRID, 0.0, 0.5 * GRID.dx, 0.0, 1.0)
    with pytest.raises(DomainError):
        make_box(GRID, 15.9, 1.0, 0.0, 1.0)  # touches the grid edge


def test_hermite_position_variance():
    for n in (0, 1, 2, 3):
        wf = make_hermite(GRID, n, 1.0)
        var = std_deviation(position_distribution(wf)) ** 2
        assert var == pytest.approx(n + 0.5, rel=1e-4)


def test_hermite_momentum_variance():
    wf = make_hermite(GRID, 2, 1.0)
    var = std_deviation(momentum_distribution(wf, 1.0)) ** 2
    assert var == pytest.approx(2.5, rel=1e-4)


def test_random_localized_supported_inside_interval():
    wf = make_random_localized(GRID, Interval(1.0, 2.0), seed=5)
    law = position_distribution(wf)
    assert law.support_lo >= 0.0 - 1e-12
    assert law.support_hi <= 2.0 + 1e-12
    again = make_random_localized(GRID, Interval(1.0, 2.0), seed=5)
    assert np.array_equal(wf.amplitudes, again.amplitudes)


# -- ground state ----------------------------------------------------------------

def test_ground_state_harmonic_energy_and_profile():
    grid = GridSpec.symmetric(12.0, 1024)
    energy, wf = ground_state(2.0, 2.0, grid)
    assert energy == pytest.approx(1.0, abs=1e-6)
    law = position_distribution(wf)
    assert std_deviation(law) == pytest.approx(math.sqrt(0.5), abs=1e-4)


def test_ground_state_matches_dense_oracle():
    grid = GridSpec.symmetric(16.0, 256)
    energy, _ = ground_state(1.0, 1.0, grid, boundary_tol=1e-2)
    ref = oracles.dense_ground_energy(1.0, 1.0, grid.x0, grid.dx, grid.n)
    assert energy == pytest.approx(ref, abs=1e-6)


def test_ground_state_fourier_symmetry():
    grid = GridSpec.symmetric(12.0, 1024)
    for alpha in (2.0, 4.0):
        _, wf = ground_state(alpha, alpha, grid)
        qlaw = position_distribution(wf)
        plaw = momentum_distribution(wf, 1.0)
        qs = std_deviation(qlaw)
        ps = std_deviation(plaw)
        assert qs == pytest.approx(ps, abs=1e-6)


def test_ground_state_grid_gate():
    with pytest.raises(GridTooSmallError):
        ground_state(2.0, 2.0, GridSpec.symmetric(4.0, 128))


def test_ground_state_convergence_gate():
    with pytest.raises(ConvergenceError):
        ground_state(2.0, 2.0, GridSpec.symmetric(12.0, 256), tol=1e-15)


def test_ground_state_rejects_bad_exponents():
    with pytest.raises(DomainError):
        ground_state(0.5, 2.0, GridSpec.symmetric(12.0, 256))


# -- ensembles and specs -----------------------------------------------------------

def test_random_ensemble_deterministic():
    grid = GridSpec.symmetric(16.0, 512)
    first = random_ensemble(grid, 12, seed=3, hbar=1.0)
    second = random_ensemble(grid, 12, seed=3, hbar=1.0)
    assert len(first) == 12
    for a, b in zip(first, second):
        for (wa, ca), (wb, cb) in zip(a.components, b.components):
            assert wa == wb
            assert np.array_equal(ca.amplitudes, cb.amplitudes)
    third = random_ensemble(grid, 12, seed=4, hbar=1.0)
    assert any(not np.array_equal(a.components[0][1].amplitudes,
                                  c.components[0][1].amplitudes)
               for a, c in zip(first, third))


def test_state_from_spec_families():
    s = state_from_spec({"family": "gaussian", "sigma": 0.5, "center": 1.0},
                        GRID, 1.0)
    assert position_distribution(s).mean() == pytest.approx(1.0, abs=1e-6)
    mix = state_from_spec(
        {"family": "mixture",
         "components": [
             {"family": "box", "center": -2.0, "width": 1.0, "weight": 0.5},
             {"family": "box", "center": 2.0, "width": 1.0, "weight": 0.5}]},
        GRID, 1.0)
    assert position_distribution(mix).mean() == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        state_from_spec({"family": "nope"}, GRID, 1.0)
    with pytest.raises(DomainError, match="unrecognized keys.*'sgima'"):
        state_from_spec({"family": "gaussian", "sgima": 0.5}, GRID, 1.0)
    with pytest.raises(DomainError, match="unrecognized keys"):
        state_from_spec(
            {"family": "mixture", "seed": 1,
             "components": [{"family": "cell", "weight": 1.0}]}, GRID, 1.0)


def test_gaussian_narrower_than_grid_step_is_grid_too_small():
    # on a grid point it would collapse to a lattice delta; off the grid
    # every sample underflows
    for center in (GRID.x0 + 1000 * GRID.dx, GRID.x0 + 1000.5 * GRID.dx):
        with pytest.raises(GridTooSmallError, match="sigma.*dx"):
            make_gaussian(GRID, center, 0.0, 1e-4 * GRID.dx)


def test_wavefunction_csv_round_trip(tmp_path):
    wf = make_gaussian(GRID, 0.3, 1.2, 0.9, 1.0)
    path = tmp_path / "wf.csv"
    save_wavefunction_csv(wf, str(path))
    back = load_wavefunction_csv(str(path))
    assert back.grid == wf.grid
    assert np.max(np.abs(back.amplitudes - wf.amplitudes)) < 1e-12


def test_wavefunction_csv_requires_uniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n0.1,0.0,0.0\n0.3,0.0,0.0\n"
                    "0.4,0.0,0.0\n")
    with pytest.raises(DomainError):
        load_wavefunction_csv(str(path))


def test_gaussian_wider_than_grid_span_is_grid_too_small():
    # a moderate excess leaves a flat profile; a huge one overflows sigma**2
    for sigma in (2.0 * GRID.span, 1e200):
        with pytest.raises(GridTooSmallError, match="sigma.*span"):
            make_gaussian(GRID, 0.0, 0.0, sigma)


# -- Hermite gate and midpoint placement ----------------------------------------

NAMED_GRIDS = [states.DEFAULT_GRID, states.UR_ENSEMBLE_GRID,
               states.COVARIANT_GRID, states.SOLVER_GRID]


@pytest.mark.parametrize("grid", NAMED_GRIDS, ids=["default", "ur", "cov", "solver"])
def test_low_hermite_amplitudes_are_unchanged(grid):
    for n in range(6):
        assert np.array_equal(make_hermite(grid, n).amplitudes,
                              oracles.hermite_reference(grid, n))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", NAMED_GRIDS, ids=["default", "ur", "cov", "solver"])
def test_largest_accepted_hermite_builds(grid):
    reach = min(grid.x_end, 0.5 * grid.n * grid.momentum_step())
    largest = min(states.MAX_HERMITE_N, int((reach * reach - 1.0) // 2))
    assert np.all(np.isfinite(make_hermite(grid, largest).amplitudes))
    with pytest.raises((GridTooSmallError, ResourceError)):
        make_hermite(grid, largest + 1)


def test_hermite_turning_point_outside_grid_is_grid_too_small():
    for n in (400, 10 ** 400):
        with pytest.raises(GridTooSmallError, match="turning points"):
            make_hermite(states.DEFAULT_GRID, n)
    with pytest.raises(ResourceError, match="cap"):
        make_hermite(states.UR_ENSEMBLE_GRID, states.MAX_HERMITE_N + 1)
    # the momentum band bounds the reach too: dp = 2 pi / 8 here
    with pytest.raises(GridTooSmallError):
        make_hermite(GridSpec.symmetric(64.0, 16), 1)


def test_ensembles_sit_around_the_grid_midpoint():
    sym = GridSpec.symmetric(16.0, 512)
    off = GridSpec(0.0, sym.dx, sym.n)
    for a, b in zip(builtin_ensemble(sym), builtin_ensemble(off)):
        assert position_distribution(b).mean() == pytest.approx(
            position_distribution(a).mean() + 16.0, abs=1e-9)
        assert np.allclose(momentum_distribution(a).weights,
                           momentum_distribution(b).weights, atol=1e-12)
    for a, b in zip(random_ensemble(sym, 8, seed=2),
                    random_ensemble(off, 8, seed=2)):
        assert position_distribution(b).mean() == pytest.approx(
            position_distribution(a).mean() + 16.0, abs=1e-9)


def test_momentum_outside_the_band_is_a_domain_error():
    band = 0.5 * GRID.n * GRID.momentum_step()
    with pytest.raises(DomainError, match="momentum band"):
        make_gaussian(GRID, 0.0, band, 1.0)
    with pytest.raises(DomainError, match="momentum band"):
        make_box(GRID, 0.0, 1.0, -band)
    for hbar in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="hbar must be finite and positive"):
            make_gaussian(GRID, 0.0, 0.0, 1.0, hbar)


@pytest.mark.parametrize("alpha,beta,half_width", [(1.0, 4.0, 16.0),
                                                   (4.0, 1.0, 32.0)])
def test_ground_state_quartic_kink_pairs_match_dense_oracle(alpha, beta,
                                                            half_width):
    grid = GridSpec.symmetric(half_width, 512)
    energy, _ = ground_state(alpha, beta, grid, boundary_tol=1e-2)
    ref = oracles.dense_ground_energy(alpha, beta, grid.x0, grid.dx, grid.n)
    assert abs(energy - ref) <= 1e-9


def test_wavefunction_is_a_mixture_of_one():
    wf = make_gaussian(GRID, 0.5, 1.0, 0.8, 1.0)
    assert wf.components == ((1.0, wf),)
    pure = MixedState.pure(wf)
    for law in (position_distribution, lambda s: momentum_distribution(s, 2.0)):
        a, b = law(wf), law(pure)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.weights, b.weights)
    for op in (lambda s: weyl_translate(s, PhasePoint(0.3, -0.7)), parity):
        ((wa, a),), ((wb, b),) = op(wf).components, op(pure).components
        assert wa == wb
        assert np.array_equal(a.amplitudes, b.amplitudes)
