import math

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import random_measure
from quncert import (DomainError, DualPair, GridMeasure, InternalError,
                     c_transform, dual_ascent, dual_value,
                     lipschitz_witness_values, optimal_coupling_lp,
                     point_mass, save_coupling_csv, sorted_measure,
                     tent_function, uniform_measure, wasserstein,
                     wasserstein_inf)
from quncert.transport import (Coupling, _lp, _monotone_plan, _staircase,
                               c_transform_upper, feasibility_violation)

HALF_HALF = sorted_measure([0.0, 1.0], [0.5, 0.5])


# -- quantile-coupling distances ----------------------------------------------

def test_point_mass_distances():
    for alpha in (1.0, 2.0):
        assert wasserstein(point_mass(0.0), point_mass(3.5), alpha) == 3.5


def test_translation_moves_every_quantile():
    m = uniform_measure(0.0, 1.0, 50)
    shifted = sorted_measure(m.atoms + 0.37, m.weights)
    assert wasserstein(m, shifted, 1.0) == pytest.approx(0.37, abs=1e-9)


def test_half_half_vs_point_order_two():
    assert wasserstein(HALF_HALF, point_mass(0.0), 2.0) == pytest.approx(
        math.sqrt(0.5), abs=1e-9)


def test_alpha_validation():
    with pytest.raises(DomainError):
        wasserstein(HALF_HALF, HALF_HALF, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_displacement_does_not_overflow():
    far = point_mass(1e308)
    for alpha in (1.0, 2.0, 3.0):
        assert wasserstein(point_mass(0.0), far, alpha) == 1e308
    spread = sorted_measure([-1e300, 1e300], [0.5, 0.5])
    assert wasserstein(spread, point_mass(0.0), 2.0) == pytest.approx(
        1e300, rel=1e-12)


def test_winf_example():
    assert wasserstein_inf(HALF_HALF, point_mass(0.0)) == 1.0


def test_metric_axioms(rng):
    for _ in range(20):
        m1 = random_measure(rng)
        m2 = random_measure(rng)
        for alpha in (1.0, 2.0, math.inf):
            assert wasserstein(m1, m1, alpha) == 0.0
            d12 = wasserstein(m1, m2, alpha)
            d21 = wasserstein(m2, m1, alpha)
            assert d12 == pytest.approx(d21, abs=1e-12)


def test_triangle_inequality(rng):
    for _ in range(100):
        a = random_measure(rng, max_atoms=10)
        b = random_measure(rng, max_atoms=10)
        c = random_measure(rng, max_atoms=10)
        for alpha in (1.0, 2.0, math.inf):
            dab = wasserstein(a, b, alpha)
            dbc = wasserstein(b, c, alpha)
            dac = wasserstein(a, c, alpha)
            assert dac <= dab + dbc + 1e-9


def test_alpha_monotonicity(rng):
    for _ in range(30):
        m1 = random_measure(rng, max_atoms=12)
        m2 = random_measure(rng, max_atoms=12)
        d1 = wasserstein(m1, m2, 1.0)
        d2 = wasserstein(m1, m2, 2.0)
        d4 = wasserstein(m1, m2, 4.0)
        dinf = wasserstein(m1, m2, math.inf)
        assert d1 <= d2 + 1e-10 <= d4 + 2e-10 <= dinf + 3e-10


def test_scipy_cross_check(rng):
    for _ in range(20):
        m1 = random_measure(rng, max_atoms=15)
        m2 = random_measure(rng, max_atoms=15)
        ref = scipy.stats.wasserstein_distance(m1.atoms, m2.atoms,
                                               m1.weights, m2.weights)
        assert wasserstein(m1, m2, 1.0) == pytest.approx(ref, abs=1e-10)


# -- exact LP and extreme-point oracle ----------------------------------------

def test_lp_matches_quantile(rng):
    for _ in range(25):
        m1 = random_measure(rng, max_atoms=12)
        m2 = random_measure(rng, max_atoms=12)
        for alpha in (1.0, 2.0):
            _, cost = optimal_coupling_lp(m1, m2, alpha)
            assert cost ** (1.0 / alpha) == pytest.approx(
                wasserstein(m1, m2, alpha), abs=1e-9)


def test_lp_matches_scipy_linprog(rng):
    for _ in range(10):
        m1 = random_measure(rng, max_atoms=8)
        m2 = random_measure(rng, max_atoms=8)
        _, cost = optimal_coupling_lp(m1, m2, 2.0)
        ref = oracles.lp_transport_cost(m1.atoms, m1.weights,
                                        m2.atoms, m2.weights, 2.0)
        assert cost == pytest.approx(ref, abs=1e-9)


def test_coupling_marginals_within_tolerance(rng):
    for _ in range(10):
        m1 = random_measure(rng, max_atoms=10)
        m2 = random_measure(rng, max_atoms=10)
        coupling, _ = optimal_coupling_lp(m1, m2, 1.0)
        assert np.max(np.abs(coupling.row_marginal() - m1.weights)) <= 1e-10
        assert np.max(np.abs(coupling.col_marginal() - m2.weights)) <= 1e-10
        assert np.all(coupling.joint >= 0.0)


def test_degenerate_ties_terminate():
    # equal weights and overlapping atoms force degenerate pivots
    m1 = uniform_measure(0.0, 1.0, 9)
    m2 = uniform_measure(0.25, 1.25, 9)
    _, cost = optimal_coupling_lp(m1, m2, 1.0)
    assert cost == pytest.approx(wasserstein(m1, m2, 1.0), abs=1e-9)


def _ragged_measure(rng):
    """Measure with zero weights and, often, cumulative masses that tie."""
    n = int(rng.integers(1, 9))
    atoms = np.sort(rng.choice(np.arange(-10.0, 10.0, 0.5), n, replace=False))
    weights = rng.integers(0, 3, n).astype(float)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return GridMeasure(atoms, weights / weights.sum())


def test_lp_coupling_is_monotone_quantile_plan(rng):
    # cell (i, j) of the comonotone plan carries the overlap of the quantile
    # intervals (A[i-1], A[i]] and (B[j-1], B[j]]
    for _ in range(200):
        m1 = _ragged_measure(rng)
        m2 = _ragged_measure(rng)
        ca = np.cumsum(m1.weights)
        cb = np.cumsum(m2.weights)
        lo = np.maximum.outer(np.concatenate(([0.0], ca[:-1])),
                              np.concatenate(([0.0], cb[:-1])))
        want = np.maximum(np.minimum.outer(ca, cb) - lo, 0.0)
        for alpha in (1.0, 2.0, 3.0):
            coupling, cost = optimal_coupling_lp(m1, m2, alpha)
            np.testing.assert_allclose(coupling.joint, want, rtol=0.0,
                                       atol=1e-12)
            assert cost == pytest.approx(coupling.cost(alpha), abs=1e-12)


def _staircase_instances():
    """Ragged draws (zero weights, tied cumulative sums), then Dirichlet
    draws with 1-39 atoms per side."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        yield _ragged_measure(rng), _ragged_measure(rng)
    for _ in range(150):
        pair = []
        for _ in range(2):
            atoms = np.unique(rng.normal(0.0, 3.0, int(rng.integers(1, 40))))
            pair.append(sorted_measure(atoms,
                                       rng.dirichlet(np.ones(atoms.size))))
        yield tuple(pair)


def test_staircase_path_shape_and_northwest_corner_plan():
    for m1, m2 in _staircase_instances():
        n, m = len(m1), len(m2)
        _, rows, cols = _staircase(np.cumsum(m1.weights),
                                   np.cumsum(m2.weights))
        assert rows.size == n + m - 1
        assert (rows[0], cols[0], rows[-1], cols[-1]) == (0, 0, n - 1, m - 1)
        assert np.all(np.diff(rows) + np.diff(cols) == 1)
        assert set(rows) == set(range(n)) and set(cols) == set(range(m))
        want, _ = oracles.northwest_corner_reference(m1.weights, m2.weights)
        for alpha in (1.0, 2.0, 3.0):
            plan, _, _, _ = _lp(m1, m2, alpha)
            assert np.max(np.abs(plan - want)) <= 1e-15


def test_monotone_plan_rejects_non_monge_cost():
    half = np.array([0.5, 0.5])
    with pytest.raises(InternalError):
        _monotone_plan(half, half, np.array([[5.0, 0.0], [0.0, 5.0]]))


def test_winf_matches_extreme_point_oracle(rng):
    for _ in range(30):
        m1 = random_measure(rng, max_atoms=4, span=5.0)
        m2 = random_measure(rng, max_atoms=4, span=5.0)
        ref = oracles.winf_extreme_point_search(m1.atoms, m1.weights,
                                                m2.atoms, m2.weights)
        assert wasserstein_inf(m1, m2) == ref


# -- Kantorovich duality -------------------------------------------------------

def test_dual_pair_feasibility_invariant(rng):
    for _ in range(15):
        m1 = random_measure(rng, max_atoms=10)
        m2 = random_measure(rng, max_atoms=10)
        for alpha in (1.0, 2.0):
            pair = dual_ascent(m1, m2, alpha)
            assert feasibility_violation(m1, m2, pair) <= 1e-12


def test_weak_duality(rng):
    for _ in range(15):
        m1 = random_measure(rng, max_atoms=10)
        m2 = random_measure(rng, max_atoms=10)
        for alpha in (1.0, 2.0):
            _, primal = optimal_coupling_lp(m1, m2, alpha)
            # arbitrary feasible pair: psi = 0, phi = its c-transform
            phi = c_transform(np.zeros(len(m1)), m1, m2, alpha)
            value = dual_value(m1, m2, DualPair(np.zeros(len(m1)), phi, alpha))
            assert value <= primal + 1e-10


def test_dual_ascent_closes_gap(rng):
    for _ in range(10):
        m1 = random_measure(rng, max_atoms=15)
        m2 = random_measure(rng, max_atoms=15)
        for alpha in (1.0, 2.0):
            _, primal = optimal_coupling_lp(m1, m2, alpha)
            pair = dual_ascent(m1, m2, alpha)
            value = dual_value(m1, m2, pair)
            assert value >= (1.0 - 1e-3) * primal - 1e-12
            assert value <= primal + 1e-9


def test_c_transform_round_trip_idempotent(rng):
    m1 = random_measure(rng, max_atoms=10)
    m2 = random_measure(rng, max_atoms=10)
    psi = rng.normal(size=len(m1))
    for alpha in (1.0, 2.0):
        phi = c_transform(psi, m1, m2, alpha)
        psi2 = c_transform_upper(phi, m2, m1, alpha)
        phi2 = c_transform(psi2, m1, m2, alpha)
        assert np.allclose(phi2, phi, atol=1e-12)


def test_infeasible_pair_rejected():
    pair = DualPair(np.zeros(2), np.full(1, 100.0), 1.0)
    with pytest.raises(DomainError):
        dual_value(HALF_HALF, point_mass(0.0), pair)


# -- Lipschitz witnesses --------------------------------------------------------

def test_lp_dual_witness_matches_d1(rng):
    for _ in range(10):
        m1 = random_measure(rng, max_atoms=12)
        m2 = random_measure(rng, max_atoms=12)
        d1 = wasserstein(m1, m2, 1.0)
        pair = dual_ascent(m1, m2, 1.0)
        h1 = lipschitz_witness_values(pair.psi_values, m1, m1.atoms)
        h2 = lipschitz_witness_values(pair.psi_values, m1, m2.atoms)
        witness = abs(float(np.sum(h2 * m2.weights) - np.sum(h1 * m1.weights)))
        assert witness <= d1 + 1e-9
        assert witness == pytest.approx(d1, abs=1e-6)
        # the envelope is 1-Lipschitz wherever we sample it
        ts = np.linspace(m1.atoms[0] - 1.0, m1.atoms[-1] + 1.0, 101)
        hs = lipschitz_witness_values(pair.psi_values, m1, ts)
        assert np.max(np.abs(np.diff(hs))) <= np.diff(ts)[0] + 1e-12


def test_tent_function_shape():
    ts = np.array([-2.0, 0.0, 1.0, 4.0])
    vals = tent_function(ts, 1.0, 2.0)
    assert np.allclose(vals, [0.0, 1.0, 2.0, 0.0])
    # 1-Lipschitz
    grid = np.linspace(-5, 5, 201)
    tv = tent_function(grid, 1.0, 2.0)
    assert np.max(np.abs(np.diff(tv))) <= np.diff(grid)[0] + 1e-12


def test_coupling_csv(tmp_path, rng):
    m1 = random_measure(rng, max_atoms=6)
    m2 = random_measure(rng, max_atoms=6)
    coupling, _ = optimal_coupling_lp(m1, m2, 1.0)
    path = tmp_path / "coupling.csv"
    save_coupling_csv(coupling, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,xi,yj,w"
    total = sum(float(line.split(",")[4]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def _dual_instances():
    """The draws of the dual-ascent tests above, then a seeded battery:
    1-39 atoms per side, spreads 0.1-10, alpha in {1, 1.5, 2, 3}."""
    for count, max_atoms, alphas in ((15, 10, (1.0, 2.0)), (10, 15, (1.0, 2.0)),
                                     (10, 12, (1.0,))):
        rng = np.random.default_rng(20260819)
        for _ in range(count):
            m1 = random_measure(rng, max_atoms=max_atoms)
            m2 = random_measure(rng, max_atoms=max_atoms)
            for alpha in alphas:
                yield m1, m2, alpha
    rng = np.random.default_rng(6)
    for _ in range(400):
        pair = []
        for _ in range(2):
            n = int(rng.integers(1, 40))
            atoms = np.unique(rng.normal(rng.uniform(-5, 5),
                                         rng.uniform(0.1, 10.0), n))
            pair.append(sorted_measure(atoms, rng.dirichlet(np.ones(atoms.size))))
        yield pair[0], pair[1], float(rng.choice([1.0, 1.5, 2.0, 3.0]))


def test_dual_ascent_is_the_first_round_of_the_reference_loop():
    for m1, m2, alpha in _dual_instances():
        psi, phi, rounds = oracles.dual_ascent_reference(m1, m2, alpha)
        pair = dual_ascent(m1, m2, alpha)
        assert rounds == 1
        assert np.array_equal(pair.psi_values, psi)
        assert np.array_equal(pair.phi_values, phi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_displacements_beyond_the_float_range_are_domain_errors():
    far = (point_mass(-1e308), point_mass(1e308))
    with pytest.raises(DomainError, match="displacements must be finite"):
        wasserstein(*far, 1.0)
    with pytest.raises(DomainError, match="displacements must be finite"):
        wasserstein_inf(*far)
    with pytest.raises(DomainError, match="displacements must be finite"):
        optimal_coupling_lp(*far, 2.0)
    assert wasserstein(point_mass(-1e307), point_mass(1e307), 2.0) == 2e307


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cost_matrix_overflow_is_a_domain_error():
    near, far = point_mass(0.0), point_mass(1e200)
    with pytest.raises(DomainError, match="overflows"):
        optimal_coupling_lp(near, far, 2.0)
    with pytest.raises(DomainError, match="overflows"):
        c_transform(np.zeros(1), near, far, 2.0)
    with pytest.raises(DomainError, match="overflows"):
        c_transform_upper(np.zeros(1), far, near, 2.0)
    with pytest.raises(DomainError, match="overflows"):
        feasibility_violation(near, far, DualPair([0.0], [0.0], 2.0))
    with pytest.raises(DomainError, match="overflows"):
        Coupling([0.0], [1e200], [[1.0]]).cost(2.0)
