"""Bound constants, relation checks, report plumbing, and the demo trace."""

import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from quncert import bounds, observables
from quncert.bounds import (DEMO_GRID, K, K_tilde, VerificationReport,
                            c_alpha_beta, c_from_ground_energy,
                            demonstrate_sharp_marginal_divergence,
                            ground_energy, inputs_hash, report_to_dict,
                            reports_to_csv, reports_to_json, run_suite,
                            verify_connections, verify_covariant_error_ur,
                            verify_covariant_resolution_ur, verify_metric_ur,
                            verify_noise_ur, verify_overall_width_ur,
                            verify_preparation_ur)
from quncert.exceptions import DomainError
from quncert.measures import (PiecewiseLinearMap, convolve, gaussian_measure,
                              overall_width, point_mass, pushforward,
                              two_point)
from quncert.metrics import (default_probe_config, gross_error_bar_width,
                             resolution_width)
from quncert.observables import (CovariantMarginal, SharpPosition,
                                 SmearedMomentum, SmearedPosition,
                                 moment_stats)
from quncert.states import (DEFAULT_GRID, UR_ENSEMBLE_GRID, GridSpec,
                            MixedState, PhasePoint, _cell_state,
                            ground_state, make_box, make_gaussian,
                            position_distribution, random_ensemble,
                            weyl_translate)

GRID = GridSpec.symmetric(16.0, 512)
COV_GRID = GridSpec.symmetric(32.0, 2048)


def _gauss(center=0.0, momentum=0.0, sigma=1.0, grid=GRID, hbar=1.0):
    return MixedState.pure(make_gaussian(grid, center, momentum, sigma, hbar))


# -- confidence constants ------------------------------------------------------------

class TestConfidenceConstants:
    def test_diagonal_value(self):
        assert K(0.05, 0.05) == pytest.approx(0.81, abs=1e-12)

    def test_zero_noise_limit(self):
        assert K(0.0, 0.0) == 1.0
        assert K_tilde(0.0, 0.0) == 1.0

    def test_domain_errors(self):
        for bad in [(0.5, 0.5), (0.9, 0.2), (-0.1, 0.2), (0.2, -0.1)]:
            with pytest.raises(DomainError):
                K(*bad)
            with pytest.raises(DomainError):
                K_tilde(*bad)

    def test_dominates_simpler_constant_on_lattice(self):
        pairs = [(e1, e2)
                 for e1 in np.linspace(0.0, 0.85, 12)
                 for e2 in np.linspace(0.0, 0.85, 12)
                 if e1 + e2 < 0.98]
        assert len(pairs) >= 50
        for e1, e2 in pairs:
            assert K(e1, e2) >= K_tilde(e1, e2) - 1e-15

    def test_diagonal_identity_machine_precision(self):
        for e in np.linspace(0.0, 0.49, 50):
            assert abs(K(e, e) - (1.0 - 2.0 * e) ** 2) <= 5e-16

    def test_off_diagonal_pair_recomputed(self):
        # direct evaluation: (sqrt(0.9*0.8) - sqrt(0.1*0.2))^2
        #   = 0.72 + 0.02 - 2*sqrt(0.0144) = 0.74 - 0.24 = 0.5 exactly
        assert K(0.1, 0.2) == pytest.approx(0.5, abs=1e-12)
        assert K_tilde(0.1, 0.2) == pytest.approx(0.49, abs=1e-12)
        assert K(0.1, 0.2) > K_tilde(0.1, 0.2)


# -- deviation-product constants ------------------------------------------------------------

class TestDeviationConstants:
    def test_c22_from_solver(self):
        assert c_alpha_beta(2.0, 2.0) == pytest.approx(0.5, abs=1e-6)

    def test_forced_unit_energy_identity(self):
        assert c_from_ground_energy(2.0, 2.0, 1.0) == 0.5

    def test_formula_domain(self):
        with pytest.raises(DomainError):
            c_from_ground_energy(0.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            c_from_ground_energy(2.0, 0.9, 1.0)
        with pytest.raises(DomainError):
            c_from_ground_energy(2.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            c_from_ground_energy(2.0, 2.0, -1.0)

    def test_c11_dense_cross_check(self):
        lattice = GridSpec.symmetric(16.0, 256)
        g_solver, _ = ground_state(1.0, 1.0, lattice, boundary_tol=1e-2)
        g_dense = oracles.dense_ground_energy(1.0, 1.0, lattice.x0,
                                              lattice.dx, lattice.n)
        c_solver = c_from_ground_energy(1.0, 1.0, g_solver)
        c_dense = c_from_ground_energy(1.0, 1.0, g_dense)
        assert abs(c_solver - c_dense) < 1e-5

    def test_g12_against_airy_oracle(self):
        assert abs(ground_energy(1.0, 2.0)
                   - oracles.airy_ground_energy_12()) < 2e-4

    def test_ground_energy_solves_once_per_argument_list(self, monkeypatch):
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            return ground_state(*args, **kwargs)

        monkeypatch.setattr(bounds, "ground_state", spy)
        ground_energy.cache_clear()
        assert ground_energy(2.0, 2.0) == ground_energy(2.0, 2.0)
        assert len(solves) == 1

    def test_exponent_swap_duality(self):
        assert abs(c_alpha_beta(1.0, 2.0) - c_alpha_beta(2.0, 1.0)) < 5e-4


# -- report type ------------------------------------------------------------

class TestVerificationReport:
    def test_contradictory_flags_rejected(self):
        with pytest.raises(DomainError):
            VerificationReport("x", 1.0, 2.0, -1.0, True, "pass", 0.0, {})
        with pytest.raises(DomainError):
            VerificationReport("x", 2.0, 1.0, 1.0, True, "violation", 0.0, {})
        with pytest.raises(DomainError):
            VerificationReport("x", -1.0, 1.0, -2.0, False, "violation",
                               0.0, {})
        with pytest.raises(DomainError):
            VerificationReport("x", 1.0, 1.0, 0.0, True, "maybe", 0.0, {})

    def test_pass_flag_recomputable(self):
        reports = [
            verify_preparation_ur(_gauss(sigma=0.8), 2.0, 2.0),
            verify_overall_width_ur(_gauss(), 0.05, 0.05),
            verify_noise_ur(_gauss(sigma=math.sqrt(0.5))),
        ]
        for r in reports:
            assert r.lhs >= 0.0 and r.rhs >= 0.0
            assert r.slack == r.lhs - r.rhs
            assert r.passed == (r.slack >= -r.tolerance)
            assert r.passed == (r.verdict == "pass")


# -- preparation relation ------------------------------------------------------------

class TestPreparationRelation:
    def test_gaussian_saturates_quadratic_pair(self):
        r = verify_preparation_ur(_gauss(sigma=1.0), 2.0, 2.0)
        assert r.relation == "preparation-deviation-product"
        assert r.passed
        assert abs(r.slack) <= r.tolerance
        assert r.rhs == pytest.approx(0.5, abs=1e-6)

    def test_translated_ground_state_saturates(self):
        _, wf = ground_state(2.0, 2.0, GridSpec.symmetric(12.0, 1024))
        moved = weyl_translate(wf, PhasePoint(1.2, -0.7))
        r = verify_preparation_ur(moved, 2.0, 2.0)
        assert r.passed
        assert abs(r.slack) <= r.tolerance

    def test_random_ensemble_passes_three_pairs(self):
        ensemble = random_ensemble(UR_ENSEMBLE_GRID, 10, seed=3)
        for alpha, beta in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
            for s in ensemble:
                r = verify_preparation_ur(s, alpha, beta)
                assert r.passed, (alpha, beta, r.slack)


# -- overall-width relation ------------------------------------------------------------

class TestOverallWidthRelation:
    def test_gaussian_positive_slack(self):
        r = verify_overall_width_ur(_gauss(sigma=1.0), 0.05, 0.05)
        assert r.relation == "overall-width-product"
        assert r.passed
        assert r.slack > 0.0
        assert r.rhs == pytest.approx(2.0 * math.pi * 0.81, rel=1e-12)

    def test_box_sweep_passes(self):
        for width, boost in [(1.0, 0.0), (3.0, 0.0), (2.0, 1.5)]:
            s = MixedState.pure(make_box(GRID, 0.0, width, boost))
            for eps in [(0.05, 0.05), (0.1, 0.2)]:
                r = verify_overall_width_ur(s, *eps)
                assert r.passed, (width, boost, eps)

    def test_confidence_domain_propagates(self):
        with pytest.raises(DomainError):
            verify_overall_width_ur(_gauss(), 0.6, 0.4)


# -- covariant width relations ------------------------------------------------------------

class TestCovariantWidthRelations:
    def test_gaussian_device_sweep(self):
        ratios = []
        for sigma in (0.5, 1.0, 2.0):
            tau = _gauss(sigma=sigma, grid=COV_GRID)
            err = verify_covariant_error_ur(tau, 0.05, 0.05)
            res = verify_covariant_resolution_ur(tau, 0.05, 0.05)
            assert err.relation == "covariant-bias-free-error-product"
            assert res.relation == "covariant-resolution-product"
            assert err.passed and res.passed
            assert err.lhs == res.lhs  # same width product by covariance
            ratios.append(err.lhs / err.rhs)
        # scale invariance: the width product of the Gaussian family is
        # sigma-independent, so the margin over the bound is a constant,
        # 2*1.96^2/(pi*0.81) ~ 1.51 in the continuum, minus up to one lattice
        # cell per window edge
        assert min(ratios) > 1.0
        assert max(ratios) - min(ratios) < 0.08
        assert 1.40 < min(ratios) < 1.55

    def test_planck_rescaling_preserves_verdicts(self):
        for sigma in (0.5, 1.0, 2.0):
            tau1 = _gauss(sigma=sigma, grid=COV_GRID, hbar=1.0)
            tau2 = _gauss(sigma=sigma, grid=COV_GRID, hbar=2.0)
            e1 = verify_covariant_error_ur(tau1, 0.05, 0.05, hbar=1.0)
            e2 = verify_covariant_error_ur(tau2, 0.05, 0.05, hbar=2.0)
            assert e2.rhs == pytest.approx(2.0 * e1.rhs, rel=1e-12)
            assert e2.lhs == pytest.approx(2.0 * e1.lhs, rel=1e-12)
            assert e2.passed == e1.passed
            n1 = verify_noise_ur(tau1, hbar=1.0)
            n2 = verify_noise_ur(tau2, hbar=2.0)
            assert n2.rhs == pytest.approx(2.0 * n1.rhs, rel=1e-12)
            assert n2.lhs == pytest.approx(2.0 * n1.lhs, rel=1e-12)
            assert n2.passed == n1.passed
        m1 = verify_metric_ur(_gauss(grid=COV_GRID, hbar=1.0), 1.0, 1.0,
                              hbar=1.0)
        m2 = verify_metric_ur(_gauss(grid=COV_GRID, hbar=2.0), 1.0, 1.0,
                              hbar=2.0)
        assert m2.rhs == pytest.approx(2.0 * m1.rhs, rel=1e-12)
        assert m2.lhs == pytest.approx(2.0 * m1.lhs, rel=1e-12)


# -- noise relation ------------------------------------------------------------

class TestNoiseRelation:
    def test_vacuum_attains_bound(self):
        r = verify_noise_ur(_gauss(sigma=math.sqrt(0.5), grid=COV_GRID))
        assert r.relation == "covariant-noise-product"
        assert r.passed
        assert abs(r.slack) <= 1e-5

    def test_sigma_sweep_constant_product(self):
        for sigma in (0.5, 1.0, 2.0):
            r = verify_noise_ur(_gauss(sigma=sigma, grid=COV_GRID))
            assert r.lhs == pytest.approx(0.5, abs=1e-5)

    def test_displaced_device_strictly_larger(self):
        r = verify_noise_ur(_gauss(center=2.0, momentum=1.0, grid=COV_GRID))
        # second moments: (1 + 4) on one axis, (1/4 + 1) on the other
        assert r.lhs == pytest.approx(math.sqrt(5.0 * 1.25), abs=1e-4)
        assert r.slack > 1.0


# -- metric relation ------------------------------------------------------------

class TestMetricRelation:
    def test_gaussian_closed_form_value(self):
        # the mean-absolute-offset sums carry an O(step^2) kink-quadrature
        # bias, so the check runs on the wide fine-momentum grid
        r = verify_metric_ur(_gauss(sigma=1.0, grid=UR_ENSEMBLE_GRID),
                             1.0, 1.0)
        assert r.relation == "covariant-distance-product"
        assert r.passed
        # mean absolute offsets: sigma*sqrt(2/pi) times (hbar/2sigma)*sqrt(2/pi)
        assert r.lhs == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert r.rhs == pytest.approx(c_alpha_beta(1.0, 1.0), rel=1e-12)

    def test_degenerate_smearing_flags_conjugate_infinite(self):
        cell = MixedState.pure(_cell_state(GRID, 0.0))
        r = verify_metric_ur(cell, 1.0, 1.0, method="closed_form")
        assert math.isinf(r.lhs)
        assert r.passed
        assert r.inputs["factors"][0] == 0.0

    def test_identity_without_certified_divergence_rejected(self):
        cell = MixedState.pure(_cell_state(GRID, 0.0))
        ensemble = [MixedState.pure(make_box(GRID, 0.0, 1.0))]
        with pytest.raises(DomainError):
            verify_metric_ur(cell, 1.0, 1.0, ensemble=ensemble,
                             method="estimator")

    def test_estimator_with_scan_passes(self):
        ensemble = [_gauss(center=0.5)]
        r = verify_metric_ur(_gauss(sigma=1.0), 1.0, 1.0, ensemble=ensemble,
                             method="estimator")
        assert r.passed
        assert r.lhs >= r.rhs - r.tolerance

    def test_estimator_shortfall_is_inconclusive(self):
        weak = [_gauss(sigma=2.0)]
        r = verify_metric_ur(_gauss(sigma=1.0), 2.0, 2.0, ensemble=weak,
                             method="estimator", divergence_scan=False)
        assert not r.passed
        assert r.verdict == "inconclusive-lower-bound"
        assert r.verdict != "violation"

    def test_method_and_ensemble_validation(self):
        with pytest.raises(DomainError):
            verify_metric_ur(_gauss(), 1.0, 1.0, method="guess")
        with pytest.raises(DomainError):
            verify_metric_ur(_gauss(), 1.0, 1.0, method="estimator")


# -- finiteness connections ------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_connections():
    """(instances, grid, reports) of the connection checks in run_suite(0)."""
    calls = []

    def recording(instances, grid, **kwargs):
        reports = verify_connections(instances, grid, **kwargs)
        calls.append((instances, grid, reports))
        return reports

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "verify_connections", recording)
        run_suite(0)
    (call,) = calls
    return call


@pytest.mark.parametrize("call, message", [
    (lambda: observables.map_from_spec({"kind": "bounded_range",
                                        "half_range": 0}),
     "half_range must be positive"),
    (lambda: resolution_width(SharpPosition(), 0.1, GRID, method="x"),
     "unknown method 'x'"),
    # the error bar of a two-point smearing 20 apart is infinite
    (lambda: verify_connections([SmearedPosition(two_point(-10.0, 10.0))],
                                DEFAULT_GRID),
     "connection checks need finite error bars"),
], ids=["bounded range 0", "unknown method", "infinite error bar"])
def test_device_and_relation_inputs_reject_malformed_values(call, message):
    with pytest.raises(DomainError, match=message) as caught:
        call()
    assert caught.type is DomainError


class TestConnections:
    def test_suite_bars_are_the_gross_limit(self, suite_connections):
        # the checks sweep only delta = 2 steps, the last sweep of
        # gross_error_bar_width, so their bar is its value bit for bit
        instances, grid, reports = suite_connections
        assert grid == DEFAULT_GRID and len(instances) == 4
        gross = {}
        for r in reports:
            key = (r.inputs["instance"], r.inputs["eps"])
            if key not in gross:
                obs = instances[key[0]]
                cfg = default_probe_config(grid, key[1], obs.axis, seed=0)
                gross[key] = gross_error_bar_width(obs, obs.sharp(), cfg, grid)
            # a report exists only for a finite bar
            assert not gross[key].infinite_flag
            assert r.inputs["gross_width"] == gross[key].value
        assert sorted(gross) == [(i, eps) for i in range(4)
                                 for eps in (0.05, 0.1, 0.25)]

    def test_suite_checks_convolve_each_probe_once(self, monkeypatch,
                                                   suite_connections):
        # 4 instances x 7 centers x 4 probes: one sweep of probe laws per
        # instance, read at every eps
        instances, grid, _ = suite_connections
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return convolve(*args, **kwargs)

        monkeypatch.setattr(observables, "convolve", counting)
        verify_connections(instances, grid)
        assert len(calls) == 4 * 7 * 4

    def test_report_batch_structure_and_values(self):
        instances = [
            SmearedPosition(gaussian_measure(0.0, 1.0)),
            SmearedPosition(point_mass(2.0)),
            SmearedPosition(point_mass(0.0)),
        ]
        reports = verify_connections(instances, GRID, eps_values=(0.1,),
                                     alphas=(1.0, 2.0))
        assert len(reports) == 9
        assert all(r.passed for r in reports)
        by_instance = {}
        for r in reports:
            by_instance.setdefault(r.inputs["instance"], []).append(r)
        # point smearing at 2: distance bound 2*2/0.1 = 40, noise bound
        # 2*2*(1+sqrt(20)), both against a gross bar of 2*|offset| = 4
        delta2 = by_instance[1]
        dist1 = next(r for r in delta2
                     if r.relation == "finite-distance-errorbar-bound"
                     and r.inputs["alpha"] == 1.0)
        assert dist1.lhs == pytest.approx(40.0, rel=1e-12)
        assert dist1.rhs == pytest.approx(4.0, abs=2.0 * GRID.dx)
        noise = next(r for r in delta2
                     if r.relation == "finite-noise-errorbar-bound")
        assert noise.lhs == pytest.approx(4.0 * (1.0 + math.sqrt(20.0)),
                                          rel=1e-12)
        assert noise.rhs == pytest.approx(4.0, abs=2.0 * GRID.dx)
        # unsmeared identity: all bounds zero, gross bar at lattice scale
        identity = by_instance[2]
        for r in identity:
            assert r.lhs == 0.0
            assert r.rhs <= 4.0 * GRID.dx
            assert r.passed

    def test_distance_bound_at_large_alpha_is_finite(self):
        mu = gaussian_measure(0.0, 1.0)
        reports = verify_connections([SmearedPosition(mu)], GRID,
                                     eps_values=(0.1,), alphas=(400.0,))
        dist = next(r for r in reports
                    if r.relation == "finite-distance-errorbar-bound")
        want = (2.0 / 0.1 ** (1.0 / 400.0)
                * oracles.log_alpha_norm(mu.atoms, mu.weights, 400.0))
        assert dist.lhs == pytest.approx(want, rel=1e-13)
        assert dist.passed

    def test_sharp_instance_rejected(self):
        with pytest.raises(DomainError):
            verify_connections([SharpPosition()], GRID)

    def test_momentum_and_covariant_instances(self):
        # a coarse generator grid keeps the covariant smearings short; its
        # momentum step matches DEFAULT_GRID's (same span)
        tau = make_gaussian(GridSpec.symmetric(16.0, 128), 0.0, 0.0, 1.0)
        state = _gauss(0.5, -1.0, 0.8, grid=DEFAULT_GRID)
        # (observable, sharp mean, smearing mean, smearing variance)
        cases = [
            (SmearedMomentum(two_point(-0.5, 1.0, 0.4)), -1.0, 0.4, 0.54),
            (CovariantMarginal(tau, "position"), 0.5, 0.0, 1.0),
            (CovariantMarginal(tau, "momentum"), -1.0, 0.0, 0.25),
        ]
        for obs, mean, noise_mean, noise_var in cases:
            st = moment_stats(obs, state)
            assert st.first_moment_mean == pytest.approx(mean + noise_mean,
                                                         abs=1e-9)
            assert (st.second_moment_mean - st.first_moment_sq_mean
                    == pytest.approx(noise_var, abs=1e-9))
            est = resolution_width(obs, 0.1, DEFAULT_GRID,
                                   method="closed_form")
            assert est.value == overall_width(obs.smearing(), 0.1)
            reports = verify_connections([obs], DEFAULT_GRID,
                                         eps_values=(0.1,))
            assert len(reports) == 3
            assert all(r.passed for r in reports)
            assert all(r.inputs["axis"] == obs.axis for r in reports)


# -- sharp-marginal divergence demo ------------------------------------------------------------

class TestDivergenceDemo:
    def test_trace_structure_and_escape(self):
        trace = demonstrate_sharp_marginal_divergence()
        assert trace["confidence_threshold"] == pytest.approx(0.9)
        assert trace["grid"] == [DEMO_GRID.x0, DEMO_GRID.dx, DEMO_GRID.n]
        unboosted = trace["unboosted"]
        assert set(unboosted) == {"2", "4", "6"}
        assert unboosted["6"] > 0.99
        assert unboosted["4"] > 0.95
        boosts = [row["boost"] for row in trace["sweep"]]
        assert boosts == [4, 8, 16]
        for w in ("2", "4", "6"):
            masses = [row["captured"][w] for row in trace["sweep"]]
            assert all(m < 0.9 for m in masses)  # below the threshold
            assert masses[0] > masses[1] > masses[2]
            assert masses[-1] < 1e-6
        for row in trace["sweep"]:
            assert row["d1_lower_bound"] >= row["boost"] - 2.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            demonstrate_sharp_marginal_divergence(eps2=1.0)


# -- suite and sinks ------------------------------------------------------------

@pytest.fixture(scope="module")
def suite():
    return run_suite(seed=7)


class TestSuiteAndSinks:
    def test_suite_green_and_invariants(self, suite):
        assert len(suite) == 68
        for r in suite:
            assert r.passed, (r.relation, r.slack, r.tolerance)
            assert r.slack == r.lhs - r.rhs
            assert r.passed == (r.slack >= -r.tolerance)
        relations = {r.relation for r in suite}
        assert relations == {
            "preparation-deviation-product",
            "overall-width-product",
            "covariant-bias-free-error-product",
            "covariant-resolution-product",
            "covariant-noise-product",
            "covariant-distance-product",
            "finite-distance-errorbar-bound",
            "finite-noise-errorbar-bound",
        }

    def test_suite_deterministic(self, suite):
        again = run_suite(seed=7)
        assert reports_to_json(again) == reports_to_json(suite)
        assert reports_to_csv(again) == reports_to_csv(suite)

    def test_json_sink_fields(self, suite):
        rows = json.loads(reports_to_json(suite))
        assert len(rows) == len(suite)
        for row in rows:
            assert set(row) == {"relation", "lhs", "rhs", "slack", "passed",
                                "verdict", "tolerance", "inputs"}
            assert isinstance(row["lhs"], (int, float, str))

    def test_csv_sink_shape(self, suite):
        text = reports_to_csv(suite)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["relation", "lhs", "rhs", "slack", "passed",
                           "verdict", "tolerance", "inputs_hash", "seed",
                           "grid"]
        assert len(rows) == len(suite) + 1
        for row in rows[1:]:
            assert row[4] in ("true", "false")
            assert re.fullmatch(r"[0-9a-f]{12}", row[7])
            float(row[1]), float(row[2]), float(row[3])  # parseable sides

    def test_inputs_hash_deterministic(self):
        payload = {"b": 2.0, "a": np.float64(1.5), "c": [1, 2.5]}
        first = inputs_hash(payload)
        assert first == inputs_hash({"a": 1.5, "c": [1, 2.5], "b": 2.0})
        assert re.fullmatch(r"[0-9a-f]{12}", first)

    def test_report_dict_handles_nonfinite(self):
        cell = MixedState.pure(_cell_state(GRID, 0.0))
        r = verify_metric_ur(cell, 1.0, 1.0)
        row = report_to_dict(r)
        assert row["lhs"] == "inf"
        json.dumps(row)


def test_resolution_report_is_the_error_report_renamed():
    tau = _gauss(sigma=0.5, grid=COV_GRID)
    err = verify_covariant_error_ur(tau, 0.05, 0.1)
    res = verify_covariant_resolution_ur(tau, 0.05, 0.1)
    assert res.relation == "covariant-resolution-product"
    assert dataclasses.replace(res, relation=err.relation) == err


def test_suite_relation_ids_in_order():
    covariant = ["covariant-bias-free-error-product",
                 "covariant-resolution-product", "covariant-noise-product"]
    connection = ["finite-distance-errorbar-bound"] * 2 \
        + ["finite-noise-errorbar-bound"]
    expected = (["preparation-deviation-product"] * 12
                + ["overall-width-product"] * 8 + covariant * 3
                + ["covariant-noise-product"]
                + ["covariant-distance-product"] * 2 + connection * 12)
    assert len(expected) == 68
    assert [r.relation for r in run_suite(0)] == expected


@pytest.mark.parametrize("check", [
    lambda s: verify_preparation_ur(s, 2.0, 2.0),
    lambda s: verify_overall_width_ur(s, 0.1, 0.2),
    lambda s: verify_covariant_error_ur(s, 0.05, 0.05),
    lambda s: verify_covariant_resolution_ur(s, 0.05, 0.05),
    lambda s: verify_metric_ur(s, 1.0, 1.0),
    lambda s: verify_noise_ur(s),
], ids=["preparation", "overall-width", "covariant-error",
        "covariant-resolution", "metric", "noise"])
def test_checks_agree_on_a_wavefunction_and_its_mixture_of_one(check):
    wf = make_gaussian(COV_GRID, 0.0, 0.0, 0.8)
    assert report_to_dict(check(wf)) == report_to_dict(check(MixedState.pure(wf)))


def test_state_summaries_tell_states_apart():
    narrow, wide = (make_gaussian(COV_GRID, 0.0, 0.0, sigma)
                    for sigma in (0.7, 1.0))
    for check in (lambda s: verify_preparation_ur(s, 2.0, 2.0),
                  verify_noise_ur):
        first, second = check(narrow), check(wide)
        assert first.inputs != second.inputs
        assert inputs_hash(first.inputs) != inputs_hash(second.inputs)
    assert verify_noise_ur(narrow).inputs == \
        verify_noise_ur(make_gaussian(COV_GRID, 0.0, 0.0, 0.7)).inputs


def test_state_summary_bytes_repeat_across_processes():
    argv = [sys.executable, "-m", "quncert.cli", "verify", "--relation",
            "preparation", "--state", '{"family":"gaussian","sigma":0.7}']
    runs = [subprocess.run(argv, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    default = subprocess.run(argv[:-2], capture_output=True, check=True)
    assert default.stdout != runs[0]


def test_demo_windows_count_both_edge_atoms():
    # the guess law has an atom about 1e-12 below each window edge, and a
    # closed window counts both; the brute-force sum allows a 1e-9 slack,
    # far below the atom spacing
    profile = make_gaussian(DEMO_GRID, 0.0, 0.0, 1.0)
    scaling = PiecewiseLinearMap([-1.0, 1.0], [-0.1, 0.1])
    guess = convolve(pushforward(position_distribution(profile), scaling),
                     gaussian_measure(0.0, 1.0))
    trace = demonstrate_sharp_marginal_divergence()
    rows = [(0.0, trace["unboosted"])] + [(float(row["boost"]), row["captured"])
                                          for row in trace["sweep"]]
    for center, captured in rows:
        for w, mass in captured.items():
            inside = np.abs(guess.atoms - center) <= 0.5 * float(w) + 1e-9
            # abs: the cumulative-sum rounding of a window far in the tail
            assert mass == pytest.approx(float(np.sum(guess.weights[inside])),
                                         rel=1e-9, abs=1e-12)


def test_degenerate_momentum_smearing_flags_position_infinite():
    # mirror of the position-cell case: the momentum margin is sharp and
    # the position smearing fills the lattice, mean |q| = span / 4
    cell = _cell_state(GRID, 0.0, "momentum")
    r = verify_metric_ur(cell, 1.0, 1.0, method="closed_form")
    assert r.inputs["factors"] == pytest.approx([8.0, 0.0], abs=1e-9)
    assert r.inputs["factors"][1] == 0.0
    assert math.isinf(r.lhs)
    assert r.passed


def test_momentum_identity_without_certified_divergence_rejected():
    cell = _cell_state(GRID, 0.0, "momentum")
    ensemble = [make_box(GRID, 0.0, 1.0)]
    with pytest.raises(DomainError):
        verify_metric_ur(cell, 1.0, 1.0, ensemble=ensemble,
                         method="estimator")


def test_estimator_rejects_an_ensemble_on_another_grid():
    # the divergence cutoff comes from the ensemble's grid, so it must be tau's
    ensemble = [_gauss(center=0.5), _gauss(center=0.5, grid=COV_GRID)]
    with pytest.raises(DomainError, match="grid"):
        verify_metric_ur(_gauss(sigma=1.0), 1.0, 1.0, ensemble=ensemble,
                         method="estimator")
