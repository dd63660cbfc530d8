"""Uncertainty-relation constants and machine-checkable verification reports.

Covers the deviation-product bound with its ground-energy constant, the
overall-width bound with the Uffink constant, the covariant error and
resolution trade-offs, the observable-distance trade-off, the noise-error
trade-off, the two finiteness connections between error bars and the other
metrics, and the sharp-marginal divergence demonstration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from io import StringIO
from typing import Sequence

import numpy as np

from .exceptions import DomainError
from .measures import (GridMeasure, Interval, PiecewiseLinearMap,
                       alpha_deviation, convolve, gaussian_measure,
                       overall_width, point_mass, pushforward, two_point,
                       uniform_measure)
from .metrics import (default_probe_config, delta_alpha_smeared_closed_form,
                      divergence_cutoff, error_bar_width,
                      observable_distance)
from .observables import (CovariantMarginal, Observable, Sharp, Smeared,
                          SmearedPosition, covariant_marginals)
from .states import (COVARIANT_GRID, UR_ENSEMBLE_GRID, GridSpec, State,
                     _check_exponents, ground_state, make_gaussian,
                     momentum_distribution, position_distribution, solver_grid,
                     test_ensemble)
from .transport import tent_function

# -- constants ------------------------------------------------------------------

def _check_eps_pair(eps1: float, eps2: float) -> None:
    if eps1 < 0.0 or eps2 < 0.0 or not (eps1 + eps2 < 1.0):
        raise DomainError("need eps1, eps2 >= 0 with eps1 + eps2 < 1")


def K(eps1: float, eps2: float) -> float:
    """Sharp constant of the overall-width bound 2*pi*hbar*K."""
    _check_eps_pair(eps1, eps2)
    root = math.sqrt((1.0 - eps1) * (1.0 - eps2)) - math.sqrt(eps1 * eps2)
    return root * root


def K_tilde(eps1: float, eps2: float) -> float:
    """Simpler, weaker variant of K; the two agree at eps1 == eps2."""
    _check_eps_pair(eps1, eps2)
    return (1.0 - eps1 - eps2) ** 2


def c_from_ground_energy(alpha: float, beta: float, g: float) -> float:
    """Deviation-product constant from the ground energy of |Q|^a + |P|^b."""
    _check_exponents(alpha, beta)
    if not g > 0.0:
        raise DomainError("ground energy must be positive")
    # single-root grouping keeps dyadic cases exact (e.g. a = b = 2, g = 1)
    return (alpha ** alpha * beta ** beta
            * (g / (alpha + beta)) ** (alpha + beta)) ** (1.0 / (alpha * beta))


# |P|-type kinetic terms have power-law bound-state tails: solver_grid gives
# them a wide box and a fine momentum lattice (the kink of the kinetic symbol
# at 0 biases the lattice energy by O(dp^2)), and their edge gate is relaxed
_HEAVY_TAIL_BOUNDARY_TOL = 1e-3

_ground_cache: dict[tuple, float] = {}


def ground_energy(alpha: float, beta: float, grid: GridSpec | None = None,
                  tol: float = 1e-6,
                  boundary_tol: float | None = None) -> float:
    """Cached ground energy of |Q|^alpha + |P|^beta; grid solver_grid(beta)."""
    if grid is None:
        grid = solver_grid(beta)
    if boundary_tol is None:
        boundary_tol = _HEAVY_TAIL_BOUNDARY_TOL if beta == 1.0 else 1e-8
    key = (float(alpha), float(beta), grid, float(tol), float(boundary_tol))
    if key not in _ground_cache:
        g, _ = ground_state(alpha, beta, grid, tol=tol,
                            boundary_tol=boundary_tol)
        _ground_cache[key] = g
    return _ground_cache[key]


def c_alpha_beta(alpha: float, beta: float) -> float:
    """Deviation-product constant computed from the ground-state solver."""
    return c_from_ground_energy(alpha, beta, ground_energy(alpha, beta))


# -- reports -----------------------------------------------------------------------

_VERDICTS = ("pass", "violation", "inconclusive-lower-bound")


@dataclass(frozen=True)
class VerificationReport:
    """One checked inequality: lhs >= rhs - tolerance."""

    relation: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    verdict: str
    tolerance: float
    inputs: dict

    def __post_init__(self) -> None:
        if self.lhs < 0.0 or self.rhs < 0.0:
            raise DomainError("both sides of a report must be nonnegative")
        if self.verdict not in _VERDICTS:
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.passed != (self.slack >= -self.tolerance):
            raise DomainError("pass flag contradicts slack and tolerance")
        if self.passed != (self.verdict == "pass"):
            raise DomainError("verdict contradicts the pass flag")


def _make_report(relation: str, lhs: float, rhs: float, tolerance: float,
                 inputs: dict, lhs_is_lower_bound: bool = False
                 ) -> VerificationReport:
    slack = lhs - rhs
    passed = slack >= -tolerance
    if passed:
        verdict = "pass"
    else:
        # an estimated lhs only certifies its own lower bound: a shortfall is
        # inconclusive, never a witnessed violation
        verdict = ("inconclusive-lower-bound" if lhs_is_lower_bound
                   else "violation")
    return VerificationReport(relation, lhs, rhs, slack, passed, verdict,
                              tolerance, inputs)


def _grid_summary(grid: GridSpec) -> list:
    return [grid.x0, grid.dx, grid.n]


def _state_summary(state: State) -> dict:
    return {"components": len(state.components),
            "grid": _grid_summary(state.grid)}


# -- relation checks ------------------------------------------------------------------

def verify_preparation_ur(state: State, alpha: float, beta: float,
                          hbar: float = 1.0) -> VerificationReport:
    """Deviation product of one state's position/momentum laws against the
    ground-energy constant."""
    lhs = (alpha_deviation(position_distribution(state), alpha)
           * alpha_deviation(momentum_distribution(state, hbar), beta))
    rhs = c_alpha_beta(alpha, beta) * hbar
    inputs = {"alpha": alpha, "beta": beta, "hbar": hbar,
              "state": _state_summary(state)}
    return _make_report("preparation-deviation-product", lhs, rhs,
                        1e-4 * rhs, inputs)


def _width_product(relation: str, s: State, mu: GridMeasure,
                   nu: GridMeasure, eps1: float, eps2: float, hbar: float,
                   role: str) -> VerificationReport:
    """Overall-width product of the laws mu and nu against 2*pi*hbar*K; the
    state s, summarized under inputs[role], sets the lattice tolerance."""
    w1 = overall_width(mu, eps1)
    w2 = overall_width(nu, eps2)
    rhs = 2.0 * math.pi * hbar * K(eps1, eps2)
    tol = 2.0 * s.grid.dx * (w1 + w2)
    inputs = {"eps1": eps1, "eps2": eps2, "hbar": hbar,
              role: _state_summary(s)}
    return _make_report(relation, w1 * w2, rhs, tol, inputs)


def verify_overall_width_ur(state: State, eps1: float, eps2: float,
                            hbar: float = 1.0) -> VerificationReport:
    """Overall-width product of one state's laws against 2*pi*hbar*K."""
    return _width_product("overall-width-product", state,
                          position_distribution(state),
                          momentum_distribution(state, hbar), eps1, eps2, hbar,
                          "state")


def verify_covariant_error_ur(tau: State, eps1: float, eps2: float,
                              hbar: float = 1.0) -> VerificationReport:
    """Bias-free error widths of the two covariant margins (their exact
    closed forms: the overall widths of the smearing measures) against
    2*pi*hbar*K."""
    return _width_product("covariant-bias-free-error-product", tau,
                          *covariant_marginals(tau, hbar), eps1, eps2, hbar,
                          "tau")


def _as_resolution(report: VerificationReport) -> VerificationReport:
    return replace(report, relation="covariant-resolution-product")


def verify_covariant_resolution_ur(tau: State, eps1: float, eps2: float,
                                   hbar: float = 1.0) -> VerificationReport:
    """Resolution widths of the two covariant margins; numerically the same
    product as the bias-free check, reported under its own relation id."""
    return _as_resolution(verify_covariant_error_ur(tau, eps1, eps2, hbar))


def verify_metric_ur(tau: State, alpha: float, beta: float,
                     ensemble: Sequence[State] | None = None,
                     hbar: float = 1.0,
                     method: str = "closed_form",
                     divergence_scan: bool = True) -> VerificationReport:
    """Distance product of the covariant margins from sharp position and
    momentum against the ground-energy constant.

    closed_form evaluates both distances exactly from the smearing measures;
    estimator runs the ensemble lower bound, so a shortfall is inconclusive.
    divergence_scan controls whether the estimator augments the ensemble with
    edge probes; disabling it shows how a weak ensemble degrades the bound.
    A vanishing distance is consistent only with a diverging conjugate
    distance; anything else is rejected.
    """
    if method not in ("closed_form", "estimator"):
        raise DomainError(f"unknown method {method!r}")
    lower = method == "estimator"
    if lower and not ensemble:
        raise DomainError("estimator method needs a probe ensemble")
    if lower and any(s.grid != tau.grid for s in ensemble):
        raise DomainError("the probe ensemble must lie on tau's grid")
    dist, inf, span = [], [], []
    for axis, order in (("position", alpha), ("momentum", beta)):
        marg = CovariantMarginal(tau, axis)
        span.append(tau.grid.n * tau.grid.lattice(axis, hbar)[1])
        if lower:
            est = observable_distance(marg, Sharp(axis), order, ensemble,
                                      hbar, divergence_scan=divergence_scan)
            dist.append(est.value)
            inf.append(est.infinite_flag)
        else:
            dist.append(delta_alpha_smeared_closed_form(marg.smearing(hbar),
                                                        order))
            inf.append(dist[-1] > divergence_cutoff(tau.grid, axis, hbar))
    vanish = [d <= 1e-12 * w for d, w in zip(dist, span)]
    for k in (0, 1):
        # A point-mass smearing forces its Fourier conjugate to fill the whole
        # band, yet the lattice caps the conjugate deviation at ~0.25*span,
        # under the spread threshold; certify that divergence structurally.
        if not lower and vanish[k] and dist[1 - k] > 0.1 * span[1 - k]:
            inf[1 - k] = True
    if any(vanish[k] and not inf[1 - k] for k in (0, 1)):
        raise DomainError(
            "a vanishing distance requires the conjugate distance to diverge")
    lhs = math.inf if any(vanish) else dist[0] * dist[1]
    rhs = c_alpha_beta(alpha, beta) * hbar
    inputs = {"alpha": alpha, "beta": beta, "hbar": hbar, "method": method,
              "tau": _state_summary(tau), "factors": dist}
    return _make_report("covariant-distance-product", lhs, rhs, 1e-4 * rhs,
                        inputs, lhs_is_lower_bound=lower)


def verify_noise_ur(tau: State, hbar: float = 1.0) -> VerificationReport:
    """Global noise-error product of the covariant margins (closed forms:
    root second moments of the smearing measures) against hbar/2."""
    mu, nu = covariant_marginals(tau, hbar)
    lhs = math.sqrt(mu.moment(2)) * math.sqrt(nu.moment(2))
    rhs = 0.5 * hbar
    inputs = {"hbar": hbar, "tau": _state_summary(tau)}
    return _make_report("covariant-noise-product", lhs, rhs, 1e-5 * hbar,
                        inputs)


# -- finiteness connections -------------------------------------------------------

def verify_connections(instances: Sequence[Observable], grid: GridSpec,
                       eps_values: Sequence[float] = (0.05, 0.1, 0.25),
                       alphas: Sequence[float] = (1.0, 2.0),
                       hbar: float = 1.0,
                       seed: int = 0) -> list[VerificationReport]:
    """Gross error bars of smeared instances against the two finiteness
    bounds, from the observable distance and from the noise error.  The
    bar is the error-bar width at delta = 2 lattice steps, the limit that
    gross_error_bar_width reports.  Its probe laws do not depend on eps, so
    each instance computes them once and every eps reads its width from
    them.  Reports take the bound as lhs and the bar as rhs, so a pass
    reads "the bar respects the bound"."""
    reports: list[VerificationReport] = []
    for idx, obs in enumerate(instances):
        if not isinstance(obs, Smeared):
            raise DomainError("connection checks need a smeared observable")
        mu, axis = obs.smearing(hbar), obs.axis
        _, step = grid.lattice(axis, hbar)
        noise = math.sqrt(mu.moment(2))
        for eps in eps_values:
            cfg = default_probe_config(grid, eps, axis, hbar,
                                       delta=2.0 * step, seed=seed)
            gross = error_bar_width(obs, obs.sharp(), cfg, grid, hbar)
            if gross.infinite_flag:
                raise DomainError("connection checks need finite error bars")
            base_inputs = {"instance": idx, "axis": axis, "eps": eps,
                           "hbar": hbar, "grid": _grid_summary(grid),
                           "seed": seed, "gross_width": gross.value}
            for alpha in alphas:
                bound = ((2.0 / eps ** (1.0 / alpha))
                         * delta_alpha_smeared_closed_form(mu, alpha))
                reports.append(_make_report(
                    "finite-distance-errorbar-bound", bound, gross.value,
                    4.0 * step, {**base_inputs, "alpha": alpha}))
            bound = 2.0 * noise * (1.0 + math.sqrt(2.0 / eps))
            reports.append(_make_report(
                "finite-noise-errorbar-bound", bound, gross.value,
                4.0 * step, dict(base_inputs)))
    return reports


# -- sharp-marginal divergence demonstration ------------------------------------------

DEMO_GRID = COVARIANT_GRID
# momentum boosts of the profile, guess windows around each boost, the
# guess kernel's slope and standard deviation, and the profile's position std
_DEMO_BOOSTS = (4, 8, 16)
_DEMO_WINDOWS = (2.0, 4.0, 6.0)
_DEMO_KERNEL_SLOPE = 0.1
_DEMO_KERNEL_SD = 1.0
_DEMO_PROBE_SIGMA = 1.0


def demonstrate_sharp_marginal_divergence(grid: GridSpec | None = None,
                                          hbar: float = 1.0,
                                          eps2: float = 0.1) -> dict:
    """Why a device with a sharp position margin cannot approximate momentum.

    The demonstration device measures position exactly, then guesses the
    momentum by drawing from a unit Gaussian centered at 0.1 times
    the position outcome.  Its guess law depends on the state only through
    the position law, so boosting a fixed profile (a unit Gaussian) by 4, 8
    and 16 leaves the guess unchanged while the true momentum runs away: the
    guess mass captured in windows of width 2, 4 and 6 around the boost
    falls to zero and tent witnesses force the 1-distance from sharp
    momentum to grow linearly with the boost.
    """
    if grid is None:
        grid = DEMO_GRID
    if not 0.0 < eps2 < 1.0:
        raise DomainError("eps2 must lie in (0, 1)")
    profile = make_gaussian(grid, 0.0, 0.0, _DEMO_PROBE_SIGMA, hbar)
    # the guess law is shared by every boost of the profile
    scaling = PiecewiseLinearMap(np.array([-1.0, 1.0]),
                                 _DEMO_KERNEL_SLOPE * np.array([-1.0, 1.0]))
    guess_law = convolve(pushforward(position_distribution(profile), scaling),
                         gaussian_measure(0.0, _DEMO_KERNEL_SD))

    def captured(center: float) -> dict:
        return {f"{w:g}": guess_law.interval_mass(Interval(center, w))
                for w in _DEMO_WINDOWS}

    sweep = []
    for n in _DEMO_BOOSTS:
        boosted = make_gaussian(grid, 0.0, float(n), _DEMO_PROBE_SIGMA, hbar)
        plaw = momentum_distribution(boosted, hbar)
        witness_gap = (
            float(np.sum(plaw.weights * tent_function(plaw.atoms, n, n)))
            - float(np.sum(guess_law.weights
                           * tent_function(guess_law.atoms, n, n))))
        sweep.append({"boost": int(n),
                      "captured": captured(float(n)),
                      "d1_lower_bound": witness_gap})
    return {
        "kernel": {"slope": _DEMO_KERNEL_SLOPE, "sd": _DEMO_KERNEL_SD,
                   "probe_sigma": _DEMO_PROBE_SIGMA},
        "hbar": hbar,
        "grid": _grid_summary(grid),
        "confidence_threshold": 1.0 - eps2,
        "unboosted": captured(0.0),
        "sweep": sweep,
    }


# -- suites and report sinks ------------------------------------------------------------

def run_suite(seed: int = 0, hbar: float = 1.0) -> list[VerificationReport]:
    """Deterministic battery touching every relation check once."""
    reports: list[VerificationReport] = []
    states = test_ensemble(hbar=hbar, seed=seed)
    # deviation checks run on the wide fine-momentum grid: the 1-deviation
    # functional has a kink whose lattice bias would eat the saturation margin
    ur_states = test_ensemble(UR_ENSEMBLE_GRID, hbar=hbar, seed=seed)
    for alpha, beta in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
        for s in ur_states[:4]:
            reports.append(verify_preparation_ur(s, alpha, beta, hbar))
    for s in states[:4]:
        reports.append(verify_overall_width_ur(s, 0.05, 0.05, hbar))
        reports.append(verify_overall_width_ur(s, 0.1, 0.2, hbar))
    for sigma in (0.5, 1.0, 2.0):
        tau = make_gaussian(COVARIANT_GRID, 0.0, 0.0, sigma, hbar)
        error = verify_covariant_error_ur(tau, 0.05, 0.05, hbar)
        reports += [error, _as_resolution(error)]
        reports.append(verify_noise_ur(tau, hbar))
    tau1 = make_gaussian(COVARIANT_GRID, 0.0, 0.0, math.sqrt(0.5 * hbar),
                         hbar)
    reports.append(verify_noise_ur(tau1, hbar))
    for alpha, beta in ((1.0, 1.0), (2.0, 2.0)):
        reports.append(verify_metric_ur(tau1, alpha, beta, hbar=hbar))
    grid = states[0].grid
    instances: list[Observable] = [
        SmearedPosition(gaussian_measure(0.0, 1.0)),
        SmearedPosition(two_point(-1.0, 3.0, 0.3)),
        SmearedPosition(point_mass(2.0)),
        SmearedPosition(uniform_measure(-0.5, 0.5, 41)),
    ]
    reports.extend(verify_connections(instances, grid, hbar=hbar, seed=seed))
    return reports


def _sanitize(value):
    """JSON-ready copy of value: dataclasses become dicts of their fields,
    tuples lists, NumPy scalars Python numbers, non-finite floats strings."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if is_dataclass(value):
        return {f.name: _sanitize(getattr(value, f.name)) for f in fields(value)}
    return value


def report_to_dict(report: VerificationReport) -> dict:
    return _sanitize(report)


def inputs_hash(inputs: dict) -> str:
    canonical = json.dumps(_sanitize(inputs), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def to_json(payload) -> str:
    """Canonical JSON (sorted keys, indent 2) of any payload: reports,
    estimates, and dicts and lists of them."""
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True)


reports_to_json = to_json


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    """Summary table: relation, sides, slack, verdict, input fingerprint."""
    out = StringIO()
    out.write("relation,lhs,rhs,slack,passed,verdict,tolerance,"
              "inputs_hash,seed,grid\n")
    for r in reports:
        seed = r.inputs.get("seed", "")
        grid = r.inputs.get("grid")
        if grid is None:
            holder = r.inputs.get("state") or r.inputs.get("tau") or {}
            grid = holder.get("grid", "") if isinstance(holder, dict) else ""
        grid_txt = "x".join(repr(v) for v in grid) if grid else ""
        out.write(",".join([
            r.relation, repr(r.lhs), repr(r.rhs), repr(r.slack),
            str(r.passed).lower(), r.verdict, repr(r.tolerance),
            inputs_hash(r.inputs), str(seed), grid_txt]) + "\n")
    return out.getvalue()
