"""Worst-case error functionals for approximate measurements.

Four families: Wasserstein distance between observables, error-bar widths
(gross, bias-free, and their gap, the bias), resolution width, and the
moment-operator noise error.  Suprema over all states are estimated from
certified probe families; every estimate records which bound direction it
certifies.  Closed forms are provided where the smearing structure gives one.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .exceptions import DomainError, InternalError
from .measures import (GridMeasure, _alpha_norm, overall_width,
                       overall_width_interval)
from .observables import Observable, Sharp, Smeared, _scaled_moments
from .states import GridSpec, State, WaveFunction, _axis_state, _cell_state
from .transport import wasserstein

# placements as fractions of the lattice span from the lattice midpoint:
# default probe centers, resolution-width centers and divergence-scan probes
_PROBE_FRACTIONS = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
_RESOLUTION_FRACTIONS = (-0.3, -0.15, 0.0, 0.15, 0.3)
_SCAN_FRACTIONS = (0.25, -0.25, 0.35, -0.35, 0.45, -0.45)

# relative gap within which a probe ties the worst case: probes that tie in
# exact arithmetic (mirror scans, translated probes) differ by rounding only,
# so the witness is the first of them rather than the one rounding favours
_WITNESS_RTOL = 1e-12


def divergence_cutoff(grid: GridSpec, axis: str, hbar: float = 1.0) -> float:
    """Width or distance on the axis beyond which an estimate reads as
    divergent: 0.4 times the span of the axis lattice."""
    return 0.4 * grid.n * grid.lattice(axis, hbar)[1]


@dataclass(frozen=True)
class ProbeConfig:
    """Probe sweep parameters: window centers, localization width delta,
    confidence level eps and the keyword-only seed of the random probes."""

    x_samples: tuple[float, ...]
    delta: float
    eps: float
    _: KW_ONLY
    seed: int = 0
    # slack allowed when the floating window beats the centered one
    bisection_tol: ClassVar[float] = 1e-9

    def __post_init__(self) -> None:
        xs = tuple(float(x) for x in self.x_samples)
        if not xs or not all(math.isfinite(x) for x in xs):
            raise DomainError("x_samples must be a nonempty finite list")
        object.__setattr__(self, "x_samples", xs)
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise DomainError("delta must be positive")
        if not 0.0 < self.eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")


def default_probe_config(grid: GridSpec, eps: float, axis: str = "position",
                         hbar: float = 1.0, delta: float | None = None,
                         seed: int = 0) -> ProbeConfig:
    """Probe config with seven centers over the central 60 % of the axis
    lattice around its midpoint, and delta four lattice steps unless given."""
    _, step = grid.lattice(axis, hbar)
    return ProbeConfig(
        x_samples=tuple(grid.around_midpoint(axis, _PROBE_FRACTIONS, hbar)),
        delta=4.0 * step if delta is None else delta,
        eps=eps,
        seed=seed)


@dataclass(frozen=True)
class WidthEstimate:
    """A width value together with the bound direction it certifies."""

    value: float
    is_lower_bound: bool
    infinite_flag: bool = False
    witness: tuple | None = None
    trace: tuple | None = None


def _worst(rows: Iterable[tuple[tuple, dict]], key: str,
           is_lower_bound: bool, cutoff: float = math.inf) -> WidthEstimate:
    """Largest entry[key] over (witness, trace entry) rows; the witness is
    the first row within _WITNESS_RTOL of it.  Every entry goes to the
    trace, and a value beyond cutoff sets infinite_flag."""
    rows = list(rows)
    if any(math.isnan(entry[key]) for _, entry in rows):
        raise InternalError(f"{key} is NaN in the trace")
    best = max([-1.0, *(entry[key] for _, entry in rows)])
    tie = best - _WITNESS_RTOL * abs(best) if math.isfinite(best) else best
    witness = next((wit for wit, entry in rows if entry[key] >= tie), None)
    return WidthEstimate(best, is_lower_bound, best > cutoff, witness,
                         tuple(entry for _, entry in rows))


# -- probe families -----------------------------------------------------------

def _localized_probes(grid: GridSpec, center: float, cfg: ProbeConfig,
                      axis: str, hbar: float
                      ) -> tuple[float, list[tuple[str, WaveFunction]]]:
    """The snapped center and its probes, exactly localized on the axis in
    the window of width cfg.delta: flat, ramp +pi hbar / delta, random
    (seed cfg.seed plus the center's lattice index), ramp -pi hbar / delta.
    The window spans two lattice steps, so both ramps are sub-Nyquist."""
    points, _ = grid.lattice(axis, hbar)
    idx, x = grid.snap(axis, center, hbar)
    mask = grid.window(axis, x, cfg.delta, hbar)
    window = points[mask]
    # an offset on the conjugate axis acts on the window as a phase ramp
    phase = 1j if axis == "position" else -1j
    rate = math.pi * hbar / cfg.delta
    rng = np.random.default_rng(cfg.seed + idx)
    noise = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
    amps = np.zeros((4, grid.n), dtype=complex)
    amps[:, mask] = [np.ones(window.size), np.exp(phase * rate * window / hbar),
                     noise * np.hanning(window.size + 2)[1:-1],
                     np.exp(phase * -rate * window / hbar)]
    labels = ("flat", f"ramp{rate:+.6g}", "random0", f"ramp{-rate:+.6g}")
    return x, [(label, _axis_state(grid, axis, amp))
               for label, amp in zip(labels, amps)]


def _assert_localized(law: GridMeasure, center: float, delta: float) -> None:
    # the defining predicate: all sharp-axis mass inside the window
    scale = 1e-12 * max(1.0, abs(center) + delta)
    outside = (np.abs(law.atoms - center) > 0.5 * delta + scale)
    leak = float(np.sum(law.weights[outside]))
    if leak > 1e-10:
        raise InternalError(f"probe leaks mass {leak:.3e} outside its window")


# -- centered windows ----------------------------------------------------------

def min_centered_window(m: GridMeasure, center: float, eps: float) -> float:
    """Smallest w such that the window [center-w/2, center+w/2] carries mass
    at least 1-eps.  Exact on atomic measures."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if not math.isfinite(center):
        raise DomainError("window center must be finite")
    dist = np.abs(m.atoms - center)
    order = np.argsort(dist, kind="stable")
    cum = np.cumsum(m.weights[order])
    need = (1.0 - eps) - 1e-12
    idx = min(int(np.searchsorted(cum, need, side="left")), len(cum) - 1)
    return 2.0 * float(dist[order[idx]])


# -- error-bar widths -----------------------------------------------------------

def _sharp_axis(target: Observable) -> str:
    if not isinstance(target, Sharp):
        raise DomainError("error bars are defined against a sharp target only")
    return target.axis


# (key, laws) of the last probe sweep; see _probe_laws
_last_sweep: tuple | None = None


def _probe_laws(approx: Observable, target: Observable, cfg: ProbeConfig,
                grid: GridSpec, hbar: float
                ) -> list[tuple[float, str, GridMeasure]]:
    """(center, label, law of approx) for each probe of one sweep, every
    probe checked to be localized on the target axis.

    The laws depend on every field of cfg but eps, so the last
    sweep is kept and read again at the next eps.  Its key holds the
    observables themselves, which compare by identity (`Sharp` by value),
    so no id is reused while the sweep is kept; the old sweep is dropped
    before a new one is computed."""
    global _last_sweep
    key = (approx, target, grid, hbar, cfg.x_samples, cfg.delta, cfg.seed)
    if _last_sweep is not None and _last_sweep[0] == key:
        return _last_sweep[1]
    _last_sweep = None
    laws = []
    for raw_center in cfg.x_samples:
        x, probes = _localized_probes(grid, raw_center, cfg, target.axis, hbar)
        for label, probe in probes:
            law = target.distribution(probe, hbar)
            _assert_localized(law, x, cfg.delta)
            laws.append((x, label, approx.from_law(law, grid, hbar)
                         if approx.axis == target.axis
                         else approx.distribution(probe, hbar)))
    _last_sweep = (key, laws)
    return laws


def _probe_sweep(approx: Observable, target: Observable, cfg: ProbeConfig,
                 grid: GridSpec, hbar: float, centered: bool) -> WidthEstimate:
    axis = _sharp_axis(target)
    laws = _probe_laws(approx, target, cfg, grid, hbar)
    rows = (((x, label),
             {"center": x, "probe": label,
              "width": (min_centered_window(law, x, cfg.eps) if centered
                        else overall_width(law, cfg.eps))})
            for x, label, law in laws)
    return _worst(rows, "width", True, divergence_cutoff(grid, axis, hbar))


def error_bar_width(approx: Observable, target: Observable, cfg: ProbeConfig,
                    grid: GridSpec, hbar: float = 1.0) -> WidthEstimate:
    """Worst-case width of the window, centered at the localization point,
    that captures mass 1-eps of the approximator's output over all probes
    localized within delta.  A certified lower bound of the true supremum."""
    return _probe_sweep(approx, target, cfg, grid, hbar, centered=True)


def bias_free_error(approx: Observable, target: Observable, cfg: ProbeConfig,
                    grid: GridSpec, hbar: float = 1.0) -> WidthEstimate:
    """Same sweep with the window free to float: worst-case overall width of
    the output law.  Never exceeds the centered variant."""
    return _probe_sweep(approx, target, cfg, grid, hbar, centered=False)


def _delta_sweep(approx: Observable, target: Observable, cfg: ProbeConfig,
                 grid: GridSpec, hbar: float, centered: bool) -> WidthEstimate:
    _, step = grid.lattice(_sharp_axis(target), hbar)
    sweep = []
    for d in (8.0 * step, 4.0 * step, 2.0 * step):  # shrink toward the limit
        est = _probe_sweep(approx, target, replace(cfg, delta=d), grid, hbar,
                           centered)
        sweep.append({"delta": d, "width": est.value,
                      "infinite": est.infinite_flag})
    return WidthEstimate(est.value, True, est.infinite_flag, est.witness,
                         tuple(sweep))


def gross_error_bar_width(approx: Observable, target: Observable,
                          cfg: ProbeConfig, grid: GridSpec, hbar: float = 1.0
                          ) -> WidthEstimate:
    """Small-localization limit of the error-bar width: the sweep shrinks
    delta over 8, 4, 2 lattice steps and reports the last value.  The trace
    holds the monotone sweep."""
    return _delta_sweep(approx, target, cfg, grid, hbar, True)


def gross_bias_free_error(approx: Observable, target: Observable,
                          cfg: ProbeConfig, grid: GridSpec, hbar: float = 1.0
                          ) -> WidthEstimate:
    """Small-localization limit of the bias-free error width."""
    return _delta_sweep(approx, target, cfg, grid, hbar, False)


def bias(approx: Observable, target: Observable, cfg: ProbeConfig,
         grid: GridSpec, hbar: float = 1.0) -> float:
    """Systematic part of the error: centered width minus floating width.

    Both estimates must be finite; the gap is nonnegative up to 2x the
    window tolerance."""
    w = error_bar_width(approx, target, cfg, grid, hbar)
    w0 = bias_free_error(approx, target, cfg, grid, hbar)
    if w.infinite_flag or w0.infinite_flag:
        raise DomainError("bias is defined only for finite error bars")
    gap = w.value - w0.value
    if gap < -2.0 * cfg.bisection_tol:
        raise InternalError(f"floating window beat the centered one by {-gap:.3e}")
    return gap


# -- resolution width -----------------------------------------------------------

def resolution_width(obs: Observable, eps: float, grid: GridSpec,
                     hbar: float = 1.0, method: str = "auto") -> WidthEstimate:
    """Smallest window width within which the device can concentrate its
    output around any requested point, at confidence 1-eps.

    Smeared variants have the exact closed form: the overall width of the
    smearing measure.  The probe path minimizes over point-localized states
    (with one offset-refinement pass) and maximizes over five requested
    centers on the central 60 % of the axis lattice around its midpoint;
    being an inner minimum over a finite family it certifies an upper bound
    (is_lower_bound=False).
    """
    if method not in ("auto", "closed_form", "probes"):
        raise DomainError(f"unknown method {method!r}")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    smearing = obs.smearing(hbar) if isinstance(obs, Smeared) else None
    if method == "closed_form" or (method == "auto" and smearing is not None):
        if smearing is None:
            raise DomainError("observable has no closed-form smearing")
        return WidthEstimate(overall_width(smearing, eps), False,
                             witness=("closed-form",))
    axis = obs.axis
    points, step = grid.lattice(axis, hbar)
    # refined probes stay off the two end points of the lattice
    lo = float(points[1])
    hi = lo + step * (grid.n - 3)

    def rows():
        for raw in grid.around_midpoint(axis, _RESOLUTION_FRACTIONS, hbar):
            _, x = grid.snap(axis, raw, hbar)
            law = obs.distribution(_cell_state(grid, x, axis, hbar), hbar)
            w = min_centered_window(law, x, eps)
            # second pass: recenter the probe so the output's best interval
            # lands on the requested point
            offset = overall_width_interval(law, eps).center - x
            refined = x - offset
            label = "cell"
            if lo <= refined <= hi:
                law2 = obs.distribution(
                    _cell_state(grid, refined, axis, hbar), hbar)
                w2 = min_centered_window(law2, x, eps)
                if w2 < w:
                    w, label = w2, "offset"
            yield (x, label), {"center": x, "probe": label, "width": w}

    return _worst(rows(), "width", False)


# -- Wasserstein observable distance ---------------------------------------------

def observable_distance(first: Observable, second: Observable, alpha: float,
                        ensemble: Sequence[State], hbar: float = 1.0,
                        divergence_scan: bool = True) -> WidthEstimate:
    """Largest Wasserstein alpha-distance between the two output laws over
    the probe ensemble: a certified lower bound of the supremum over all
    states.  The divergence scan adds point-localized probes from the lattice
    midpoint out toward its ends; crossing 0.4 times the span of the lattice
    of the second observable's axis on the ensemble's grid sets
    infinite_flag.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("need at least one probe state")
    grid = ensemble[0].grid
    probes = [(("ensemble", i), f"ensemble{i}", s)
              for i, s in enumerate(ensemble)]
    if divergence_scan:
        probes += [(("scan", c), f"scan@{c:.6g}",
                    _cell_state(grid, c, axis, hbar))
                   for axis in sorted({first.axis, second.axis})
                   for c in grid.around_midpoint(axis, _SCAN_FRACTIONS, hbar)]
    rows = ((wit, {"probe": label,
                   "distance": wasserstein(first.distribution(s, hbar),
                                           second.distribution(s, hbar),
                                           alpha)})
            for wit, label, s in probes)
    return _worst(rows, "distance", True,
                  divergence_cutoff(grid, second.axis, hbar))


def delta_alpha_smeared_closed_form(mu: GridMeasure, alpha: float) -> float:
    """Exact alpha-distance of a smeared sharp observable from its sharp
    original: the alpha-norm of the smearing measure, (sum w |q|^alpha)^(1/alpha),
    for finite alpha >= 1."""
    if not (alpha >= 1.0) or not math.isfinite(alpha):
        raise DomainError("alpha must be a finite real >= 1")
    return _alpha_norm(mu.atoms, mu.weights, alpha)


def delta1_smeared_closed_form(mu: GridMeasure) -> float:
    """1-distance special case: mean absolute smearing offset, sum w |q|."""
    return delta_alpha_smeared_closed_form(mu, 1.0)


def pushforward_delta1_closed_form(g_sup: float) -> float:
    """Exact 1-distance of a readout perturbed by a bounded shift x -> x+g(x)
    from the unperturbed one: the declared sup-norm of g."""
    if not (g_sup >= 0.0 and math.isfinite(g_sup)):
        raise DomainError("sup-norm bound must be a finite nonnegative real")
    return g_sup


# -- noise-based error -------------------------------------------------------------

def noise_based_error(target: Observable, device: Observable, state: State,
                      hbar: float = 1.0) -> float:
    """Root-mean-square moment-operator error of the device against a sharp
    target on one state: intrinsic outcome variance plus squared offset of
    the mean-outcome operator."""
    axis = _sharp_axis(target)
    if device.axis != axis:
        raise DomainError("device and target act on different axes")
    scale, sharp_mean, dev = _scaled_moments(device, state, hbar)
    variance = dev.second_moment_mean - dev.first_moment_sq_mean
    if variance * scale * scale < -1e-9:
        raise InternalError(
            f"negative intrinsic variance {variance * scale * scale:.3e}")
    offset = dev.first_moment_mean - sharp_mean
    return scale * math.sqrt(max(variance, 0.0) + offset * offset)


def global_noise_error(target: Observable, device: Observable,
                       ensemble: Sequence[State],
                       hbar: float = 1.0) -> WidthEstimate:
    """Supremum of the noise-based error over the probe ensemble: a certified
    lower bound of the supremum over all states."""
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("need at least one probe state")
    rows = ((("ensemble", i),
             {"probe": f"ensemble{i}",
              "error": noise_based_error(target, device, s, hbar)})
            for i, s in enumerate(ensemble))
    return _worst(rows, "error", True)
