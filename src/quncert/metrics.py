"""Worst-case error functionals for approximate measurements.

Four families: Wasserstein distance between observables, error-bar widths
(gross, bias-free, and their gap, the bias), resolution width, and the
moment-operator noise error.  Suprema over all states are estimated from
certified probe families; every estimate records which bound direction it
certifies.  Closed forms are provided where the smearing structure gives one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exceptions import DomainError, InternalError
from .measures import GridMeasure, overall_width, overall_width_interval
from .observables import Observable, Sharp, Smeared, moment_stats
from .states import (GridSpec, State, WaveFunction, _as_mixed, _axis_state,
                     _cell_state)
from .transport import wasserstein

_PROBE_KINDS = ("flat", "ramped", "random")

# placements as fractions of the lattice span from the lattice midpoint:
# default probe centers, resolution-width centers and divergence-scan probes;
# a width beyond the cutoff fraction of the lattice span diverges
_PROBE_FRACTIONS = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
_RESOLUTION_FRACTIONS = (-0.3, -0.15, 0.0, 0.15, 0.3)
_SCAN_FRACTIONS = (0.25, -0.25, 0.35, -0.35, 0.45, -0.45)
_CUTOFF_FRACTION = 0.4


@dataclass(frozen=True)
class ProbeConfig:
    """Probe sweep parameters: window centers, localization width delta,
    confidence level eps, and the divergence threshold w_cutoff."""

    x_samples: tuple[float, ...]
    delta: float
    eps: float
    w_cutoff: float
    probes_per_center: int = 4
    probe_kinds: tuple[str, ...] = _PROBE_KINDS
    bisection_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        xs = tuple(float(x) for x in self.x_samples)
        if not xs or not all(math.isfinite(x) for x in xs):
            raise DomainError("x_samples must be a nonempty finite list")
        object.__setattr__(self, "x_samples", xs)
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise DomainError("delta must be positive")
        if not 0.0 < self.eps < 1.0:
            raise DomainError("eps must lie in (0, 1)")
        if not (self.w_cutoff > 0.0 and math.isfinite(self.w_cutoff)):
            raise DomainError("w_cutoff must be positive")
        if self.probes_per_center < 3:
            raise DomainError("need at least three probes per center")
        kinds = tuple(self.probe_kinds)
        if not kinds or any(k not in _PROBE_KINDS for k in kinds):
            raise DomainError(f"probe kinds must come from {_PROBE_KINDS}")
        object.__setattr__(self, "probe_kinds", kinds)
        if not self.bisection_tol > 0.0:
            raise DomainError("bisection_tol must be positive")


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
        w_cutoff=_CUTOFF_FRACTION * grid.n * step,
        seed=seed)


@dataclass(frozen=True)
class WidthEstimate:
    """A width value together with the bound direction it certifies."""

    value: float
    is_lower_bound: bool
    infinite_flag: bool = False
    witness: tuple | None = None
    trace: tuple | None = None


# -- probe families -----------------------------------------------------------

def _localized_probes(grid: GridSpec, center: float, cfg: ProbeConfig,
                      axis: str, hbar: float
                      ) -> tuple[float, list[tuple[str, WaveFunction]]]:
    """Probe family exactly localized, on the given axis, inside the window
    of width cfg.delta around the snapped center.  Returns (center, probes)."""
    points, step = grid.lattice(axis, hbar)
    idx, x = grid.snap(axis, center, hbar)
    mask = grid.window(axis, x, cfg.delta, hbar)
    window = points[mask]
    count = window.size
    # an offset on the conjugate axis acts on the window as a phase ramp
    phase = 1j if axis == "position" else -1j
    probes: list[tuple[str, WaveFunction]] = []

    def window_state(values: np.ndarray) -> WaveFunction:
        amp = np.zeros(grid.n, dtype=complex)
        amp[mask] = values
        return _axis_state(grid, axis, amp)

    def flat_probe(boost: float) -> WaveFunction:
        if boost == 0.0:
            return window_state(np.ones(count))
        return window_state(np.exp(phase * boost * window / hbar))

    def random_probe(seed: int) -> WaveFunction:
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return window_state(vals * np.hanning(count + 2)[1:-1])

    conj_nyquist = math.pi * hbar / step
    if "flat" in cfg.probe_kinds:
        probes.append(("flat", flat_probe(0.0)))
    ramps: list[float] = []
    k = 1
    while len(ramps) < 2 * cfg.probes_per_center:
        r = k * math.pi * hbar / cfg.delta
        if r > conj_nyquist * (1.0 + 1e-12):
            break
        ramps.extend([r, -r])
        k += 1
    n_ramp = n_rand = 0
    while len(probes) < cfg.probes_per_center:
        before = len(probes)
        if "ramped" in cfg.probe_kinds and n_ramp < len(ramps):
            r = ramps[n_ramp]
            n_ramp += 1
            probes.append((f"ramp{r:+.6g}", flat_probe(r)))
        if len(probes) < cfg.probes_per_center and "random" in cfg.probe_kinds:
            # per-center offset: the lattice index of the center on this axis
            seed = cfg.seed + 104729 * n_rand + idx
            probes.append((f"random{n_rand}", random_probe(seed)))
            n_rand += 1
        if len(probes) == before:
            probes.append(("flat", flat_probe(0.0)))
            break
    return x, probes


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


def _probe_sweep(approx: Observable, target: Observable, cfg: ProbeConfig,
                 grid: GridSpec, hbar: float, centered: bool) -> WidthEstimate:
    axis = _sharp_axis(target)
    best = -1.0
    witness: tuple | None = None
    trace: list[dict] = []
    for raw_center in cfg.x_samples:
        x, probes = _localized_probes(grid, raw_center, cfg, axis, hbar)
        for label, probe in probes:
            _assert_localized(target.distribution(probe, hbar), x, cfg.delta)
            law = approx.distribution(probe, hbar)
            if centered:
                w = min_centered_window(law, x, cfg.eps)
            else:
                w = overall_width(law, cfg.eps)
            trace.append({"center": x, "probe": label, "width": w})
            if w > best:
                best, witness = w, (x, label)
    return WidthEstimate(best, True, best > cfg.w_cutoff, witness, tuple(trace))


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

def _axis_or_position(obs: Observable) -> str:
    return obs.axis if obs.axis in ("position", "momentum") else "position"


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
    axis = _axis_or_position(obs)
    points, step = grid.lattice(axis, hbar)
    # refined probes stay off the two end points of the lattice
    lo = float(points[1])
    hi = lo + step * (grid.n - 3)
    best = -1.0
    witness: tuple | None = None
    trace: list[dict] = []
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
            law2 = obs.distribution(_cell_state(grid, refined, axis, hbar),
                                    hbar)
            w2 = min_centered_window(law2, x, eps)
            if w2 < w:
                w, label = w2, "offset"
        trace.append({"center": x, "probe": label, "width": w})
        if w > best:
            best, witness = w, (x, label)
    return WidthEstimate(best, False, False, witness, tuple(trace))


# -- Wasserstein observable distance ---------------------------------------------

def observable_distance(first: Observable, second: Observable, alpha: float,
                        ensemble: Sequence[State], hbar: float = 1.0,
                        w_cutoff: float | None = None,
                        divergence_scan: bool = True) -> WidthEstimate:
    """Largest Wasserstein alpha-distance between the two output laws over
    the probe ensemble: a certified lower bound of the supremum over all
    states.  The divergence scan adds point-localized probes from the lattice
    midpoint out toward its ends; crossing w_cutoff (by default 0.4 times the
    span of the lattice of the second observable's axis) sets infinite_flag.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("need at least one probe state")
    grid = _as_mixed(ensemble[0]).grid
    if w_cutoff is None:
        _, step = grid.lattice(_axis_or_position(second), hbar)
        w_cutoff = _CUTOFF_FRACTION * grid.n * step
    best = -1.0
    witness: tuple | None = None
    trace: list[dict] = []
    for i, s in enumerate(ensemble):
        d = wasserstein(first.distribution(s, hbar),
                        second.distribution(s, hbar), alpha)
        trace.append({"probe": f"ensemble{i}", "distance": d})
        if d > best:
            best, witness = d, ("ensemble", i)
    if divergence_scan:
        axes = {first.axis, second.axis} & {"position", "momentum"}
        for axis in sorted(axes):
            for c in grid.around_midpoint(axis, _SCAN_FRACTIONS, hbar):
                probe = _cell_state(grid, c, axis, hbar)
                d = wasserstein(first.distribution(probe, hbar),
                                second.distribution(probe, hbar), alpha)
                trace.append({"probe": f"scan@{c:.6g}", "distance": d})
                if d > best:
                    best, witness = d, ("scan", c)
    return WidthEstimate(best, True, best > w_cutoff, witness, tuple(trace))


def delta_alpha_smeared_closed_form(mu: GridMeasure, alpha: float) -> float:
    """Exact alpha-distance of a smeared sharp observable from its sharp
    original: the alpha-norm of the smearing measure, (sum w |q|^alpha)^(1/alpha)."""
    if not alpha >= 1.0:
        raise DomainError("alpha must be >= 1")
    return float(np.sum(mu.weights * np.abs(mu.atoms) ** alpha)) ** (1.0 / alpha)


def delta1_smeared_closed_form(mu: GridMeasure) -> float:
    """1-distance special case: mean absolute smearing offset, sum w |q|."""
    return float(np.sum(mu.weights * np.abs(mu.atoms)))


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
    dev = moment_stats(device, state, hbar)
    tgt = moment_stats(target, state, hbar)
    variance = dev.second_moment_mean - dev.first_moment_sq_mean
    if variance < -1e-9:
        raise InternalError(f"negative intrinsic variance {variance:.3e}")
    offset = dev.first_moment_mean - tgt.first_moment_mean
    return math.sqrt(max(variance, 0.0) + offset * offset)


def global_noise_error(target: Observable, device: Observable,
                       ensemble: Sequence[State],
                       hbar: float = 1.0) -> WidthEstimate:
    """Supremum of the noise-based error over the probe ensemble: a certified
    lower bound of the supremum over all states."""
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("need at least one probe state")
    best = -1.0
    witness: tuple | None = None
    trace: list[dict] = []
    for i, s in enumerate(ensemble):
        e = noise_based_error(target, device, s, hbar)
        trace.append({"probe": f"ensemble{i}", "error": e})
        if e > best:
            best, witness = e, ("ensemble", i)
    return WidthEstimate(best, True, False, witness, tuple(trace))
