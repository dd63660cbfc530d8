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
from .measures import (GridMeasure, Interval, overall_width,
                       overall_width_interval)
from .observables import (Observable, SharpMomentum, SharpPosition, Smeared,
                          moment_stats)
from .states import (GridSpec, State, WaveFunction, _as_mixed, _cell_state,
                     _normalized, make_box, make_random_localized)
from .transport import wasserstein

_PROBE_KINDS = ("flat", "ramped", "random")


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


def _axis_step_span(grid: GridSpec, axis: str, hbar: float) -> tuple[float, float]:
    if axis == "position":
        return grid.dx, grid.span
    if axis == "momentum":
        dp = grid.momentum_step(hbar)
        return dp, grid.n * dp
    raise DomainError(f"no probe axis {axis!r}")


def default_probe_config(grid: GridSpec, eps: float, axis: str = "position",
                         hbar: float = 1.0, delta: float | None = None,
                         n_centers: int = 7, extent_fraction: float = 0.6,
                         w_cutoff: float | None = None,
                         seed: int = 0) -> ProbeConfig:
    """Probe config spanning the central extent_fraction of the grid."""
    step, span = _axis_step_span(grid, axis, hbar)
    centers = np.linspace(-0.5 * extent_fraction * span,
                          0.5 * extent_fraction * span, n_centers)
    return ProbeConfig(
        x_samples=tuple(float(c) for c in centers),
        delta=4.0 * step if delta is None else delta,
        eps=eps,
        w_cutoff=0.4 * span if w_cutoff is None else w_cutoff,
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

def _snap_position(grid: GridSpec, x: float) -> float:
    idx = int(round((x - grid.x0) / grid.dx))
    if not 0 < idx < grid.n - 1:
        raise DomainError("probe center falls outside the grid")
    return grid.x0 + idx * grid.dx


def _snap_momentum(grid: GridSpec, p: float, hbar: float) -> float:
    dp = grid.momentum_step(hbar)
    lo = -dp * (grid.n // 2)
    idx = int(round((p - lo) / dp))
    if not 0 < idx < grid.n - 1:
        raise DomainError("probe center falls outside the momentum band")
    return lo + idx * dp


def _band_state(grid: GridSpec, values: np.ndarray, mask: np.ndarray,
                ) -> WaveFunction:
    # values live on the centered momentum lattice; exact band support
    spectrum = np.zeros(grid.n, dtype=complex)
    spectrum[mask] = values
    amp = np.fft.ifft(np.fft.ifftshift(spectrum))
    return WaveFunction(grid.x0, grid.dx, _normalized(amp, grid.dx))


def _momentum_cell_state(grid: GridSpec, p: float, hbar: float) -> WaveFunction:
    ps = grid.momentum_points(hbar)
    target = _snap_momentum(grid, p, hbar)
    mask = np.zeros(grid.n, dtype=bool)
    mask[int(np.argmin(np.abs(ps - target)))] = True
    return _band_state(grid, np.ones(1, dtype=complex), mask)


def _localized_probes(grid: GridSpec, center: float, cfg: ProbeConfig,
                      axis: str, hbar: float
                      ) -> tuple[float, list[tuple[str, WaveFunction]]]:
    """Probe family exactly localized, on the given axis, inside the window
    of width cfg.delta around the snapped center.  Returns (center, probes)."""
    step, _ = _axis_step_span(grid, axis, hbar)
    if cfg.delta < 2.0 * step * (1.0 - 1e-12):
        raise DomainError("delta must cover at least two lattice cells")
    probes: list[tuple[str, WaveFunction]] = []

    if axis == "position":
        x = _snap_position(grid, center)
        axis_origin = grid.x0

        def flat_probe(boost: float) -> WaveFunction:
            return make_box(grid, x, cfg.delta, boost, hbar)

        def random_probe(seed: int) -> WaveFunction:
            return make_random_localized(grid, Interval(x, cfg.delta), seed)

        conj_nyquist = math.pi * hbar / grid.dx
    else:
        x = _snap_momentum(grid, center, hbar)
        ps = grid.momentum_points(hbar)
        axis_origin = float(ps[0])
        mask = np.abs(ps - x) <= 0.5 * cfg.delta + 1e-12 * max(1.0, abs(x))
        count = int(np.count_nonzero(mask))
        if count < 2 or mask[0] or mask[-1]:
            raise DomainError("momentum band must lie inside the lattice")
        band = ps[mask]

        def flat_probe(boost: float) -> WaveFunction:
            # a position offset acts on the band as a linear phase ramp
            return _band_state(grid, np.exp(-1j * boost * band / hbar), mask)

        def random_probe(seed: int) -> WaveFunction:
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            return _band_state(grid, vals * np.hanning(count + 2)[1:-1], mask)

        conj_nyquist = 0.5 * grid.span

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
            # per-center offset: the nonnegative lattice index on this axis
            seed = cfg.seed + 104729 * n_rand \
                + int(round((x - axis_origin) / step))
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
    if isinstance(target, SharpPosition):
        return "position"
    if isinstance(target, SharpMomentum):
        return "momentum"
    raise DomainError("error bars are defined against a sharp target only")


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
                 grid: GridSpec, hbar: float, centered: bool,
                 deltas: Sequence[float] | None) -> WidthEstimate:
    axis = _sharp_axis(target)
    step, _ = _axis_step_span(grid, axis, hbar)
    if deltas is None:
        deltas = (8.0 * step, 4.0 * step, 2.0 * step)
    deltas = sorted(float(d) for d in deltas)
    if not deltas:
        raise DomainError("need at least one delta")
    sweep = []
    final: WidthEstimate | None = None
    for d in reversed(deltas):  # shrink toward the localization limit
        est = _probe_sweep(approx, target, replace(cfg, delta=d), grid, hbar,
                           centered)
        sweep.append({"delta": d, "width": est.value,
                      "infinite": est.infinite_flag})
        final = est
    assert final is not None
    return WidthEstimate(final.value, True, final.infinite_flag,
                         final.witness, tuple(sweep))


def gross_error_bar_width(approx: Observable, target: Observable,
                          cfg: ProbeConfig, grid: GridSpec, hbar: float = 1.0,
                          deltas: Sequence[float] | None = None
                          ) -> WidthEstimate:
    """Small-localization limit of the error-bar width: the sweep shrinks
    delta over (by default) 8, 4, 2 lattice steps and reports the last value.
    The trace holds the monotone sweep."""
    return _delta_sweep(approx, target, cfg, grid, hbar, True, deltas)


def gross_bias_free_error(approx: Observable, target: Observable,
                          cfg: ProbeConfig, grid: GridSpec, hbar: float = 1.0,
                          deltas: Sequence[float] | None = None
                          ) -> WidthEstimate:
    """Small-localization limit of the bias-free error width."""
    return _delta_sweep(approx, target, cfg, grid, hbar, False, deltas)


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
                     x_samples: Sequence[float] | None = None,
                     hbar: float = 1.0, method: str = "auto") -> WidthEstimate:
    """Smallest window width within which the device can concentrate its
    output around any requested point, at confidence 1-eps.

    Smeared variants have the exact closed form: the overall width of the
    smearing measure.  The probe path minimizes over point-localized states
    (with one offset-refinement pass) and maximizes over requested centers;
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
    axis = obs.axis if obs.axis in ("position", "momentum") else "position"
    step, span = _axis_step_span(grid, axis, hbar)
    if x_samples is None:
        x_samples = tuple(float(c) for c in np.linspace(-0.3 * span,
                                                        0.3 * span, 5))
    def probe_at(v: float) -> State:
        if axis == "position":
            return _cell_state(grid, v)
        return _momentum_cell_state(grid, v, hbar)

    best = -1.0
    witness: tuple | None = None
    trace: list[dict] = []
    for raw in x_samples:
        x = (_snap_position(grid, raw) if axis == "position"
             else _snap_momentum(grid, raw, hbar))
        law = obs.distribution(probe_at(x), hbar)
        w = min_centered_window(law, x, eps)
        # second pass: recenter the probe so the output's best interval
        # lands on the requested point
        offset = overall_width_interval(law, eps).center - x
        refined = x - offset
        label = "cell"
        lo = grid.x0 + step if axis == "position" else -step * (grid.n // 2 - 1)
        hi = lo + step * (grid.n - 3)
        if lo <= refined <= hi:
            law2 = obs.distribution(probe_at(refined), hbar)
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
    states.  The divergence scan adds point-localized probes pushed toward
    the grid edge; crossing w_cutoff sets infinite_flag.
    """
    ensemble = list(ensemble)
    if not ensemble:
        raise DomainError("need at least one probe state")
    grid = _as_mixed(ensemble[0]).grid
    if w_cutoff is None:
        w_cutoff = 0.4 * grid.span
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
            for frac in (0.5, 0.7, 0.9):
                for sign in (1.0, -1.0):
                    if axis == "position":
                        c = sign * frac * 0.5 * grid.span
                        probe: State = _cell_state(grid, c)
                    else:
                        c = sign * frac * 0.5 * grid.n * grid.momentum_step(hbar)
                        probe = _momentum_cell_state(grid, c, hbar)
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
