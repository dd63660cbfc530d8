"""Observables: maps from states to outcome laws on the real line.

One `Sharp` type returns the Born law of position or momentum
(`SharpPosition`, `SharpMomentum`).  One `Smeared` type convolves a sharp
law with a noise measure: either a fixed measure (`SmearedPosition`,
`SmearedMomentum`) or the smearing measure of a covariant phase-space margin
(`CovariantMarginal`), the position/momentum margin of the
translation-covariant observable generated by a normalized reference state.
Pushforwards transform the value space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AccuracyError, DomainError
from .measures import (BoundedRangeMap, BoundedShiftMap, GridMeasure,
                       MeasurableMap, PiecewiseLinearMap, _read_spec,
                       convolve, identity_map, measure_from_spec, pushforward)
from .states import (MixedState, State, _as_mixed, _shift_cells,
                     momentum_distribution, parity, position_distribution,
                     state_from_spec)


class Observable:
    """Base type for distribution(state, hbar); checks dataclass subclasses' axis."""

    axis: str = "none"

    def __post_init__(self) -> None:
        if self.axis not in ("position", "momentum"):
            raise DomainError("axis must be 'position' or 'momentum'")

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        raise NotImplementedError


@dataclass(frozen=True)
class Sharp(Observable):
    """Ideal position or momentum measurement: the Born law on `axis`."""

    axis: str

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        if self.axis == "position":
            return position_distribution(state)
        return momentum_distribution(state, hbar)


def SharpPosition() -> Sharp:
    """Ideal position measurement."""
    return Sharp("position")


def SharpMomentum() -> Sharp:
    """Ideal momentum measurement."""
    return Sharp("momentum")


@dataclass(frozen=True, eq=False)
class TrivialObservable(Observable):
    """State-independent device: every state yields the same outcome law."""

    law: GridMeasure
    axis: str = "position"

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        return self.law


@dataclass(frozen=True, eq=False)
class PushforwardObservable(Observable):
    """Post-processing of another observable by a map on the value space."""

    inner: Observable
    map: MeasurableMap

    @property
    def axis(self) -> str:  # type: ignore[override]
        return self.inner.axis

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        return pushforward(self.inner.distribution(state, hbar), self.map)


def covariant_marginals(tau: State, hbar: float = 1.0
                        ) -> tuple[GridMeasure, GridMeasure]:
    """Smearing measures (position, momentum) of the covariant observable
    generated by tau: the Born laws of the parity-reflected generator."""
    reflected = parity(tau)
    return (position_distribution(reflected),
            momentum_distribution(reflected, hbar))


class Smeared(Observable):
    """Sharp position or momentum measurement offset by independent noise.

    The outcome law is the sharp law on `axis` convolved with the smearing
    measure.  `noise` is either that measure or a generator state tau; the
    covariant margin of tau is smeared by the Born law of the
    parity-reflected tau on the same axis, cached per hbar (the momentum law
    depends on it).
    """

    def __init__(self, axis: str, noise: GridMeasure | MixedState) -> None:
        self._sharp = Sharp(axis)
        self.axis = axis
        self.noise = noise
        self._cache: dict[float, GridMeasure] = {}

    def sharp(self) -> Sharp:
        return self._sharp

    def smearing(self, hbar: float = 1.0) -> GridMeasure:
        if isinstance(self.noise, GridMeasure):
            return self.noise
        if hbar not in self._cache:
            self._cache[hbar] = self.sharp().distribution(parity(self.noise),
                                                          hbar)
        return self._cache[hbar]

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        return convolve(self.sharp().distribution(state, hbar),
                        self.smearing(hbar))


def SmearedPosition(mu: GridMeasure) -> Smeared:
    """Position measurement whose outcome is offset by independent noise mu."""
    return Smeared("position", mu)


def SmearedMomentum(nu: GridMeasure) -> Smeared:
    """Momentum measurement whose outcome is offset by independent noise nu."""
    return Smeared("momentum", nu)


def CovariantMarginal(tau: State, axis: str) -> Smeared:
    """One margin of the covariant phase-space observable generated by tau."""
    return Smeared(axis, _as_mixed(tau))


# -- outcome moments ---------------------------------------------------------

@dataclass(frozen=True)
class MomentStats:
    """Moments of the outcome law, split to expose intrinsic device noise.

    For a smearing by mu the mean-outcome operator is A + mu_1 and the mean
    squared-outcome operator is A^2 + 2 mu_1 A + mu_2, while the square of
    the mean-outcome operator is A^2 + 2 mu_1 A + mu_1^2; their gap is the
    state-independent variance of mu.
    """

    first_moment_mean: float
    first_moment_sq_mean: float
    second_moment_mean: float


def _base_and_smearing(obs: Observable, state: State, hbar: float
                       ) -> tuple[GridMeasure, GridMeasure | None]:
    if isinstance(obs, Smeared):
        return obs.sharp().distribution(state, hbar), obs.smearing(hbar)
    if isinstance(obs, Sharp):
        return obs.distribution(state, hbar), None
    raise DomainError("moment statistics need a sharp or smeared observable")


def moment_stats(obs: Observable, state: State, hbar: float = 1.0) -> MomentStats:
    """Outcome-moment statistics for sharp and smeared observables."""
    base, mu = _base_and_smearing(obs, state, hbar)
    a1 = base.mean()
    a2 = base.moment(2)
    if mu is None:
        return MomentStats(a1, a2, a2)
    m1 = mu.mean()
    m2 = mu.moment(2)
    sq = a2 + 2.0 * m1 * a1
    return MomentStats(a1 + m1, sq + m1 * m1, sq + m2)


# -- joint covariant distribution ---------------------------------------------

@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Phase-space outcome masses on a rectangular lattice with the total
    variation gaps between its margins and the predicted smeared laws."""

    q_values: np.ndarray
    p_values: np.ndarray
    mass: np.ndarray
    q_marginal_tv: float
    p_marginal_tv: float


def _lattice_indices(values: np.ndarray, step: float, offset: float,
                     label: str) -> np.ndarray:
    idx = np.round((values - offset) / step)
    if np.max(np.abs(values - (offset + idx * step))) > 1e-9 * max(1.0, step):
        raise DomainError(f"{label} values must sit on the lattice")
    return idx.astype(int)


def _smoothed_cdf(ref: GridMeasure):
    """CDF of ref with each atom spread over a mini-cell of the minimum
    spacing.  Atoms of a discretized density routinely land exactly on
    window edges; a jump CDF then assigns them wholly to one side, biasing
    every window the same way, while the spread splits them in proportion."""
    atoms = ref.atoms
    weights = ref.weights
    if atoms.size < 2:
        return ref.cdf
    h = ref.min_spacing()
    cum = np.concatenate([[0.0], np.cumsum(weights)])

    def cdf(e: float) -> float:
        j = int(np.searchsorted(atoms, e - 0.5 * h, side="right"))
        val = cum[j]
        if j < atoms.size:
            lo = atoms[j] - 0.5 * h
            if e > lo:  # at most one straddler: cells are disjoint
                val += weights[j] * min(1.0, (e - lo) / h)
        return float(val)

    return cdf


# total-variation gap allowed between the joint margins and the smeared laws
_JOINT_TV_TOL = 1e-2


def _binned_tv(masses: np.ndarray, centers: np.ndarray, step: float,
               ref: GridMeasure) -> float:
    # compare window-binned reference masses against the lattice masses;
    # reference mass outside the window counts as disagreement
    edges = np.concatenate([centers - 0.5 * step, [centers[-1] + 0.5 * step]])
    cdf = _smoothed_cdf(ref)
    cdf_vals = np.array([cdf(e) for e in edges])
    ref_bins = np.diff(cdf_vals)
    leftover = 1.0 - float(cdf_vals[-1] - cdf_vals[0])
    missing = max(0.0, 1.0 - float(np.sum(masses)))
    return 0.5 * (float(np.abs(ref_bins - masses).sum()) + leftover + missing)


def joint_covariant_distribution(tau: State, state: State,
                                 q_values: np.ndarray, p_values: np.ndarray,
                                 hbar: float = 1.0) -> JointDistribution:
    """Joint phase-space law of the covariant observable generated by tau.

    The mass assigned to lattice point (q, p) is the outcome density there
    times the lattice cell area.  q_values must be cell-aligned multiples of
    the grid step and uniformly spaced; p_values must sit on the momentum
    lattice.  Margins are checked in total variation against the convolved
    sharp laws; a gap beyond 1e-2 raises AccuracyError (the lattice window
    is clipping real mass or is too coarse).
    """
    t = _as_mixed(tau)
    s = _as_mixed(state)
    grid = s.grid
    if t.grid != grid:
        raise DomainError("tau and state must share one grid")
    q_values = np.asarray(q_values, dtype=float).reshape(-1)
    p_values = np.asarray(p_values, dtype=float).reshape(-1)
    if q_values.size < 2 or p_values.size < 2:
        raise DomainError("need at least two lattice points per axis")
    if np.any(np.diff(q_values) <= 0.0) or np.any(np.diff(p_values) <= 0.0):
        raise DomainError("lattice values must be strictly increasing")
    dx, n = grid.dx, grid.n
    dp = grid.momentum_step(hbar)
    q_cells = _lattice_indices(q_values, dx, 0.0, "q")
    p_idx = _lattice_indices(p_values, dp, -dp * (n // 2), "p")
    if p_idx[0] < 0 or p_idx[-1] >= n:
        raise DomainError("p values fall outside the momentum band")
    dq_step = float(q_values[1] - q_values[0])
    dp_step = float(p_values[1] - p_values[0])
    if (np.max(np.abs(np.diff(q_values) - dq_step)) > 1e-9
            or np.max(np.abs(np.diff(p_values) - dp_step)) > 1e-9):
        raise DomainError("lattice spacing must be uniform")

    scale = dx * dx / (2.0 * math.pi * hbar) * dq_step * dp_step
    mass = np.zeros((q_values.size, p_values.size))
    for w_t, phi in t.components:
        for w_s, psi in s.components:
            w = w_t * w_s
            for iq, cells in enumerate(q_cells):
                overlap = np.conj(_shift_cells(phi.amplitudes, int(cells))) \
                    * psi.amplitudes
                spectrum = np.fft.fftshift(np.fft.fft(overlap))
                mass[iq] += w * scale * np.abs(spectrum[p_idx]) ** 2

    mu_tau, nu_tau = covariant_marginals(t, hbar)
    ref_q = convolve(position_distribution(s), mu_tau)
    ref_p = convolve(momentum_distribution(s, hbar), nu_tau)
    tv_q = _binned_tv(mass.sum(axis=1), q_values, dq_step, ref_q)
    tv_p = _binned_tv(mass.sum(axis=0), p_values, dp_step, ref_p)
    if max(tv_q, tv_p) > _JOINT_TV_TOL:
        raise AccuracyError(
            f"joint margins drift from the smeared laws by TV "
            f"{max(tv_q, tv_p):.3e} > {_JOINT_TV_TOL:.1e}")
    return JointDistribution(q_values, p_values, mass, tv_q, tv_p)


# -- JSON-friendly specs --------------------------------------------------------

def _bounded_range(r: float) -> BoundedRangeMap:
    if r <= 0.0:
        raise DomainError("half_range must be positive")
    return BoundedRangeMap(lambda x: r * np.tanh(x / r), -r, r)


_MAP_KINDS = {
    "identity": (identity_map, {}),
    "table": (PiecewiseLinearMap, {"xs": list[float], "ys": list[float]}),
    "cos_shift": (lambda a: BoundedShiftMap(lambda x: a * np.cos(x), abs(a)),
                  {"amplitude": float}),
    "bounded_range": (_bounded_range, {"half_range": float}),
}

# builders take (grid, hbar, *parameters); nested specs use the readers by name
_OBSERVABLE_KINDS = {
    "sharp_position": (lambda grid, hbar: Sharp("position"), {}),
    "sharp_momentum": (lambda grid, hbar: Sharp("momentum"), {}),
    "smeared_position": (lambda grid, hbar, measure:
                         Smeared("position", measure_from_spec(measure)),
                         {"measure": dict}),
    "smeared_momentum": (lambda grid, hbar, measure:
                         Smeared("momentum", measure_from_spec(measure)),
                         {"measure": dict}),
    "trivial": (lambda grid, hbar, measure, axis:
                TrivialObservable(measure_from_spec(measure), axis),
                {"measure": dict, "axis": "position"}),
    "pushforward": (lambda grid, hbar, inner, f: PushforwardObservable(
                        observable_from_spec(inner, grid, hbar),
                        map_from_spec(f)),
                    {"inner": dict, "map": dict}),
    "covariant_marginal": (lambda grid, hbar, tau, axis: CovariantMarginal(
                               state_from_spec(tau, grid, hbar), axis),
                           {"tau": dict, "axis": "position"}),
}


def map_from_spec(spec: dict) -> MeasurableMap:
    """Build a value-space map from a dict: identity, table(xs, ys),
    cos_shift(amplitude), or bounded_range(half_range)."""
    return _read_spec(spec, "map", _MAP_KINDS, "kind")


def observable_from_spec(spec: dict, grid=None, hbar: float = 1.0) -> Observable:
    """Build an observable from a JSON-friendly dict (CLI input format)."""
    return _read_spec(spec, "observable", _OBSERVABLE_KINDS, "kind", grid, hbar)


def observable_to_spec(obs: Observable) -> dict:
    """Dict form of an observable where one exists (not every map or
    generator is serializable; those raise DomainError)."""
    if isinstance(obs, Sharp):
        return {"kind": f"sharp_{obs.axis}"}
    if isinstance(obs, Smeared) and isinstance(obs.noise, GridMeasure):
        return {"kind": f"smeared_{obs.axis}",
                "measure": _measure_spec(obs.noise)}
    if isinstance(obs, TrivialObservable):
        return {"kind": "trivial", "measure": _measure_spec(obs.law),
                "axis": obs.axis}
    raise DomainError("observable has no serializable spec")


def _measure_spec(m: GridMeasure) -> dict:
    return {"atoms": [float(a) for a in m.atoms],
            "weights": [float(w) for w in m.weights]}
