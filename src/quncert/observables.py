"""Observables: maps from states to outcome laws on the real line.

Each observable is a kernel on the Born law of its axis: `from_law` maps
that law to the outcome law, and `Observable.distribution` applies it to a
state's Born law and keeps the result on the state per (device, hbar);
devices compare by value, with a noise measure or generator compared by
identity.  `Sharp` keeps the law (`SharpPosition`, `SharpMomentum`).
`Smeared` convolves it with a noise measure: a fixed one
(`SmearedPosition`, `SmearedMomentum`) or the smearing measure of the
margin (`CovariantMarginal`) of the translation-covariant phase-space
observable generated by a normalized reference state.  Pushforwards
transform the value space.

Every smearing is one `measures.convolve`.  A covariant margin whose
generator lives on the state's own grid convolves two Born laws on that
grid's lattice of its axis (step dx, or dp = 2 pi hbar / span), which
`convolve` recognizes and adds up without binning, so momentum widths come
out as whole multiples of dp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AccuracyError, DomainError
from .measures import (BoundedRangeMap, BoundedShiftMap, GridMeasure,
                       MeasurableMap, PiecewiseLinearMap, _read_spec,
                       convolve, identity_map, measure_from_spec, point_mass,
                       pushforward)
from .states import (State, _kept, momentum_distribution, parity,
                     position_distribution, state_from_spec)


class Observable:
    """Base type: `from_law` maps the Born law on `axis` to the outcome law.

    A state-independent device (`TrivialObservable`) and a pushforward,
    which maps its inner device's `distribution`, override `distribution`,
    so no Born law is computed only to be dropped."""

    axis: str

    def __post_init__(self) -> None:
        if self.axis not in ("position", "momentum"):
            raise DomainError("axis must be 'position' or 'momentum'")

    def from_law(self, law: GridMeasure, hbar: float) -> GridMeasure:
        raise NotImplementedError

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        """The outcome law, kept on the state per (device, hbar)."""
        return _kept(state, (self, hbar), lambda: self.from_law(
            _born_law(self.axis, state, hbar), hbar))


def _born_law(axis: str, state: State, hbar: float) -> GridMeasure:
    return (position_distribution(state) if axis == "position"
            else momentum_distribution(state, hbar))


@dataclass(frozen=True)
class Sharp(Observable):
    """Ideal position or momentum measurement: the Born law on `axis`."""

    axis: str

    def from_law(self, law: GridMeasure, hbar: float) -> GridMeasure:
        return law


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

    def from_law(self, law: GridMeasure, hbar: float) -> GridMeasure:
        return self.law

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        """The fixed law; the state's Born law is never computed."""
        return self.law


@dataclass(frozen=True, eq=False)
class PushforwardObservable(Observable):
    """Post-processing of another observable by a map on the value space."""

    inner: Observable
    map: MeasurableMap

    @property
    def axis(self) -> str:  # type: ignore[override]
        return self.inner.axis

    def from_law(self, law: GridMeasure, hbar: float) -> GridMeasure:
        return pushforward(self.inner.from_law(law, hbar), self.map)

    def distribution(self, state: State, hbar: float = 1.0) -> GridMeasure:
        """The inner outcome law mapped: a trivial inner device computes
        no Born law."""
        return pushforward(self.inner.distribution(state, hbar), self.map)


@dataclass(frozen=True)
class Smeared(Observable):
    """Sharp position or momentum measurement offset by independent noise.

    The outcome law is the Born law on `axis` convolved with the smearing
    measure.  `noise` is either that measure or a generator state tau; the
    covariant margin of tau is smeared by the Born law of the
    parity-reflected tau on the same axis.

    When tau shares the law's grid, the two laws hold one lattice by
    construction, so `measures.convolve` adds them up on it: no pair sum
    is binned, and on the momentum axis no atom drifts off the multiples
    of dp.  A fixed noise measure or a tau on another grid is binned,
    unless its atoms are the law's own lattice.
    """

    axis: str
    noise: GridMeasure | State

    def sharp(self) -> Sharp:
        return Sharp(self.axis)

    def smearing(self, hbar: float = 1.0) -> GridMeasure:
        if isinstance(self.noise, GridMeasure):
            return self.noise
        return self.sharp().distribution(parity(self.noise), hbar)

    def from_law(self, law: GridMeasure, hbar: float) -> GridMeasure:
        return convolve(law, self.smearing(hbar))


def SmearedPosition(mu: GridMeasure) -> Smeared:
    """Position measurement whose outcome is offset by independent noise mu."""
    return Smeared("position", mu)


def SmearedMomentum(nu: GridMeasure) -> Smeared:
    """Momentum measurement whose outcome is offset by independent noise nu."""
    return Smeared("momentum", nu)


def CovariantMarginal(tau: State, axis: str) -> Smeared:
    """One margin of the covariant phase-space observable generated by tau."""
    return Smeared(axis, tau)


def covariant_marginals(tau: State, hbar: float = 1.0
                        ) -> tuple[GridMeasure, GridMeasure]:
    """Smearing measures (position, momentum) of the covariant observable
    generated by tau: the Born laws of the parity-reflected generator."""
    return (CovariantMarginal(tau, "position").smearing(hbar),
            CovariantMarginal(tau, "momentum").smearing(hbar))


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


def moment_stats(obs: Observable, state: State, hbar: float = 1.0) -> MomentStats:
    """Outcome-moment statistics for sharp and smeared observables."""
    s, _, st = _scaled_moments(obs, state, hbar)
    return MomentStats(s * st.first_moment_mean, s * s * st.first_moment_sq_mean,
                       s * s * st.second_moment_mean)


def _scaled_moments(obs: Observable, state: State, hbar: float
                    ) -> tuple[float, float, MomentStats]:
    """(scale, mean of the Born law, MomentStats) of the outcome in units of
    scale: a power of two, 1 unless an atom reaches 2^500, so the rescaling
    is exact and no square overflows."""
    if not isinstance(obs, (Sharp, Smeared)):
        raise DomainError("moment statistics need a sharp or smeared observable")
    laws = (Sharp(obs.axis).distribution(state, hbar),
            obs.smearing(hbar) if isinstance(obs, Smeared) else point_mass(0.0))
    peak = max(max(-m.atoms[0], m.atoms[-1]) for m in laws)
    scale = 2.0 ** max(math.frexp(peak)[1] - 500, 0)
    (a1, a2), (m1, m2) = [[float(np.sum(m.weights * (m.atoms / scale) ** k))
                           for k in (1, 2)] for m in laws]
    sq = a2 + 2.0 * m1 * a1
    return scale, a1, MomentStats(a1 + m1, sq + m1 * m1, sq + m2)


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


# total-variation gap allowed between the joint margins and the smeared laws
_JOINT_TV_TOL = 1e-2
# shifted rows per FFT call of the joint law: a block this small stays in
# cache (on a 4096-point grid it takes about two thirds of the time of one
# call per row, while 8- or 16-row blocks or one call for all rows gain
# nothing)
_JOINT_ROWS = 4


def _binned_tv(masses: np.ndarray, centers: np.ndarray, step: float,
               ref: GridMeasure) -> float:
    # TV between the lattice masses and ref binned into windows of the given
    # step around the centers; ref mass outside the windows and lattice mass
    # short of 1 count as disagreement.  Each atom of ref is spread over a
    # cell of the minimum spacing, so an atom on a window edge splits in
    # proportion; a single atom keeps its jump
    half = 0.5 * ref.min_spacing() if len(ref) > 1 else 0.0
    knots = np.stack([ref.atoms - half, ref.atoms + half], axis=1).ravel()
    cum = np.repeat(np.concatenate([[0.0], np.cumsum(ref.weights)]), 2)[1:-1]
    edges = np.concatenate([centers - 0.5 * step, [centers[-1] + 0.5 * step]])
    cdf_vals = np.interp(edges, knots, cum)
    leftover = 1.0 - float(cdf_vals[-1] - cdf_vals[0])
    missing = max(0.0, 1.0 - float(np.sum(masses)))
    return 0.5 * (float(np.abs(np.diff(cdf_vals) - masses).sum())
                  + leftover + missing)


def joint_covariant_distribution(tau: State, state: State,
                                 q_values: np.ndarray, p_values: np.ndarray,
                                 hbar: float = 1.0) -> JointDistribution:
    """Joint phase-space law of the covariant observable generated by tau.

    The mass assigned to lattice point (q, p) is the outcome density there
    times the lattice cell area.  q_values must be cell-aligned multiples of
    the grid step, at most n cells from 0, and uniformly spaced; p_values
    must sit on the momentum lattice.  Margins are checked in total
    variation against the smeared laws
    (`CovariantMarginal(tau, axis).distribution`, the sharp law convolved
    with the covariant smearing) binned into the lattice windows, with
    their mass outside the windows counted; a gap beyond 1e-2 raises
    AccuracyError (the lattice window is clipping real mass or is too
    coarse).
    """
    grid = state.grid
    if tau.grid != grid:
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
    if np.max(np.abs(q_cells)) > n:
        raise DomainError("q values fall outside the grid")
    # centered lattice index k reads the unshifted spectrum at k - n/2 mod n
    fft_idx = (p_idx - n // 2) % n
    dq_step = float(q_values[1] - q_values[0])
    dp_step = float(p_values[1] - p_values[0])
    if (np.max(np.abs(np.diff(q_values) - dq_step)) > 1e-9
            or np.max(np.abs(np.diff(p_values) - dp_step)) > 1e-9):
        raise DomainError("lattice spacing must be uniform")

    scale = dx * dx / (2.0 * math.pi * hbar) * dq_step * dp_step
    mass = np.zeros((q_values.size, p_values.size))
    for w_t, phi in tau.components:
        # conj(phi) moved right by c cells, zeros shifted in, is the window
        # of length n from n - c of conj(phi) padded by n zeros on each side
        padded = np.conj(np.concatenate([np.zeros(n), phi.amplitudes,
                                         np.zeros(n)]))
        windows = np.lib.stride_tricks.sliding_window_view(padded, n)
        for w_s, psi in state.components:
            w = w_t * w_s
            # every product outside the live span [a, b) of psi is 0, so
            # only the span is multiplied, into a block that stays 0 elsewhere
            live = np.flatnonzero(psi.amplitudes)
            a, b = int(live[0]), int(live[-1]) + 1
            block = np.zeros((_JOINT_ROWS, n), dtype=complex)
            for start in range(0, q_cells.size, _JOINT_ROWS):
                rows = slice(start, start + _JOINT_ROWS)
                cells = q_cells[rows]
                np.multiply(windows[n - cells, a:b], psi.amplitudes[a:b],
                            out=block[:cells.size, a:b])
                spectrum = np.fft.fft(block[:cells.size], axis=1)
                mass[rows] += w * scale * np.abs(spectrum[:, fft_idx]) ** 2

    tv_q, tv_p = (
        _binned_tv(masses, values, window,
                   CovariantMarginal(tau, axis).distribution(state, hbar))
        for axis, masses, values, window in (
            ("position", mass.sum(axis=1), q_values, dq_step),
            ("momentum", mass.sum(axis=0), p_values, dp_step)))
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
