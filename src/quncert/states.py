"""Discretized 1-D quantum states on uniform grids.

Wavefunctions are complex amplitude arrays on a uniform position grid of
power-of-two length.  Momentum-space amplitudes use the unitary convention
psihat(p_k) = dx / sqrt(2 pi hbar) * sum_j psi(x_j) exp(-i p_k x_j / hbar)
on the centered momentum lattice p_k = 2 pi hbar ktilde / (N dx), so that
discrete position and momentum masses agree exactly (Parseval).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import (ConvergenceError, DomainError, GridTooSmallError,
                         ResourceError)
from .measures import (GridMeasure, Interval, _make, _read_csv, _read_spec,
                       _typed, _write_csv)

_NORM_TOL = 1e-9
# largest grid length accepted; the named grids use at most 4096 points
MAX_GRID_POINTS = 2 ** 20
# largest Hermite n; hermval and the squared amplitudes overflow from n ~ 150
MAX_HERMITE_N = 100
# points within +-_SCALE, steps in [1/_SCALE, _SCALE]: lattice products stay finite
_SCALE = 1e100
# Born weights below this share of the law's mass are set to exact zero.
# FFT round-off leaves about (eps log2 n)^2 / n of the mass on every atom
# (measured: at most 1e-32 on 4096-point weyl-translated states), so the
# floor sits 5 decades above it; the mass it removes is at most
# n 2^-90 <= 2^-70 at MAX_GRID_POINTS, far below one ulp of the total.
_BORN_FLOOR = 2.0 ** -90
# Amplitudes of a sub-cell shift below this share of the largest modulus are
# set to exact zero: they are the FFT's round-off (mostly 1e-18 to 1e-16 of
# the peak, where the unshifted state holds exact zeros).  Each carries Born
# weight below 2^-104 of the mass, so the position law of a pure state had
# cut it anyway; in a mixture it may sit on another component's live atom,
# which then moves by less than 2^-104 of the mass.
_AMPLITUDE_FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid x_i = x0 + i dx, i = 0..n-1, with n a power of two."""

    x0: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if not (self.dx > 0.0 and math.isfinite(self.dx) and math.isfinite(self.x0)):
            raise DomainError("grid needs finite x0 and positive dx")
        if self.n > MAX_GRID_POINTS:
            raise ResourceError(f"grid length {self.n} exceeds the cap {MAX_GRID_POINTS}")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise DomainError("grid length must be a power of two >= 4")
        if not (self.dx >= 1 / _SCALE and abs(self.x0) + self.span <= _SCALE):
            raise DomainError(f"grid |x0|+span or dx not in [{1 / _SCALE:g}, {_SCALE:g}]")

    @classmethod
    def symmetric(cls, half_width: float, n: int) -> "GridSpec":
        return cls(-half_width, 2.0 * half_width / n, n)

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def span(self) -> float:
        return self.n * self.dx

    @property
    def x_end(self) -> float:
        return self.x0 + (self.n - 1) * self.dx

    def momentum_step(self, hbar: float = 1.0) -> float:
        if not 0.0 < hbar < math.inf:
            raise DomainError("hbar must be finite and positive")
        dp = 2.0 * math.pi * hbar / self.span
        if not 1 / _SCALE <= dp <= _SCALE:
            raise DomainError(f"momentum step {dp:g} not in [{1 / _SCALE:g}, {_SCALE:g}]")
        return dp

    def momentum_points(self, hbar: float = 1.0) -> np.ndarray:
        return self.momentum_step(hbar) * (np.arange(self.n) - self.n // 2)

    def lattice(self, axis: str, hbar: float = 1.0) -> tuple[np.ndarray, float]:
        """Outcome points and step of the sharp law on axis: the grid points
        with step dx, or the centered momentum lattice with step dp."""
        if axis == "position":
            return self.points(), self.dx
        if axis == "momentum":
            return self.momentum_points(hbar), self.momentum_step(hbar)
        raise DomainError(f"no lattice for axis {axis!r}")

    def snap(self, axis: str, x: float, hbar: float = 1.0) -> tuple[int, float]:
        """Index and value of the interior lattice point of axis nearest to x."""
        points, step = self.lattice(axis, hbar)
        origin = float(points[0])
        cells = (x - origin) / step
        idx = int(round(cells)) if -1.0 < cells < self.n else 0
        if not 0 < idx < self.n - 1:
            raise DomainError(f"point {x:g} lies outside the {axis} lattice interior")
        return idx, origin + idx * step

    def window(self, axis: str, center: float, width: float,
               hbar: float = 1.0) -> np.ndarray:
        """Mask of the lattice points of axis within width/2 of center (with a
        1e-12 relative slack); at least two points, none at a lattice end."""
        points, step = self.lattice(axis, hbar)
        if width < 2.0 * step * (1.0 - 1e-12):
            raise DomainError(f"window must span two {axis} lattice steps")
        mask = np.abs(points - center) <= 0.5 * width + 1e-12 * max(1.0, abs(center))
        if np.count_nonzero(mask) < 2 or mask[0] or mask[-1]:
            raise DomainError(f"window must lie strictly inside the {axis} lattice")
        return mask

    def around_midpoint(self, axis: str, fractions: Sequence[float],
                        hbar: float = 1.0) -> list[float]:
        """Points at the given fractions of the lattice span of axis from the
        lattice midpoint (the point of index n // 2)."""
        points, step = self.lattice(axis, hbar)
        return [float(points[self.n // 2]) + f * self.n * step for f in fractions]

    def is_symmetric(self) -> bool:
        return abs(self.x0 + 0.5 * self.span) <= 1e-9 * max(1.0, self.span)


# -- named grids ----------------------------------------------------------------
# DEFAULT_GRID      state specs, probe sweeps, test ensembles, connections
# UR_ENSEMBLE_GRID  deviation products: fine momentum lattice for their kink
# COVARIANT_GRID    covariant margins, |P|-kinetic ground states, the demo
# SOLVER_GRID       ground states with a smooth kinetic term
DEFAULT_GRID = GridSpec.symmetric(16.0, 2048)
UR_ENSEMBLE_GRID = GridSpec.symmetric(102.4, 4096)
COVARIANT_GRID = GridSpec.symmetric(64.0, 4096)
SOLVER_GRID = GridSpec.symmetric(12.0, 1024)


# |P|-type kinetic terms have power-law bound-state tails: solver_grid gives
# them a wide box and a fine momentum lattice (the kink of the kinetic symbol
# at 0 biases the lattice energy by O(dp^2)), and their edge gate is relaxed
_HEAVY_TAIL_BOUNDARY_TOL = 1e-3


def solver_grid(beta: float) -> GridSpec:
    """Named grid for the ground state of |Q|^alpha + |P|^beta."""
    return COVARIANT_GRID if beta == 1.0 else SOLVER_GRID


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Normalized complex amplitudes on a uniform grid."""

    x0: float
    dx: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "_grid", GridSpec(self.x0, self.dx, amp.size))
        if not np.all(np.isfinite(amp.view(float))):
            raise DomainError("amplitudes must be finite")
        mass = float(np.sum(np.abs(amp) ** 2) * self.dx)
        if abs(mass - 1.0) > _NORM_TOL:
            raise DomainError(f"state norm deviates from 1 by {mass - 1.0:.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def grid(self) -> GridSpec:
        return self._grid

    @property
    def components(self) -> tuple[tuple[float, "WaveFunction"], ...]:
        """A pure state is the mixture of one."""
        return ((1.0, self),)

    def xs(self) -> np.ndarray:
        return self.grid.points()


@dataclass(frozen=True)
class PhasePoint:
    """Point (q, p) of phase space."""

    q: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise DomainError("phase-space point must be finite")


@dataclass(frozen=True, eq=False)
class MixedState:
    """Finite mixture of wavefunctions on a common grid (at most 16 parts)."""

    components: tuple[tuple[float, WaveFunction], ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not 1 <= len(comps) <= 16:
            raise DomainError("a mixture needs 1 to 16 components")
        grid0 = comps[0][1].grid
        total = 0.0
        for w, wf in comps:
            if w < 0.0:
                raise DomainError("mixture weights must be nonnegative")
            if wf.grid != grid0:
                raise DomainError("all components must share one grid")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise DomainError("mixture weights must sum to 1 within 1e-12")
        object.__setattr__(self, "components", comps)

    @classmethod
    def pure(cls, wf: WaveFunction) -> "MixedState":
        return cls(((1.0, wf),))

    @property
    def grid(self) -> GridSpec:
        return self.components[0][1].grid


# both kinds expose grid and components: (weight, WaveFunction) pairs
State = MixedState | WaveFunction


def _normalized(amp: np.ndarray, dx: float) -> np.ndarray:
    norm = math.sqrt(float(np.sum(np.abs(amp) ** 2) * dx))
    if norm <= 0.0:
        raise DomainError("cannot normalize a zero amplitude array")
    return amp / norm


def _axis_state(grid: GridSpec, axis: str, amp: np.ndarray) -> WaveFunction:
    """Normalized state with the given amplitudes on the lattice of axis:
    position amplitudes as they are, momentum amplitudes (centered lattice)
    mapped back to the grid by the inverse of the momentum convention."""
    if axis == "momentum":
        amp = np.fft.ifft(np.fft.ifftshift(amp))
    return WaveFunction(grid.x0, grid.dx, _normalized(amp, grid.dx))


# -- outcome distributions ----------------------------------------------------

def _drop_round_off(weights: np.ndarray) -> np.ndarray:
    """The weights with every one below _BORN_FLOOR of their sum set to 0."""
    weights[weights < _BORN_FLOOR * np.sum(weights)] = 0.0
    return weights


def _kept(state: State, key, compute):
    """compute(), once per (state, key), kept on the state: states are frozen
    with read-only amplitudes, so it holds while the state lives."""
    kept = vars(state).setdefault("_kept", {})
    if key not in kept:
        kept[key] = compute()
    return kept[key]


def position_distribution(state: State) -> GridMeasure:
    """Born position law on the grid points, renormalized; kept on the state.

    Every grid point stays an atom; weights below 2^-90 of the mass
    (round-off, e.g. of a sub-cell shift) are exact zeros."""
    def law() -> GridMeasure:
        grid = state.grid
        acc = np.zeros(grid.n)
        for w, wf in state.components:
            acc += w * np.abs(wf.amplitudes) ** 2
        return _make(grid.points(), _drop_round_off(acc * grid.dx))
    return _kept(state, "position", law)


def momentum_distribution(state: State, hbar: float = 1.0) -> GridMeasure:
    """Born momentum law on the centered momentum lattice, renormalized.

    Every lattice point stays an atom; weights below 2^-90 of the mass
    (the FFT's round-off) are exact zeros.  Kept on the state per hbar."""
    def law() -> GridMeasure:
        grid = state.grid
        dp = grid.momentum_step(hbar)
        acc = np.zeros(grid.n)
        scale = grid.dx ** 2 / (2.0 * math.pi * hbar)
        for w, wf in state.components:
            psihat = np.fft.fftshift(np.fft.fft(wf.amplitudes))
            acc += w * scale * np.abs(psihat) ** 2
        return _make(grid.momentum_points(hbar), _drop_round_off(acc * dp))
    return _kept(state, ("momentum", hbar), law)


# -- phase-space action ---------------------------------------------------------

def _shift_cells(amp: np.ndarray, cells: int) -> np.ndarray:
    """Amplitudes moved by whole lattice cells (right for cells > 0), with
    zeros shifted in at the vacated end: the window of length n from
    n - cells of the amplitudes padded by n zeros on each side."""
    n = amp.size
    padded = np.concatenate([np.zeros(n), amp, np.zeros(n)])
    return padded[n - cells:2 * n - cells]


def _shift_amplitudes(wf: WaveFunction, q: float, hbar: float) -> np.ndarray:
    """Amplitudes of psi(x - q): whole cells by array shift, remainder by a
    momentum-space phase ramp (exactly unitary for the sub-cell part), whose
    amplitudes below _AMPLITUDE_FLOOR of the largest modulus are exact 0."""
    n = wf.amplitudes.size
    if abs(q) >= 0.5 * wf.grid.span:
        raise DomainError("shift exceeds the grid extent")
    cells = int(round(q / wf.dx))
    lost = wf.amplitudes[n - cells:] if cells > 0 else wf.amplitudes[:-cells]
    dropped = float(np.sum(np.abs(lost) ** 2) * wf.dx)
    if dropped > 1e-9:
        raise DomainError(
            f"shift would wrap {dropped:.3e} of the state past the grid edge")
    amp = _shift_cells(wf.amplitudes, cells)
    residual = q - cells * wf.dx
    if residual != 0.0:
        p_raw = 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=wf.dx)
        amp = np.fft.ifft(np.fft.fft(amp) * np.exp(-1j * p_raw * residual / hbar))
        modulus = np.abs(amp)
        amp[modulus < _AMPLITUDE_FLOOR * np.max(modulus)] = 0.0
    return amp


def weyl_translate(state: State, point: PhasePoint, hbar: float = 1.0) -> MixedState:
    """Apply the phase-space translation W(q, p) to every component.

    Operator ordering: W(q, p) = exp(iqp/2hbar) exp(-iqP/hbar) exp(ipQ/hbar),
    which acts on amplitudes as psi(x) -> exp(-iqp/2hbar) e^{ipx/hbar} psi(x-q).
    """
    q, p = point.q, point.p
    _check_momentum(state.grid, p, hbar)
    out = []
    for w, wf in state.components:
        amp = _shift_amplitudes(wf, q, hbar) if q != 0.0 else wf.amplitudes
        xs = wf.xs()
        amp = amp * np.exp(1j * (p * xs - 0.5 * q * p) / hbar)
        amp = _normalized(amp, wf.dx)  # re-absorb <=1e-9 edge loss
        out.append((w, WaveFunction(wf.x0, wf.dx, amp)))
    return MixedState(tuple(out))


def parity(state: State) -> MixedState:
    """Reflect the state about x = 0, kept on the state; the grid must be
    symmetric about 0."""
    if not state.grid.is_symmetric():
        raise DomainError("parity requires a grid symmetric about 0")

    def reflected() -> MixedState:
        # index map i -> (-i mod n); the leftmost cell is its own partner
        return MixedState(tuple(
            (w, WaveFunction(wf.x0, wf.dx, np.roll(wf.amplitudes[::-1], 1)))
            for w, wf in state.components))
    return _kept(state, "parity", reflected)


# -- state factories ------------------------------------------------------------

def make_gaussian(grid: GridSpec, center: float, momentum: float, sigma: float,
                  hbar: float = 1.0) -> WaveFunction:
    """Minimum-uncertainty Gaussian: position std sigma, momentum std hbar/2sigma.

    A sigma below the grid step cannot be resolved: the samples collapse to
    a lattice delta or underflow.  A sigma beyond the grid span leaves a flat
    profile (and overflows sigma ** 2 when huge).  Both raise
    GridTooSmallError.  The momentum must lie inside the momentum band.
    """
    _check_momentum(grid, momentum, hbar)
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    if sigma < grid.dx:
        raise GridTooSmallError(
            f"gaussian sigma {sigma:g} is below the grid step dx {grid.dx:g}")
    if sigma > grid.span:
        raise GridTooSmallError(
            f"gaussian sigma {sigma:g} exceeds the grid span {grid.span:g}")
    if not (grid.x0 < center < grid.x_end):
        raise DomainError("center must lie inside the grid")
    xs = grid.points()
    amp = np.exp(-((xs - center) ** 2) / (4.0 * sigma ** 2)
                 + 1j * momentum * xs / hbar)
    return WaveFunction(grid.x0, grid.dx, _normalized(amp.astype(complex), grid.dx))


def make_box(grid: GridSpec, center: float, width: float,
             momentum_boost: float = 0.0, hbar: float = 1.0) -> WaveFunction:
    """Flat amplitude on the grid points inside [center - w/2, center + w/2]."""
    _check_momentum(grid, momentum_boost, hbar)
    mask = grid.window("position", center, width)
    amp = np.zeros(grid.n, dtype=complex)
    amp[mask] = 1.0
    if momentum_boost != 0.0:
        amp[mask] *= np.exp(1j * momentum_boost * grid.points()[mask] / hbar)
    return WaveFunction(grid.x0, grid.dx, _normalized(amp, grid.dx))


def _check_momentum(grid: GridSpec, p: float, hbar: float) -> None:
    if not abs(p) < 0.5 * grid.n * grid.momentum_step(hbar):
        raise DomainError(f"momentum {p:g} lies outside the momentum band")


def make_hermite(grid: GridSpec, n: int, hbar: float = 1.0) -> WaveFunction:
    """n-th oscillator eigenstate of (Q^2 + P^2)/2 about the grid midpoint;
    n = 0 has sigma sqrt(hbar/2).  Its turning points sqrt((2n + 1) hbar)
    must lie inside the grid and the momentum band (GridTooSmallError), and
    n at most MAX_HERMITE_N (ResourceError).  The Gaussian factor is 0
    beyond |xi| = 40, so the polynomial is evaluated at most there."""
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise DomainError("excitation number must be a nonnegative integer")
    center = grid.around_midpoint("position", (0.0,))[0]
    reach = min(center - grid.x0, grid.x_end - center,
                0.5 * grid.n * grid.momentum_step(hbar))
    if 2 * n + 1 > reach * reach / hbar:
        raise GridTooSmallError(
            f"hermite n = {n} has turning points beyond the grid reach {reach:g}")
    if n > MAX_HERMITE_N:
        raise ResourceError(f"hermite n = {n} exceeds the cap {MAX_HERMITE_N}")
    xi = np.clip((grid.points() - center) / math.sqrt(hbar), -40.0, 40.0)
    coeffs = np.zeros(int(n) + 1)
    coeffs[-1] = 1.0
    herm = np.polynomial.hermite.hermval(xi, coeffs)
    amp = herm * np.exp(-0.5 * xi ** 2)
    return WaveFunction(grid.x0, grid.dx, _normalized(amp.astype(complex), grid.dx))


def make_random_localized(grid: GridSpec, interval: Interval, seed: int) -> WaveFunction:
    """Seeded random complex amplitudes on the interval's grid cells.

    A Hann window tapers the envelope; identical seeds give bit-identical
    amplitudes.
    """
    xs = grid.points()
    mask = (xs >= interval.lo) & (xs <= interval.hi)
    count = int(np.count_nonzero(mask))
    if count < 2:
        raise DomainError("interval must cover at least two grid cells")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    window = np.hanning(count + 2)[1:-1]
    amp = np.zeros(grid.n, dtype=complex)
    amp[mask] = values * window
    return WaveFunction(grid.x0, grid.dx, _normalized(amp, grid.dx))


def _cell_state(grid: GridSpec, center: float, axis: str = "position",
                hbar: float = 1.0) -> WaveFunction:
    """Unit mass on the interior lattice point of axis nearest to center
    (exactly localized on that axis)."""
    amp = np.zeros(grid.n, dtype=complex)
    amp[grid.snap(axis, center, hbar)[0]] = 1.0
    return _axis_state(grid, axis, amp)


# -- ground states of |Q|^alpha + |P|^beta ---------------------------------------

# steps allowed for a drop below 0.9 x the last low of the residual; (4, 4)
# on SOLVER_GRID, the stiffest solve in the tests, needs at most 66
_STALL_STEPS = 500


def _check_exponents(alpha: float, beta: float) -> None:
    if not (1.0 <= alpha < math.inf and 1.0 <= beta < math.inf):
        raise DomainError("exponents must be finite and >= 1")


def ground_state(alpha: float, beta: float, grid: GridSpec | None = None,
                 tol: float = 1e-6, boundary_tol: float | None = None
                 ) -> tuple[float, WaveFunction]:
    """Ground energy and state of H = |Q|^alpha + |P|^beta (dimensionless hbar=1).

    Single-vector LOBPCG (Knyazev 2001) from exp(-x^2/2) on real unit vectors
    u, so u / sqrt(dx) is the wavefunction and ||H u - g u|| the dx-weighted
    residual.  Each step is a Rayleigh-Ritz step on u, the previous direction
    and three preconditioned residuals.  Stops once the residual is below
    tol; ConvergenceError after _STALL_STEPS steps without a 10 % drop.
    Afterwards the boundary amplitude must be below boundary_tol or the grid
    is deemed too small.  Kinetic symbols |p|^beta with beta not an even
    integer are non-smooth at p = 0, which makes the kinetic operator
    nonlocal with power-law bound-state tails; such runs need a relaxed
    boundary_tol (or a much wider box) on desk-scale grids.  Defaults: grid
    solver_grid(beta), boundary_tol 1e-3 at beta = 1 and 1e-8 otherwise.
    """
    _check_exponents(alpha, beta)
    if grid is None:
        grid = solver_grid(beta)
    if boundary_tol is None:
        boundary_tol = _HEAVY_TAIL_BOUNDARY_TOL if beta == 1.0 else 1e-8
    if not (0.0 < tol < math.inf and 0.0 < boundary_tol < math.inf):
        raise DomainError("tol and boundary_tol must be finite and positive")
    if not grid.is_symmetric():
        raise DomainError("ground-state grid must be symmetric about 0")
    xs = grid.points()
    # capped at _SCALE (finite products), which alters H only where psi underflows
    v_diag = np.minimum(np.abs(xs), _SCALE ** (1.0 / alpha)) ** alpha
    p_half = 2.0 * math.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    t_diag = np.minimum(p_half, _SCALE ** (1.0 / beta)) ** beta

    def kinetic(rows: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        return np.fft.irfft(symbol * np.fft.rfft(rows), grid.n)

    psi = _normalized(np.exp(-0.5 * xs ** 2), 1.0)
    direction = np.zeros(grid.n)
    low, low_step = math.inf, 0
    for step in itertools.count():
        h_psi = v_diag * psi + kinetic(psi, t_diag)
        g = float(psi @ h_psi)
        r = h_psi - g * psi
        residual = float(np.linalg.norm(r))
        if residual < tol:
            break
        if residual < 0.9 * low:
            low, low_step = residual, step
        if step - low_step >= _STALL_STEPS:
            raise ConvergenceError(f"residual {residual:.2e} above tol at step {step}")
        t_r = kinetic(np.stack([r, r / np.sqrt(v_diag + g)]), 1.0 / (t_diag + g))
        rows = np.stack([psi, direction, r / (v_diag + g), t_r[0],
                         t_r[1] / np.sqrt(v_diag + g)])
        norms = np.linalg.norm(rows, axis=1)
        q, tri = np.linalg.qr((rows[norms > 0.0] / norms[norms > 0.0, None]).T)
        q = q[:, np.abs(np.diag(tri)) > 1e-12]
        h_q = v_diag[:, None] * q + kinetic(q.T, t_diag).T
        c = np.linalg.eigh(q.T @ h_q)[1][:, 0]
        psi, direction = q @ c, q[:, 1:] @ c[1:]
    # unit Euclidean norm to unit L2 norm, with the global sign fixed
    psi = psi / math.copysign(math.sqrt(grid.dx), psi[np.argmax(np.abs(psi))])
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge > boundary_tol:
        raise GridTooSmallError(
            f"boundary amplitude {edge:.3e} exceeds {boundary_tol:.1e}")
    return g, WaveFunction(grid.x0, grid.dx, psi)


# -- built-in ensembles -----------------------------------------------------------

def test_ensemble(grid: GridSpec = DEFAULT_GRID, hbar: float = 1.0,
                  seed: int = 0) -> list[State]:
    """Fixed, varied states around the grid midpoint for invariants and checks."""
    c = grid.around_midpoint("position", (0.0,))[0]
    states: list[State] = []
    for sigma in (0.5, 1.0, 2.0):
        states.append(make_gaussian(grid, c, 0.0, sigma, hbar))
    states.append(make_gaussian(grid, c + 1.5, -2.0, 0.8, hbar))
    for width in (0.5, 2.0):
        states.append(make_box(grid, c, width, 0.0, hbar))
    states.append(make_box(grid, c - 1.0, 1.0, 3.0, hbar))
    for n in (1, 2, 3):
        states.append(make_hermite(grid, n, hbar))
    for k in range(3):
        states.append(
            make_random_localized(grid, Interval(c, 4.0), seed + 17 * k))
    left = make_gaussian(grid, c - 2.0, 0.0, 0.7, hbar)
    right = make_gaussian(grid, c + 2.0, 0.0, 0.7, hbar)
    states.append(MixedState(((0.5, left), (0.5, right))))
    return states


def random_ensemble(grid: GridSpec, n_states: int, seed: int,
                    hbar: float = 1.0) -> list[WaveFunction]:
    """Seeded random states drawn from all factory families.

    Parameter ranges keep every law resolved by the grid: the momentum lattice
    step must stay well below the smallest momentum spread sampled, otherwise
    discretized deviation functionals are biased low near their kink.
    """
    rng = np.random.default_rng(seed)
    p_max = math.pi * hbar / grid.dx
    mid = grid.around_midpoint("position", (0.0,))[0]
    states: list[WaveFunction] = []
    while len(states) < n_states:
        kind = rng.integers(0, 4)
        center = mid + float(rng.uniform(-0.1, 0.1) * grid.span / 4.0)
        if kind == 0:
            sigma = float(rng.uniform(0.3, 2.0))
            boost = float(rng.uniform(-0.1, 0.1) * p_max)
            states.append(make_gaussian(grid, center, boost, sigma, hbar))
        elif kind == 1:
            width = float(rng.uniform(4.0 * grid.dx, 2.0))
            boost = float(rng.uniform(-0.05, 0.05) * p_max)
            states.append(make_box(grid, center, width, boost, hbar))
        elif kind == 2:
            states.append(make_hermite(grid, int(rng.integers(0, 6)), hbar))
        else:
            width = float(rng.uniform(1.0, 6.0))
            sub_seed = int(rng.integers(0, 2 ** 31))
            states.append(
                make_random_localized(grid, Interval(center, width), sub_seed))
    return states


def _mixture(grid: GridSpec, hbar: float, components: list) -> MixedState:
    parts = []
    for comp in components:
        if "weight" not in comp:
            raise DomainError("mixture components need a 'weight'")
        rest = {k: v for k, v in comp.items() if k != "weight"}
        (_, wf), *more = state_from_spec(rest, grid, hbar).components
        if more:
            raise DomainError("mixture components must be pure")
        parts.append((_typed("weight", comp["weight"], float), wf))
    return MixedState(tuple(parts))


# builders take (grid, hbar, *parameters) and look the factories up by name
# at call time, so a wrapper installed on a module attribute sees each call
_STATE_FAMILIES = {
    "gaussian": (lambda grid, hbar, center, momentum, sigma:
                 make_gaussian(grid, center, momentum, sigma, hbar),
                 {"center": 0.0, "momentum": 0.0, "sigma": 1.0}),
    "box": (lambda grid, hbar, center, width, boost:
            make_box(grid, center, width, boost, hbar),
            {"center": 0.0, "width": float, "momentum_boost": 0.0}),
    "hermite": (lambda grid, hbar, n: make_hermite(grid, n, hbar), {"n": int}),
    "random": (lambda grid, hbar, center, width, seed:
               make_random_localized(grid, Interval(center, width), seed),
               {"center": 0.0, "width": float, "seed": 0}),
    "cell": (lambda grid, hbar, center: _cell_state(grid, center),
             {"center": 0.0}),
    "file": (lambda grid, hbar, path: load_wavefunction_csv(path),
             {"path": str}),
    "mixture": (_mixture, {"components": list[dict]}),
}


def state_from_spec(spec: dict, grid: GridSpec | None = None,
                    hbar: float = 1.0) -> State:
    """Build a state from a JSON-friendly dict.

    Families: gaussian(center, momentum, sigma), box(center, width,
    momentum_boost), hermite(n), random(center, width, seed), cell(center),
    file(path), mixture(components=[{weight, ...}, ...]).  Keys outside the
    chosen family are rejected.
    """
    return _read_spec(spec, "state", _STATE_FAMILIES, "family",
                      DEFAULT_GRID if grid is None else grid, hbar)


# -- file format -------------------------------------------------------------------

def save_wavefunction_csv(wf: WaveFunction, path: str) -> None:
    """Write amplitudes as CSV rows 'x,re,im' on the uniform grid."""
    _write_csv(path, ("x", "re", "im"), wf.xs(), wf.amplitudes.real,
               wf.amplitudes.imag)


def load_wavefunction_csv(path: str) -> WaveFunction:
    """Read a 'x,re,im' CSV wavefunction; validates grid uniformity."""
    x, re, im = _read_csv(path, ("x", "re", "im"), "state")
    if x.size < 4:
        raise DomainError(f"{path}: too few samples")
    # values that overflow give an infinite dx or norm, which WaveFunction rejects
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(x)
        dx = float(steps[0])
        if dx <= 0.0 or np.max(np.abs(steps - dx)) > 1e-9 * max(1.0, abs(dx)):
            raise DomainError(f"{path}: grid must be uniform and increasing")
        return WaveFunction(float(x[0]), dx, _normalized(re + 1j * im, dx))
