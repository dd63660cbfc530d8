"""Discretized 1-D quantum states on uniform grids.

Wavefunctions are complex amplitude arrays on a uniform position grid of
power-of-two length.  Momentum-space amplitudes use the unitary convention
psihat(p_k) = dx / sqrt(2 pi hbar) * sum_j psi(x_j) exp(-i p_k x_j / hbar)
on the centered momentum lattice p_k = 2 pi hbar ktilde / (N dx), so that
discrete position and momentum masses agree exactly (Parseval).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ConvergenceError, DomainError, GridTooSmallError
from .measures import GridMeasure, Interval, _check_spec_keys, _make

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid x_i = x0 + i dx, i = 0..n-1, with n a power of two."""

    x0: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if not (self.dx > 0.0 and math.isfinite(self.dx) and math.isfinite(self.x0)):
            raise DomainError("grid needs finite x0 and positive dx")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise DomainError("grid length must be a power of two >= 4")

    @classmethod
    def symmetric(cls, half_width: float, n: int) -> "GridSpec":
        dx = 2.0 * half_width / n
        return cls(-half_width, dx, n)

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def span(self) -> float:
        return self.n * self.dx

    @property
    def x_end(self) -> float:
        return self.x0 + (self.n - 1) * self.dx

    def momentum_step(self, hbar: float = 1.0) -> float:
        return 2.0 * math.pi * hbar / self.span

    def momentum_points(self, hbar: float = 1.0) -> np.ndarray:
        dp = self.momentum_step(hbar)
        return dp * (np.arange(self.n) - self.n // 2)

    def lattice(self, axis: str, hbar: float = 1.0) -> tuple[np.ndarray, float]:
        """Outcome points and step of the sharp law on axis: the grid points
        with step dx, or the centered momentum lattice with step dp."""
        if axis == "position":
            return self.points(), self.dx
        if axis == "momentum":
            return self.momentum_points(hbar), self.momentum_step(hbar)
        raise DomainError(f"no lattice for axis {axis!r}")

    def is_symmetric(self) -> bool:
        return abs(self.x0 + 0.5 * self.span) <= 1e-9 * max(1.0, self.span)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Normalized complex amplitudes on a uniform grid."""

    x0: float
    dx: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = amp.size
        if n < 4 or (n & (n - 1)) != 0:
            raise DomainError("amplitude length must be a power of two >= 4")
        if not (self.dx > 0.0 and math.isfinite(self.dx) and math.isfinite(self.x0)):
            raise DomainError("wavefunction needs finite x0 and positive dx")
        if not np.all(np.isfinite(amp.view(float))):
            raise DomainError("amplitudes must be finite")
        mass = float(np.sum(np.abs(amp) ** 2) * self.dx)
        if abs(mass - 1.0) > _NORM_TOL:
            raise DomainError(f"state norm deviates from 1 by {mass - 1.0:.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.x0, self.dx, self.amplitudes.size)

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


State = MixedState | WaveFunction


def _as_mixed(state: State) -> MixedState:
    return state if isinstance(state, MixedState) else MixedState.pure(state)


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

def position_distribution(state: State) -> GridMeasure:
    """Born position law on the grid points, renormalized."""
    s = _as_mixed(state)
    grid = s.grid
    acc = np.zeros(grid.n)
    for w, wf in s.components:
        acc += w * np.abs(wf.amplitudes) ** 2
    return _make(grid.points(), acc * grid.dx, normalize=True)


def momentum_distribution(state: State, hbar: float = 1.0) -> GridMeasure:
    """Born momentum law on the centered momentum lattice, renormalized."""
    if not hbar > 0.0:
        raise DomainError("hbar must be positive")
    s = _as_mixed(state)
    grid = s.grid
    dp = grid.momentum_step(hbar)
    acc = np.zeros(grid.n)
    scale = grid.dx ** 2 / (2.0 * math.pi * hbar)
    for w, wf in s.components:
        psihat = np.fft.fftshift(np.fft.fft(wf.amplitudes))
        acc += w * scale * np.abs(psihat) ** 2
    return _make(grid.momentum_points(hbar), acc * dp, normalize=True)


# -- phase-space action ---------------------------------------------------------

def _shift_amplitudes(wf: WaveFunction, q: float, hbar: float) -> np.ndarray:
    """Amplitudes of psi(x - q): whole cells by array shift, remainder by a
    momentum-space phase ramp (exactly unitary for the sub-cell part)."""
    n = wf.amplitudes.size
    grid = wf.grid
    if abs(q) >= 0.5 * grid.span:
        raise DomainError("shift exceeds the grid extent")
    cells = int(round(q / wf.dx))
    amp = wf.amplitudes
    if cells != 0:
        if cells > 0:
            dropped = float(np.sum(np.abs(amp[n - cells:]) ** 2) * wf.dx)
        else:
            dropped = float(np.sum(np.abs(amp[:-cells]) ** 2) * wf.dx)
        if dropped > 1e-9:
            raise DomainError(
                f"shift would wrap {dropped:.3e} of the state past the grid edge")
        out = np.zeros(n, dtype=complex)
        if cells > 0:
            out[cells:] = amp[:n - cells]
        else:
            out[:n + cells] = amp[-cells:]
        amp = out
    residual = q - cells * wf.dx
    if residual != 0.0:
        p_raw = 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=wf.dx)
        amp = np.fft.ifft(np.fft.fft(amp) * np.exp(-1j * p_raw * residual / hbar))
    return amp


def weyl_translate(state: State, point: PhasePoint, hbar: float = 1.0) -> MixedState:
    """Apply the phase-space translation W(q, p) to every component.

    Operator ordering: W(q, p) = exp(iqp/2hbar) exp(-iqP/hbar) exp(ipQ/hbar),
    which acts on amplitudes as psi(x) -> exp(-iqp/2hbar) e^{ipx/hbar} psi(x-q).
    """
    if not hbar > 0.0:
        raise DomainError("hbar must be positive")
    s = _as_mixed(state)
    q, p = point.q, point.p
    out = []
    for w, wf in s.components:
        amp = _shift_amplitudes(wf, q, hbar) if q != 0.0 else wf.amplitudes
        xs = wf.xs()
        amp = amp * np.exp(1j * (p * xs - 0.5 * q * p) / hbar)
        amp = _normalized(amp, wf.dx)  # re-absorb <=1e-9 edge loss
        out.append((w, WaveFunction(wf.x0, wf.dx, amp)))
    return MixedState(tuple(out))


def parity(state: State) -> MixedState:
    """Reflect the state about x = 0; the grid must be symmetric about 0."""
    s = _as_mixed(state)
    if not s.grid.is_symmetric():
        raise DomainError("parity requires a grid symmetric about 0")
    out = []
    for w, wf in s.components:
        # index map i -> (-i mod n); the leftmost cell is its own partner
        amp = np.roll(wf.amplitudes[::-1], 1)
        out.append((w, WaveFunction(wf.x0, wf.dx, amp)))
    return MixedState(tuple(out))


# -- state factories ------------------------------------------------------------

def make_gaussian(grid: GridSpec, center: float, momentum: float, sigma: float,
                  hbar: float = 1.0) -> WaveFunction:
    """Minimum-uncertainty Gaussian: position std sigma, momentum std hbar/2sigma.

    A sigma below the grid step cannot be resolved: the samples collapse to
    a lattice delta or underflow.  A sigma beyond the grid span leaves a flat
    profile (and overflows sigma ** 2 when huge).  Both raise
    GridTooSmallError.
    """
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
    if width < 2.0 * grid.dx:
        raise DomainError("box width must be at least two grid cells")
    xs = grid.points()
    mask = np.abs(xs - center) <= 0.5 * width + 1e-12 * max(1.0, abs(center))
    if not mask.any() or mask[0] or mask[-1]:
        raise DomainError("box support must lie strictly inside the grid")
    amp = np.zeros(grid.n, dtype=complex)
    amp[mask] = 1.0
    if momentum_boost != 0.0:
        amp[mask] *= np.exp(1j * momentum_boost * xs[mask] / hbar)
    return WaveFunction(grid.x0, grid.dx, _normalized(amp, grid.dx))


def make_hermite(grid: GridSpec, n: int, hbar: float = 1.0) -> WaveFunction:
    """n-th oscillator eigenstate of (Q^2 + P^2)/2; n = 0 has sigma sqrt(hbar/2)."""
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise DomainError("excitation number must be a nonnegative integer")
    xs = grid.points()
    xi = xs / math.sqrt(hbar)
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


def _cell_state(grid: GridSpec, center: float) -> WaveFunction:
    """Unit mass on the single grid cell nearest to center (exactly localized)."""
    idx = int(round((center - grid.x0) / grid.dx))
    if not 0 < idx < grid.n - 1:
        raise DomainError("cell center must lie inside the grid")
    amp = np.zeros(grid.n, dtype=complex)
    amp[idx] = 1.0 / math.sqrt(grid.dx)
    return WaveFunction(grid.x0, grid.dx, amp)


# -- ground states of |Q|^alpha + |P|^beta ---------------------------------------

def _hamiltonian_apply(amp: np.ndarray, v_diag: np.ndarray,
                       t_diag: np.ndarray) -> np.ndarray:
    return v_diag * amp + np.fft.ifft(t_diag * np.fft.fft(amp))


def ground_state(alpha: float, beta: float, grid: GridSpec, tol: float = 1e-6,
                 max_steps: int = 400_000,
                 boundary_tol: float = 1e-8) -> tuple[float, WaveFunction]:
    """Ground energy and state of H = |Q|^alpha + |P|^beta (dimensionless hbar=1).

    Split-step imaginary-time propagation with step halving whenever the
    eigen-residual ||H psi - g psi|| stops contracting.  Terminates when the
    residual drops below tol; afterwards the boundary amplitude must be below
    boundary_tol or the grid is deemed too small.  Kinetic symbols |p|^beta
    with beta not an even integer are non-smooth at p = 0, which makes the
    kinetic operator nonlocal with power-law bound-state tails; such runs need
    a relaxed boundary_tol (or a much wider box) on desk-scale grids.
    """
    if alpha < 1.0 or beta < 1.0:
        raise DomainError("exponents must be >= 1")
    if not grid.is_symmetric():
        raise DomainError("ground-state grid must be symmetric about 0")
    xs = grid.points()
    p_raw = 2.0 * math.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    v_diag = np.abs(xs) ** alpha
    t_diag = np.abs(p_raw) ** beta
    psi = _normalized(np.exp(-0.5 * xs ** 2).astype(complex), grid.dx)
    dt_initial = 0.1
    dt = dt_initial
    exp_v = np.exp(-0.5 * dt * v_diag)
    exp_t = np.exp(-dt * t_diag)
    residual_prev = math.inf
    g = math.inf
    base_check = 25
    check_cap = 2000
    steps = 0
    converged = False
    while steps < max_steps:
        # keep the imaginary time elapsed between convergence checks roughly
        # constant: at small dt a fixed step count relaxes so little that the
        # residual looks stalled and the step size collapses prematurely
        inner = max(base_check,
                    min(check_cap, int(round(base_check * dt_initial / dt))))
        for _ in range(inner):
            psi = exp_v * np.fft.ifft(exp_t * np.fft.fft(exp_v * psi))
            psi = _normalized(psi, grid.dx)
        steps += inner
        h_psi = _hamiltonian_apply(psi, v_diag, t_diag)
        g = float(np.real(np.vdot(psi, h_psi)) * grid.dx)
        residual = math.sqrt(float(np.sum(np.abs(h_psi - g * psi) ** 2) * grid.dx))
        if residual < tol:
            converged = True
            break
        # halve only once the residual stops contracting: the splitting bias
        # floors the residual at O(dt^2), while slow-but-steady contraction
        # means the current step size is still doing work
        if residual > (1.0 - 1e-3) * residual_prev:
            dt *= 0.5
            if dt < 1e-7:
                raise ConvergenceError(
                    f"imaginary-time step underflow at residual {residual:.3e}")
            exp_v = np.exp(-0.5 * dt * v_diag)
            exp_t = np.exp(-dt * t_diag)
            residual_prev = math.inf
        else:
            residual_prev = residual
    if not converged:
        raise ConvergenceError(f"no convergence within {max_steps} steps")
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge > boundary_tol:
        raise GridTooSmallError(
            f"boundary amplitude {edge:.3e} exceeds {boundary_tol:.1e}")
    phase = psi[int(np.argmax(np.abs(psi)))]
    psi = psi * (abs(phase) / phase)  # fix global phase for reproducibility
    return g, WaveFunction(grid.x0, grid.dx, psi)


# -- built-in ensembles -----------------------------------------------------------

DEFAULT_GRID = GridSpec.symmetric(16.0, 2048)


def test_ensemble(grid: GridSpec = DEFAULT_GRID, hbar: float = 1.0,
                  seed: int = 0) -> list[MixedState]:
    """Fixed, varied family of states used by invariants and verifications."""
    states: list[MixedState] = []
    for sigma in (0.5, 1.0, 2.0):
        states.append(MixedState.pure(make_gaussian(grid, 0.0, 0.0, sigma, hbar)))
    states.append(MixedState.pure(make_gaussian(grid, 1.5, -2.0, 0.8, hbar)))
    for width in (0.5, 2.0):
        states.append(MixedState.pure(make_box(grid, 0.0, width, 0.0, hbar)))
    states.append(MixedState.pure(make_box(grid, -1.0, 1.0, 3.0, hbar)))
    for n in (1, 2, 3):
        states.append(MixedState.pure(make_hermite(grid, n, hbar)))
    for k in range(3):
        states.append(MixedState.pure(
            make_random_localized(grid, Interval(0.0, 4.0), seed + 17 * k)))
    left = make_gaussian(grid, -2.0, 0.0, 0.7, hbar)
    right = make_gaussian(grid, 2.0, 0.0, 0.7, hbar)
    states.append(MixedState(((0.5, left), (0.5, right))))
    return states


UR_ENSEMBLE_GRID = GridSpec.symmetric(102.4, 4096)

# wide, fine-momentum grid for covariant margins, heavy-tailed ground states
# and the divergence demonstration
COVARIANT_GRID = GridSpec.symmetric(64.0, 4096)


def random_ensemble(grid: GridSpec, n_states: int, seed: int,
                    hbar: float = 1.0) -> list[MixedState]:
    """Seeded random states drawn from all factory families.

    Parameter ranges keep every law resolved by the grid: the momentum lattice
    step must stay well below the smallest momentum spread sampled, otherwise
    discretized deviation functionals are biased low near their kink.
    """
    rng = np.random.default_rng(seed)
    p_max = math.pi * hbar / grid.dx
    states: list[MixedState] = []
    while len(states) < n_states:
        kind = rng.integers(0, 4)
        center = float(rng.uniform(-0.1, 0.1) * grid.span / 4.0)
        if kind == 0:
            sigma = float(rng.uniform(0.3, 2.0))
            boost = float(rng.uniform(-0.1, 0.1) * p_max)
            states.append(MixedState.pure(
                make_gaussian(grid, center, boost, sigma, hbar)))
        elif kind == 1:
            width = float(rng.uniform(4.0 * grid.dx, 2.0))
            boost = float(rng.uniform(-0.05, 0.05) * p_max)
            states.append(MixedState.pure(
                make_box(grid, center, width, boost, hbar)))
        elif kind == 2:
            states.append(MixedState.pure(
                make_hermite(grid, int(rng.integers(0, 6)), hbar)))
        else:
            width = float(rng.uniform(1.0, 6.0))
            sub_seed = int(rng.integers(0, 2 ** 31))
            states.append(MixedState.pure(
                make_random_localized(grid, Interval(center, width), sub_seed)))
    return states


_STATE_SPEC_KEYS = {
    "gaussian": frozenset({"family", "center", "momentum", "sigma"}),
    "box": frozenset({"family", "center", "width", "momentum_boost"}),
    "hermite": frozenset({"family", "n"}),
    "random": frozenset({"family", "center", "width", "seed"}),
    "cell": frozenset({"family", "center"}),
    "file": frozenset({"family", "path"}),
    "mixture": frozenset({"family", "components"}),
}


def state_from_spec(spec: dict, grid: GridSpec | None = None,
                    hbar: float = 1.0) -> MixedState:
    """Build a state from a JSON-friendly dict.

    Families: gaussian(center, momentum, sigma), box(center, width,
    momentum_boost), hermite(n), random(center, width, seed), cell(center),
    file(path), mixture(components=[{weight, ...}, ...]).  Keys outside the
    chosen family are rejected.
    """
    if grid is None:
        grid = DEFAULT_GRID
    if not isinstance(spec, dict) or "family" not in spec:
        raise DomainError("state spec must be a dict with a 'family' key")
    family = spec["family"]
    if family in _STATE_SPEC_KEYS:
        _check_spec_keys(spec, _STATE_SPEC_KEYS[family],
                         f"state family {family!r}")
    try:
        if family == "gaussian":
            wf = make_gaussian(grid, float(spec.get("center", 0.0)),
                               float(spec.get("momentum", 0.0)),
                               float(spec.get("sigma", 1.0)), hbar)
        elif family == "box":
            wf = make_box(grid, float(spec.get("center", 0.0)),
                          float(spec["width"]),
                          float(spec.get("momentum_boost", 0.0)), hbar)
        elif family == "hermite":
            wf = make_hermite(grid, int(spec["n"]), hbar)
        elif family == "random":
            interval = Interval(float(spec.get("center", 0.0)),
                                float(spec["width"]))
            wf = make_random_localized(grid, interval, int(spec.get("seed", 0)))
        elif family == "cell":
            wf = _cell_state(grid, float(spec.get("center", 0.0)))
        elif family == "file":
            wf = load_wavefunction_csv(str(spec["path"]))
        elif family == "mixture":
            comps = spec["components"]
            if not (isinstance(comps, list)
                    and all(isinstance(c, dict) for c in comps)):
                raise DomainError("mixture components must be a list of dicts")
            parts = []
            for comp in comps:
                if "weight" not in comp:
                    raise DomainError("mixture components need a 'weight'")
                sub = state_from_spec(
                    {k: v for k, v in comp.items() if k != "weight"},
                    grid, hbar)
                if len(sub.components) != 1:
                    raise DomainError("mixture components must be pure")
                parts.append((float(comp["weight"]), sub.components[0][1]))
            return MixedState(tuple(parts))
        else:
            raise DomainError(f"unknown state family {family!r}")
    except KeyError as exc:
        raise DomainError(f"state spec missing key {exc}") from None
    return MixedState.pure(wf)


# -- file format -------------------------------------------------------------------

def save_wavefunction_csv(wf: WaveFunction, path: str) -> None:
    """Write amplitudes as CSV rows 'x,re,im' on the uniform grid."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for x, a in zip(wf.xs(), wf.amplitudes):
            writer.writerow([repr(float(x)), repr(float(a.real)), repr(float(a.imag))])


def load_wavefunction_csv(path: str) -> WaveFunction:
    """Read a 'x,re,im' CSV wavefunction; validates grid uniformity."""
    xs: list[float] = []
    res: list[float] = []
    ims: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty state file") from None
        if [c.strip().lower() for c in header[:3]] != ["x", "re", "im"]:
            raise DomainError(f"{path}: expected header 'x,re,im'")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise DomainError(f"{path}: malformed row {row!r}")
            xs.append(float(row[0]))
            res.append(float(row[1]))
            ims.append(float(row[2]))
    if len(xs) < 4:
        raise DomainError(f"{path}: too few samples")
    x = np.asarray(xs)
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0.0 or np.max(np.abs(steps - dx)) > 1e-9 * max(1.0, abs(dx)):
        raise DomainError(f"{path}: grid must be uniform and increasing")
    amp = np.asarray(res) + 1j * np.asarray(ims)
    return WaveFunction(float(x[0]), dx, _normalized(amp, dx))
