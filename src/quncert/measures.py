"""Finitely supported probability measures on the real line.

A :class:`GridMeasure` is an atomic measure with strictly increasing support
points and nonnegative weights summing to one.  All distribution-level
quantities in the library (spread functionals, overall widths, convolutions,
pushforwards) operate on this representation.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from types import GenericAlias
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError, InternalError, ResourceError

# Weight-sum tolerance for a valid measure, and the slack used when a mass
# threshold such as 1 - eps must be met despite cumulative-sum rounding.
MASS_TOL = 1e-12
_MASS_SLACK = 1e-12

# Default cap on the number of output atoms a convolution may produce; it
# also caps n_atoms of uniform_measure and gaussian_measure.
DEFAULT_CONVOLVE_CAP = 4_000_000


@dataclass(frozen=True)
class Interval:
    """Closed interval given by center and width."""

    center: float
    width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise DomainError("interval parameters must be finite")
        if self.width < 0.0:
            raise DomainError("interval width must be nonnegative")

    @property
    def lo(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def hi(self) -> float:
        return self.center + 0.5 * self.width

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Atomic probability measure: strictly increasing atoms, weights sum to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).reshape(-1)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.size == 0 or atoms.size != weights.size:
            raise DomainError("atoms and weights must be nonempty and equal length")
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise DomainError("atoms and weights must be finite")
        if not math.isfinite(float(atoms.max()) - float(atoms.min())):
            raise DomainError("atom span must be a finite float")
        if not (atoms[1:] > atoms[:-1]).all():
            raise DomainError("atoms must be strictly increasing")
        if weights.min() < 0.0:
            raise DomainError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # an infinite total fails below
            cum = weights.cumsum()
        total = float(cum[-1])
        if abs(total - 1.0) > MASS_TOL:
            raise DomainError(f"weights must sum to 1 within {MASS_TOL}, got {total!r}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_cum", cum)

    def __len__(self) -> int:
        return int(self.atoms.size)

    # -- point statistics ---------------------------------------------------

    def cdf(self, x: float) -> float:
        """Right-continuous distribution function: mass of (-inf, x]."""
        i = int(np.searchsorted(self.atoms, x, side="right"))
        return 0.0 if i == 0 else float(self._cum[i - 1])

    def quantile(self, t: float) -> float:
        """Left-continuous generalized inverse of the cdf, defined on (0, 1]."""
        if not (0.0 < t <= 1.0):
            raise DomainError("quantile level must lie in (0, 1]")
        cum = self._cum / self._cum[-1]
        i = int(np.searchsorted(cum, t - _MASS_SLACK, side="left"))
        return float(self.atoms[min(i, len(self) - 1)])

    def moment(self, k: int) -> float:
        """k-th raw moment, k a positive integer."""
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise DomainError("moment order must be a positive integer")
        return float(np.sum(self.weights * self.atoms ** int(k)))

    def mean(self) -> float:
        return self.moment(1)

    def interval_mass(self, interval: Interval) -> float:
        """Mass of the closed interval (endpoint atoms count)."""
        scale = 1e-12 * max(1.0, abs(interval.lo), abs(interval.hi))
        i0 = int(np.searchsorted(self.atoms, interval.lo - scale, side="left"))
        i1 = int(np.searchsorted(self.atoms, interval.hi + scale, side="right"))
        if i1 <= i0:
            return 0.0
        lo_cum = 0.0 if i0 == 0 else float(self._cum[i0 - 1])
        return float(self._cum[i1 - 1]) - lo_cum

    def min_spacing(self) -> float:
        if len(self) < 2:
            raise DomainError("spacing undefined for a single atom")
        return float(np.min(np.diff(self.atoms)))

    @property
    def support_lo(self) -> float:
        idx = np.nonzero(self.weights > 0.0)[0]
        return float(self.atoms[idx[0]]) if idx.size else float(self.atoms[0])

    @property
    def support_hi(self) -> float:
        idx = np.nonzero(self.weights > 0.0)[0]
        return float(self.atoms[idx[-1]]) if idx.size else float(self.atoms[-1])


def _make(atoms: np.ndarray, weights: np.ndarray, normalize: bool = True) -> GridMeasure:
    # internal constructor: optional exact renormalization of positive weights
    weights = np.asarray(weights, dtype=float)
    if normalize:
        with np.errstate(over="ignore"):
            total = float(np.sum(weights))
        if not 0.0 < total < math.inf:
            raise DomainError("total mass must be positive and finite")
        weights = weights / total
    return GridMeasure(np.asarray(atoms, dtype=float), weights)


def sorted_measure(atoms: Sequence[float], weights: Sequence[float],
                   normalize: bool = True) -> GridMeasure:
    """Build a measure from unordered atoms, merging exact duplicates."""
    a = np.asarray(atoms, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if a.size != w.size:
        raise DomainError("atoms and weights must have equal length")
    uniq, inverse = np.unique(a, return_inverse=True)
    merged = np.bincount(inverse, weights=w, minlength=uniq.size)
    return _make(uniq, merged, normalize=normalize)


# -- simple constructors ----------------------------------------------------

def point_mass(a: float) -> GridMeasure:
    return GridMeasure(np.array([float(a)]), np.array([1.0]))


def two_point(a: float, b: float, weight_a: float = 0.5) -> GridMeasure:
    if not (0.0 < weight_a < 1.0):
        raise DomainError("weight_a must lie in (0, 1)")
    return sorted_measure([a, b], [weight_a, 1.0 - weight_a], normalize=False)


def uniform_measure(lo: float, hi: float, n_atoms: int) -> GridMeasure:
    """Equal weights on n_atoms equally spaced points of [lo, hi]."""
    if n_atoms > DEFAULT_CONVOLVE_CAP:
        raise ResourceError(f"n_atoms {n_atoms} exceeds the cap {DEFAULT_CONVOLVE_CAP}")
    if n_atoms < 1:
        raise DomainError("n_atoms must be positive")
    if n_atoms == 1:
        return point_mass(0.5 * (lo + hi))
    if not (hi > lo and math.isfinite(hi - lo)):
        raise DomainError("need hi > lo with a finite span")
    atoms = np.linspace(lo, hi, n_atoms)
    return _make(atoms, np.full(n_atoms, 1.0 / n_atoms), normalize=True)


def gaussian_measure(mean: float, sigma: float, n_atoms: int = 801,
                     half_width: float = 8.0) -> GridMeasure:
    """Gaussian density sampled on a regular grid of +-half_width*sigma;
    one atom is the point mass at the mean."""
    if n_atoms > DEFAULT_CONVOLVE_CAP:
        raise ResourceError(f"n_atoms {n_atoms} exceeds the cap {DEFAULT_CONVOLVE_CAP}")
    if n_atoms < 1:
        raise DomainError("n_atoms must be positive")
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    if not half_width > 0.0:
        raise DomainError("half_width must be positive")
    if not math.isfinite(2.0 * half_width * max(sigma, 1.0) + abs(mean)):
        raise DomainError("gaussian support must have a finite span")
    if n_atoms == 1:
        return point_mass(mean)
    xs = mean + sigma * np.linspace(-half_width, half_width, n_atoms)
    # the weight is 0 beyond 40 sigma anyway; the clip keeps the square finite
    w = np.exp(-0.5 * np.clip((xs - mean) / sigma, -40.0, 40.0) ** 2)
    return _make(xs, w, normalize=True)


# -- spread functionals -----------------------------------------------------

def _alpha_norm(d: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """(sum w |d|^alpha)^(1/alpha), alpha >= 1.  Where |d|**alpha could leave
    the float range, |d| is divided by its largest value s where w > 0 (else
    s = 1, and the sum is bit-exact).  A sum below the normal floats, as when
    the atom at s carries a subnormal weight, is taken in log space."""
    d = np.abs(np.where(w > 0.0, d, 0.0))  # entries without mass add zeros
    s = float(np.max(d))
    s = s if alpha * abs(math.frexp(s)[1]) > 512.0 else 1.0
    total = float(np.sum(w * (d / s) ** alpha))
    if total < sys.float_info.min and np.any(d):
        with np.errstate(divide="ignore"):  # log 0 at a zero weight or ratio
            logs = np.log(w) + alpha * np.log(d / s)
        top = float(np.max(logs))
        return s * math.exp((top + math.log(float(np.sum(np.exp(logs - top))))) / alpha)
    return s * total ** (1.0 / alpha)


def alpha_deviation(m: GridMeasure, alpha: float) -> float:
    """min over y of (sum w |x - y|^alpha)^(1/alpha), for finite alpha >= 1.

    At alpha = 1, y is the weighted median atom.  For alpha > 1 the slope
    S(y) = sum w sign(y - x) |y - x|^(alpha - 1) increases: y is the first
    live atom where S >= 0 up to rounding, if S is 0 there to rounding, or
    else the root of S in the open cell below it, by Newton's method with
    bisection (the mean at alpha = 2).  Where the nearest atom's term
    carries most of S's curvature, the Newton step is taken in the log of
    the distance to that atom.  Atoms are scaled by 2**-e to a span in
    [1/2, 1) and slope terms by the largest, so none leaves the floats.
    """
    if not (alpha >= 1.0) or not math.isfinite(alpha):
        raise DomainError("alpha must be a finite real >= 1")
    if alpha == 1.0 or m.support_lo == m.support_hi:  # the median minimizes
        y = float(m.atoms[np.searchsorted(m._cum, 0.5 * m._cum[-1])])
        return _alpha_norm(m.atoms - y, m.weights, alpha)
    e = math.frexp(m.support_hi - m.support_lo)[1]
    x, w = np.ldexp(m.atoms[m.weights > 0.0], -e), m.weights[m.weights > 0.0]

    def slope(y: float) -> tuple[float, float, np.ndarray, np.ndarray,
                                 np.ndarray]:
        # S(y); r = 2**-40 sum |terms|, S is 0 to rounding where |S| <= r.
        # Terms are lifted exactly by a power of two to a sum in [1/2, 1),
        # or from logs where their sum falls below the normal floats (as at
        # a subnormal weight), so that products with lengths keep their bits
        d = y - x
        q = np.abs(d)
        p = w * (q / q.max()) ** (alpha - 1.0)
        total = float(np.sum(p))
        if total < sys.float_info.min:
            with np.errstate(divide="ignore"):  # log 0 at an atom
                logs = np.log(w) + (alpha - 1.0) * np.log(q / q.max())
            p = np.exp(logs - np.max(logs))
        elif total < 0.5:
            p = np.ldexp(p, -math.frexp(total)[1])
        terms = np.copysign(p, d)
        return float(np.sum(terms)), float(np.sum(p)) / 2**40, p, q, terms

    # S + r < 0 at x[0], where no d is positive, and S >= 0 at x[-1]
    k = bisect.bisect_left(range(len(x) - 1), True,
                           key=lambda i: sum(slope(float(x[i]))[:2]) >= 0.0)
    lo, hi, y = float(x[k - 1]), float(x[k]), float(x[k])
    while True:
        s, r, p, q, terms = slope(y)
        lo, hi = (y, hi) if s < 0.0 else (lo, y)
        with np.errstate(all="ignore"):  # inf or nan at or by an atom
            pq = p / q
            total = float(np.sum(pq))
            curvature = (alpha - 1.0) * total
            newton = float(y - s / curvature)
            near = _near_atom_newton(y, x, terms, q, pq, total, alpha)
        # stop where S is 0 to rounding, the step is below the float spacing
        # (a step of 0 from an infinite curvature, as by a subnormal
        # distance to an atom, is no step: bisect), or [lo, hi] gains (by
        # convexity) under the objective's rounding
        tiny_step = newton == y and math.isfinite(curvature)
        if abs(s) <= r or tiny_step or alpha * abs(s) * (hi - lo) \
                <= 2.0 ** -52 * float(np.sum(p * q)):
            break
        y = next((t for t in (near, newton) if lo < t < hi), 0.5 * (lo + hi))
        if not lo < y < hi:  # no float lies inside: the lower end wins
            return min(_alpha_norm(m.atoms - math.ldexp(t, e), m.weights,
                                   alpha) for t in (lo, hi))
    return _alpha_norm(m.atoms - math.ldexp(y, e), m.weights, alpha)


def _near_atom_newton(y: float, x: np.ndarray, terms: np.ndarray,
                      q: np.ndarray, pq: np.ndarray, total: float,
                      alpha: float) -> float:
    """Newton's step for the slope's root in u = log t, t = |y - a|, from the
    live atom a nearest to y; nan unless a's term carries at least half the
    curvature (total = sum p/q) and the root lies on y's side of a.  With R
    the slope less a's term, the root solves G(u) = log |term_a| - log |R|
    = 0, where G' = (alpha - 1)(1 + t sum_others p/q / |R|) >= alpha - 1.
    G is near linear while R is flat, as by an atom of subnormal weight, at
    alpha near 1 or at large alpha, where steps in y overshoot the atom,
    halve the bracket down through the subnormals or shrink it by a factor
    1 - 1/(alpha - 1)."""
    j = int(np.argmin(q))
    if not pq[j] >= 0.5 * total:  # nan at an atom
        return math.nan
    a, side = float(x[j]), math.copysign(1.0, y - x[j])
    rest = -side * float(np.sum(np.delete(terms, j)))
    if not rest > 0.0:
        return math.nan
    t, others = float(q[j]), float(np.sum(np.delete(pq, j)))
    g = math.log(abs(float(terms[j]))) - math.log(rest)
    y = a + side * t * float(np.exp(-g / ((alpha - 1.0)
                                          * (1.0 + others * t / rest))))
    # a root within the float spacing of a is taken at a's neighbour
    return y if y != a else math.nextafter(a, side * math.inf)


def std_deviation(m: GridMeasure) -> float:
    """Standard deviation via raw moments, clamping tiny negative variance;
    the atoms are scaled exactly by 2**-e, with 2**e just above their
    largest magnitude, so the squares stay finite."""
    e = math.frexp(float(np.max(np.abs(m.atoms))))[1]
    x = np.ldexp(m.atoms, -e)
    variance = float(np.sum(m.weights * x ** 2)) - float(np.sum(m.weights * x)) ** 2
    if variance < 0.0:
        if variance < -math.ldexp(1e-12, -2 * e):
            raise InternalError(f"negative variance {variance!r} (in units of "
                                f"4**{e}) beyond tolerance")
        variance = 0.0
    return math.ldexp(math.sqrt(variance), e)


def _narrowest_window(m: GridMeasure, eps: float) -> tuple[int, int] | None:
    """Atom indices (i, j) of a narrowest window [atoms[i], atoms[j]] with
    mass at least 1 - eps; None when a single point suffices."""
    if not (0.0 <= eps < 1.0):
        raise DomainError("eps must lie in [0, 1)")
    need = 1.0 - eps - _MASS_SLACK
    if need <= 0.0:
        return None
    cum = np.concatenate(([0.0], np.asarray(m._cum)))
    # smallest j with mass(i..j) >= need, vectorized over left endpoints i
    targets = cum[:-1] + need
    jp = np.searchsorted(cum, targets, side="left")
    ok = jp <= len(m)
    if not np.any(ok):
        return 0, len(m) - 1
    lefts = np.nonzero(ok)[0]
    widths = m.atoms[jp[ok] - 1] - m.atoms[lefts]
    k = int(np.argmin(widths))
    return int(lefts[k]), int(jp[ok][k] - 1)


def overall_width(m: GridMeasure, eps: float) -> float:
    """Smallest width of a closed interval carrying mass at least 1 - eps."""
    window = _narrowest_window(m, eps)
    if window is None:
        return 0.0
    i, j = window
    return float(m.atoms[j] - m.atoms[i])


def overall_width_interval(m: GridMeasure, eps: float) -> Interval:
    """A minimizing interval for :func:`overall_width` (atom-bracketed)."""
    window = _narrowest_window(m, eps)
    if window is None:
        return Interval(float(m.quantile(0.5)), 0.0)
    i, j = window
    return Interval(0.5 * float(m.atoms[i] + m.atoms[j]),
                    float(m.atoms[j] - m.atoms[i]))


# -- measure arithmetic -----------------------------------------------------

def translate(m: GridMeasure, a: float) -> GridMeasure:
    """Shift every atom by a; weights are untouched."""
    if not math.isfinite(a):
        raise DomainError("shift must be finite")
    atoms = m.atoms + a
    if not (atoms[1:] > atoms[:-1]).all():
        raise DomainError(f"shift {a:g} wipes out the atom spacing {m.min_spacing():g}")
    return GridMeasure(atoms, m.weights)


def convolve(a: GridMeasure, b: GridMeasure,
             max_atoms: int = DEFAULT_CONVOLVE_CAP) -> GridMeasure:
    """Distribution of the sum of independent draws from a and b.

    Pairwise atom sums are re-binned onto a uniform grid at the finer of the
    two input spacings.  Each sum splits its mass linearly between the two
    bracketing bins, which preserves total mass and the first moment exactly
    (up to rounding); the binning displaces mass by at most one bin width.

    When a and b hold one uniform lattice (equal atom arrays, every spacing
    within 1e-9 of step = (atoms[-1] - atoms[0]) / (n - 1)), nothing is
    binned: atoms i and j sum to atom i + j of the lattice
    2 atoms[0] + k step, so two identical uniform laws are convolved
    exactly.  Two Born laws of one axis and grid are such a pair.

    Zero-weight atoms are skipped on both sides: the loop runs over the live
    atoms of the operand with fewer of them (``a`` on a tie), each row
    vectorized over the live atoms of the other (on a lattice, one
    ``np.convolve`` per run of consecutive live atoms, over the other's
    live span), so the cost scales with live-atom pairs, not with the
    lengths of the atom arrays.
    """
    if len(a) == 1:
        return translate(b, float(a.atoms[0]))
    if len(b) == 1:
        return translate(a, float(b.atoms[0]))
    h = min(a.min_spacing(), b.min_spacing())
    lo = float(a.atoms[0] + b.atoms[0])
    hi = float(a.atoms[-1] + b.atoms[-1])
    n_bins = int(math.floor((hi - lo) / h + 1e-9)) + 2
    if n_bins > max_atoms:
        raise ResourceError(
            f"convolution would produce {n_bins} atoms, cap is {max_atoms}")
    live_a, live_b = a.weights > 0.0, b.weights > 0.0
    if np.count_nonzero(live_a) > np.count_nonzero(live_b):
        a, b, live_a, live_b = b, a, live_b, live_a
    step = _lattice_step(a, b)
    if step is not None:
        # atoms i and j sum to atom i + j: one np.convolve per run of
        # consecutive live atoms of a, over the live span of b
        h = step
        span = np.flatnonzero(live_b)
        j0, j1 = int(span[0]), int(span[-1]) + 1
        row = b.weights[j0:j1]
        acc = np.zeros(len(a) + len(b) - 1)
        live = np.flatnonzero(live_a)
        gap = np.diff(live) > 1
        for i0, i1 in zip(live[np.r_[True, gap]], live[np.r_[gap, True]] + 1):
            acc[i0 + j0:i1 + j1 - 1] += np.convolve(a.weights[i0:i1], row)
    else:
        big_x, big_w = b.atoms[live_b], b.weights[live_b]
        acc = np.zeros(n_bins + 1)
        for x, w in zip(a.atoms[live_a], a.weights[live_a]):
            # rounding in lo can push the first position epsilon below zero
            pos = np.clip((big_x + (x - lo)) / h, 0.0, n_bins - 1e-9)
            k = np.floor(pos).astype(np.int64)
            frac = pos - k
            acc += np.bincount(k, weights=big_w * (w * (1.0 - frac)),
                               minlength=n_bins + 1)
            acc += np.bincount(k + 1, weights=big_w * (w * frac),
                               minlength=n_bins + 1)
    atoms = lo + h * np.arange(acc.size)
    nz = np.nonzero(acc > 0.0)[0]
    if nz.size == 0:
        raise InternalError("convolution produced no mass")
    s = slice(int(nz[0]), int(nz[-1]) + 1)
    return GridMeasure(atoms[s], acc[s])


def _lattice_step(a: GridMeasure, b: GridMeasure) -> float | None:
    # step of the one uniform lattice that a and b both hold, else None
    if not np.array_equal(a.atoms, b.atoms):
        return None
    step = float(a.atoms[-1] - a.atoms[0]) / (len(a) - 1)
    if np.max(np.abs(np.diff(a.atoms) - step)) > 1e-9 * step:
        return None
    return step


# -- maps and pushforward ---------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Strictly monotone piecewise-linear map given by a breakpoint table.

    Extrapolates linearly beyond the table using the end segment slopes, so
    the map is defined (and strictly monotone) on the whole line.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float).reshape(-1)
        ys = np.asarray(self.ys, dtype=float).reshape(-1)
        if xs.size < 2 or xs.size != ys.size:
            raise DomainError("breakpoint table needs >= 2 rows of equal length")
        if not np.all(np.diff(xs) > 0.0):
            raise DomainError("breakpoint abscissae must be strictly increasing")
        dy = np.diff(ys)
        if not (np.all(dy > 0.0) or np.all(dy < 0.0)):
            raise DomainError("breakpoint table is not strictly monotone")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.xs, self.ys)
        slope_lo = (self.ys[1] - self.ys[0]) / (self.xs[1] - self.xs[0])
        slope_hi = (self.ys[-1] - self.ys[-2]) / (self.xs[-1] - self.xs[-2])
        left = x < self.xs[0]
        right = x > self.xs[-1]
        y = np.where(left, self.ys[0] + slope_lo * (x - self.xs[0]), y)
        y = np.where(right, self.ys[-1] + slope_hi * (x - self.xs[-1]), y)
        return y


def identity_map() -> PiecewiseLinearMap:
    return PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


@dataclass(frozen=True)
class BoundedShiftMap:
    """Map f(x) = x + g(x) with a declared sup-norm bound on g.

    The bound is part of the contract (closed-form distance results use it);
    it is spot-checked on every batch of evaluated points.
    """

    g: Callable[[np.ndarray], np.ndarray]
    bound: float

    def __post_init__(self) -> None:
        if not (self.bound >= 0.0 and math.isfinite(self.bound)):
            raise DomainError("declared bound must be a finite nonnegative real")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        gx = np.asarray(self.g(x), dtype=float)
        if np.any(np.abs(gx) > self.bound + 1e-9):
            raise DomainError("perturbation exceeds its declared bound")
        return x + gx


@dataclass(frozen=True)
class BoundedRangeMap:
    """General bounded measurable map with a declared range interval."""

    f: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi >= self.lo):
            raise DomainError("range bounds must be finite with hi >= lo")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.asarray(self.f(x), dtype=float)
        if np.any(y < self.lo - 1e-9) or np.any(y > self.hi + 1e-9):
            raise DomainError("map output left its declared range")
        return y


MeasurableMap = PiecewiseLinearMap | BoundedShiftMap | BoundedRangeMap


def pushforward(m: GridMeasure, f: MeasurableMap) -> GridMeasure:
    """Image measure of m under f.  Atoms that f maps to one float merge
    their weights; a strictly monotone table can merge them too, when its
    images round together."""
    return sorted_measure(f(m.atoms), m.weights, normalize=False)


# -- file format ------------------------------------------------------------

_KINDS = {float: "a finite number", int: "an integer", str: "a string",
          dict: "an object", list: "a list"}


def _typed(key: str, value, kind):
    """value checked as kind: float a finite number and int an integral one
    (never a bool), str, dict, or list[item] with each item checked."""
    base = getattr(kind, "__origin__", kind)
    if kind is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, base)
    if isinstance(value, bool) or not ok:
        raise DomainError(f"spec key {key} must be {_KINDS[base]}, "
                          f"not {type(value).__name__}")
    if base is list:
        return [_typed(f"{key}[{i}]", v, kind.__args__[0])
                for i, v in enumerate(value)]
    return kind(value) if kind in (float, int) else value


def _read_spec(spec, what: str, table: dict, tag: str, *context):
    """Build what a JSON spec describes from its row table[spec.get(tag)]:
    a builder and its parameters in argument order after context, each
    mapped to its default (whose type is the parameter's) or, if required,
    to a bare type.  Other keys are rejected, so a typo cannot silently
    change defaults."""
    if not isinstance(spec, dict):
        raise DomainError(f"{what} spec must be a dict")
    name = spec.get(tag)
    row = table.get(name) if name is None or isinstance(name, str) else None
    if row is None:
        raise DomainError(f"unknown {what} {tag} {name!r}")
    build, params = row
    unknown = sorted(set(spec) - {tag, *params})
    if unknown:
        raise DomainError(
            f"{what} {tag} {name!r} spec has unrecognized keys {unknown}; "
            f"allowed keys are {sorted({tag, *params})}")
    args = []
    for key, default in params.items():
        required = isinstance(default, (type, GenericAlias))
        if key in spec:
            args.append(_typed(key, spec[key],
                               default if required else type(default)))
        elif required:
            raise DomainError(f"{what} spec missing key {key!r}")
        else:
            args.append(default)
    return build(*context, *args)


# a measure spec without a family is the explicit form
_MEASURE_FAMILIES = {
    None: (sorted_measure, {"atoms": list[float], "weights": list[float]}),
    "point": (point_mass, {"at": 0.0}),
    "two_point": (two_point, {"x1": float, "x2": float, "w1": 0.5}),
    "uniform": (uniform_measure, {"lo": float, "hi": float, "n_atoms": 201}),
    "gaussian": (gaussian_measure, {"mean": 0.0, "sigma": float,
                                    "n_atoms": 801, "half_width": 8.0}),
    "file": (lambda path: load_measure_csv(path), {"path": str}),
}


def measure_from_spec(spec: dict) -> GridMeasure:
    """Build a measure from a JSON-friendly dict.

    Either explicit {"atoms": [...], "weights": [...]} or a named family:
    point/two_point/uniform/gaussian/file with that family's parameters.
    Keys outside the chosen form are rejected.
    """
    return _read_spec(spec, "measure", _MEASURE_FAMILIES, "family")


# rows formatted per write: with the blocks kept below, bounds the strings
# held at once
_CSV_BLOCK = 512
# formatted blocks kept, the least recently used dropped first.  Of the 120
# blocks a phase-space pass writes, 46 or 47 are distinct (its six
# coordinate columns repeat one grid, most value tails are all 0), and 24
# kept already find every repeat.  At most 32 blocks of 512 cells of up to
# 24 characters, with their keys: about 1.6 MB
_CSV_BLOCKS_KEPT = 32


def _csv_cells(block: np.ndarray) -> tuple[str, ...]:
    """repr of each number of block, kept by dtype and bytes (int64 0 and
    float64 0.0 share their bytes, 0.0 and -0.0 do not)."""
    return _formatted_cells(block.dtype, block.tobytes())


@functools.lru_cache(maxsize=_CSV_BLOCKS_KEPT)
def _formatted_cells(dtype: np.dtype, data: bytes) -> tuple[str, ...]:
    return tuple(map(repr, np.frombuffer(data, dtype).tolist()))


def _write_csv(path: str, header: Sequence[str], *columns: np.ndarray) -> None:
    """Write equal-length columns as CSV rows under header; numbers as repr.

    No cell needs quoting, so the bytes are those of `csv.writer`'s excel
    dialect: cells joined by commas, each row ending in CRLF."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [_csv_cells(c[k:k + _CSV_BLOCK]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _loadtxt(fh, reader, k: int) -> np.ndarray | None:
    """The rest of fh as `np.loadtxt` parses it; None, with reader back after
    the header, where NumPy cannot or warns (as on no rows), or on a pipe."""
    if fh.seekable():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(fh, delimiter=",", usecols=range(k), comments=None,
                                  quotechar='"', ndmin=2, dtype=float).T
        except (ValueError, Warning):
            fh.seek(0)
            next(reader)
    return None


def _read_csv(path: str, header: Sequence[str], what: str) -> np.ndarray:
    """One float column per header name of a CSV table whose first row
    starts with header, after a byte-order mark if the file opens with one.
    Blank rows are skipped; a shorter row, or a cell that is not a finite
    number, is rejected; further cells are ignored.
    NumPy reads the rows where it can; the `csv` loop below is the rules,
    and it reads every table NumPy does not."""
    k = len(header)
    cells: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise DomainError(f"{path}: empty {what} file")
            first[:1] = [c.removeprefix("\ufeff") for c in first[:1]]  # a UTF-8 BOM
            if [c.strip().lower() for c in first[:k]] != list(header):
                raise DomainError(f"{path}: expected header '{','.join(header)}'")
            table = _loadtxt(fh, reader, k)
            for row in reader if table is None else ():
                if row and (len(row) > 1 or row[0].strip()):
                    try:
                        cells.extend([float(row[i]) for i in range(k)])
                    except (ValueError, IndexError):
                        raise DomainError(f"{path}: malformed row {row!r}") from None
        except csv.Error as exc:  # as a cell beyond csv's field size limit
            raise DomainError(f"{path}: {exc}") from None
    if table is None:
        table = np.array(cells, dtype=float).reshape(-1, k).T
    if not np.all(np.isfinite(table)):
        raise DomainError(f"{path}: values must be finite")
    return table


def save_measure_csv(m: GridMeasure, path: str) -> None:
    """Write the measure as CSV with header 'x,w', atoms ascending."""
    _write_csv(path, ("x", "w"), m.atoms, m.weights)


def load_measure_csv(path: str) -> GridMeasure:
    """Read a 'x,w' CSV measure; renormalizes, logging drifts beyond 1e-9."""
    atoms, weights = _read_csv(path, ("x", "w"), "measure")
    if not atoms.size:
        raise DomainError(f"{path}: no atoms")
    with np.errstate(over="ignore"):  # _make rejects an infinite total
        total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-9:
        import logging  # here, not at the top: it costs a start 4 ms
        logging.getLogger(__name__).info(
            "normalizing measure from %s: total mass deviated by %.3e",
            path, total - 1.0)
    return _make(atoms, weights, normalize=True)
