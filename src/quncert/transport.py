"""Wasserstein distances, exact monotone couplings, and Kantorovich duality.

The monotone (quantile) coupling is optimal on the line for every order
alpha >= 1 and for the sup-displacement distance.  One staircase, a merge of
the two cumulative sums, gives its cells: the distances read them, and the
exact plan fills them; its dual prices, walked along the staircase and
certified optimal by their reduced costs, give an optimal Kantorovich dual
pair after one c-transform round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InternalError, ResourceError
from .measures import GridMeasure, _write_csv

# Cell masses below this are treated as cumulative-sum rounding noise.
_CELL_TOL = 1e-14

LP_SIZE_CAP = 10_000


# -- quantile-coupling distances ---------------------------------------------

def _check_displacements(m1: GridMeasure, m2: GridMeasure) -> None:
    lo = min(float(m1.atoms[0]), float(m2.atoms[0]))
    hi = max(float(m1.atoms[-1]), float(m2.atoms[-1]))
    if not math.isfinite(hi - lo):
        raise DomainError("transport displacements must be finite floats")


def _staircase(ca: np.ndarray, cb: np.ndarray):
    """The n + m - 1 cells of the comonotone path between cumulative sums.

    Merges the interior breakpoints of both partitions; a row break steps
    down, a column break steps right, and a tie steps down first.  A zero
    weight or a tie gives a zero-mass cell, so the path still visits every
    row and column.  The last cell closes at the larger total, so no mass is
    negative.  Returns (masses, rows, cols).
    """
    breaks = np.concatenate((ca[:-1], cb[:-1]))
    order = np.argsort(breaks, kind="stable")
    down = order < ca.size - 1
    rows = np.concatenate(([0], np.cumsum(down)))
    cols = np.concatenate(([0], np.cumsum(~down)))
    ends = np.concatenate(([0.0], breaks[order], [max(ca[-1], cb[-1])]))
    return np.diff(ends), rows, cols


def _quantile_cells(m1: GridMeasure, m2: GridMeasure):
    """Cells of the monotone coupling that carry mass: (masses, q1, q2), the
    cell masses and the atoms of each measure that every cell pairs."""
    _check_displacements(m1, m2)
    masses, rows, cols = _staircase(m1._cum / m1._cum[-1], m2._cum / m2._cum[-1])
    live = masses > 0.0
    return masses[live], m1.atoms[rows[live]], m2.atoms[cols[live]]


def wasserstein(m1: GridMeasure, m2: GridMeasure, alpha: float) -> float:
    """Order-alpha Wasserstein distance via the monotone coupling."""
    if alpha == math.inf:
        return wasserstein_inf(m1, m2)
    if not (alpha >= 1.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be a real >= 1 (or inf)")
    masses, q1, q2 = _quantile_cells(m1, m2)
    # scale by the largest displacement so its power cannot overflow
    disp = np.abs(q1 - q2)
    scale = float(np.max(disp))
    if scale == 0.0:
        return 0.0
    cost = float(np.sum(masses * (disp / scale) ** alpha))
    return scale * cost ** (1.0 / alpha)


def wasserstein_inf(m1: GridMeasure, m2: GridMeasure) -> float:
    """Essential sup of |x - y| under the monotone coupling."""
    masses, q1, q2 = _quantile_cells(m1, m2)
    live = masses > _CELL_TOL
    if not np.any(live):
        return 0.0
    return float(np.max(np.abs(q1[live] - q2[live])))


# -- exact transportation LP --------------------------------------------------

def _cost_matrix(xs: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """|x - y|^alpha for every pair of atoms (x from xs, y from ys)."""
    with np.errstate(over="ignore"):
        cost = np.abs(xs[:, None] - ys[None, :]) ** alpha
    if not np.all(np.isfinite(cost)):
        raise DomainError(f"transport cost |x - y|^{alpha:g} overflows")
    return cost


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint distribution on atoms(m1) x atoms(m2) with given marginals."""

    row_atoms: np.ndarray
    col_atoms: np.ndarray
    joint: np.ndarray

    def __post_init__(self) -> None:
        row_atoms = np.asarray(self.row_atoms, dtype=float).reshape(-1)
        col_atoms = np.asarray(self.col_atoms, dtype=float).reshape(-1)
        joint = np.asarray(self.joint, dtype=float)
        if joint.shape != (row_atoms.size, col_atoms.size):
            raise DomainError("joint shape must match atom counts")
        if np.any(joint < -1e-15):
            raise DomainError("coupling weights must be nonnegative")
        joint = np.maximum(joint, 0.0)
        for arr in (row_atoms, col_atoms, joint):
            arr.setflags(write=False)
        object.__setattr__(self, "row_atoms", row_atoms)
        object.__setattr__(self, "col_atoms", col_atoms)
        object.__setattr__(self, "joint", joint)

    def row_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def cost(self, alpha: float) -> float:
        return float(np.sum(self.joint * _cost_matrix(self.row_atoms,
                                                      self.col_atoms, alpha)))


def _monotone_plan(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Optimal plan for a Monge cost: the comonotone staircase.

    Atoms are strictly increasing and |x - y|^alpha (alpha >= 1) is Monge, so
    the comonotone plan is optimal (Hoffman 1963).  Its cells come from one
    merge of the cumulative sums, ties stepping down first; they form a path
    from cell (0, 0), so each dual price follows from its path predecessor,
    and the reduced costs then certify optimality.  Returns (plan, u, v, total).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = b * (a.sum() / b.sum())  # rebalance rounding drift; both sum to ~1
    masses, rows, cols = _staircase(np.cumsum(a), np.cumsum(b))
    plan = np.zeros(cost.shape)
    plan[rows, cols] = masses
    u = np.zeros(cost.shape[0])
    v = np.zeros(cost.shape[1])
    v[0] = cost[0, 0]
    for i, j, down in zip(rows[1:], cols[1:], np.diff(rows) > 0):
        if down:
            u[i] = cost[i, j] - v[j]
        else:
            v[j] = cost[i, j] - u[i]
    reduced = cost - u[:, None] - v[None, :]
    reduced[rows, cols] = 0.0
    if np.any(reduced < -1e-12 * (1.0 + float(np.max(cost)))):
        raise InternalError("comonotone plan is not optimal; cost is not Monge")
    return plan, u, v, float(np.sum(plan * cost))


def _lp(m1: GridMeasure, m2: GridMeasure, alpha: float):
    """Monotone plan of the transportation LP for |x-y|^alpha, at most
    LP_SIZE_CAP cells.  Returns (plan, u, v, total)."""
    n, m = len(m1), len(m2)
    if n * m > LP_SIZE_CAP:
        raise ResourceError(
            f"LP instance {n}x{m} exceeds cell cap {LP_SIZE_CAP}")
    _check_displacements(m1, m2)
    return _monotone_plan(m1.weights, m2.weights, _cost_matrix(m1.atoms, m2.atoms, alpha))


def optimal_coupling_lp(m1: GridMeasure, m2: GridMeasure, alpha: float):
    """Exact optimal coupling and transportation cost for |x-y|^alpha.

    Returns (Coupling, cost) with cost the raw objective value, so that
    cost ** (1/alpha) agrees with :func:`wasserstein`.
    """
    if not (alpha >= 1.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be a finite real >= 1")
    plan, _, _, total = _lp(m1, m2, alpha)
    coupling = Coupling(m1.atoms, m2.atoms, plan)
    if (np.max(np.abs(coupling.row_marginal() - m1.weights)) > 1e-10 or
            np.max(np.abs(coupling.col_marginal() - m2.weights)) > 1e-10):
        raise InternalError("LP plan marginals drifted beyond 1e-10")
    return coupling, total


# -- Kantorovich duality ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DualPair:
    """Dual potentials (psi on atoms(m1), phi on atoms(m2)) for order alpha.

    Feasibility phi(y) - psi(x) <= |x - y|^alpha is checked against the
    measures in :func:`dual_value`.
    """

    psi_values: np.ndarray
    phi_values: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi_values, dtype=float).reshape(-1)
        phi = np.asarray(self.phi_values, dtype=float).reshape(-1)
        if not (self.alpha >= 1.0 and math.isfinite(self.alpha)):
            raise DomainError("alpha must be a finite real >= 1")
        psi.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "psi_values", psi)
        object.__setattr__(self, "phi_values", phi)


def c_transform(psi_values: np.ndarray, m1: GridMeasure, m2: GridMeasure,
                alpha: float) -> np.ndarray:
    """Largest phi feasible against psi: phi(y) = min_x psi(x) + |x-y|^alpha."""
    psi = np.asarray(psi_values, dtype=float).reshape(-1)
    if psi.size != len(m1):
        raise DomainError("psi must have one value per atom of m1")
    return np.min(psi[:, None] + _cost_matrix(m1.atoms, m2.atoms, alpha), axis=0)


def c_transform_upper(phi_values: np.ndarray, m2: GridMeasure, m1: GridMeasure,
                      alpha: float) -> np.ndarray:
    """Smallest psi feasible against phi: psi(x) = max_y phi(y) - |x-y|^alpha."""
    phi = np.asarray(phi_values, dtype=float).reshape(-1)
    if phi.size != len(m2):
        raise DomainError("phi must have one value per atom of m2")
    return np.max(phi[None, :] - _cost_matrix(m1.atoms, m2.atoms, alpha), axis=1)


def feasibility_violation(m1: GridMeasure, m2: GridMeasure, pair: DualPair) -> float:
    """Largest excess of phi(y) - psi(x) over |x - y|^alpha (<= 0 if feasible)."""
    gap = (pair.phi_values[None, :] - pair.psi_values[:, None]
           - _cost_matrix(m1.atoms, m2.atoms, pair.alpha))
    return float(np.max(gap))


def dual_value(m1: GridMeasure, m2: GridMeasure, pair: DualPair) -> float:
    """Dual objective int phi dm2 - int psi dm1 for a feasible pair."""
    if pair.psi_values.size != len(m1) or pair.phi_values.size != len(m2):
        raise DomainError("potential lengths must match the measures")
    if feasibility_violation(m1, m2, pair) > 1e-9:
        raise DomainError("dual pair violates the transport constraint")
    return float(np.sum(pair.phi_values * m2.weights)
                 - np.sum(pair.psi_values * m1.weights))


def dual_ascent(m1: GridMeasure, m2: GridMeasure, alpha: float) -> DualPair:
    """Optimal dual pair from one round of c-transforms (phi, psi, phi) of
    the LP dual prices, which are already optimal; more rounds keep it."""
    _, u, _, _ = _lp(m1, m2, alpha)
    phi = c_transform(-u, m1, m2, alpha)
    psi = c_transform_upper(phi, m2, m1, alpha)
    return DualPair(psi, c_transform(psi, m1, m2, alpha), alpha)


def lipschitz_witness_values(psi_values: np.ndarray, m1: GridMeasure,
                             points: np.ndarray) -> np.ndarray:
    """Evaluate the 1-Lipschitz lower envelope h(t) = min_i psi_i + |x_i - t|.

    For alpha = 1 this turns any psi into a valid Lipschitz test function;
    applied to LP-optimal potentials it witnesses the distance itself.
    """
    psi = np.asarray(psi_values, dtype=float).reshape(-1)
    pts = np.asarray(points, dtype=float).reshape(-1)
    return np.min(psi[:, None] + np.abs(m1.atoms[:, None] - pts[None, :]), axis=0)


def tent_function(points: np.ndarray, peak: float, height: float) -> np.ndarray:
    """Tent witness max(0, height - |t - peak|); 1-Lipschitz and bounded."""
    pts = np.asarray(points, dtype=float)
    return np.maximum(0.0, height - np.abs(pts - peak))


# -- file format --------------------------------------------------------------

def save_coupling_csv(coupling: Coupling, path: str) -> None:
    """Write positive coupling cells as CSV rows 'i,j,xi,yj,w'."""
    rows, cols = np.nonzero(coupling.joint > 0.0)
    _write_csv(path, ("i", "j", "xi", "yj", "w"), rows, cols,
               coupling.row_atoms[rows], coupling.col_atoms[cols],
               coupling.joint[rows, cols])
