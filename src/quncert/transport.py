"""Wasserstein distances, exact monotone couplings, and Kantorovich duality.

The production distance path uses the monotone (quantile) coupling, which is
optimal on the line for every order alpha >= 1 and for the sup-displacement
distance.  The same monotone plan, built cell by cell on the atom lattice,
gives the exact coupling; its dual prices, certified optimal by their reduced
costs, give an optimal Kantorovich dual pair after one c-transform round.
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


def _quantile_cells(m1: GridMeasure, m2: GridMeasure):
    """Common refinement of both quantile partitions of (0, 1].

    Returns (masses, q1, q2): cell masses and the constant quantile values of
    each measure on each cell.
    """
    _check_displacements(m1, m2)
    c1 = np.asarray(m1._cum) / float(m1._cum[-1])
    c2 = np.asarray(m2._cum) / float(m2._cum[-1])
    ts = np.union1d(c1, c2)
    masses = np.diff(np.concatenate(([0.0], ts)))
    idx1 = np.minimum(np.searchsorted(c1, ts - 1e-15, side="left"), len(m1) - 1)
    idx2 = np.minimum(np.searchsorted(c2, ts - 1e-15, side="left"), len(m2) - 1)
    return masses, m1.atoms[idx1], m2.atoms[idx2]


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

    def max_displacement(self) -> float:
        diff = np.abs(self.row_atoms[:, None] - self.col_atoms[None, :])
        live = self.joint > _CELL_TOL
        return float(np.max(diff[live])) if np.any(live) else 0.0


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """North-west-corner plan; returns (plan, staircase path of basic cells)."""
    n, m = a.size, b.size
    plan = np.zeros((n, m))
    basis: list[tuple[int, int]] = []
    ra = a.copy()
    rb = b.copy()
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        plan[i, j] = t
        basis.append((i, j))
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == m - 1:
            break
        # advance along the exhausted line; ties prefer the row so the path
        # stays a spanning tree with exactly n + m - 1 basic cells
        if ra[i] <= rb[j] and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return plan, basis


def _monotone_plan(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Optimal plan for a Monge cost: the north-west-corner staircase.

    Atoms are strictly increasing and |x - y|^alpha (alpha >= 1) is Monge, so
    the north-west-corner plan is optimal (Hoffman 1963).  Its basis is a path
    from cell (0, 0), so each dual price follows from its path predecessor;
    the reduced costs then certify optimality.  Returns (plan, u, v, total).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = b * (a.sum() / b.sum())  # rebalance rounding drift; both sum to ~1
    plan, path = _northwest_corner(a, b)
    u = np.zeros(cost.shape[0])
    v = np.zeros(cost.shape[1])
    v[0] = cost[0, 0]
    for (i0, _), (i, j) in zip(path, path[1:]):
        if i > i0:
            u[i] = cost[i, j] - v[j]
        else:
            v[j] = cost[i, j] - u[i]
    reduced = cost - u[:, None] - v[None, :]
    rows, cols = zip(*path)
    reduced[rows, cols] = 0.0
    if np.any(reduced < -1e-12 * (1.0 + float(np.max(cost)))):
        raise InternalError("north-west-corner plan is not optimal; "
                            "cost is not Monge")
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
