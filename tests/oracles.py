"""Independent reference implementations used to freeze expected values.

Every oracle here recomputes a library quantity through a disjoint route:
brute-force scans, dense linear algebra, a general-purpose LP solver, or
special functions.  Tests compare library outputs against these, never the
other way around.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

from quncert import GridMeasure


def brute_alpha_deviation(atoms, weights, alpha: float) -> float:
    """Scan the anchor point over progressively refined grids."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lo, hi = float(atoms.min()), float(atoms.max())
    if lo == hi:
        return 0.0
    best = math.inf
    for _ in range(6):
        ys = np.linspace(lo, hi, 2001)
        vals = np.sum(weights[None, :]
                      * np.abs(atoms[None, :] - ys[:, None]) ** alpha, axis=1)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        lo = float(ys[max(i - 1, 0)])
        hi = float(ys[min(i + 1, ys.size - 1)])
    return best ** (1.0 / alpha)


def brute_overall_width(atoms, weights, eps: float) -> float:
    """Minimum width over every atom-bracketed interval with mass >= 1-eps."""
    atoms = np.asarray(atoms, dtype=float)
    prefix = np.cumsum(np.asarray(weights, dtype=float))
    need = 1.0 - eps - 1e-12
    best = math.inf
    n = atoms.size
    for i in range(n):
        for j in range(i, n):
            mass = prefix[j] - (prefix[i - 1] if i > 0 else 0.0)
            if mass >= need:
                best = min(best, float(atoms[j] - atoms[i]))
                break
    return 0.0 if need <= 0.0 else best


def lp_transport_cost(atoms1, w1, atoms2, w2, alpha: float) -> float:
    """Exact transportation cost via the HiGHS LP solver."""
    atoms1 = np.asarray(atoms1, dtype=float)
    atoms2 = np.asarray(atoms2, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    m, n = w1.size, w2.size
    cost = (np.abs(atoms1[:, None] - atoms2[None, :]) ** alpha).ravel()
    a_eq = np.zeros((m + n - 1, m * n))
    b_eq = np.zeros(m + n - 1)
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        b_eq[i] = w1[i]
    for j in range(n - 1):  # last column constraint is redundant
        a_eq[m + j, j::n] = 1.0
        b_eq[m + j] = w2[j]
    res = scipy.optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq,
                                 bounds=(0.0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def _forest_flow(cells, w1, w2):
    """Unique conservative flow on an acyclic support, or None if infeasible."""
    m, n = len(w1), len(w2)
    rem = list(w1) + list(w2)
    incident: list[set] = [set() for _ in range(m + n)]
    ends = []
    for idx, (i, j) in enumerate(cells):
        incident[i].add(idx)
        incident[m + j].add(idx)
        ends.append((i, m + j))
    flow = [None] * len(cells)
    leaves = [u for u in range(m + n) if len(incident[u]) == 1]
    while leaves:
        u = leaves.pop()
        if len(incident[u]) != 1:
            continue
        idx = next(iter(incident[u]))
        a, b = ends[idx]
        v = b if u == a else a
        f = rem[u]
        if f < -1e-12:
            return None
        flow[idx] = f
        rem[u] = 0.0
        rem[v] -= f
        incident[u].discard(idx)
        incident[v].discard(idx)
        if len(incident[v]) == 1:
            leaves.append(v)
    if any(f is None for f in flow):
        return None
    if any(abs(r) > 1e-9 for r in rem):
        return None
    return flow


def _is_forest(cells, m, n) -> bool:
    parent = list(range(m + n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in cells:
        ra, rb = find(i), find(m + j)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def winf_extreme_point_search(atoms1, w1, atoms2, w2) -> float:
    """Sup-displacement distance by exhausting extreme-point couplings.

    Extreme points of the transportation polytope have acyclic supports, so
    enumerate every forest support covering all atoms, solve its uniquely
    determined flow, and keep the feasible ones.  Exponential; use only on
    instances with <= 4 atoms per side.
    """
    atoms1 = [float(x) for x in atoms1]
    atoms2 = [float(x) for x in atoms2]
    m, n = len(w1), len(w2)
    if m > 4 or n > 4:
        raise ValueError("oracle is exponential; keep instances at <= 4 atoms")
    cells = list(itertools.product(range(m), range(n)))
    best = math.inf
    for k in range(max(m, n), m + n):
        for support in itertools.combinations(cells, k):
            if len({i for i, _ in support}) < m:
                continue
            if len({j for _, j in support}) < n:
                continue
            if not _is_forest(support, m, n):
                continue
            flow = _forest_flow(support, w1, w2)
            if flow is None:
                continue
            disp = max((abs(atoms1[i] - atoms2[j])
                        for (i, j), f in zip(support, flow) if f > 1e-12),
                       default=0.0)
            best = min(best, disp)
    return best


def dense_ground_energy(alpha: float, beta: float, x0: float, dx: float,
                        n: int) -> float:
    """Lowest eigenvalue of the discretized |x|^alpha + |p|^beta operator.

    Uses the unitary DFT matrix explicitly, so the kinetic term is exactly
    the one the split-step propagator applies.
    """
    x = x0 + dx * np.arange(n)
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    k = np.arange(n)
    f_mat = np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    ham = np.diag(np.abs(x) ** alpha).astype(complex)
    ham += f_mat.conj().T @ np.diag(np.abs(p) ** beta) @ f_mat
    return float(scipy.linalg.eigvalsh(ham)[0])


def airy_ground_energy_12() -> float:
    """Continuum ground energy of |x| + p^2: minus the first zero of Ai'."""
    _, ap, _, _ = scipy.special.ai_zeros(1)
    return float(-ap[0])


def convolve_reference(a, b):
    """Convolution by a row loop that picks its side by length (>= 2 atoms).

    The loop side is the operand with fewer atoms (``a`` on a tie), whatever
    its weights, and zero weights are skipped on that side only: each row
    walks every atom of the other operand.  The output grid and the linear
    mass split are those of ``measures.convolve``.
    """
    h = min(a.min_spacing(), b.min_spacing())
    lo = float(a.atoms[0] + b.atoms[0])
    hi = float(a.atoms[-1] + b.atoms[-1])
    n_bins = int(math.floor((hi - lo) / h + 1e-9)) + 2
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    acc = np.zeros(n_bins + 1)
    for x, w in zip(small.atoms, small.weights):
        if w == 0.0:
            continue
        pos = np.clip((big.atoms + (x - lo)) / h, 0.0, n_bins - 1e-9)
        k = np.floor(pos).astype(np.int64)
        frac = pos - k
        acc += np.bincount(k, weights=big.weights * (w * (1.0 - frac)),
                           minlength=n_bins + 1)
        acc += np.bincount(k + 1, weights=big.weights * (w * frac),
                           minlength=n_bins + 1)
    atoms = lo + h * np.arange(n_bins + 1)
    nz = np.nonzero(acc > 0.0)[0]
    s = slice(int(nz[0]), int(nz[-1]) + 1)
    return GridMeasure(atoms[s], acc[s])


def tv_distance(m1, m2) -> float:
    """Total variation between two GridMeasures over the union of atoms."""
    union = np.union1d(m1.atoms, m2.atoms)

    def on(m):
        w = np.zeros(union.size)
        idx = np.searchsorted(union, m.atoms)
        w[idx] = m.weights
        return w

    return 0.5 * float(np.sum(np.abs(on(m1) - on(m2))))


def dual_ascent_reference(m1, m2, alpha: float):
    """Alternating c-transforms from the LP dual prices until a round gains
    less than 1e-10 (at most 1000 rounds); returns (psi, phi, rounds)."""
    from quncert.transport import _lp, c_transform, c_transform_upper

    _, u, _, _ = _lp(m1, m2, alpha)
    psi = -u
    phi = c_transform(psi, m1, m2, alpha)
    best = float(np.sum(phi * m2.weights) - np.sum(psi * m1.weights))
    rounds = 0
    for _ in range(1000):
        rounds += 1
        psi = c_transform_upper(phi, m2, m1, alpha)
        phi = c_transform(psi, m1, m2, alpha)
        value = float(np.sum(phi * m2.weights) - np.sum(psi * m1.weights))
        if value - best < 1e-10:
            break
        best = value
    return psi, phi, rounds


def hermite_reference(grid, n: int, hbar: float = 1.0) -> np.ndarray:
    """Normalized amplitudes of the n-th oscillator state about x = 0 from
    hermval over the whole grid (overflows for large n or wide grids)."""
    xi = grid.points() / math.sqrt(hbar)
    coeffs = np.zeros(n + 1)
    coeffs[-1] = 1.0
    amp = (np.polynomial.hermite.hermval(xi, coeffs)
           * np.exp(-0.5 * xi ** 2)).astype(complex)
    return amp / math.sqrt(float(np.sum(np.abs(amp) ** 2) * grid.dx))
