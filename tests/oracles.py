"""Independent reference implementations used to freeze expected values.

Every oracle here recomputes a library quantity through a disjoint route:
brute-force scans, dense linear algebra, a general-purpose LP solver, or
special functions.  Tests compare library outputs against these, never the
other way around.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

from quncert import DomainError, GridMeasure


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


def scan_alpha_deviation(atoms, weights, alpha: float) -> float:
    """Scan the anchor point over a dense grid between the extreme atoms
    that carry mass and over the atoms themselves, then polish the best
    point with SciPy's bounded scalar minimizer on the scan cells beside it;
    the smaller value wins.  The atoms are mapped affinely onto [0, 1]
    first, so no power leaves the float range."""
    weights = np.asarray(weights, dtype=float)
    atoms = np.asarray(atoms, dtype=float)[weights > 0.0]
    weights = weights[weights > 0.0]
    lo, hi = float(atoms.min()), float(atoms.max())
    if lo == hi:
        return 0.0
    u = (atoms - lo) / (hi - lo)
    ys = np.concatenate([np.linspace(0.0, 1.0, 4001), u])
    vals = np.sum(weights[None, :]
                  * np.abs(u[None, :] - ys[:, None]) ** alpha, axis=1)
    y0 = float(ys[int(np.argmin(vals))])

    def objective(t):
        # the offset t from y0: SciPy's stop is relative to |t|, not |y|
        return float(np.sum(weights * np.abs(u - (y0 + t)) ** alpha))

    res = scipy.optimize.minimize_scalar(
        objective, bounds=(max(-y0, -2.5e-4), min(1.0 - y0, 2.5e-4)),
        method="bounded", options={"xatol": 1e-13})
    best = min(float(vals.min()), float(res.fun))
    return best ** (1.0 / alpha) * (hi - lo)


def two_point_alpha_deviation(a: float, b: float, w1: float,
                              alpha: float) -> float:
    """alpha-deviation of w1 at a and 1 - w1 at b > a, alpha > 1, in closed
    form: the minimizer solves w1 (y - a)^(alpha-1) = (1 - w1) (b - y)^(alpha-1),
    and the minimum is summed in log space."""
    ratio = ((1.0 - w1) / w1) ** (1.0 / (alpha - 1.0))
    y = (a + ratio * b) / (1.0 + ratio)
    logs = [math.log(w1) + alpha * math.log(y - a),
            math.log(1.0 - w1) + alpha * math.log(b - y)]
    return math.exp(float(scipy.special.logsumexp(logs)) / alpha)


def log_alpha_norm(atoms, weights, alpha: float) -> float:
    """(sum w |q|^alpha)^(1/alpha) from log w + alpha log |q| by logsumexp,
    so no power leaves the float range; alpha = inf gives the largest |q|
    that carries mass."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = (weights > 0.0) & (atoms != 0.0)
    if not keep.any():
        return 0.0
    q, w = np.abs(atoms[keep]), weights[keep]
    if math.isinf(alpha):
        return float(q.max())
    log_sum = scipy.special.logsumexp(np.log(w) + alpha * np.log(q))
    return math.exp(float(log_sum) / alpha)


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


def northwest_corner_reference(a, b):
    """North-west-corner plan by a remainder loop: take the smaller remainder
    of row i and column j, then advance along the exhausted line, the row on
    a tie.  Returns (plan, path of the n + m - 1 basic cells)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = a.size, b.size
    plan = np.zeros((n, m))
    path = []
    ra = a.copy()
    rb = b.copy()
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        plan[i, j] = t
        path.append((i, j))
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if ra[i] <= rb[j] and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return plan, path


def smoothed_cdf_reference(ref):
    """CDF of ref with each atom spread over a mini-cell of the minimum
    spacing, evaluated one point per call: the cells fully left of e, plus
    the part of the one cell that straddles e.  A single atom keeps the
    right-continuous jump of ``ref.cdf``."""
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


def binned_tv_reference(masses, centers, step, ref) -> float:
    """Total variation between lattice masses and ref binned into windows
    of the given step around the centers, through `smoothed_cdf_reference`;
    ref mass outside the windows and lattice mass short of 1 both count."""
    edges = np.concatenate([centers - 0.5 * step, [centers[-1] + 0.5 * step]])
    cdf = smoothed_cdf_reference(ref)
    cdf_vals = np.array([cdf(e) for e in edges])
    leftover = 1.0 - float(cdf_vals[-1] - cdf_vals[0])
    missing = max(0.0, 1.0 - float(np.sum(masses)))
    return 0.5 * (float(np.abs(np.diff(cdf_vals) - masses).sum())
                  + leftover + missing)


def joint_margin_tv_reference(tau, state, joint, hbar: float = 1.0):
    """(q, p) margin TVs of a joint covariant law through the full smeared
    laws: each margin's Born law and smearing convolved densely on their
    lattice by `np.convolve`, zero ends trimmed, then binned per edge by
    `binned_tv_reference`."""
    from quncert.observables import CovariantMarginal
    tvs = []
    for axis, masses, centers in (
            ("position", joint.mass.sum(axis=1), joint.q_values),
            ("momentum", joint.mass.sum(axis=0), joint.p_values)):
        obs = CovariantMarginal(tau, axis)
        law = obs.sharp().distribution(state, hbar)
        smear = obs.smearing(hbar)
        _, step = state.grid.lattice(axis, hbar)
        weights = np.convolve(law.weights, smear.weights)
        nz = np.nonzero(weights > 0.0)[0]
        k = np.arange(nz[0], nz[-1] + 1)
        ref = GridMeasure(law.atoms[0] + smear.atoms[0] + step * k,
                          weights[k])
        tvs.append(binned_tv_reference(masses, centers,
                                       float(centers[1] - centers[0]), ref))
    return tuple(tvs)


def born_law_reference(state, axis: str, hbar: float = 1.0) -> GridMeasure:
    """Born law of axis with no round-off floor: the component-weighted
    squared amplitudes (position) or squared shifted-FFT amplitudes scaled
    by dx^2 / (2 pi hbar) (momentum), times the lattice step, divided by
    their sum, every lattice point an atom."""
    grid = state.grid
    points, step = grid.lattice(axis, hbar)
    acc = np.zeros(grid.n)
    scale = grid.dx ** 2 / (2.0 * math.pi * hbar)
    for w, wf in state.components:
        if axis == "position":
            acc += w * np.abs(wf.amplitudes) ** 2
        else:
            psihat = np.fft.fftshift(np.fft.fft(wf.amplitudes))
            acc += w * scale * np.abs(psihat) ** 2
    acc = acc * step
    return GridMeasure(points, acc / float(np.sum(acc)))


def shift_reference(wf, q: float, hbar: float = 1.0) -> np.ndarray:
    """Amplitudes of psi(x - q) with no amplitude floor: whole cells by
    slicing with zeros shifted in, the sub-cell rest by the phase ramp
    exp(-i p rest / hbar) on the raw FFT frequencies."""
    amp = wf.amplitudes
    n, dx = amp.size, wf.dx
    cells = int(round(q / dx))
    shifted = np.zeros_like(amp)
    if cells >= 0:
        shifted[cells:] = amp[:n - cells]
    else:
        shifted[:n + cells] = amp[-cells:]
    rest = q - cells * dx
    if rest == 0.0:
        return shifted
    p_raw = 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=dx)
    return np.fft.ifft(np.fft.fft(shifted) * np.exp(-1j * p_raw * rest / hbar))


def weyl_translate_reference(state, point, hbar: float = 1.0):
    """W(q, p) of every component with no amplitude floor: the shift of
    `shift_reference`, times exp(i (p x - q p / 2) / hbar), renormalized."""
    from quncert.states import MixedState, WaveFunction

    out = []
    for w, wf in state.components:
        amp = shift_reference(wf, point.q, hbar) * np.exp(
            1j * (point.p * wf.xs() - 0.5 * point.q * point.p) / hbar)
        amp = amp / math.sqrt(float(np.sum(np.abs(amp) ** 2) * wf.dx))
        out.append((w, WaveFunction(wf.x0, wf.dx, amp)))
    return MixedState(tuple(out))


def joint_mass_reference(tau, state, q_values, p_values,
                         hbar: float = 1.0) -> np.ndarray:
    """Joint covariant masses read from the fftshift-ed spectrum: for each
    q (a whole number of cells) and each pair of components, the generator
    shifted by those cells with zeros shifted in, its conjugate times the
    state, one FFT, shifted to the centered lattice and read at the
    centered indices of p_values."""
    grid = state.grid
    dx, n = grid.dx, grid.n
    dp = grid.momentum_step(hbar)
    q_cells = np.round(np.asarray(q_values) / dx).astype(int)
    p_idx = np.round((np.asarray(p_values) + dp * (n // 2)) / dp).astype(int)
    scale = (dx * dx / (2.0 * math.pi * hbar)
             * float(q_values[1] - q_values[0])
             * float(p_values[1] - p_values[0]))
    mass = np.zeros((len(q_values), len(p_values)))
    for w_t, phi in tau.components:
        for w_s, psi in state.components:
            for iq, cells in enumerate(q_cells):
                shifted = np.zeros_like(phi.amplitudes)
                if cells >= 0:
                    shifted[cells:] = phi.amplitudes[:n - cells]
                else:
                    shifted[:n + cells] = phi.amplitudes[-cells:]
                spectrum = np.fft.fftshift(
                    np.fft.fft(np.conj(shifted) * psi.amplitudes))
                mass[iq] += w_t * w_s * scale * np.abs(spectrum[p_idx]) ** 2
    return mass


def csv_writer_reference(path, header, *columns) -> None:
    """Equal-length columns written by `csv.writer` (excel dialect), one
    row per index, each cell the Python number `tolist` gives."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))


def read_csv_reference(path, header, what) -> np.ndarray:
    """One float column per header name, every row parsed by `csv.reader`
    and `float`: the first row must start with header (case and spaces
    ignored, and a byte-order mark that opens the file), blank rows are
    skipped, a shorter row or a cell that is not a finite number is a
    DomainError, further cells are ignored."""
    k = len(header)
    cells: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise DomainError(f"{path}: empty {what} file")
        if first and first[0].startswith("\ufeff"):
            first[0] = first[0][1:]
        if [c.strip().lower() for c in first[:k]] != list(header):
            raise DomainError(f"{path}: expected header '{','.join(header)}'")
        for row in reader:
            if row and (len(row) > 1 or row[0].strip()):
                try:
                    cells.extend([float(row[i]) for i in range(k)])
                except (ValueError, IndexError):
                    raise DomainError(f"{path}: malformed row {row!r}") from None
    table = np.array(cells, dtype=float).reshape(-1, k).T
    if not np.all(np.isfinite(table)):
        raise DomainError(f"{path}: values must be finite")
    return table


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


def localized_probes_reference(grid, center, cfg, axis, hbar):
    """The four probes of a window, each built on its own: flat, the phase
    ramp +pi hbar / delta, a Hann-tapered complex normal probe seeded with
    cfg.seed plus the snapped center's lattice index, and the ramp
    -pi hbar / delta; returns (snapped center, [(label, WaveFunction)])."""
    from quncert.states import _axis_state

    points, _ = grid.lattice(axis, hbar)
    idx, x = grid.snap(axis, center, hbar)
    mask = grid.window(axis, x, cfg.delta, hbar)
    window = points[mask]
    count = window.size
    phase = 1j if axis == "position" else -1j

    def window_state(values):
        amp = np.zeros(grid.n, dtype=complex)
        amp[mask] = values
        return _axis_state(grid, axis, amp)

    def ramp(rate):
        return (f"ramp{rate:+.6g}",
                window_state(np.exp(phase * rate * window / hbar)))

    rng = np.random.default_rng(cfg.seed + idx)
    noise = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    rate = math.pi * hbar / cfg.delta
    return x, [("flat", window_state(np.ones(count))), ramp(rate),
               ("random0", window_state(noise * np.hanning(count + 2)[1:-1])),
               ramp(-rate)]


def probe_sweep_reference(approx, target, cfg, grid, hbar, centered):
    """Error-bar sweep with no memo: every call builds each probe, checks
    its localization, computes the device law and reads its width at
    cfg.eps, so no law is shared between calls."""
    from quncert.measures import overall_width
    from quncert.metrics import (_assert_localized, _localized_probes,
                                 _worst, divergence_cutoff,
                                 min_centered_window)

    axis = target.axis
    rows = []
    for raw_center in cfg.x_samples:
        x, probes = _localized_probes(grid, raw_center, cfg, axis, hbar)
        for label, probe in probes:
            _assert_localized(target.distribution(probe, hbar), x, cfg.delta)
            law = approx.distribution(probe, hbar)
            w = (min_centered_window(law, x, cfg.eps) if centered
                 else overall_width(law, cfg.eps))
            rows.append(((x, label), {"center": x, "probe": label,
                                      "width": w}))
    return _worst(rows, "width", True, divergence_cutoff(grid, axis, hbar))
