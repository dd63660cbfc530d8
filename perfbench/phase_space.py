"""The phase-space workload: one in-process pass over dense operands.

Each pass builds three seeded (generator, state) Gaussian pairs on the
4096-point grid and runs the joint covariant distribution, both covariant
margins, spread functionals, Wasserstein distances, the exact transport LP
with dual ascent, and CSV round trips.  Here about 80 % of the atom pairs a
convolution is offered carry mass, against 0.3 % in the verification suite,
and there is no ground state and no probe sweep.

The seed draws phase-space displacements and the LP operands.  The widths
are fixed so that every seed does the same amount of work and the accuracy
figure (the joint-margin total-variation gap) does not vary with the seed.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from quncert.exceptions import AccuracyError
from quncert.measures import (alpha_deviation, gaussian_measure,
                              load_measure_csv, overall_width,
                              save_measure_csv, sorted_measure)
from quncert.observables import (CovariantMarginal,
                                 joint_covariant_distribution)
from quncert.states import (GridSpec, PhasePoint, load_wavefunction_csv,
                            make_gaussian, momentum_distribution,
                            position_distribution,
                            save_wavefunction_csv, weyl_translate)
from quncert.transport import (dual_ascent, dual_value, optimal_coupling_lp,
                               wasserstein)

GRID = GridSpec.symmetric(64.0, 4096)
# (generator sigma, state sigma) of the three pairs in a pass
WIDTHS = ((1.0, 0.8), (0.9, 1.2), (1.3, 0.7))
Q_POINTS, P_POINTS, Q_STRIDE = 129, 401, 4
LP_ATOMS = 100
# a CSV round trip re-reads repr-exact numbers but renormalizes the mass,
# which moves each value by a few units in the last place
ROUND_TRIP_TOL = 1e-12


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pairs = [(st, ss, *(float(v) for v in rng.uniform(-3.0, 3.0, 4)))
             for st, ss in WIDTHS]
    lp_a = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
    lp_b = (np.sort(rng.uniform(-3.0, 3.0, LP_ATOMS)),
            rng.dirichlet(np.ones(LP_ATOMS)))
    return {"pairs": pairs, "lp_a": lp_a, "lp_b": lp_b}


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and float(np.max(np.abs(got - want))) \
        <= ROUND_TRIP_TOL * float(np.max(np.abs(want)))


def _window(center: float, step: float, count: int) -> np.ndarray:
    return step * (np.arange(count) - count // 2 + round(center / step))


def run_pass(inputs: dict, scratch: str) -> dict:
    """Run one pass; return its checks, accuracy figure and result digest."""
    checks: list[tuple[str, bool]] = []
    digest = hashlib.sha256()
    tv_max = 0.0
    dx, dp = GRID.dx, GRID.momentum_step()

    def record(name: str, ok: bool, *arrays) -> None:
        checks.append((name, bool(ok)))
        for arr in arrays:
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())

    for k, (st, ss, qt, pt, qs, ps) in enumerate(inputs["pairs"]):
        tau = make_gaussian(GRID, qt, pt, st)
        state = weyl_translate(make_gaussian(GRID, 0.0, 0.0, ss),
                               PhasePoint(qs, ps))
        # the margins centre on the state's mean minus the generator's
        q_vals = _window(qs - qt, Q_STRIDE * dx, Q_POINTS)
        p_vals = _window(ps - pt, dp, P_POINTS)
        try:
            joint = joint_covariant_distribution(tau, state, q_vals, p_vals)
        except AccuracyError:
            record("joint", False)
        else:
            tv_max = max(tv_max, joint.q_marginal_tv, joint.p_marginal_tv)
            record("joint", True, joint.mass)

        sharp = position_distribution(state)
        for axis in ("position", "momentum"):
            marginal = CovariantMarginal(tau, axis)
            law = marginal.distribution(state)
            spreads = [overall_width(law, 0.05), alpha_deviation(law, 1.0),
                       alpha_deviation(law, 2.0)]
            # convolution keeps the first moment: smeared mean = sum of means
            base = sharp if axis == "position" else momentum_distribution(state)
            want = base.mean() + marginal.smearing().mean()
            record(f"marginal-{axis}", abs(law.mean() - want) <= 1e-9,
                   law.atoms, law.weights, spreads)

        tau_law = position_distribution(tau)
        dists = [wasserstein(sharp, tau_law, a) for a in (1.0, 2.0, math.inf)]
        # W_alpha is nondecreasing in the order alpha
        record("wasserstein", dists[0] <= dists[1] * (1.0 + 1e-12)
               and dists[1] <= dists[2] * (1.0 + 1e-12), dists)

        path = os.path.join(scratch, f"measure{k}.csv")
        save_measure_csv(sharp, path)
        back = load_measure_csv(path)
        record("measure-csv", np.array_equal(back.atoms, sharp.atoms)
               and _close(back.weights, sharp.weights))
        wf = state.components[0][1]
        path = os.path.join(scratch, f"wavefunction{k}.csv")
        save_wavefunction_csv(wf, path)
        wf_back = load_wavefunction_csv(path)
        record("wavefunction-csv",
               wf_back.x0 == wf.x0 and wf_back.dx == wf.dx
               and _close(wf_back.amplitudes, wf.amplitudes))

    m1 = gaussian_measure(*inputs["lp_a"], n_atoms=LP_ATOMS)
    m2 = sorted_measure(*inputs["lp_b"])
    for alpha in (1.0, 2.0):
        _, cost = optimal_coupling_lp(m1, m2, alpha)
        record("lp", abs(cost ** (1.0 / alpha)
                         - wasserstein(m1, m2, alpha)) <= 1e-9, [cost])
        value = dual_value(m1, m2, dual_ascent(m1, m2, alpha))
        record("dual", 0.999 * cost - 1e-12 <= value <= cost + 1e-9, [value])
    return {"checks": checks, "ref_err": tv_max, "digest": digest.hexdigest()}
