"""The package's public names and its start-up footprint."""

import json
import subprocess
import sys

import quncert
import quncert.bounds

PUBLIC_NAMES = [
    "AccuracyError", "BoundedRangeMap", "BoundedShiftMap",
    "COVARIANT_GRID", "ConvergenceError", "Coupling", "CovariantMarginal",
    "DEFAULT_GRID", "DEMO_GRID", "DomainError", "DualPair", "GridMeasure",
    "GridSpec", "GridTooSmallError", "InternalError", "Interval", "K",
    "K_tilde", "MixedState", "MomentStats", "Observable", "PhasePoint",
    "PiecewiseLinearMap", "ProbeConfig", "PushforwardObservable",
    "QuncertError", "ResourceError", "Sharp", "SharpMomentum",
    "SharpPosition", "Smeared", "SmearedMomentum", "SmearedPosition",
    "State", "TrivialObservable", "UR_ENSEMBLE_GRID", "VerificationReport",
    "WaveFunction", "WidthEstimate", "alpha_deviation", "bias",
    "bias_free_error", "c_alpha_beta", "c_from_ground_energy",
    "c_transform", "convolve", "covariant_marginals",
    "default_probe_config", "delta1_smeared_closed_form",
    "delta_alpha_smeared_closed_form",
    "demonstrate_sharp_marginal_divergence", "dual_ascent", "dual_value",
    "error_bar_width", "gaussian_measure", "global_noise_error",
    "gross_bias_free_error", "gross_error_bar_width", "ground_energy",
    "ground_state", "joint_covariant_distribution",
    "lipschitz_witness_values", "load_measure_csv",
    "load_wavefunction_csv", "make_box", "make_gaussian", "make_hermite",
    "make_random_localized", "map_from_spec", "measure_from_spec",
    "min_centered_window", "moment_stats", "momentum_distribution",
    "noise_based_error", "observable_distance", "observable_from_spec",
    "observable_to_spec", "optimal_coupling_lp", "overall_width",
    "overall_width_interval", "parity", "point_mass",
    "position_distribution", "pushforward",
    "pushforward_delta1_closed_form", "random_ensemble", "report_to_dict",
    "reports_to_csv", "reports_to_json", "resolution_width", "run_suite",
    "save_coupling_csv", "save_measure_csv", "save_wavefunction_csv",
    "sorted_measure", "state_from_spec", "std_deviation", "tent_function",
    "test_ensemble", "translate", "two_point", "uniform_measure",
    "verify_connections", "verify_covariant_error_ur",
    "verify_covariant_resolution_ur", "verify_metric_ur",
    "verify_noise_ur", "verify_overall_width_ur", "verify_preparation_ur",
    "wasserstein", "wasserstein_inf", "weyl_translate",
]


def test_all_lists_the_public_names_and_each_imports():
    assert sorted(quncert.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from quncert import *", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)


# -- start-up footprint: OpenSSL and logging load where they are used ----------

# the modules each child prints: OpenSSL's binding, loaded by hashlib
_LOADED = ("\nimport json, sys\nprint(json.dumps([m for m in "
           "('_hashlib', 'logging') if m in sys.modules]))")


def _child_modules(code: str) -> list:
    proc = subprocess.run([sys.executable, "-c", code + _LOADED],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_neither_openssl_nor_logging():
    assert _child_modules("import quncert.cli") == []


def test_a_groundstate_run_loads_neither_openssl_nor_logging():
    assert _child_modules(
        "import runpy, sys\n"
        "sys.argv = ['quncert', 'groundstate', '--alpha', '2', '--beta', '2']\n"
        "try:\n"
        "    runpy.run_module('quncert.cli', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code\n") == []


def test_inputs_hash_keeps_its_digest():
    inputs = {"alpha": 2.0, "beta": 1.0, "grid": [-16.0, 0.0625, 512],
              "state": "vacuum"}
    assert quncert.bounds.inputs_hash(inputs) == "2663282bcb86"
