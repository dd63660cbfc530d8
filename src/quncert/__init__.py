"""Toolkit for quantitative measurement-uncertainty analysis on the line.

Layers, bottom up: finitely supported measures and their spread functionals
(`measures`), transport metrics between them (`transport`), grid wave
functions and phase-space translations (`states`), measurement statistics
(`observables`), operational error metrics (`metrics`), and bound
verification (`bounds`).  `cli` exposes the whole stack as a batch tool.
"""

from .bounds import (DEMO_GRID, K, K_tilde, VerificationReport, c_alpha_beta,
                     c_from_ground_energy,
                     demonstrate_sharp_marginal_divergence, ground_energy,
                     report_to_dict, reports_to_csv, reports_to_json,
                     run_suite, verify_connections, verify_covariant_error_ur,
                     verify_covariant_resolution_ur, verify_metric_ur,
                     verify_noise_ur, verify_overall_width_ur,
                     verify_preparation_ur)
from .exceptions import (AccuracyError, ConvergenceError, DomainError,
                         GridTooSmallError, InternalError, QuncertError,
                         ResourceError)
from .measures import (BoundedRangeMap, BoundedShiftMap, GridMeasure,
                       Interval, PiecewiseLinearMap, alpha_deviation,
                       convolve, gaussian_measure, load_measure_csv,
                       measure_from_spec, overall_width,
                       overall_width_interval, point_mass, pushforward,
                       save_measure_csv, sorted_measure, std_deviation,
                       translate, two_point, uniform_measure)
from .metrics import (ProbeConfig, WidthEstimate, bias, bias_free_error,
                      default_probe_config, delta1_smeared_closed_form,
                      delta_alpha_smeared_closed_form, error_bar_width,
                      global_noise_error, gross_bias_free_error,
                      gross_error_bar_width, min_centered_window,
                      noise_based_error, observable_distance,
                      pushforward_delta1_closed_form, resolution_width)
from .observables import (CovariantMarginal, MomentStats, Observable,
                          PushforwardObservable, Sharp, SharpMomentum,
                          SharpPosition, Smeared, SmearedMomentum,
                          SmearedPosition, TrivialObservable,
                          covariant_marginals, joint_covariant_distribution,
                          map_from_spec, moment_stats, observable_from_spec,
                          observable_to_spec)
from .states import (COVARIANT_GRID, DEFAULT_GRID, UR_ENSEMBLE_GRID, GridSpec,
                     MixedState, PhasePoint, State, WaveFunction, ground_state,
                     load_wavefunction_csv, make_box, make_gaussian,
                     make_hermite, make_random_localized,
                     momentum_distribution, parity, position_distribution,
                     random_ensemble, save_wavefunction_csv, state_from_spec,
                     test_ensemble, weyl_translate)
from .transport import (Coupling, DualPair, c_transform, dual_ascent,
                        dual_value, lipschitz_witness_values,
                        optimal_coupling_lp, save_coupling_csv, tent_function,
                        wasserstein, wasserstein_inf)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BoundedRangeMap", "BoundedShiftMap", "COVARIANT_GRID",
    "ConvergenceError", "CovariantMarginal", "DEFAULT_GRID", "DEMO_GRID",
    "DomainError", "GridMeasure", "GridSpec", "GridTooSmallError",
    "InternalError", "Interval", "K", "K_tilde", "MixedState", "MomentStats",
    "Observable", "PhasePoint", "PiecewiseLinearMap", "ProbeConfig",
    "PushforwardObservable", "QuncertError", "ResourceError", "Sharp",
    "SharpMomentum", "SharpPosition", "Smeared", "SmearedMomentum",
    "SmearedPosition", "State",
    "TrivialObservable", "UR_ENSEMBLE_GRID", "VerificationReport",
    "WaveFunction", "WidthEstimate", "alpha_deviation", "bias",
    "bias_free_error", "c_alpha_beta", "c_from_ground_energy", "convolve",
    "covariant_marginals", "default_probe_config",
    "delta1_smeared_closed_form", "delta_alpha_smeared_closed_form",
    "demonstrate_sharp_marginal_divergence", "error_bar_width",
    "gaussian_measure", "global_noise_error", "gross_bias_free_error",
    "gross_error_bar_width", "ground_energy", "ground_state",
    "joint_covariant_distribution", "lipschitz_witness_values",
    "load_measure_csv", "load_wavefunction_csv", "make_box", "make_gaussian",
    "make_hermite", "make_random_localized", "map_from_spec",
    "measure_from_spec", "min_centered_window", "moment_stats",
    "momentum_distribution", "noise_based_error", "observable_distance",
    "observable_from_spec", "observable_to_spec", "overall_width",
    "overall_width_interval", "parity", "point_mass", "position_distribution",
    "pushforward", "pushforward_delta1_closed_form", "random_ensemble",
    "report_to_dict", "reports_to_csv", "reports_to_json",
    "resolution_width", "run_suite", "save_measure_csv",
    "save_wavefunction_csv", "sorted_measure", "state_from_spec",
    "std_deviation", "tent_function", "test_ensemble", "translate",
    "two_point", "uniform_measure", "verify_connections",
    "verify_covariant_error_ur", "verify_covariant_resolution_ur",
    "verify_metric_ur", "verify_noise_ur", "verify_overall_width_ur",
    "verify_preparation_ur", "wasserstein", "wasserstein_inf",
    "weyl_translate", "Coupling", "DualPair", "c_transform", "dual_ascent",
    "dual_value", "optimal_coupling_lp", "save_coupling_csv",
]
