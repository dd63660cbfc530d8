"""Span recorder for traced benchmark passes.

The tracer wraps public entry points of the quncert modules from outside
the package.  A wrapped call records one span (name, start, end, parent,
counters); numpy.fft transforms are counted on the innermost open span.
Spans stay in memory until `layer_metrics` folds them into per-layer
figures.  A layer's self time is the duration of its spans minus the time
covered by their direct child spans.

Entry points are patched wherever a quncert module holds a reference to
them: `bounds` imports `convolve` by name, so wrapping only
`measures.convolve` would miss those calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2",
              "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")

_VERIFY_RELATIONS = ("preparation_ur", "overall_width_ur",
                     "covariant_error_ur", "covariant_resolution_ur",
                     "metric_ur", "noise_ur", "connections")


# -- counters taken at the layer boundaries --------------------------------

def _count_convolve(counters, result, a, b, *_args, **_kwargs):
    counters["atom_pairs"] = len(a) * len(b)
    counters["live_pairs"] = (int(np.count_nonzero(a.weights))
                              * int(np.count_nonzero(b.weights)))
    counters["out_atoms"] = len(result)


def _count_wasserstein(counters, _result, m1, m2, *_args, **_kwargs):
    counters["atoms"] = len(m1) + len(m2)


def _count_lp(counters, _result, m1, m2, *_args, **_kwargs):
    counters["cells"] = len(m1) * len(m2)


def _count_probes(counters, result, *_args, **_kwargs):
    trace = getattr(result, "trace", None)
    if trace is not None:
        counters["probes"] = len(trace)


def _count_saved_bytes(counters, _result, _obj, path, *_args, **_kwargs):
    counters["bytes"] = os.path.getsize(path)


def _count_loaded_bytes(counters, _result, path, *_args, **_kwargs):
    counters["bytes"] = os.path.getsize(path)


# (module, function, span name, counter hook)
TARGETS = (
    ("measures", "convolve", "measures.convolve", _count_convolve),
    ("measures", "overall_width", "measures.spread", None),
    ("measures", "overall_width_interval", "measures.spread", None),
    ("measures", "alpha_deviation", "measures.spread", None),
    ("measures", "std_deviation", "measures.spread", None),
    ("measures", "save_measure_csv", "measures.csv", _count_saved_bytes),
    ("measures", "load_measure_csv", "measures.csv", _count_loaded_bytes),
    ("transport", "wasserstein", "transport.wasserstein", _count_wasserstein),
    ("transport", "optimal_coupling_lp", "transport.optimal_coupling_lp",
     _count_lp),
    ("transport", "dual_ascent", "transport.dual_ascent", None),
    ("states", "ground_state", "states.ground_state", None),
    ("states", "position_distribution", "states.born", None),
    ("states", "momentum_distribution", "states.born", None),
    ("states", "make_gaussian", "states.factories", None),
    ("states", "make_box", "states.factories", None),
    ("states", "make_hermite", "states.factories", None),
    ("states", "make_random_localized", "states.factories", None),
    ("states", "test_ensemble", "states.factories", None),
    ("states", "random_ensemble", "states.factories", None),
    ("states", "state_from_spec", "states.factories", None),
    ("states", "weyl_translate", "states.weyl_translate", None),
    ("states", "save_wavefunction_csv", "states.csv", _count_saved_bytes),
    ("states", "load_wavefunction_csv", "states.csv", _count_loaded_bytes),
    ("observables", "joint_covariant_distribution",
     "observables.joint_covariant_distribution", None),
    ("observables", "covariant_marginals", "observables.covariant_marginals",
     None),
    ("metrics", "error_bar_width", "metrics.probe_sweep", _count_probes),
    ("metrics", "bias_free_error", "metrics.probe_sweep", _count_probes),
    ("metrics", "gross_error_bar_width", "metrics.probe_sweep",
     _count_probes),
    ("metrics", "gross_bias_free_error", "metrics.probe_sweep",
     _count_probes),
    ("metrics", "bias", "metrics.probe_sweep", None),
    ("metrics", "resolution_width", "metrics.probe_sweep", _count_probes),
    ("metrics", "observable_distance", "metrics.observable_distance",
     _count_probes),
    ("bounds", "ground_energy", "bounds.ground_energy", None),
    ("bounds", "reports_to_json", "bounds.render", None),
    ("bounds", "reports_to_csv", "bounds.render", None),
) + tuple(("bounds", f"verify_{rel}", f"bounds.verify.{rel}", None)
          for rel in _VERIFY_RELATIONS)

# Per-layer metrics of a traced pass, with their units.
LAYER_METRICS = (
    ("measures.convolve.calls", "count"),
    ("measures.convolve.self_s", "s"),
    ("measures.convolve.atom_pairs", "count"),
    ("measures.convolve.live_pairs", "count"),
    ("measures.convolve.live_ratio", "1"),
    ("measures.convolve.out_atoms", "count"),
    ("measures.spread.calls", "count"),
    ("measures.spread.self_s", "s"),
    ("measures.csv.self_s", "s"),
    ("measures.csv.bytes", "B"),
    ("transport.wasserstein.calls", "count"),
    ("transport.wasserstein.self_s", "s"),
    ("transport.wasserstein.atoms", "count"),
    ("transport.optimal_coupling_lp.calls", "count"),
    ("transport.optimal_coupling_lp.self_s", "s"),
    ("transport.optimal_coupling_lp.cells", "count"),
    ("transport.dual_ascent.calls", "count"),
    ("transport.dual_ascent.self_s", "s"),
    ("states.ground_state.calls", "count"),
    ("states.ground_state.self_s", "s"),
    ("states.ground_state.fft_calls", "count"),
    ("states.born.calls", "count"),
    ("states.born.self_s", "s"),
    ("states.born.fft_calls", "count"),
    ("states.factories.self_s", "s"),
    ("states.weyl_translate.self_s", "s"),
    ("states.csv.self_s", "s"),
    ("states.csv.bytes", "B"),
    ("observables.distribution.calls", "count"),
    ("observables.distribution.self_s", "s"),
    ("observables.joint_covariant_distribution.calls", "count"),
    ("observables.joint_covariant_distribution.self_s", "s"),
    ("observables.joint_covariant_distribution.fft_calls", "count"),
    ("observables.covariant_marginals.self_s", "s"),
    ("metrics.probe_sweep.calls", "count"),
    ("metrics.probe_sweep.self_s", "s"),
    ("metrics.probes", "count"),
    ("metrics.observable_distance.self_s", "s"),
) + tuple((f"bounds.verify.{rel}.self_s", "s") for rel in _VERIFY_RELATIONS) + (
    ("bounds.ground_energy.calls", "count"),
    ("bounds.ground_energy.solves", "count"),
    ("bounds.ground_energy.hit_ratio", "1"),
    ("bounds.render.self_s", "s"),
    ("cli.self_s", "s"),
)

# Layer metrics that are counts of work: they must repeat exactly between
# two traced passes over the same inputs.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit in ("count", "B"))

_NAME, _START, _END, _PARENT, _COUNTERS = range(5)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_fft = False

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(span[_COUNTERS], result, *args, **kwargs)
        return result

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_fft:
                return fn(*args, **kwargs)
            if self._stack:
                counters = self.spans[self._stack[-1]][_COUNTERS]
                counters["fft_calls"] = counters.get("fft_calls", 0) + 1
            self._in_fft = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_fft = False
        return counted

    def install(self) -> list[str]:
        """Patch every loaded quncert module; return the targets not found."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "quncert" or name.startswith("quncert.")]
        missing = []
        for mod_name, fn_name, span_name, count in TARGETS:
            original = getattr(sys.modules.get(f"quncert.{mod_name}"),
                               fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            traced = self.wrap(original, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
        observables = sys.modules["quncert.observables"]
        for value in list(vars(observables).values()):
            if (isinstance(value, type)
                    and issubclass(value, observables.Observable)
                    and "distribution" in value.__dict__):
                value.distribution = self.wrap(value.__dict__["distribution"],
                                               "observables.distribution")
        for fft_name in _FFT_NAMES:
            setattr(np.fft, fft_name, self._count_fft(getattr(np.fft, fft_name)))
        return missing

    def layer_metrics(self) -> dict[str, float]:
        """Fold the recorded spans into the figures named in LAYER_METRICS."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]

        def has_ancestor(i: int, test) -> bool:
            p = spans[i][_PARENT]
            while p >= 0:
                if test(spans[p]):
                    return True
                p = spans[p][_PARENT]
            return False

        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0) + value

        for i, span in enumerate(spans):
            name, counters = span[_NAME], span[_COUNTERS]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", span[_END] - span[_START] - child_time[i])
            for key, value in counters.items():
                if key == "probes":
                    # a sweep nested in another sweep is part of its trace
                    if not has_ancestor(i, lambda s: "probes" in s[_COUNTERS]):
                        add("metrics.probes", value)
                else:
                    add(f"{name}.{key}", value)
            if name == "states.ground_state" and has_ancestor(
                    i, lambda s: s[_NAME] == "bounds.ground_energy"):
                add("bounds.ground_energy.solves", 1)
        pairs = totals.get("measures.convolve.atom_pairs", 0)
        totals["measures.convolve.live_ratio"] = (
            totals.get("measures.convolve.live_pairs", 0) / pairs
            if pairs else 0.0)
        calls = totals.get("bounds.ground_energy.calls", 0)
        totals["bounds.ground_energy.hit_ratio"] = (
            1.0 - totals.get("bounds.ground_energy.solves", 0) / calls
            if calls else 0.0)
        return {name: totals.get(name, 0) for name, _ in LAYER_METRICS}
