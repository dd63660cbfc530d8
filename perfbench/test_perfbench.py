"""Checks of the benchmark itself: tracing changes no result, traffic counts
repeat exactly, self time excludes child spans, and BENCHMARK.json names
what the run reports.

    python3 -m pytest perfbench/test_perfbench.py

Takes about a minute: it runs the cold verification suite three times.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import LAYER_METRICS, Tracer

REPEATED_COUNTS = ("measures.convolve.calls", "measures.convolve.atom_pairs",
                   "measures.convolve.live_pairs",
                   "states.ground_state.fft_calls", "metrics.probes",
                   "transport.optimal_coupling_lp.cells")


@pytest.fixture(scope="module")
def suite_passes(tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("suite"))
    plain = run.suite_pass(0, False, scratch)
    traced = [run.suite_pass(0, True, scratch) for _ in range(2)]
    return plain, traced


@pytest.fixture(scope="module")
def phase_space_passes(tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("phase"))
    return [run.phase_space_pass(0, True, scratch) for _ in range(2)]


def test_traced_suite_verdicts_are_byte_identical(suite_passes):
    plain, traced = suite_passes
    assert plain.attempted == run.SUITE_REPORTS and plain.failed == 0
    assert plain.output
    for p in traced:
        assert p.failed == 0
        assert p.output == plain.output


def test_traffic_counts_repeat_exactly(suite_passes, phase_space_passes):
    _, suite = suite_passes
    for name in REPEATED_COUNTS:
        assert (suite[0].layers[name] + phase_space_passes[0].layers[name]) > 0
        assert suite[0].layers[name] == suite[1].layers[name], name
        assert phase_space_passes[0].layers[name] \
            == phase_space_passes[1].layers[name], name


def test_every_layer_metric_is_reported(suite_passes):
    _, traced = suite_passes
    assert set(traced[0].layers) == {name for name, _ in LAYER_METRICS}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(LAYER_METRICS) + [("trace.overhead_ratio", "1")]
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(run.WORKLOADS)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["cli", 0.0, 10.0, -1, {}],
                    ["measures.convolve", 2.0, 5.0, 0, {"atom_pairs": 8,
                                                        "live_pairs": 2}],
                    ["states.born", 3.0, 4.0, 1, {"fft_calls": 1}]]
    layers = tracer.layer_metrics()
    assert layers["cli.self_s"] == 7.0
    assert layers["measures.convolve.self_s"] == 2.0
    assert layers["states.born.self_s"] == 1.0
    assert layers["states.born.fft_calls"] == 1
    assert layers["measures.convolve.live_ratio"] == 0.25


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
