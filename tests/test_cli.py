"""Command-line front-end: outputs, overrides, determinism, exit codes."""

import glob
import json
import math
import os
import subprocess
import sys

import pytest

from quncert import bounds
from quncert.cli import main
from quncert.measures import (load_measure_csv, point_mass, save_measure_csv,
                              two_point)
from quncert.transport import wasserstein

GRID_FLAG = "--grid=-16.0,0.0625,512"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("QUNCERT_GRID", "QUNCERT_HBAR", "QUNCERT_SEED"):
        monkeypatch.delenv(var, raising=False)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestGroundstate:
    def test_quadratic_pair_constants(self, capsys):
        payload = _run_json(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2"])
        assert abs(payload["ground_energy"] - 1.0) < 1e-6
        assert abs(payload["c_constant"] - 0.5) < 1e-6

    def test_number_equals_library_value(self, capsys):
        payload = _run_json(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2"])
        g = bounds.ground_energy(2.0, 2.0)
        assert payload["ground_energy"] == g
        assert payload["c_constant"] == bounds.c_from_ground_energy(2.0, 2.0, g)

    def test_cramped_grid_exit_code(self, capsys):
        code, _, err = _run(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2",
                                     "--grid=-4.0,0.0625,128"])
        assert code == 5
        assert "GridTooSmallError" in err

    def test_unreachable_tolerance_exit_code(self, capsys):
        code, _, err = _run(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2", "--tol", "1e-15"])
        assert code == 4
        assert "ConvergenceError" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [
        ["--alpha", "nan", "--beta", "2"],
        ["--alpha", "inf", "--beta", "2"],
        ["--alpha", "2", "--beta", "2", "--tol", "nan"],
        ["--alpha", "2", "--beta", "2", "--boundary-tol", "nan"],
    ])
    def test_bad_exponent_or_tolerance_exits_2(self, capsys, flags):
        code, _, err = _run(capsys, ["groundstate", *flags])
        assert code == 2, err
        assert "DomainError" in err and "Warning" not in err

    def test_quartic_kink_constant_matches_swapped_pair(self, capsys):
        swapped = _run_json(capsys, ["groundstate", "--alpha", "4",
                                     "--beta", "1"])
        direct = _run_json(capsys, ["groundstate", "--alpha", "1",
                                    "--beta", "4",
                                    "--grid=-24,0.046875,1024"])
        assert abs(swapped["c_constant"] - direct["c_constant"]) <= 5e-4


class TestMeasureAndTransport:
    def test_measure_summary(self, capsys):
        payload = _run_json(capsys, [
            "measure", '{"family": "gaussian", "sigma": 1.0}',
            "--alpha", "2", "--eps", "0.05"])
        assert payload["n_atoms"] == 801
        assert payload["std"] == pytest.approx(1.0, abs=1e-6)
        assert payload["overall_width"] == pytest.approx(3.92, abs=0.03)

    def test_self_distance_zero(self, capsys, tmp_path):
        path = str(tmp_path / "a.csv")
        save_measure_csv(two_point(-0.5, 1.5, 0.3), path)
        payload = _run_json(capsys, ["wasserstein", "--alpha", "1",
                                     path, path])
        assert payload["distance"] == 0.0

    def test_orders_and_library_agreement(self, capsys):
        first = '{"family": "point", "at": 0.0}'
        second = '{"family": "point", "at": 1.5}'
        for alpha in ("1", "2", "inf"):
            payload = _run_json(capsys, ["wasserstein", "--alpha", alpha,
                                         first, second])
            assert payload["distance"] == pytest.approx(1.5, abs=1e-12)
        payload = _run_json(capsys, [
            "wasserstein", "--alpha", "2",
            '{"family": "two_point", "x1": -0.5, "x2": 1.5, "w1": 0.3}',
            '{"family": "point", "at": 0.0}'])
        assert payload["distance"] == wasserstein(
            two_point(-0.5, 1.5, 0.3), point_mass(0.0), 2.0)

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = _run(capsys, ["wasserstein", "missing.csv",
                                     "missing.csv"])
        assert code == 2
        assert "DomainError" in err


class TestStateCommand:
    def test_summary_and_artifacts(self, capsys, tmp_path):
        qpath = str(tmp_path / "q.csv")
        ppath = str(tmp_path / "p.csv")
        payload = _run_json(capsys, [
            "state", '{"family": "gaussian", "sigma": 1.0}',
            GRID_FLAG,
            "--save-position", qpath, "--save-momentum", ppath])
        assert payload["grid"] == [-16.0, 0.0625, 512]
        assert payload["position"]["std"] == pytest.approx(1.0, abs=1e-6)
        assert payload["momentum"]["std"] == pytest.approx(0.5, abs=1e-6)
        assert len(load_measure_csv(qpath)) == 512
        assert len(load_measure_csv(ppath)) == 512

    def test_env_grid_and_flag_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("QUNCERT_GRID", "-8.0,0.0625,256")
        payload = _run_json(capsys,
                            ["state", '{"family": "gaussian", "sigma": 1.0}'])
        assert payload["grid"] == [-8.0, 0.0625, 256]
        payload = _run_json(capsys,
                            ["state", '{"family": "gaussian", "sigma": 1.0}',
                             GRID_FLAG])
        assert payload["grid"] == [-16.0, 0.0625, 512]

    def test_env_hbar(self, capsys, monkeypatch):
        monkeypatch.setenv("QUNCERT_HBAR", "2.0")
        payload = _run_json(capsys,
                            ["state", '{"family": "gaussian", "sigma": 1.0}',
                             GRID_FLAG])
        assert payload["hbar"] == 2.0
        assert payload["momentum"]["std"] == pytest.approx(1.0, abs=1e-6)


class TestSeedAndDeterminism:
    METRIC_ARGS = ["metric", "distance", "--observable",
                   '{"kind": "smeared_position",'
                   ' "measure": {"family": "point", "at": 0.8}}',
                   "--alpha", "1", GRID_FLAG]

    def _run_ok(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        return out

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        out_flag = self._run_ok(capsys, self.METRIC_ARGS + ["--seed", "7"])
        monkeypatch.setenv("QUNCERT_SEED", "3")
        out_both = self._run_ok(capsys, self.METRIC_ARGS + ["--seed", "7"])
        assert out_both == out_flag

    def test_env_seed_equals_flag_seed(self, capsys, monkeypatch):
        out_flag = self._run_ok(capsys, self.METRIC_ARGS + ["--seed", "7"])
        monkeypatch.setenv("QUNCERT_SEED", "7")
        out_env = self._run_ok(capsys, self.METRIC_ARGS)
        assert out_env == out_flag
        payload = json.loads(out_flag)
        assert payload["estimate"]["value"] == pytest.approx(0.8, abs=0.0625)

    def test_same_command_twice_identical(self, capsys):
        first = self._run_ok(capsys, self.METRIC_ARGS)
        second = self._run_ok(capsys, self.METRIC_ARGS)
        assert first == second
        assert first != ""

    def test_suite_twice_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "quncert.cli", "verify",
               "--suite", "all", "--seed", "7"]
        runs = [subprocess.run(cmd, capture_output=True, text=True,
                               check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        rows = json.loads(runs[0].stdout)
        assert len(rows) == 68
        assert all(row["passed"] for row in rows)


class TestOutputPlumbing:
    def test_out_file_matches_stdout_and_is_atomic(self, capsys, tmp_path):
        argv = ["groundstate", "--alpha", "2", "--beta", "2"]
        _, stdout_text, _ = _run(capsys, argv)
        target = str(tmp_path / "report.json")
        code, out, _ = _run(capsys, argv + ["--out", target])
        assert code == 0
        assert out == ""  # everything goes to the file
        with open(target) as fh:
            assert fh.read() == stdout_text
        assert glob.glob(str(tmp_path / ".quncert-*")) == []

    def test_csv_key_value_view(self, capsys):
        code, out, _ = _run(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"alpha", "beta", "ground_energy", "c_constant"} <= keys

    def test_csv_report_view(self, capsys):
        code, out, _ = _run(capsys, [
            "verify", "--relation", "noise",
            "--tau", '{"family": "gaussian", "sigma": %r}' % math.sqrt(0.5)])
        assert code == 0
        report = json.loads(out)[0]
        assert report["passed"]
        assert abs(report["slack"]) <= 1e-5
        code, out, _ = _run(capsys, [
            "verify", "--relation", "noise", "--format", "csv",
            "--tau", '{"family": "gaussian", "sigma": %r}' % math.sqrt(0.5)])
        assert code == 0
        assert out.splitlines()[0].startswith("relation,lhs,rhs,slack,passed")


class TestErrorReporting:
    def test_bad_confidence_split_is_domain_error(self, capsys):
        code, _, err = _run(capsys, ["verify", "--relation", "overall-width",
                                     "--eps", "0.6", "--eps2", "0.4"])
        assert code == 2
        assert "DomainError" in err

    def test_verify_needs_suite_or_relation(self, capsys):
        code, _, err = _run(capsys, ["verify"])
        assert code == 2
        assert "DomainError" in err

    def test_malformed_grid_is_domain_error(self, capsys):
        code, _, err = _run(capsys, ["state",
                                     '{"family": "gaussian", "sigma": 1.0}',
                                     "--grid", "0.5,64"])
        assert code == 2
        assert "DomainError" in err

    def test_stray_spec_key_is_domain_error(self, capsys):
        code, _, err = _run(capsys, [
            "measure",
            '{"family": "two_point", "x1": -0.5, "x2": 1.5, "p": 0.3}'])
        assert code == 2
        assert "DomainError" in err and "unrecognized keys" in err

    def test_mixture_with_non_dict_component_is_domain_error(self):
        cmd = [sys.executable, "-m", "quncert.cli", "state",
               '{"family": "mixture", "components": [1]}']
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        assert "DomainError" in run.stderr
        assert "Traceback" not in run.stderr

    def test_gaussian_narrower_than_grid_step_exit_code(self, capsys):
        code, _, err = _run(capsys, [
            "state", '{"family": "gaussian", "center": 0.31, "sigma": 1e-4}'])
        assert code == 5
        assert "GridTooSmallError" in err and "dx" in err

    def test_gaussian_wider_than_grid_exit_code(self):
        cmd = [sys.executable, "-m", "quncert.cli", "state",
               '{"family": "gaussian", "sigma": 1e200}']
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert run.returncode == 5
        assert "GridTooSmallError" in run.stderr and "span" in run.stderr
        assert "Traceback" not in run.stderr


class TestOffCentreGrid:
    """Default probe centres sit around the lattice midpoint, so a valid
    grid that does not straddle 0 gives the widths of the symmetric one."""

    OFF_GRID_FLAG = "--grid=0,0.0625,512"
    POINT = '{"kind": "smeared_position", "measure": {"family": "point", "at": 0.5}}'
    # the pushforward hides the smearing, so resolution takes the probe path
    PROBED = '{"kind": "pushforward", "inner": %s, "map": {"kind": "identity"}}' % POINT

    @pytest.mark.parametrize("functional", ["error-bar", "resolution"])
    @pytest.mark.parametrize("observable", [POINT, PROBED],
                             ids=["smeared", "pushforward"])
    def test_width_matches_symmetric_grid(self, capsys, functional,
                                          observable):
        argv = ["metric", functional, "--observable", observable]
        off = _run_json(capsys, argv + [self.OFF_GRID_FLAG])["estimate"]
        sym = _run_json(capsys, argv + [GRID_FLAG])["estimate"]
        assert off["value"] == pytest.approx(sym["value"], rel=1e-9)

    def test_connections_verdicts_match_symmetric_grid(self, capsys):
        argv = ["verify", "--relation", "connections"]
        off = _run_json(capsys, argv + [self.OFF_GRID_FLAG])
        sym = _run_json(capsys, argv + [GRID_FLAG])
        assert [r["verdict"] for r in off] == [r["verdict"] for r in sym]
        assert [r["relation"] for r in off] == [r["relation"] for r in sym]
        assert all(r["inputs"]["grid"] == [0.0, 0.0625, 512] for r in off)


class TestEnvGrid:
    def test_demo_echoes_env_grid(self, capsys, monkeypatch):
        monkeypatch.setenv("QUNCERT_GRID", "-16.0,0.0625,512")
        payload = _run_json(capsys, ["demo"])
        assert payload["grid"] == [-16.0, 0.0625, 512]

    def test_groundstate_cramped_env_grid_exit_code(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("QUNCERT_GRID", "-4.0,0.0625,128")
        code, _, err = _run(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2"])
        assert code == 5
        assert "GridTooSmallError" in err


class TestSizeCaps:
    # every size here is rejected while the spec or grid is parsed, before
    # any array is built
    def test_grid_above_cap_exit_code(self, capsys):
        code, _, err = _run(capsys, ["state",
                                     '{"family": "gaussian", "sigma": 1.0}',
                                     "--grid=-1.0,1e-6,2097152"])
        assert code == 3
        assert "ResourceError" in err

    @pytest.mark.parametrize("spec", [
        '{"family": "uniform", "lo": 0.0, "hi": 1.0, "n_atoms": 4000001}',
        '{"family": "gaussian", "sigma": 1.0, "n_atoms": 4000001}'])
    def test_n_atoms_above_cap_exit_code(self, capsys, spec):
        code, _, err = _run(capsys, ["measure", spec])
        assert code == 3
        assert "ResourceError" in err


class TestDemoCommand:
    def test_demo_trace(self, capsys):
        payload = _run_json(capsys, ["demo", "--eps2", "0.1"])
        assert payload["confidence_threshold"] == pytest.approx(0.9)
        masses = [row["captured"]["4"] for row in payload["sweep"]]
        assert masses[0] > masses[-1]
        assert masses[-1] < 1e-6


class TestOffCentreEnsembles:
    """The test ensembles sit around the grid midpoint, so distance and
    noise on a grid that does not straddle 0 match the symmetric grid."""

    @pytest.mark.parametrize("functional", ["distance", "noise"])
    def test_ensemble_functionals_match_symmetric_grid(self, capsys,
                                                       functional):
        argv = ["metric", functional, "--observable", TestOffCentreGrid.POINT]
        off = _run_json(capsys, argv + [TestOffCentreGrid.OFF_GRID_FLAG])
        sym = _run_json(capsys, argv + [GRID_FLAG])
        assert off["estimate"]["value"] == pytest.approx(
            sym["estimate"]["value"], rel=1e-9)


class TestExtremeInputs:
    """Each input ends in its documented exit class, without a traceback or
    a RuntimeWarning (tier-1 turns RuntimeWarnings into errors)."""

    @pytest.mark.parametrize("argv,code", [
        (["state", '{"family": "hermite", "n": 400}'], 5),
        (["state", '{"family": "hermite", "n": 1%s}' % ("0" * 400)], 5),
        (["state", '{"family": "gaussian"}', "--hbar", "inf"], 2),
        (["measure", '{"family": "two_point", "x1": 0, "x2": 2}',
          "--alpha", "1e300"], 2),
        (["measure", '{"family": "two_point", "x1": -1e308, "x2": 1e308}'], 2),
        (["measure", '{"atoms": [0, 1], "weights": [1e308, 1e308]}'], 2),
        (["wasserstein", '{"family": "point", "at": -1e308}',
          '{"family": "point", "at": 1e308}'], 2),
    ])
    def test_exit_class(self, capsys, argv, code):
        got, _, err = _run(capsys, argv)
        assert got == code, err

    def test_far_two_point_returns(self, capsys):
        payload = _run_json(capsys, [
            "measure", '{"family": "two_point", "x1": 0, "x2": 2e6}'])
        assert payload["alpha_deviation"] == pytest.approx(1e6, rel=1e-12)

    def test_wide_measures_report_finite_spreads(self):
        # the uniform one ended in an OverflowError traceback, the two-point
        # one printed a silent "inf"
        for spec, std in [
                ('{"family": "uniform", "lo": 0, "hi": 1e308, "n_atoms": 3}',
                 0.5e308 * math.sqrt(2.0 / 3.0)),
                ('{"family": "two_point", "x1": -1e200, "x2": 1e200}', 1e200)]:
            run = subprocess.run([sys.executable, "-m", "quncert.cli",
                                  "measure", spec],
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            assert run.stderr == ""
            assert json.loads(run.stdout)["std"] == pytest.approx(std, rel=1e-12)
