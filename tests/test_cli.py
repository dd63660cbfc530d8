"""Command-line front-end: outputs, overrides, determinism, exit codes."""

import glob
import json
import math
import os
import re
import subprocess
import sys

import pytest

from quncert import bounds
from quncert import cli
from quncert import metrics
from quncert.cli import main
from quncert.measures import (load_measure_csv, point_mass, save_measure_csv,
                              two_point)
from quncert.transport import wasserstein
from quncert.measures import overall_width
from quncert.metrics import WidthEstimate
from quncert.observables import Sharp, observable_from_spec
from quncert.states import GridSpec

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


class TestMetricPayloads:
    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_bias_free_reports_the_library_estimate(self, capsys, delta):
        # with --delta the probe-width error, without it the gross one
        spec = {"kind": "smeared_position",
                "measure": {"family": "two_point", "x1": -0.25, "x2": 0.5}}
        argv = ["metric", "bias-free", "--observable", json.dumps(spec),
                GRID_FLAG, "--eps", "0.1", "--seed", "2"]
        payload = _run_json(capsys, argv + ([] if delta is None
                                            else ["--delta", str(delta)]))
        grid = GridSpec(-16.0, 0.0625, 512)
        obs = observable_from_spec(spec, grid)
        cfg = metrics.default_probe_config(grid, 0.1, delta=delta, seed=2)
        est = (metrics.gross_bias_free_error if delta is None
               else metrics.bias_free_error)(obs, Sharp("position"), cfg, grid)
        assert payload == json.loads(bounds.to_json(
            {"functional": "bias-free", "eps": 0.1, "delta": delta,
             "estimate": est}))


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

    def test_out_naming_a_directory_exits_2_and_leaves_no_file(self, capsys,
                                                                tmp_path):
        code, out, err = _run(capsys, ["groundstate", "--alpha", "2",
                                       "--beta", "2", "--out", str(tmp_path)])
        assert code == 2 and out == ""
        assert err.startswith("IsADirectoryError")
        assert os.listdir(tmp_path) == []

    def test_json_argument_from_a_file(self, capsys, tmp_path):
        spec = '{"family": "gaussian", "mean": 0.0, "sigma": 1.0}'
        path = tmp_path / "spec.json"
        path.write_text(spec)
        inline = _run(capsys, ["measure", spec])
        assert inline[0] == 0
        assert _run(capsys, ["measure", f"@{path}"]) == inline

    def test_csv_key_value_view(self, capsys):
        code, out, _ = _run(capsys, ["groundstate", "--alpha", "2",
                                     "--beta", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"alpha", "beta", "ground_energy", "c_constant"} <= keys

    def test_state_csv_view_writes_a_row_per_list_entry(self, capsys):
        argv = ["state", '{"family": "gaussian", "sigma": 0.5}', GRID_FLAG,
                "--hbar", "2"]
        payload = _run_json(capsys, argv)
        code, out, _ = _run(capsys, argv + ["--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert len(rows) == len(lines) - 1
        assert [rows.pop(f"grid[{i}]") for i in range(3)] == \
            ["-16.0", "0.0625", "512"] == [str(v) for v in payload.pop("grid")]
        for law in ("position", "momentum"):
            for key, value in payload.pop(law).items():
                assert rows.pop(f"{law}.{key}") == repr(value)
        assert rows == {key: str(value) for key, value in payload.items()}

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
          "--alpha", "1e300"], 0),
        (["measure", '{"family": "two_point", "x1": -1e308, "x2": 1e308}'], 2),
        (["measure", '{"atoms": [0, 1], "weights": [1e308, 1e308]}'], 2),
        (["wasserstein", '{"family": "point", "at": -1e308}',
          '{"family": "point", "at": 1e308}'], 2),
    ])
    def test_exit_class(self, capsys, argv, code):
        got, _, err = _run(capsys, argv)
        assert got == code, err

    def test_a_subnormal_weight_keeps_its_alpha_deviation(self, capsys):
        # the plain sums underflow at every order; log space keeps them
        spec = '{"atoms": [0, 1], "weights": [1, 5e-324]}'
        for alpha, want in (("1", 5e-324), ("2", math.sqrt(5e-324)),
                            ("600", 0.22450734958462756)):
            payload = _run_json(capsys, ["measure", spec, "--alpha", alpha])
            assert payload["alpha_deviation"] == pytest.approx(
                want, rel=1e-13, abs=0.0)

    def test_noise_of_a_far_smearing_is_its_root_second_moment(self, capsys):
        # the outcome's second moment overflows; the error, the root second
        # moment of the smearing for every state, does not
        est = _run_json(capsys, ["metric", "noise", "--observable",
                                 self.far_smearing(1e160)])["estimate"]
        assert est["value"] == pytest.approx(1e160, rel=1e-12, abs=0.0)
        assert est["witness"] == ["ensemble", 0]
        assert all(row["error"] == pytest.approx(1e160, rel=1e-12, abs=0.0)
                   for row in est["trace"])

    @pytest.mark.parametrize("argv", [
        ["verify", "--relation", "connections"],
        ["metric", "error-bar", "--delta", "0.0625"]])
    def test_a_far_smearing_names_the_spacing_it_wipes_out(self, capsys,
                                                           argv):
        # the shifted Born law once merged its atoms and the message read
        # "atoms must be strictly increasing"
        code, out, err = _run(capsys, [*argv, "--observable",
                                       self.far_smearing(1e150)])
        assert code == 2 and out == ""
        assert err == ("DomainError: shift 1e+150 wipes out the atom "
                       "spacing 0.015625\n")

    @staticmethod
    def far_smearing(at):
        return json.dumps({"kind": "smeared_position",
                           "measure": {"family": "point", "at": at}})

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


@pytest.mark.parametrize("flag", [["--hbar", "5"], ["--seed", "3"]])
def test_groundstate_rejects_flags_it_does_not_read(capsys, flag):
    # the solver takes neither; hbar = 5 used to print the hbar = 1 result
    with pytest.raises(SystemExit) as exc:
        main(["groundstate", "--alpha", "2", "--beta", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [GRID_FLAG, "--hbar=2"])
@pytest.mark.parametrize("argv", [
    ["measure", '{"family": "point", "at": 0.5}'],
    ["wasserstein", '{"family": "point", "at": 0.5}',
     '{"family": "point", "at": 1.0}']], ids=["measure", "wasserstein"])
def test_measure_and_wasserstein_reject_flags_they_do_not_read(capsys, argv,
                                                               flag):
    # neither reads a grid or an action scale; both used to accept them
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag,env", [(GRID_FLAG, None), ("--grid=x", None),
                                      (None, "-16.0,0.0625,512")],
                         ids=["flag", "malformed-flag", "env"])
def test_suite_rejects_a_grid(capsys, monkeypatch, flag, env):
    # the suite runs on its named grids; a given grid used to be ignored
    if env is not None:
        monkeypatch.setenv("QUNCERT_GRID", env)
    code, out, err = _run(capsys, ["verify", "--suite", "all",
                                   *([flag] if flag else [])])
    assert code == 2
    assert out == ""
    assert "DomainError" in err and "grid" in err


@pytest.mark.parametrize("axis", ["position", "momentum"])
def test_connections_build_the_observable_on_the_probe_grid(capsys,
                                                            monkeypatch,
                                                            axis):
    # with no --grid the probes run on DEFAULT_GRID, and so must the
    # observable; the probe sweep is replaced by the overall width of the
    # smearing so the check stays fast, and both it and the distance bound
    # read the smearing built from the spec
    calls = []

    def sweep(obs, target, cfg, grid, hbar):
        calls.append(cfg.eps)
        return WidthEstimate(overall_width(obs.smearing(hbar), cfg.eps), True)

    monkeypatch.setattr(bounds, "error_bar_width", sweep)
    spec = json.dumps({"kind": "covariant_marginal", "axis": axis,
                       "tau": {"family": "gaussian", "sigma": 1.0}})
    argv = ["verify", "--relation", "connections", "--observable", spec]
    default = _run(capsys, argv)
    # one stubbed sweep per eps: a stub on a name that bounds no longer
    # calls would leave the real sweep running unnoticed
    assert calls == [0.05, 0.1, 0.25]
    explicit = _run(capsys, argv + ["--grid=-16,0.015625,2048"])
    assert calls == [0.05, 0.1, 0.25] * 2
    assert default[0] == 0, default[2]
    assert default == explicit


def test_momentum_covariant_widths_are_lattice_multiples(capsys):
    # the covariant margin lives on the momentum lattice of step dp, so
    # every error-bar width is a whole number of steps; binning at the
    # minimum atom spacing drifted by up to 2e-11 relative
    spec = json.dumps({"kind": "covariant_marginal", "axis": "momentum",
                       "tau": {"family": "gaussian", "sigma": 1.0}})
    estimate = _run_json(capsys, ["metric", "error-bar", "--observable",
                                  spec])["estimate"]
    dp = 2.0 * math.pi / 32.0
    widths = [row["width"] for row in estimate["trace"]] + [estimate["value"]]
    assert len(widths) >= 2
    for width in widths:
        cells = width / dp
        assert cells >= 1.0
        assert abs(cells - round(cells)) <= 1e-12 * cells


# -- the flags each mode of `metric` and `verify` reads -----------------------

SPEC = '{"kind": "sharp_position"}'
# a well-formed value for every flag of `metric` and `verify`
FLAG_VALUES = {"observable": SPEC, "target": SPEC,
               "state": '{"family": "gaussian", "sigma": 1.0}',
               "tau": '{"family": "gaussian", "sigma": 1.0}',
               "alpha": "2", "beta": "2", "eps": "0.1", "eps2": "0.1",
               "delta": "0.5", "grid": "-16,0.0625,512", "hbar": "1",
               "seed": "3"}
MODES = {**{("metric", mode): ["metric", mode, f"--observable={SPEC}"]
            for mode in cli._METRIC_MODES},
         **{("verify", mode): ["verify", "--suite", "all"] if mode == "all"
            else ["verify", "--relation", mode] for mode in cli._VERIFY_MODES}}


def _reads(command, mode):
    return set(cli._METRIC_MODES[mode] if command == "metric"
               else cli._VERIFY_MODES[mode][0])


def _unread():
    """(command, mode, flag) for every flag of the subcommand that the
    mode's row omits."""
    flags = {command: set().union(*(_reads(c, m) for c, m in MODES
                                     if c == command))
             for command in ("metric", "verify")}
    return [(command, mode, flag) for command, mode in MODES
            for flag in sorted(flags[command] - _reads(command, mode))]


@pytest.mark.parametrize("command,mode,flag", _unread())
def test_a_flag_the_mode_does_not_read_is_rejected(capsys, monkeypatch,
                                                   command, mode, flag):
    # rejected while parsing: the handler, which computes, never runs
    def never(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, f"_cmd_{command}", never)
    with pytest.raises(SystemExit) as exc:
        main([*MODES[command, mode], f"--{flag}={FLAG_VALUES[flag]}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"unrecognized arguments: --{flag}\n")


def test_every_unread_pair_is_covered():
    # 12 pairs of metric and 45 of verify; the suite reads --grid to reject it
    pairs = _unread()
    assert sum(c == "metric" for c, _, _ in pairs) == 12
    assert sum(c == "verify" for c, _, _ in pairs) == 45


@pytest.mark.parametrize("command,mode", list(MODES))
def test_mode_help_lists_the_flags_it_reads(capsys, command, mode):
    with pytest.raises(SystemExit) as exc:
        main([*MODES[command, mode][:3], "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"^  --([a-z0-9-]+)", out, re.MULTILINE))
    row = re.search(rf"^  {mode}: (.*)$", out, re.MULTILINE).group(1)
    assert set(re.findall(r"--([a-z0-9-]+)", row)) == _reads(command, mode)
    assert _reads(command, mode) <= listed


@pytest.mark.parametrize("command", ["metric", "verify"])
def test_help_without_a_mode_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  --([a-z0-9-]+)", capsys.readouterr().out,
                            re.MULTILINE))
    assert set().union(*(_reads(c, m) for c, m in MODES if c == command)) \
        <= listed


@pytest.mark.parametrize("first,second", [
    (["metric", "--observable", SPEC, "resolution", "--grid=-8,0.0625,256"],
     ["metric", "resolution", "--observable", SPEC, "--grid=-8,0.0625,256"]),
    (["verify", "--tau", FLAG_VALUES["tau"], "--grid=-8,0.0625,256",
      "--relation", "noise"],
     ["verify", "--relation", "noise", "--tau", FLAG_VALUES["tau"],
      "--grid=-8,0.0625,256"]),
], ids=["metric", "verify"])
def test_flags_may_come_before_the_mode(capsys, first, second):
    # a flag's value given as its own argument is never taken for the mode
    plain = _run(capsys, second)
    assert plain[0] == 0
    assert _run(capsys, first) == plain


def test_suite_and_relation_exclude_each_other(capsys):
    # both used to be accepted, and the suite ran with --relation ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--relation", "noise"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_a_mode_without_seed_ignores_the_seed_variable(capsys, monkeypatch):
    argv = ["verify", "--relation", "noise"]
    plain = _run(capsys, argv)
    monkeypatch.setenv("QUNCERT_SEED", "3")
    assert _run(capsys, argv) == plain
    assert plain[0] == 0


def test_a_malformed_default_variable_exits_2(capsys, monkeypatch):
    # the suite reads its seed from the environment when --seed is not given
    monkeypatch.setenv("QUNCERT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --seed: invalid int value: 'abc'\n")


def test_readme_table_matches_the_modes():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        rows = re.findall(r"^\| `(metric|verify) ([^`]+)` \| (.*) \|$",
                          fh.read(), re.MULTILINE)
    documented = {(command, label): set(re.findall(r"`--([a-z0-9-]+)`", flags))
                  for command, label, flags in rows}
    code = {(command, " ".join(argv[1:3]) if command == "verify" else mode):
            _reads(command, mode) for (command, mode), argv in MODES.items()}
    assert documented == code
