"""Fingerprint the CLI on a fixed set of runs.

Each run starts `python -m quncert.cli` in a fresh process and prints one
line: the sha256 of its stdout, stderr, exit code and the files it wrote,
then the run's label (its QUNCERT_* settings and argv).  A run names the
files it writes under the placeholder directory $OUT, which stands for a
fresh temporary directory per run; its path reads as $OUT again in the
hashed output and the label, so two checkouts diff cleanly.  Runs that
read CSV tables or a JSON spec name them under $IN, one directory that
this script fills from `tables()` before the first run and that reads as
$IN in the same way.  Two checkouts behave the same on the set exactly
when their outputs are equal, so a refactor is checked with

    PYTHONPATH=src python3 tools/cli_digests.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/cli_digests.py > before.txt
    diff before.txt after.txt

The QUNCERT_* variables of the calling shell are cleared for every run.
Before the first run, one `import quncert.cli` in the same environment
names the package file it loads on stderr; if the import fails, the script
prints its error and exits 1 rather than hash one failure for every run.
Two runs at a time; the whole set takes a few minutes on two cores.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

GRID = "--grid=-16,0.0625,512"
OUT = "$OUT"
IN = "$IN"
POINT = {"family": "point", "at": 0.5}
GAUSS = {"family": "gaussian", "mean": 0.0, "sigma": 1.0}
TWO_POINT = {"family": "two_point", "x1": -1.0, "x2": 2.0, "w1": 0.3}
SHARP_Q = {"kind": "sharp_position"}
SMEARED_Q = {"kind": "smeared_position", "measure": POINT}

OBSERVABLES = (
    SHARP_Q,
    {"kind": "sharp_momentum"},
    SMEARED_Q,
    {"kind": "smeared_position", "measure": GAUSS},
    {"kind": "smeared_momentum", "measure": GAUSS},
    {"kind": "covariant_marginal", "tau": {"family": "gaussian", "sigma": 1.0},
     "axis": "position"},
    {"kind": "covariant_marginal", "tau": {"family": "gaussian", "sigma": 1.0},
     "axis": "momentum"},
    {"kind": "trivial", "measure": POINT},
    {"kind": "pushforward", "inner": SMEARED_Q, "map": {"kind": "identity"}},
    {"kind": "pushforward", "inner": SHARP_Q,
     "map": {"kind": "table", "xs": [0.0, 1.0], "ys": [1.0, -1.0]}},
    {"kind": "pushforward", "inner": SHARP_Q,
     "map": {"kind": "cos_shift", "amplitude": 0.25}},
)
FUNCTIONALS = ("distance", "error-bar", "bias-free", "bias", "resolution",
               "noise")
RELATIONS = ("preparation", "overall-width", "covariant-error",
             "covariant-resolution", "metric", "noise", "connections")


def tables() -> dict[str, str]:
    """The files that runs read, by file name: CSV tables saved in the
    writer's format, messy but valid, malformed, with a cell beyond csv's
    field limit in a short row and in an extra column, and one that opens
    with a UTF-8 byte-order mark; and a JSON measure spec."""
    xs = [(i - 100) / 25.0 for i in range(201)]
    ws = [math.exp(-0.5 * x * x) for x in xs]
    saved_measure = "x,w\r\n" + "".join(
        f"{x!r},{w / sum(ws)!r}\r\n" for x, w in zip(xs, ws))
    xs = [-8.0 + i / 16.0 for i in range(256)]
    saved_state = "x,re,im\r\n" + "".join(
        f"{x!r},{math.exp(-0.5 * x * x)!r},{0.3 * x * math.exp(-0.5 * x * x)!r}\r\n"
        for x in xs)
    return {
        "saved-measure.csv": saved_measure,
        "saved-state.csv": saved_state,
        # bare-CR line ends, blank and space rows, quoted cells, 1_0 and
        # extra cells
        "messy-measure.csv": "\r".join([
            " X , w ,note", "", "-1.5,1,a", "   ", '"0.0","2","one, two"',
            '2.5, 0.5 ,"two\r\nlines"', "", "1_0,1", ""]),
        "messy-state.csv": "\r".join([
            "x,re,IM ", "-4,0,0", "-3,0.1,0", "  ", '"-2",0.5,"0",x',
            "-1,1_0,0.25", "", '0," 0.5 ",0', "1,0.1,0,,", "2,0,0.1", "3,0,0",
            ""]),
        "malformed-measure.csv": "x,w\r\n0,1\r\n1\r\n",
        "malformed-state.csv": "x,re,im\n0,1,0\n1,one,0\n2,1,0\n3,1,0\n",
        "long-short-row.csv": "x,w,note\n0,1\n" + "2" * 200_000 + "\n",
        "long-extra-cell.csv": "x,w,note\n0,1," + "a" * 200_000 + "\n1,3\n",
        "bom-measure.csv": "\ufeffx,w\r\n-1.5,1\r\n0.5,3\r\n",
        "spec.json": json.dumps(GAUSS),
    }


def runs() -> list[tuple[dict, list[str]]]:
    """(QUNCERT_* settings, argv) of every run, in output order."""
    out: list[tuple[dict, list[str]]] = []
    for seed in ("0", "1"):
        for fmt in ("json", "csv"):
            out.append(({}, ["verify", "--suite", "all", "--seed", seed,
                             "--format", fmt]))
    out += [({}, ["verify", "--suite", "all", "--grid=-8,0.0625,256"]),
            ({}, ["verify", "--suite", "all", "--grid=x"]),
            ({"QUNCERT_GRID": "-8,0.0625,256"}, ["verify", "--suite", "all"])]
    out += [({}, ["demo"]), ({}, ["demo", "--format", "csv"]),
            ({}, ["groundstate", "--alpha", "2", "--beta", "2"])]
    for relation in RELATIONS:
        out.append(({}, ["verify", "--relation", relation]))
        out.append(({}, ["verify", "--relation", relation, GRID]))
    for obs in OBSERVABLES:
        spec = json.dumps(obs, sort_keys=True)
        for name in FUNCTIONALS:
            out.append(({}, ["metric", name, "--observable", spec, GRID]))
        out.append(({}, ["metric", "error-bar", "--observable", spec, GRID,
                         "--delta", "0.5", "--format", "csv"]))
    out += [
        ({}, ["measure", json.dumps(GAUSS), "--alpha", "1", "--eps", "0.1"]),
        ({}, ["measure", json.dumps(TWO_POINT), "--format", "csv"]),
        ({}, ["wasserstein", json.dumps(GAUSS), json.dumps(POINT),
              "--alpha", "2"]),
        ({}, ["wasserstein", json.dumps(GAUSS), json.dumps(POINT),
              "--alpha", "inf"]),
        ({}, ["state", json.dumps({"family": "gaussian", "sigma": 0.5}),
              "--hbar", "2"]),
        ({}, ["state", json.dumps(
            {"family": "mixture", "components": [
                {"family": "box", "center": -2.0, "width": 1.0, "weight": 0.5},
                {"family": "hermite", "n": 2, "weight": 0.5}]}),
              GRID, "--format", "csv"]),
    ]
    # tied cumulative sums and a zero-weight atom on the transport staircase
    halves = {"family": "two_point", "x1": -1.0, "x2": 1.0, "w1": 0.5}
    for other in ({"family": "uniform", "lo": -1.0, "hi": 1.0, "n_atoms": 3},
                  {"family": "uniform", "lo": -1.0, "hi": 1.0, "n_atoms": 4},
                  {"atoms": [-1.0, 0.0, 2.0], "weights": [0.5, 0.0, 0.5]}):
        for alpha in ("1", "2", "inf"):
            out.append(({}, ["wasserstein", json.dumps(halves),
                             json.dumps(other), "--alpha", alpha]))
    # connection checks build the observable on the grid they probe
    for obs in OBSERVABLES[5:7]:
        spec = json.dumps(obs, sort_keys=True)
        for grid in ([], ["--grid=-16,0.015625,2048"]):
            out.append(({}, ["verify", "--relation", "connections",
                             "--observable", spec, *grid]))
    # connection checks probe at two steps of the axis lattice, and the
    # momentum step depends on hbar and on the grid
    spec = json.dumps({"kind": "smeared_momentum", "measure": TWO_POINT},
                      sort_keys=True)
    for flags in (["--hbar", "2.5", "--seed", "3"], [GRID, "--seed", "1"]):
        out.append(({}, ["verify", "--relation", "connections",
                         "--observable", spec, *flags]))
    # the ramp cap of the probe family scales with hbar
    spec = json.dumps(OBSERVABLES[4], sort_keys=True)
    for name in ("error-bar", "bias-free"):
        out.append(({}, ["metric", name, "--observable", spec, GRID,
                         "--hbar", "2.5"]))
    # covariant margins sit on the lattice of their axis; its momentum step
    # depends on hbar
    for obs in OBSERVABLES[5:7]:
        spec = json.dumps(obs, sort_keys=True)
        for grid in ([], [GRID]):
            out.append(({}, ["metric", "error-bar", "--observable", spec,
                             *grid, "--hbar", "2.5"]))
    # the centered and floating sweeps of bias read one set of probe laws;
    # at hbar 2.5 two momentum steps of the default grid exceed 0.5
    for obs, flags in ((OBSERVABLES[4], ["--delta", "1.0", "--hbar", "2.5"]),
                       (OBSERVABLES[6], ["--delta", "0.5", GRID])):
        out.append(({}, ["metric", "bias", "--observable",
                         json.dumps(obs, sort_keys=True), *flags]))
    # devices on the other axis than their target are swept through their
    # own distribution; their bars come out infinite
    for obs, target in ((OBSERVABLES[4], SHARP_Q), (OBSERVABLES[6], SHARP_Q),
                        ({"kind": "trivial", "measure": POINT,
                          "axis": "momentum"}, SHARP_Q),
                        (SMEARED_Q, OBSERVABLES[1])):
        for name in ("error-bar", "bias-free"):
            out.append(({}, ["metric", name,
                             "--observable", json.dumps(obs, sort_keys=True),
                             "--target", json.dumps(target, sort_keys=True),
                             "--delta", "0.5", GRID]))
    # alpha-deviations whose minimizer sits on an atom of a symmetric law,
    # and one of a two-point law at a high order
    symmetric = {"atoms": [-1.5, -0.5, 0.0, 0.5, 1.5],
                 "weights": [0.1, 0.2, 0.4, 0.2, 0.1]}
    out += [({}, ["measure", json.dumps(symmetric), "--alpha", alpha])
            for alpha in ("1.5", "3")]
    out.append(({}, ["measure", json.dumps(TWO_POINT), "--alpha", "8"]))
    # measure and wasserstein reject --grid and --hbar, which they never read
    out += [({}, ["measure", json.dumps(GAUSS), GRID]),
            ({}, ["wasserstein", json.dumps(GAUSS), json.dumps(POINT),
                  "--hbar", "2"])]
    # written files: Born laws, amplitudes and reports
    saves = [f"--save-{name}={OUT}/{name}.csv"
             for name in ("position", "momentum", "wavefunction")]
    out += [({}, ["state", json.dumps({"family": "gaussian", "sigma": 0.5}),
                  "--hbar", "2", *saves]),
            ({}, ["state", json.dumps({"family": "box", "center": -2.0,
                                       "width": 1.0}), GRID, *saves]),
            ({}, ["state", json.dumps({"family": "gaussian", "sigma": 1.0}),
                  "--grid=-16,0.0078125,4096", *saves]),
            ({}, ["verify", "--relation", "preparation",
                  f"--out={OUT}/report.json"]),
            ({}, ["verify", "--suite", "all", "--format", "csv",
                  f"--out={OUT}/suite.csv"])]
    # each mode of metric and verify rejects a flag it does not read, and
    # the suite and a relation exclude each other
    spec = json.dumps(SMEARED_Q, sort_keys=True)
    state = json.dumps({"family": "gaussian", "sigma": 1.0})
    for name, flag in (("distance", "--eps=0.1"), ("error-bar", "--alpha=2"),
                       ("bias-free", "--alpha=2"), ("bias", "--alpha=2"),
                       ("resolution", f"--target={json.dumps(SHARP_Q)}"),
                       ("noise", "--eps=0.1")):
        out.append(({}, ["metric", name, "--observable", spec, GRID, flag]))
    for mode, flag in ((["--suite", "all"], "--eps=0.1"),
                       (["--relation", "preparation"], f"--tau={state}"),
                       (["--relation", "overall-width"], "--seed=1"),
                       (["--relation", "covariant-error"], "--alpha=1"),
                       (["--relation", "covariant-resolution"],
                        f"--state={state}"),
                       (["--relation", "metric"], "--eps=0.1"),
                       (["--relation", "noise"], "--seed=3"),
                       (["--relation", "connections"], "--eps=0.1")):
        out.append(({}, ["verify", *mode, flag]))
    out.append(({}, ["verify", "--suite", "all", "--relation", "noise"]))
    # a flag's value given as its own argument before the mode
    out.append(({}, ["metric", "--observable", spec, "resolution", GRID]))
    # tables read back: measures (also as a file spec and as a smearing),
    # states, and inputs that exit 2
    out += [({}, ["measure", f"{IN}/{name}-measure.csv"])
            for name in ("saved", "messy", "malformed")]
    out += [({}, ["state", f"{IN}/{name}-state.csv", "--save-wavefunction",
                  f"{OUT}/wavefunction.csv"])
            for name in ("saved", "messy", "malformed")]
    saved = {"family": "file", "path": f"{IN}/saved-measure.csv"}
    out += [({}, ["wasserstein", f"{IN}/messy-measure.csv", json.dumps(saved),
                  "--alpha", "2"]),
            ({}, ["metric", "distance", "--observable", json.dumps(
                {"kind": "smeared_position", "measure": saved}), GRID]),
            ({}, ["verify", "--relation", "preparation", "--state", json.dumps(
                {"family": "file", "path": f"{IN}/saved-state.csv"})])]
    # a cell beyond csv's field limit: exit 2 in a short row, ignored in an
    # extra column; an alpha-deviation whose sum, scaled by a power of two,
    # would leave the normal floats
    out += [({}, ["wasserstein", f"{IN}/long-{name}.csv",
                  f"{IN}/saved-measure.csv"])
            for name in ("short-row", "extra-cell")]
    out.append(({}, ["measure", json.dumps(
        {"family": "two_point", "x1": -3.0, "x2": 5.0, "w1": 0.3}),
        "--alpha", "1100"]))
    # a table that opens with a byte-order mark, and alpha-deviations whose
    # plain sums fall below the normal floats at a subnormal weight
    out.append(({}, ["measure", f"{IN}/bom-measure.csv"]))
    out += [({}, ["measure", json.dumps({"atoms": [0, 1], "weights": [1, 5e-324]}),
                  "--alpha", alpha]) for alpha in ("2", "600")]
    # a smearing so far off that its second moment overflows, and one whose
    # shift merges the atoms of a Born law
    far = [json.dumps({"kind": "smeared_position",
                       "measure": {"family": "point", "at": at}})
           for at in (1e160, 1e150)]
    out += [({}, ["metric", "noise", "--observable", far[0]]),
            ({}, ["verify", "--relation", "connections", "--observable",
                  far[1]]),
            ({}, ["metric", "error-bar", "--observable", far[1],
                  "--delta", "0.0625"])]
    # a JSON argument read from a file, and a malformed default in the
    # environment
    out += [({}, ["measure", f"@{IN}/spec.json"]),
            ({"QUNCERT_SEED": "abc"}, ["verify", "--suite", "all"])]
    return out


def run_env(env_vars: dict) -> dict:
    """The calling environment without its QUNCERT_* variables, plus
    env_vars."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUNCERT_")}
    env.update(env_vars)
    return env


def digest(env_vars: dict, argv: list[str], tables_dir: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "quncert.cli",
                               *(a.replace(OUT, tmp).replace(IN, tables_dir)
                                 for a in argv)],
                              capture_output=True, env=run_env(env_vars),
                              timeout=600)
        parts = [proc.stdout, proc.stderr, str(proc.returncode).encode()]
        parts = [p.replace(tmp.encode(), OUT.encode())
                 .replace(tables_dir.encode(), IN.encode()) for p in parts]
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                parts += [name.encode(), fh.read()]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    label = " ".join([*(f"{k}={v}" for k, v in env_vars.items()), *argv])
    return f"{h.hexdigest()}  {label}"


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "-c",
         "import quncert.cli; print(quncert.__file__)"],
        capture_output=True, text=True, env=run_env({}), timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("cli_digests: quncert.cli does not import; set PYTHONPATH to "
              "the checkout's src", file=sys.stderr)
        return 1
    print(f"cli_digests: hashing {proc.stdout.strip()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tables_dir, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for name, text in tables().items():
            with open(os.path.join(tables_dir, name), "w", newline="",
                      encoding="utf-8") as fh:
                fh.write(text)
        lines = list(pool.map(lambda run: digest(*run, tables_dir), runs()))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
