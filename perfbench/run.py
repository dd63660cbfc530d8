"""quncert benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload suite|solver|phase-space \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every pass runs in fresh child processes (one client, closed loop,
no threads) with OMP/OpenBLAS/MKL pinned to one thread.  The run repeats
passes for about S seconds and reports medians.  With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and prints the per-layer metrics.  Correctness checks run on
every pass.  The last line of standard output is the JSON result; the line
before it records the machine, versions, seed and per-pass figures.  The
exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from tracer import COUNT_METRICS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

# Closed-form references: g(2,2) = 1 for Q^2 + P^2, and g(1,2) = g(2,1) is
# minus the first zero of Ai'.
G22 = 1.0
AIRY = 1.0187929716474715
# tolerances of the repository's own tests for the same constants
G22_TOL, AIRY_TOL, SWAP_TOL = 1e-6, 2e-4, 5e-4
SUITE_REPORTS = 68
SOLVER_PAIRS = ((2.0, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, 1.0))

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "1"), ("ref_err", "1"))


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    ref_err: float = 0.0
    output: str = ""  # digest of the results, for traced/untraced identity
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def add(self, proc: Proc) -> None:
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, proc.peak_rss_mb)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QUNCERT_")}
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], scratch: str) -> Proc:
    """Run argv to completion; time it and take its resource usage."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=scratch,
                                env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


def measure_setup(scratch: str) -> list[float]:
    """Seconds from spawning an interpreter until `import quncert.cli`
    returns, read off the shared monotonic clock."""
    code = "import quncert.cli, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = spawn([sys.executable, "-c", code], scratch)
        if proc.code != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        samples.append(float(proc.stdout) - start)
    return samples


def _quncert(*args: str) -> list[str]:
    return [sys.executable, "-m", "quncert.cli", *args]


def _traced(result: str, *args: str) -> list[str]:
    return [sys.executable, WORKER, "--result", result, "--trace", "cli",
            *args]


def _fresh(path: str) -> str:
    """Remove what an earlier pass left at path, so it is never read twice."""
    if os.path.exists(path):
        os.unlink(path)
    return path


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _merge_layers(total: dict, layers: dict) -> None:
    for name, value in layers.items():
        total[name] = total.get(name, 0) + value


def ground_energy_from_c(alpha: float, beta: float, c: float) -> float:
    """Invert quncert.bounds.c_from_ground_energy."""
    ratio = c ** (alpha * beta) / (alpha ** alpha * beta ** beta)
    return (alpha + beta) * ratio ** (1.0 / (alpha + beta))


# -- workloads ---------------------------------------------------------------

def suite_pass(seed: int, traced: bool, scratch: str) -> Pass:
    """`quncert verify --suite all` in one fresh process: cold caches."""
    out = _fresh(os.path.join(scratch, "suite.json"))
    result = _fresh(os.path.join(scratch, "trace.json"))
    args = ("verify", "--suite", "all", "--seed", str(seed), "--out", out)
    proc = spawn(_traced(result, *args) if traced else _quncert(*args),
                 scratch)
    p = Pass()
    p.add(proc)
    try:
        with open(out, "rb") as fh:
            raw = fh.read()
        reports = json.loads(raw)
    except (OSError, ValueError):
        raw, reports = b"", None
    if proc.code != 0 or not isinstance(reports, list) \
            or len(reports) != SUITE_REPORTS:
        p.attempted, p.failed = SUITE_REPORTS, SUITE_REPORTS
        p.notes.append(f"suite exit {proc.code}: "
                       + proc.stderr.decode(errors="replace")[-500:])
        return p
    errors = []
    for r in reports:
        p.check(r.get("verdict") == "pass", f"report {r.get('relation')}")
        if r.get("relation") == "preparation-deviation-product":
            ab = (r["inputs"]["alpha"], r["inputs"]["beta"])
            ref = {(2.0, 2.0): G22, (1.0, 2.0): AIRY}.get(ab)
            if ref is not None:
                c = r["rhs"] / r["inputs"]["hbar"]
                errors.append(abs(ground_energy_from_c(*ab, c) - ref))
    p.ref_err = max(errors, default=math.nan)
    p.output = hashlib.sha256(raw).hexdigest()
    if traced:
        p.layers = (_read_json(result) or {}).get("layers", {})
    return p


def solver_pass(seed: int, traced: bool, scratch: str) -> Pass:
    """`quncert groundstate` for each exponent pair, one process each."""
    order = list(SOLVER_PAIRS)
    random.Random(seed).shuffle(order)
    result = os.path.join(scratch, "trace.json")
    p = Pass()
    found: dict[tuple, dict] = {}
    digest = hashlib.sha256()
    for alpha, beta in order:
        args = ("groundstate", "--alpha", repr(alpha), "--beta", repr(beta))
        _fresh(result)
        proc = spawn(_traced(result, *args) if traced else _quncert(*args),
                     scratch)
        p.add(proc)
        digest.update(f"{alpha},{beta}:".encode() + proc.stdout)
        try:
            found[(alpha, beta)] = json.loads(proc.stdout)
        except ValueError:
            pass
        if proc.code != 0 or (alpha, beta) not in found:
            p.notes.append(f"groundstate {alpha},{beta} exit {proc.code}: "
                           + proc.stderr.decode(errors="replace")[-500:])
        if traced:
            _merge_layers(p.layers, (_read_json(result) or {}).get("layers", {}))

    def g(pair):
        return found[pair]["ground_energy"] if pair in found else math.nan

    def c(pair):
        return found[pair]["c_constant"] if pair in found else math.nan

    g11 = g((1.0, 1.0))
    p.check(abs(g((2.0, 2.0)) - G22) <= G22_TOL, "g(2,2)")
    p.check(abs(g((1.0, 2.0)) - AIRY) <= AIRY_TOL, "g(1,2) against Airy")
    p.check(abs(c((1.0, 2.0)) - c((2.0, 1.0))) <= SWAP_TOL, "c(1,2) vs c(2,1)")
    p.check(math.isfinite(g11) and g11 > 0.0, "g(1,1) positive")
    p.ref_err = max(abs(g((2.0, 2.0)) - G22), abs(g((1.0, 2.0)) - AIRY),
                    abs(g((2.0, 1.0)) - AIRY))
    p.output = digest.hexdigest()
    return p


def phase_space_pass(seed: int, traced: bool, scratch: str) -> Pass:
    """One in-process pass of dense phase-space calls in a fresh worker."""
    result = _fresh(os.path.join(scratch, "pass.json"))
    argv = [sys.executable, WORKER, "--result", result]
    argv += ["--trace"] if traced else []
    proc = spawn(argv + ["phase-space", str(seed), scratch], scratch)
    data = _read_json(result)
    p = Pass(peak_rss_mb=proc.peak_rss_mb)
    if proc.code != 0 or data is None:
        p.check(False, f"phase-space exit {proc.code}: "
                + proc.stderr.decode(errors="replace")[-500:])
        return p
    p.wall_s, p.cpu_s = data["wall_s"], data["cpu_s"]
    for name, ok in data["checks"]:
        p.check(ok, name)
    p.ref_err = data["ref_err"]
    p.output = data["digest"]
    p.layers = data.get("layers", {})
    return p


WORKLOADS = {"suite": suite_pass, "solver": solver_pass,
             "phase-space": phase_space_pass}


# -- run -----------------------------------------------------------------------

def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs.

    A run whose steal time grows ran on a contended host; its times are
    inflated by more than the steal itself, since contention also slows
    the time a guest does get."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "quncert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "thread_pin": THREAD_PIN}


def run_passes(workload, seed: int, seconds: float, traced: bool,
               scratch: str) -> tuple[list[Pass], list[Pass]]:
    """Repeat passes (untraced, or untraced+traced pairs) while the next one
    is predicted to end within the measuring time; at least one."""
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(workload(seed, False, scratch))
        if traced:
            traced_passes.append(workload(seed, True, scratch))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced_passes


def metric(value, unit: str) -> dict:
    if isinstance(value, float) and not math.isfinite(value):
        value = None  # only on a failed run; keeps the line valid JSON
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "ref_err": max(p.ref_err for p in passes),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def consistency(plain: list[Pass], traced: list[Pass]) -> Pass:
    """Checks across passes: one seed gives one result, traced or not, and
    every traced count repeats exactly."""
    checks = Pass()
    reference = plain[0].output
    for p in plain[1:] + traced:
        checks.check(p.output == reference,
                     "results differ between passes (traced or not)")
    if traced:
        for name in COUNT_METRICS:
            checks.check(len({p.layers.get(name) for p in traced}) == 1,
                         f"count {name} did not repeat")
    return checks


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    out = {}
    for name, unit in LAYER_METRICS:
        values = [p.layers.get(name, 0) for p in traced]
        out[name] = metric(values[0] if name in COUNT_METRICS
                           else statistics.median(values), unit)
    out["trace.overhead_ratio"] = metric(
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain), "1")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quncert", "cli.py")):
        print(f"no quncert sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    steal0 = steal_s()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(SRC, "quncert")], check=True,
                       env=child_env(), stdout=subprocess.DEVNULL)
        setup = [] if args.trace else measure_setup(scratch)
        plain, traced = run_passes(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = per_layer(plain, traced) if args.trace \
        else end_to_end(plain, setup)
    checks = consistency(plain, traced)
    every = plain + traced + [checks]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    env["setup_s"] = setup
    steal1 = steal_s()
    env["host_steal_s"] = None if steal0 is None or steal1 is None \
        else steal1 - steal0
    env["passes"] = [{"traced": is_traced, "wall_s": p.wall_s,
                      "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
                      "attempted": p.attempted, "failed": p.failed,
                      "notes": p.notes[:10]}
                     for is_traced, group in ((False, plain), (True, traced))
                     for p in group]
    env["failures"] = checks.notes
    print(json.dumps({"environment": env}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
