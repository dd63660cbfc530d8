"""Interleaved parent/change pairs of the benchmark, written as one record.

    python3 tools/bench_pairs.py --parent COMMIT --workload phase-space \\
        [--workload suite ...] [--pairs 10] [--seconds 36] \\
        [--claim phase-space:wall_s] [--change TEXT] --out BENCH_N.json

The parent tree is `git archive COMMIT` unpacked into a temporary
directory; the change tree is a copy of the working tree's files (tracked,
and untracked but not ignored).  Both trees sit side by side under one
temporary directory, so their runs write to the same file system, and both
are removed at the end.  Pair i runs every workload with seed 100 + i, the
parent first when i is even and the change first when i is odd.  Each run
is `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
inside its own tree.

The record holds the machine (`nproc`, CPU, versions, thread pins), the
host steal time of every run, and for each workload and end-to-end metric
of BENCHMARK.json: the median, quartiles and every run of each side, the
pairs the change wins and loses, and whether the change's median stays
within the metric's bound relative to the parent's.  With --claim it also
holds the claim verdict: wins, the parent's interquartile range, the gap
between the medians, and whether the change wins at least 9 pairs in 10
with a gap wider than that range.

Each record also holds a start-up A/B: after the pairs, 60 starts per side
of a fresh interpreter until `import quncert.cli` returns, as perfbench
reads `setup_s`, the sides alternating start by start.  It gives the
median, quartiles and minimum per side, so a `setup_s` that moves by a
quarter on 7 starts can be told from a change in import cost.  It also
gives each side's median and quartiles of the starts' peak RSS, read with
`os.wait4` as perfbench reads `peak_rss_mb`, so a move in import footprint
can be told from one in the data a workload holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SEED_BASE = 100
CLAIM_WIN_SHARE = 0.9
STARTS = 60
# what perfbench times as setup_s, in the environment it gives its children
START_CODE = "import quncert.cli, time; print(repr(time.monotonic()))"
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def parent_tree(commit: str, dest: str) -> None:
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], check=True,
                   input=_git("archive", "--format=tar", commit))


def change_tree(dest: str) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard").split(b"\0")
    for rel in (name.decode() for name in listed if name):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the work tree
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its environment and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        env, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{workload} seed {seed} in {tree}: exit {proc.returncode}"
                 f"\n{proc.stderr[-2000:]}")
    return {"environment": env["environment"], **result}


def start_once(tree: str) -> tuple[float, float]:
    """Seconds from spawning an interpreter until `import quncert.cli`
    returns, read off the shared monotonic clock, and the child's peak RSS
    in MB, read with os.wait4 as perfbench reads `peak_rss_mb`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUNCERT_")}
    env.update(THREAD_PIN, PYTHONPATH=os.path.join(tree, "src"))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", START_CODE], cwd=tree,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    _, status, usage = os.wait4(proc.pid, 0)  # the outputs fit the pipes
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"import quncert.cli in {tree}: exit {code}\n{err[-2000:]}")
    return float(out) - start, usage.ru_maxrss / 1024.0


def startup_ab(trees: dict, starts: int) -> dict:
    """Interleaved start-up times and peak RSS of the two trees: start i
    runs the parent first when i is even."""
    runs = {side: [] for side in SIDES}
    for i in range(starts):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(start_once(trees[side]))
    times = {side: [t for t, _ in runs[side]] for side in SIDES}
    rss = {side: [mb for _, mb in runs[side]] for side in SIDES}
    return {"starts": starts, "code": START_CODE,
            **{side: {**quartiles(times[side]), "min": min(times[side]),
                      "peak_rss_mb": quartiles(rss[side])}
               for side in SIDES},
            "median_ratio_change_over_parent":
                statistics.median(times["change"])
                / statistics.median(times["parent"]),
            "peak_rss_median_ratio_change_over_parent":
                statistics.median(rss["change"])
                / statistics.median(rss["parent"])}


def quartiles(runs: list[float]) -> dict:
    if len(runs) < 2:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0], "runs": runs}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Wins, losses and the bound check of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    ratio = c_med / p_med if p_med else None
    if ratio is None:
        within = sign * (p_med - c_med) >= 0.0
    else:
        within = ratio <= 1.0 + bound if better == "lower" \
            else ratio >= 1.0 - bound
    return {"change_wins": sum(g > 0.0 for g in gains),
            "change_losses": sum(g < 0.0 for g in gains),
            "median_ratio_change_over_parent": ratio,
            "bound": bound, "within_bound": within}


def claim_verdict(record: dict, workload: str, metric: str,
                  better: str) -> dict:
    entry = record["workloads"][workload][metric]
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"]
    gap = gap if better == "lower" else -gap
    iqr = parent["q3"] - parent["q1"]
    pairs = len(parent["runs"])
    wins = entry["change_wins"]
    return {"workload": workload, "metric": metric, "change_wins": wins,
            "pairs": pairs, "parent_iqr": iqr, "median_gap": gap,
            "holds": wins >= CLAIM_WIN_SHARE * pairs and gap > iqr}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change improves")
    parser.add_argument("--change", default="", help="what the change does")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    claim = args.claim.split(":", 1) if args.claim else None
    if claim and (claim[0] not in args.workload or claim[1] not in spec):
        parser.error(f"--claim {args.claim} names no benchmarked metric")
    commit = _git("rev-parse", args.parent).decode().strip()

    seeds = [SEED_BASE + i for i in range(args.pairs)]
    runs = {w: {side: [] for side in SIDES} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        parent_tree(commit, trees["parent"])
        change_tree(trees["change"])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    result = run_once(trees[side], workload, seed,
                                      args.seconds)
                    runs[workload][side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"pair {i} {workload} {side}: wall_s {wall:.4f}",
                          file=sys.stderr, flush=True)
        startup = startup_ab(trees, STARTS)
        print("start-up medians: " + ", ".join(
            f"{side} {startup[side]['median']:.4f} s, "
            f"{startup[side]['peak_rss_mb']['median']:.2f} MB"
            for side in SIDES), file=sys.stderr, flush=True)

    env = runs[args.workload[0]]["parent"][0]["environment"]
    record = {
        "change": args.change,
        "parent_commit": commit,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": {w: args.pairs for w in args.workload},
        "seeds": seeds,
        "order": "pair i runs the parent first when i is even, the change "
                 "first when i is odd; pair i uses seed 100 + i on every "
                 "workload",
        "environment": {key: env[key] for key in (
            "nproc", "cpu_model", "python", "numpy", "thread_pin",
            "seconds")},
        "host_steal_s": {w: {side: [r["environment"]["host_steal_s"]
                                    for r in runs[w][side]]
                             for side in SIDES} for w in args.workload},
        "startup_ab": startup,
        "workloads": {},
    }
    for w in args.workload:
        sides = runs[w]
        entry = {"pairs": args.pairs, "seeds": seeds,
                 "all_correct": all(r["correct"] for side in SIDES
                                    for r in sides[side]),
                 "failed": {s: sum(r["failed"] for r in sides[s])
                            for s in SIDES},
                 "attempted": {s: sum(r["attempted"] for r in sides[s])
                               for s in SIDES}}
        for name, metric in spec.items():
            values = {s: [r["metrics"][name]["value"] for r in sides[s]]
                      for s in SIDES}
            if any(None in values[s] for s in SIDES):  # a failed run
                entry[name] = {"unit": metric["unit"], **{
                    s: {"runs": values[s]} for s in SIDES}}
                continue
            entry[name] = {"unit": metric["unit"],
                           **{s: quartiles(values[s]) for s in SIDES},
                           **compare(values["parent"], values["change"],
                                     metric["better"], metric["bound"])}
        record["workloads"][w] = entry
    if claim:
        record["claim"] = claim_verdict(record, *claim,
                                        spec[claim[1]]["better"])
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record.get("claim", {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
