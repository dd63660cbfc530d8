"""Child-process side of a benchmark pass.

    worker.py --result FILE [--trace] phase-space SEED SCRATCH_DIR
    worker.py --result FILE --trace cli QUNCERT_ARGS...

`phase-space` runs one in-process pass of that workload and times it from
inside.  `cli` runs `quncert.cli.main` in this process with every layer
entry point traced; its standard output is the command's own.  Either way
the worker writes its measurements as JSON to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from tracer import Tracer


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("mode", choices=("phase-space", "cli"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli" and not args.trace:
        parser.error("cli mode runs traced only")
    tracer = Tracer() if args.trace else None
    if args.mode == "cli":
        import quncert.cli
        result: dict = {"missing": tracer.install()}
        code = tracer.call("cli", quncert.cli.main, (args.rest,))
    else:
        import quncert  # loads every module the tracer patches
        result = {"missing": tracer.install() if tracer else []}
        import phase_space  # after install: it imports entry points by name
        seed, scratch = int(args.rest[0]), args.rest[1]
        inputs = phase_space.make_inputs(seed)
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        result.update(phase_space.run_pass(inputs, scratch))
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
        code = 0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    for name in result["missing"]:
        print(f"trace: entry point {name} not found", file=sys.stderr)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
