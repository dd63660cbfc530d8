"""Print the lines of src/quncert that no test runs.

Runs pytest in this process under a `sys.settrace` hook limited to the
files of src/quncert, then prints `file:line: source` for every line of
their code objects (read with `co_lines()`) that never ran.  CLI child
processes are not traced, so a line that only a CLI test reaches is listed
too.  Run it from the repository root; extra arguments go to pytest:

    python3 tools/uncovered.py -q
"""

import os
import sys
import threading

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "quncert", "")
ran: dict[str, set[int]] = {}


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    lines = ran.setdefault(frame.f_code.co_filename, set())

    def line(frame, event, arg):
        lines.add(frame.f_lineno)
        return line
    return line(frame, event, arg)


def code_lines(code):
    yield from (n for _, _, n in code.co_lines() if n is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_lines(const)


if __name__ == "__main__":
    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(sys.argv[1:])
    sys.settrace(None)
    for path in sorted(SRC + name for name in os.listdir(SRC)
                       if name.endswith(".py")):
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        for n in sorted(set(code_lines(compile(source, path, "exec")))
                        - ran.get(path, set())):
            print(f"{os.path.relpath(path, REPO)}:{n}: {text[n - 1].strip()}")
    sys.exit(status)
