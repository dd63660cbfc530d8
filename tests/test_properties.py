"""Property test of the CLI input boundary (Hypothesis).

Generated JSON specs mix the real family names, kind names and keys with
stray keys, and draw their values from every finite float, the literals
NaN, Infinity and 1e400, huge integers, bools, strings, null, lists and
nested objects.  Whatever the input, `cli.main` must return 0 or one of the
documented exit codes 2-7 (no exception escapes), print no traceback, raise
no RuntimeWarning, and give byte-identical output when run again.

Only what the runtime needs is bounded: grid lengths stay at or below 4096,
and `n_atoms` is either small or above the cap, which exits 3 before any
array is built.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quncert.cli import main
from quncert.measures import DEFAULT_CONVOLVE_CAP

BIG_LITERAL = "__1e400__"  # a literal json.dumps cannot write
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}

MEASURE_KEYS = {
    "point": ["at"], "two_point": ["x1", "x2", "w1"],
    "uniform": ["lo", "hi", "n_atoms"],
    "gaussian": ["mean", "sigma", "n_atoms", "half_width"], "file": ["path"],
}
STATE_KEYS = {
    "gaussian": ["center", "momentum", "sigma"],
    "box": ["center", "width", "momentum_boost"], "hermite": ["n"],
    "random": ["center", "width", "seed"], "cell": ["center"],
    "file": ["path"], "mixture": ["components"],
}
STRAY_KEYS = ["family", "kind", "weight", "atoms", "weights", "sgima", "p", ""]

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-40.0, max_value=40.0),
                   st.integers(min_value=-10, max_value=10))
odd = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), BIG_LITERAL]),
    st.integers(min_value=-10 ** 450, max_value=10 ** 450),
    st.booleans(), st.text(max_size=4), st.none())
values = st.one_of(finite, odd, st.recursive(
    st.one_of(finite, odd),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6))
# counts that need no large allocation: small, or above the cap
counts = st.one_of(
    st.integers(min_value=-3, max_value=300),
    st.integers(min_value=DEFAULT_CONVOLVE_CAP + 1, max_value=10 ** 450))
odd_counts = st.one_of(odd, st.sampled_from([2.0, 2.5, -0.5, 1e300]))
COUNT_KEYS = ("n_atoms", "n", "seed")
positive = st.one_of(st.floats(0.05, 10.0),
                     st.floats(min_value=0.0, exclude_min=True,
                               allow_infinity=False))
near = st.one_of(st.floats(-10.0, 10.0), finite)
CLEAN = {**dict.fromkeys(COUNT_KEYS, counts), "sigma": positive,
         "center": near, "momentum": near, "momentum_boost": near,
         "width": positive, "half_width": positive,
         "w1": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
         "path": st.sampled_from(["", "missing.csv", "/"])}


def _clean(key):
    return CLEAN.get(key, finite)


@st.composite
def specs(draw, table, tag):
    """A real name with most of its keys and well-typed values; one in
    three specs then gets one flaw: an odd value (any JSON type, NaN,
    Infinity, 1e400, a huge integer), a stray key, an odd name or no tag."""
    # Hypothesis favours small integers, so 0 stands for the clean branch
    name = draw(st.sampled_from(list(table)))
    spec = {tag: name}
    for key in table[name]:
        if draw(st.integers(0, 5)) < 5:
            spec[key] = draw(_clean(key))
    flaw = draw(st.integers(0, 5))
    if flaw == 4 and table[name]:
        key = draw(st.sampled_from(table[name]))
        spec[key] = draw(odd_counts if key in COUNT_KEYS else values)
    elif flaw == 5:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            spec[draw(st.sampled_from(STRAY_KEYS))] = draw(values)
        elif kind == 1:
            spec[tag] = draw(values)
        else:
            del spec[tag]
    return spec


@st.composite
def measure_specs(draw):
    if draw(st.integers(0, 4)) < 4:
        return draw(specs(MEASURE_KEYS, "family"))
    n = draw(st.integers(1, 5))
    spec = {"atoms": draw(st.lists(finite, min_size=n, max_size=n)),
            "weights": draw(st.lists(positive, min_size=n, max_size=n))}
    flaw = draw(st.integers(0, 5))
    if flaw == 4:
        spec[draw(st.sampled_from(STRAY_KEYS))] = draw(values)
    elif flaw == 5:
        spec[draw(st.sampled_from(["atoms", "weights"]))] = draw(
            st.one_of(st.lists(values, max_size=5), values))
    return spec


@st.composite
def state_specs(draw):
    spec = draw(specs(STATE_KEYS, "family"))
    if spec.get("family") == "mixture" and draw(st.integers(0, 3)) < 3:
        parts = draw(st.lists(specs({k: v for k, v in STATE_KEYS.items()
                                     if k != "mixture"}, "family"),
                              min_size=1, max_size=3))
        weights = draw(st.lists(st.one_of(finite, finite, values),
                                min_size=len(parts), max_size=len(parts)))
        spec["components"] = [{**part, "weight": w}
                              for part, w in zip(parts, weights)]
    return spec


def _text(spec) -> str:
    return json.dumps(spec).replace(json.dumps(BIG_LITERAL), "1e400")


flags = st.one_of(st.floats(), st.sampled_from(["1e400", "-0", "x", "1e-320"]))


@st.composite
def mostly(draw, usual, odd):
    """usual in about three draws of four, else odd."""
    return draw(usual if draw(st.integers(0, 3)) < 3 else odd)


@st.composite
def common(draw):
    argv = []
    if draw(st.booleans()):
        x0 = draw(mostly(st.floats(-100.0, 100.0), flags))
        dx = draw(mostly(st.floats(1e-3, 1.0), flags))
        n = draw(mostly(st.sampled_from([512, 1024, 2048, 4096]),
                        st.sampled_from([0, 3, 4, 8, 64])))
        argv.append(f"--grid={x0},{dx},{n}")
    if draw(st.booleans()):
        argv.append(f"--hbar={draw(mostly(st.floats(0.05, 20.0), flags))}")
    return argv


@st.composite
def groundstate_argv(draw):
    """Exponents from [1, 4] or odd values; a grid of at most 512 points,
    mostly symmetric about 0 (as the solver needs); tolerances usual or
    odd."""
    exponents = mostly(st.floats(1.0, 4.0),
                       st.sampled_from(["nan", "inf", "-inf", "0.5", "x"]))
    argv = ["groundstate", f"--alpha={draw(exponents)}",
            f"--beta={draw(exponents)}"]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(mostly(st.floats(1e-9, 1e-3), flags))}")
    if draw(st.booleans()):
        argv.append(
            f"--boundary-tol={draw(mostly(st.floats(1e-8, 1.0), flags))}")
    n = draw(st.sampled_from([4, 64, 256, 512]))
    half = draw(mostly(st.floats(1.0, 40.0), st.floats()))
    x0 = draw(mostly(st.just(-half), st.floats(-40.0, 40.0)))
    return argv + [f"--grid={x0},{2.0 * half / n},{n}"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["measure", "wasserstein", "state",
                                    "groundstate"]))
    if command == "groundstate":
        return draw(groundstate_argv())
    alphas = mostly(st.floats(1.0, 8.0), st.one_of(flags, st.just("inf")))
    if command == "measure":
        argv = ["measure", _text(draw(measure_specs()))]
        if draw(st.booleans()):
            argv.append(f"--alpha={draw(alphas)}")
        if draw(st.booleans()):
            argv.append(f"--eps={draw(mostly(st.floats(0.0, 0.99), flags))}")
    elif command == "wasserstein":
        argv = ["wasserstein", _text(draw(measure_specs())),
                _text(draw(measure_specs()))]
        if draw(st.booleans()):
            argv.append(f"--alpha={draw(alphas)}")
    else:
        argv = ["state", _text(draw(state_specs()))]
    return argv + draw(common())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(argvs())
def test_cli_input_boundary(argv):
    code, out, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), (argv, err)
    assert _run(argv) == (code, out, err)
