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

from quncert import cli
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


# -- the flags each mode of `metric` and `verify --relation` reads ------------

SMALL_MEASURES = [{"family": "point", "at": 0.5},
                  {"family": "two_point", "x1": -0.5, "x2": 1.0, "w1": 0.3},
                  {"family": "uniform", "lo": -0.5, "hi": 0.5, "n_atoms": 5},
                  {"family": "gaussian", "sigma": 0.5, "n_atoms": 41}]
MAPS = [{"kind": "identity"}, {"kind": "table", "xs": [0.0, 1.0],
                               "ys": [1.0, -1.0]},
        {"kind": "cos_shift", "amplitude": 0.25},
        {"kind": "bounded_range", "half_range": 2.0}]
SMALL_STATES = [{"family": "gaussian", "sigma": 1.0},
                {"family": "gaussian", "center": 0.5, "sigma": 0.7},
                {"family": "box", "center": 0.0, "width": 2.0},
                {"family": "hermite", "n": 1}, {"family": "cell"}]
ODD_SPECS = ["{}", "x", "[]", '{"kind": "nope"}', '{"family": "nope"}']


@st.composite
def observable_specs(draw):
    """Every observable kind, with small measures, maps and generators."""
    kind = draw(st.sampled_from(["sharp_position", "sharp_momentum",
                                 "smeared_position", "smeared_momentum",
                                 "trivial", "pushforward",
                                 "covariant_marginal"]))
    spec = {"kind": kind}
    if kind in ("smeared_position", "smeared_momentum", "trivial"):
        spec["measure"] = draw(st.sampled_from(SMALL_MEASURES))
    if kind == "pushforward":
        spec["inner"] = draw(st.sampled_from(
            [{"kind": "sharp_position"},
             {"kind": "smeared_position", "measure": SMALL_MEASURES[0]}]))
        spec["map"] = draw(st.sampled_from(MAPS))
    if kind == "covariant_marginal":
        spec["tau"] = draw(st.sampled_from(SMALL_STATES[:2]))
    if kind in ("trivial", "covariant_marginal"):
        spec["axis"] = draw(st.sampled_from(["position", "momentum"]))
    return json.dumps(spec)


def _flag_values(draw, name):
    """A usual value of the flag in about three draws of four, else an odd
    one."""
    if name in ("observable", "target"):
        return draw(mostly(observable_specs(), st.sampled_from(ODD_SPECS)))
    if name in ("state", "tau"):
        return draw(mostly(st.sampled_from(SMALL_STATES).map(json.dumps),
                           st.sampled_from(ODD_SPECS)))
    if name in ("alpha", "beta"):
        # the constants c(alpha, beta) of these pairs are solved once
        return draw(mostly(st.sampled_from(["1", "2"]),
                           st.sampled_from(["nan", "inf", "0.5", "x", "-1"])))
    if name in ("eps", "eps2"):
        return draw(mostly(st.floats(0.01, 0.5), flags))
    if name == "delta":
        return draw(mostly(st.floats(0.05, 4.0), flags))
    if name == "hbar":
        return draw(mostly(st.floats(0.25, 4.0), flags))
    if name == "seed":
        return draw(mostly(st.integers(0, 1000),
                           st.sampled_from(["-1", "x", "1.5", "1e3"])))
    # a grid: odd in one draw of eight, else at most 256 points, mostly
    # centred on 0
    if draw(st.integers(0, 7)) == 0:
        return (f"{draw(flags)},{draw(mostly(st.floats(0.01, 1.0), flags))},"
                f"{draw(st.sampled_from([0, 3, 4, 100, 256]))}")
    n = draw(st.sampled_from([64, 128, 256]))
    dx = draw(st.sampled_from([0.0625, 0.125, 0.25]))
    return f"{-0.5 * n * dx + draw(st.sampled_from([0.0, 0.0, 3.0]))},{dx},{n}"


MODE_FLAGS = {"metric": ("observable", "target", "alpha", "eps", "delta",
                         "grid", "hbar", "seed"),
              "verify": ("state", "tau", "observable", "alpha", "beta", "eps",
                         "eps2", "grid", "hbar", "seed")}


@st.composite
def mode_argvs(draw):
    """`metric FUNCTIONAL` or `verify --relation NAME` with any subset of
    the subcommand's flags, read or not, in any order and with the mode
    anywhere among them; --grid (at most 256 points) always, so no run falls
    back to a large default grid."""
    command = draw(st.sampled_from(["metric", "verify"]))
    if command == "metric":
        mode = draw(st.sampled_from(list(cli._METRIC_MODES)))
        head, reads = [mode], cli._METRIC_MODES[mode]
    else:
        mode = draw(st.sampled_from([m for m in cli._VERIFY_MODES
                                     if m != "all"]))
        head, reads = ["--relation", mode], cli._VERIFY_MODES[mode][0]
    # a flag the mode reads in one draw of two, another in one of eight;
    # the required --observable of metric is mostly given
    names = ["grid"] + [
        name for name in MODE_FLAGS[command] if name != "grid"
        and draw(st.integers(0, 7)) < (4 if name in reads else 1)]
    if command == "metric" and draw(st.integers(0, 7)):
        names.append("observable")
    names = draw(st.permutations(sorted(set(names))))
    values = [str(_flag_values(draw, name)) for name in names]
    # a value as its own argument, unless argparse would read it as a flag
    tokens = [[f"--{name}", value] if draw(st.booleans())
              and not value.startswith("-") else [f"--{name}={value}"]
              for name, value in zip(names, values)]
    tokens.insert(draw(st.integers(0, len(tokens))), head)
    # argparse reports a malformed number, or a missing required flag,
    # before any unread flag
    parsed = all(_parses(name, value) for name, value in zip(names, values))
    unread = [name for name in names if name not in reads and parsed
              and (command == "verify" or "observable" in names)]
    return [command, *(token for group in tokens for token in group)], unread


def _parses(name, value) -> bool:
    kind = {"seed": int, "hbar": float, "alpha": float, "beta": float,
            "eps": float, "eps2": float, "delta": float}.get(name, str)
    try:
        kind(value)
    except ValueError:
        return False
    return True


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(mode_argvs())
def test_cli_mode_flags(case):
    """The properties of test_cli_input_boundary hold for every mode and
    flag, and a flag the mode does not read exits 2 as unrecognized."""
    argv, unread = case
    code, out, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), (argv, err)
    if unread:
        assert code == 2 and "unrecognized arguments" in err, (argv, err)
    assert _run(argv) == (code, out, err)
