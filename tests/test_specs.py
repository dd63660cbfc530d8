"""The typed spec reader and the CSV table codec at the input boundary."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from quncert import (DomainError, GridSpec, map_from_spec, measure_from_spec,
                     observable_from_spec, state_from_spec)
from quncert import measures
from quncert.cli import main
from quncert.measures import (_MEASURE_FAMILIES, _read_csv,
                              load_measure_csv, save_measure_csv,
                              sorted_measure)
from quncert.observables import _MAP_KINDS, _OBSERVABLE_KINDS
from quncert.states import (_STATE_FAMILIES, load_wavefunction_csv,
                            make_gaussian, save_wavefunction_csv)
from quncert.transport import optimal_coupling_lp, save_coupling_csv

GRID = GridSpec.symmetric(16.0, 512)

# one valid spec per row of every table
VALID = {
    "measure": [{"family": "point", "at": 1.0},
                {"family": "two_point", "x1": 0, "x2": 1},
                {"family": "uniform", "lo": 0, "hi": 1, "n_atoms": 3},
                {"family": "gaussian", "sigma": 1, "n_atoms": 11},
                {"atoms": [0, 1], "weights": [1, 1]}],
    "state": [{"family": "gaussian"}, {"family": "box", "width": 1},
              {"family": "hermite", "n": 2},
              {"family": "random", "width": 2}, {"family": "cell"},
              {"family": "mixture",
               "components": [{"family": "cell", "weight": 1}]}],
    "map": [{"kind": "identity"}, {"kind": "table", "xs": [0, 1], "ys": [0, 2]},
            {"kind": "cos_shift", "amplitude": 0.5},
            {"kind": "bounded_range", "half_range": 2}],
    "observable": [{"kind": "sharp_position"}, {"kind": "sharp_momentum"},
                   {"kind": "smeared_position",
                    "measure": {"family": "point"}},
                   {"kind": "smeared_momentum",
                    "measure": {"family": "point"}},
                   {"kind": "trivial", "measure": {"family": "point"}},
                   {"kind": "pushforward", "inner": {"kind": "sharp_position"},
                    "map": {"kind": "identity"}},
                   {"kind": "covariant_marginal",
                    "tau": {"family": "gaussian"}}],
}
READERS = {
    "measure": measure_from_spec,
    "state": lambda spec: state_from_spec(spec, GRID),
    "map": map_from_spec,
    "observable": lambda spec: observable_from_spec(spec, GRID),
}


def _cases():
    for what, specs in VALID.items():
        for spec in specs:
            yield pytest.param(what, spec, id=f"{what}-{json.dumps(spec)[:40]}")


@pytest.mark.parametrize("what,spec", _cases())
def test_valid_specs_build_and_a_stray_key_is_named(what, spec):
    READERS[what](spec)
    with pytest.raises(DomainError, match=r"unrecognized keys \['zz'\]; "
                                          r"allowed keys are \["):
        READERS[what]({**spec, "zz": 1})


def test_allowed_keys_are_the_row_parameters_plus_the_tag():
    tables = [(READERS["measure"], _MEASURE_FAMILIES, "family"),
              (READERS["state"], _STATE_FAMILIES, "family"),
              (READERS["map"], _MAP_KINDS, "kind"),
              (READERS["observable"], _OBSERVABLE_KINDS, "kind")]
    for read, table, tag in tables:
        for name, (_, params) in table.items():
            with pytest.raises(DomainError) as err:
                read({tag: name, "zz": 0})
            assert str(err.value).endswith(f"are {sorted({tag, *params})}")
    # a measure spec without a family is the explicit form
    assert list(_MEASURE_FAMILIES[None][1]) == ["atoms", "weights"]
    with pytest.raises(DomainError, match="unrecognized keys"):
        measure_from_spec({"atoms": [0.0], "weights": [1.0],
                           "family": "point"})


@pytest.mark.parametrize("spec,message", [
    ({"family": "hermite", "n": 2.5}, "n must be an integer"),
    ({"family": "hermite", "n": True}, "n must be an integer, not bool"),
    ({"family": "gaussian", "sigma": "1"}, "sigma must be a finite number, not str"),
    ({"family": "gaussian", "sigma": None}, "not NoneType"),
    ({"family": "gaussian", "center": [1]}, "center must be a finite number, not list"),
    ({"family": "gaussian", "sigma": 10 ** 400}, "sigma must be a finite number, not int"),
    ({"family": "gaussian", "sigma": float("nan")}, "finite number"),
    ({"family": "gaussian", "momentum": float("inf")}, "finite number"),
    ({"family": "random", "width": 2, "seed": 1.5}, "seed must be an integer"),
    ({"family": "file", "path": 3}, "path must be a string, not int"),
    ({"family": "mixture", "components": {"a": 1}}, "components must be a list"),
    ({"family": "mixture", "components": [1]}, r"components\[0\] must be an object"),
    ({"family": "mixture", "components": [{"family": "cell", "weight": True}]},
     "weight must be a finite number, not bool"),
    ({"family": "box"}, "state spec missing key 'width'"),
    ({"family": 3}, "unknown state family 3"),
    ({"family": ["gaussian"]}, r"unknown state family \['gaussian'\]"),
    ([], "state spec must be a dict"),
])
def test_state_values_are_typed(spec, message):
    with pytest.raises(DomainError, match=message):
        state_from_spec(spec, GRID)


@pytest.mark.parametrize("spec,message", [
    ({"family": "uniform", "lo": 0, "hi": 1, "n_atoms": "5"}, "n_atoms must be an integer"),
    ({"family": "two_point", "x1": 0, "x2": 1, "w1": False}, "w1 must be a finite number"),
    ({"atoms": [0, "1"], "weights": [1, 1]}, r"atoms\[1\] must be a finite number"),
    ({"atoms": [[0, 1]], "weights": [1]}, r"atoms\[0\] must be a finite number, not list"),
    ({"atoms": [0, 1e400], "weights": [1, 1]}, r"atoms\[1\] must be a finite number"),
    ({"atoms": [0, 1], "weights": 1}, "weights must be a list"),
    ({"atoms": [0, 1]}, "measure spec missing key 'weights'"),
])
def test_measure_values_are_typed(spec, message):
    with pytest.raises(DomainError, match=message):
        measure_from_spec(spec)


def test_observable_and_map_values_are_typed():
    with pytest.raises(DomainError, match="measure must be an object"):
        observable_from_spec({"kind": "smeared_position", "measure": 1.0}, GRID)
    with pytest.raises(DomainError, match="axis must be a string"):
        observable_from_spec({"kind": "trivial", "axis": 1,
                              "measure": {"family": "point"}}, GRID)
    with pytest.raises(DomainError, match=r"xs\[0\] must be a finite number"):
        map_from_spec({"kind": "table", "xs": [None, 1], "ys": [0, 1]})
    with pytest.raises(DomainError, match="amplitude must be a finite number"):
        map_from_spec({"kind": "cos_shift", "amplitude": 1e400})


def test_integral_floats_are_counts_and_ints_are_numbers():
    a = measure_from_spec({"family": "uniform", "lo": 0, "hi": 2, "n_atoms": 5.0})
    b = measure_from_spec({"family": "uniform", "lo": 0.0, "hi": 2.0, "n_atoms": 5})
    assert np.array_equal(a.atoms, b.atoms) and np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("text", [
    '{"family": "gaussian", "sigma": null}',
    '{"family": "gaussian", "center": [1]}',
    '{"family": "gaussian", "sigma": 1%s}' % ("0" * 400),
    '{"family": "gaussian", "sigma": NaN}',
    '{"family": "gaussian", "sigma": Infinity}',
    '{"family": "gaussian", "sigma": 1e400}',
])
def test_state_reproducers_exit_2_without_traceback(text):
    # the first three ended in a TypeError or OverflowError traceback
    run = subprocess.run([sys.executable, "-m", "quncert.cli", "state", text],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert "DomainError" in run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr


@pytest.mark.parametrize("text", ['{"family": "hermite", "n": 2.5}',
                                  '{"family": "hermite", "n": true}',
                                  '{"family": "gaussian", "sigma": "1"}'])
def test_coerced_values_exit_2(capsys, text):
    assert main(["state", text]) == 2
    assert "DomainError" in capsys.readouterr().err


# -- CSV tables -----------------------------------------------------------------

def test_written_tables_keep_their_byte_format(tmp_path):
    m = sorted_measure([0.1, -2.0, 3e-20], [1.0, 2.0, 1.0])
    save_measure_csv(m, str(tmp_path / "m.csv"))
    assert (tmp_path / "m.csv").read_bytes().decode() == (
        "x,w\r\n-2.0,0.5\r\n3e-20,0.25\r\n0.1,0.25\r\n")
    wf = make_gaussian(GridSpec(-1.0, 0.5, 4), 0.0, 0.0, 0.6)
    save_wavefunction_csv(wf, str(tmp_path / "wf.csv"))
    lines = (tmp_path / "wf.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "x,re,im" and lines[1].startswith("-1.0,")
    assert lines[3] == f"0.0,{float(wf.amplitudes[2].real)!r},0.0"
    coupling, _ = optimal_coupling_lp(m, sorted_measure([0.0, 1.0], [1, 1]), 2.0)
    save_coupling_csv(coupling, str(tmp_path / "c.csv"))
    rows = (tmp_path / "c.csv").read_bytes().decode().split("\r\n")
    assert rows[0] == "i,j,xi,yj,w" and rows[1] == "0,0,-2.0,0.0,0.5"


def test_table_reader_rules(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(" X , w ,note\n0.0,1,a\n\n  \n1.0,3\n")
    m = load_measure_csv(str(path))
    assert m.atoms.tolist() == [0.0, 1.0] and m.weights.tolist() == [0.25, 0.75]
    for body, message in [("", "empty measure file"),
                          ("x,v\n0,1\n", "expected header 'x,w'"),
                          ("x,w\n0\n", "malformed row"),
                          ("x,w\n0,one\n", "malformed row"),
                          ("x,w\n0,inf\n", "values must be finite"),
                          ("x,w\nnan,1\n", "values must be finite"),
                          ("x,w\n", "no atoms")]:
        path.write_text(body)
        with pytest.raises(DomainError, match=message):
            load_measure_csv(str(path))
    path.write_text("x,re,im\n" + "".join(f"{x},1,0\n" for x in range(3)))
    with pytest.raises(DomainError, match="too few samples"):
        load_wavefunction_csv(str(path))
    path.write_text("x,re\n0,1\n")
    with pytest.raises(DomainError, match="expected header 'x,re,im'"):
        load_wavefunction_csv(str(path))


# cells that either reader might take differently: spaces, quotes, digits
# that only Python's float reads, C-style numbers, NUL and non-finite values
_ODD_CELLS = ["", "  ", " 7 ", "\t-1\t", "1\xa0", "+.5", "-0", "1_0", "١٢",
              "٣.٥", "0x10", "1e", ".", "#", "#1", "\x00", "1\x00", "inf",
              "-Infinity", "nan", "1e400", "-1e-400", "abc", '1"5"', '"',
              '"1.5"', '""', '"1"""', '"1\n"', '" 2\r\n"', '"\r"', '"x,y"',
              '"1"2', ' "1"', '"1" ', "\x85", " ", "é" * 40]
_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats(-1e3, 1e3).map(lambda x: f" {x:.6g} "),
    st.floats(-1e3, 1e3).map(lambda x: f'"{x!r}"'))
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_TABLES = {"measure": ("x", "w"), "state": ("x", "re", "im")}


@st.composite
def _csv_texts(draw):
    """A header and up to 8 rows of numbers with up to two extra cells, each
    row ending in a drawn line end, the last one sometimes in none.  Three
    tables in four then get one to three odd cells or extra rows (blank, of
    spaces, short, or holding an odd cell), and one in eight a wrong header."""
    what = draw(st.sampled_from(sorted(_TABLES)))
    header = _TABLES[what]
    n = len(header)
    heads = [",".join(header), " X , " + ",".join(header[1:]) + " ,note"]
    rows = [draw(st.lists(_NUMBER_CELLS, min_size=k, max_size=k))
            for k in draw(st.lists(st.integers(n, n + 2), max_size=8))]
    messy = draw(st.integers(0, 7))
    if messy == 7:
        heads = [",".join(header[:-1]), ""]
    for _ in range(messy // 2):
        i = draw(st.integers(0, len(rows)))
        odd = draw(st.sampled_from(_ODD_CELLS))
        if i < len(rows) and rows[i] and draw(st.booleans()):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = odd
        else:
            rows.insert(i, draw(st.sampled_from(
                [[], ["  "], [odd], ["1", odd], ["1", "2", odd], ["1"] * (n - 1)])))
    lines = [draw(st.sampled_from(heads)), *map(",".join, rows)]
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    return what, header, text[:len(text) - draw(st.integers(0, 1))]


def _outcome(read, path, header, what):
    try:
        table = read(path, header, what)
    except DomainError as exc:
        return "DomainError", str(exc)
    return table.shape, table.tobytes()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_csv_texts())
def test_table_reader_matches_the_csv_loop(tmp_path_factory, case):
    what, header, text = case
    path = str(tmp_path_factory.getbasetemp() / "table.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_read_csv, path, header, what) == \
            _outcome(oracles.read_csv_reference, path, header, what)


@pytest.mark.parametrize("body,numpy", [
    ("x,w\r\n0.5,1.0\r\n1.5,3.0\r\n", True),
    (" X , w ,note\n0.5,1,a\n1.5,3\r", True),
    ("x,w\n0.5,1\n  \n1.5,3\n", False),
    ('x,w\n"1_0",1\n1.5e1,3\n', False),
])
def test_numpy_reads_the_tables_it_can(tmp_path, monkeypatch, body, numpy):
    parsed, real = [], measures._loadtxt

    def spy(*args):
        table = real(*args)
        parsed.append(table is not None)
        return table

    monkeypatch.setattr(measures, "_loadtxt", spy)
    path = tmp_path / "m.csv"
    path.write_bytes(body.encode())
    table = _read_csv(str(path), ("x", "w"), "measure")
    assert parsed == [numpy]
    assert table.tobytes() == oracles.read_csv_reference(
        str(path), ("x", "w"), "measure").tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_messy_table_from_a_pipe_loads():
    # a pipe cannot be read twice: the csv loop reads it, not NumPy first
    body = "x,w\r1_0,1\r  \r20,3\r"
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "w") as fh:
        fh.write(body)
    try:
        table = _read_csv(f"/dev/fd/{read_fd}", ("x", "w"), "measure")
    finally:
        os.close(read_fd)
    assert table.tolist() == [[10.0, 20.0], [1.0, 3.0]]


def test_extra_cells_are_ignored_whatever_their_length(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,w,note\n0.0,1," + "a" * 200_000 + "\n1.0,3\n")
    m = load_measure_csv(str(path))
    assert m.atoms.tolist() == [0.0, 1.0] and m.weights.tolist() == [0.25, 0.75]


# a clean and a messy table (bare-CR ends, blank and space rows, extra
# cells, 1_0) of each kind: NumPy reads the first, the csv loop the second
_BOM_TABLES = [
    (("x", "w"), "x,w\r\n0.5,1.0\r\n1.5,3.0\r\n", True),
    (("x", "w"), " X , w ,note\r\r-1.5,1,a\r  \r1_0,1\r", False),
    (("x", "re", "im"), "x,re,im\n-1,0,0\n0,1,0.5\n1,0.5,0\n2,0,0\n", True),
    (("x", "re", "im"), "x ,RE,im,n\r\n-1,0,0\r\n\r\n0,1,0.5,a\r\n"
                        "1,0.5,0\r\n2,1_0,0\r\n", False),
]


@pytest.mark.parametrize("header,body,numpy", _BOM_TABLES)
def test_a_byte_order_mark_opening_a_table_is_dropped(tmp_path, monkeypatch,
                                                      capsys, header, body,
                                                      numpy):
    parsed, real = [], measures._loadtxt

    def spy(*args):
        table = real(*args)
        parsed.append(table is not None)
        return table

    monkeypatch.setattr(measures, "_loadtxt", spy)
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(body.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    what = "measure" if len(header) == 2 else "state"
    want = _read_csv(str(plain), header, what)
    got = _read_csv(str(marked), header, what)
    assert parsed == [numpy, numpy]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    outputs = []
    for path in (plain, marked):
        assert main([what, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("body", [
    " \ufeffx,w\n0,1\n", "\ufeff\ufeffx,w\n0,1\n", "x,\ufeffw\n0,1\n",
    "x,w\n0,\ufeff1\n", "x,w\n\ufeff0,1\n", "x,w\n0,1\n\ufeff\n",
    "x,re,\ufeffim\n0,1,0\n",
])
def test_a_byte_order_mark_elsewhere_exits_2(tmp_path, capsys, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    command = "measure" if body.count(",") == body.count("\n") else "state"
    assert main([command, str(path)]) == 2
    assert "DomainError" in capsys.readouterr().err


def test_the_savers_write_no_byte_order_mark(tmp_path, capsys):
    files = [str(tmp_path / f"{name}.csv")
             for name in ("position", "momentum", "wavefunction")]
    assert main(["state", '{"family": "gaussian"}', "--grid=-8,0.0625,256",
                 *(f"--save-{name}={path}" for name, path in
                   zip(("position", "momentum", "wavefunction"), files))]) == 0
    assert main(["verify", "--relation", "preparation", "--format", "csv",
                 f"--out={tmp_path / 'report.csv'}"]) == 0
    m = sorted_measure([0.0, 1.0], [1.0, 3.0])
    coupling, _ = optimal_coupling_lp(m, m, 2.0)
    save_coupling_csv(coupling, str(tmp_path / "coupling.csv"))
    capsys.readouterr()
    for path in sorted(tmp_path.iterdir()):
        data = path.read_bytes()
        assert data and b"\xef\xbb\xbf" not in data, path.name


@pytest.mark.parametrize("body", ["x,w\n" + "1" * 200_000 + "\n",
                                  "x,w\n0,1\n1,2,3\n" + "9" * 200_000 + "\n",
                                  "x,w," + "h" * 200_000 + "\n0,1\n"])
def test_a_cell_beyond_the_csv_field_limit_is_a_domain_error(tmp_path, body):
    # csv reads the header and the tables NumPy cannot, as a short row;
    # its field limit is 131,072 characters
    path = tmp_path / "m.csv"
    path.write_text(body)
    with pytest.raises(DomainError, match="field larger than field limit"):
        load_measure_csv(str(path))


def test_a_huge_cell_in_a_short_row_exits_2_without_traceback(tmp_path):
    big, ok = tmp_path / "big.csv", tmp_path / "ok.csv"
    big.write_text("x,w,note\n0,1\n" + "2" * 200_000 + "\n")
    ok.write_text("x,w\n0,1\n")
    run = subprocess.run([sys.executable, "-m", "quncert.cli", "wasserstein",
                          str(big), str(ok)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert "DomainError" in run.stderr and "field limit" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("body,load,message", [
    ("x,w\n", load_measure_csv, "no atoms"),
    ("x,re,im\r\n\r\n", load_wavefunction_csv, "too few samples"),
])
def test_empty_tables_raise_without_a_warning(tmp_path, body, load, message):
    path = tmp_path / "t.csv"
    path.write_bytes(body.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            load(str(path))
    command = "measure" if load is load_measure_csv else "state"
    run = subprocess.run([sys.executable, "-m", "quncert.cli", command,
                          str(path)], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1 and message in run.stderr, run.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("body,message", [
    ("-1e308,1,0\n1e308,1,0\n3e307,1,0\n4e307,1,0\n", "finite x0 and positive dx"),
    ("".join(f"{x},1e200,0\n" for x in range(4)), "state norm deviates"),
])
def test_wavefunction_values_that_overflow_are_domain_errors(tmp_path, body,
                                                             message):
    path = tmp_path / "wf.csv"
    path.write_text("x,re,im\n" + body)
    with pytest.raises(DomainError, match=message):
        load_wavefunction_csv(str(path))


def test_trivial_observable_axis_is_checked(capsys):
    spec = '{"kind": "trivial", "measure": {"family": "point"}, "axis": "foo"}'
    assert main(["metric", "resolution", "--observable", spec]) == 2
    assert "axis must be 'position' or 'momentum'" in capsys.readouterr().err
