"""Batch command-line front-end.

Subcommands build measures/states/observables from files or inline JSON
specs, run one functional or a verification suite, and write deterministic
JSON (canonical) or CSV (convenience) reports.  Every number in the output
comes from exactly one library call; the CLI only formats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import bounds, metrics
from .exceptions import (AccuracyError, ConvergenceError, DomainError,
                         GridTooSmallError, InternalError, QuncertError,
                         ResourceError)
from .measures import (GridMeasure, alpha_deviation, gaussian_measure,
                       measure_from_spec, overall_width, point_mass,
                       save_measure_csv, std_deviation)
from .observables import Sharp, SmearedPosition, observable_from_spec
from .states import (COVARIANT_GRID, DEFAULT_GRID, UR_ENSEMBLE_GRID, GridSpec,
                     momentum_distribution, position_distribution,
                     save_wavefunction_csv, state_from_spec, test_ensemble)
from .transport import wasserstein

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (DomainError, 2),
    (ResourceError, 3),
    (ConvergenceError, 4),
    (GridTooSmallError, 5),
    (AccuracyError, 6),
    (InternalError, 7),
)


# -- input plumbing -----------------------------------------------------------

def _load_json_arg(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _looks_like_path(text: str) -> bool:
    return not text.lstrip().startswith(("{", "@")) \
        and (os.sep in text or text.endswith(".csv"))


def _spec_arg(text: str, from_spec, *context):
    """Build from a CSV path (the file family of from_spec) or a JSON spec."""
    if _looks_like_path(text):
        if not os.path.exists(text):
            raise DomainError(f"no such file: {text}")
        return from_spec({"family": "file", "path": text}, *context)
    return from_spec(_load_json_arg(text), *context)


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError("grid must be given as x0,dx,N")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _resolve_grid(args: argparse.Namespace,
                  fallback: GridSpec | None) -> GridSpec | None:
    # parsed here, not by argparse, so that a grid over the size cap exits 3
    return fallback if args.grid is None else _parse_grid(args.grid)


# -- output plumbing -------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quncert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _flatten(value, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, repr(value) if isinstance(value, float) else str(value)))


def _key_value_csv(payload) -> str:
    rows: list[tuple[str, str]] = []
    _flatten(bounds._sanitize(payload), "", rows)
    return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)


# -- subcommand handlers ------------------------------------------------------------

def _cmd_measure(args: argparse.Namespace) -> dict:
    m = _spec_arg(args.measure, measure_from_spec)
    return {
        "n_atoms": len(m),
        "mean": m.mean(),
        "std": std_deviation(m),
        "alpha": args.alpha,
        "alpha_deviation": alpha_deviation(m, args.alpha),
        "eps": args.eps,
        "overall_width": overall_width(m, args.eps),
    }


def _cmd_wasserstein(args: argparse.Namespace) -> dict:
    m1 = _spec_arg(args.first, measure_from_spec)
    m2 = _spec_arg(args.second, measure_from_spec)
    alpha = math.inf if args.alpha == "inf" else float(args.alpha)
    return {"alpha": _render_alpha(alpha),
            "distance": wasserstein(m1, m2, alpha)}


def _render_alpha(alpha: float):
    return "inf" if alpha == math.inf else alpha


def _law_summary(m: GridMeasure, eps: float) -> dict:
    return {"mean": m.mean(), "std": std_deviation(m),
            "overall_width": overall_width(m, eps)}


def _cmd_state(args: argparse.Namespace) -> dict:
    grid, hbar = _resolve_grid(args, DEFAULT_GRID), args.hbar
    s = _spec_arg(args.state, state_from_spec, grid, hbar)
    qlaw = position_distribution(s)
    plaw = momentum_distribution(s, hbar)
    if args.save_position:
        save_measure_csv(qlaw, args.save_position)
    if args.save_momentum:
        save_measure_csv(plaw, args.save_momentum)
    if args.save_wavefunction:
        if len(s.components) != 1:
            raise DomainError("only pure states have a wavefunction file form")
        save_wavefunction_csv(s.components[0][1], args.save_wavefunction)
    return {"grid": [grid.x0, grid.dx, grid.n], "hbar": hbar,
            "components": len(s.components), "eps": args.eps,
            "position": _law_summary(qlaw, args.eps),
            "momentum": _law_summary(plaw, args.eps)}


def _cmd_groundstate(args: argparse.Namespace) -> dict:
    grid = _resolve_grid(args, None)
    g = bounds.ground_energy(args.alpha, args.beta, grid, tol=args.tol,
                             boundary_tol=args.boundary_tol)
    return {"alpha": args.alpha, "beta": args.beta, "tol": args.tol,
            "ground_energy": g,
            "c_constant": bounds.c_from_ground_energy(args.alpha, args.beta, g)}


def _cmd_metric(args: argparse.Namespace) -> dict:
    grid, hbar = _resolve_grid(args, DEFAULT_GRID), args.hbar
    obs = observable_from_spec(_load_json_arg(args.observable), grid, hbar)
    name = args.mode
    if name == "resolution":
        est = metrics.resolution_width(obs, args.eps, grid, hbar=hbar)
        return {"functional": name, "eps": args.eps,
                "estimate": est}
    target = (Sharp(obs.axis) if args.target is None
              else observable_from_spec(_load_json_arg(args.target), grid, hbar))
    if name == "distance":
        ensemble = test_ensemble(grid, hbar, args.seed)
        est = metrics.observable_distance(obs, target, args.alpha, ensemble,
                                          hbar)
        return {"functional": name, "alpha": args.alpha,
                "estimate": est}
    if name == "noise":
        ensemble = test_ensemble(grid, hbar, args.seed)
        est = metrics.global_noise_error(target, obs, ensemble, hbar)
        return {"functional": name, "estimate": est}
    axis = target.axis
    cfg = metrics.default_probe_config(grid, args.eps, axis, hbar,
                                       delta=args.delta, seed=args.seed)
    if name == "error-bar":
        est = (metrics.error_bar_width(obs, target, cfg, grid, hbar)
               if args.delta is not None else
               metrics.gross_error_bar_width(obs, target, cfg, grid, hbar))
    elif name == "bias-free":
        est = (metrics.bias_free_error(obs, target, cfg, grid, hbar)
               if args.delta is not None else
               metrics.gross_bias_free_error(obs, target, cfg, grid, hbar))
    else:
        return {"functional": name, "eps": args.eps, "delta": cfg.delta,
                "bias": metrics.bias(obs, target, cfg, grid, hbar)}
    return {"functional": name, "eps": args.eps, "delta": args.delta,
            "estimate": est}


def _state(spec, grid: GridSpec, hbar: float):
    """The state of a JSON spec; none given is the unit Gaussian."""
    return state_from_spec(_load_json_arg(spec) if spec else
                           {"family": "gaussian", "sigma": 1.0}, grid, hbar)


def _connection_instances(spec, grid: GridSpec, hbar: float) -> list:
    # the observable is built on the grid the probes use
    return ([observable_from_spec(_load_json_arg(spec), grid, hbar)]
            if spec else [SmearedPosition(gaussian_measure(0.0, 1.0)),
                          SmearedPosition(point_mass(2.0))])


def _cmd_verify(args: argparse.Namespace):
    if args.mode is None:
        raise DomainError("pass --suite all or --relation NAME")
    _, fallback, check = _VERIFY_MODES[args.mode]
    if fallback is None and args.grid is not None:  # the suite
        raise DomainError("the suite runs on its own named grids; "
                          "it takes no --grid or QUNCERT_GRID")
    return check(args, _resolve_grid(args, fallback))


def _cmd_demo(args: argparse.Namespace) -> dict:
    grid = _resolve_grid(args, bounds.DEMO_GRID)
    return bounds.demonstrate_sharp_marginal_divergence(grid, args.hbar,
                                                        eps2=args.eps2)


# -- parser ---------------------------------------------------------------------------

# every flag of `metric` and `verify`, with the input flags of the others,
# as add_argument keywords; `metric` overrides two.  An input flag also reads
# QUNCERT_<NAME>, and an empty variable counts as unset; argparse applies
# the type to a string default, so a malformed variable is rejected like a
# malformed flag.
_INPUTS = ("grid", "hbar", "seed")
_FLAGS = {
    "state": {"help": "JSON state spec"},
    "tau": {"help": "JSON generator-state spec"},
    "observable": {"help": "JSON observable spec"},
    "target": {"help": "JSON spec; default: sharp observable of the same axis"},
    "alpha": {"type": float, "default": 2.0},
    "beta": {"type": float, "default": 2.0},
    "eps": {"type": float, "default": 0.05},
    "eps2": {"type": float, "default": 0.05},
    "delta": {"type": float,
              "help": "fixed localization width; omit for the shrinking sweep"},
    "grid": {"help": "grid as x0,dx,N (env QUNCERT_GRID)"},
    "hbar": {"type": float, "default": 1.0,
             "help": "action scale (env QUNCERT_HBAR, default 1)"},
    "seed": {"type": int, "default": 0,
             "help": "rng seed (env QUNCERT_SEED, default 0)"},
}
_METRIC_FLAGS = {**_FLAGS, "alpha": {"type": float, "default": 1.0},
                 "observable": {"required": True, "help": "JSON spec or @file"}}


def _default(name: str, spec: dict):
    return (os.environ.get(f"QUNCERT_{name.upper()}") if name in _INPUTS
            else None) or spec.get("default")


def _add_common(p: argparse.ArgumentParser, *inputs: str) -> None:
    """The output flags and key,value CSV, plus the input flags the
    subcommand reads."""
    for name in inputs:
        spec = _FLAGS[name]
        p.add_argument(f"--{name}", **{**spec, "default": _default(name, spec)})
    p.add_argument("--out", help="write output to this path (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(to_csv=_key_value_csv)


# the flags each mode reads besides --out and --format; any other flag of
# its subcommand exits 2 (see _read_row)
_PROBED = ("observable", "target", "eps", "delta", "grid", "hbar", "seed")
_METRIC_MODES = {
    "distance": ("observable", "target", "alpha", "grid", "hbar", "seed"),
    "error-bar": _PROBED,
    "bias-free": _PROBED,
    "bias": _PROBED,
    "resolution": ("observable", "eps", "grid", "hbar"),
    "noise": ("observable", "target", "grid", "hbar", "seed"),
}
# verify modes: (flags, grid without --grid, check of the arguments on that
# grid); the suite has no such grid, and rejects --grid and QUNCERT_GRID
_VERIFY_MODES = {
    "all": (("grid", "hbar", "seed"), None,
            lambda a, g: bounds.run_suite(seed=a.seed, hbar=a.hbar)),
    "preparation": (
        ("state", "alpha", "beta", "grid", "hbar"), UR_ENSEMBLE_GRID,
        lambda a, g: [bounds.verify_preparation_ur(
            _state(a.state, g, a.hbar), a.alpha, a.beta, a.hbar)]),
    "overall-width": (("state", "eps", "eps2", "grid", "hbar"), DEFAULT_GRID,
                      lambda a, g: [bounds.verify_overall_width_ur(
                          _state(a.state, g, a.hbar), a.eps, a.eps2, a.hbar)]),
    "covariant-error": (
        ("tau", "eps", "eps2", "grid", "hbar"), COVARIANT_GRID,
        lambda a, g: [bounds.verify_covariant_error_ur(
            _state(a.tau, g, a.hbar), a.eps, a.eps2, a.hbar)]),
    "covariant-resolution": (
        ("tau", "eps", "eps2", "grid", "hbar"), COVARIANT_GRID,
        lambda a, g: [bounds.verify_covariant_resolution_ur(
            _state(a.tau, g, a.hbar), a.eps, a.eps2, a.hbar)]),
    "metric": (("tau", "alpha", "beta", "grid", "hbar"), COVARIANT_GRID,
               lambda a, g: [bounds.verify_metric_ur(
                   _state(a.tau, g, a.hbar), a.alpha, a.beta, hbar=a.hbar)]),
    "noise": (("tau", "grid", "hbar"), COVARIANT_GRID, lambda a, g: [
        bounds.verify_noise_ur(_state(a.tau, g, a.hbar), a.hbar)]),
    "connections": (("observable", "grid", "hbar", "seed"), DEFAULT_GRID,
                    lambda a, g: bounds.verify_connections(
                        _connection_instances(a.observable, g, a.hbar), g,
                        hbar=a.hbar, seed=a.seed)),
}


def _add_modes(p: argparse.ArgumentParser, rows: dict, specs: dict) -> None:
    """The flags some mode reads, without defaults so that _read_row sees
    which were given, the output flags, and each row as the epilog."""
    for name, spec in specs.items():
        if any(name in row for row in rows.values()):
            p.add_argument(f"--{name}",
                           **{**spec, "default": argparse.SUPPRESS})
    _add_common(p)
    p.set_defaults(rows=rows, specs=specs)
    p.epilog = "flags each mode reads; any other exits 2:" + "".join(
        f"\n  {mode}: --{' --'.join(row)}" for mode, row in rows.items())


def _read_row(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
    """Rejects each given flag the mode does not read, then sets each flag
    it reads but was not given to its default."""
    row = args.rows[args.mode]
    unread = [f"--{name}" for name in args.specs
              if hasattr(args, name) and name not in row]
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    for name in [name for name in row if not hasattr(args, name)]:
        spec = args.specs[name]
        value, kind = _default(name, spec), spec.get("type", str)
        try:
            setattr(args, name,
                    kind(value) if isinstance(value, str) else value)
        except ValueError:
            parser.error(f"argument --{name}: invalid {kind.__name__} value: "
                         f"{value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quncert",
        description="Measurement uncertainty toolkit: spread functionals, "
                    "transport distances, error widths, and bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="spread functionals of one measure")
    p.add_argument("measure", help="CSV path or JSON spec")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("wasserstein", help="transport distance of two measures")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--alpha", default="1",
                   help="order >= 1, or 'inf'")
    _add_common(p)
    p.set_defaults(handler=_cmd_wasserstein)

    p = sub.add_parser("state", help="build a state and summarize its laws")
    p.add_argument("state", help="CSV path or JSON spec")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--save-position")
    p.add_argument("--save-momentum")
    p.add_argument("--save-wavefunction")
    _add_common(p, "grid", "hbar")
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser("groundstate",
                       help="ground energy and deviation-product constant")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--boundary-tol", type=float, default=None)
    _add_common(p, "grid")
    p.set_defaults(handler=_cmd_groundstate)

    p = sub.add_parser("metric", help="one error functional of an observable",
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", metavar="functional", choices=_METRIC_MODES,
                   help="%(choices)s")
    _add_modes(p, _METRIC_MODES, _METRIC_FLAGS)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("verify", help="check one relation or the whole battery",
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--suite", dest="mode", choices=("all",),
                       help="'all' runs every relation")
    group.add_argument("--relation", dest="mode",
                       choices=[mode for mode in _VERIFY_MODES if mode != "all"])
    _add_modes(p, {mode: entry[0] for mode, entry in _VERIFY_MODES.items()},
               _FLAGS)
    p.set_defaults(handler=_cmd_verify, to_csv=bounds.reports_to_csv)

    p = sub.add_parser("demo", help="sharp-marginal divergence demonstration")
    p.add_argument("--eps2", type=float, default=0.1)
    _add_common(p, "grid", "hbar")
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) is not None:
        _read_row(parser, args)
    try:
        payload = args.handler(args)
        text = (args.to_csv(payload) if args.format == "csv"
                else bounds.to_json(payload) + "\n")
        if args.out:
            _atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
    except (QuncertError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 2 if isinstance(exc, (ValueError, OSError)) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
