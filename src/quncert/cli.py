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
from .observables import (Observable, Sharp, SmearedPosition,
                          observable_from_spec)
from .states import (COVARIANT_GRID, DEFAULT_GRID, UR_ENSEMBLE_GRID, GridSpec,
                     momentum_distribution, position_distribution,
                     save_wavefunction_csv, solver_grid, state_from_spec,
                     test_ensemble)
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


def _resolve_grid(args: argparse.Namespace, fallback: GridSpec) -> GridSpec:
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
    grid = _resolve_grid(args, solver_grid(args.beta))
    g = bounds.ground_energy(args.alpha, args.beta, grid, tol=args.tol,
                             boundary_tol=args.boundary_tol)
    return {"alpha": args.alpha, "beta": args.beta, "tol": args.tol,
            "ground_energy": g,
            "c_constant": bounds.c_from_ground_energy(args.alpha, args.beta, g)}


def _cmd_metric(args: argparse.Namespace) -> dict:
    grid, hbar, seed = _resolve_grid(args, DEFAULT_GRID), args.hbar, args.seed
    obs = observable_from_spec(_load_json_arg(args.observable), grid, hbar)
    target = (Sharp(obs.axis) if args.target is None
              else observable_from_spec(_load_json_arg(args.target), grid, hbar))
    name = args.functional
    if name == "distance":
        ensemble = test_ensemble(grid, hbar, seed)
        est = metrics.observable_distance(obs, target, args.alpha, ensemble,
                                          hbar)
        return {"functional": name, "alpha": args.alpha,
                "estimate": est}
    if name == "resolution":
        est = metrics.resolution_width(obs, args.eps, grid, hbar=hbar)
        return {"functional": name, "eps": args.eps,
                "estimate": est}
    if name == "noise":
        ensemble = test_ensemble(grid, hbar, seed)
        est = metrics.global_noise_error(target, obs, ensemble, hbar)
        return {"functional": name, "estimate": est}
    axis = target.axis
    cfg = metrics.default_probe_config(grid, args.eps, axis, hbar,
                                       delta=args.delta, seed=seed)
    if name == "error-bar":
        est = (metrics.error_bar_width(obs, target, cfg, grid, hbar)
               if args.delta is not None else
               metrics.gross_error_bar_width(obs, target, cfg, grid, hbar))
    elif name == "bias-free":
        est = (metrics.bias_free_error(obs, target, cfg, grid, hbar)
               if args.delta is not None else
               metrics.gross_bias_free_error(obs, target, cfg, grid, hbar))
    elif name == "bias":
        return {"functional": name, "eps": args.eps, "delta": cfg.delta,
                "bias": metrics.bias(obs, target, cfg, grid, hbar)}
    else:
        raise DomainError(f"unknown functional {name!r}")
    return {"functional": name, "eps": args.eps, "delta": args.delta,
            "estimate": est}


def _cmd_verify(args: argparse.Namespace):
    hbar, seed = args.hbar, args.seed
    if args.suite:
        if args.suite != "all":
            raise DomainError("the only suite is 'all'")
        if args.grid is not None:
            raise DomainError("the suite runs on its own named grids; "
                              "it takes no --grid or QUNCERT_GRID")
        return bounds.run_suite(seed=seed, hbar=hbar)
    relation = args.relation
    if relation is None:
        raise DomainError("pass --suite all or --relation NAME")
    if relation in ("preparation", "overall-width"):
        grid = _resolve_grid(args, UR_ENSEMBLE_GRID if relation == "preparation"
                             else DEFAULT_GRID)
        spec = _load_json_arg(args.state) if args.state else \
            {"family": "gaussian", "sigma": 1.0}
        s = state_from_spec(spec, grid, hbar)
        if relation == "preparation":
            return [bounds.verify_preparation_ur(s, args.alpha, args.beta, hbar)]
        return [bounds.verify_overall_width_ur(s, args.eps, args.eps2, hbar)]
    if relation == "connections":
        # the observable is built on the grid the probes use
        grid = _resolve_grid(args, DEFAULT_GRID)
        instances = [observable_from_spec(_load_json_arg(args.observable),
                                          grid, hbar)] if args.observable else \
            bounds_default_connection_instances()
        return bounds.verify_connections(instances, grid, hbar=hbar, seed=seed)
    grid = _resolve_grid(args, COVARIANT_GRID)
    spec = _load_json_arg(args.tau) if args.tau else \
        {"family": "gaussian", "sigma": 1.0}
    tau = state_from_spec(spec, grid, hbar)
    if relation == "covariant-error":
        return [bounds.verify_covariant_error_ur(tau, args.eps, args.eps2, hbar)]
    if relation == "covariant-resolution":
        return [bounds.verify_covariant_resolution_ur(tau, args.eps,
                                                      args.eps2, hbar)]
    if relation == "metric":
        return [bounds.verify_metric_ur(tau, args.alpha, args.beta, hbar=hbar)]
    if relation == "noise":
        return [bounds.verify_noise_ur(tau, hbar)]
    raise DomainError(f"unknown relation {relation!r}")


def bounds_default_connection_instances() -> list[Observable]:
    return [SmearedPosition(gaussian_measure(0.0, 1.0)),
            SmearedPosition(point_mass(2.0))]


def _cmd_demo(args: argparse.Namespace) -> dict:
    grid = _resolve_grid(args, bounds.DEMO_GRID)
    return bounds.demonstrate_sharp_marginal_divergence(grid, args.hbar,
                                                        eps2=args.eps2)


# -- parser ---------------------------------------------------------------------------

# input flags: (type, default, help); each also reads QUNCERT_<NAME>, and an
# empty variable counts as unset.  argparse applies the type to a string
# default, so a malformed variable is rejected like a malformed flag.
_INPUT_FLAGS = {
    "grid": (None, None, "grid as x0,dx,N (env QUNCERT_GRID)"),
    "hbar": (float, 1.0, "action scale (env QUNCERT_HBAR, default 1)"),
    "seed": (int, 0, "rng seed (env QUNCERT_SEED, default 0)"),
}


def _add_common(p: argparse.ArgumentParser, *inputs: str) -> None:
    """The output flags and key,value CSV, plus the input flags the
    subcommand reads."""
    for name in inputs:
        kind, default, text = _INPUT_FLAGS[name]
        p.add_argument(f"--{name}", type=kind, help=text,
                       default=os.environ.get(f"QUNCERT_{name.upper()}")
                       or default)
    p.add_argument("--out", help="write output to this path (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(to_csv=_key_value_csv)


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

    p = sub.add_parser("metric", help="one error functional of an observable")
    p.add_argument("functional", choices=("distance", "error-bar", "bias-free",
                                          "bias", "resolution", "noise"))
    p.add_argument("--observable", required=True, help="JSON spec or @file")
    p.add_argument("--target", default=None,
                   help="JSON spec; default: sharp observable of the same axis")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None,
                   help="fixed localization width; omit for the shrinking sweep")
    _add_common(p, "grid", "hbar", "seed")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("verify", help="check one relation or the whole battery")
    p.add_argument("--suite", default=None, help="'all' runs every relation")
    p.add_argument("--relation", default=None,
                   choices=("preparation", "overall-width", "covariant-error",
                            "covariant-resolution", "metric", "noise",
                            "connections"))
    p.add_argument("--state", default=None, help="JSON state spec")
    p.add_argument("--tau", default=None, help="JSON generator-state spec")
    p.add_argument("--observable", default=None, help="JSON observable spec")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--eps2", type=float, default=0.05)
    _add_common(p, "grid", "hbar", "seed")
    p.set_defaults(handler=_cmd_verify, to_csv=bounds.reports_to_csv)

    p = sub.add_parser("demo", help="sharp-marginal divergence demonstration")
    p.add_argument("--eps2", type=float, default=0.1)
    _add_common(p, "grid", "hbar")
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
