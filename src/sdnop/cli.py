"""Command-line front end.

Subcommands: ``solve`` (run the augmented Lagrangian method on a JSON
instance), ``check`` (first- and second-order diagnostics at a bundled
reference point), ``rate-sweep`` (contraction ratios over a penalty
grid plus a log-log fit), ``generate`` (synthetic instances with an
exact reference point).  Results land in the output directory as JSON
reports and CSV tables; with a fixed seed and a fixed BLAS thread count
every artifact is byte-identical across reruns.

Exit codes: 0 success, 1 input error (including a usage error on the
command line, any package error a subcommand does not handle itself, a
linear-algebra failure on the data and a second-order verdict inside
round-off), 2 outer-iteration cap, 3 inner solve failure, 4 every sweep
grid point diverged.  The ``SDNOP_LOG`` environment variable (error,
info, debug) sets log verbosity.
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .diagnostics import (
    _strong_sosc_check,
    cone_blocks,
    nondegeneracy_check,
    rate_constants,
    rate_sweep,
)
from .errors import (
    InnerSolveError,
    InvalidInput,
    MaxIterations,
    SDNOPError,
    require_seed,
)
from .generator import generate_instance
from .problem import (
    MultiplierTriple,
    _read_json,
    kkt_residual,
    load_instance,
    save_instance,
)
from .solver import ALMConfig, InnerConfig, alm_solve

log = logging.getLogger("sdnop")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_OUTER = 2
EXIT_INNER = 3
EXIT_SWEEP = 4

_TRACE_COLUMNS = (
    "outer", "penalty", "residual", "stationarity", "subgradient",
    "equality", "cone", "dual", "complementarity", "inner_iterations",
    "dist_x", "dist_y",
)
_RATE_COLUMNS = (
    "c", "iterations", "median_ratio", "predicted_ratio_proxy", "converged",
)


# ----------------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------------

def _cell(value):
    """One CSV cell: 17 significant digits for floats, stable bools."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _jsonable(obj):
    """Recursively convert to strict JSON: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=1, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _trace_rows(trace):
    columns = zip(trace.penalties, trace.residuals, trace.inner_iterations,
                  trace.dist_x, trace.dist_y)
    for k, (c, res, inner, dx, dy) in enumerate(columns, 1):
        yield (k, c, res.total, res.stationarity, res.subgradient,
               res.equality, res.cone, res.dual, res.complementarity,
               inner, dx, dy)


def _log_trace(trace):
    for row in _trace_rows(trace):
        log.info("outer %d: c=%g residual=%.3e inner_iterations=%d",
                 row[0], row[1], row[2], row[9])
        log.debug("outer %d components: %s", row[0],
                  ", ".join("%s=%.3e" % (name, val) for name, val
                            in zip(_TRACE_COLUMNS[3:9], row[3:9])))


def _solution_dict(point, converged, stop, outer_iterations, final_penalty):
    return {
        "x": point.x,
        "Y": point.multipliers.Y,
        "mu": point.multipliers.mu,
        "Gamma": point.multipliers.Gamma,
        "residual": point.residual.as_dict(),
        "converged": converged,
        "stop": stop,
        "outer_iterations": outer_iterations,
        "final_penalty": final_penalty,
    }


# ----------------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------------

def _check_keys(data, cls, prefix):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise InvalidInput(f"unknown config key '{prefix}{key}'")


def _build_config(args):
    """ALMConfig from the optional --config JSON plus flag overrides."""
    data = {}
    if args.config is not None:
        data = _read_json(args.config, "config")
        if not isinstance(data, dict):
            raise InvalidInput("config must be a JSON object")
    _check_keys(data, ALMConfig, "")
    inner_data = data.pop("inner", {})
    if not isinstance(inner_data, dict):
        raise InvalidInput("config key 'inner' must be a JSON object")
    _check_keys(inner_data, InnerConfig, "inner.")
    for key, value in (("outer_tol", args.tol), ("max_outer", args.max_outer),
                       ("c0", args.c0)):
        if value is not None:
            data[key] = value
    return ALMConfig(inner=InnerConfig(**inner_data), **data)


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_solve(args):
    problem = load_instance(args.instance)
    config = _build_config(args)
    out = _out_dir(args)
    x0 = np.zeros(problem.n)
    y0 = MultiplierTriple.zeros(problem)
    try:
        point, trace = alm_solve(problem, y0, config, x0,
                                 reference=problem.reference)
        code, stop = EXIT_OK, trace.stop
    except MaxIterations as exc:
        log.error("%s", exc)
        point, trace = exc.point, exc.trace
        code, stop = EXIT_MAX_OUTER, "max_outer"
    except InnerSolveError as exc:
        # the partial trace, but no solution
        log.error("inner solve failed: %s", exc)
        point, trace, code = None, exc.trace, EXIT_INNER
    if trace is not None:
        _log_trace(trace)
        _write_csv(os.path.join(out, "trace.csv"), _TRACE_COLUMNS,
                   _trace_rows(trace))
    if point is not None:
        penalty = trace.penalties[-1] if trace.penalties else config.c0
        _write_json(os.path.join(out, "solution.json"),
                    _solution_dict(point, code == EXIT_OK, stop,
                                   len(trace), penalty))
    if code == EXIT_OK:
        print("converged: residual %.3e after %d outer iterations%s"
              % (point.residual.total, len(trace),
                 " (round-off floor)" if stop == "floor" else ""))
    return code


def cmd_check(args):
    problem = load_instance(args.instance)
    if problem.reference is None:
        raise InvalidInput("instance has no reference_kkt block to check")
    out = _out_dir(args)
    ref = problem.reference
    y = ref.multipliers
    res = kkt_residual(problem, ref.x, y.Y, y.mu, y.Gamma)
    blocks = cone_blocks(problem, ref.x, y)
    nondeg = nondegeneracy_check(problem, ref.x, y, blocks=blocks)
    sosc = _strong_sosc_check(problem, ref.x, y, res, blocks)
    try:
        constants = rate_constants(problem, ref.x, y, blocks=blocks).as_dict()
    except SDNOPError as exc:
        log.info("constants not computable: %s", exc)
        constants = None
    report = {
        "residual": res.as_dict(),
        "nondegeneracy": nondeg.as_dict(),
        "second_order": sosc.as_dict(),
        "constants": constants,
    }
    _write_json(os.path.join(out, "report.json"), report)
    print("nondegeneracy %s (sigma_min %.3e), second order %s (min %.3e)"
          % (nondeg.holds, nondeg.sigma_min, sosc.holds, sosc.min_value))
    return EXIT_OK


def cmd_rate_sweep(args):
    problem = load_instance(args.instance)
    if problem.reference is None:
        raise InvalidInput("rate sweep needs an instance with reference_kkt")
    grid = _parse_grid(args.grid)
    out = _out_dir(args)
    fit = rate_sweep(problem, problem.reference, grid, delta=args.delta,
                     seed=args.seed)
    rows = [
        (fit.penalties[j], fit.iterations[j], fit.ratios[j],
         fit.predicted[j], fit.converged[j])
        for j in range(len(fit.penalties))
    ]
    _write_csv(os.path.join(out, "rate.csv"), _RATE_COLUMNS, rows)
    fit_data = fit.as_dict()
    points = fit.fit_points
    fit_data["flags"] = {
        "assumptions_unverified": fit.assumptions_unverified,
        "excluded": [c for c, ok in zip(fit.penalties, fit.converged)
                     if not ok],
        "fit_points": len(points),
        "underdetermined": len(points) < 3,
    }
    _write_json(os.path.join(out, "fit.json"), fit_data)
    if not any(fit.converged):
        log.error("every grid point diverged")
        return EXIT_SWEEP
    if fit.slope is not None:
        print("slope %.4f, r_squared %.4f over %d usable grid points"
              % (fit.slope, fit.r_squared, len(points)))
    elif points:
        j = points[0]
        print("single usable grid point c=%g, ratio %.3e"
              % (fit.penalties[j], fit.ratios[j]))
    else:
        print("no usable grid point")
    return EXIT_OK


def cmd_generate(args):
    out = _out_dir(args)
    problem = generate_instance(args.n, args.q, args.m, args.p,
                                profile=args.profile, seed=args.seed)
    path = os.path.join(out, "instance.json")
    save_instance(problem, path)
    print("wrote %s (profile %s, seed %d)" % (path, args.profile, args.seed))
    return EXIT_OK


def _parse_grid(text):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInput(f"grid must be comma-separated numbers: {text!r}")
    if not grid:
        raise InvalidInput("grid is empty")
    return grid


# ----------------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error: exit 1, one stderr line."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def _seed(text):
    """A seed (``errors.require_seed``); argparse's error names --seed."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        return require_seed(value)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    out = _Parser(add_help=False)
    out.add_argument("--out", default=".",
                     help="output directory (created if missing)")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0,
                      help="seed for every random draw")

    parser = _Parser(
        prog="sdnop",
        description="Augmented Lagrangian solver for composite "
                    "semidefinite programs with a nuclear-norm term.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[out],
                        help="run the solver on a JSON instance")
    ps.add_argument("instance", help="path to the instance JSON")
    ps.add_argument("--config", default=None,
                    help="JSON file of solver configuration overrides")
    ps.add_argument("--tol", type=float, default=None,
                    help="outer KKT residual tolerance")
    ps.add_argument("--max-outer", type=int, default=None,
                    help="outer iteration cap")
    ps.add_argument("--c0", type=float, default=None,
                    help="initial penalty parameter")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", parents=[out],
                        help="verify the bundled reference point")
    pc.add_argument("instance", help="path to the instance JSON")
    pc.set_defaults(func=cmd_check)

    pr = sub.add_parser("rate-sweep", parents=[out, seed],
                        help="contraction ratios over a penalty grid")
    pr.add_argument("instance", help="path to the instance JSON")
    pr.add_argument("--grid", default="10,100,1000,10000",
                    help="comma-separated penalty values")
    pr.add_argument("--delta", type=float, default=1e-2,
                    help="multiplier perturbation radius")
    pr.set_defaults(func=cmd_rate_sweep)

    pg = sub.add_parser("generate", parents=[out, seed],
                        help="synthesize an instance with an exact "
                             "reference point")
    pg.add_argument("--n", type=int, required=True,
                    help="number of decision variables")
    pg.add_argument("--q", type=int, required=True,
                    help="order of the nuclear-norm matrix map")
    pg.add_argument("--m", type=int, required=True,
                    help="number of equality constraints")
    pg.add_argument("--p", type=int, required=True,
                    help="order of the semidefinite constraint")
    pg.add_argument("--profile", default="nondegen",
                    choices=["nondegen", "degen", "saddle"])
    pg.set_defaults(func=cmd_generate)
    return parser


def _setup_logging():
    level_name = os.environ.get("SDNOP_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"SDNOP_LOG must be one of {sorted(levels)}, "
              f"got {level_name!r}", file=sys.stderr)
        return logging.ERROR
    return levels[level_name]


def main(argv=None):
    logging.basicConfig(level=_setup_logging(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidInput, OSError, np.linalg.LinAlgError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SDNOPError as exc:
        # anything the subcommand did not turn into an exit code itself,
        # such as a reference point that is not a KKT point
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
