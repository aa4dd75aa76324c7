"""Command line front end.

Subcommands map one-to-one onto the experiment drivers:

  spectrum          eigenvalue/critical-step table over (degree, elements)
  convergence       mesh- or step-refinement error study
  stability-region  critical steps over a dissipation-parameter grid
  solve             single manufactured-solution run with an error trace

Exit codes: 0 success, 2 invalid usage or parameters, 3 numerical failure,
4 blow-up detected during time integration, 5 an output file cannot be
written.
"""

import argparse
import configparser
import errno
import math
import os
import sys

from . import experiments as ex

def _csv_ints(text):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _csv_positive_ints(text):
    values = _csv_ints(text)
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"every count must be at least 1, got {text!r}")
    return values


def _unit_interval(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


# Each subcommand registers only the options it reads, with its own defaults,
# choices and arity, so an option it would ignore or a value it cannot take
# is a usage error, on the command line and in a config section alike.
def _add_problem(sub, run):
    sub.add_argument("--kappa", choices=("one", "exp"), default="one")
    sub.add_argument("--eta-a", type=float, default=1.0, dest="eta_a")
    sub.add_argument("--eta-b", type=float, default=1.0, dest="eta_b")
    # Not required=True: the first pass of main, which finds --config, would
    # reject a command line that leaves --out to the config file.
    sub.add_argument("--out", help="output CSV path (required, as a flag or a config key)")
    sub.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    sub.add_argument("--config", default=None, help="INI file with per-subcommand defaults")
    sub.set_defaults(run=run)


def _add_mesh(sub, kind, degrees, elements):
    sub.add_argument("--degrees", type=kind, default=degrees, help="spline degree(s)")
    sub.add_argument("--elements", type=kind, default=elements,
                     help="element count(s) per direction")


def _add_discretization(sub, dims, rho, penalty, penalties):
    sub.add_argument("--dim", type=int, choices=dims, default=1)
    sub.add_argument("--rho", type=_unit_interval, default=rho,
                     help="spectral radius parameter of the integrator in [0, 1]")
    sub.add_argument("--penalty", choices=penalties, default=penalty)


def _add_run(sub, steps_kind, steps):
    sub.add_argument("--final-time", type=_positive_float, default=1.0, dest="final_time")
    sub.add_argument("--steps", type=steps_kind, default=steps,
                     help="step count(s); a list in time-refinement mode")
    sub.add_argument("--init", choices=("project", "greville"), default="project")


def _add_workers(sub):
    sub.add_argument("--workers", type=_positive_int, default=4,
                     help="parallel worker processes (at least 1); the cells hold the GIL, "
                          "so threads would run them one at a time")


def build_parser():
    """The igawave parser and its subparsers action (whose choices map names to parsers)."""
    parser = argparse.ArgumentParser(
        prog="igawave",
        description="Spline Galerkin wave discretization studies",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalue and critical-step table")
    _add_problem(sp, _run_spectrum)
    _add_mesh(sp, _csv_ints, [3, 4, 5, 6], [5, 10, 20, 40, 80])
    _add_discretization(sp, (1, 2, 3), 0.0, "both", ("off", "on", "both"))
    _add_workers(sp)

    # convergence's mesh and step defaults depend on --mode and --dim.
    cv = subs.add_parser("convergence", help="error convergence study")
    _add_problem(cv, _run_convergence)
    _add_mesh(cv, _csv_ints, None, None)
    _add_discretization(cv, (1, 2), 1.0, "on", ("off", "on"))
    _add_run(cv, _csv_positive_ints, None)
    _add_workers(cv)
    cv.add_argument("--mode", choices=("space", "time"), default="space")

    st = subs.add_parser("stability-region", help="critical steps over a rho grid")
    _add_problem(st, _run_stability)
    _add_mesh(st, int, 6, 80)

    so = subs.add_parser("solve", help="single manufactured-solution run")
    _add_problem(so, _run_solve)
    _add_mesh(so, int, 5, 40)
    _add_discretization(so, (1, 2), 1.0, "on", ("off", "on"))
    _add_run(so, _positive_int, 1000)
    so.add_argument("--stride", type=_positive_int, default=None,
                    help="steps between error samples (default steps/200)")

    return parser, subs


def _apply_config(parser, sub, command, path):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        parser.error(f"config file not found: {path}")
    if not cfg.has_section(command):
        return
    # Config keys are the subcommand's long options, parsed by the same action.
    actions = {
        opt[2:]: action
        for action in sub._actions
        if action.dest not in ("help", "config")
        for opt in action.option_strings
        if opt.startswith("--")
    }
    defaults = {}
    for key, raw in cfg.items(command):
        action = actions.get(key)
        if action is None:
            parser.error(f"unknown config key {key!r} in section [{command}]")
        try:
            value = (action.type or str)(raw)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(f"bad config value for {key!r}: {raw!r}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"bad config value for {key!r}: {raw!r} not in {action.choices}")
        defaults[action.dest] = value
    sub.set_defaults(**defaults)


def _single(parser, values, name, fallback):
    if values is None:
        return fallback
    if len(values) != 1:
        parser.error(f"--{name} takes a single value here")
    return values[0]


class _OutputError(Exception):
    """An output file that cannot be written; the message is the OSError's."""


def _check_writable(path):
    # The error that opening path for writing would meet, as far as it
    # shows without creating the file.
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _OutputError(OSError(code, os.strerror(code), path))


def _problem(args):
    """The problem keywords every driver takes."""
    return dict(kappa=args.kappa, eta_a=args.eta_a, eta_b=args.eta_b)


def _write(args, rows, xcol, ycols, **scales):
    """Write rows under their own keys, and any gnuplot script."""
    header = list(rows[0])
    try:
        ex.write_csv(args.out, header, rows)
        if args.gnuplot:
            ex.write_gnuplot_script(args.gnuplot, args.out, header, xcol, ycols, **scales)
    except OSError as err:
        raise _OutputError(err) from None


def _run_spectrum(parser, args):
    rows = ex.spectrum_table(args.degrees, args.elements, dim=args.dim, rho=args.rho,
                             workers=args.workers, penalty=args.penalty, **_problem(args))
    _write(args, rows, "N", [h for h in rows[0] if h.startswith("tau")], logx=True, logy=True)
    return 0


def _run_convergence(parser, args):
    run = dict(rho=args.rho, T=args.final_time, penalized=args.penalty == "on",
               init=args.init, workers=args.workers, **_problem(args))
    if args.mode == "space":
        degrees = args.degrees or [3, 4, 5]
        if args.dim == 1:
            elements = args.elements or [5, 10, 20, 40, 80]
            n_steps = _single(parser, args.steps, "steps", 10_000)
        else:
            elements = args.elements or [4, 8, 16, 32]
            n_steps = _single(parser, args.steps, "steps", 100)
        if len(elements) < 2:
            parser.error("space-refinement mode needs at least two element counts")
        rows = ex.convergence_space(degrees, elements, dim=args.dim, n_steps=n_steps, **run)
        _write(args, rows, "h", ["l2", "h1"], logx=True, logy=True)
    else:
        if args.dim != 1:
            parser.error("time-refinement mode is 1D only")
        p = _single(parser, args.degrees, "degrees", 5)
        N = _single(parser, args.elements, "elements", 100)
        steps = args.steps or [1000, 1400, 2000, 2800]
        if len(steps) < 2:
            parser.error("time-refinement mode needs at least two step counts")
        rows = ex.convergence_time(steps, p=p, N=N, **run)
        _write(args, rows, "tau", ["l2"], logx=True, logy=True)
    return 0


def _run_stability(parser, args):
    rows = ex.stability_region(p=args.degrees, N=args.elements, **_problem(args))
    _write(args, rows, "rho", ["tau_c", "tau_c_tilde"])
    return 0


def _run_solve(parser, args):
    rows, blew_up = ex.solve_mms(
        dim=args.dim, p=args.degrees, N=args.elements, rho=args.rho, T=args.final_time,
        n_steps=args.steps, penalized=args.penalty == "on", init=args.init,
        stride=args.stride, **_problem(args),
    )
    _write(args, rows, "t", ["l2_error"], logy=True)
    if blew_up:
        print("blow-up detected; partial trace written", file=sys.stderr)
        return 4
    return 0


def main(argv=None):
    parser, subs = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config is not None:
        _apply_config(parser, subs.choices[args.command], args.command, args.config)
    args = parser.parse_args(argv)
    if args.out is None:
        subs.choices[args.command].error("the following arguments are required: --out")
    try:
        for path in (args.out, args.gnuplot):  # before any cell runs
            if path is not None:
                _check_writable(path)
        return args.run(parser, args)
    except _OutputError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 5
    except ex.BlowupDetected as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return 4
    except ex.NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
