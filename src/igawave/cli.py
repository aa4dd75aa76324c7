"""Command line front end.

Subcommands map one-to-one onto the experiment drivers:

  spectrum          eigenvalue/critical-step table over (degree, elements)
  convergence       mesh- or step-refinement error study
  stability-region  critical steps over a dissipation-parameter grid
  solve             single manufactured-solution run with an error trace

Exit codes: 0 success, 2 invalid usage or parameters, 3 numerical failure,
4 blow-up detected during time integration.
"""

import argparse
import configparser
import math
import sys

from . import experiments as ex

VARIANT_MAP = {"boundary-point": "endpoint", "integral": "integral"}


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
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


# Each subcommand registers only the options it reads, so an option it would
# ignore is a usage error, on the command line and in a config section alike.
def _add_common(sub):
    sub.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    sub.add_argument("--degrees", type=_csv_ints, default=None,
                     help="comma-separated spline degrees")
    sub.add_argument("--elements", type=_csv_ints, default=None,
                     help="comma-separated element counts per direction")
    sub.add_argument("--kappa", choices=("one", "exp"), default="one")
    sub.add_argument("--variant", choices=tuple(VARIANT_MAP), default="boundary-point",
                     help="penalization flavour")
    sub.add_argument("--eta-a", type=float, default=1.0, dest="eta_a")
    sub.add_argument("--eta-b", type=float, default=1.0, dest="eta_b")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    sub.add_argument("--config", default=None, help="INI file with per-subcommand defaults")


def _add_scheme(sub):
    sub.add_argument("--rho", type=_unit_interval, default=None,
                     help="spectral radius parameter of the integrator in [0, 1]")
    sub.add_argument("--penalty", choices=("off", "on", "both"), default=None)


def _add_time(sub):
    sub.add_argument("--final-time", type=_positive_float, default=1.0, dest="final_time")
    sub.add_argument("--steps", type=_csv_positive_ints, default=None,
                     help="step counts; a list in time-refinement mode")


def _add_workers(sub):
    sub.add_argument("--workers", type=_positive_int, default=4,
                     help="parallel workers (at least 1): processes for convergence, "
                          "threads for spectrum")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="igawave",
        description="Spline Galerkin wave discretization studies",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    sub_map = {}

    sp = subs.add_parser("spectrum", help="eigenvalue and critical-step table")
    _add_common(sp)
    _add_scheme(sp)
    _add_workers(sp)
    sub_map["spectrum"] = sp

    cv = subs.add_parser("convergence", help="error convergence study")
    _add_common(cv)
    _add_scheme(cv)
    _add_time(cv)
    _add_workers(cv)
    cv.add_argument("--mode", choices=("space", "time"), default="space")
    cv.add_argument("--init", choices=("project", "greville"), default="project")
    sub_map["convergence"] = cv

    st = subs.add_parser("stability-region", help="critical steps over a rho grid")
    _add_common(st)
    sub_map["stability-region"] = st

    so = subs.add_parser("solve", help="single manufactured-solution run")
    _add_common(so)
    _add_scheme(so)
    _add_time(so)
    so.add_argument("--init", choices=("project", "greville"), default="project")
    so.add_argument("--stride", type=_positive_int, default=None,
                    help="steps between error samples (default steps/200)")
    sub_map["solve"] = so

    return parser, sub_map


def _peek(argv, sub_map):
    """Find the subcommand and any --config path before real parsing."""
    command = None
    config = None
    for i, arg in enumerate(argv):
        if command is None and arg in sub_map:
            command = arg
        if arg == "--config" and i + 1 < len(argv):
            config = argv[i + 1]
        elif arg.startswith("--config="):
            config = arg.split("=", 1)[1]
    return command, config


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


def _maybe_gnuplot(args, header, xcol, ycols, logx=False, logy=False):
    if args.gnuplot:
        ex.write_gnuplot_script(args.gnuplot, args.out, header, xcol, ycols,
                                logx=logx, logy=logy)


def _run_spectrum(parser, args):
    degrees = args.degrees or [3, 4, 5, 6]
    elements = args.elements or [5, 10, 20, 40, 80]
    penalty = args.penalty or "both"
    rho = 0.0 if args.rho is None else args.rho
    rows = ex.spectrum_table(
        degrees,
        elements,
        dim=args.dim,
        kappa=args.kappa,
        rho=rho,
        variant=VARIANT_MAP[args.variant],
        eta_a=args.eta_a,
        eta_b=args.eta_b,
        workers=args.workers,
    )
    if penalty == "both":
        header = ["p", "N", "lambda", "lambda_tilde", "tau_c", "tau_c_tilde", "ratio"]
    elif penalty == "off":
        header = ["p", "N", "lambda", "tau_c"]
    else:
        header = ["p", "N", "lambda_tilde", "tau_c_tilde"]
    ex.write_csv(args.out, header, rows)
    _maybe_gnuplot(args, header, "N", [h for h in header if h.startswith("tau")],
                   logx=True, logy=True)
    return 0


def _run_convergence(parser, args):
    penalty = args.penalty or "on"
    if penalty == "both":
        parser.error("convergence runs use --penalty on or off")
    penalized = penalty == "on"
    rho = 1.0 if args.rho is None else args.rho
    if args.mode == "space":
        if args.dim == 1:
            degrees = args.degrees or [3, 4, 5]
            elements = args.elements or [5, 10, 20, 40, 80]
            n_steps = _single(parser, args.steps, "steps", 10_000)
        else:
            degrees = args.degrees or [3, 4, 5]
            elements = args.elements or [4, 8, 16, 32]
            n_steps = _single(parser, args.steps, "steps", 100)
        if len(elements) < 2:
            parser.error("space-refinement mode needs at least two element counts")
        rows = ex.convergence_space(
            degrees,
            elements,
            dim=args.dim,
            kappa=args.kappa,
            rho=rho,
            T=args.final_time,
            n_steps=n_steps,
            penalized=penalized,
            variant=VARIANT_MAP[args.variant],
            eta_a=args.eta_a,
            eta_b=args.eta_b,
            init=args.init,
            workers=args.workers,
        )
        header = ["p", "N", "h", "l2", "h1", "l2_rate", "h1_rate"]
        ex.write_csv(args.out, header, rows)
        _maybe_gnuplot(args, header, "h", ["l2", "h1"], logx=True, logy=True)
    else:
        if args.dim != 1:
            parser.error("time-refinement mode is 1D only")
        p = _single(parser, args.degrees, "degrees", 5)
        N = _single(parser, args.elements, "elements", 100)
        steps = args.steps or [1000, 1400, 2000, 2800]
        if len(steps) < 2:
            parser.error("time-refinement mode needs at least two step counts")
        rows = ex.convergence_time(
            steps,
            p=p,
            N=N,
            kappa=args.kappa,
            rho=rho,
            T=args.final_time,
            penalized=penalized,
            variant=VARIANT_MAP[args.variant],
            eta_a=args.eta_a,
            eta_b=args.eta_b,
            init=args.init,
            workers=args.workers,
        )
        header = ["p", "N", "steps", "tau", "l2", "rate"]
        ex.write_csv(args.out, header, rows)
        _maybe_gnuplot(args, header, "tau", ["l2"], logx=True, logy=True)
    return 0


def _run_stability(parser, args):
    p = _single(parser, args.degrees, "degrees", 6)
    N = _single(parser, args.elements, "elements", 80)
    if args.dim != 1:
        parser.error("stability-region is 1D only")
    rows = ex.stability_region(
        p=p,
        N=N,
        kappa=args.kappa,
        variant=VARIANT_MAP[args.variant],
        eta_a=args.eta_a,
        eta_b=args.eta_b,
    )
    header = ["rho", "tau_c", "tau_c_tilde"]
    ex.write_csv(args.out, header, rows)
    _maybe_gnuplot(args, header, "rho", ["tau_c", "tau_c_tilde"])
    return 0


def _run_solve(parser, args):
    penalty = args.penalty or "on"
    if penalty == "both":
        parser.error("solve uses --penalty on or off")
    p = _single(parser, args.degrees, "degrees", 5)
    N = _single(parser, args.elements, "elements", 40)
    n_steps = _single(parser, args.steps, "steps", 1000)
    rho = 1.0 if args.rho is None else args.rho
    rows, blew_up = ex.solve_mms(
        dim=args.dim,
        p=p,
        N=N,
        kappa=args.kappa,
        rho=rho,
        T=args.final_time,
        n_steps=n_steps,
        penalized=penalty == "on",
        variant=VARIANT_MAP[args.variant],
        eta_a=args.eta_a,
        eta_b=args.eta_b,
        init=args.init,
        stride=args.stride,
    )
    header = ["step", "t", "l2_error"]
    ex.write_csv(args.out, header, rows)
    _maybe_gnuplot(args, header, "t", ["l2_error"], logy=True)
    if blew_up:
        print("blow-up detected; partial trace written", file=sys.stderr)
        return 4
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub_map = build_parser()
    command, config = _peek(argv, sub_map)
    if config is not None and command is not None:
        _apply_config(parser, sub_map[command], command, config)
    args = parser.parse_args(argv)

    runners = {
        "spectrum": _run_spectrum,
        "convergence": _run_convergence,
        "stability-region": _run_stability,
        "solve": _run_solve,
    }
    try:
        return runners[args.command](parser, args)
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
