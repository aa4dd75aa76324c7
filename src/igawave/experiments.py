"""Experiment drivers: spectral tables, convergence studies, stability maps.

Everything here is deterministic by construction: table cells run on
forked worker processes, largest first, but are collected in sorted
order, seeds are fixed, and CSV output formats floats with full precision
so repeated runs produce identical bytes, save one case: a 2D or 3D run
with an axis of 97 to 128 unknowns may round differently on more than one
BLAS thread, as that axis's apply is one dense matrix product.
"""

import functools
import math
import os
import pickle
import selectors
import signal
from dataclasses import dataclass, field

import numpy as np

from .assembly_1d import (
    assemble_load,
    assemble_mass,
    element_tables,
    kappa_variant,
    penalized_forms,
)
from .eigen import NumericalFailure, check_seed, start_data, top_eigenvalue
from .integrator import (
    critical_omega,
    initial_state,
    integrate,
    params_from_rho,
)
from .mms_errors import (
    h1_seminorm_error,
    h1_seminorm_error_2d,
    initial_coefficients,
    l2_error,
    l2_error_2d,
    manufactured_case,
    observed_rates,
)
from .quadrature import MAX_POINTS, rule_for_degree
from .spline_basis import open_uniform_knots
from .tensor_ops import build_tensor_operators, kron_mass_factor

__all__ = [
    "NumericalFailure",
    "BlowupDetected",
    "Discretization1D",
    "build_1d",
    "spectrum_table",
    "convergence_space",
    "convergence_time",
    "stability_region",
    "solve_mms",
    "free_run",
    "write_csv",
    "write_gnuplot_script",
]

RHO_GRID = np.round(np.arange(0.0, 1.0 + 1e-12, 0.05), 10)  # stability_region's 21 rho values


class BlowupDetected(RuntimeError):
    """Time integration tripped the growth threshold."""


@dataclass(frozen=True)
class Discretization1D:
    """Knot vector plus standard and penalized operator pairs."""

    kv: object
    M: object = field(repr=False)
    K: object = field(repr=False)
    Mt: object = field(repr=False)
    Kt: object = field(repr=False)


def build_1d(p, N, kappa="one", eta_a=1.0, eta_b=1.0):
    """Assemble the 1D interior operators for one (degree, elements) cell."""
    coeff = kappa_variant(kappa)
    kv = open_uniform_knots(p, N)
    rule = rule_for_degree(p, coeff.smooth_polynomial)
    M, K = assemble_mass(kv, rule, stiffness=coeff)  # one basis table per pass for both
    Mt, Kt = penalized_forms(M, K, kv, eta_a, eta_b)
    return Discretization1D(kv=kv, M=M, K=K, Mt=Mt, Kt=Kt)


def _pool_map(fn, items, workers):
    # The serial map.  It keeps the name and the unused workers argument
    # because bench/tracer.py wraps it and calls it with three arguments.
    return [fn(it) for it in items]


def _worker(fn, items, task_fd, result_fd, inherited):
    """A forked child's loop: read an item index, write its outcome, until EOF.

    inherited are the parent's ends of the other children's pipes, closed
    first so that each child holds only its own.  The parent writes each
    4-byte index in one write, which a pipe keeps whole (under PIPE_BUF).
    An outcome is the pickle of (ok, value), value being fn's row or the
    exception that stopped it; a pickle marks its own end.  It is pickled
    before a byte is written, so one that cannot be pickled ends the child
    with status 1 and no partial frame.  The child never returns: it leaves
    through os._exit, so none of the parent's clean-up runs twice and
    the stdout buffer it inherited is never written a second time.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        results = open(result_fd, "wb")
        while len(index_bytes := os.read(task_fd, 4)) == 4:
            i = int.from_bytes(index_bytes, "little")
            try:
                outcome = (True, fn(items[i]))
            except BaseException as exc:  # raised in the parent, as the serial map would
                outcome = (False, exc)
            results.write(pickle.dumps(outcome))
            results.flush()
        code = 0
    finally:
        os._exit(code)


def _process_map(fn, items, workers):
    """_pool_map over forked worker processes, for cells that hold the GIL.

    Callers list their items in ascending order of cost ((p, N) cells,
    step counts), and the largest-first dispatch below relies on it.

    Time-stepping cells spend most of their time in small numpy calls, and
    eigenvalue cells in LAPACK calls (dpbtrf) that keep the GIL, so threads
    serialize them; processes do not.  min(workers, len(items)) children
    are forked and inherit fn, never pickled, so closures work.  Each
    child's own pipe hands it one item index at a time, from the last item
    down, and whichever child answers next gets the next index: the
    largest cells start first and the small ones fill in behind them.

    Rows come back in item order, the same as the serial map's.  A failed
    cell raises the exception of the lowest failing index, as the serial
    map would; a child that dies without answering raises RuntimeError
    naming its signal or exit status.  On every way out the parent kills
    any child still running and reaps them all.  Where fork is unavailable
    this is the serial map.  Not spawn: a spawned worker imports the
    library afresh, about 0.33 s on 2 cores (the fresh-interpreter bench in
    benchmarks/test_layers.py), which is longer than a whole default 2D
    study.

    What two workers buy depends on the host having idle cores.  On 2
    shared vCPUs, two CPU-bound processes each took 1.9 to 2.1 times as
    long as one alone (igawave cells: 8.8-9.0 ms -> 16.9-18.9 ms, and
    31-32 ms -> 59-64 ms), and spectrum cells ran at 0.55 to 3.1 times
    their serial time inside the children, so there two workers were no
    faster than one.  Timing claims about this map rest on CPU work, not
    on overlap.
    """
    if workers <= 1 or len(items) <= 1 or not hasattr(os, "fork"):
        return _pool_map(fn, items, workers)
    todo = list(range(len(items)))  # popped from the end: the largest cell first
    rows = [None] * len(items)
    failures = {}
    children = {}  # result file -> [pid or None once reaped, task fd, index running or None]

    def dispatch(child):
        child[2] = todo.pop() if todo else None
        if child[2] is not None:
            os.write(child[1], child[2].to_bytes(4, "little"))

    try:
        for _ in range(min(workers, len(items))):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [task_w, result_r, *(f.fileno() for f in children),
                             *(c[1] for c in children.values())]
                _worker(fn, items, task_r, result_w, inherited)
            os.close(task_r)
            os.close(result_w)
            children[open(result_r, "rb")] = [pid, task_w, None]
        # A buffered reader is safe under select: a child gets its next index
        # only after its outcome has been read, so at most one outcome per
        # child is in flight, and none sits unread in a buffer that select
        # has not signalled.
        with selectors.DefaultSelector() as sel:
            for results, child in children.items():
                sel.register(results, selectors.EVENT_READ)
                dispatch(child)
            while any(c[2] is not None for c in children.values()):
                for key, _ in sel.select():
                    child = children[key.fileobj]
                    try:
                        ok, value = pickle.load(key.fileobj)
                    except (EOFError, pickle.UnpicklingError):
                        pid, child[0] = child[0], None
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = f"signal {signal.Signals(-code).name}" if code < 0 else f"status {code}"
                        raise RuntimeError(
                            f"worker process {pid} died with {how} while running cell {child[2]}"
                        ) from None
                    if ok:
                        rows[child[2]] = value
                    else:
                        failures[child[2]] = value
                    dispatch(child)
    except BaseException:
        for pid, _, _ in children.values():
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for results, (pid, task_w, _) in children.items():
            os.close(task_w)  # an idle child reads EOF and leaves
            results.close()
            if pid is not None:
                os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]
    return rows


def spectrum_table(
    degrees,
    elements,
    dim=1,
    kappa="one",
    rho=0.0,
    eta_a=1.0,
    eta_b=1.0,
    workers=4,
    penalty="both",
):
    """Largest standard/penalized eigenvalues and critical steps per (p, N).

    penalty picks the pairs that are solved: "off" the standard pair
    (columns lambda, tau_c), "on" the penalized one (lambda_tilde,
    tau_c_tilde), "both" the two plus their step ratio.
    In 2D and 3D the axes are identical, and the eigenvalues of the tensor
    pair are sums of per-axis eigenvalues, so the maximum is dim times the
    1D maximum, which top_eigenvalue computes from the banded 1D pair.
    Variable coefficients are 1D only.

    Returns a list of row dicts sorted by (p, N).
    """
    if penalty not in ("off", "on", "both"):
        raise ValueError(f"penalty must be 'off', 'on' or 'both', got {penalty!r}")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if kappa_variant(kappa).name != "one" and dim != 1:
        raise ValueError("variable coefficient runs are 1D only")
    _check_degrees(degrees, kappa)
    _check_distinct("degrees", degrees)
    _check_distinct("elements", elements)
    params = params_from_rho(rho)
    c_rho = critical_omega(params)
    cells = sorted((p, N) for p in degrees for N in elements)

    suffixes = {"off": [""], "on": ["_tilde"], "both": ["", "_tilde"]}[penalty]

    def one(cell):
        p, N = cell
        d = build_1d(p, N, kappa, eta_a, eta_b)
        pairs = {"": (d.K, d.M), "_tilde": (d.Kt, d.Mt)}
        lam = {s: dim * top_eigenvalue(*pairs[s]) for s in suffixes}
        tau = {s: c_rho / np.sqrt(lam[s]) for s in suffixes}
        row = {"p": p, "N": N}
        row.update({f"lambda{s}": lam[s] for s in suffixes})
        row.update({f"tau_c{s}": tau[s] for s in suffixes})
        if penalty == "both":
            row["ratio"] = tau["_tilde"] / tau[""]
        return row

    return _process_map(one, cells, workers)


def _check_degrees(degrees, kappa, manufactured=False):
    """Reject a degree whose quadrature rule is not in the table, before any work.

    rule_for_degree gives p + 3 points to a variable coefficient and to the
    manufactured runs' loads, start states and norms, else p + 1; the top
    degree is the one whose rule has MAX_POINTS points.
    """
    smooth = kappa_variant(kappa).smooth_polynomial and not manufactured
    top = MAX_POINTS + 1 - rule_for_degree(1, smooth).npoints
    for p in degrees:
        if not 1 <= p <= top:
            raise ValueError(f"degrees must lie in 1..{top} in this run, got {p}")


def _check_run(dim, kappa, degrees, rho, T, steps, name="n_steps"):
    """Reject what no manufactured-solution run can take, before any work."""
    if dim not in (1, 2):
        raise ValueError(f"manufactured-solution runs are 1D or 2D, got dim={dim!r}")
    if kappa_variant(kappa).name != "one" and dim != 1:
        raise ValueError("variable coefficient runs are 1D only")
    _check_degrees(degrees, kappa, manufactured=True)
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if min(steps) < 1:
        raise ValueError(f"{name} must be at least 1, got {steps!r}")
    params_from_rho(rho)


def _check_distinct(name, values):
    """Reject a repeated entry, which would give a rate of 0/0."""
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat an entry, got {list(values)!r}")


def _add_rates(rows, x, key, name):
    """Set row[name] to the observed rate of row[key] in row[x] against the row before."""
    rates = observed_rates([r[key] for r in rows], [r[x] for r in rows])
    rows[0][name] = None
    for r, rate in zip(rows[1:], rates):
        r[name] = float(rate)


def _setup(dim, p, N, kappa, penalized, eta_a, eta_b, init):
    """The manufactured problem on a p, N mesh in one or two dimensions.

    Returns (solve_M, apply_K, load, state0, l2, h1): load(t) is the load
    vector at time t, and l2(u, t) and h1(u, t) are the errors of the
    coefficients u against the exact solution at time t.  Every axis has
    the same mesh, so loads and start states are outer products of one 1D
    vector.  dim picks only the operator pair (in 1D the banded pair: a
    one-axis Kronecker pair gives the same bits at two to three times the
    cost a call) and the error-norm function, looked up at each call so
    that a rebinding of the module's name takes effect.
    """
    d = build_1d(p, N, kappa, eta_a, eta_b)
    kv = d.kv
    table = element_tables(kv, rule_for_degree(p, smooth_coefficient=False), 1)  # loads, u0, norms
    case = manufactured_case(kappa, dim)
    M, K = (d.Mt, d.Kt) if penalized else (d.M, d.K)
    if dim == 1:
        solve, apply_K = M.factor(), K.matvec
    else:
        mass, stiff = build_tensor_operators([(M, K)] * dim)
        solve, apply_K = kron_mass_factor(mass), stiff.matvec

    def outer(v):
        return functools.reduce(np.multiply.outer, [v] * dim).ravel()

    f_load = case.f_const * outer(assemble_load(kv, table, case.load))
    u0 = outer(initial_coefficients(kv, table, case.start, init))
    kvs, tables = [kv] * dim, [table] * dim

    def load(t):
        return f_load * np.exp(t)

    def l2(u, t):
        norm = l2_error if dim == 1 else l2_error_2d
        return norm(*kvs, u, lambda *xs: case.u(*xs, t), tables)

    def h1(u, t):
        norm = h1_seminorm_error if dim == 1 else h1_seminorm_error_2d
        grads = [lambda *xs, a=a: case.grad(a, *xs, t) for a in range(dim)]
        return norm(*kvs, u, *grads, tables)

    state0 = initial_state(solve, apply_K, load(0.0), u0, u0.copy())  # u_t(x, 0) = u(x, 0)
    return solve, apply_K, load, state0, l2, h1


def _mms_run(dim, p, N, kappa, rho, T, n_steps, penalized, eta_a, eta_b, init):
    solve, apply_K, load, state0, l2, h1 = _setup(dim, p, N, kappa, penalized, eta_a, eta_b, init)
    res = integrate(state0, solve, apply_K, load, T / n_steps, n_steps, params_from_rho(rho))
    if res.blew_up:
        raise BlowupDetected(f"{dim}D run p={p} N={N} blew up at step {res.steps_completed}")
    return l2(res.final.u, T), h1(res.final.u, T)


def convergence_space(
    degrees,
    elements,
    dim=1,
    kappa="one",
    rho=1.0,
    T=1.0,
    n_steps=10_000,
    penalized=True,
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    workers=4,
):
    """Mesh-refinement study rows with pairwise observed rates per degree."""
    _check_run(dim, kappa, degrees, rho, T, [n_steps])
    _check_distinct("degrees", degrees)
    _check_distinct("elements", elements)
    cells = sorted((p, N) for p in degrees for N in elements)

    def one(cell):
        p, N = cell
        l2, h1 = _mms_run(dim, p, N, kappa, rho, T, n_steps, penalized, eta_a, eta_b, init)
        return {"p": p, "N": N, "h": 1.0 / N, "l2": l2, "h1": h1}

    rows = _process_map(one, cells, workers)
    for p in sorted(set(c[0] for c in cells)):
        sub = [r for r in rows if r["p"] == p]
        for key in ("l2", "h1"):
            _add_rates(sub, "h", key, f"{key}_rate")
    return rows


def convergence_time(
    steps_list,
    p=5,
    N=100,
    kappa="one",
    rho=1.0,
    T=1.0,
    penalized=True,
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    workers=4,
):
    """Step-refinement study at a fixed fine mesh; rates are in tau."""
    steps_list = sorted(int(s) for s in steps_list)
    _check_run(1, kappa, [p], rho, T, steps_list, "steps_list")
    _check_distinct("steps_list", steps_list)

    def one(n_steps):
        l2, _ = _mms_run(1, p, N, kappa, rho, T, n_steps, penalized, eta_a, eta_b, init)
        return {"p": p, "N": N, "steps": n_steps, "tau": T / n_steps, "l2": l2}

    rows = _process_map(one, steps_list, workers)
    _add_rates(rows, "tau", "l2", "rate")
    return rows


def stability_region(p=6, N=80, kappa="one", eta_a=1.0, eta_b=1.0):
    """Critical steps of both discretizations over the RHO_GRID of rho values."""
    _check_degrees([p], kappa)
    d = build_1d(p, N, kappa, eta_a, eta_b)
    lam = top_eigenvalue(d.K, d.M)
    lam_t = top_eigenvalue(d.Kt, d.Mt)
    return [
        {"rho": float(rho), "tau_c": c / np.sqrt(lam), "tau_c_tilde": c / np.sqrt(lam_t)}
        for rho, c in zip(RHO_GRID, map(critical_omega, map(params_from_rho, RHO_GRID)))
    ]


def solve_mms(
    dim=1,
    p=5,
    N=40,
    kappa="one",
    rho=1.0,
    T=1.0,
    n_steps=1000,
    penalized=True,
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    stride=None,
):
    """Integrate the manufactured problem, sampling the L2 error on a stride.

    Returns (rows, blew_up); rows hold (step, t, l2_error) every `stride`
    steps, including step 0 and the stopping step.
    """
    _check_run(dim, kappa, [p], rho, T, [n_steps])
    if stride is None:
        stride = max(1, n_steps // 200)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")
    solve, apply_K, load, state0, l2, _ = _setup(dim, p, N, kappa, penalized, eta_a, eta_b, init)
    rows = [{"step": 0, "t": 0.0, "l2_error": l2(state0.u, state0.t)}]

    def observe(i, state):
        if i % stride == 0 or i == n_steps:
            rows.append({"step": i, "t": state.t, "l2_error": l2(state.u, state.t)})

    res = integrate(
        state0, solve, apply_K, load, T / n_steps, n_steps, params_from_rho(rho), callback=observe
    )
    if res.blew_up:
        rows.append(
            {"step": res.steps_completed, "t": res.final.t, "l2_error": float("nan")}
        )
    return rows, res.blew_up


def free_run(p, N, rho, tau_factor, n_steps, seed=7):
    """Unforced integration from seeded data at tau = tau_factor * tau_c.

    Uses the penalized operators of the unit coefficient; returns
    (IntegrationResult, tau).  This is the empirical side of the stability
    analysis: below the critical step the run stays bounded, above it the
    blow-up flag fires quickly.  The
    start displacement is eigen.start_data((n,), seed), uniform on [-1, 1),
    and the start velocity is zero; seed is an int in [0, 2^64), so equal
    seeds give identical runs.
    """
    _check_degrees([p], "one")
    check_seed(seed)
    if not (math.isfinite(tau_factor) and tau_factor > 0.0):
        raise ValueError(f"tau_factor must be finite and positive, got {tau_factor!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps!r}")
    params = params_from_rho(rho)
    d = build_1d(p, N)
    lam_t = top_eigenvalue(d.Kt, d.Mt)
    tau = tau_factor * critical_omega(params) / np.sqrt(lam_t)
    solve = d.Mt.factor()
    n = d.kv.interior_dim
    u0 = start_data((n,), seed)
    zero = np.zeros(n)
    state0 = initial_state(solve, d.Kt.matvec, zero, u0, zero.copy())
    res = integrate(
        state0, solve, d.Kt.matvec, lambda t: zero, tau, n_steps, params
    )
    return res, tau


def _format(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17e" % value


def write_csv(path, header, rows):
    """Write dict rows under the given header with full-precision floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(row.get(col)) for col in header))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_gnuplot_script(path, csv_path, header, xcol, ycols, logx=False, logy=False):
    """Emit a minimal gnuplot script plotting ycols against xcol."""
    ix = header.index(xcol) + 1
    lines = [
        "set datafile separator ','",
        "set key top left",
        f"set xlabel '{xcol}'",
    ]
    if logx:
        lines.append("set logscale x")
    if logy:
        lines.append("set logscale y")
    plots = [
        f"'{csv_path}' using {ix}:{header.index(y) + 1} skip 1 with linespoints title '{y}'"
        for y in ycols
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
