"""Experiment drivers: spectral tables, convergence studies, stability maps.

Everything here is deterministic by construction: table cells run on a
pool of forked processes but are collected in sorted order, seeds are
fixed, and CSV output formats floats with full precision so repeated runs
produce identical bytes.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assembly_1d import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_penalties,
    element_tables,
    kappa_variant,
    penalized_forms,
)
from .eigen import NumericalFailure, top_eigenvalue
from .integrator import (
    critical_omega,
    initial_state,
    integrate,
    params_from_rho,
)
from .mms_errors import (
    case_1d,
    case_2d,
    h1_seminorm_error,
    h1_seminorm_error_2d,
    initial_coefficients,
    l2_error,
    l2_error_2d,
    observed_rates,
)
from .quadrature import gauss_legendre, rule_for_degree
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


def build_1d(p, N, kappa="one", variant="endpoint", eta_a=1.0, eta_b=1.0):
    """Assemble the 1D interior operators for one (degree, elements) cell."""
    coeff = kappa_variant(kappa) if isinstance(kappa, str) else kappa
    kv = open_uniform_knots(p, N)
    rule = rule_for_degree(p, coeff.smooth_polynomial)
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, coeff)
    pen = build_penalties(kv, variant=variant, rule=rule, eta_a=eta_a, eta_b=eta_b)
    Mt, Kt = penalized_forms(M, K, pen, kv.h)
    return Discretization1D(kv=kv, M=M, K=K, Mt=Mt, Kt=Kt)


def _pool_map(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


# The cell function of the process pool, set in each worker by _set_cell.
_CELL = None


def _set_cell(fn):
    global _CELL
    _CELL = fn


def _run_cell(item):
    return _CELL(item)


def _process_map(fn, items, workers):
    """_pool_map over forked worker processes, for cells that hold the GIL.

    Time-stepping cells spend most of their time in small numpy calls, and
    eigenvalue cells in LAPACK calls (dpbtrf) that keep the GIL, so threads
    serialize them; processes do not.  fn reaches the workers through the
    pool initializer and is inherited by the fork, never pickled, so
    closures work; items and results are pickled.  Where
    fork is unavailable this is the thread map.  Not spawn: a spawned
    worker imports numpy and scipy afresh, about 0.65 s on 2 cores, which
    is longer than a whole default 2D study.
    """
    if workers <= 1 or len(items) <= 1:
        return _pool_map(fn, items, workers)
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return _pool_map(fn, items, workers)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(items)), initializer=_set_cell, initargs=(fn,)) as pool:
        return pool.map(_run_cell, items, chunksize=1)


def spectrum_table(
    degrees,
    elements,
    dim=1,
    kappa="one",
    rho=0.0,
    variant="endpoint",
    eta_a=1.0,
    eta_b=1.0,
    workers=4,
):
    """Largest standard/penalized eigenvalues and critical steps per (p, N).

    In 2D and 3D the axes are identical, and the eigenvalues of the tensor
    pair are sums of per-axis eigenvalues, so the maximum is dim times the
    1D maximum, which top_eigenvalue computes from the banded 1D pair.
    Variable coefficients are 1D only.

    Returns a list of row dicts sorted by (p, N).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if kappa != "one" and dim != 1:
        raise ValueError("variable coefficient runs are 1D only")
    params = params_from_rho(rho)
    c_rho = critical_omega(params)
    cells = sorted((p, N) for p in degrees for N in elements)

    def one(cell):
        p, N = cell
        d = build_1d(p, N, kappa, variant, eta_a, eta_b)
        lam = dim * top_eigenvalue(d.K, d.M)
        lam_t = dim * top_eigenvalue(d.Kt, d.Mt)
        tau = c_rho / np.sqrt(lam)
        tau_t = c_rho / np.sqrt(lam_t)
        return {
            "p": p,
            "N": N,
            "lambda": lam,
            "lambda_tilde": lam_t,
            "tau_c": tau,
            "tau_c_tilde": tau_t,
            "ratio": tau_t / tau,
        }

    return _process_map(one, cells, workers)


def _check_run(dim, kappa, T, steps, name="n_steps"):
    """Reject what no manufactured-solution run can take, before any work."""
    if dim not in (1, 2):
        raise ValueError(f"manufactured-solution runs are 1D or 2D, got dim={dim!r}")
    if kappa != "one" and dim != 1:
        raise ValueError("variable coefficient runs are 1D only")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if min(steps) < 1:
        raise ValueError(f"{name} must be at least 1, got {steps!r}")


def _setup(dim, p, N, kappa, penalized, variant, eta_a, eta_b, init):
    """The manufactured problem on a p, N mesh in one or two dimensions.

    Returns (solve_M, apply_K, load, state0, l2, h1): load(t) is the load
    vector at time t, and l2(u, t) and h1(u, t) are the errors of the
    coefficients u against the exact solution at time t.
    """
    d = build_1d(p, N, kappa, variant, eta_a, eta_b)
    kv = d.kv
    rule = gauss_legendre(p + 3)
    tables = [element_tables(kv, rule, 1)] * dim  # shared by every error sample
    M, K = (d.Mt, d.Kt) if penalized else (d.M, d.K)
    if dim == 1:
        case = case_1d(kappa)
        solve, apply_K = M.factor(), K.matvec
        f_load = assemble_load(kv, rule, case.f_space)
        u0 = initial_coefficients(kv, rule, lambda x: case.u(x, 0.0), init)
        v0 = u0.copy()  # u = e^t sin(Wx), so u_t(x, 0) = u(x, 0)

        def l2(u, t):
            return l2_error(kv, u, lambda x: case.u(x, t), tables)

        def h1(u, t):
            return h1_seminorm_error(kv, u, lambda x: case.u_x(x, t), tables)

    else:
        case = case_2d()
        mass, stiff = build_tensor_operators([(M, K), (M, K)])
        solve, apply_K = kron_mass_factor(mass), stiff.matvec
        s_load = assemble_load(kv, rule, case.profile)
        f_load = case.f_const * np.outer(s_load, s_load).ravel()
        u1 = initial_coefficients(kv, rule, case.profile, init)
        u0 = np.outer(u1, u1).ravel()
        v0 = u0.copy()

        def l2(u, t):
            return l2_error_2d(kv, kv, u, lambda x, y: case.u(x, y, t), tables)

        def h1(u, t):
            return h1_seminorm_error_2d(
                kv, kv, u, lambda x, y: case.u_x(x, y, t), lambda x, y: case.u_y(x, y, t), tables
            )

    def load(t):
        return f_load * case.f_time(t)

    state0 = initial_state(solve, apply_K, load(0.0), u0, v0)
    return solve, apply_K, load, state0, l2, h1


def _mms_run(dim, p, N, kappa, rho, T, n_steps, penalized, variant, eta_a, eta_b, init):
    solve, apply_K, load, state0, l2, h1 = _setup(
        dim, p, N, kappa, penalized, variant, eta_a, eta_b, init
    )
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
    variant="endpoint",
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    workers=4,
):
    """Mesh-refinement study rows with pairwise observed rates per degree."""
    _check_run(dim, kappa, T, [n_steps])
    cells = sorted((p, N) for p in degrees for N in elements)

    def one(cell):
        p, N = cell
        l2, h1 = _mms_run(dim, p, N, kappa, rho, T, n_steps, penalized, variant, eta_a, eta_b, init)
        return {"p": p, "N": N, "h": 1.0 / N, "l2": l2, "h1": h1}

    rows = _process_map(one, cells, workers)
    for p in sorted(set(c[0] for c in cells)):
        sub = [r for r in rows if r["p"] == p]
        hs = np.array([r["h"] for r in sub])
        for key in ("l2", "h1"):
            errs = np.array([r[key] for r in sub])
            rates = observed_rates(errs, hs)
            sub[0][f"{key}_rate"] = None
            for r, rate in zip(sub[1:], rates):
                r[f"{key}_rate"] = float(rate)
    return rows


def convergence_time(
    steps_list,
    p=5,
    N=100,
    kappa="one",
    rho=1.0,
    T=1.0,
    penalized=True,
    variant="endpoint",
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    workers=4,
):
    """Step-refinement study at a fixed fine mesh; rates are in tau."""
    steps_list = sorted(int(s) for s in steps_list)
    _check_run(1, kappa, T, steps_list, "steps_list")

    def one(n_steps):
        l2, _ = _mms_run(1, p, N, kappa, rho, T, n_steps, penalized, variant, eta_a, eta_b, init)
        return {"p": p, "N": N, "steps": n_steps, "tau": T / n_steps, "l2": l2}

    rows = _process_map(one, steps_list, workers)
    taus = np.array([r["tau"] for r in rows])
    errs = np.array([r["l2"] for r in rows])
    rates = observed_rates(errs, taus)
    rows[0]["rate"] = None
    for r, rate in zip(rows[1:], rates):
        r["rate"] = float(rate)
    return rows


def stability_region(
    p=6,
    N=80,
    kappa="one",
    variant="endpoint",
    eta_a=1.0,
    eta_b=1.0,
    rho_values=None,
):
    """Critical steps of both discretizations over a rho grid."""
    if rho_values is None:
        rho_values = np.round(np.arange(0.0, 1.0 + 1e-12, 0.05), 10)
    d = build_1d(p, N, kappa, variant, eta_a, eta_b)
    lam = top_eigenvalue(d.K, d.M)
    lam_t = top_eigenvalue(d.Kt, d.Mt)

    def one(rho):
        c = critical_omega(params_from_rho(rho))
        return {
            "rho": float(rho),
            "tau_c": c / np.sqrt(lam),
            "tau_c_tilde": c / np.sqrt(lam_t),
        }

    # Serial: critical_omega holds the GIL, so threads would only add cost.
    return [one(rho) for rho in rho_values]


def solve_mms(
    dim=1,
    p=5,
    N=40,
    kappa="one",
    rho=1.0,
    T=1.0,
    n_steps=1000,
    penalized=True,
    variant="endpoint",
    eta_a=1.0,
    eta_b=1.0,
    init="project",
    stride=None,
):
    """Integrate the manufactured problem, sampling the L2 error on a stride.

    Returns (rows, blew_up); rows hold (step, t, l2_error) every `stride`
    steps, including step 0 and the stopping step.
    """
    _check_run(dim, kappa, T, [n_steps])
    if stride is None:
        stride = max(1, n_steps // 200)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")
    solve, apply_K, load, state0, l2, _ = _setup(
        dim, p, N, kappa, penalized, variant, eta_a, eta_b, init
    )
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


def free_run(p, N, rho, tau_factor, n_steps, kappa="one", variant="endpoint", seed=7):
    """Unforced integration from random data at tau = tau_factor * tau_c.

    Uses the penalized operators; returns (IntegrationResult, tau).  This is
    the empirical side of the stability analysis: below the critical step
    the run stays bounded, above it the blow-up flag fires quickly.
    """
    d = build_1d(p, N, kappa, variant)
    lam_t = top_eigenvalue(d.Kt, d.Mt)
    params = params_from_rho(rho)
    tau = tau_factor * critical_omega(params) / np.sqrt(lam_t)
    solve = d.Mt.factor()
    rng = np.random.default_rng(seed)
    n = d.kv.interior_dim
    u0 = rng.standard_normal(n)
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
