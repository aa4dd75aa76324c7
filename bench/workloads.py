"""The four benchmark workloads, their requests and their output checks.

A request is one ``igawave.cli.main([...])`` call or one library call.
Library entry points are looked up on their modules at call time, so the
tracer's wrappers see them.  Every request gets a check; a check reports
problems as (message, flagged) pairs, where flagged means the library
itself reported the failure (non-zero exit, exception, converged=False,
blow-up flag) and unflagged means it returned a wrong result as if it were
right.  Either kind makes the request count as failed; only an unflagged
one makes the run incorrect.

Reference outputs in ``reference/`` were written by the CLI at the commit
that introduced this benchmark:

    igawave solve --out solve-1d.csv
    igawave convergence --mode space --dim 2 --workers 2 --out convergence-2d.csv
    igawave spectrum --degrees 3,4,5,6 --elements 250,500,1000 --workers 2 --out eigen-spectrum.csv

and ``timestep-1d.json`` holds the step size free_run chose there.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import igawave.cli as cli
import igawave.eigen as eigen
import igawave.experiments as experiments
import igawave.tensor_ops as tensor_ops

REFERENCE = Path(__file__).resolve().parent / "reference"

# Relative tolerance on every float column of a reference CSV.  Errors near
# 1e-9 are differences of O(1) numbers, so a reordering of floating-point
# sums moves them by about 1e-8 relative; a real defect moves them by far
# more.
CSV_RTOL = 1e-6
TAU_RTOL = 1e-10
POWER_RTOL = 1e-8
POWER_RESIDUAL = 1e-6
BAND = 0.01


@dataclass
class Request:
    name: str
    call: object = field(repr=False)
    check: object = field(repr=False)
    dof_steps: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    seed_sets: str
    make: object = field(repr=False)


def _cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(path, ref_path, rtol=CSV_RTOL):
    """Problems found comparing a CSV with its reference, cell by cell.

    Integer cells must be equal, empty cells must stay empty, and other
    cells must agree to the relative tolerance.
    """
    got, ref = _cells(path), _cells(ref_path)
    if got[:1] != ref[:1] or len(got) != len(ref):
        return [(f"{Path(path).name}: header or row count differs from reference", False)]
    problems = []
    for i, (grow, rrow) in enumerate(zip(got[1:], ref[1:]), start=1):
        for col, g, r in zip(ref[0], grow, rrow):
            if r.lstrip("-").isdigit() or r == "":
                ok = g == r
            else:
                ok = g != "" and math.isclose(float(g), float(r), rel_tol=rtol, abs_tol=0.0)
            if not ok:
                problems.append((f"row {i} {col}: {g!r} vs reference {r!r}", False))
    return problems


def _csv_request(name, argv, out, ref, dof_steps, extra_check=None):
    def call():
        return cli.main([*argv, "--out", str(out)])

    def check(code):
        if code != 0:
            return [(f"exit code {code}", True)]
        problems = compare_csv(out, REFERENCE / ref)
        if extra_check is not None:
            problems += extra_check(out)
        return problems

    return Request(name, call, check, dof_steps)


def _solve_1d(seed, out_dir):
    p, N, steps = 5, 40, 1000
    return [
        _csv_request("solve", ["solve"], out_dir / "solve.csv", "solve-1d.csv",
                     (N + p - 2) * steps)
    ]


def _timestep_1d(seed, out_dir):
    p, N, steps = 6, 1000, 4000
    tau_ref = json.loads((REFERENCE / "timestep-1d.json").read_text())["tau"]

    def call():
        return experiments.free_run(p=p, N=N, rho=1.0, tau_factor=0.9, n_steps=steps, seed=seed)

    def check(output):
        res, tau = output
        if res.blew_up:
            return [(f"blow-up at step {res.steps_completed} below the critical step", True)]
        problems = []
        if res.steps_completed != steps or not np.all(np.isfinite(res.final.u)):
            problems.append((f"run ended at step {res.steps_completed} without a blow-up flag", False))
        if not math.isclose(tau, tau_ref, rel_tol=TAU_RTOL, abs_tol=0.0):
            problems.append((f"tau {tau!r} differs from reference {tau_ref!r}", False))
        return problems

    return [Request("free_run", call, check, (N + p - 2) * steps)]


def _convergence_2d(seed, out_dir):
    degrees, elements, steps = (3, 4, 5), (4, 8, 16, 32), 100
    dof_steps = sum((N + p - 2) ** 2 * steps for p in degrees for N in elements)
    argv = ["convergence", "--mode", "space", "--dim", "2", "--workers", "2"]
    return [_csv_request("convergence", argv, out_dir / "convergence.csv",
                         "convergence-2d.csv", dof_steps)]


def _spectrum_band(out):
    """Criterion 3: the penalized top eigenvalue sits at pi^2 / h^2."""
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for row in rows:
        h = 1.0 / int(row["N"])
        ratio = float(row["lambda_tilde"]) * h * h / math.pi**2
        if abs(ratio - 1.0) > BAND:
            problems.append((f"p={row['p']} N={row['N']}: lambda_tilde h^2/pi^2 = {ratio:.6f}", False))
    return problems


def _power_1d_penalized(seed):
    d = experiments.build_1d(5, 40)
    return eigen.max_eigenvalue(d.Kt.matvec, d.Mt.factor(), d.Kt.n, apply_M=d.Mt.matvec, seed=seed)


def _power_2d_standard(seed):
    d = experiments.build_1d(3, 8)
    mass, stiff = tensor_ops.build_tensor_operators([(d.M, d.K), (d.M, d.K)])
    return eigen.max_eigenvalue(stiff.matvec, tensor_ops.kron_mass_factor(mass), mass.total_dim,
                                apply_M=mass.matvec, seed=seed)


def _power_request(name, run, dense, seed):
    def check(res):
        if not res.converged:
            return [(f"converged=False after {res.iterations} sweeps, residual {res.residual:.3g}", True)]
        problems = []
        if not math.isclose(res.value, dense, rel_tol=POWER_RTOL, abs_tol=0.0):
            problems.append((f"value {res.value!r} vs dense {dense!r}", False))
        if not res.residual <= POWER_RESIDUAL:
            problems.append((f"converged with residual {res.residual:.3g}", False))
        return problems

    return Request(name, lambda: run(seed), check)


def _eigen(seed, out_dir):
    # Dense references for the power calls, computed before any timing.
    d1 = experiments.build_1d(5, 40)
    dense_1d = eigen.full_spectrum(d1.Kt, d1.Mt).max
    d2 = experiments.build_1d(3, 8)
    mass, stiff = tensor_ops.build_tensor_operators([(d2.M, d2.K), (d2.M, d2.K)])
    dense_2d = eigen.full_spectrum(stiff.to_dense(), mass.to_dense()).max
    argv = ["spectrum", "--degrees", "3,4,5,6", "--elements", "250,500,1000", "--workers", "2"]
    return [
        _csv_request("spectrum", argv, out_dir / "spectrum.csv", "eigen-spectrum.csv", 0,
                     extra_check=_spectrum_band),
        _power_request("max_eigenvalue-1d-penalized", _power_1d_penalized, dense_1d, seed),
        _power_request("max_eigenvalue-2d-standard", _power_2d_standard, dense_2d, seed),
    ]


def _stepping(seed, out_dir):
    """The requests of the three time-stepping workloads in one loop."""
    return _solve_1d(seed, out_dir) + _timestep_1d(seed, out_dir) + _convergence_2d(seed, out_dir)


# Why each workload is in the benchmark: see METRICS.md.  BENCHMARK.json
# gates `stepping` and `eigen`; the other three are the parts of `stepping`,
# runnable alone to attribute its layer metrics.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-1d",
            workers=1,
            seed_sets="request order only (no random input)",
            make=_solve_1d,
        ),
        Workload(
            "timestep-1d",
            workers=1,
            seed_sets="free_run initial data and request order",
            make=_timestep_1d,
        ),
        Workload(
            "eigen",
            workers=2,
            seed_sets="max_eigenvalue start vectors and request order",
            make=_eigen,
        ),
        Workload(
            "convergence-2d",
            workers=2,
            seed_sets="request order only (no random input)",
            make=_convergence_2d,
        ),
        Workload(
            "stepping",
            workers=2,
            seed_sets="free_run initial data and request order",
            make=_stepping,
        ),
    )
}
