"""Layer microbenchmarks (pytest-benchmark).

Run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

Outside the default test paths, so the test suite does not collect them.
Add --benchmark-json=FILE to keep the numbers.
"""

import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import igawave
from igawave.assembly_1d import assemble_load, assemble_penalty, element_tables
from igawave.cli import main
from igawave.eigen import max_eigenvalue, top_eigenvalue
from igawave.experiments import _process_map, build_1d, free_run, spectrum_table
from igawave.integrator import critical_omega, initial_state, integrate, params_from_rho
from igawave.mms_errors import l2_error, l2_error_2d, manufactured_case
from igawave.quadrature import gauss_legendre, map_to_element
from igawave.spline_basis import eval_basis_many, open_uniform_knots
from igawave.tensor_ops import acceleration_map, build_tensor_operators, kron_mass_factor


def test_eval_basis_many_6000_gauss_points(benchmark):
    kv = open_uniform_knots(5, 1000)
    bp = kv.breakpoints
    xs, _ = map_to_element(gauss_legendre(6), bp[:-1], bp[1:])
    firsts, ders = benchmark(eval_basis_many, kv, xs.ravel(), 1)
    assert ders.shape == (6000, 2, 6)


@pytest.mark.parametrize("N", [80, 1000])
def test_build_1d_p5(benchmark, N):
    d = benchmark(build_1d, 5, N)
    assert d.Mt.n == N + 3


def tracemalloc_peak_mb(fn, *args):
    """What one call allocates at its peak, result included, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_build_1d_p6(benchmark, N):
    """Times build_1d(6, N); extra_info["tracemalloc_peak_mb"] is one
    build's peak, outside the timed rounds."""
    assert benchmark(build_1d, 6, N).Mt.n == N + 4
    benchmark.extra_info["tracemalloc_peak_mb"] = tracemalloc_peak_mb(build_1d, 6, N)


def test_build_1d_p6_n1000(benchmark):
    bench_build_1d_p6(benchmark, 1000)


def test_build_1d_p6_n10000(benchmark):
    bench_build_1d_p6(benchmark, 10_000)


def test_assemble_penalty_p6_n100000(benchmark):
    """One level-2 penalty; extra_info["tracemalloc_peak_mb"] as for build_1d."""
    kv = open_uniform_knots(6, 100_000)
    assert benchmark(assemble_penalty, kv, 2).n == kv.interior_dim
    benchmark.extra_info["tracemalloc_peak_mb"] = tracemalloc_peak_mb(assemble_penalty, kv, 2)


def test_assemble_load_p5_n1000(benchmark):
    """The manufactured load on the 8-point table that a run builds once."""
    kv = open_uniform_knots(5, 1000)
    tables = element_tables(kv, gauss_legendre(8), 1)
    load = manufactured_case("one").load
    assert benchmark(assemble_load, kv, tables, load).shape == (kv.interior_dim,)


def test_spectrum_table_cell_n1000(benchmark):
    rows = benchmark.pedantic(spectrum_table, args=([5], [1000]), kwargs={"workers": 1},
                              rounds=3, iterations=1)
    assert rows[0]["ratio"] > 1.0


@pytest.mark.parametrize("N", [80, 1000, 10_000])
def test_top_eigenvalue_penalized_p5(benchmark, N):
    d = build_1d(5, N)
    lam = benchmark(top_eigenvalue, d.Kt, d.Mt)
    assert lam / (N * np.pi) ** 2 == pytest.approx(1.0, abs=0.01)


# The two max_eigenvalue requests of the benchmark's eigen workload, assembly
# and mass factorization included, as the workload times them.
def max_eigenvalue_penalized_p5_n40():
    d = build_1d(5, 40)
    return max_eigenvalue(d.Kt.matvec, d.Mt.factor(), d.Kt.n, apply_M=d.Mt.matvec)


def max_eigenvalue_2d_standard_p3_n8():
    d = build_1d(3, 8)
    mass, stiff = build_tensor_operators([(d.M, d.K), (d.M, d.K)])
    return max_eigenvalue(stiff.matvec, kron_mass_factor(mass), mass.total_dim,
                          apply_M=mass.matvec)


def test_max_eigenvalue_penalized_p5_n40(benchmark):
    res = benchmark(max_eigenvalue_penalized_p5_n40)
    assert res.value / (40 * np.pi) ** 2 == pytest.approx(1.0, abs=0.01)


def test_max_eigenvalue_2d_standard_p3_n8(benchmark):
    assert benchmark(max_eigenvalue_2d_standard_p3_n8).residual <= 1e-6


def test_max_eigenvalue_penalized_p7_n20(benchmark):
    """A penalized pair with cond(M) near 1e11, mass factorization included."""
    d = build_1d(7, 20)
    res = benchmark(lambda: max_eigenvalue(d.Kt.matvec, d.Mt.factor(), d.Kt.n,
                                           apply_M=d.Mt.matvec))
    assert res.value / (20 * np.pi) ** 2 == pytest.approx(1.0, abs=0.01)


@pytest.fixture(scope="module")
def penalized_n1003():
    d = build_1d(5, 1000)
    return d.Kt, d.Mt, np.random.default_rng(0).standard_normal(d.Kt.n)


def test_stiffness_apply_n1003(benchmark, penalized_n1003):
    K, _, x = penalized_n1003
    K.matvec(x)  # the row blocks are built once, outside the timing
    assert benchmark(K.matvec, x).shape == x.shape


def test_mass_solve_n1003(benchmark, penalized_n1003):
    _, M, x = penalized_n1003
    assert benchmark(M.factor(), x).shape == x.shape


def test_critical_omega_rho_half(benchmark):
    assert benchmark(critical_omega, params_from_rho(0.5)) == pytest.approx(np.sqrt(108 / 31))


STEPS = 1000


def test_integrate_1000_steps_p5_n40(benchmark):
    """1000 steps of the default solve problem size under a constant load f,
    each one call of accel(t, u) = M^-1 (f - K u); per step is median / 1000."""
    d = build_1d(5, 40)
    solve, apply_K = d.Mt.factor(), d.Kt.matvec
    rng = np.random.default_rng(0)
    f = rng.standard_normal(d.Mt.n)

    def accel(t, u):
        return solve(f - apply_K(u))

    params = params_from_rho(1.0)
    tau = 0.5 * critical_omega(params) / np.sqrt(top_eigenvalue(d.Kt, d.Mt))
    s0 = initial_state(accel, rng.standard_normal(d.Mt.n), np.zeros(d.Mt.n))
    res = benchmark(integrate, s0, accel, tau, STEPS, params)
    assert not res.blew_up and res.steps_completed == STEPS


def test_to_dense_n1004(benchmark):
    """The dense view of the penalized stiffness at p=6, N=1000, which is
    not kept, so each round builds it afresh: the size full_spectrum pays
    for (every apply, 1D or Kronecker, uses the stacked windows instead)."""
    K = build_1d(6, 1000).Kt
    dense = benchmark.pedantic(K.to_dense, rounds=50, iterations=1)
    assert dense.shape == (1004, 1004)


def test_apply_windows_n1004(benchmark):
    """The stacked windows of free_run's penalized stiffness, which its
    first apply builds; _stack does not cache, so each round builds them
    afresh."""
    K = build_1d(6, 1000).Kt
    cols, stack, c0, trail = benchmark.pedantic(K._stack, rounds=50, iterations=1)
    assert stack.shape == (62, 16, 32) and cols.shape == (62, 32)
    assert (c0, trail.shape) == (984, (12, 20))


def test_free_run_timestep_1d(benchmark):
    """The stepping workload's timestep-1d request in this process: 4000
    steps at p=6, N=1000, each one stiffness apply and one mass solve, next
    to test_stiffness_apply_n1003 and test_mass_solve_n1003."""
    res, _ = benchmark.pedantic(free_run, args=(6, 1000, 1.0, 0.9, 4000), kwargs={"seed": 1},
                                rounds=7, iterations=1, warmup_rounds=1)
    assert not res.blew_up and res.steps_completed == 4000


def kron_2d(p, N):
    """The penalized 2D operators, a random vector x and the acceleration
    map m(s, u) = M^-1 (s x - K u), which replaces an apply plus a solve in
    a step."""
    d = build_1d(p, N)
    mass, stiff = build_tensor_operators([(d.Mt, d.Kt)] * 2)
    stiff.matvec(np.zeros(stiff.total_dim))  # one apply outside the timing
    x = np.random.default_rng(0).standard_normal(mass.total_dim)
    return mass, stiff, x, acceleration_map([(d.Mt, d.Kt)] * 2, x)


@pytest.fixture(scope="module")
def kron_p5_n64():
    return kron_2d(5, 64)


@pytest.fixture(scope="module")
def kron_p5_n130():
    """Axes of 133 unknowns, above WHOLE_MAX: each axis runs on band windows."""
    return kron_2d(5, 130)


@pytest.fixture(scope="module")
def kron_p3_n4():
    """A small grid, where the per-call bookkeeping is most of an apply or solve."""
    return kron_2d(3, 4)


def test_kron_stiffness_apply_2d_n64(benchmark, kron_p5_n64):
    _, stiff, x, _ = kron_p5_n64
    assert benchmark(stiff.matvec, x).shape == x.shape


def test_kron_stiffness_apply_2d_n130(benchmark, kron_p5_n130):
    _, stiff, x, _ = kron_p5_n130
    assert benchmark(stiff.matvec, x).shape == x.shape


def test_kron_mass_solve_2d_n64(benchmark, kron_p5_n64):
    mass, _, x, _ = kron_p5_n64
    assert benchmark(kron_mass_factor(mass), x).shape == x.shape


def test_kron_stiffness_apply_2d_n4(benchmark, kron_p3_n4):
    _, stiff, x, _ = kron_p3_n4
    assert benchmark(stiff.matvec, x).shape == x.shape


def test_kron_mass_solve_2d_n4(benchmark, kron_p3_n4):
    mass, _, x, _ = kron_p3_n4
    assert benchmark(kron_mass_factor(mass), x).shape == x.shape


@pytest.mark.parametrize("grid", ["kron_p3_n4", "kron_p5_n64", "kron_p5_n130"])
def test_acceleration_map_2d(benchmark, request, grid):
    """One step's M^-1 (e^t x - K u), two axis applies and two axis solves,
    next to the Kronecker stiffness apply and mass solve it replaces."""
    *_, x, m = request.getfixturevalue(grid)
    assert benchmark(lambda: m(np.exp(0.5), x)).shape == x.shape


def test_l2_error_p5_n40(benchmark):
    kv = open_uniform_knots(5, 40)
    c = np.random.default_rng(0).standard_normal(kv.interior_dim)
    assert benchmark(l2_error, kv, c, np.sin, gauss_legendre(8)) > 0.0


def test_l2_error_2d_p5_n64(benchmark):
    kv = open_uniform_knots(5, 64)
    c = np.random.default_rng(0).standard_normal(kv.interior_dim**2)
    case = manufactured_case("one", 2)
    exact = lambda x, y: case.u(x, y, 1.0)
    assert benchmark(l2_error_2d, kv, kv, c, exact, gauss_legendre(8)) > 0.0


# One run of each subcommand at its defaults through main(), in process (no
# interpreter start).  1D convergence at its defaults (about 3.4 s a run) is
# left out.
@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum"], id="spectrum"),
    pytest.param(["stability-region"], id="stability-region"),
    pytest.param(["solve"], id="solve"),
    pytest.param(["convergence", "--dim", "2"], id="convergence-2d"),
    pytest.param(["convergence", "--mode", "time"], id="convergence-time"),
])
def test_cli_defaults(benchmark, tmp_path, argv):
    out = tmp_path / "out.csv"
    assert benchmark.pedantic(main, args=(argv + ["--out", str(out)],),
                              rounds=3, iterations=1) == 0


def noop(item):
    return item


def test_process_map_12_noop_cells_2_workers(benchmark):
    """The fixed cost of the two-worker map: forking, dispatch, results and reaping."""
    assert benchmark(_process_map, noop, list(range(12)), 2) == list(range(12))


# The two requests of the benchmark workloads that run their cells on two
# worker processes, in process.
@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--degrees", "3,4,5,6", "--elements", "250,500,1000"],
                 id="spectrum-eigen"),
    pytest.param(["convergence", "--mode", "space", "--dim", "2"], id="convergence-2d"),
])
def test_cli_two_workers(benchmark, tmp_path, argv):
    out = tmp_path / "out.csv"
    assert benchmark.pedantic(main, args=(argv + ["--workers", "2", "--out", str(out)],),
                              rounds=12, iterations=1, warmup_rounds=1) == 0


ONE_THREAD_ENV = dict(os.environ, PYTHONPATH=str(Path(igawave.__file__).parents[1]),
                      OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def test_cli_import_fresh_interpreter(benchmark):
    """`import igawave.cli` in a new interpreter with one BLAS thread: the
    start-up every command-line run pays before its first argument is read."""
    argv = [sys.executable, "-c", "import igawave.cli"]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"env": ONE_THREAD_ENV, "check": True},
                       rounds=15, iterations=1, warmup_rounds=1)


FREE_RUN = """
from igawave.experiments import free_run
free_run(6, 1000, 1.0, 0.9, 10, seed=1)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_free_run_fresh_interpreter(benchmark):
    """A short free run at p=6, N=1000 in a new interpreter with one BLAS
    thread: imports, assembly, the top eigenvalue, the seeded start and the
    row blocks of the stiffness apply.  extra_info["peak_rss_mb"] is the
    median of the children's own peak resident set, VmHWM in kB.  Not
    ru_maxrss: exec
    carries the launching process's peak into the child's ru_maxrss, so
    under this pytest process it would read the benches run before."""
    peaks = []

    def run():
        out = subprocess.run([sys.executable, "-c", FREE_RUN], env=ONE_THREAD_ENV, check=True,
                             capture_output=True, text=True).stdout
        peaks.append(int(out) / 1024)

    benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
    benchmark.extra_info["peak_rss_mb"] = statistics.median(peaks)
