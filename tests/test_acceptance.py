"""Acceptance battery.

Each test covers one numbered criterion and emits a single
"criterion N (<label>): PASS/FAIL" line (also summarized at the end of the
run by the conftest hook).  A failing criterion lists every violated cell
with the measured and expected values, so a red line is diagnosable from
the log alone.

The frozen reference tables below are regression targets for the spectrum
studies; columns are (lambda, lambda_tilde, tau_c, tau_c_tilde, ratio) at
three significant digits for the step columns and one decimal for the
eigenvalues.

Penalty weighting of the tables.  The penalized cells for p >= 5 were not
computed with the library's endpoint weights h^(4l+1) (mass) and
pi^2 h^(4l-1) (stiffness).  They match, to the printed digit, the endpoint
matrices weighted by h^(6l-1) and pi^2 h^(6l-3): at (p=5, N=80) the
default gives lambda_tilde = 63190.0 and that weighting 63894.6, the
tabulated value.  The two coincide at l = 1, so p = 3 and p = 4 agree
either way.  The library offers no such weighting, and the tabulated
(5, 80) value breaks criterion 3's pi^2/h^2 band (1.0115), so criteria 1
and 5 compare the library default against the tables and fail at that
cell until the intended weighting is settled (README, "Known reference
discrepancies").
"""

import numpy as np
import pytest

from igawave import experiments as ex
from igawave.eigen import full_spectrum, max_eigenvalue
from igawave.integrator import critical_omega, params_from_rho
from igawave.tensor_ops import build_tensor_operators, kron_mass_factor

DEGREES = [3, 4, 5, 6]
ELEMENTS = [5, 10, 20, 40, 80]

# 1D, unit coefficient, no dissipation (rho = 0).
REF_1D_CONSERVATIVE = {
    (3, 5): (402.8, 246.9, 7.72e-2, 9.86e-2, 1.28),
    (3, 10): (1473.6, 987.5, 4.04e-2, 4.93e-2, 1.22),
    (3, 20): (5823.5, 3950.1, 2.03e-2, 2.46e-2, 1.21),
    (3, 40): (23289.6, 15800.4, 1.02e-2, 1.23e-2, 1.21),
    (3, 80): (93158.2, 63202.2, 5.08e-3, 6.16e-3, 1.21),
    (4, 5): (680.9, 246.8, 5.94e-2, 9.86e-2, 1.66),
    (4, 10): (2473.6, 987.2, 3.11e-2, 4.93e-2, 1.58),
    (4, 20): (9797.3, 3948.6, 1.57e-2, 2.47e-2, 1.58),
    (4, 40): (39184.6, 15794.5, 7.83e-3, 1.23e-2, 1.58),
    (4, 80): (156738.5, 63177.9, 3.91e-3, 6.16e-3, 1.58),
    (5, 5): (1105.5, 246.8, 4.66e-2, 9.86e-2, 2.12),
    (5, 10): (3976.8, 987.5, 2.46e-2, 4.93e-2, 2.01),
    (5, 20): (15722.0, 3952.3, 1.24e-2, 2.46e-2, 1.99),
    (5, 40): (62874.0, 15845.2, 6.18e-3, 1.23e-2, 1.99),
    (5, 80): (251495.8, 63894.6, 3.09e-3, 6.13e-3, 1.98),
    (6, 5): (1703.9, 246.8, 3.75e-2, 9.86e-2, 2.63),
    (6, 10): (6040.7, 987.2, 1.99e-2, 4.93e-2, 2.47),
    (6, 20): (23810.0, 3949.2, 1.00e-2, 2.47e-2, 2.46),
    (6, 40): (95199.4, 15802.2, 5.02e-3, 1.23e-2, 2.45),
    (6, 80): (380797.4, 63297.0, 2.51e-3, 6.16e-3, 2.45),
}

# 1D, kappa = exp(x - x^2), rho = 0.5.
REF_1D_DAMPED_VARCOEFF = {
    (3, 5): (449.9, 247.0, 8.80e-2, 1.19e-1, 1.35),
    (3, 10): (1588.6, 1071.7, 4.68e-2, 5.70e-2, 1.22),
    (3, 20): (6058.7, 4753.3, 2.40e-2, 2.71e-2, 1.13),
    (3, 40): (23762.8, 19687.5, 1.21e-2, 1.33e-2, 1.10),
    (3, 80): (94105.8, 79970.9, 6.08e-3, 6.60e-3, 1.08),
    (4, 5): (732.5, 292.3, 6.90e-2, 1.09e-1, 1.58),
    (4, 10): (2578.1, 1176.4, 3.68e-2, 5.44e-2, 1.48),
    (4, 20): (10009.4, 4778.8, 1.87e-2, 2.70e-2, 1.45),
    (4, 40): (39616.1, 19596.4, 9.38e-3, 1.33e-2, 1.42),
    (4, 80): (157607.6, 79726.3, 4.70e-3, 6.61e-3, 1.41),
    (5, 5): (1164.8, 246.9, 5.47e-2, 1.19e-1, 2.17),
    (5, 10): (4091.2, 1020.5, 2.92e-2, 5.84e-2, 2.00),
    (5, 20): (15954.0, 4653.7, 1.48e-2, 2.74e-2, 1.85),
    (5, 40): (63345.2, 19515.3, 7.42e-3, 1.34e-2, 1.80),
    (5, 80): (252445.0, 79579.1, 3.71e-3, 6.62e-3, 1.78),
    (6, 5): (1773.4, 292.2, 4.43e-2, 1.09e-1, 2.46),
    (6, 10): (6171.1, 1174.8, 2.38e-2, 5.45e-2, 2.29),
    (6, 20): (24073.3, 4755.8, 1.20e-2, 2.71e-2, 2.25),
    (6, 40): (95733.3, 19478.2, 6.03e-3, 1.34e-2, 2.22),
    (6, 80): (381872.3, 79452.8, 3.02e-3, 6.62e-3, 2.19),
}

# 2D, unit coefficient, rho = 0.5; only (lambda, lambda_tilde, ratio) are
# compared, the absolute 2D step columns of the source data carry an extra
# factor close to 1/sqrt(2) that the ratio cancels.
REF_2D = {
    (3, 5): (805.5, 493.8, 1.28),
    (3, 10): (2947.3, 1975.0, 1.22),
    (3, 20): (11646.9, 7900.2, 1.21),
    (3, 40): (46579.1, 31600.8, 1.21),
    (3, 80): (186316.4, 126404.3, 1.21),
    (4, 5): (1361.8, 493.6, 1.66),
    (4, 10): (4947.2, 1974.3, 1.58),
    (4, 20): (19594.7, 7897.3, 1.58),
    (4, 40): (78369.2, 31589.0, 1.58),
    (4, 80): (313477.0, 126355.8, 1.58),
    (5, 5): (2211.0, 493.7, 2.12),
    (5, 10): (7953.6, 1975.0, 2.01),
    (5, 20): (31444.0, 7904.7, 1.99),
    (5, 40): (125747.9, 31690.5, 1.99),
    (5, 80): (502991.7, 127789.2, 1.98),
    (6, 5): (3407.8, 493.6, 2.63),
    (6, 10): (12081.3, 1974.4, 2.47),
    (6, 20): (47620.1, 7898.4, 2.46),
    (6, 40): (190398.8, 31604.3, 2.45),
    (6, 80): (761594.7, 126594.0, 2.45),
}


def rel(a, b):
    return abs(a - b) / abs(b)


def _finish(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({label}): {status}")
    assert not failures, f"criterion {num} ({label}):\n" + "\n".join(failures)


@pytest.fixture(scope="module")
def table_1d_conservative():
    rows = ex.spectrum_table(DEGREES, ELEMENTS, dim=1, kappa="one", rho=0.0)
    return {(r["p"], r["N"]): r for r in rows}


@pytest.fixture(scope="module")
def table_1d_damped_varcoeff():
    rows = ex.spectrum_table(DEGREES, ELEMENTS, dim=1, kappa="exp", rho=0.5)
    return {(r["p"], r["N"]): r for r in rows}


@pytest.fixture(scope="module")
def table_2d():
    rows = ex.spectrum_table(DEGREES, ELEMENTS, dim=2, kappa="one", rho=0.5)
    return {(r["p"], r["N"]): r for r in rows}


def test_criterion_01_spectrum_table_1d_conservative(table_1d_conservative):
    failures = []
    assert len(REF_1D_CONSERVATIVE) == 20
    for key, (lam, lam_t, tau, tau_t, ratio) in REF_1D_CONSERVATIVE.items():
        row = table_1d_conservative[key]
        for name, mine, want, tol in (
            ("lambda", row["lambda"], lam, 5e-3),
            ("lambda_tilde", row["lambda_tilde"], lam_t, 5e-3),
            ("tau_c", row["tau_c"], tau, 1e-2),
            ("tau_c_tilde", row["tau_c_tilde"], tau_t, 1e-2),
        ):
            if rel(mine, want) > tol:
                failures.append(
                    f"  (p={key[0]}, N={key[1]}) {name}: {mine:.6g} vs {want:.6g} "
                    f"({100 * rel(mine, want):.3f}% > {100 * tol:.1f}%)"
                )
        if abs(row["ratio"] - ratio) > 0.02:
            failures.append(
                f"  (p={key[0]}, N={key[1]}) ratio: {row['ratio']:.4f} vs {ratio:.2f}"
            )
    _finish(1, "spectrum table, 1D conservative", failures)


def test_criterion_02_growth_of_step_ratio(table_1d_conservative):
    failures = []
    for p in DEGREES:
        law = np.sqrt((p**2 - 3 * p + 6) / 4.0)
        mine = table_1d_conservative[(p, 80)]["ratio"]
        if rel(mine, law) > 0.02:
            failures.append(f"  p={p}: ratio {mine:.4f} vs law {law:.4f}")
    _finish(2, "critical-step ratio growth law at N=80", failures)


def test_criterion_03_penalized_eigenvalue_pins_to_pi_squared(table_1d_conservative):
    failures = []
    for (p, N), row in table_1d_conservative.items():
        if N < 10:
            continue
        scaled = row["lambda_tilde"] / (N**2 * np.pi**2)
        if not 0.99 <= scaled <= 1.01:
            failures.append(f"  (p={p}, N={N}): lambda_tilde h^2 / pi^2 = {scaled:.5f}")
    _finish(3, "penalized top eigenvalue scaling", failures)


def test_criterion_04_spectrum_table_1d_damped_varcoeff(table_1d_damped_varcoeff):
    failures = []
    for key, (lam, lam_t, tau, tau_t, ratio) in REF_1D_DAMPED_VARCOEFF.items():
        row = table_1d_damped_varcoeff[key]
        for name, mine, want, tol in (
            ("lambda", row["lambda"], lam, 5e-3),
            ("lambda_tilde", row["lambda_tilde"], lam_t, 5e-3),
            ("tau_c", row["tau_c"], tau, 1e-2),
            ("tau_c_tilde", row["tau_c_tilde"], tau_t, 1e-2),
        ):
            if rel(mine, want) > tol:
                failures.append(
                    f"  (p={key[0]}, N={key[1]}) {name}: {mine:.6g} vs {want:.6g} "
                    f"({100 * rel(mine, want):.3f}% > {100 * tol:.1f}%)"
                )
        if abs(row["ratio"] - ratio) > 0.03:
            failures.append(
                f"  (p={key[0]}, N={key[1]}) ratio: {row['ratio']:.4f} vs {ratio:.2f}"
            )
    _finish(4, "spectrum table, 1D damped variable coefficient", failures)


def test_criterion_05_spectrum_table_2d_and_additivity(table_2d):
    failures = []
    for key, (lam, lam_t, ratio) in REF_2D.items():
        row = table_2d[key]
        for name, mine, want in (
            ("lambda", row["lambda"], lam),
            ("lambda_tilde", row["lambda_tilde"], lam_t),
        ):
            if rel(mine, want) > 5e-3:
                failures.append(
                    f"  (p={key[0]}, N={key[1]}) {name}: {mine:.6g} vs {want:.6g} "
                    f"({100 * rel(mine, want):.3f}% > 0.5%)"
                )
        if abs(row["ratio"] - ratio) > 0.02:
            failures.append(
                f"  (p={key[0]}, N={key[1]}) ratio: {row['ratio']:.4f} vs {ratio:.2f}"
            )
    # Axis additivity, checked against an independent dense materialization
    # of the tensor operators at sizes the dense route can afford.
    for p in DEGREES:
        for N in (5, 10, 20):
            d = ex.build_1d(p, N)
            for tag, pair in (("standard", (d.M, d.K)), ("penalized", (d.Mt, d.Kt))):
                mass, stiff = build_tensor_operators([pair, pair])
                lam2 = full_spectrum(stiff.to_dense(), mass.to_dense()).max
                lam1 = full_spectrum(pair[1], pair[0]).max
                if rel(lam2, 2.0 * lam1) > 1e-8:
                    failures.append(
                        f"  additivity (p={p}, N={N}, {tag}): "
                        f"{lam2:.10g} vs 2*{lam1:.10g}"
                    )
    _finish(5, "spectrum table, 2D, and axis additivity", failures)


def test_criterion_06_critical_omega_constants():
    failures = []
    checks = (
        (1.0, 2.000000, 1e-6),
        (0.0, 1.549193, 1e-4),
        (0.5, 1.8665, 1e-3),
    )
    for rho, want, tol in checks:
        got = critical_omega(params_from_rho(rho))
        if abs(got - want) > tol:
            failures.append(f"  rho={rho}: critical Omega {got:.7f} vs {want} (tol {tol})")
    grid = [critical_omega(params_from_rho(r)) for r in np.arange(0.0, 1.0 + 1e-12, 0.1)]
    for a, b, r in zip(grid, grid[1:], np.arange(0.1, 1.0 + 1e-12, 0.1)):
        if b < a - 1e-9:
            failures.append(f"  not monotone at rho={r:.1f}: {b:.7f} < {a:.7f}")
    _finish(6, "critical step constants and monotonicity", failures)


@pytest.fixture(scope="module")
def mesh_rates_1d():
    return ex.convergence_space([3, 4, 5], ELEMENTS, dim=1, kappa="one",
                                rho=1.0, T=1.0, n_steps=10_000)


@pytest.fixture(scope="module")
def mesh_rates_2d():
    # N=64 because N=4..32 is pre-asymptotic for p=5: on N=16, the
    # finest-but-one mesh, omega h = 3 pi/16 ~ 0.59 (see
    # test_mms_errors.test_projection_rates_settle_past_n32_for_p5).
    return ex.convergence_space([3, 4, 5], [4, 8, 16, 32, 64], dim=2,
                                rho=1.0, T=0.01, n_steps=100)


def test_criterion_07_mesh_convergence_rates(mesh_rates_1d, mesh_rates_2d):
    # The quoted rate of a refinement sequence is the one observed on its
    # finest mesh pair.
    failures = []
    for label, rows in (("1D", mesh_rates_1d), ("2D", mesh_rates_2d)):
        for p in (3, 4, 5):
            finest = [r for r in rows if r["p"] == p][-1]
            for key, want in (("l2_rate", p + 1.0), ("h1_rate", float(p))):
                got = finest[key]
                if abs(got - want) > 0.2:
                    failures.append(
                        f"  {label} p={p} {key}: {got:.3f} outside {want} +- 0.2"
                    )
    _finish(7, "mesh convergence rates", failures)


def test_criterion_08_step_convergence_slopes():
    failures = []
    steps = [1000, 1400, 2000, 2800]
    for kappa in ("one", "exp"):
        for rho in (0.0, 0.5, 1.0):
            rows = ex.convergence_time(steps, p=5, N=100, kappa=kappa, rho=rho,
                                       T=1.0, penalized=True)
            slope = np.polyfit(
                np.log([r["tau"] for r in rows]), np.log([r["l2"] for r in rows]), 1
            )[0]
            if not 1.9 <= slope <= 2.1:
                failures.append(f"  kappa={kappa} rho={rho}: slope {slope:.3f}")
    _finish(8, "second order in the step size", failures)


def test_criterion_09_near_critical_runs():
    failures = []
    below, _ = ex.free_run(6, 80, rho=1.0, tau_factor=0.98, n_steps=10_000)
    if below.blew_up:
        failures.append(f"  0.98 tau_c blew up at step {below.steps_completed}")
    above, _ = ex.free_run(6, 80, rho=1.0, tau_factor=1.05, n_steps=2_000)
    if not above.blew_up:
        failures.append("  1.05 tau_c did not blow up within 2000 steps")
    _finish(9, "near-critical stability bracketing", failures)


def test_criterion_10_eigensolver_cross_checks():
    failures = []

    def check_pair(tag, apply_K, solve_M, apply_M, n, dense_max, **kw):
        res = max_eigenvalue(apply_K, solve_M, n, apply_M=apply_M, **kw)
        if rel(res.value, dense_max) > 1e-8:
            failures.append(
                f"  {tag}: power {res.value:.10g} vs dense {dense_max:.10g}"
            )
        if res.residual > 1e-6:
            failures.append(f"  {tag}: residual {res.residual:.2e}")
        return res

    # 1D battery across degrees, meshes, coefficients and both forms.
    for p in DEGREES:
        for N in (5, 10, 20):
            for kappa in ("one", "exp"):
                d = ex.build_1d(p, N, kappa)
                for tag, (M, K) in (
                    ("standard", (d.M, d.K)),
                    ("penalized", (d.Mt, d.Kt)),
                ):
                    dense_max = full_spectrum(K, M).max
                    check_pair(
                        f"1D p={p} N={N} {kappa} {tag}",
                        K.matvec, M.factor(), M.matvec, d.kv.interior_dim,
                        dense_max, tol=1e-13, max_iter=200_000,
                    )

    # 2D tensor systems small enough for the dense route.
    for N in (4, 8):
        d = ex.build_1d(3, N)
        for tag, pair in (("standard", (d.M, d.K)), ("penalized", (d.Mt, d.Kt))):
            mass, stiff = build_tensor_operators([pair, pair])
            dense_max = full_spectrum(stiff.to_dense(), mass.to_dense()).max
            n = d.kv.interior_dim ** 2
            check_pair(
                f"2D p=3 N={N} {tag}",
                stiff.matvec, kron_mass_factor(mass), mass.matvec, n,
                dense_max, tol=1e-13, max_iter=200_000,
            )

    # Hand-checkable diagonal system.
    Kd = np.diag([1.0, 2.0, 3.0])
    res = max_eigenvalue(lambda x: Kd @ x, lambda b: b, 3, apply_M=lambda x: x)
    if rel(res.value, 3.0) > 1e-8:
        failures.append(f"  diag(1,2,3): {res.value:.12g}")

    # Named large cells against the frozen table values.
    d = ex.build_1d(6, 80)
    dense_max = full_spectrum(d.K, d.M).max
    check_pair("1D p=6 N=80 standard", d.K.matvec, d.M.factor(), d.M.matvec,
               d.kv.interior_dim, dense_max, tol=1e-13, max_iter=200_000)
    if rel(dense_max, 380797.4) > 5e-4:
        failures.append(f"  1D p=6 N=80 standard: {dense_max:.1f} vs 380797.4")

    # Too large for the dense route in 2D; its top value is twice the 1D one.
    d = ex.build_1d(4, 40)
    mass, stiff = build_tensor_operators([(d.Mt, d.Kt), (d.Mt, d.Kt)])
    res = check_pair("2D p=4 N=40 penalized", stiff.matvec, kron_mass_factor(mass),
                     mass.matvec, d.kv.interior_dim ** 2, 2 * full_spectrum(d.Kt, d.Mt).max)
    if rel(res.value, 31589.0) > 5e-4:
        failures.append(f"  2D p=4 N=40 penalized: {res.value:.1f} vs 31589.0")

    # Tensor spectra are pairwise/triple sums of the axis spectra.
    d = ex.build_1d(3, 4)
    vals1 = full_spectrum(d.K, d.M).eigenvalues
    mass, stiff = build_tensor_operators([(d.M, d.K), (d.M, d.K)])
    vals2 = np.sort(full_spectrum(stiff.to_dense(), mass.to_dense()).eigenvalues)
    sums = np.sort(np.add.outer(vals1, vals1).ravel())
    if not np.allclose(vals2, sums, rtol=1e-10, atol=1e-10):
        failures.append(
            f"  2D spectrum vs pairwise sums: max diff "
            f"{np.max(np.abs(vals2 - sums)):.2e}"
        )
    mass3, stiff3 = build_tensor_operators([(d.M, d.K)] * 3)
    lam3 = full_spectrum(stiff3.to_dense(), mass3.to_dense()).max
    if rel(lam3, 3.0 * vals1[-1]) > 1e-10:
        failures.append(f"  3D max {lam3:.10g} vs 3 * {vals1[-1]:.10g}")

    _finish(10, "eigensolver cross-checks", failures)
