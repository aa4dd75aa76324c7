"""Time integrator: parameter family, scalar-equation equivalence with the
amplification matrix, spectral radius, critical step constants, blow-up,
and the in-place loop against repeated single steps.
"""

import numpy as np
import pytest

from igawave.eigen import top_eigenvalue
from igawave.experiments import build_1d
from igawave.integrator import (
    DynamicState,
    amplification_matrix,
    critical_omega,
    initial_state,
    integrate,
    params_from_rho,
    spectral_radius,
    step,
)
from igawave.tensor_ops import build_tensor_operators, kron_mass_factor

EYE1 = np.array([[1.0]])


def scalar_ops(omega):
    K = np.array([[omega**2]])
    return (lambda b: b), (lambda u: K @ u)


def zero_load(t):
    return np.zeros(1)


def test_parameter_family_endpoints():
    p1 = params_from_rho(1.0)
    assert (p1.alpha_m, p1.gamma, p1.beta) == pytest.approx((0.5, 1.0, 0.5))
    p0 = params_from_rho(0.0)
    assert (p0.alpha_m, p0.gamma, p0.beta) == pytest.approx((2.0, 2.5, 2.5))
    ph = params_from_rho(0.5)
    assert (ph.alpha_m, ph.gamma, ph.beta) == pytest.approx((1.0, 1.5, 28.0 / 27.0))


def test_rho_validation():
    with pytest.raises(ValueError):
        params_from_rho(-0.1)
    with pytest.raises(ValueError):
        params_from_rho(1.1)


def test_scalar_step_matches_amplification_matrix():
    """One step on u'' + w^2 u = 0 equals G acting on (u, tau v, tau^2 a)."""
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rho = rng.uniform(0, 1)
        omega = rng.uniform(0.1, 10.0)
        obar = rng.uniform(0.01, 3.9)
        tau = obar / omega
        params = params_from_rho(rho)
        solve_M, apply_K = scalar_ops(omega)
        u, v = rng.standard_normal(2)
        a = rng.standard_normal()  # arbitrary acceleration, not consistent
        s0 = initial_state(solve_M, apply_K, np.array([a + omega**2 * u]), [u], [v])
        s1 = step(s0, solve_M, apply_K, zero_load, tau, params)
        G = amplification_matrix(obar, params)
        z0 = np.array([u, tau * v, tau**2 * a])
        z1 = G @ z0
        got = np.array([s1.u[0], tau * s1.v[0], tau**2 * s1.a[0]])
        np.testing.assert_allclose(got, z1, rtol=1e-11, atol=1e-12)


def test_step_is_linear():
    rng = np.random.default_rng(5)
    params = params_from_rho(0.5)
    solve_M, apply_K = scalar_ops(2.0)
    tau = 0.3
    s = [
        initial_state(solve_M, apply_K, np.zeros(1), rng.standard_normal(1), rng.standard_normal(1))
        for _ in range(2)
    ]
    both = initial_state(
        solve_M, apply_K, np.zeros(1), s[0].u + 2 * s[1].u, s[0].v + 2 * s[1].v
    )
    a, b, c = (step(x, solve_M, apply_K, zero_load, tau, params) for x in (s[0], s[1], both))
    np.testing.assert_allclose(c.u, a.u + 2 * b.u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c.v, a.v + 2 * b.v, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c.a, a.a + 2 * b.a, rtol=1e-12, atol=1e-12)


def test_rest_stays_at_rest():
    solve_M, apply_K = scalar_ops(3.0)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.zeros(1), np.zeros(1))
    res = integrate(s0, solve_M, apply_K, zero_load, 0.1, 50, params_from_rho(1.0))
    assert not res.blew_up
    assert res.max_abs_u == 0.0


def test_consistent_initial_acceleration():
    solve_M, apply_K = scalar_ops(2.0)
    s0 = initial_state(solve_M, apply_K, np.array([4.0 * 1.5]), np.array([1.5]), np.zeros(1))
    np.testing.assert_allclose(s0.a, np.zeros(1), atol=1e-14)
    assert s0.t == 0.0


def test_explicit_scheme_reads_load_at_current_time():
    # alpha_f = 0 for the explicit family: the force is evaluated at t_n.
    seen = []

    def load(t):
        seen.append(t)
        return np.zeros(1)

    solve_M, apply_K = scalar_ops(1.0)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    step(s0, solve_M, apply_K, load, 0.25, params_from_rho(0.5))
    assert seen == [0.0]


def test_radius_is_one_at_zero_frequency():
    # G is triangular with a double eigenvalue 1 here, and the companion
    # solve smears a double root by about sqrt(eps).
    for rho in (0.0, 0.3, 1.0):
        G = amplification_matrix(0.0, params_from_rho(rho))
        assert spectral_radius(G) == pytest.approx(1.0, abs=1e-7)


def test_rho_one_family_has_minus_one_eigenvalue():
    """At rho = 1 the characteristic polynomial factors as
    (lam + 1)(lam^2 - (2 - W^2) lam + 1) for every frequency."""
    params = params_from_rho(1.0)
    for obar in (0.3, 1.0, 1.7):
        G = amplification_matrix(obar, params)
        vals = np.linalg.eigvals(G)
        assert np.min(np.abs(vals + 1.0)) < 1e-9  # simple root here
        assert spectral_radius(G) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(amplification_matrix(2.0, params)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(amplification_matrix(2.05, params)) > 1.0 + 1e-3


def test_triple_root_at_the_conservative_critical_point():
    G = amplification_matrix(2.0, params_from_rho(1.0))
    vals = np.sort(np.linalg.eigvals(G))
    np.testing.assert_allclose(vals, [-1.0, -1.0, -1.0], atol=5e-5)
    assert spectral_radius(G) == pytest.approx(1.0, abs=1e-12)


def test_critical_omega_constants():
    assert critical_omega(params_from_rho(1.0)) == pytest.approx(2.0, abs=1e-6)
    assert critical_omega(params_from_rho(0.0)) == pytest.approx(np.sqrt(2.4), abs=1e-4)
    assert critical_omega(params_from_rho(0.5)) == pytest.approx(
        np.sqrt(108.0 / 31.0), abs=1e-3
    )


def test_critical_omega_closed_form_against_the_spectral_radius():
    """C_rho sits on the stability boundary the amplification matrix draws:
    radius 1 just below it, above 1 just above it, for 201 values of rho."""
    for rho in np.linspace(0.0, 1.0, 201):
        params = params_from_rho(rho)
        c = critical_omega(params)
        assert spectral_radius(amplification_matrix(c * (1 - 1e-9), params)) <= 1 + 1e-12, rho
        assert spectral_radius(amplification_matrix(c * (1 + 1e-6), params)) > 1 + 1e-12, rho
    assert critical_omega(params_from_rho(1.0)) == 2.0
    assert critical_omega(params_from_rho(0.0)) == pytest.approx(np.sqrt(2.4), rel=1e-15)
    assert critical_omega(params_from_rho(0.5)) == pytest.approx(np.sqrt(108 / 31), rel=1e-15)


def test_critical_omega_monotone_in_rho():
    values = [critical_omega(params_from_rho(r)) for r in np.linspace(0, 1, 11)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_blow_up_above_critical():
    omega = 1.0
    solve_M, apply_K = scalar_ops(omega)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    tau = 2.5  # above C_rho for every rho in [0, 1]
    res = integrate(s0, solve_M, apply_K, zero_load, tau, 5000, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed < 5000
    assert res.max_abs_u > 1e6


def test_stable_below_critical():
    omega = 1.0
    solve_M, apply_K = scalar_ops(omega)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    res = integrate(s0, solve_M, apply_K, zero_load, 1.9, 5000, params_from_rho(1.0))
    assert not res.blew_up
    assert res.max_abs_u < 10.0


def test_callback_sees_every_step():
    solve_M, apply_K = scalar_ops(1.0)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    steps = []
    integrate(
        s0, solve_M, apply_K, zero_load, 0.1, 7, params_from_rho(0.5),
        callback=lambda i, st: steps.append((i, st.t)),
    )
    assert [i for i, _ in steps] == [1, 2, 3, 4, 5, 6, 7]
    assert steps[-1][1] == pytest.approx(0.7)


def test_integrate_validation():
    solve_M, apply_K = scalar_ops(1.0)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    with pytest.raises(ValueError):
        integrate(s0, solve_M, apply_K, zero_load, 0.1, 0, params_from_rho(0.5))
    with pytest.raises(ValueError):
        amplification_matrix(-0.1, params_from_rho(0.5))


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
def test_integrate_rejects_a_step_that_is_not_finite_and_positive(tau):
    solve_M, apply_K = scalar_ops(1.0)
    s0 = initial_state(solve_M, apply_K, np.zeros(1), np.ones(1), np.zeros(1))
    with pytest.raises(ValueError, match="^tau must be finite and positive"):
        integrate(s0, solve_M, apply_K, zero_load, tau, 5, params_from_rho(0.5))


def banded_problem(p, dim, penalized, N=5):
    """Mass solve, stiffness apply, a time-dependent load and a random start
    on real spline operators, 1D or 2D, with a step at half the critical one."""
    d = build_1d(p, N)
    M, K = (d.Mt, d.Kt) if penalized else (d.M, d.K)
    if dim == 1:
        solve_M, apply_K = M.factor(), K.matvec
    else:
        mass, stiff = build_tensor_operators([(M, K)] * dim)
        solve_M, apply_K = kron_mass_factor(mass), stiff.matvec
    n = M.n**dim
    rng = np.random.default_rng(p + 10 * dim)
    f = rng.standard_normal(n)
    tau = 0.5 * critical_omega(params_from_rho(1.0)) / np.sqrt(dim * top_eigenvalue(K, M))
    return solve_M, apply_K, (lambda t: np.cos(3.0 * t) * f), rng.standard_normal((2, n)), tau


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("p", range(1, 8))
def test_integrate_equals_repeated_step(p, penalized, rho, dim):
    """The in-place loop reproduces repeated step calls bit for bit."""
    solve_M, apply_K, load, (u0, v0), tau = banded_problem(p, dim, penalized)
    params = params_from_rho(rho)
    s0 = initial_state(solve_M, apply_K, load(0.0), u0, v0)
    seen = []
    res = integrate(s0, solve_M, apply_K, load, tau, 12, params,
                    callback=lambda i, st: seen.append(st))
    ref = s0
    for st in seen:
        ref = step(ref, solve_M, apply_K, load, tau, params)
        assert st.t == ref.t
        for name in ("u", "v", "a"):
            np.testing.assert_array_equal(getattr(st, name), getattr(ref, name))
    assert len(seen) == res.steps_completed == 12
    np.testing.assert_array_equal(res.final.u, ref.u)
    assert res.max_abs_u == max(np.abs(s.u).max() for s in [s0] + seen)


def test_integrate_leaves_initial_state_alone():
    solve_M, apply_K, load, (u0, v0), tau = banded_problem(4, 1, True)
    s0 = initial_state(solve_M, apply_K, load(0.0), u0, v0)
    before = [x.copy() for x in (s0.u, s0.v, s0.a)]
    res = integrate(s0, solve_M, apply_K, load, tau, 20, params_from_rho(0.5))
    for x, y in zip((s0.u, s0.v, s0.a), before):
        np.testing.assert_array_equal(x, y)
    assert s0.t == 0.0
    assert not np.shares_memory(res.final.u, s0.u)


def test_callback_states_are_independent_snapshots():
    solve_M, apply_K, load, (u0, v0), tau = banded_problem(3, 2, True)
    s0 = initial_state(solve_M, apply_K, load(0.0), u0, v0)
    kept, copies = [], []

    def keep(i, st):
        kept.append(st)
        copies.append((st.u.copy(), st.v.copy(), st.a.copy()))

    integrate(s0, solve_M, apply_K, load, tau, 6, params_from_rho(1.0), callback=keep)
    for st, (u, v, a) in zip(kept, copies):
        for x, y in zip((st.u, st.v, st.a), (u, v, a)):
            np.testing.assert_array_equal(x, y)
    assert not np.array_equal(kept[0].u, kept[-1].u)


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_load_ends_run_as_blow_up(dim):
    solve_M, apply_K, load, (u0, v0), tau = banded_problem(3, dim, True)
    s0 = initial_state(solve_M, apply_K, load(0.0), u0, v0)

    def nan_later(t):
        return load(t) * (np.nan if t > 2.5 * tau else 1.0)

    res = integrate(s0, solve_M, apply_K, nan_later, tau, 50, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed == 4
    assert np.isnan(res.max_abs_u)


def test_a_nan_that_reaches_part_of_the_stiffness_apply_ends_run_as_blow_up():
    """At n=1004 a NaN entry of u reaches only a few rows of K u (see
    BandedSymMatrix.matvec); the mass solve spreads it and the run stops."""
    solve_M, apply_K, load, (u0, v0), tau = banded_problem(6, 1, True, N=1000)
    s0 = initial_state(solve_M, apply_K, load(0.0), u0, v0)
    calls = []

    def poisoned(u):
        calls.append(None)
        if len(calls) == 3:
            u = u.copy()
            u[200] = np.nan
        y = apply_K(u)
        assert np.isnan(y).any() == (len(calls) == 3) and not np.isnan(y).all()
        return y

    res = integrate(s0, solve_M, poisoned, load, tau, 10, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed == 3
    assert np.isnan(res.max_abs_u)


def test_non_finite_initial_state_rejected():
    solve_M, apply_K = scalar_ops(1.0)
    for bad in ("u", "v", "a"):
        fields = {"u": np.ones(1), "v": np.zeros(1), "a": np.zeros(1)}
        fields[bad] = np.array([np.inf if bad == "a" else np.nan])
        s0 = DynamicState(t=0.0, **fields)
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate(s0, solve_M, apply_K, zero_load, 0.1, 3, params_from_rho(1.0))
