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
from igawave.tensor_ops import acceleration_map


def zero_load(t):
    return np.zeros(1)


def scalar_accel(omega, load=zero_load):
    """The acceleration map of u'' + omega^2 u = f(t): M = 1, K = omega^2."""
    K = np.array([[omega**2]])
    return lambda t, u: load(t) - K @ u


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
        u, v = rng.standard_normal(2)
        a = rng.standard_normal()  # arbitrary acceleration, not consistent
        s0 = DynamicState(t=0.0, u=np.array([u]), v=np.array([v]), a=np.array([a]))
        s1 = step(s0, scalar_accel(omega), tau, params)
        G = amplification_matrix(obar, params)
        z0 = np.array([u, tau * v, tau**2 * a])
        z1 = G @ z0
        got = np.array([s1.u[0], tau * s1.v[0], tau**2 * s1.a[0]])
        np.testing.assert_allclose(got, z1, rtol=1e-11, atol=1e-12)


def test_step_is_linear():
    rng = np.random.default_rng(5)
    params = params_from_rho(0.5)
    accel = scalar_accel(2.0)
    tau = 0.3
    s = [initial_state(accel, rng.standard_normal(1), rng.standard_normal(1)) for _ in range(2)]
    both = initial_state(accel, s[0].u + 2 * s[1].u, s[0].v + 2 * s[1].v)
    a, b, c = (step(x, accel, tau, params) for x in (s[0], s[1], both))
    np.testing.assert_allclose(c.u, a.u + 2 * b.u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c.v, a.v + 2 * b.v, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(c.a, a.a + 2 * b.a, rtol=1e-12, atol=1e-12)


def test_rest_stays_at_rest():
    accel = scalar_accel(3.0)
    s0 = initial_state(accel, np.zeros(1), np.zeros(1))
    res = integrate(s0, accel, 0.1, 50, params_from_rho(1.0))
    assert not res.blew_up
    assert res.max_abs_u == 0.0


def test_consistent_initial_acceleration():
    accel = scalar_accel(2.0, lambda t: np.array([4.0 * 1.5]))
    s0 = initial_state(accel, np.array([1.5]), np.zeros(1))
    np.testing.assert_allclose(s0.a, np.zeros(1), atol=1e-14)
    assert s0.t == 0.0


def test_explicit_scheme_reads_load_at_current_time():
    # alpha_f = 0 for the explicit family: the force is evaluated at t_n.
    seen = []

    def load(t):
        seen.append(t)
        return np.zeros(1)

    accel = scalar_accel(1.0, load)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    seen.clear()
    step(s0, accel, 0.25, params_from_rho(0.5))
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
    accel = scalar_accel(omega)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    tau = 2.5  # above C_rho for every rho in [0, 1]
    res = integrate(s0, accel, tau, 5000, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed < 5000
    assert res.max_abs_u > 1e6


def test_stable_below_critical():
    omega = 1.0
    accel = scalar_accel(omega)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    res = integrate(s0, accel, 1.9, 5000, params_from_rho(1.0))
    assert not res.blew_up
    assert res.max_abs_u < 10.0


def test_callback_sees_every_step():
    accel = scalar_accel(1.0)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    steps = []
    integrate(s0, accel, 0.1, 7, params_from_rho(0.5),
              callback=lambda i, st: steps.append((i, st.t)))
    assert [i for i, _ in steps] == [1, 2, 3, 4, 5, 6, 7]
    assert steps[-1][1] == pytest.approx(0.7)


def test_integrate_validation():
    accel = scalar_accel(1.0)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    with pytest.raises(ValueError):
        integrate(s0, accel, 0.1, 0, params_from_rho(0.5))
    with pytest.raises(ValueError):
        amplification_matrix(-0.1, params_from_rho(0.5))


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan"), float("inf")])
def test_integrate_rejects_a_step_that_is_not_finite_and_positive(tau):
    accel = scalar_accel(1.0)
    s0 = initial_state(accel, np.ones(1), np.zeros(1))
    with pytest.raises(ValueError, match="^tau must be finite and positive"):
        integrate(s0, accel, tau, 5, params_from_rho(0.5))


def banded_problem(p, dim, penalized, N=5):
    """The acceleration accel(t, u) = m(cos 3t, u) of real spline operators,
    1D or 2D, where m(s, u) = M^-1 (s f - K u) is the acceleration map of a
    random f; a random start and a step at half the critical one; also m and
    the mass solve, stiffness apply and f of axis 1."""
    d = build_1d(p, N)
    M, K = (d.Mt, d.Kt) if penalized else (d.M, d.K)
    n = M.n**dim
    rng = np.random.default_rng(p + 10 * dim)
    f = rng.standard_normal(n)
    tau = 0.5 * critical_omega(params_from_rho(1.0)) / np.sqrt(dim * top_eigenvalue(K, M))
    m = acceleration_map([(M, K)] * dim, f)
    accel = lambda t, u: m(np.cos(3.0 * t), u)
    return accel, rng.standard_normal((2, n)), tau, (m, M.factor(), K.matvec, f)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("p", range(1, 8))
def test_integrate_equals_repeated_step(p, penalized, rho, dim):
    """The in-place loop reproduces repeated step calls bit for bit."""
    accel, (u0, v0), tau, _ = banded_problem(p, dim, penalized)
    params = params_from_rho(rho)
    s0 = initial_state(accel, u0, v0)
    seen = []
    res = integrate(s0, accel, tau, 12, params, callback=lambda i, st: seen.append(st))
    ref = s0
    for st in seen:
        ref = step(ref, accel, tau, params)
        assert st.t == ref.t
        for name in ("u", "v", "a"):
            np.testing.assert_array_equal(getattr(st, name), getattr(ref, name))
    assert len(seen) == res.steps_completed == 12
    np.testing.assert_array_equal(res.final.u, ref.u)
    assert res.max_abs_u == max(np.abs(s.u).max() for s in [s0] + seen)


def test_integrate_leaves_initial_state_alone():
    accel, (u0, v0), tau, _ = banded_problem(4, 1, True)
    s0 = initial_state(accel, u0, v0)
    before = [x.copy() for x in (s0.u, s0.v, s0.a)]
    res = integrate(s0, accel, tau, 20, params_from_rho(0.5))
    for x, y in zip((s0.u, s0.v, s0.a), before):
        np.testing.assert_array_equal(x, y)
    assert s0.t == 0.0
    assert not np.shares_memory(res.final.u, s0.u)


def test_callback_states_are_independent_snapshots():
    accel, (u0, v0), tau, _ = banded_problem(3, 2, True)
    s0 = initial_state(accel, u0, v0)
    kept, copies = [], []

    def keep(i, st):
        kept.append(st)
        copies.append((st.u.copy(), st.v.copy(), st.a.copy()))

    integrate(s0, accel, tau, 6, params_from_rho(1.0), callback=keep)
    for st, (u, v, a) in zip(kept, copies):
        for x, y in zip((st.u, st.v, st.a), (u, v, a)):
            np.testing.assert_array_equal(x, y)
    assert not np.array_equal(kept[0].u, kept[-1].u)


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_load_ends_run_as_blow_up(dim):
    """A NaN load from t > 2.5 tau on: the mass solve makes the acceleration NaN."""
    accel, (u0, v0), tau, (m, *_) = banded_problem(3, dim, True)
    s0 = initial_state(accel, u0, v0)

    def nan_later(t, u):
        return m(np.nan if t > 2.5 * tau else np.cos(3.0 * t), u)

    res = integrate(s0, nan_later, tau, 50, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed == 4
    assert np.isnan(res.max_abs_u)


def test_a_nan_that_reaches_part_of_the_stiffness_apply_ends_run_as_blow_up():
    """At n=1004 a NaN entry of u reaches only a few rows of K u (see
    BandedSymMatrix.matvec); the mass solve spreads it and the run stops."""
    clean, (u0, v0), tau, (_, solve_M, apply_K, f) = banded_problem(6, 1, True, N=1000)
    s0 = initial_state(clean, u0, v0)
    calls = []

    def poisoned(u):
        calls.append(None)
        if len(calls) == 3:
            u = u.copy()
            u[200] = np.nan
        y = apply_K(u)
        assert np.isnan(y).any() == (len(calls) == 3) and not np.isnan(y).all()
        return y

    def accel(t, u):  # acceleration_map's 1D formula, with the poisoned apply
        return solve_M(f * np.cos(3.0 * t) - poisoned(u))

    res = integrate(s0, accel, tau, 10, params_from_rho(1.0))
    assert res.blew_up
    assert res.steps_completed == 3
    assert np.isnan(res.max_abs_u)


def test_non_finite_initial_state_rejected():
    accel = scalar_accel(1.0)
    for bad in ("u", "v", "a"):
        fields = {"u": np.ones(1), "v": np.zeros(1), "a": np.zeros(1)}
        fields[bad] = np.array([np.inf if bad == "a" else np.nan])
        s0 = DynamicState(t=0.0, **fields)
        with pytest.raises(ValueError, match="initial state must be finite"):
            integrate(s0, accel, 0.1, 3, params_from_rho(1.0))
