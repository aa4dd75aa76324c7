"""Physical and algebraic invariants checked directly rather than through
frozen tables: positive definite operators, penalties that vanish at zero
weight and leave the low modes alone, and an energy that stays bounded
when the conservative scheme runs just below its critical step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf

from igawave.eigen import full_spectrum, top_eigenvalue
from igawave.experiments import build_1d
from igawave.integrator import critical_omega, initial_state, integrate, params_from_rho

degrees = st.integers(1, 7)
meshes = st.integers(2, 40)
kappas = st.sampled_from(["one", "exp"])
weights = st.floats(0.0, 4.0)


@settings(max_examples=40, deadline=None)
@given(degrees, meshes, kappas, weights, weights)
def test_operators_are_positive_definite(p, N, kappa, eta_a, eta_b):
    d = build_1d(p, N, kappa, eta_a, eta_b)
    for A in (d.M, d.K, d.Mt, d.Kt):
        assert dpbtrf(A.ab)[1] == 0  # INFO 0: the banded Cholesky exists


@settings(max_examples=30, deadline=None)
@given(degrees, meshes, kappas)
def test_zero_weights_give_the_standard_pair_bit_for_bit(p, N, kappa):
    d = build_1d(p, N, kappa, eta_a=0.0, eta_b=0.0)
    np.testing.assert_array_equal(d.Mt.ab, d.M.ab)
    np.testing.assert_array_equal(d.Kt.ab, d.K.ab)


# The scope where the penalty leaves the low third of the modes in place to
# 1e-4 relative: kappa = one, equal weights.  The largest shift there is
# 3.04e-5 (p = 3, N = 5, eta = 4).  Outside it the shift is larger: 4.9e-3
# with kappa = exp, and 0.65 with eta_a = 0.5, eta_b = 4 at p = 6, N = 5.
@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.integers(5, 80), st.sampled_from([0.5, 1.0, 4.0]))
def test_penalty_leaves_the_low_third_of_the_modes(p, N, eta):
    d = build_1d(p, N, "one", eta, eta)
    lam = full_spectrum(d.K, d.M).eigenvalues
    lam_t = full_spectrum(d.Kt, d.Mt).eigenvalues
    low = lam.size // 3
    assert np.max(np.abs(lam_t[:low] - lam[:low]) / lam[:low]) < 1e-4


# growth bounds the larger energy peak of the second half of the run by the
# first half's.  The plain energy 1/2 (v'Mv + u'Ku) beats between modes, so
# half-run maxima differ even with no growth at all; over 20 random starts
# and 4000 or 6000 steps they differed by at most 0.014% on the penalized
# pairs and 0.31% on the unpenalized one, whose modes beat more slowly.
@pytest.mark.parametrize("p, N, penalized, growth", [
    (5, 40, True, 1.001),
    (3, 20, True, 1.001),
    (5, 40, False, 1.01),
])
def test_energy_stays_bounded_below_the_critical_step(p, N, penalized, growth):
    d = build_1d(p, N)
    M, K = (d.Mt, d.Kt) if penalized else (d.M, d.K)
    params = params_from_rho(1.0)
    tau = 0.9 * critical_omega(params) / np.sqrt(top_eigenvalue(K, M))
    Md, Kd = M.to_dense(), K.to_dense()
    solve = M.factor()
    u0 = np.random.default_rng(0).standard_normal(M.n)
    zero = np.zeros(M.n)
    energies = []

    def record(i, state):
        energies.append(0.5 * (state.v @ Md @ state.v + state.u @ Kd @ state.u))

    state0 = initial_state(solve, K.matvec, zero, u0, zero.copy())
    n_steps = 4000
    res = integrate(state0, solve, K.matvec, lambda t: zero, tau, n_steps, params,
                    callback=record)
    assert not res.blew_up
    e = np.array(energies) / (0.5 * u0 @ Kd @ u0)
    first, second = e[: n_steps // 2].max(), e[n_steps // 2 :].max()
    assert e.max() < 10.0
    assert second <= growth * first
