"""Dense and iterative eigensolvers against each other and closed forms."""

import math
import re

import numpy as np
import pytest
from mpmath import mp
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

from igawave.assembly_1d import (
    BandedSymMatrix,
    assemble_mass,
    assemble_stiffness,
    kappa_variant,
    penalized_forms,
)
from igawave.eigen import NumericalFailure, full_spectrum, max_eigenvalue, top_eigenvalue
from igawave.experiments import build_1d
from igawave.quadrature import gauss_legendre
from igawave.spline_basis import open_uniform_knots

ONE = kappa_variant("one")


def system(p, N, coeff=ONE, penalized=False):
    kv = open_uniform_knots(p, N)
    rule = gauss_legendre(p + 1 if coeff.smooth_polynomial else p + 3)
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, coeff)
    if penalized:
        M, K = penalized_forms(M, K, kv, rule=rule)
    return M, K


def power_on(M, K, **kw):
    solve = M.factor()
    return max_eigenvalue(K.matvec, solve, M.n, apply_M=M.matvec, **kw)


def test_diagonal_example():
    K = np.diag([1.0, 2.0, 3.0])
    M = np.eye(3)
    res = max_eigenvalue(
        lambda v: K @ v, lambda b: b, 3, apply_M=lambda v: v
    )
    assert res.value == pytest.approx(3.0, rel=1e-10)
    assert res.converged


def test_identical_pair_gives_one():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    inv = np.linalg.inv(spd)
    res = max_eigenvalue(
        lambda v: spd @ v, lambda b: inv @ b, 6, apply_M=lambda v: spd @ v
    )
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_linear_dispersion_closed_form():
    """Hat-function eigenvalues follow the classical dispersion relation."""
    N = 20
    h = 1.0 / N
    M, K = system(1, N)
    vals = full_spectrum(K, M).eigenvalues
    k = np.arange(1, N)
    theta = k * np.pi * h
    exact = 12.0 * (1 - np.cos(theta)) / (h**2 * (4 + 2 * np.cos(theta)))
    np.testing.assert_allclose(vals, np.sort(exact), rtol=1e-10)
    assert abs(vals[-1] - 12.0 / h**2) / (12.0 / h**2) < 0.02


def test_cubic_five_elements_max():
    M, K = system(3, 5)
    assert full_spectrum(K, M).max == pytest.approx(402.8, rel=5e-3)


def test_dense_and_power_agree():
    for p, N, coeff, pen in [
        (3, 8, ONE, False),
        (3, 10, ONE, False),
        (4, 8, kappa_variant("exp"), False),
        (5, 10, ONE, True),
        (6, 10, ONE, True),
    ]:
        M, K = system(p, N, coeff, pen)
        lam = full_spectrum(K, M).max
        res = power_on(M, K, tol=1e-13, max_iter=200_000)
        assert abs(res.value - lam) / lam < 1e-8
        assert res.residual < 1e-6


def test_penalized_spectrum_dominated():
    for p in (3, 4, 5, 6):
        for N in (5, 10):
            M, K = system(p, N)
            Mt, Kt = system(p, N, penalized=True)
            lam = full_spectrum(K, M)
            lamt = full_spectrum(Kt, Mt)
            assert lamt.max <= lam.max * (1 + 1e-12)
            assert np.all(lamt.eigenvalues <= lamt.max * (1 + 1e-12))
            # penalization must leave the accurate low modes essentially
            # alone; the low third moves by under 1e-4 even at N=5
            n_low = max(1, len(lam.eigenvalues) // 3)
            np.testing.assert_allclose(
                lamt.eigenvalues[:n_low], lam.eigenvalues[:n_low], rtol=1e-4
            )


def test_deterministic_restarts():
    M, K = system(4, 10)
    r1 = power_on(M, K)
    r2 = power_on(M, K)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations


def test_nonconvergence_is_flagged():
    M, K = system(3, 200)
    # one restart is too few for Lanczos to reach tol on 201 unknowns
    with pytest.raises(NumericalFailure) as exc:
        power_on(M, K, tol=1e-15, max_iter=1)
    assert isinstance(exc.value.__cause__, ArpackNoConvergence)
    # Lanczos converges here, but no sweep can reach this residual
    with pytest.raises(NumericalFailure, match="sweeps"):
        power_on(M, K, residual_target=1e-30, max_iter=20)


def test_residual_reported_by_full_spectrum():
    M, K = system(3, 12)
    out = full_spectrum(K, M)
    assert out.top_residual < 1e-8


def test_dense_size_limit():
    big = np.eye(2001)
    with pytest.raises(ValueError):
        full_spectrum(big, big)


def test_tolerance_validation():
    M, K = system(3, 5)
    with pytest.raises(ValueError):
        power_on(M, K, tol=0.0)
    with pytest.raises(ValueError, match="2 unknowns"):
        max_eigenvalue(lambda v: 2 * v, lambda b: b, 1, apply_M=lambda v: v)


def extended_top_eigenvalue(K, M, dps=40):
    """Top eigenvalue of the stored pair, accurate far beyond double.

    One sweep of shifted inverse iteration in mpmath, started from the
    dense double-precision top pair, then the Rayleigh quotient.  The shift
    is within ~1e-13 relative of the eigenvalue and the top gap is ~1e-4
    relative even when penalized, so the sweep gains about nine digits of
    the vector and the quotient doubles them.  On the 16 cells below this
    agrees with a full 40-digit mp.eigsy of the same pair to 1e-37.
    """
    Kd, Md = K.to_dense(), M.to_dense()
    vals, vecs = eigh(Kd, Md)
    with mp.workdps(dps):
        Km, Mm = mp.matrix(Kd.tolist()), mp.matrix(Md.tolist())
        shifted = Km - mp.mpf(vals[-1]) * Mm
        x = mp.lu_solve(shifted, Mm * mp.matrix(vecs[:, -1].tolist()))
        return float((x.T * Km * x)[0] / (x.T * Mm * x)[0])


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_top_eigenvalue_matches_full_spectrum(p):
    # The reference is extended precision: dense eigh is itself ~3e-13 off
    # on the penalized p=6 exp cell, where cond(M) ~ 1e8.
    for coeff in (ONE, kappa_variant("exp")):
        for penalized in (False, True):
            M, K = system(p, 30, coeff, penalized)
            ref = extended_top_eigenvalue(K, M)
            assert top_eigenvalue(K, M) == pytest.approx(ref, rel=1e-13, abs=0)


def test_top_eigenvalue_has_no_size_limit():
    N = 2500  # 2499 unknowns, above full_spectrum's dense limit
    h = 1.0 / N
    M, K = system(1, N)
    theta = (N - 1) * math.pi * h
    exact = 12.0 * (1 - math.cos(theta)) / (h**2 * (4 + 2 * math.cos(theta)))
    assert top_eigenvalue(K, M) == pytest.approx(exact, rel=1e-12, abs=0)


def test_top_eigenvalue_rejects_indefinite_mass():
    n = 6
    K = BandedSymMatrix(np.vstack([np.full(n, -1.0), np.full(n, 2.0)]))
    M = BandedSymMatrix(np.vstack([np.full(n, 0.1), np.full(n, -1.0)]))
    with pytest.raises(NumericalFailure, match="not positive definite") as exc:
        top_eigenvalue(K, M)
    info = int(re.search(r"INFO=(\d+)", str(exc.value)).group(1))
    assert n < info <= 2 * n  # LAPACK's code for a failed factorization of M


@pytest.mark.parametrize("penalized", [False, True])
def test_top_eigenvalue_resolves_a_near_degenerate_top_pair(penalized):
    # The two largest eigenvalues differ by 1.0e-12 (unpenalized) and 6.1e-11
    # (penalized) relative.  A single shift-invert vector stalls on a mix of
    # the pair, 8.5e-13 and 4.0e-12 low; the block resolves it.
    d = build_1d(5, 1000)
    K, M = (d.Kt, d.Mt) if penalized else (d.K, d.M)
    assert top_eigenvalue(K, M) == pytest.approx(full_spectrum(K, M).max, rel=1e-13, abs=0)


def test_top_eigenvalue_of_a_negative_definite_pair():
    M, _ = system(4, 12)
    assert top_eigenvalue(BandedSymMatrix(-M.ab), M) == pytest.approx(-1.0, rel=1e-15, abs=0)


def test_top_eigenvalue_that_does_not_settle_raises(monkeypatch):
    import igawave.eigen as eigen

    M, K = system(3, 10)
    monkeypatch.setattr(eigen, "SWEEPS", 1)  # one value, nothing to compare it with
    with pytest.raises(NumericalFailure, match="did not settle"):
        top_eigenvalue(K, M)
