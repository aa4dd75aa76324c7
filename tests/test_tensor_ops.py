"""Kronecker operators against dense np.kron oracles on small grids."""

import numpy as np
import pytest

from igawave.assembly_1d import assemble_mass, assemble_stiffness, kappa_variant
from igawave.quadrature import gauss_legendre
from igawave.spline_basis import open_uniform_knots
from igawave.tensor_ops import KroneckerOperator, build_tensor_operators, kron_mass_factor

ONE = kappa_variant("one")


def axis_pair(p, N):
    kv = open_uniform_knots(p, N)
    rule = gauss_legendre(p + 1)
    return assemble_mass(kv, rule), assemble_stiffness(kv, rule, ONE)


def test_dense_oracle_2d():
    M1, K1 = axis_pair(3, 4)
    mass, stiff = build_tensor_operators([(M1, K1), (M1, K1)])
    m, k = M1.to_dense(), K1.to_dense()
    np.testing.assert_allclose(mass.to_dense(), np.kron(m, m), rtol=1e-14)
    np.testing.assert_allclose(
        stiff.to_dense(), np.kron(k, m) + np.kron(m, k), rtol=1e-14
    )
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.standard_normal(mass.total_dim)
        np.testing.assert_allclose(mass.matvec(x), np.kron(m, m) @ x, rtol=1e-12)
        np.testing.assert_allclose(
            stiff.matvec(x), (np.kron(k, m) + np.kron(m, k)) @ x, rtol=1e-12
        )


def test_dense_oracle_3d():
    M1, K1 = axis_pair(2, 3)
    mass, stiff = build_tensor_operators([(M1, K1)] * 3)
    m, k = M1.to_dense(), K1.to_dense()
    ref_mass = np.kron(np.kron(m, m), m)
    ref_stiff = (
        np.kron(np.kron(k, m), m)
        + np.kron(np.kron(m, k), m)
        + np.kron(np.kron(m, m), k)
    )
    rng = np.random.default_rng(2)
    x = rng.standard_normal(mass.total_dim)
    np.testing.assert_allclose(mass.matvec(x), ref_mass @ x, rtol=1e-12)
    np.testing.assert_allclose(stiff.matvec(x), ref_stiff @ x, rtol=1e-12)


def test_mixed_axes():
    """Different degrees and element counts per axis must line up."""
    Mx, Kx = axis_pair(3, 5)
    My, Ky = axis_pair(2, 4)
    mass, stiff = build_tensor_operators([(Mx, Kx), (My, Ky)])
    assert mass.dims == (6, 4)
    ref = np.kron(Kx.to_dense(), My.to_dense()) + np.kron(Mx.to_dense(), Ky.to_dense())
    rng = np.random.default_rng(8)
    x = rng.standard_normal(24)
    np.testing.assert_allclose(stiff.matvec(x), ref @ x, rtol=1e-12)


def test_mass_solve_round_trip():
    for pairs in ([axis_pair(3, 4)] * 2, [axis_pair(2, 3)] * 3):
        mass, _ = build_tensor_operators(pairs)
        solve = kron_mass_factor(mass)
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = rng.standard_normal(mass.total_dim)
            np.testing.assert_allclose(solve(mass.matvec(x)), x, atol=1e-10)


def test_mass_solve_against_dense():
    mass, _ = build_tensor_operators([axis_pair(3, 4), axis_pair(3, 4)])
    rng = np.random.default_rng(4)
    b = rng.standard_normal(mass.total_dim)
    ref = np.linalg.solve(mass.to_dense(), b)
    solve = kron_mass_factor(mass)
    np.testing.assert_allclose(solve(b), ref, rtol=1e-10)
    # a second call reuses the same factorization
    np.testing.assert_allclose(solve(b), ref, rtol=1e-10)


def test_spectral_additivity():
    """Eigenvalues of the tensor pair are pairwise sums of 1D eigenvalues."""
    from scipy.linalg import eigh

    M1, K1 = axis_pair(3, 4)
    mass, stiff = build_tensor_operators([(M1, K1), (M1, K1)])
    lam1 = eigh(K1.to_dense(), M1.to_dense(), eigvals_only=True)
    lam2 = eigh(stiff.to_dense(), mass.to_dense(), eigvals_only=True)
    sums = np.sort(np.add.outer(lam1, lam1).ravel())
    np.testing.assert_allclose(lam2, sums, rtol=1e-10)


def test_stiffness_solve_refused():
    mass, stiff = build_tensor_operators([axis_pair(2, 3), axis_pair(2, 3)])
    with pytest.raises(ValueError):
        kron_mass_factor(stiff)


def test_validation():
    M1, K1 = axis_pair(2, 3)
    with pytest.raises(ValueError):
        build_tensor_operators([(M1, K1)])
    with pytest.raises(ValueError):
        build_tensor_operators([(M1, K1)] * 4)
    M2, K2 = axis_pair(2, 4)
    with pytest.raises(ValueError):
        KroneckerOperator([(M1, M1), (M2, M2)])
    with pytest.raises(ValueError):
        KroneckerOperator([])
    mass, _ = build_tensor_operators([(M1, K1), (M1, K1)])
    with pytest.raises(ValueError):
        mass.matvec(np.zeros(5))


def tensordot_apply(op, x):
    """The per-axis sweep written with np.tensordot and np.moveaxis."""
    X = x.reshape(op.dims)
    out = np.zeros_like(X)
    for term in op.terms:
        Y = X
        for axis, f in enumerate(term):
            Y = np.moveaxis(np.tensordot(f.to_dense(), Y, axes=(1, axis)), 0, axis)
        out += Y
    return out.reshape(-1)


def moveaxis_solve(mass, b):
    X = b.reshape(mass.dims)
    for axis, f in enumerate(mass.terms[0]):
        moved = np.moveaxis(X, axis, 0)
        flat = f.factor()(moved.reshape(moved.shape[0], -1))
        X = np.moveaxis(flat.reshape(moved.shape), 0, axis)
    return X.reshape(-1)


@pytest.mark.parametrize("d, N", [(2, 4), (2, 9), (3, 3), (2, 16), (2, 33), (2, 64), (2, 130),
                                  (3, 6), (3, 20)])
@pytest.mark.parametrize("p", range(1, 8))
def test_apply_and_solve_match_the_tensordot_route_exactly(p, N, d):
    Mx, Kx = axis_pair(p, N)
    My, Ky = axis_pair(p, N + 1)
    mass, stiff = build_tensor_operators([(Mx, Kx), (My, Ky), (Mx, Kx)][:d])
    x = np.random.default_rng(p).standard_normal(mass.total_dim)
    np.testing.assert_array_equal(mass.matvec(x), tensordot_apply(mass, x))
    np.testing.assert_array_equal(stiff.matvec(x), tensordot_apply(stiff, x))
    np.testing.assert_array_equal(kron_mass_factor(mass)(x), moveaxis_solve(mass, x))
