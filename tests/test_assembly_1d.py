"""Assembly oracles: hand-computed small systems, scipy cross-checks,
and the algebraic properties the solvers rely on (symmetry, SPD, bands).
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from igawave.assembly_1d import (
    BandedSymMatrix,
    Coefficient,
    alpha_of,
    assemble_load,
    assemble_mass,
    assemble_penalty,
    assemble_stiffness,
    element_tables,
    kappa_variant,
    penalized_forms,
)
from igawave.quadrature import gauss_legendre, map_to_element
from igawave.spline_basis import boundary_derivative_vectors, eval_basis_many, open_uniform_knots

ONE = kappa_variant("one")
EXP = kappa_variant("exp")


def dense_scipy_matrix(kv, deriv, coeff=None, npts=12):
    """Slow reference assembly with scipy splines and a fat Gauss rule."""
    dim = kv.dim
    out = np.zeros((dim, dim))
    rule = gauss_legendre(npts)
    bp = kv.breakpoints
    funcs = [BSpline(kv.knots, np.eye(dim)[i], kv.p, extrapolate=False) for i in range(dim)]
    if deriv:
        funcs = [f.derivative(deriv) for f in funcs]
    for e in range(kv.nelems):
        a, b = bp[e], bp[e + 1]
        x = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
        w = 0.5 * (b - a) * rule.weights
        if coeff is not None:
            w = w * coeff(x)
        V = np.nan_to_num(np.column_stack([f(x) for f in funcs]))
        out += np.einsum("qi,qj,q->ij", V, V, w)
    return out[1:-1, 1:-1]


def banded_from_dense(a, bandwidth):
    """Upper banded storage of a symmetric matrix, column by column."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    u = bandwidth
    ab = np.zeros((u + 1, n))
    for j in range(n):
        i0 = max(0, j - u)
        ab[u + i0 - j : u + 1, j] = a[i0 : j + 1, j]
    return BandedSymMatrix(ab)


def test_linear_two_elements_by_hand():
    # Single interior hat function on two elements of size 1/2:
    # mass 2 * h/3 = 1/3, stiffness 2 * (1/h) * ... = 4, eigenvalue 12.
    kv = open_uniform_knots(1, 2)
    rule = gauss_legendre(2)
    M = assemble_mass(kv, rule).to_dense()
    K = assemble_stiffness(kv, rule, ONE).to_dense()
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert K[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert K[0, 0] / M[0, 0] == pytest.approx(12.0, rel=1e-13)


def test_mass_against_scipy():
    for p, N in [(2, 5), (3, 4), (5, 6)]:
        kv = open_uniform_knots(p, N)
        M = assemble_mass(kv, gauss_legendre(p + 1)).to_dense()
        ref = dense_scipy_matrix(kv, 0)
        np.testing.assert_allclose(M, ref, atol=1e-13)


def test_stiffness_against_scipy_variable_coefficient():
    kv = open_uniform_knots(4, 7)
    K = assemble_stiffness(kv, gauss_legendre(7), EXP).to_dense()
    ref = dense_scipy_matrix(kv, 1, EXP, npts=14)
    np.testing.assert_allclose(K, ref, rtol=1e-12, atol=1e-11)


def test_constant_coefficient_rule_is_exact():
    # p+1 Gauss points already integrate the degree-2p products exactly,
    # so adding points must not change the matrices.
    kv = open_uniform_knots(5, 6)
    M1 = assemble_mass(kv, gauss_legendre(6)).to_dense()
    M2 = assemble_mass(kv, gauss_legendre(9)).to_dense()
    np.testing.assert_allclose(M1, M2, atol=1e-14)
    K1 = assemble_stiffness(kv, gauss_legendre(6), ONE).to_dense()
    K2 = assemble_stiffness(kv, gauss_legendre(9), ONE).to_dense()
    np.testing.assert_allclose(K1, K2, atol=1e-11)


def test_matrices_symmetric_positive_definite():
    for p, N, coeff in [(3, 8, ONE), (4, 5, EXP), (6, 10, EXP)]:
        kv = open_uniform_knots(p, N)
        rule = gauss_legendre(p + 3)
        for mat in (assemble_mass(kv, rule), assemble_stiffness(kv, rule, coeff)):
            a = mat.to_dense()
            np.testing.assert_array_equal(a, a.T)
            np.linalg.cholesky(a)  # raises if not SPD


def test_total_mass_is_one():
    # Sum over all entries of the full mass matrix is the integral of
    # (sum of basis)^2 = 1.
    kv = open_uniform_knots(4, 9)
    M = assemble_mass(kv, gauss_legendre(5), interior=False).to_dense()
    assert M.sum() == pytest.approx(1.0, rel=1e-13)


def test_load_vector_totals():
    kv = open_uniform_knots(3, 6)
    rule = gauss_legendre(6)
    F = assemble_load(kv, rule, lambda x: np.ones_like(x), interior=False)
    assert F.sum() == pytest.approx(1.0, rel=1e-13)
    F = assemble_load(kv, rule, lambda x: x, interior=False)
    assert F.sum() == pytest.approx(0.5, rel=1e-13)
    assert assemble_load(kv, rule, lambda x: x).shape == (kv.interior_dim,)


def test_banded_storage_round_trip():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    u = 2
    a[np.abs(np.subtract.outer(range(7), range(7))) > u] = 0.0
    B = banded_from_dense(a, u)
    np.testing.assert_array_equal(B.to_dense(), a)
    x = rng.standard_normal(7)
    np.testing.assert_allclose(B.matvec(x), a @ x, rtol=1e-14)


def test_banded_add_scaled_and_factor():
    rng = np.random.default_rng(3)
    kv = open_uniform_knots(3, 9)
    rule = gauss_legendre(4)
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    S = M.add_scaled(K, 0.25)
    np.testing.assert_allclose(S.to_dense(), M.to_dense() + 0.25 * K.to_dense(), rtol=1e-14)
    solve = M.factor()
    b = rng.standard_normal(M.n)
    np.testing.assert_allclose(solve(b), np.linalg.solve(M.to_dense(), b), rtol=1e-11)
    # matrix right-hand sides solve column by column
    B = rng.standard_normal((M.n, 3))
    np.testing.assert_allclose(solve(B), np.linalg.solve(M.to_dense(), B), rtol=1e-11)


def test_alpha_levels():
    assert [alpha_of(p) for p in range(1, 8)] == [0, 0, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        alpha_of(0)


def test_penalty_endpoint_structure():
    kv = open_uniform_knots(5, 7)
    P = assemble_penalty(kv, 2, "endpoint").to_dense()
    np.testing.assert_array_equal(P, P.T)
    # entries scale like h^-8 here, so the rank cut must stay relative
    assert np.linalg.matrix_rank(P) == 2
    rng = np.random.default_rng(17)
    scale = np.linalg.norm(P, 2)
    for _ in range(20):
        v = rng.standard_normal(P.shape[0])
        assert v @ P @ v >= -1e-12 * scale * (v @ v)


def test_penalty_integral_matches_scipy():
    kv = open_uniform_knots(4, 5)
    P = assemble_penalty(kv, 1, "integral", rule=gauss_legendre(5)).to_dense()
    ref = dense_scipy_matrix(kv, 2, npts=10)
    np.testing.assert_allclose(P, ref, rtol=1e-10, atol=1e-8)


def test_penalty_needs_valid_level():
    kv = open_uniform_knots(3, 5)
    with pytest.raises(ValueError):
        assemble_penalty(kv, 2)  # alpha(3) = 1
    with pytest.raises(ValueError):
        assemble_penalty(kv, 0)
    with pytest.raises(ValueError):
        assemble_penalty(kv, 1, "integral")  # missing rule
    with pytest.raises(ValueError):
        assemble_penalty(kv, 1, "no-such-variant")


def test_no_penalties_below_cubic():
    kv = open_uniform_knots(2, 6)
    rule = gauss_legendre(3)
    assert alpha_of(kv.p) == 0
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    Mt, Kt = penalized_forms(M, K, kv, rule=rule)
    assert Mt is M and Kt is K


def test_penalized_forms_weights():
    """The combined matrices carry the documented h powers level by level."""
    p, N = 6, 8
    kv = open_uniform_knots(p, N)
    rule = gauss_legendre(p + 1)
    h = kv.h
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    for variant in ("endpoint", "integral"):
        levels = range(1, alpha_of(p) + 1)
        matrices = [assemble_penalty(kv, ell, variant, rule) for ell in levels]
        assert len(matrices) == 2
        Mt, Kt = penalized_forms(M, K, kv, variant, rule)
        expect_m = M.to_dense().copy()
        expect_k = K.to_dense().copy()
        for ell, P in zip(levels, matrices):
            if variant == "endpoint":
                wm, wk = h ** (4 * ell + 1), np.pi**2 * h ** (4 * ell - 1)
            else:
                wm, wk = h ** (6 * ell - 1), np.pi**2 * h ** (6 * ell - 3)
            expect_m += wm * P.to_dense()
            expect_k += wk * P.to_dense()
        np.testing.assert_allclose(Mt.to_dense(), expect_m, rtol=1e-13)
        np.testing.assert_allclose(Kt.to_dense(), expect_k, rtol=1e-13)


def test_zero_weights_recover_standard_forms():
    kv = open_uniform_knots(5, 6)
    rule = gauss_legendre(6)
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    Mt, Kt = penalized_forms(M, K, kv, eta_a=0.0, eta_b=0.0)
    np.testing.assert_allclose(Mt.to_dense(), M.to_dense(), atol=1e-15)
    np.testing.assert_allclose(Kt.to_dense(), K.to_dense(), atol=1e-15)


def test_per_level_weights():
    kv = open_uniform_knots(5, 6)
    rule = gauss_legendre(6)
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    Mt, Kt = penalized_forms(M, K, kv, eta_a=(1.0, 2.0), eta_b=(0.5, 0.0))
    # level ell carries eta_a[ell] in K and eta_b[ell] in M
    P1, P2 = assemble_penalty(kv, 1), assemble_penalty(kv, 2)
    h = kv.h
    want_m = M.add_scaled(P1, 0.5 * h**5).add_scaled(P2, 0.0 * h**9)
    want_k = K.add_scaled(P1, 1.0 * (np.pi**2 * h**3)).add_scaled(P2, 2.0 * (np.pi**2 * h**7))
    np.testing.assert_array_equal(Mt.ab, want_m.ab)
    np.testing.assert_array_equal(Kt.ab, want_k.ab)
    with pytest.raises(ValueError):
        penalized_forms(M, K, kv, eta_a=(1.0,))
    for bad in (-1.0, np.nan, np.inf, (1.0, -2.0)):
        with pytest.raises(ValueError, match="eta_b"):
            penalized_forms(M, K, kv, eta_b=bad)
    with pytest.raises(ValueError, match="unknown penalty variant"):
        penalized_forms(M, K, kv, variant="no-such-variant")
    # rejected even where there is no penalty level to weight
    kv2 = open_uniform_knots(2, 6)
    M2, K2 = assemble_mass(kv2, rule), assemble_stiffness(kv2, rule, ONE)
    with pytest.raises(ValueError, match="eta_a"):
        penalized_forms(M2, K2, kv2, eta_a=-1.0)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        Coefficient("bad", lambda x: x, -1.0, 2.0)
    with pytest.raises(ValueError):
        kappa_variant("two")
    assert EXP.lower == 1.0
    assert EXP.upper == pytest.approx(np.exp(0.25))
    x = np.linspace(0, 1, 50)
    assert np.all(EXP(x) >= EXP.lower - 1e-15)
    assert np.all(EXP(x) <= EXP.upper + 1e-15)


def test_smallest_eigenvalue_superconverges_to_pi_squared():
    """The fundamental eigenvalue converges to pi^2 at rate 2p."""
    from scipy.linalg import eigh

    for p in (2, 3):
        errs = []
        for N in (8, 16):
            kv = open_uniform_knots(p, N)
            rule = gauss_legendre(p + 1)
            M = assemble_mass(kv, rule).to_dense()
            K = assemble_stiffness(kv, rule, ONE).to_dense()
            lam0 = eigh(K, M, eigvals_only=True)[0]
            errs.append(abs(lam0 - np.pi**2))
        rate = np.log2(errs[0] / errs[1])
        assert abs(rate - 2 * p) < 0.25


def dense_reference(kv, rule, deriv, coeff=None, interior=True):
    """Element-by-element dense assembly, the layout the banded one replaced.

    The banded assembly performs the same per-element products and adds them
    in the same element order, so it must match exactly.  Only the upper
    triangle is mirrored, as the banded storage keeps only that.
    """
    p = kv.p
    full = np.zeros((kv.dim, kv.dim))
    bp = kv.breakpoints
    for e in range(kv.nelems):
        x, w = map_to_element(rule, bp[e], bp[e + 1])
        firsts, vals = eval_basis_many(kv, x, deriv)
        first, v = firsts[0], vals[:, deriv, :]
        wq = w if coeff is None else w * coeff(x)
        full[first : first + p + 1, first : first + p + 1] += np.einsum("q,qa,qb->ab", wq, v, v)
    if interior:
        full = full[1:-1, 1:-1]
    return np.triu(full) + np.triu(full, 1).T


def assert_banded_equals(B, dense):
    np.testing.assert_array_equal(B.to_dense(), dense)
    np.testing.assert_array_equal(B.ab, banded_from_dense(dense, B.bandwidth).ab)


@pytest.mark.parametrize("interior", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3, 5, 6])
def test_banded_assembly_matches_dense_reference_exactly(p, interior):
    for N in (2, 3, 7, 40):
        kv = open_uniform_knots(p, N)
        for coeff in (ONE, EXP):
            rule = gauss_legendre(p + 1 if coeff.smooth_polynomial else p + 3)
            assert_banded_equals(assemble_mass(kv, rule, interior),
                                 dense_reference(kv, rule, 0, None, interior))
            assert_banded_equals(assemble_stiffness(kv, rule, coeff, interior),
                                 dense_reference(kv, rule, 1, coeff, interior))
        for ell in range(1, alpha_of(p) + 1):
            assert_banded_equals(assemble_penalty(kv, ell, "integral", rule, interior),
                                 dense_reference(kv, rule, 2 * ell, None, interior))
            d0, d1 = boundary_derivative_vectors(kv, 2 * ell)
            if interior:
                d0, d1 = d0[1:-1], d1[1:-1]
            assert_banded_equals(assemble_penalty(kv, ell, "endpoint", interior=interior),
                                 np.outer(d0, d0) + np.outer(d1, d1))


def loop_product(kv, rule, deriv, coeff=None):
    """The per-element einsum loop that the batched assembly replaced.

    One einsum per element over the same element tables, scattered into
    upper banded storage in the same order; interior degrees of freedom.
    """
    p = kv.p
    xs, ws, firsts, vals = element_tables(kv, rule, deriv)
    local = np.empty((kv.nelems, p + 1, p + 1))
    for e, (x, w, v) in enumerate(zip(xs, ws, vals[:, :, deriv, :])):
        wq = w if coeff is None else w * coeff(x)
        local[e] = np.einsum("q,qa,qb->ab", wq, v, v)
    ab = np.zeros((p + 1, kv.dim))
    for b in range(p, -1, -1):
        for a in range(b + 1):
            ab[p + a - b, firsts + b] += local[:, a, b]
    ab = ab[:, 1:-1].copy()
    ab[p - 1 - np.arange(p), np.arange(p)] = 0.0
    return BandedSymMatrix(ab)


@pytest.mark.parametrize("p", range(1, 8))
def test_batched_assembly_equals_the_element_loop(p):
    """One einsum over all elements adds each entry in the loop's order."""
    for N in (2, 3, 7, 40, 1000):
        kv = open_uniform_knots(p, N)
        for coeff in (ONE, EXP):
            for rule in (gauss_legendre(p + 1), gauss_legendre(p + 3)):
                M, K = loop_product(kv, rule, 0), loop_product(kv, rule, 1, coeff)
                np.testing.assert_array_equal(assemble_mass(kv, rule).ab, M.ab)
                np.testing.assert_array_equal(assemble_stiffness(kv, rule, coeff).ab, K.ab)
                levels = range(1, alpha_of(p) + 1)
                integral = tuple(loop_product(kv, rule, 2 * ell) for ell in levels)
                for ell, P in enumerate(integral, start=1):
                    np.testing.assert_array_equal(
                        assemble_penalty(kv, ell, "integral", rule).ab, P.ab)
                for variant in ("endpoint", "integral"):
                    # the integral levels were just checked against the loop
                    got = penalized_forms(assemble_mass(kv, rule),
                                          assemble_stiffness(kv, rule, coeff), kv, variant, rule)
                    for g, want in zip(got, penalized_forms(M, K, kv, variant, rule)):
                        np.testing.assert_array_equal(g.ab, want.ab)
