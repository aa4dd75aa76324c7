"""Assembly oracles: hand-computed small systems, scipy cross-checks,
and the algebraic properties the solvers rely on (symmetry, SPD, bands).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline

import igawave.assembly_1d
import igawave.spline_basis
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
from igawave.experiments import build_1d
from igawave.mms_errors import manufactured_case
from igawave.quadrature import MAX_POINTS, gauss_legendre, map_to_element
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


# The interior basis sums to 1 - B_0 - B_last (partition of unity), and the
# end functions are (1 - x/h)^p and its mirror, with disjoint supports for
# N >= 2: their integral is h/(p+1), that of their square h/(2p+1), and
# that of x times both together h/(p+1).
PARTITION_CELLS = [(1, 2), (3, 6), (4, 9), (6, 10)]


def test_total_mass_is_one():
    # The sum of all entries of the interior mass matrix is the integral of
    # (1 - B_0 - B_last)^2.
    for p, N in PARTITION_CELLS:
        kv = open_uniform_knots(p, N)
        M = assemble_mass(kv, gauss_legendre(p + 1)).to_dense()
        h = kv.h
        assert M.sum() == pytest.approx(1 - 4 * h / (p + 1) + 2 * h / (2 * p + 1), rel=1e-13)


def test_load_vector_totals():
    for p, N in PARTITION_CELLS:
        kv = open_uniform_knots(p, N)
        rule = gauss_legendre(p + 1)
        h = kv.h
        F = assemble_load(kv, rule, lambda x: np.ones_like(x))
        assert F.shape == (kv.interior_dim,)
        assert F.sum() == pytest.approx(1 - 2 * h / (p + 1), rel=1e-13)
        F = assemble_load(kv, rule, lambda x: x)
        assert F.sum() == pytest.approx(0.5 - h / (p + 1), rel=1e-13)


def test_banded_storage_round_trip():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    u = 2
    a[np.abs(np.subtract.outer(range(7), range(7))) > u] = 0.0
    B = banded_from_dense(a, u)
    np.testing.assert_array_equal(B.to_dense(), a)
    x = rng.standard_normal(7)
    np.testing.assert_array_equal(B.matvec(x), a @ x)


def test_banded_factor_solves_vectors_and_blocks():
    rng = np.random.default_rng(3)
    kv = open_uniform_knots(3, 9)
    M = assemble_mass(kv, gauss_legendre(4))
    solve = M.factor()
    b = rng.standard_normal(M.n)
    np.testing.assert_allclose(solve(b), np.linalg.solve(M.to_dense(), b), rtol=1e-11)
    # matrix right-hand sides solve column by column
    B = rng.standard_normal((M.n, 3))
    np.testing.assert_allclose(solve(B), np.linalg.solve(M.to_dense(), B), rtol=1e-11)


def band_with_traps(rng, u, n):
    """A random upper band with stored -0.0 entries and NaN in the unused corner of ab."""
    ab = rng.standard_normal((u + 1, n))
    ab[rng.random(ab.shape) < 0.25] = -0.0
    for d in range(1, u + 1):
        ab[u - d, :d] = np.nan  # ab[u - d, j] with j < d would be entry (j - d, j)
    return ab


@pytest.mark.parametrize("u, n", [(0, 1), (2, 1), (2, 3), (3, 3), (4, 9), (6, 300)])
def test_diagonals_read_the_stored_band_only(u, n):
    ab = band_with_traps(np.random.default_rng(10 * u + n), u, n)
    B = BandedSymMatrix(ab)
    want = np.zeros((n, n))  # entry (i, j), i <= j, read by hand from ab[u + i - j, j]
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            want[i, j] = want[j, i] = ab[u + i - j, j] + 0.0
    np.testing.assert_array_equal(B.to_dense(), want)
    table = B.diagonals()
    assert table.shape == (2 * u + 3, n) and np.isfinite(table).all()
    assert not np.signbit(table[table == 0.0]).any()  # a stored -0.0 reads +0.0
    i = np.arange(n)
    for d in range(-u - 1, u + 2):
        j = i + d
        inside = (0 <= j) & (j < n) & (abs(d) <= u)
        np.testing.assert_array_equal(table[u + 1 + d],
                                      np.where(inside, want[i, j.clip(0, n - 1)], 0.0))


@pytest.mark.parametrize("n", [9, 300])  # the whole-matrix product, and stacked windows
def test_the_unused_corner_of_ab_is_never_read(n):
    ab = band_with_traps(np.random.default_rng(n), 6, n)
    B, C = BandedSymMatrix(ab), BandedSymMatrix(np.nan_to_num(ab, nan=0.0))
    x = np.random.default_rng(1).standard_normal(n)
    assert B.matvec(x).tobytes() == C.matvec(x).tobytes()
    assert B.to_dense().tobytes() == C.to_dense().tobytes()


def test_factor_reads_the_stored_band_only():
    """A NaN in the unused corner of ab is never read: not by the finite
    check, not by dpbtrf.  One inside the band still raises."""
    clean = build_1d(6, 40).Mt
    b = np.random.default_rng(5).standard_normal(clean.n)
    want = clean.factor()(b).tobytes()
    ab = clean.ab.copy()
    ab[0, 0] = np.nan
    assert BandedSymMatrix(ab).factor()(b).tobytes() == want
    for bad in (np.nan, np.inf):
        for at in ((0, 6), (6, 0), (3, 20)):
            ab = clean.ab.copy()
            ab[at] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                BandedSymMatrix(ab).factor()


def test_alpha_levels():
    assert [alpha_of(p) for p in range(1, 8)] == [0, 0, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        alpha_of(0)


def test_penalty_endpoint_structure():
    kv = open_uniform_knots(5, 7)
    P = assemble_penalty(kv, 2).to_dense()
    np.testing.assert_array_equal(P, P.T)
    # entries scale like h^-8 here, so the rank cut must stay relative
    assert np.linalg.matrix_rank(P) == 2
    rng = np.random.default_rng(17)
    scale = np.linalg.norm(P, 2)
    for _ in range(20):
        v = rng.standard_normal(P.shape[0])
        assert v @ P @ v >= -1e-12 * scale * (v @ v)


def test_penalty_needs_valid_level():
    kv = open_uniform_knots(3, 5)
    with pytest.raises(ValueError):
        assemble_penalty(kv, 2)  # alpha(3) = 1
    with pytest.raises(ValueError):
        assemble_penalty(kv, 0)
    with pytest.raises(TypeError):
        assemble_penalty(kv, 1, "integral")  # a level and nothing else


def test_no_penalties_below_cubic():
    kv = open_uniform_knots(2, 6)
    rule = gauss_legendre(3)
    assert alpha_of(kv.p) == 0
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    Mt, Kt = penalized_forms(M, K, kv)
    assert Mt is M and Kt is K


def test_penalized_forms_weights():
    """The combined matrices carry the documented h powers level by level."""
    p, N = 6, 8
    kv = open_uniform_knots(p, N)
    rule = gauss_legendre(p + 1)
    h = kv.h
    M = assemble_mass(kv, rule)
    K = assemble_stiffness(kv, rule, ONE)
    levels = range(1, alpha_of(p) + 1)
    matrices = [assemble_penalty(kv, ell) for ell in levels]
    assert len(matrices) == 2
    Mt, Kt = penalized_forms(M, K, kv)
    expect_m = M.to_dense()
    expect_k = K.to_dense()
    for ell, P in zip(levels, matrices):
        wm, wk = h ** (4 * ell + 1), np.pi**2 * h ** (4 * ell - 1)
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
    Mt, Kt = penalized_forms(M, K, kv, eta_a=2.0, eta_b=0.5)
    # every level carries eta_a in K and eta_b in M
    P1, P2 = assemble_penalty(kv, 1), assemble_penalty(kv, 2)
    h = kv.h
    want_m, want_k = M.ab.copy(), K.ab.copy()  # the band sums, level by level
    for P, wm, wk in ((P1, 0.5 * h**5, 2.0 * (np.pi**2 * h**3)),
                      (P2, 0.5 * h**9, 2.0 * (np.pi**2 * h**7))):
        want_m += wm * P.ab
        want_k += wk * P.ab
    np.testing.assert_array_equal(Mt.ab, want_m)
    np.testing.assert_array_equal(Kt.ab, want_k)
    with pytest.raises(ValueError, match="eta_a"):
        penalized_forms(M, K, kv, eta_a=(1.0,))
    for bad in (-1.0, np.nan, np.inf, (1.0, -2.0)):
        with pytest.raises(ValueError, match="eta_b"):
            penalized_forms(M, K, kv, eta_b=bad)
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


def test_kappa_variant_passes_a_coefficient_through():
    custom = Coefficient("custom", lambda x: 1.0 + x, 1.0, 2.0)
    assert kappa_variant(custom) is custom
    assert kappa_variant(EXP) is EXP


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


def dense_reference(kv, rule, deriv, coeff=None):
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
    full = full[1:-1, 1:-1]
    return np.triu(full) + np.triu(full, 1).T


def assert_banded_equals(B, dense):
    np.testing.assert_array_equal(B.to_dense(), dense)
    np.testing.assert_array_equal(B.ab, banded_from_dense(dense, B.bandwidth).ab)


@pytest.mark.parametrize("smooth", [True, False])  # kappa one on p+1 points, or exp on p+3
@pytest.mark.parametrize("p", [1, 2, 3, 5, 6])
def test_banded_assembly_matches_dense_reference_exactly(p, smooth):
    coeff = ONE if smooth else EXP
    for N in (2, 3, 7, 40):
        kv = open_uniform_knots(p, N)
        rule = gauss_legendre(p + 1 if smooth else p + 3)
        assert_banded_equals(assemble_mass(kv, rule), dense_reference(kv, rule, 0))
        assert_banded_equals(assemble_stiffness(kv, rule, coeff),
                             dense_reference(kv, rule, 1, coeff))
        for ell in range(1, alpha_of(p) + 1):
            d0, d1 = (d[1:-1] for d in boundary_derivative_vectors(kv, 2 * ell))
            assert_banded_equals(assemble_penalty(kv, ell), np.outer(d0, d0) + np.outer(d1, d1))


def grid_penalty(kv, ell):
    """The penalty as it was built before only its corners were written: both
    outer products over a masked (p + 1)-by-n index grid of the band."""
    d0, d1 = (d[1:-1] for d in boundary_derivative_vectors(kv, 2 * ell))
    j = np.arange(d0.size)
    i = j - kv.p + np.arange(kv.p + 1)[:, None]
    ic = np.maximum(i, 0)
    return BandedSymMatrix(np.where(i >= 0, d0[ic] * d0[j] + d1[ic] * d1[j], 0.0))


@pytest.mark.parametrize("p", range(3, 12))
def test_penalty_corners_sum_both_outer_products(monkeypatch, p):
    """At n < 2p the two corners overlap and add; M~ and K~ keep the bytes
    that the masked grid gave them."""
    for N in (2, 3, 5, 8, 40):
        kv = open_uniform_knots(p, N)
        for ell in range(1, alpha_of(p) + 1):
            d0, d1 = (d[1:-1] for d in boundary_derivative_vectors(kv, 2 * ell))
            dense = assemble_penalty(kv, ell).to_dense()
            assert np.array_equal(dense, np.outer(d0, d0) + np.outer(d1, d1))
        for coeff in (ONE, EXP):
            M, K = assemble_mass(kv, gauss_legendre(min(p + 3, MAX_POINTS)), stiffness=coeff)
            got = penalized_forms(M, K, kv)
            with monkeypatch.context() as m:
                m.setattr(igawave.assembly_1d, "assemble_penalty", grid_penalty)
                want = penalized_forms(M, K, kv)
            assert [B.ab.tobytes() for B in got] == [B.ab.tobytes() for B in want]


def test_penalty_memory_is_its_band():
    """One level-2 penalty at p = 6, N = 10^5 peaks at 7.2 MB under
    tracemalloc: its 5.6 MB band and the two 0.8 MB boundary vectors.  The
    masked (p + 1)-by-n grid peaked at 31.9 MB."""
    kv = open_uniform_knots(6, 100_000)
    assemble_penalty(open_uniform_knots(6, 10), 2)  # imports outside the count
    tracemalloc.start()
    try:
        assemble_penalty(kv, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


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
                got = penalized_forms(assemble_mass(kv, rule),
                                      assemble_stiffness(kv, rule, coeff), kv)
                for g, want in zip(got, penalized_forms(M, K, kv)):
                    np.testing.assert_array_equal(g.ab, want.ab)


def triu_dense(B):
    """The dense view as it used to be built: the upper band, then a += triu(a, 1).T."""
    u, n = B.bandwidth, B.n
    a = np.zeros((n, n))
    for d in range(u + 1):
        a[np.arange(n - d), np.arange(d, n)] = B.ab[u - d, d:]
    a += np.triu(a, 1).T
    return a


@pytest.mark.parametrize("p", range(1, 9))
def test_dense_view_equals_the_triu_construction_bit_for_bit(p):
    for N in (2, 5, 40, 1000):
        for kappa in ("one", "exp"):
            d = build_1d(p, N, kappa)
            for B in (d.M, d.K, d.Mt, d.Kt):
                assert B.to_dense().tobytes() == triu_dense(B).tobytes()


def test_dense_view_reads_a_stored_negative_zero_as_positive_zero():
    B = BandedSymMatrix([[0.0, -0.0, 2.0, -0.0], [-0.0, 3.0, -0.0, 4.0]])
    dense = B.to_dense()
    assert dense.tobytes() == triu_dense(B).tobytes()
    assert not np.signbit(dense).any()


def test_dense_view_allocates_no_second_matrix():
    B = build_1d(6, 1000).Kt  # n = 1004
    tracemalloc.start()
    try:
        B.to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * B.n**2 * 8


@pytest.fixture
def table_calls(monkeypatch):
    """(point count, max_deriv) of each basis evaluation that assembly makes."""
    calls = []
    original = igawave.assembly_1d.eval_basis_many

    def counted(kv, xs, max_deriv=0):
        calls.append((len(xs), max_deriv))
        return original(kv, xs, max_deriv)

    monkeypatch.setattr(igawave.assembly_1d, "eval_basis_many", counted)
    return calls


def test_build_1d_evaluates_its_gauss_point_table_once(table_calls):
    """Mass and stiffness share one table; the endpoint penalty's two-point
    evaluations go through spline_basis and are not counted here."""
    build_1d(5, 40)
    assert table_calls == [(40 * 6, 1)]


def test_build_1d_evaluates_each_gauss_point_once_per_pass(table_calls, monkeypatch):
    monkeypatch.setattr(igawave.assembly_1d, "ELEMENT_CHUNK", 16)
    build_1d(5, 40)
    assert table_calls == [(16 * 6, 1), (16 * 6, 1), (8 * 6, 1)]


def single_pass(monkeypatch, fn, *args):
    """fn(*args) with the assembly and the basis tables each in one pass."""
    with monkeypatch.context() as m:
        m.setattr(igawave.assembly_1d, "ELEMENT_CHUNK", 10**9)
        m.setattr(igawave.spline_basis, "BASIS_CHUNK", 10**9)
        return fn(*args)


EDGE = igawave.assembly_1d.ELEMENT_CHUNK


@pytest.mark.parametrize("p", range(1, 9))
def test_passes_give_the_bits_of_one_pass(p, monkeypatch):
    """build_1d's four bands and the load, in passes of ELEMENT_CHUNK
    elements, against the whole grid in one pass."""
    for N in (2, 5, 40, EDGE - 1, EDGE, EDGE + 1, 3000):
        for kappa in ("one", "exp"):
            got = build_1d(p, N, kappa)
            want = single_pass(monkeypatch, build_1d, p, N, kappa)
            for name in ("M", "K", "Mt", "Kt"):
                np.testing.assert_array_equal(getattr(got, name).ab, getattr(want, name).ab)
        kv, rule, load = open_uniform_knots(p, N), gauss_legendre(p + 3), manufactured_case("exp").load
        np.testing.assert_array_equal(assemble_load(kv, rule, load),
                                      single_pass(monkeypatch, assemble_load, kv, rule, load))


@pytest.mark.parametrize("N, limit_mb", [(1000, 2.5), (10_000, 8.0), (100_000, 40.0)])
def test_build_1d_memory_does_not_grow_with_the_point_count(N, limit_mb):
    """The tracemalloc peak of build_1d(6, N), the result included; one
    basis table of the whole grid would take 0.78 MB at N = 1000 and its
    Cox-de Boor triangles 2.7 MB more."""
    build_1d(6, 50)  # imports and cached rules outside the count
    tracemalloc.start()
    try:
        build_1d(6, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


def looped_load(kv, tables, f):
    """The per-element loop that the batched load replaced; interior entries."""
    xs, ws, firsts, vals = tables
    values = np.ascontiguousarray(vals[:, :, 0, :])
    full = np.zeros(kv.dim)
    for x, w, first, v in zip(xs, ws, firsts, values):
        full[first : first + kv.p + 1] += (w * f(x)) @ v
    return full[1:-1]


LOADS = (np.ones_like, lambda x: x, np.sin, manufactured_case("one").load,
         manufactured_case("exp").load)


@pytest.mark.parametrize("p", range(1, 11))
def test_load_equals_the_element_loop_bit_for_bit(p):
    """One f call, one batched product and an ordered scatter give the loop's
    bits, from a rule and from a table built once with derivatives."""
    for N in (2, 3, 5, 7, 13, 40, 100, 1000):
        kv = open_uniform_knots(p, N)
        for npts in range(max(p - 1, 1), min(p + 4, MAX_POINTS) + 1):
            rule = gauss_legendre(npts)
            tables = element_tables(kv, rule, 1)
            for f in LOADS:
                want = looped_load(kv, tables, f).tobytes()
                assert assemble_load(kv, rule, f).tobytes() == want
                assert assemble_load(kv, tables, f).tobytes() == want


# The stiffness apply runs on stacked windows of the band.  Its reference
# is the dense product on one BLAS thread, computed in a child process: on
# two or more threads OpenBLAS splits a large dense product across threads
# and can round it differently, while the windowed apply does not depend on
# the thread count.  Sizes: the whole-matrix product up to 128; every
# n % 4 where the stacked windows begin (129..135); both sides of the
# 16-row window edges at 144 and 256; and 2048, the top of the range where
# the dense product sums each row in one pass.
APPLY_SIZES = (127, 128, 129, 130, 131, 132, 133, 134, 135, 143, 144, 145, 255, 256, 257, 258,
               259, 1004, 2048)
APPLY_SCALES = (1.0, 1e3)

ONE_THREAD_DENSE = """
import sys
import numpy as np
from igawave.experiments import build_1d
out = {}
for p in range(1, 11):
    for n in %r:
        for kappa in ("one", "exp"):
            d = build_1d(p, n - p + 2, kappa)
            for name in ("M", "K", "Mt", "Kt"):
                B = getattr(d, name)
                for scale in %r:
                    x = np.random.default_rng(n).standard_normal(n) * scale
                    out[f"{p}-{n}-{kappa}-{name}-{scale}"] = B.to_dense() @ x
np.savez(sys.argv[1], **out)
""" % (APPLY_SIZES, APPLY_SCALES)


@pytest.fixture(scope="module")
def one_thread_dense_products(tmp_path_factory):
    path = tmp_path_factory.mktemp("apply") / "dense.npz"
    env = dict(os.environ, PYTHONPATH=str(Path(igawave.assembly_1d.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", ONE_THREAD_DENSE, str(path)], env=env, check=True)
    with np.load(path) as data:
        return dict(data)


@pytest.mark.parametrize("p", range(1, 11))
def test_apply_equals_the_dense_product_bit_for_bit(p, one_thread_dense_products):
    for n in APPLY_SIZES:
        for kappa in ("one", "exp"):
            d = build_1d(p, n - p + 2, kappa)
            for name in ("M", "K", "Mt", "Kt"):
                B = getattr(d, name)
                assert B.n == n
                for scale in APPLY_SCALES:
                    x = np.random.default_rng(n).standard_normal(n) * scale
                    want = one_thread_dense_products[f"{p}-{n}-{kappa}-{name}-{scale}"]
                    assert np.array_equal(B.matvec(x), want), (n, kappa, name, scale)


def test_apply_builds_no_dense_view(monkeypatch):
    B = build_1d(6, 1000).Kt  # n = 1004
    x = np.random.default_rng(0).standard_normal(B.n)

    def refuse(self):
        raise AssertionError("the apply built a dense view")

    monkeypatch.setattr(BandedSymMatrix, "to_dense", refuse)
    tracemalloc.start()
    try:
        B.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the windows, 62 of 16 by 32 entries and a trailing 12 by 20, take
    # 0.26 MB; the index of their one read adds as much again, and the
    # zero-padded band they are read from 0.12 MB
    assert peak <= 0.7e6


def window_rows_holding(B, c):
    """The rows of every apply window whose columns hold column c."""
    cols, stack, c0, _ = B._windows
    r = stack.shape[1]
    rows = [np.arange(b * r, b * r + r) for b in np.flatnonzero((cols == c).any(axis=1))]
    if c >= c0:
        rows.append(np.arange(len(stack) * r, B.n))
    return np.concatenate(rows)


@pytest.mark.parametrize("N", [40, 1000])
def test_a_nan_in_x_reaches_its_coupled_rows_and_stays_in_its_windows(N):
    """0 * NaN is NaN, so a NaN entry of x spreads over the rows of each
    window that holds it: at n=1004 to 32 rows, not only the 13 coupled to
    it, and at n=44, one window, to every row."""
    B = build_1d(6, N).Kt
    u, n = B.bandwidth, B.n
    for c in (0, 1, n // 5, n // 2, n - 13, n - 2, n - 1):
        x = np.ones(n)
        x[c] = np.nan
        y = B.matvec(x)
        nan_rows = np.flatnonzero(np.isnan(y))
        assert np.isin(np.arange(max(c - u, 0), min(c + u + 1, n)), nan_rows).all()
        assert np.isin(nan_rows, window_rows_holding(B, c)).all()
        assert np.isfinite(y).any() == (n > 128)
        if (n, c) == (1004, 200):
            assert nan_rows.tolist() == list(range(192, 224))


def test_apply_rejects_a_vector_of_the_wrong_length():
    for N in (40, 1000):  # the whole matrix, and stacked windows
        B = build_1d(5, N).Kt
        for size in (B.n - 1, B.n + 1):
            for shape in ((size,), (size, 3)):  # a vector, and a block of columns
                with pytest.raises(ValueError):
                    B.matvec(np.ones(shape))


@pytest.mark.parametrize("n", [2052, 2100, 2300])
def test_apply_above_2048_stays_within_rounding_of_the_dense_product(n):
    """Above 2048 columns OpenBLAS sums each row of the dense product in
    column chunks, so the windowed apply can round differently there.  The
    difference is pinned against (|K| |x|), the scale of a row's products."""
    for p in (3, 6, 10):
        for kappa in ("one", "exp"):
            d = build_1d(p, n - p + 2, kappa)
            for B in (d.M, d.Kt):
                x = np.random.default_rng(n).standard_normal(n)
                scale = BandedSymMatrix(np.abs(B.ab)).matvec(np.abs(x))
                dense = B.to_dense() @ x
                assert np.all(np.abs(B.matvec(x) - dense) <= 4e-16 * scale)
