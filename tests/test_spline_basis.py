"""Basis evaluation checked against scipy's BSpline and algebraic identities."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from igawave.spline_basis import (
    KnotVector,
    boundary_derivative_vectors,
    eval_basis_many,
    greville_points,
    open_uniform_knots,
)
from igawave.quadrature import gauss_legendre, map_to_element


def find_span(kv, x):
    """Knot span index of one point: first active basis function plus p."""
    firsts, _ = eval_basis_many(kv, [x])
    return int(firsts[0]) + kv.p


def scatter(kv, x, deriv=0):
    """Full-dimension row of basis (derivative) values at one point."""
    firsts, ders = eval_basis_many(kv, [x], deriv)
    row = np.zeros(kv.dim)
    row[firsts[0] : firsts[0] + kv.p + 1] = ders[0, deriv]
    return row


def test_knot_vector_shape():
    kv = open_uniform_knots(3, 5)
    assert kv.knots.shape == (5 + 2 * 3 + 1,)
    assert kv.dim == 8
    assert kv.interior_dim == 6
    assert kv.h == pytest.approx(0.2)
    np.testing.assert_array_equal(kv.knots[:4], 0.0)
    np.testing.assert_array_equal(kv.knots[-4:], 1.0)
    np.testing.assert_allclose(kv.knots[4:8], [0.2, 0.4, 0.6, 0.8])


def test_constructor_validation():
    with pytest.raises(ValueError):
        open_uniform_knots(0, 5)
    with pytest.raises(ValueError):
        open_uniform_knots(3, 1)


def test_find_span_basics():
    kv = open_uniform_knots(2, 4)
    assert find_span(kv, 0.0) == 2
    assert find_span(kv, 0.1) == 2
    assert find_span(kv, 0.25) == 3  # one-sided from the right at breakpoints
    assert find_span(kv, 0.999) == 5
    assert find_span(kv, 1.0) == 5  # last non-empty span
    with pytest.raises(ValueError):
        find_span(kv, -0.01)
    with pytest.raises(ValueError):
        find_span(kv, 1.01)


def test_span_brackets_point():
    rng = np.random.default_rng(11)
    for p, N in [(1, 7), (3, 12), (5, 9), (6, 40)]:
        kv = open_uniform_knots(p, N)
        for x in rng.uniform(0, 1, 200):
            s = find_span(kv, x)
            assert kv.knots[s] <= x < kv.knots[s + 1]


def test_partition_of_unity():
    rng = np.random.default_rng(404)
    for p, N in [(2, 5), (3, 8), (4, 13), (6, 21)]:
        kv = open_uniform_knots(p, N)
        xs = np.concatenate([rng.uniform(0, 1, 1000), [0.0, 1.0], kv.breakpoints])
        _, vals = eval_basis_many(kv, xs, 1)
        assert np.max(np.abs(vals[:, 0, :].sum(axis=1) - 1.0)) < 1e-12
        # derivative of the constant 1 is zero
        scale = N * p  # derivative magnitudes grow like p/h
        assert np.max(np.abs(vals[:, 1, :].sum(axis=1))) < 1e-12 * scale


def test_values_match_scipy():
    rng = np.random.default_rng(7)
    for p, N in [(2, 6), (3, 5), (4, 9), (5, 4), (6, 11)]:
        kv = open_uniform_knots(p, N)
        xs = rng.uniform(0, 1, 60)
        for k in range(p + 1):
            ref = np.column_stack(
                [
                    BSpline(kv.knots, np.eye(kv.dim)[i], p, extrapolate=False)
                    .derivative(k)(xs) if k else
                    BSpline(kv.knots, np.eye(kv.dim)[i], p, extrapolate=False)(xs)
                    for i in range(kv.dim)
                ]
            )
            ref = np.nan_to_num(ref)
            mine = np.vstack([scatter(kv, x, k) for x in xs])
            tol = 1e-10 * max(1.0, N**k * p**k)
            np.testing.assert_allclose(mine, ref, atol=tol)


def test_derivatives_match_finite_differences():
    kv = open_uniform_knots(4, 6)
    rng = np.random.default_rng(23)
    eps = 1e-6
    for x in rng.uniform(0.05, 0.95, 25):
        up = scatter(kv, x + eps, 0)
        dn = scatter(kv, x - eps, 0)
        d1 = scatter(kv, x, 1)
        assert np.max(np.abs((up - dn) / (2 * eps) - d1)) < 1e-4


def test_greville_count_and_range():
    kv = open_uniform_knots(3, 7)
    g = greville_points(kv)
    assert g.shape == (kv.dim,)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)


def test_greville_interpolation_reproduces_monomials():
    """Interpolating x^k at the Greville abscissae must be exact for k <= p."""
    for p, N in [(2, 5), (4, 6)]:
        kv = open_uniform_knots(p, N)
        g = greville_points(kv)
        A = np.vstack([scatter(kv, x, 0) for x in g])
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, 40)
        B = np.vstack([scatter(kv, x, 0) for x in xs])
        for k in range(p + 1):
            coeffs = np.linalg.solve(A, g**k)
            np.testing.assert_allclose(B @ coeffs, xs**k, atol=1e-10)


def test_boundary_derivative_vectors_support():
    kv = open_uniform_knots(5, 8)
    d0, d1 = boundary_derivative_vectors(kv, 2)
    assert d0.shape == (kv.dim,)
    assert np.all(d0[kv.p + 1 :] == 0.0)
    assert np.all(d1[: -(kv.p + 1)] == 0.0)
    np.testing.assert_allclose(d0, scatter(kv, 0.0, 2), atol=1e-12)
    np.testing.assert_allclose(d1, scatter(kv, 1.0, 2), atol=1e-12)


def test_eval_basis_rejects_bad_derivative_order():
    kv = open_uniform_knots(3, 4)
    with pytest.raises(ValueError):
        eval_basis_many(kv, [0.5], 4)
    with pytest.raises(ValueError):
        eval_basis_many(kv, [0.5], -1)


def test_endpoint_values_are_interpolatory():
    # Open knots make the basis interpolatory at the ends of the interval.
    for p in (1, 3, 6):
        kv = open_uniform_knots(p, 5)
        row0 = scatter(kv, 0.0, 0)
        row1 = scatter(kv, 1.0, 0)
        assert row0[0] == pytest.approx(1.0)
        assert np.max(np.abs(row0[1:])) < 1e-14
        assert row1[-1] == pytest.approx(1.0)
        assert np.max(np.abs(row1[:-1])) < 1e-14


def scalar_basis_derivatives(kv, x, n):
    """One-point Cox-de Boor with derivatives (Piegl & Tiller, A2.3).

    The loop the vectorized kernel replaced, kept as its oracle: the kernel
    performs the same floating-point operations per point, so the two must
    agree exactly, not to a tolerance.
    """
    p, knots = kv.p, kv.knots
    # knots[span] <= x < knots[span + 1], the last non-empty span at x = 1
    span = min(int(np.searchsorted(knots, x, side="right")) - 1, kv.dim - 1)
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, n + 1):
        ders[k, :] *= fac
        fac *= p - k
    return span - p, ders


@pytest.mark.parametrize("p", range(1, 8))
def test_vectorized_kernel_is_bit_identical_to_scalar_oracle(p):
    rng = np.random.default_rng(100 + p)
    for N in (2, 5, 40):
        kv = open_uniform_knots(p, N)
        gauss = np.concatenate(
            [map_to_element(gauss_legendre(p + 3), a, b)[0]
             for a, b in zip(kv.breakpoints[:-1], kv.breakpoints[1:])]
        )
        xs = np.concatenate([[0.0, 1.0], kv.breakpoints, gauss, rng.uniform(0, 1, 50)])
        for n in range(p + 1):
            firsts, ders = eval_basis_many(kv, xs, n)
            assert ders.shape == (xs.size, n + 1, p + 1)
            for i, x in enumerate(xs):
                first, ref = scalar_basis_derivatives(kv, x, n)
                assert firsts[i] == first
                np.testing.assert_array_equal(ders[i], ref)


def test_eval_basis_many_rejects_points_outside_unit_interval():
    kv = open_uniform_knots(3, 4)
    for bad in (-1e-300, 1.0 + 1e-15, np.nan):
        with pytest.raises(ValueError):
            eval_basis_many(kv, [0.5, bad], 1)
