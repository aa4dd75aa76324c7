"""The manufactured case (forcing consistency, traces), projection starts, and
the error-norm routines checked against quadratic-form oracles and against
plain loops over elements.
"""

from functools import partial

import numpy as np
import pytest

from igawave.assembly_1d import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    element_tables,
    kappa_variant,
)
from igawave.mms_errors import (
    _tensor_error,
    h1_seminorm_error,
    h1_seminorm_error_2d,
    initial_coefficients,
    l2_error,
    l2_error_2d,
    manufactured_case,
    observed_rates,
)
from igawave.quadrature import gauss_legendre, rule_for_degree
from igawave.spline_basis import open_uniform_knots

ONE = kappa_variant("one")


@pytest.mark.parametrize("kappa, dim", [("one", 1), ("exp", 1), ("one", 2)])
def test_forcing_matches_pde(kappa, dim):
    """f must equal u_tt - div(kappa grad u); the divergence is checked by
    central differences of the flux, so the tolerance reflects an O(h^2)
    remainder."""
    h, tol = (1e-4, dict(atol=2e-5)) if dim == 1 else (1e-3, dict(rtol=1e-4))
    rng = np.random.default_rng(31)
    case = manufactured_case(kappa, dim)
    xs = list(rng.uniform(h, 1 - h, size=(dim, 100)))
    t = rng.uniform(0.0, 1.0, size=100)
    u_tt = case.u(*xs, t)  # time factor e^t makes u_tt = u

    def flux(axis, shift):
        ys = list(xs)
        ys[axis] = xs[axis] + shift
        return case.kappa(ys[axis]) * case.grad(axis, *ys, t)

    div = sum((flux(a, h) - flux(a, -h)) / (2 * h) for a in range(dim))
    np.testing.assert_allclose(u_tt - div, case.f(*xs, t), **tol)


def test_no_variable_coefficient_case_beyond_1d():
    with pytest.raises(ValueError):
        manufactured_case("exp", 2)


def test_forcing_is_separable():
    case = manufactured_case("exp")
    x = np.linspace(0, 1, 7)
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_allclose(case.f(x, t), np.exp(t) * case.load(x), rtol=1e-15)
    assert case.f(0.3, 0.5) == pytest.approx(np.exp(0.5) * case.f(0.3, 0.0))


def test_exact_solution_vanishes_on_boundary():
    case = manufactured_case("one")
    for t in (0.0, 1.0):
        assert abs(case.u(0.0, t)) < 1e-12
        assert abs(case.u(1.0, t)) < 1e-12
    c2 = manufactured_case("one", 2)
    s = np.linspace(0, 1, 9)
    for edge in (c2.u(0.0, s, 1.0), c2.u(1.0, s, 1.0), c2.u(s, 0.0, 1.0), c2.u(s, 1.0, 1.0)):
        np.testing.assert_allclose(edge, 0.0, atol=1e-12)


def test_zero_coefficients_give_exact_norms_1d():
    # With all coefficients zero the "error" is the norm of sin(3 pi x):
    # L2 norm 1/sqrt(2), H1 seminorm 3 pi / sqrt(2).
    case = manufactured_case("one")
    kv = open_uniform_knots(3, 20)
    rule = gauss_legendre(6)
    zeros = np.zeros(kv.interior_dim)
    assert l2_error(kv, zeros, lambda x: case.u(x, 0.0), rule) == pytest.approx(
        1.0 / np.sqrt(2.0), rel=1e-8
    )
    assert h1_seminorm_error(kv, zeros, lambda x: case.grad(0, x, 0.0), rule) == pytest.approx(
        3.0 * np.pi / np.sqrt(2.0), rel=1e-8
    )


def test_zero_coefficients_give_exact_norms_2d():
    case = manufactured_case("one", 2)
    kv = open_uniform_knots(3, 12)
    rule = gauss_legendre(6)
    zeros = np.zeros(kv.interior_dim**2)
    l2 = l2_error_2d(kv, kv, zeros, lambda x, y: case.u(x, y, 0.0), rule)
    h1 = h1_seminorm_error_2d(
        kv, kv, zeros,
        lambda x, y: case.grad(0, x, y, 0.0),
        lambda x, y: case.grad(1, x, y, 0.0),
        rule,
    )
    assert l2 == pytest.approx(0.5, rel=1e-8)
    assert h1 == pytest.approx(3.0 * np.pi / np.sqrt(2.0), rel=1e-8)


def test_error_norms_match_mass_and_stiffness_forms():
    """Against zero exact data the errors are norms of the spline itself,
    so they must agree with the assembled quadratic forms."""
    rng = np.random.default_rng(77)
    kv = open_uniform_knots(3, 6)
    rule = gauss_legendre(4)
    M = assemble_mass(kv, rule).to_dense()
    K = assemble_stiffness(kv, rule, ONE).to_dense()
    zero = lambda x: np.zeros_like(x)
    for _ in range(5):
        c = rng.standard_normal(kv.interior_dim)
        assert l2_error(kv, c, zero, rule) == pytest.approx(np.sqrt(c @ M @ c), rel=1e-12)
        assert h1_seminorm_error(kv, c, zero, rule) == pytest.approx(
            np.sqrt(c @ K @ c), rel=1e-12
        )


def test_error_norms_match_kronecker_forms_2d():
    rng = np.random.default_rng(78)
    kvx, kvy = open_uniform_knots(2, 5), open_uniform_knots(3, 4)
    rule = gauss_legendre(5)
    Mx = assemble_mass(kvx, rule).to_dense()
    My = assemble_mass(kvy, rule).to_dense()
    Kx = assemble_stiffness(kvx, rule, ONE).to_dense()
    Ky = assemble_stiffness(kvy, rule, ONE).to_dense()
    zero2 = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    c = rng.standard_normal(kvx.interior_dim * kvy.interior_dim)
    l2 = l2_error_2d(kvx, kvy, c, zero2, rule)
    h1 = h1_seminorm_error_2d(kvx, kvy, c, zero2, zero2, rule)
    assert l2 == pytest.approx(np.sqrt(c @ np.kron(Mx, My) @ c), rel=1e-12)
    G = np.kron(Kx, My) + np.kron(Mx, Ky)
    assert h1 == pytest.approx(np.sqrt(c @ G @ c), rel=1e-12)


def _loop_error_1d(kv, coeffs, exact, rule, deriv):
    # Reference: one basis-table product and one weighted dot per element.
    full = np.zeros(kv.dim)
    full[1:-1] = coeffs
    total = 0.0
    for x, w, lo, v in zip(*element_tables(kv, rule, deriv)):
        uh = v[:, deriv, :] @ full[lo : lo + kv.p + 1]
        total += float(w @ (uh - exact(x)) ** 2)
    return np.sqrt(total)


def _loop_error_2d(kvx, kvy, coeffs, exact, rule, dx, dy):
    # Reference: a full product of the two tables for every element pair.
    C = np.zeros((kvx.dim, kvy.dim))
    C[1:-1, 1:-1] = np.asarray(coeffs).reshape(kvx.interior_dim, kvy.interior_dim)
    ty = list(zip(*element_tables(kvy, rule, dy)))
    total = 0.0
    for x, wx, lox, vx in zip(*element_tables(kvx, rule, dx)):
        for y, wy, loy, vy in ty:
            block = C[lox : lox + kvx.p + 1, loy : loy + kvy.p + 1]
            uh = np.einsum("qa,rb,ab->qr", vx[:, dx, :], vy[:, dy, :], block)
            diff = uh - exact(x[:, None], y[None, :])
            total += float(np.einsum("q,r,qr->", wx, wy, diff**2))
    return total


@pytest.mark.parametrize("p", range(1, 8))
@pytest.mark.parametrize("kappa", ["one", "exp"])
def test_error_norms_1d_equal_the_element_loop_bit_for_bit(p, kappa):
    """The 1D CLI outputs are pinned to the loop's reduction order, so the
    norms must be equal, not close."""
    case = manufactured_case(kappa)
    rule = gauss_legendre(p + 3)
    rng = np.random.default_rng(100 + p)
    flux = lambda x: case.kappa(x) * case.grad(0, x, 0.3)
    for N in (2, 3, 7, 40):
        kv = open_uniform_knots(p, N)
        c = rng.standard_normal(kv.interior_dim)
        assert l2_error(kv, c, case.load, rule) == _loop_error_1d(kv, c, case.load, rule, 0)
        assert h1_seminorm_error(kv, c, flux, rule) == _loop_error_1d(kv, c, flux, rule, 1)


@pytest.mark.parametrize("dx, dy", [(0, 0), (1, 0), (0, 1)])
def test_error_2d_matches_the_element_pair_loop(dx, dy):
    """Different degrees and element counts per axis pin the axis order."""
    case = manufactured_case("one", 2)
    exact = {(0, 0): case.u, (1, 0): partial(case.grad, 0), (0, 1): partial(case.grad, 1)}[dx, dy]
    target = lambda x, y: exact(x, y, 0.4)
    rng = np.random.default_rng(79)
    for (px, Nx), (py, Ny) in [((2, 5), (4, 3)), ((5, 9), (3, 12))]:
        kvx, kvy = open_uniform_knots(px, Nx), open_uniform_knots(py, Ny)
        rule = gauss_legendre(max(px, py) + 3)
        c = rng.standard_normal(kvx.interior_dim * kvy.interior_dim)
        got = _tensor_error([kvx, kvy], c, target, rule, (dx, dy))
        assert got == pytest.approx(_loop_error_2d(kvx, kvy, c, target, rule, dx, dy), rel=1e-12)


def test_projection_reproduces_functions_in_the_space():
    # x^2 (1 - x) is a cubic vanishing at both ends, hence lies in the
    # interior spline space for p = 3 and any element count.
    g = lambda x: x**2 * (1.0 - x)
    g_dx = lambda x: 2.0 * x - 3.0 * x**2
    kv = open_uniform_knots(3, 5)
    rule = gauss_legendre(6)
    proj = initial_coefficients(kv, rule, g, method="project")
    grev = initial_coefficients(kv, rule, g, method="greville")
    np.testing.assert_allclose(proj, grev, atol=1e-11)
    for coeffs in (proj, grev):
        assert l2_error(kv, coeffs, g, rule) < 1e-13
        assert h1_seminorm_error(kv, coeffs, g_dx, rule) < 1e-12


def test_projection_is_near_best_for_smooth_targets():
    case = manufactured_case("one")
    kv = open_uniform_knots(4, 16)
    rule = gauss_legendre(7)
    coeffs = initial_coefficients(kv, rule, lambda x: case.u(x, 0.0))
    err = l2_error(kv, coeffs, lambda x: case.u(x, 0.0), rule)
    assert err < 1e-5  # h^(p+1) scale is ~1e-6 here


def test_projection_rates_settle_past_n32_for_p5():
    """Best-approximation rates of sin(3 pi x) at p = 5, with no time
    stepping: on 16 -> 32 they still overshoot p+1 and p (6.27, 5.21), and
    only from 32 -> 64 on do they sit near them (6.08, 5.06).  This is why
    criterion 7's 2D ladder runs to N = 64."""
    W = 3.0 * np.pi
    p, Ns = 5, [16, 32, 64]
    rule = gauss_legendre(p + 3)
    l2, h1 = [], []
    for N in Ns:
        kv = open_uniform_knots(p, N)
        coeffs = initial_coefficients(kv, rule, lambda x: np.sin(W * x))
        l2.append(l2_error(kv, coeffs, lambda x: np.sin(W * x), rule))
        h1.append(h1_seminorm_error(kv, coeffs, lambda x: W * np.cos(W * x), rule))
    hs = 1.0 / np.array(Ns)
    l2_rates, h1_rates = observed_rates(l2, hs), observed_rates(h1, hs)
    assert l2_rates[0] > p + 1.2 and h1_rates[0] > p + 0.2
    assert abs(l2_rates[1] - (p + 1)) < 0.1 and abs(h1_rates[1] - p) < 0.1


def test_initial_coefficients_unknown_method():
    kv = open_uniform_knots(3, 4)
    with pytest.raises(ValueError):
        initial_coefficients(kv, gauss_legendre(4), np.sin, method="collocate")


def test_observed_rates():
    np.testing.assert_allclose(observed_rates([1.0, 1.0 / 16.0], [1.0, 0.5]), [4.0])
    np.testing.assert_allclose(observed_rates([3.0, 3.0], [1.0, 0.5]), [0.0])
    out = observed_rates([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25])
    np.testing.assert_allclose(out, [2.0, 2.0])


def test_observed_rates_validation():
    with pytest.raises(ValueError):
        observed_rates([1.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        observed_rates([1.0], [1.0])
    with pytest.raises(ValueError):
        observed_rates([1.0, 0.0], [1.0, 0.5])


def test_error_norms_take_tables_built_once():
    """Tables from element_tables(kv, rule, 1), as a run builds them once,
    give the norms the rule gives them, bit for bit."""
    case1, case2 = manufactured_case("exp"), manufactured_case("one", 2)
    for p, N in [(1, 3), (3, 7), (5, 40)]:
        kv = open_uniform_knots(p, N)
        rule = gauss_legendre(p + 3)
        tables = [element_tables(kv, rule, 1)]
        c = np.random.default_rng(p).standard_normal(kv.interior_dim)
        u, ux = (lambda x: case1.u(x, 0.7)), (lambda x: case1.grad(0, x, 0.7))
        assert l2_error(kv, c, u, tables) == l2_error(kv, c, u, rule)
        assert h1_seminorm_error(kv, c, ux, tables) == h1_seminorm_error(kv, c, ux, rule)
        c2 = np.random.default_rng(N).standard_normal(kv.interior_dim**2)
        u2 = lambda x, y: case2.u(x, y, 0.7)
        ux2, uy2 = (lambda x, y: case2.grad(0, x, y, 0.7)), (lambda x, y: case2.grad(1, x, y, 0.7))
        assert l2_error_2d(kv, kv, c2, u2, tables * 2) == l2_error_2d(kv, kv, c2, u2, rule)
        assert h1_seminorm_error_2d(kv, kv, c2, ux2, uy2, tables * 2) == h1_seminorm_error_2d(
            kv, kv, c2, ux2, uy2, rule)


@pytest.mark.parametrize("kappa", ["one", "exp"])
@pytest.mark.parametrize("p", range(1, 8))
def test_assembly_and_projection_take_tables_built_once(p, kappa):
    """element_tables(kv, rule, 1), as build_1d and a run build them once,
    gives what the rule gives, bit for bit."""
    case = manufactured_case(kappa)
    for N in (2, 40):
        kv = open_uniform_knots(p, N)
        for rule in (rule_for_degree(p, case.kappa.smooth_polynomial), gauss_legendre(p + 3)):
            tables = element_tables(kv, rule, 1)
            pairs = [
                (assemble_mass(kv, tables).ab, assemble_mass(kv, rule).ab),
                (assemble_stiffness(kv, tables, case.kappa).ab,
                 assemble_stiffness(kv, rule, case.kappa).ab),
                (assemble_load(kv, tables, case.load), assemble_load(kv, rule, case.load)),
                (initial_coefficients(kv, tables, case.start),
                 initial_coefficients(kv, rule, case.start)),
            ]
            for got, want in pairs:
                assert got.tobytes() == want.tobytes()
