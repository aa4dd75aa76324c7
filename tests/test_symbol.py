"""The spectral symbol as an oracle for the boundary penalty.

On a uniform mesh the interior rows of the degree-p mass and stiffness
matrices are Toeplitz, with entries taken from the cardinal B-spline
N_{2p+1} of degree 2p+1 (support [0, 2p+2]) at the integers:

    m_k = N_{2p+1}(p+1+k),    k_k = -N''_{2p+1}(p+1+k),

so with h = 1 their symbols at theta = pi are alternating sums of these
values, and e_p(pi) = K(pi) / M(pi) is the maximum of the interior
operator's spectrum (Garoni, Manni, Pelosi, Serra-Capizzano & Speleers,
Numer. Math. 127, 2014).  The penalty removes the boundary outliers, so the
penalized top eigenvalue times h^2 should land on e_p(pi), uniformly in N.
"""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy.interpolate import BSpline

from igawave.eigen import NumericalFailure, top_eigenvalue
from igawave.experiments import build_1d, spectrum_table

MESHES = (5, 20, 80, 320, 1280)

# Cells where top_eigenvalue does not settle at p = 9 and 10 (ROADMAP item 2).
UNSETTLED = {(9, 5), (9, 80), (9, 320), (10, 80)}


@cache
def cardinal(m, x):
    """N_m(x) at an integer x, exactly: the Cox-de Boor recursion on [0, m+1]."""
    if m == 0:
        return Fraction(int(0 <= x < 1))
    return (x * cardinal(m - 1, x) + (m + 1 - x) * cardinal(m - 1, x - 1)) / m


def cardinal_dd(m, x):
    """N_m''(x) at an integer x, from two differences of N_{m-2}."""
    return cardinal(m - 2, x) - 2 * cardinal(m - 2, x - 1) + cardinal(m - 2, x - 2)


def symbol_parts(p):
    """(M(pi), K(pi)) for degree p and h = 1, exactly."""
    m, c = 2 * p + 1, p + 1
    signs = [(k, (-1) ** abs(k)) for k in range(-p, p + 1)]
    mass = sum(s * cardinal(m, c + k) for k, s in signs)
    stiff = -sum(s * cardinal_dd(m, c + k) for k, s in signs)
    return mass, stiff


def symbol_at_pi(p):
    mass, stiff = symbol_parts(p)
    return stiff / mass


def test_symbol_of_linear_and_quadratic_elements():
    # The classical top frequencies of C^0 linear and C^1 quadratic elements.
    assert symbol_at_pi(1) == 12
    assert symbol_at_pi(2) == 10


def test_symbol_decreases_to_pi_squared():
    values = [symbol_at_pi(p) for p in range(1, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert float(values[2]) / np.pi**2 - 1 == pytest.approx(1.29e-3, rel=1e-2)  # p = 3
    assert 0 < float(values[-1]) / np.pi**2 - 1 < 3e-9  # p = 9


@pytest.mark.parametrize("p", range(1, 10))
def test_symbol_matches_scipy_bspline(p):
    m = 2 * p + 1
    x = np.arange(m + 2, dtype=float)
    spline = BSpline.basis_element(x, extrapolate=False)
    values = np.nan_to_num(spline(x))
    second = np.nan_to_num(spline.derivative(2)(x))
    np.testing.assert_allclose(values, [float(cardinal(m, k)) for k in range(m + 2)],
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(second, [float(cardinal_dd(m, k)) for k in range(m + 2)],
                               rtol=1e-12, atol=1e-13)
    signs = (-1.0) ** np.abs(np.arange(m + 2) - (p + 1))
    mass, stiff = symbol_parts(p)
    assert signs @ values == pytest.approx(float(mass), rel=1e-13)
    assert -(signs @ second) == pytest.approx(float(stiff), rel=1e-12)


@cache
def symbol_ratio(p, N):
    """lambda_tilde h^2 / e_p(pi) for kappa = one and the default weights."""
    d = build_1d(p, N)
    return top_eigenvalue(d.Kt, d.Mt) / N**2 / float(symbol_at_pi(p))


def unsettled(*cells):
    """The strict xfail mark where any of the (p, N) cells does not settle."""
    if UNSETTLED.intersection(cells):
        return pytest.mark.xfail(strict=True, raises=NumericalFailure,
                                 reason="top_eigenvalue does not settle here (ROADMAP item 2)")
    return ()


# Measured: 0.999275 to 0.999991 at p = 3, 1.000057 to 1.000375 for p = 4..9.
@pytest.mark.parametrize("p, N", [
    pytest.param(p, N, marks=unsettled((p, N))) for p in range(3, 10) for N in MESHES
])
def test_penalized_top_eigenvalue_sits_on_the_symbol(p, N):
    assert 0.999 <= symbol_ratio(p, N) <= 1.0005


# The largest measured spread is 2.0e-5, at p = 8; p = 3 still rises with N.
@pytest.mark.parametrize("p", [
    pytest.param(p, marks=unsettled(*((p, N) for N in MESHES))) for p in range(4, 10)
])
def test_penalized_top_eigenvalue_does_not_depend_on_n(p):
    ratios = [symbol_ratio(p, N) for N in MESHES]
    assert max(ratios) - min(ratios) <= 5e-5


# The step ratio tau_c_tilde / tau_c tends to r_p = sqrt(c_p / e_p(pi)), with
# c_p = lambda h^2 of the standard pair: no mesh in it (ROADMAP item 8).
# Measured at N = 80: 3.6e-4 off at p = 3, at most 1.9e-4 for p = 4..8.
@pytest.mark.parametrize("p", [pytest.param(p, marks=unsettled((p, 80))) for p in range(3, 11)])
def test_step_ratio_tends_to_the_symbol_law(p):
    row = spectrum_table([p], [80], workers=1)[0]
    r_p = math.sqrt(row["lambda"] / 80**2 / float(symbol_at_pi(p)))
    assert row["ratio"] == pytest.approx(r_p, rel=5e-4)
