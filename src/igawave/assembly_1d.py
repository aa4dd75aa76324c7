"""Galerkin assembly of 1D mass, stiffness, load and penalty objects.

All matrices live on the interior degrees of freedom by default: the two
basis functions supported on the boundary are removed, which is exactly the
homogeneous Dirichlet condition for open knot vectors.  Storage is banded
symmetric (upper form, bandwidth p) with a cached dense view that the small
dense eigensolves and matvecs use.

The outlier-removal penalties come in two flavours:

* ``endpoint``: rank-two matrices built from the 2l-th basis derivatives at
  x = 0 and x = 1, scaled by h^(4l+1) in the mass and pi^2 h^(4l-1) in the
  stiffness.  This is the default; it pins the spurious top eigenvalues to
  about pi^2/h^2 uniformly in N.
* ``integral``: whole-domain products of 2l-th derivatives scaled by
  h^(6l-1) and pi^2 h^(6l-3).  Kept selectable for comparison; its top
  eigenvalue overshoots pi^2/h^2 by a margin that grows with N.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .quadrature import map_to_element
from .spline_basis import boundary_derivative_vectors, eval_basis_many

__all__ = [
    "Coefficient",
    "kappa_variant",
    "BandedSymMatrix",
    "alpha_of",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load",
    "assemble_penalty",
    "element_tables",
    "penalized_forms",
]

# Level ell's weights are h^(a ell + m) in the mass and pi^2 h^(a ell + k) in
# the stiffness, with (a, m, k) per variant.
_H_POWERS = {"endpoint": (4, 1, -1), "integral": (6, -1, -3)}


@dataclass(frozen=True)
class Coefficient:
    """Scalar diffusion field with positive bounds.

    ``smooth_polynomial`` marks coefficients for which the p+1-point rule is
    already exact (constants); anything else is assembled with p+3 points.
    """

    name: str
    fn: object
    lower: float
    upper: float
    smooth_polynomial: bool = False

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise ValueError("coefficient bounds must satisfy 0 < lower <= upper")


def kappa_variant(name):
    """Coefficient registry for the CLI names 'one' and 'exp'."""
    if name == "one":
        return Coefficient("one", lambda x: np.ones_like(x), 1.0, 1.0, smooth_polynomial=True)
    if name == "exp":
        # e^{x - x^2} on [0,1]: minimum 1 at the ends, maximum e^{1/4}.
        return Coefficient("exp", lambda x: np.exp(x - x * x), 1.0, float(np.exp(0.25)))
    raise ValueError(f"unknown coefficient variant {name!r}")


class BandedSymMatrix:
    """Symmetric banded matrix in scipy's upper banded layout.

    ab[u + i - j, j] holds entry (i, j) for j >= i with u = bandwidth.
    """

    def __init__(self, ab):
        self.ab = np.asarray(ab, dtype=float)
        self.bandwidth = self.ab.shape[0] - 1
        self.n = self.ab.shape[1]
        self._dense = None

    def to_dense(self):
        if self._dense is None:
            u, n = self.bandwidth, self.n
            a = np.zeros((n, n))
            for d in range(u + 1):  # entry (i, i + d) is ab[u - d, i + d]
                a[np.arange(n - d), np.arange(d, n)] = self.ab[u - d, d:]
            a += np.triu(a, 1).T
            a.setflags(write=False)
            self._dense = a
        return self._dense

    def matvec(self, x):
        return self.to_dense() @ x

    def add_scaled(self, other, coeff):
        """self + coeff * other, aligned on the larger bandwidth."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        u = max(self.bandwidth, other.bandwidth)
        ab = np.zeros((u + 1, self.n))
        ab[u - self.bandwidth :, :] = self.ab
        ab[u - other.bandwidth :, :] += coeff * other.ab
        return BandedSymMatrix(ab)

    def factor(self):
        """Banded Cholesky handle; solve() accepts one vector or a matrix of columns.

        The matrix is checked for finite entries once, here; each solve is one
        LAPACK dpbtrs call on the stored factor with no per-call scan, so a
        non-finite right-hand side comes back as a non-finite solution.
        """
        cb = cholesky_banded(self.ab, lower=False)
        n = self.n

        def solve(b):
            b = np.asarray(b, dtype=float)
            if b.shape[:1] != (n,):
                raise ValueError(f"right-hand side has {b.shape[:1]} rows, expected {n}")
            x, info = dpbtrs(cb, b)  # upper factor, the default
            if info != 0:
                raise ValueError(f"dpbtrs rejected argument {-info}")
            return x

        return solve


def alpha_of(p):
    """Number of penalty levels, floor((p-1)/2); zero through degree 2."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return (p - 1) // 2


def element_tables(kv, rule, max_deriv):
    """Quadrature points, weights, first active index and basis table per element.

    Returns (x, w, firsts, vals) with shapes (N, q), (N, q), (N,) and
    (N, q, max_deriv + 1, p + 1), from one basis evaluation over all points.
    """
    bp = kv.breakpoints
    x, w = map_to_element(rule, bp[:-1], bp[1:])
    firsts, vals = eval_basis_many(kv, x.ravel(), max_deriv)
    return x, w, firsts[:: rule.npoints], vals.reshape(x.shape + vals.shape[1:])


def _assemble_product(kv, rule, deriv, coeff=None, interior=True):
    # Generic  integral of c(x) B_k^(d) B_l^(d)  over all elements, written
    # straight into upper banded storage.
    p = kv.p
    xs, ws, firsts, vals = element_tables(kv, rule, deriv)
    wq, v = ws if coeff is None else ws * coeff(xs), vals[:, :, deriv, :]
    local = np.einsum("eq,eqa,eqb->eab", wq, v, v)  # one call, sums over q in order
    # Entry (first + a, first + b) of an element lands in ab[p + a - b, first + b];
    # taking b downwards adds each entry's contributions in element order.
    ab = np.zeros((p + 1, kv.dim))
    for b in range(p, -1, -1):
        for a in range(b + 1):
            ab[p + a - b, firsts + b] += local[:, a, b]
    if interior:
        ab = ab[:, 1:-1].copy()
        ab[p - 1 - np.arange(p), np.arange(p)] = 0.0  # the dropped first row
    return BandedSymMatrix(ab)


def assemble_mass(kv, rule, interior=True):
    """Mass matrix, entries ∫ B_k B_l, SPD."""
    return _assemble_product(kv, rule, 0, None, interior)


def assemble_stiffness(kv, rule, coeff, interior=True):
    """Stiffness matrix, entries ∫ κ B_k' B_l', SPD on interior DOFs."""
    return _assemble_product(kv, rule, 1, coeff, interior)


def assemble_load(kv, rule, f, interior=True):
    """Load vector F_k = ∫ f(x) B_k(x) dx for a callable f of x."""
    p = kv.p
    full = np.zeros(kv.dim)
    for x, w, first, v in zip(*element_tables(kv, rule, 0)):
        full[first : first + p + 1] += (w * f(x)) @ v[:, 0, :]
    return full[1:-1] if interior else full


def assemble_penalty(kv, ell, variant="endpoint", rule=None, interior=True):
    """Penalty matrix for level ell (derivative order 2*ell).

    The endpoint variant is d0 d0^T + d1 d1^T with d0, d1 the 2l-th basis
    derivative values at the two boundary points; bandwidth stays p because
    the two outer products touch disjoint corner blocks.  The integral
    variant is the whole-domain product of 2l-th derivatives.
    """
    if not 1 <= ell <= alpha_of(kv.p):
        raise ValueError(f"penalty level {ell} outside 1..{alpha_of(kv.p)}")
    if variant == "endpoint":
        d0, d1 = boundary_derivative_vectors(kv, 2 * ell)
        if interior:
            d0, d1 = d0[1:-1], d1[1:-1]
        # Band entry ab[p + i - j, j] = d0[i] d0[j] + d1[i] d1[j], zero above row 0.
        j = np.arange(d0.size)
        i = j - kv.p + np.arange(kv.p + 1)[:, None]
        ic = np.maximum(i, 0)
        return BandedSymMatrix(np.where(i >= 0, d0[ic] * d0[j] + d1[ic] * d1[j], 0.0))
    if variant == "integral":
        if rule is None:
            raise ValueError("integral penalty needs a quadrature rule")
        return _assemble_product(kv, rule, 2 * ell, None, interior)
    raise ValueError(f"unknown penalty variant {variant!r}")


def _eta_tuple(name, eta, nlevels):
    scalar = np.isscalar(eta)
    eta = (float(eta),) if scalar else tuple(float(v) for v in eta)
    if not all(np.isfinite(v) and v >= 0 for v in eta):
        raise ValueError(f"penalty weight {name} must be finite and non-negative, got {eta}")
    if scalar:
        return eta * nlevels
    if len(eta) != nlevels:
        raise ValueError(f"expected {nlevels} penalty weights, got {len(eta)}")
    return eta


def penalized_forms(M, K, kv, variant="endpoint", rule=None, eta_a=1.0, eta_b=1.0):
    """Mass/stiffness pair with the outlier penalties of every level folded in.

    Level ell adds eta_b[ell] * w_m * P_ell to M and eta_a[ell] * w_k * P_ell
    to K, with P_ell from assemble_penalty and h = 1/N:
    endpoint weights: mass h^(4l+1), stiffness pi^2 h^(4l-1);
    integral weights: mass h^(6l-1), stiffness pi^2 h^(6l-3).
    A scalar weight applies to every level.  With no penalty levels (p <= 2)
    the input pair is returned unchanged; the weights are checked either way.
    """
    if variant not in _H_POWERS:
        raise ValueError(f"unknown penalty variant {variant!r}")
    nlevels = alpha_of(kv.p)
    eta_a = _eta_tuple("eta_a", eta_a, nlevels)
    eta_b = _eta_tuple("eta_b", eta_b, nlevels)
    a, m, k = _H_POWERS[variant]
    h = kv.h
    Mt, Kt = M, K
    for ell, ea, eb in zip(range(1, nlevels + 1), eta_a, eta_b):
        P = assemble_penalty(kv, ell, variant, rule)
        Mt = Mt.add_scaled(P, eb * h ** (a * ell + m))
        Kt = Kt.add_scaled(P, ea * (np.pi**2 * h ** (a * ell + k)))
    return Mt, Kt
