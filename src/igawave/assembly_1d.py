"""Galerkin assembly of 1D mass, stiffness, load and penalty objects.

All matrices live on the interior degrees of freedom: the two basis
functions supported on the boundary are removed, which is exactly the
homogeneous Dirichlet condition for open knot vectors.  Storage is banded
symmetric (upper form, bandwidth p), the only form a matrix keeps.  The
apply of a vector, or of a Kronecker operator's block of columns, runs one
BLAS product per row block on cached windows of the band; the dense
eigensolves build a dense view on demand, written from the band in one
pass with no second n-by-n temporary.  Each integral runs over the
elements in passes of ELEMENT_CHUNK, in element order; a pass is one basis
table (from a rule, or a slice of a shared element_tables result), one
batched product and one ordered scatter, so the memory that assembly uses
besides its result does not grow with N.

The outlier-removal penalty of level l is the rank-two matrix built from
the 2l-th basis derivatives at x = 0 and x = 1, scaled by h^(4l+1) in the
mass and pi^2 h^(4l-1) in the stiffness.  It pins the spurious top
eigenvalues to the interior symbol maximum, about pi^2/h^2, uniformly in N.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from ._lapack import NumericalFailure, dpbtrf, dpbtrs
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

# Rows per window of the stiffness apply: at n=1004 and 2004 on one thread,
# 8 rows measured 1.1 to 1.3 times as slow, and 20 to 32 rows no faster
# than the run-to-run spread.
ROW_BLOCK = 16
# Up to this order the apply is one product with the whole matrix: 1.1 us
# at n=43, against 3.2 us on stacked windows.
WHOLE_MAX = 128
# OpenBLAS's dgemv kernel sums four rows and four column lanes at a time;
# window edges on multiples of it keep the dense product's order.
BLAS_GROUP = 4
# Elements per pass of the assembly.  One pass covers N <= 1024: passes of
# 256 elements cost 8 to 14% in time on grids that need many of them.
ELEMENT_CHUNK = 1024

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
    """Coefficient registry for the CLI names 'one' and 'exp'; a Coefficient passes through."""
    if isinstance(name, Coefficient):
        return name
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
        self._windows = None

    def to_dense(self):
        """The n-by-n matrix, built afresh on each call; nothing keeps it."""
        u, n, table = self.bandwidth, self.n, self.diagonals()
        a = np.zeros((n, n))
        flat = a.reshape(-1)  # a view; entry (i, j) sits at i * n + j
        for d in range(min(u, n - 1) + 1):  # (i, i + d) and (i + d, i)
            v = table[u + 1 + d, : n - d]
            flat[d :: n + 1][: n - d] = flat[d * n :: n + 1][: n - d] = v
        return a

    def diagonals(self):
        """(2u + 3)-by-n table whose row u + 1 + d holds entry (i, i + d) at
        column i, zero off the matrix and in rows 0 and 2u + 2; read from the
        stored band only, never the unused corner of ab, -0.0 as +0.0."""
        u, n = self.bandwidth, self.n
        table = np.zeros((2 * u + 3, n))
        for d in range(min(u, n - 1) + 1):  # (i, i + d) and (i + d, i) are ab[u - d, i + d]
            row = table[u + 1 + d, : n - d]
            np.add(self.ab[u - d, d:], 0.0, out=row)
            table[u + 1 - d, d:] = row
        return table

    def _stack(self):
        # (columns, windows, c0, trailing window).  Window b holds rows
        # b R .. (b + 1) R with R = ROW_BLOCK, a multiple of BLAS_GROUP, and
        # one shared width of columns from a multiple of BLAS_GROUP, wide
        # enough for the band of its rows; windows that would pass
        # tail = n - n % BLAS_GROUP shift left, over columns that hold
        # zeros.  The rows left over, whose band reaches past tail, form the
        # trailing window on columns c0 .. n, c0 a multiple of BLAS_GROUP;
        # at n <= WHOLE_MAX it is the whole matrix.
        u, n, r, g = self.bandwidth, self.n, ROW_BLOCK, BLAS_GROUP
        tail = n - n % g
        reach = -(-u // g) * g
        width = r + 2 * reach
        count = (tail - u) // r if n > WHOLE_MAX and width <= tail else 0
        i0 = np.arange(count) * r
        cols = np.clip(i0 - reach, 0, tail - width)[:, None] + np.arange(width)
        t0 = count * r
        c0 = max(t0 - u, 0) // g * g
        band = self.diagonals().reshape(-1)  # rows 0 and 2u + 2 hold the zeros off the band

        def entries(i, j):  # entries (i, j) of the matrix, broadcast, in one read
            at = j - i
            np.clip(at, -u - 1, u + 1, out=at)
            at += u + 1
            at *= n
            at += i
            return band[at]

        stack = entries(i0[:, None, None] + np.arange(r)[:, None], cols[:, None, :])
        trail = entries(np.arange(t0, n)[:, None], np.arange(c0, n))
        return cols, stack, c0, trail

    def matvec(self, x):
        """K x for a vector x or an (n, m) block x of columns: one BLAS
        product per stacked window of the band.

        The windows are zero-padded so that every output gets the same
        nonzero products, in the same accumulator lanes and order, as in
        ``to_dense() @ x``; the zeros multiplied add exactly 0.  One gather
        takes x into every window's columns, (windows, width, m) with m = 1
        for a vector, one ``np.matmul`` runs the stack through the kernel
        that ``np.dot`` uses, and one ``np.dot`` applies the trailing
        window, which ends at n.  With OpenBLAS a vector's result is
        bit-identical to the dense product on one thread for n <= 2048
        (tested), and it does not depend on the thread count; nor does a
        block's above WHOLE_MAX, which is within 2 eps of (|K| |x|) of the
        dense product (tested).  Above 2048 a vector's dense product sums
        each row in column chunks, and the two differ by rounding only (at
        most 4e-16 of (|K| |x|) in the tests).  No n-by-n array is built:
        the windows take about n (ROW_BLOCK + 2u) entries and their
        padding, 0.26 MB at n=1004 and p=6, made on the first call.  At
        n <= WHOLE_MAX the one window is the whole matrix.  A non-finite
        entry of x makes non-finite every row of each window whose columns
        hold it, as 0 * NaN is NaN: at n=1004 and p=6 about 32 rows around
        it rather than the 13 coupled to it, and all n rows at
        n <= WHOLE_MAX.
        """
        if self._windows is None:
            self._windows = self._stack()
        cols, stack, c0, trail = self._windows
        if not len(stack):  # the whole matrix: the dense product itself
            return trail @ x
        b, width = cols.shape
        k = b * ROW_BLOCK
        y = np.empty(x.shape)
        np.dot(trail, x[c0:], out=y[k:])  # first, so an x of the wrong length fails here
        np.matmul(stack, x[cols].reshape(b, width, -1), out=y[:k].reshape(b, ROW_BLOCK, -1))
        return y

    def widened(self, u):
        """The same matrix on bandwidth u >= self.bandwidth, in a new Fortran-order band."""
        ab = np.zeros((u + 1, self.n), order="F")
        ab[u - self.bandwidth :] = self.ab
        return BandedSymMatrix(ab)

    def factor(self):
        """Banded Cholesky handle; solve() accepts one vector or a matrix of columns.

        The stored band, not the unused corner of ab, which dpbtrf does not
        read either, is checked for finite entries once, here (ValueError);
        a matrix that is not positive definite raises NumericalFailure.
        Each solve is one LAPACK dpbtrs call on the stored factor with no
        per-call scan, so a non-finite right-hand side comes back as a
        non-finite solution.
        """
        u = self.bandwidth
        if not all(np.isfinite(self.ab[u - d, d:]).all() for d in range(u + 1)):
            raise ValueError("band must not contain infs or NaNs")
        cb, info = dpbtrf(self.ab)  # upper, the default
        if info > 0:
            raise NumericalFailure(f"banded Cholesky failed: leading minor of order {info} "
                                   "is not positive definite")
        if info < 0:
            raise ValueError(f"dpbtrf rejected argument {-info}")
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


def element_tables(kv, rule, max_deriv, elements=slice(None)):
    """Quadrature points, weights, first active index and basis table per element.

    Returns (x, w, firsts, vals) with shapes (E, q), (E, q), (E,) and
    (E, q, max_deriv + 1, p + 1) for the E elements that the slice
    `elements` picks (all N by default), from one basis evaluation over
    their points.
    """
    bp = kv.breakpoints
    x, w = map_to_element(rule, bp[:-1][elements], bp[1:][elements])
    firsts, vals = eval_basis_many(kv, x.ravel(), max_deriv)
    return x, w, firsts[:: rule.npoints], vals.reshape(x.shape + vals.shape[1:])


def _element_passes(kv, rule, max_deriv):
    # The tables of each run of ELEMENT_CHUNK elements, in element order:
    # slices of a shared element_tables result, or built per run.
    for lo in range(0, kv.nelems, ELEMENT_CHUNK):
        part = slice(lo, lo + ELEMENT_CHUNK)
        if isinstance(rule, tuple):
            yield tuple(t[part] for t in rule)
        else:
            yield element_tables(kv, rule, max_deriv, part)


def _assemble_products(kv, rule, forms):
    # The integrals of c(x) B_k^(d) B_l^(d) over all elements for each
    # (d, c) in forms (c None for 1), written straight into upper banded
    # storage; every form of a pass reads the pass's one basis table.
    p = kv.p
    bands = [np.zeros((p + 1, kv.dim)) for _ in forms]
    for xs, ws, firsts, vals in _element_passes(kv, rule, max(d for d, _ in forms)):
        for ab, (deriv, coeff) in zip(bands, forms):
            wq, v = ws if coeff is None else ws * coeff(xs), vals[:, :, deriv, :]
            local = np.einsum("eq,eqa,eqb->eab", wq, v, v)  # one call, sums over q in order
            # Entry (first + a, first + b) of an element lands in ab[p + a - b, first + b];
            # taking b downwards adds each entry's contributions in element
            # order, and the passes run in element order.
            for b in range(p, -1, -1):
                for a in range(b + 1):
                    ab[p + a - b, firsts + b] += local[:, a, b]
    matrices = []
    for ab in bands:
        ab = ab[:, 1:-1].copy()
        ab[p - 1 - np.arange(p), np.arange(p)] = 0.0  # the dropped first row
        matrices.append(BandedSymMatrix(ab))
    return matrices


def assemble_mass(kv, rule, stiffness=None):
    """Mass matrix, entries ∫ B_k B_l, SPD.

    Given a Coefficient as `stiffness`, returns the pair (M, K), K being
    assemble_stiffness(kv, rule, stiffness) bit for bit, from one pass
    in which each element chunk's basis table serves both matrices.
    """
    if stiffness is None:
        return _assemble_products(kv, rule, [(0, None)])[0]
    return tuple(_assemble_products(kv, rule, [(0, None), (1, stiffness)]))


def assemble_stiffness(kv, rule, coeff):
    """Stiffness matrix, entries ∫ κ B_k' B_l', SPD on interior DOFs."""
    return _assemble_products(kv, rule, [(1, coeff)])[0]


def assemble_load(kv, rule, f):
    """Load vector F_k = ∫ f(x) B_k(x) dx for a callable f that acts elementwise."""
    p = kv.p
    full = np.zeros(kv.dim)
    for xs, ws, firsts, vals in _element_passes(kv, rule, 0):
        values = np.ascontiguousarray(vals[:, :, 0, :])  # a strided block can round differently
        local = np.matmul((ws * f(xs))[:, None, :], values)[:, 0]
        for a in range(p, -1, -1):  # a downwards adds each entry's elements in order
            full[firsts + a] += local[:, a]
    return full[1:-1]


def assemble_penalty(kv, ell):
    """Penalty matrix for level ell (derivative order 2*ell).

    d0 d0^T + d1 d1^T with d0, d1 the 2l-th basis derivative values at the
    two boundary points, zero outside the first and last p interior DOFs:
    only those two p-by-p corners are written, added where they overlap.
    """
    if not 1 <= ell <= alpha_of(kv.p):
        raise ValueError(f"penalty level {ell} outside 1..{alpha_of(kv.p)}")
    d0, d1 = (d[1:-1] for d in boundary_derivative_vectors(kv, 2 * ell))
    p, n = kv.p, d0.size
    c = min(p, n)
    ab = np.zeros((p + 1, n))
    i, j = np.triu_indices(c)  # entry (i, j), i <= j, sits at ab[p + i - j, j]
    ab[p + i - j, j] += d0[i] * d0[j]
    i, j = i + n - c, j + n - c  # the last corner
    ab[p + i - j, j] += d1[i] * d1[j]
    return BandedSymMatrix(ab)


def _weight(name, eta):
    if not (isinstance(eta, numbers.Real) and np.isfinite(eta) and eta >= 0):
        raise ValueError(f"penalty weight {name} must be finite and non-negative, got {eta!r}")
    return float(eta)


def penalized_forms(M, K, kv, eta_a=1.0, eta_b=1.0):
    """Mass/stiffness pair with the outlier penalties of every level folded in.

    Level ell adds eta_b * h^(4l+1) * P_ell to M and
    eta_a * pi^2 h^(4l-1) * P_ell to K, with P_ell from assemble_penalty
    and h = 1/N.  With no penalty levels (p <= 2) the input pair is
    returned unchanged; the weights are checked either way.
    """
    eta_a, eta_b = _weight("eta_a", eta_a), _weight("eta_b", eta_b)
    if alpha_of(kv.p) == 0:
        return M, K
    h, Mt, Kt = kv.h, M.widened(M.bandwidth), K.widened(K.bandwidth)  # one copy each
    for ell in range(1, alpha_of(kv.p) + 1):  # every level added in place, in order
        P = assemble_penalty(kv, ell)
        Mt.ab += eta_b * h ** (4 * ell + 1) * P.ab
        Kt.ab += eta_a * (np.pi**2 * h ** (4 * ell - 1)) * P.ab
    return Mt, Kt
