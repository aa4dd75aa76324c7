"""Open-uniform B-spline bases of maximal smoothness on [0, 1].

The knot vectors built here have (p+1)-fold end knots and simple interior
knots, so the basis spans piecewise polynomials of degree p with C^{p-1}
continuity across the N uniform elements.  Basis dimension is N + p; the
first and last basis functions are the only ones supported on the boundary,
which makes homogeneous Dirichlet elimination a matter of dropping global
indices 0 and N + p - 1.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KnotVector",
    "open_uniform_knots",
    "eval_basis_many",
    "greville_points",
    "boundary_derivative_vectors",
]


@dataclass(frozen=True)
class KnotVector:
    """Degree, element count and the knot sequence itself."""

    p: int
    nelems: int
    knots: np.ndarray = field(repr=False)

    @property
    def dim(self):
        """Number of basis functions, N + p."""
        return self.nelems + self.p

    @property
    def interior_dim(self):
        """Dimension after removing the two boundary functions."""
        return self.nelems + self.p - 2

    @property
    def h(self):
        return 1.0 / self.nelems

    @property
    def breakpoints(self):
        return np.linspace(0.0, 1.0, self.nelems + 1)


def open_uniform_knots(p, N):
    """Build the open-uniform knot vector for degree p and N elements.

    Parameters
    ----------
    p : int
        Polynomial degree, at least 1.
    N : int
        Number of uniform elements, at least 2.

    Returns
    -------
    KnotVector
        Knot sequence of length N + 2p + 1 with (p+1)-fold end knots.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if N < 2:
        raise ValueError(f"element count must be >= 2, got {N}")
    interior = np.linspace(0.0, 1.0, N + 1)[1:-1]
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p=p, nelems=N, knots=knots)


def _find_spans(kv, xs):
    # Index s with knots[s] <= x < knots[s+1] per point; xs is a 1D float array.
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        raise ValueError(f"point {xs[~inside][0]} outside [0, 1]")
    p, N = kv.p, kv.nelems
    # Uniform interior knots let us index directly instead of bisecting.
    e = (xs * N).astype(int)
    up = kv.knots[p + e + 1] <= xs  # guard against float truncation at breakpoints
    down = ~up & (kv.knots[p + e] > xs)
    return np.where(xs >= 1.0, N + p - 1, p + e + up - down)


# Points per pass of eval_basis_many: the Cox-de Boor triangle of a pass
# holds (p+1)^2 BASIS_CHUNK floats, 0.4 MB at p = 6.  At 2048 points a
# pass, build_1d(6, 1000) peaked at 2.5 MB against 1.9 MB, and took 2 to
# 9% less time.
BASIS_CHUNK = 1024


def eval_basis_many(kv, xs, max_deriv=0):
    """The p+1 active basis functions and their derivatives at each point.

    xs is a 1D array of points in [0, 1]; a point outside raises ValueError.
    At interior knots the values are one-sided from the right, and at x = 1
    from the left (the last non-empty span).  Returns (firsts, ders) with
    shapes (len(xs),) and (len(xs), max_deriv + 1, p + 1): ders[i, k, a] is
    the k-th derivative of basis function firsts[i] + a at xs[i], for
    0 <= max_deriv <= p.  Each point goes through exactly the floating-point
    operations of the one-point recurrence (Piegl & Tiller, A2.3), only on
    arrays over points, so the values do not depend on how they are batched.
    The points run in passes of BASIS_CHUNK, each written into the two
    outputs, so the memory used besides them is one pass's, whatever
    len(xs) is: the pass's Cox-de Boor triangle, (p+1)^2 BASIS_CHUNK
    floats, and a few (p+1)-by-BASIS_CHUNK arrays.
    """
    p, n = kv.p, max_deriv
    if not 0 <= n <= p:
        raise ValueError(f"derivative order {n} outside 0..{p}")
    xs = np.asarray(xs, dtype=float)
    m = xs.shape[0]
    firsts = np.empty(m, dtype=int)
    ders = np.empty((m, n + 1, p + 1))
    for i in range(0, m, BASIS_CHUNK):
        part = slice(i, i + BASIS_CHUNK)
        firsts[part] = _eval_pass(kv, xs[part], ders[part].transpose(1, 2, 0))
    return firsts, ders


def _eval_pass(kv, xs, ders):
    # One pass of eval_basis_many: writes ders[k, a, i], a view of the
    # output, and returns the first active index of each point.
    p, n, knots = kv.p, ders.shape[0] - 1, kv.knots
    span = _find_spans(kv, xs)
    m = xs.shape[0]
    # Triangular table of the Cox-de Boor recursion, then the derivative
    # sweep in terms of the inverse knot differences.
    ndu = np.empty((p + 1, p + 1, m))
    ndu[0, 0] = 1.0
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    for j in range(1, p + 1):
        left[j] = xs - knots[span + 1 - j]
        right[j] = knots[span + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d = d + a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d = d + a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, n + 1):
        ders[k] *= fac
        fac *= p - k
    return span - p


def greville_points(kv):
    """Knot averages; one collocation abscissa per basis function."""
    return np.lib.stride_tricks.sliding_window_view(kv.knots[1:-1], kv.p).mean(axis=1)


def boundary_derivative_vectors(kv, order):
    """Values of the full basis's `order`-th derivative at x = 0 and x = 1.

    Only the first and last p+1 basis functions contribute.  Used by the
    endpoint penalty terms.
    """
    firsts, ders = eval_basis_many(kv, [0.0, 1.0], order)
    d = np.zeros((2, kv.dim))
    for row, first, vals in zip(d, firsts, ders[:, order]):
        row[first : first + kv.p + 1] = vals
    return d[0], d[1]
