"""Tensor-product operators assembled from 1D factors.

A d-dimensional operator is a sum of Kronecker products of 1D banded
matrices and is never materialized: matrix-vector products sweep one axis
at a time on the reshaped coefficient tensor, and the mass solve factors
into one banded Cholesky solve per axis because the mass stays a single
Kronecker product.  An operator binds its dense axis factors and each
axis's transpose orders when it is built, so an apply or a solve is only
the per-axis matrix products or banded solves.

C-order flattening everywhere: coefficient (i, j[, k]) lives at flat index
(i * ny + j) * nz + k.
"""

import numpy as np

__all__ = ["KroneckerOperator", "build_tensor_operators", "kron_mass_factor"]


def _axis_layouts(dims):
    """Per axis: the order that moves it first, the moved shape, and the order back.

    An axis moved first, with the others in their order flattened into the
    columns, is the layout and the matrix product that
    np.tensordot(f, X, axes=(1, axis)) uses, without its bookkeeping.
    """
    orders = [(a, *range(a), *range(a + 1, len(dims))) for a in range(len(dims))]
    return [(o, tuple(dims[i] for i in o), tuple(np.argsort(o))) for o in orders]


def _sweep(maps, X, layouts):
    """Apply maps[a], a map on (n_a, m) column blocks, along each axis a of X in turn."""
    for fn, (order, shape, back) in zip(maps, layouts):
        X = fn(X.transpose(order).reshape(shape[0], -1)).reshape(shape).transpose(back)
    return X


class KroneckerOperator:
    """Sum of Kronecker products of per-axis symmetric factors."""

    def __init__(self, terms):
        terms = tuple(tuple(t) for t in terms)
        if not terms:
            raise ValueError("need at least one Kronecker term")
        dims = tuple(f.n for f in terms[0])
        for t in terms:
            if tuple(f.n for f in t) != dims:
                raise ValueError("inconsistent axis dimensions across terms")
        self.terms = terms
        self.dims = dims
        self.total_dim = int(np.prod(dims))
        self._layouts = _axis_layouts(dims)
        self._applies = tuple(tuple(f.to_dense().__matmul__ for f in t) for t in terms)  # f @ Z

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.total_dim,):
            raise ValueError(f"expected vector of length {self.total_dim}")
        X = x.reshape(self.dims)
        out = np.zeros_like(X)
        for maps in self._applies:
            out += _sweep(maps, X, self._layouts)
        return out.reshape(-1)

    def to_dense(self):
        """Materialized matrix; intended for small cross-check problems."""
        out = np.zeros((self.total_dim, self.total_dim))
        for term in self.terms:
            acc = term[0].to_dense()
            for f in term[1:]:
                acc = np.kron(acc, f.to_dense())
            out += acc
        return out


def build_tensor_operators(axis_pairs):
    """Mass and stiffness operators from per-axis (mass, stiffness) pairs.

    Parameters
    ----------
    axis_pairs : sequence of (BandedSymMatrix, BandedSymMatrix)
        One (mass, stiffness) pair per axis; two or three axes.

    Returns
    -------
    (KroneckerOperator, KroneckerOperator)
        The mass is the single product M_x (x) M_y [(x) M_z]; the stiffness
        replaces one mass factor by the axis stiffness in each term.
    """
    d = len(axis_pairs)
    if d not in (2, 3):
        raise ValueError(f"axis count must be 2 or 3, got {d}")
    masses = [pair[0] for pair in axis_pairs]
    stiffs = [pair[1] for pair in axis_pairs]
    mass = KroneckerOperator([tuple(masses)])
    terms = []
    for k in range(d):
        term = list(masses)
        term[k] = stiffs[k]
        terms.append(tuple(term))
    return mass, KroneckerOperator(terms)


def kron_mass_factor(mass):
    """Per-axis Cholesky solver for a single-product Kronecker mass.

    Returns a callable mapping b to the solution of mass @ u = b.
    """
    if len(mass.terms) != 1:
        raise ValueError("mass operator must be a single Kronecker product")
    solvers = [f.factor() for f in mass.terms[0]]
    dims, layouts = mass.dims, mass._layouts

    def solve(b):
        return _sweep(solvers, np.asarray(b, dtype=float).reshape(dims), layouts).reshape(-1)

    return solve
