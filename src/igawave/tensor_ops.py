"""Tensor-product operators assembled from 1D factors.

A d-dimensional operator is a sum of Kronecker products of 1D banded
matrices and is never materialized: matrix-vector products sweep one axis
at a time on the reshaped coefficient tensor, and the mass solve factors
into one banded Cholesky solve per axis because the mass stays a single
Kronecker product.

C-order flattening everywhere: coefficient (i, j[, k]) lives at flat index
(i * ny + j) * nz + k.
"""

import numpy as np

__all__ = ["KroneckerOperator", "build_tensor_operators", "kron_mass_factor"]


def _along_axis(op, X, axis):
    """Apply op, a map on (n, m) column blocks, along one axis of X.

    The axis goes first, the others keep their order and flatten into the
    columns, and the result is transposed back: the layout and the matrix
    product that np.tensordot(f, X, axes=(1, axis)) uses, without its
    bookkeeping.  The inverse of that order is (1, .., axis, 0, axis+1, ..).
    """
    rest = range(axis + 1, X.ndim)
    moved = X.transpose((axis, *range(axis), *rest))
    Y = op(moved.reshape(X.shape[axis], -1)).reshape(moved.shape)
    return Y.transpose((*range(1, axis + 1), 0, *rest))


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

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.total_dim,):
            raise ValueError(f"expected vector of length {self.total_dim}")
        X = x.reshape(self.dims)
        out = np.zeros_like(X)
        for term in self.terms:
            Y = X
            for axis, f in enumerate(term):
                Y = _along_axis(lambda Z: f.to_dense() @ Z, Y, axis)
            out += Y
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
    dims = mass.dims

    def solve(b):
        X = np.asarray(b, dtype=float).reshape(dims)
        for axis, sv in enumerate(solvers):
            X = _along_axis(sv, X, axis)
        return X.reshape(-1)

    return solve
