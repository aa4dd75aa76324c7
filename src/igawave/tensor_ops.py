"""Tensor-product operators assembled from 1D factors.

A d-dimensional operator is a sum of Kronecker products of 1D banded
matrices and is never materialized: matrix-vector products sweep one axis
at a time on the reshaped coefficient tensor, and the mass solve factors
into one banded Cholesky solve per axis because the mass stays a single
Kronecker product.  An operator binds each axis factor's banded apply
(BandedSymMatrix.matvec on a block of columns) and each axis's transpose
when it is built, so an apply or a solve is only the per-axis band
products or banded solves, with C order restored once at the end.

C-order flattening everywhere: coefficient (i, j[, k]) lives at flat index
(i * ny + j) * nz + k.
"""

import numpy as np

__all__ = ["KroneckerOperator", "build_tensor_operators", "kron_mass_factor"]


def _axis_layouts(dims):
    """Per axis, the transpose into its layout and that layout's shape; then the one back.

    Axis a's layout is the one np.tensordot(f, X, axes=(1, a)) multiplies
    in: axis a first, the other axes in their order flattened into the
    columns.  Each transpose starts from the layout the axis before left
    (C order for the first), and the last one goes from the final layout
    back to C order, so a sweep moves each axis once and never back.
    """
    steps, held = [], tuple(range(len(dims)))  # held[i]: the axis stored at position i
    for a in range(len(dims)):
        order = (a, *range(a), *range(a + 1, len(dims)))
        steps.append((tuple(held.index(i) for i in order), tuple(dims[i] for i in order)))
        held = order
    return steps, tuple(held.index(i) for i in range(len(dims)))


def _sweep(maps, X, steps):
    """Apply maps[a], a map on (n_a, m) column blocks, along each axis a of X in turn.

    The result is left in the last axis's layout.
    """
    for fn, (move, shape) in zip(maps, steps):
        X = fn(X.transpose(move).reshape(shape[0], -1)).reshape(shape)
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
        self._applies = tuple(tuple(f.matvec for f in t) for t in terms)  # f @ Z

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.total_dim,):
            raise ValueError(f"expected vector of length {self.total_dim}")
        X = x.reshape(self.dims)
        steps, back = self._layouts
        out = np.zeros(steps[-1][1])  # summed in the last axis's layout, then moved once
        for maps in self._applies:
            out += _sweep(maps, X, steps)
        return out.transpose(back).reshape(-1)

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
    dims, (steps, back) = mass.dims, mass._layouts

    def solve(b):
        X = _sweep(solvers, np.asarray(b, dtype=float).reshape(dims), steps)
        return X.transpose(back).reshape(-1)

    return solve
