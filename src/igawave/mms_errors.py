"""Manufactured solutions, projections, and discretization-error norms.

One manufactured problem serves every dimension: u = e^t prod_i sin(3 pi x_i)
on [0, 1]^dim, with coefficient 'one', or in 1D also 'exp'.  Its forcing is
separable, f = f_const * e^t * prod_i load(x_i), so a load vector is
f_const times the outer product of one 1D load vector per axis, assembled
once and scaled per step inside time loops; the start state is likewise
the outer product of the projections of sin(3 pi x).

The error norms are sum-factorized (Antolin, Buffa, Calabro, Martinelli &
Sangalli, CMAME 284, 2015): the coefficient tensor is contracted one axis
at a time with that axis's per-element basis tables, the target is
evaluated once on the tensor grid of quadrature points, and the weighted
squares are summed.  The sum runs over the later axes first and then, on
the first axis, as one dot per element accumulated in element order.  That
order is fixed on purpose: in 1D it is the order of a plain per-element
loop, and the 1D CLI outputs are pinned to it bit for bit.  Each norm
takes a quadrature rule or, for many samples on one mesh, the list of each
axis's element_tables(kv, rule, 1), built once by the caller.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly_1d import assemble_load, assemble_mass, element_tables, kappa_variant
from .spline_basis import eval_basis_many, greville_points

__all__ = [
    "ManufacturedCase",
    "manufactured_case",
    "initial_coefficients",
    "l2_error",
    "h1_seminorm_error",
    "l2_error_2d",
    "h1_seminorm_error_2d",
    "observed_rates",
]

W = 3.0 * np.pi


@dataclass(frozen=True)
class ManufacturedCase:
    """u = e^t prod_i sin(W x_i) and f = f_const e^t prod_i load(x_i).

    u, grad and f take one coordinate per axis and then t.  Their products
    run left to right, starting from the time factor.
    """

    dim: int
    kappa: object
    f_const: float
    load: object = field(repr=False)

    @staticmethod
    def start(x):
        """The per-axis profile of u at t = 0 (and of u_t, since u_t = u)."""
        return np.sin(W * x)

    def u(self, *xt):
        return math.prod((np.sin(W * x) for x in xt[:-1]), start=np.exp(xt[-1]))

    def grad(self, axis, *xt):
        """The partial derivative of u along axis."""
        return math.prod(
            (np.cos(W * x) if i == axis else np.sin(W * x) for i, x in enumerate(xt[:-1])),
            start=np.exp(xt[-1]) * W,
        )

    def f(self, *xt):
        return math.prod((self.load(x) for x in xt[:-1]), start=self.f_const * np.exp(xt[-1]))


def manufactured_case(kappa="one", dim=1):
    """The manufactured case on [0, 1]^dim for coefficient 'one' or, in 1D, 'exp'.

    In 1D the load profile is the whole spatial forcing and f_const is 1;
    with unit coefficient in more dimensions f = (1 + dim W^2) u.
    """
    coeff = kappa_variant(kappa)
    if coeff.name not in ("one", "exp"):
        raise ValueError(f"no manufactured forcing for coefficient {coeff.name!r}")
    if dim < 1 or (dim > 1 and coeff.name != "one"):
        raise ValueError(f"no manufactured {coeff.name!r} case in dim={dim!r}")
    if dim > 1:
        return ManufacturedCase(dim, coeff, 1.0 + dim * W**2, ManufacturedCase.start)
    if coeff.name == "one":

        def load(x):
            return (1.0 + W**2) * np.sin(W * x)

    else:
        # f = u_tt - (kappa u')' with kappa' = (1 - 2x) kappa.
        def load(x):
            k = coeff(x)
            return np.sin(W * x) * (1.0 + W**2 * k) - W * (1.0 - 2.0 * x) * k * np.cos(W * x)

    return ManufacturedCase(1, coeff, 1.0, load)


def initial_coefficients(kv, rule, fn, method="project"):
    """Interior coefficients approximating fn on the spline space.

    'project' solves the plain-mass L2-projection, on rule or on the
    element_tables result of one; 'greville' interpolates at the interior
    Greville abscissae.  fn must vanish at the boundary.
    """
    if method == "project":
        M = assemble_mass(kv, rule)
        return M.factor()(assemble_load(kv, rule, fn))
    if method == "greville":
        pts = greville_points(kv)[1:-1]
        firsts, ders = eval_basis_many(kv, pts, 0)
        A = np.zeros((pts.size, kv.dim))  # all functions; the boundary two are dropped
        A[np.arange(pts.size)[:, None], firsts[:, None] + np.arange(kv.p + 1)] = ders[:, 0, :]
        return np.linalg.solve(A[:, 1:-1], fn(pts))
    raise ValueError(f"unknown initialization {method!r}")


def _tensor_error(kvs, coeffs, exact, rule, derivs):
    """Squared L2 distance between one partial derivative of a tensor spline
    and exact, the matching derivative of the target.

    kvs and derivs give each axis's knot vector and derivative order; coeffs
    are the interior coefficients in C order; exact takes one coordinate
    array per axis and broadcasts them.  rule: see the module docstring.
    """
    U = np.zeros(tuple(kv.dim for kv in kvs))
    U[(slice(1, -1),) * len(kvs)] = np.reshape(coeffs, tuple(kv.interior_dim for kv in kvs))
    grid, weights = [], []
    for axis, (kv, d) in enumerate(zip(kvs, derivs)):
        x, w, firsts, vals = rule[axis] if isinstance(rule, list) else element_tables(kv, rule, d)
        # U is (this axis, later axes, done element/point pairs); contract
        # this axis element by element and move its (element, point) pair last.
        active = U[firsts[:, None] + np.arange(kv.p + 1)]
        Y = np.matmul(vals[:, :, d, :], active.reshape(active.shape[:2] + (-1,)))
        U = np.moveaxis(Y.reshape(x.shape + U.shape[1:]), (0, 1), (-2, -1))
        grid.append(x.reshape((1, 1) * axis + x.shape + (1, 1) * (len(kvs) - 1 - axis)))
        weights.append(w)
    sq = (U - exact(*grid)) ** 2
    for w in weights[:0:-1]:
        sq = sq.reshape(sq.shape[:-2] + (-1,)) @ w.ravel()
    per_element = np.matmul(weights[0][:, None, :], sq[:, :, None]).ravel()
    return np.cumsum(per_element)[-1]


def l2_error(kv, coeffs, exact, rule):
    """L2 distance between the spline with given interior coefficients and exact(x)."""
    return np.sqrt(_tensor_error([kv], coeffs, exact, rule, (0,)))


def h1_seminorm_error(kv, coeffs, exact_dx, rule):
    """H1-seminorm distance; exact_dx is the derivative of the target."""
    return np.sqrt(_tensor_error([kv], coeffs, exact_dx, rule, (1,)))


def l2_error_2d(kvx, kvy, coeffs, exact, rule):
    """L2 error of a tensor-product spline against exact(x, y)."""
    return np.sqrt(_tensor_error([kvx, kvy], coeffs, exact, rule, (0, 0)))


def h1_seminorm_error_2d(kvx, kvy, coeffs, exact_dx, exact_dy, rule):
    """H1-seminorm error; needs both partial derivatives of the target."""
    ex = _tensor_error([kvx, kvy], coeffs, exact_dx, rule, (1, 0))
    ey = _tensor_error([kvx, kvy], coeffs, exact_dy, rule, (0, 1))
    return np.sqrt(ex + ey)


def observed_rates(errors, hs):
    """Pairwise convergence rates log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need matching sequences of length >= 2")
    if np.any(errors <= 0.0):
        raise ValueError("rates undefined for non-positive errors")
    return np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
