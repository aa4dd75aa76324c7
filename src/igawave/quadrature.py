"""Gauss-Legendre rules on the reference interval and mapped elements."""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureRule", "gauss_legendre", "rule_for_degree", "map_to_element"]

MAX_POINTS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (-1, 1) and positive weights summing to 2."""

    npoints: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def _rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(npoints=n, nodes=x, weights=w)


def gauss_legendre(n_q):
    """Gauss-Legendre rule with n_q points, exact for degree 2 n_q - 1.

    Raises on point counts outside 1..16; higher counts are never needed
    for the integrands assembled here.
    """
    if not 1 <= n_q <= MAX_POINTS:
        raise ValueError(f"point count {n_q} outside 1..{MAX_POINTS}")
    return _rule(n_q)


def rule_for_degree(p, smooth_coefficient=True):
    """The one rule choice for integrals against degree-p splines.

    p + 1 points integrate every polynomial integrand with a constant
    coefficient (degree at most 2p).  Any non-polynomial integrand, a variable
    coefficient or the manufactured loads and norms, gets p + 3 points, which
    converged the spectra of interest to below 1e-8 relative.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return gauss_legendre(p + 1 if smooth_coefficient else p + 3)


def map_to_element(rule, a, b):
    """Affinely map the reference rule to [a, b]; returns (points, weights).

    With arrays of element ends a and b, row e of each result belongs to
    element [a[e], b[e]].
    """
    mid = np.asarray(0.5 * (a + b))[..., None]
    half = np.asarray(0.5 * (b - a))[..., None]
    return mid + half * rule.nodes, half * rule.weights
