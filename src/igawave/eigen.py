"""Generalized symmetric eigensolvers for the pair (K, M).

Three routes: a dense LAPACK solve of the whole spectrum for small systems
(the oracle), a banded solve of the top eigenvalue alone with no size
limit, and a matrix-free route for the largest eigenvalue.  They must
agree; the test suite leans on that.

The banded route costs O(n p^2) time and O(n p) memory on the band arrays.
By Sylvester's law of inertia the banded Cholesky (LAPACK dpbtrf) of
sigma M - K succeeds exactly when sigma > lambda_max, so bisection brackets
lambda_max to 1e-6 relative.  Shift-invert sweeps with three vectors run on
the last factor that succeeded, each ending in a Rayleigh-Ritz step.  Not
one vector: the top pair can be closer than the bracket (1e-12 relative for
the unpenalized p=5, N=1000 pair), and a single vector stalls on a mix of
the two, 8.5e-13 low there.  The Rayleigh quotient of the top Ritz vector is
formed in extended precision (np.longdouble); the value is returned once
two sweeps agree to 1e-12 relative, and a block that does not settle
raises NumericalFailure.

The matrix-free route is Lanczos on M^-1 K in the M inner product, where
that operator is symmetric, written in numpy on the caller's callables.
Full reorthogonalization keeps the basis orthogonal without the
bookkeeping of selective schemes, and a restart keeps the top half of the
Ritz vectors (thick restart), so a near-degenerate top pair is not lost.
Penalized spectra end in such a pair (one pinned mode per boundary), which
stalls power iteration but not a Krylov method.  The route returns the
Rayleigh quotient of the Lanczos vector.

Both non-banded routes judge their top pair (theta, x) by one relative
backward error in the M inner product (Parlett, The Symmetric Eigenvalue
Problem, ch. 15):

    eta = ||K x - theta M x||_{M^-1} / (|theta| ||x||_M).

theta then lies within eta |theta| of some eigenvalue of the pair.  A
residual in the units of lambda is out of float64's reach on penalized
pairs, where cond(M) reaches 1e11; eta is not.  The matrix-free route gets
the M^-1 norm from one more mass solve; the dense route from its
eigenvectors, since V^T M V = I gives M^-1 = V V^T.  Above ETA_BOUND a
route raises NumericalFailure rather than return the value.

Both iterative routes start from reproducible data: entry i of a seeded
start block is the (i+1)-th output of the SplitMix64 generator seeded with
the seed (Steele, Lea & Flood, OOPSLA 2014), its top 53 bits mapped to a
multiple of 2^-52 in [-1, 1).  The values are uniform on that grid, the
same on every numpy and Python version, and need none of NumPy's random
generators.  A seed is an int (not a bool) in [0, 2^64); anything else
raises ValueError.  top_eigenvalue always uses seed 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import NumericalFailure, dpbtrf, dpbtrs, dsygvd

__all__ = ["NumericalFailure", "SpectrumResult", "PowerResult", "full_spectrum",
           "top_eigenvalue", "max_eigenvalue"]

DENSE_LIMIT = 2000
EPS = np.finfo(float).eps
ETA_BOUND = 1e-2  # largest backward error a returned top pair may have; README has the table

GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment, 2^64 / golden ratio


def check_seed(seed):
    """Raise ValueError unless seed is an int (not a bool) in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")


def start_data(shape, seed):
    """Reproducible start data of the given shape, uniform on [-1, 1).

    Entry i in C order is SplitMix64's (i+1)-th output for this seed, its
    top 53 bits scaled to [-1, 1).  The seed and the constants enter as
    Python ints: arithmetic on uint64 arrays wraps mod 2^64 silently, where
    the same products of uint64 scalars would warn.
    """
    check_seed(seed)
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * GOLDEN + seed
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return ((z >> 11).astype(float) * 2.0**-52 - 1.0).reshape(shape)


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues plus the backward error eta of the top pair."""

    eigenvalues: np.ndarray = field(repr=False)
    top_residual: float

    @property
    def max(self):
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class PowerResult:
    value: float
    iterations: int
    converged: bool
    residual: float


def _eigh(A, B):
    """Eigenvalues and eigenvectors (w, V) of the dense pair (A, B), ascending,
    as scipy's eigh(A, B) computes them: the same LAPACK routine (dsygvd) and
    triangle, the same finiteness check (ValueError).  A B that is not
    positive definite raises NumericalFailure."""
    w, V, info = dsygvd(np.asarray_chkfinite(A), np.asarray_chkfinite(B), uplo="L")
    if info != 0:
        raise NumericalFailure(f"dense generalized eigensolve failed with dsygvd INFO={info}")
    return w, V


def _backward_error(theta, r_norm, x_norm):
    """eta = r_norm / (|theta| x_norm) of a top pair; NumericalFailure above ETA_BOUND."""
    eta = float(r_norm / (abs(theta) * x_norm))
    if not eta <= ETA_BOUND:
        raise NumericalFailure(f"backward error {eta:.2e} of the top pair is above {ETA_BOUND:.0e}")
    return eta


def full_spectrum(K, M):
    """All eigenvalues of K u = lambda M u by a dense symmetric solve.

    Accepts ndarrays or anything with a to_dense() method; refuses systems
    larger than 2000 unknowns, which top_eigenvalue or max_eigenvalue should
    handle.  top_residual is the backward error eta of the top pair (module
    docstring), ||V^T r|| / (|theta| ||x||_M) with the residual r and the
    M-orthonormal eigenvectors V.  eta bounds the distance to some
    eigenvalue, not to the top one: on the penalized p=10, N=2, kappa=exp
    pair eta is 8.3e-3 and lambda h^2 is 11.560, against 11.428 at 60
    digits.  An M that is not positive definite, or an eta above ETA_BOUND
    (a wrong top value: penalized pairs of degree 11 and above), raises
    NumericalFailure.
    """
    Kd, Md = (a if isinstance(a, np.ndarray) else a.to_dense() for a in (K, M))
    if Kd.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense route limited to {DENSE_LIMIT} unknowns, got {Kd.shape[0]}")
    vals, vecs = _eigh(Kd, Md)
    x, theta = vecs[:, -1], vals[-1]
    mx = Md @ x
    eta = _backward_error(theta, np.linalg.norm(vecs.T @ (Kd @ x - theta * mx)), math.sqrt(x @ mx))
    return SpectrumResult(eigenvalues=vals, top_residual=eta)


BLOCK = 3  # shift-invert vectors: a near-degenerate top pair and one more
BRACKET = 1e-6  # relative width of the bisection's final bracket
SETTLE = 1e-12  # relative change between two sweeps that ends them
SWEEPS = 50  # 2-4 settle a well-conditioned pair
FACTORIZATIONS = 128  # a cap: a bracket around lambda_max = 0 never gets relatively narrow


def _band_apply(rows, x):
    """Each (n, 2u+1) rows of a stack times x (n, k): one einsum, x's precision."""
    u = (rows.shape[-1] - 1) // 2
    padded = np.zeros((x.shape[1], x.shape[0] + 2 * u), dtype=x.dtype)
    padded[:, u:-u or None] = x.T
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * u + 1, axis=1)
    return np.einsum("mnw,knw->mnk", rows, windows)


def _shift_above(kab, mab):
    """Cholesky factor of sigma M - K for a sigma within BRACKET above lambda_max:
    from the largest K_ii / M_ii (a Rayleigh quotient, so a lower bound) the
    step doubles until a factorization succeeds, then the bracket halves."""
    lo, hi, factor = float(np.max(kab[-1] / mab[-1])), None, None
    step = abs(lo) or 1.0
    for _ in range(FACTORIZATIONS):
        sigma = lo + step if factor is None else 0.5 * (lo + hi)
        trial, info = dpbtrf(sigma * mab - kab, overwrite_ab=1)
        if info == 0:
            hi, factor = sigma, trial
        else:
            lo, step = sigma, 2.0 * step
        if factor is not None and hi - lo <= BRACKET * max(abs(lo), abs(hi)):
            break
    if factor is None:
        raise NumericalFailure("no shift makes sigma M - K positive definite")
    return factor


def top_eigenvalue(K, M):
    """Largest eigenvalue of K u = lambda M u for banded symmetric K and SPD M.

    K and M are BandedSymMatrix objects (upper band storage).  O(n p^2)
    time, O(n p) memory, no size limit; the method is in the module
    docstring.  About 1e-15 relative on well-conditioned pairs; on penalized
    pairs of degree 8 and above up to 1e-10, or the sweeps do not settle.
    Raises NumericalFailure then, and when M is not positive definite
    (INFO = n + i: its leading minor of order i is not).
    """
    n = K.n
    if M.n != n:
        raise ValueError(f"dimension mismatch: K has {n} unknowns, M has {M.n}")
    u = max(K.bandwidth, M.bandwidth)
    K, M = K.widened(u), M.widened(u)
    _, info = dpbtrf(M.ab)
    if info != 0:
        raise NumericalFailure(f"dpbtrf failed with INFO={n + info} (M is not positive definite)")
    factor = _shift_above(K.ab, M.ab)
    # Entries (i, i-u) .. (i, i+u) of each row i, in a C-order array: the
    # einsum of _band_apply sums in an order that follows the layout.
    rows = np.array([K.diagonals()[1:-1].T, M.diagonals()[1:-1].T], order="C")
    rows_ext = rows.astype(np.longdouble)
    V = start_data((n, min(BLOCK, n)), 0)
    value = None
    for _ in range(SWEEPS):
        Q, _ = np.linalg.qr(dpbtrs(factor, V)[0])  # (sigma M - K)^-1 V, orthonormalized
        KQ, MQ = _band_apply(rows, Q)
        _, Y = _eigh(Q.T @ KQ, Q.T @ MQ)
        z = (Q @ Y[:, -1:]).astype(np.longdouble)
        kz, mz = _band_apply(rows_ext, z)[:, :, 0]
        last, value = value, (z[:, 0] @ kz) / (z[:, 0] @ mz)
        if last is not None and abs(value - last) <= SETTLE * abs(value):
            return float(value)
        V = MQ @ Y
    raise NumericalFailure(f"top eigenvalue did not settle to {SETTLE:.0e} in {SWEEPS} sweeps")


KRYLOV = 64  # Lanczos basis vectors at most
KEEP = KRYLOV // 2  # Ritz vectors a restart keeps
RITZ_EVERY = 8  # Lanczos steps between two Ritz extractions


def _lanczos(apply_K, solve_M, apply_M, v, tol, cycles):
    """Top Ritz vector of M^-1 K by thick-restart Lanczos in the M inner product.

    Each step applies K, M^-1 and M once and orthogonalizes the new
    direction twice against the whole basis; the coefficients are the new
    column of the projected matrix Q^T K Q.  A cycle ends at min(n, KRYLOV)
    vectors and the next one starts from the top KEEP Ritz vectors and the
    last direction.  Done when the residual estimate beta |y_last| <=
    tol |theta| of the top Ritz pair, when the basis spans the whole space,
    or when the new direction is rounding noise (an invariant subspace).
    """
    n = v.shape[0]
    m = min(n, KRYLOV)
    Q, MQ = np.empty((m + 1, n)), np.empty((m + 1, n))  # the basis and M times it, by rows
    H = np.zeros((m, m))  # upper triangle of Q^T K Q
    mv = apply_M(v)
    scale = 1.0 / math.sqrt(v @ mv)
    Q[0], MQ[0] = v * scale, mv * scale
    start = 0
    for _ in range(cycles):
        for j in range(start, m):
            kq = apply_K(Q[j])
            w = solve_M(kq)
            norm = math.sqrt(max(w @ kq, 0.0))  # ||w||_M before orthogonalization
            for _ in range(2):  # w may be the caller's array: not in place
                h = MQ[: j + 1] @ w
                w = w - h @ Q[: j + 1]
                H[: j + 1, j] += h
            mw = apply_M(w)
            beta = math.sqrt(max(w @ mw, 0.0))
            invariant = beta <= EPS * norm
            if invariant or (j + 1) % RITZ_EVERY == 0 or j + 1 == m:
                theta, Y = np.linalg.eigh(H[: j + 1, : j + 1], UPLO="U")
                if invariant or j + 1 == n or beta * abs(Y[-1, -1]) <= tol * abs(theta[-1]):
                    return Y[:, -1] @ Q[: j + 1]
            Q[j + 1], MQ[j + 1] = w / beta, mw / beta  # beta > 0: not invariant
        Y = Y[:, -KEEP:]  # a cycle that reaches j + 1 = n returns, so here n > KRYLOV
        Q[:KEEP], MQ[:KEEP] = Y.T @ Q[:m], Y.T @ MQ[:m]
        Q[KEEP], MQ[KEEP] = Q[m], MQ[m]
        H[:] = 0.0
        H[:KEEP, :KEEP] = np.diag(theta[-KEEP:])
        start = KEEP
    raise NumericalFailure(f"Lanczos did not converge in {cycles} restarts")


def max_eigenvalue(apply_K, solve_M, n, tol=1e-10, *, apply_M, max_iter=50_000, seed=42):
    """Largest generalized eigenvalue by thick-restart Lanczos.

    Parameters
    ----------
    apply_K, apply_M : callables mapping a vector to K v, M v.
    solve_M : callable mapping b to the solution of M u = b.
    n : system dimension.
    tol : bound on the Lanczos residual estimate beta_j |y_last| of the top
        Ritz pair, relative to the Ritz value.
    max_iter : budget for the Lanczos cycles of up to 64 steps (the first
        from the seeded start, each later one restarted from the top 32
        Ritz vectors).
    seed : start-vector seed, an int in [0, 2^64) (ValueError otherwise).
        The start vector is start_data((n,), seed), uniform on [-1, 1), so
        equal seeds give identical runs.

    Returns
    -------
    PowerResult
        The Rayleigh quotient of the Lanczos vector, the number of K
        applications (one more than Lanczos made), converged=True, and the
        backward error eta of the pair (module docstring), which costs one
        K apply, one M apply and one M solve.

    Raises
    ------
    NumericalFailure
        When Lanczos does not converge within max_iter cycles, or eta is
        above ETA_BOUND.
    """
    if n < 2:
        raise ValueError(f"Lanczos needs at least 2 unknowns, got {n}; use full_spectrum")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    k_applies = 0

    def counted_K(v):
        nonlocal k_applies
        k_applies += 1
        return apply_K(v)

    u = _lanczos(counted_K, solve_M, apply_M, start_data((n,), seed), tol, max_iter)
    ku, mu = counted_K(u), apply_M(u)
    value = float(u @ ku / (u @ mu))
    r = ku - value * mu
    eta = _backward_error(value, math.sqrt(max(r @ solve_M(r), 0.0)), math.sqrt(u @ mu))
    return PowerResult(value=value, iterations=k_applies, converged=True, residual=eta)
