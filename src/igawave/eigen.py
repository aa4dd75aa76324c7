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

The matrix-free route is scipy's implicitly restarted Lanczos (ARPACK) on
LinearOperators built from the caller's callables.  Penalized spectra end
in a near-degenerate pair (one pinned mode per boundary), which stalls
power iteration but not a Krylov method.  A few sweeps u <- M^-1 K u then
bring the residual of the returned vector under its target; a run that
cannot get there raises NumericalFailure rather than returning a value.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.linalg.lapack import dpbtrf, dpbtrs

__all__ = ["NumericalFailure", "SpectrumResult", "PowerResult", "full_spectrum",
           "top_eigenvalue", "max_eigenvalue"]

DENSE_LIMIT = 2000


class NumericalFailure(RuntimeError):
    """A solver or eigensolver failed to converge."""


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues plus the residual of the top pair."""

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


def full_spectrum(K, M):
    """All eigenvalues of K u = lambda M u by a dense symmetric solve.

    Accepts ndarrays or anything with a to_dense() method; refuses systems
    larger than 2000 unknowns, which top_eigenvalue or max_eigenvalue should
    handle.
    """
    Kd, Md = (a if isinstance(a, np.ndarray) else a.to_dense() for a in (K, M))
    if Kd.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense route limited to {DENSE_LIMIT} unknowns, got {Kd.shape[0]}")
    vals, vecs = eigh(Kd, Md)
    u = vecs[:, -1]
    mu = Md @ u
    res = float(np.linalg.norm(Kd @ u - vals[-1] * mu) / np.linalg.norm(mu))
    return SpectrumResult(eigenvalues=vals, top_residual=res)


BLOCK = 3  # shift-invert vectors: a near-degenerate top pair and one more
BRACKET = 1e-6  # relative width of the bisection's final bracket
SETTLE = 1e-12  # relative change between two sweeps that ends them
SWEEPS = 50  # 2-4 settle a well-conditioned pair
FACTORIZATIONS = 128  # a cap: a bracket around lambda_max = 0 never gets relatively narrow


def _band_rows(ab):
    """Entries (i, i-u) .. (i, i+u) of each row i of the upper band ab, 0 outside."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    rows = np.zeros((n, 2 * u + 1))
    for d in range(u + 1):
        rows[: n - d, u + d] = rows[d:, u - d] = ab[u - d, d:]  # (i, i+d) = (i+d, i)
    return rows


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
    kab, mab = np.zeros((u + 1, n), order="F"), np.zeros((u + 1, n), order="F")
    kab[u - K.bandwidth :] = K.ab
    mab[u - M.bandwidth :] = M.ab
    _, info = dpbtrf(mab)
    if info != 0:
        raise NumericalFailure(f"dpbtrf failed with INFO={n + info} (M is not positive definite)")
    factor = _shift_above(kab, mab)
    rows = np.stack([_band_rows(kab), _band_rows(mab)])
    rows_ext = rows.astype(np.longdouble)
    V = np.random.default_rng(0).standard_normal((n, min(BLOCK, n)))
    value = None
    for _ in range(SWEEPS):
        Q, _ = np.linalg.qr(dpbtrs(factor, V)[0])  # (sigma M - K)^-1 V, orthonormalized
        KQ, MQ = _band_apply(rows, Q)
        try:
            _, Y = eigh(Q.T @ KQ, Q.T @ MQ)
        except LinAlgError as err:
            raise NumericalFailure("Rayleigh-Ritz step failed") from err
        z = (Q @ Y[:, -1:]).astype(np.longdouble)
        kz, mz = _band_apply(rows_ext, z)[:, :, 0]
        last, value = value, (z[:, 0] @ kz) / (z[:, 0] @ mz)
        if last is not None and abs(value - last) <= SETTLE * abs(value):
            return float(value)
        V = MQ @ Y
    raise NumericalFailure(f"top eigenvalue did not settle to {SETTLE:.0e} in {SWEEPS} sweeps")


def max_eigenvalue(
    apply_K,
    solve_M,
    n,
    tol=1e-10,
    *,
    apply_M,
    max_iter=50_000,
    seed=42,
    residual_target=1e-6,
):
    """Largest generalized eigenvalue by Lanczos plus residual sweeps.

    Parameters
    ----------
    apply_K, apply_M : callables mapping a vector to K v, M v.
    solve_M : callable mapping b to the solution of M u = b.
    n : system dimension.
    tol : relative accuracy asked of the Lanczos Ritz value (ARPACK's tol).
    max_iter : budget for the ARPACK restarts and, separately, for the
        residual sweeps.
    seed : start-vector seed, fixed so repeated runs are identical.
    residual_target : bound the relative residual of the returned pair must
        meet.  The Ritz value is quadratically accurate in the eigenvector
        error, so on an ill-conditioned mass the Lanczos vector can miss
        this bound while its value is already right; sweeps
        u <- M^-1 K u then sharpen the vector at no cost to the value.

    Returns
    -------
    PowerResult
        The Rayleigh quotient of the returned vector, the number of K
        applications, converged=True, and the relative residual
        ||K u - lambda M u|| / ||M u|| of the pair.

    Raises
    ------
    NumericalFailure
        When ARPACK does not converge within max_iter restarts, or the
        residual is still above residual_target after max_iter sweeps.
    """
    if n < 2:
        raise ValueError(f"Lanczos needs at least 2 unknowns, got {n}; use full_spectrum")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if residual_target <= 0:
        raise ValueError("residual target must be positive")
    # Imported here: at module level it slows the CLI's start-up, which never calls this.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    k_applies = 0

    def counted_K(v):
        nonlocal k_applies
        k_applies += 1
        return apply_K(v)

    K, M, Minv = (
        LinearOperator((n, n), matvec=f, dtype=float) for f in (counted_K, apply_M, solve_M)
    )
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        _, vecs = eigsh(K, k=1, M=M, Minv=Minv, which="LA", v0=v0, tol=tol, maxiter=max_iter)
    except ArpackNoConvergence as err:
        raise NumericalFailure(f"Lanczos did not converge in {max_iter} restarts") from err
    u = vecs[:, 0]
    for _ in range(max_iter + 1):  # the Lanczos vector, then one per sweep
        ku, mu = counted_K(u), apply_M(u)
        value = float(u @ ku / (u @ mu))
        residual = float(np.linalg.norm(ku - value * mu) / np.linalg.norm(mu))
        if residual <= residual_target:
            return PowerResult(value=value, iterations=k_applies, converged=True, residual=residual)
        u = solve_M(ku)
        u /= np.linalg.norm(u)
    raise NumericalFailure(
        f"residual {residual:.2e} still above {residual_target:.2e} after {max_iter} sweeps"
    )
