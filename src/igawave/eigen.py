"""Generalized symmetric eigensolvers for the pair (K, M).

Three routes: a dense LAPACK solve of the whole spectrum for small systems
(the oracle), a banded LAPACK solve of the top eigenvalue alone with no
size limit, and a matrix-free route for the largest eigenvalue.  They must
agree; the test suite leans on that.

The banded route is LAPACK's dsbgvx on the upper band arrays: Crawford's
split-Cholesky reduction of the banded pair to a standard banded problem,
tridiagonalization, and bisection for the one eigenvalue asked for.  It
costs O(n^2 p) time and O(n p) memory and never forms an n x n matrix.
scipy does not wrap dsbgvx in scipy.linalg.lapack, so it is called through
the function pointer that scipy.linalg.cython_lapack exports.

The matrix-free route is scipy's implicitly restarted Lanczos (ARPACK) on
LinearOperators built from the caller's callables.  Penalized spectra end
in a near-degenerate pair (one pinned mode per boundary), which stalls
power iteration but not a Krylov method.  A few sweeps u <- M^-1 K u then
bring the residual of the returned vector under its target; a run that
cannot get there raises NumericalFailure rather than returning a value.
"""

import ctypes
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack, eigh

__all__ = [
    "NumericalFailure",
    "SpectrumResult",
    "PowerResult",
    "full_spectrum",
    "top_eigenvalue",
    "max_eigenvalue",
]

DENSE_LIMIT = 2000


class NumericalFailure(RuntimeError):
    """A solver or eigensolver failed to converge."""


def _dense(a):
    if isinstance(a, np.ndarray):
        return a
    return a.to_dense()


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues plus the residual of the top pair."""

    eigenvalues: np.ndarray = field(repr=False)
    top_residual: float

    @property
    def frequencies(self):
        return np.sqrt(self.eigenvalues)

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
    Kd, Md = _dense(K), _dense(M)
    if Kd.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense route limited to {DENSE_LIMIT} unknowns, got {Kd.shape[0]}")
    vals, vecs = eigh(Kd, Md)
    u = vecs[:, -1]
    mu = Md @ u
    res = float(np.linalg.norm(Kd @ u - vals[-1] * mu) / np.linalg.norm(mu))
    return SpectrumResult(eigenvalues=vals, top_residual=res)


def _lapack_function(name, n_args):
    """ctypes handle on a routine exported by scipy.linalg.cython_lapack.

    Every argument is a pointer (Fortran calling convention).  A CFUNCTYPE
    call releases the GIL, so calls from pool threads run concurrently.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


_DSBGVX = _lapack_function("dsbgvx", 25)


def top_eigenvalue(K, M):
    """Largest eigenvalue of K u = lambda M u for banded symmetric K and SPD M.

    K and M are BandedSymMatrix objects (upper band storage).  One call to
    LAPACK dsbgvx computes that eigenvalue and no other: O(n^2 p) time,
    O(n p) memory, no dense copy and no size limit.

    Raises
    ------
    NumericalFailure
        When dsbgvx reports a non-zero INFO; INFO > n means M is not
        positive definite.
    """
    n = K.n
    if M.n != n:
        raise ValueError(f"dimension mismatch: K has {n} unknowns, M has {M.n}")
    ka, kb = max(K.bandwidth, M.bandwidth), M.bandwidth
    # dsbgvx needs KA >= KB and overwrites both bands: Fortran-order copies,
    # K padded with zero superdiagonals when M is the wider one.
    ab = np.zeros((ka + 1, n), order="F")
    ab[ka - K.bandwidth :] = K.ab
    bb = np.array(M.ab, dtype=float, order="F")
    w = np.empty(n)
    work = np.empty(7 * n)
    iwork = np.empty(5 * n, dtype=np.intc)
    ifail = np.empty(n, dtype=np.intc)
    unused = np.empty(1)  # Q and Z, not referenced with JOBZ='N'
    found, info = ctypes.c_int(0), ctypes.c_int(0)

    def char(v):
        return ctypes.byref(ctypes.c_char(v))

    def int_(v):
        return ctypes.byref(ctypes.c_int(v))

    def real(v):
        return ctypes.byref(ctypes.c_double(v))

    _DSBGVX(
        char(b"N"), char(b"I"), char(b"U"),  # JOBZ, RANGE, UPLO
        int_(n), int_(ka), int_(kb),
        ab.ctypes.data, int_(ka + 1), bb.ctypes.data, int_(kb + 1),
        unused.ctypes.data, int_(1),  # Q, LDQ
        real(0.0), real(0.0), int_(n), int_(n), real(0.0),  # VL, VU, IL, IU, ABSTOL
        ctypes.byref(found), w.ctypes.data, unused.ctypes.data, int_(1),  # M, W, Z, LDZ
        work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, ctypes.byref(info),
    )
    if info.value != 0:
        cause = " (M is not positive definite)" if info.value > n else ""
        raise NumericalFailure(f"dsbgvx failed with INFO={info.value}{cause}")
    if found.value != 1:
        raise NumericalFailure(f"dsbgvx returned {found.value} eigenvalues, expected 1")
    return float(w[0])


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
