"""Explicit generalized-alpha time stepping and its stability analysis.

Cost model: one mass solve per step is the whole cost of the scheme.  A
step of `integrate` is one load evaluation, one stiffness apply, one banded
(or per-axis) mass solve and a fixed handful of in-place vector updates on
buffers allocated once per run, plus a max-abs scan for blow-up; nothing
else grows with the number of steps.  On small meshes the fixed cost of a
dozen numpy calls outweighs the solve and the apply; at n = 1003 the
stiffness apply, one stacked BLAS product over 16-row windows of the band,
costs about 0.7 banded solves (15 against 22 us, minima), where a dense
apply cost 14.
`benchmarks/test_layers.py` times both sizes.  `step` is the allocating
single-step reference that `integrate` reproduces bit for bit.

The update family is parametrized by rho in [0, 1], which controls
high-frequency dissipation; rho = 1 conserves, rho = 0 damps the most.

The velocity update applies tau * gamma to the acceleration jump.  With the
quadratic-in-tau form some references print instead, the scheme drops to
first order and the rho = 1 stability bound "tau * omega <= 2" no longer
comes out; the linear-in-tau form reproduces both the bound and the
second-order convergence measured in the tests.

The critical step is tau_c = C_rho / omega_max, where C_rho is the largest
Omega = tau * omega at which the scalar amplification matrix has spectral
radius at most 1.  There lambda = -1 enters its spectrum: the characteristic
polynomial at -1 is linear in Omega^2, with root 2 (2 alpha_m - 1) /
(2 beta - gamma).  Along params_from_rho a factor (1 - rho) cancels, which
leaves C_rho^2 = 12 (2 - rho)(1 + rho) / (rho^2 - 5 rho + 10), finite at
rho = 1 where the unreduced form is 0/0: C_1 = 2 exactly, C_0 = sqrt(2.4),
C_0.5 = sqrt(108/31).  lambda = -1 is an exact eigenvalue along the rho = 1
family and at every critical point, where naive cubic root-finding is good
to only about cbrt(eps); spectral_radius, the oracle the tests hold C_rho
against, deflates that root when present.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlphaParams",
    "DynamicState",
    "IntegrationResult",
    "params_from_rho",
    "initial_state",
    "step",
    "integrate",
    "amplification_matrix",
    "spectral_radius",
    "critical_omega",
]

BLOWUP_FACTOR = 1.0e6


@dataclass(frozen=True)
class AlphaParams:
    rho: float
    alpha_m: float
    gamma: float
    beta: float


@dataclass(frozen=True)
class DynamicState:
    """Displacement, velocity and acceleration coefficients at time t."""

    t: float
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class IntegrationResult:
    final: DynamicState
    max_abs_u: float
    blew_up: bool
    steps_completed: int


def params_from_rho(rho):
    """Integrator coefficients for a dissipation parameter rho in [0, 1]."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    alpha_m = (2.0 - rho) / (rho + 1.0)
    gamma = 0.5 + alpha_m
    beta = (3.0 * rho - 5.0) / ((rho - 2.0) * (rho + 1.0) ** 2)
    return AlphaParams(rho=rho, alpha_m=alpha_m, gamma=gamma, beta=beta)


def initial_state(solve_M, apply_K, f0, u0, v0):
    """Consistent start: solve M a0 = f0 - K u0 and stamp t = 0."""
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a0 = solve_M(f0 - apply_K(u0))
    return DynamicState(t=0.0, u=u0, v=v0, a=a0)


def step(state, solve_M, apply_K, load, tau, params):
    """Advance one step of size tau; exactly one mass solve.

    `load` maps a time to the assembled force vector at that time; the
    explicit scheme reads it at the step's start.
    """
    am, g, b = params.alpha_m, params.gamma, params.beta
    a_mid = solve_M(load(state.t) - apply_K(state.u))
    da = (a_mid - state.a) / am
    u1 = state.u + tau * state.v + 0.5 * tau**2 * state.a + tau**2 * b * da
    v1 = state.v + tau * state.a + tau * g * da
    a1 = state.a + da
    return DynamicState(t=state.t + tau, u=u1, v=v1, a=a1)


def integrate(state0, solve_M, apply_K, load, tau, n_steps, params, callback=None):
    """March n_steps of size tau with blow-up monitoring.

    The run stops early once ||u||_inf exceeds 1e6 * ||u0||_inf + 1e6 or a
    non-finite entry appears; the result carries the stopping step.  An
    optional callback(i, state) observes every completed step through a
    snapshot that later steps leave alone.  state0 is never modified.

    The loop updates u, v and a in place with the same operations, in the
    same order and association, as `step`, so both give identical bits.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if n_steps < 1:
        raise ValueError("need at least one step")
    uv = np.array([state0.u, state0.v], dtype=float)
    u, v = uv  # row views: one ufunc call updates both
    a = np.array(state0.a, dtype=float)
    if not (np.isfinite(uv).all() and np.isfinite(a).all()):
        raise ValueError("initial state must be finite")
    am, g, b = params.alpha_m, params.gamma, params.beta
    # The scalar factors of step's products, folded the way step evaluates
    # them: u gets (tau^2/2) a and (tau^2 b) da, v gets tau a and (tau g) da.
    coef_a = np.array([[0.5 * tau**2], [tau]])
    coef_da = np.array([[tau**2 * b], [tau * g]])
    rhs = np.empty_like(u)
    da = np.empty_like(a)
    work = np.empty_like(u)
    work2 = np.empty_like(uv)
    t = state0.t
    peak = float(np.abs(u).max())
    threshold = BLOWUP_FACTOR * peak + BLOWUP_FACTOR
    for i in range(1, n_steps + 1):
        np.subtract(load(t), apply_K(u), rhs)
        np.subtract(solve_M(rhs), a, da)
        da /= am
        # Left to right, as in step: u + tau v + (tau^2/2) a + (tau^2 b) da
        # and v + tau a + (tau g) da, each v term read before v changes.
        u += np.multiply(v, tau, work)
        uv += np.multiply(a, coef_a, work2)
        uv += np.multiply(da, coef_da, work2)
        a += da
        t = t + tau
        m = float(np.abs(u, work).max())
        if not m <= threshold:  # also true for NaN; threshold is finite
            return IntegrationResult(final=DynamicState(t=t, u=u, v=v, a=a), max_abs_u=m,
                                     blew_up=True, steps_completed=i)
        peak = max(peak, m)
        if callback is not None:
            callback(i, DynamicState(t=t, u=u.copy(), v=v.copy(), a=a.copy()))
    return IntegrationResult(final=DynamicState(t=t, u=u, v=v, a=a), max_abs_u=peak,
                             blew_up=False, steps_completed=n_steps)


def amplification_matrix(omega_bar, params):
    """One-step map of (u, tau v, tau^2 a) for the scalar test equation.

    omega_bar is the product tau * omega of step size and natural frequency.
    """
    if omega_bar < 0:
        raise ValueError("omega_bar must be non-negative")
    am, g, b = params.alpha_m, params.gamma, params.beta
    w2 = omega_bar**2
    return np.array(
        [
            [1.0 - b * w2 / am, 1.0, 0.5 - b / am],
            [-g * w2 / am, 1.0, 1.0 - g / am],
            [-w2 / am, 0.0, 1.0 - 1.0 / am],
        ]
    )


def spectral_radius(G):
    """Largest root magnitude of the 3x3 characteristic polynomial.

    Deflates an (almost) exact root at -1 before falling back to the
    companion solve: the critical points of interest have -1 in the
    spectrum, and the deflation keeps this oracle for critical_omega
    accurate where -1 is a root.
    """
    c2 = G[0, 0] + G[1, 1] + G[2, 2]
    c1 = (
        G[0, 0] * G[1, 1]
        - G[0, 1] * G[1, 0]
        + G[0, 0] * G[2, 2]
        - G[0, 2] * G[2, 0]
        + G[1, 1] * G[2, 2]
        - G[1, 2] * G[2, 1]
    )
    c0 = float(np.linalg.det(G))
    # p(lambda) = lambda^3 - c2 lambda^2 + c1 lambda - c0
    scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
    p_minus1 = -(1.0 + c2 + c1 + c0)
    if abs(p_minus1) <= 1e-13 * scale:
        # p = (lambda + 1)(lambda^2 + b lambda + c) with c from the product
        # of roots, so the quadratic is solved without cancellation.
        b = -1.0 - c2
        c = -c0
        disc = b * b - 4.0 * c
        if disc <= 0.0:
            quad = np.sqrt(max(c, 0.0))
        else:
            r1 = -0.5 * (b + np.copysign(np.sqrt(disc), b))
            r2 = c / r1 if r1 != 0.0 else 0.0
            quad = max(abs(r1), abs(r2))
        return max(1.0, quad)
    roots = np.roots([1.0, -c2, c1, -c0])
    return float(np.max(np.abs(roots)))


def critical_omega(params):
    """Largest Omega = tau * omega with spectral radius at most 1, in closed form."""
    rho = params.rho
    return math.sqrt(12.0 * (2.0 - rho) * (1.0 + rho) / (rho * rho - 5.0 * rho + 10.0))
