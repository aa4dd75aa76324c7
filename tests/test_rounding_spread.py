"""Which digits of a run's error are real: the one-ulp spread (ROADMAP item 15).

Nudging the start coefficients u0 by one ulp in random entries and
rerunning moves the final l2 error by the run's rounding noise.  A change
to the stepping arithmetic that moves an error column by less than this
spread is indistinguishable from that noise.
"""

import numpy as np
import pytest

from igawave.experiments import _setup
from igawave.integrator import initial_state, integrate, params_from_rho


def one_ulp_spread(dim, p, N, n_steps, penalized, T=1.0, rho=1.0, seeds=range(5)):
    """Largest relative change of the final l2 error of the manufactured run
    when about half of u0's entries, picked at random per seed, move one ulp
    up or down."""
    accel, state0, l2, _ = _setup(dim, p, N, "one", penalized, 1.0, 1.0, "project")
    params = params_from_rho(rho)

    def final_l2(u0):
        res = integrate(initial_state(accel, u0, state0.v), accel, T / n_steps, n_steps, params)
        assert not res.blew_up
        return l2(res.final.u, T)

    u0 = state0.u
    base = final_l2(u0)
    changes = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        toward = rng.choice([-np.inf, np.inf], u0.size)
        nudged = np.where(rng.random(u0.size) < 0.5, np.nextafter(u0, toward), u0)
        changes.append(abs(final_l2(nudged) - base) / base)
    return max(changes)


@pytest.mark.parametrize("dim, p, N, n_steps", [(1, 5, 40, 1000), (1, 7, 20, 4000),
                                                (2, 3, 8, 100)])
def test_standard_pair_spread_stays_below_1e_6(dim, p, N, n_steps):
    """The standard pair's final l2 keeps at least six digits: 1D p=5 (the
    `solve` default mesh and steps) and p=7, and a `convergence --dim 2`
    cell."""
    assert one_ulp_spread(dim, p, N, n_steps, penalized=False) < 1e-6
