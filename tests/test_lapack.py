"""The LAPACK binding: what importing the CLI loads, the fallback to
scipy.linalg.lapack, and the routines that replaced scipy.linalg's wrappers
giving the wrappers' bits and errors."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import igawave
import igawave.eigen as eigen
from igawave import _lapack
from igawave.assembly_1d import BandedSymMatrix
from igawave.eigen import NumericalFailure, full_spectrum, top_eigenvalue
from igawave.experiments import build_1d

ROUTINES = ("dpbtrf", "dpbtrs", "dsygvd")

# Prints the top eigenvalue and one mass solve at p=5, N=40, bit for bit.
BITS = """
import numpy as np
from igawave.eigen import top_eigenvalue
from igawave.experiments import build_1d
d = build_1d(5, 40)
x = d.Mt.factor()(np.arange(d.Mt.n, dtype=float))
print(top_eigenvalue(d.Kt, d.Mt).hex(), x.tobytes().hex())
"""


def bits():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(BITS, {})
    return out.getvalue().strip()


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(igawave.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_the_compiled_module_but_not_scipy_linalg():
    out = run_python(
        "import sys\n"
        "import igawave.cli\n"
        f"assert {_lapack.NAME!r} in sys.modules\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from igawave import _lapack\n"
        "import scipy.linalg.lapack as lapack\n"  # a later import reuses the module
        f"assert lapack._flapack is sys.modules[{_lapack.NAME!r}]\n"
        f"assert all(getattr(_lapack, f) is getattr(lapack, f) for f in {ROUTINES!r})\n"
        + BITS
    )
    assert out == bits()


def test_seeded_routes_load_no_scipy_sparse_scipy_linalg_or_numpy_random():
    # The two max_eigenvalue requests of the benchmark's eigen workload, the
    # dense reference each is checked against, top_eigenvalue and a short
    # free run: every route that starts from seeded data.
    run_python(
        "import sys\n"
        "from igawave.eigen import full_spectrum, max_eigenvalue, top_eigenvalue\n"
        "from igawave.experiments import build_1d, free_run\n"
        "from igawave.tensor_ops import build_tensor_operators, kron_mass_factor\n"
        "d = build_1d(5, 40)\n"
        "res = max_eigenvalue(d.Kt.matvec, d.Mt.factor(), d.Kt.n, apply_M=d.Mt.matvec)\n"
        "assert abs(res.value / full_spectrum(d.Kt, d.Mt).max - 1) < 1e-8\n"
        "assert abs(top_eigenvalue(d.Kt, d.Mt) / res.value - 1) < 1e-8\n"
        "run, _ = free_run(6, 40, 1.0, 0.9, 10)\n"
        "assert run.steps_completed == 10 and not run.blew_up\n"
        "d = build_1d(3, 8)\n"
        "mass, stiff = build_tensor_operators([(d.M, d.K), (d.M, d.K)])\n"
        "res = max_eigenvalue(stiff.matvec, kron_mass_factor(mass), mass.total_dim,\n"
        "                     apply_M=mass.matvec)\n"
        "assert abs(res.value / full_spectrum(stiff.to_dense(), mass.to_dense()).max - 1) < 1e-8\n"
        f"assert {_lapack.NAME!r} in sys.modules\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse'\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg'\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random'\n"
    )


def test_fallback_to_scipy_linalg_when_the_file_is_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match="no compiled _flapack module"):
        _lapack._flapack_path()
    monkeypatch.delitem(sys.modules, _lapack.NAME)
    module = _lapack._load()
    assert module is scipy.linalg.lapack
    for name in ROUTINES:
        assert getattr(module, name) is getattr(_lapack, name)


def test_fallback_in_a_fresh_interpreter_gives_the_same_bits(tmp_path):
    out = run_python(
        "import scipy\n"
        f"scipy.__file__ = {str(tmp_path / '__init__.py')!r}\n"
        "from igawave import _lapack\n"
        "import scipy.linalg.lapack as lapack\n"
        "assert _lapack._flapack is lapack\n"
        + BITS
    )
    assert out == bits()


spd_entries = st.floats(-1.0, 1.0, allow_nan=False)
matrices = st.lists(spd_entries, min_size=9, max_size=9).map(lambda v: np.reshape(v, (3, 3)))


@settings(max_examples=200, deadline=None)
@given(matrices, matrices, st.floats(1e-3, 10.0))
def test_eigh_is_scipy_eigh_bit_for_bit(a, g, shift):
    A, B = a + a.T, g @ g.T + shift * np.eye(3)
    w, V = eigen._eigh(A, B)
    want_w, want_V = scipy.linalg.eigh(A, B)
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(V, want_V)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_ritz_vectors_of_the_pairs_top_eigenvalue_forms(monkeypatch, p):
    pairs = []

    def recorded(A, B):
        pairs.append((A, B, eigh(A, B)))
        return pairs[-1][2]

    eigh = eigen._eigh
    monkeypatch.setattr(eigen, "_eigh", recorded)
    d = build_1d(p, 40)
    top_eigenvalue(d.Kt, d.Mt)
    assert len(pairs) >= 2
    for A, B, (w, V) in pairs:
        want_w, want_V = scipy.linalg.eigh(A, B)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(V, want_V)


def test_eigh_rejects_an_indefinite_or_non_finite_pair():
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NumericalFailure, match="INFO=5"):  # n + 2: order-2 minor of B
        eigen._eigh(A, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigen._eigh(A, np.diag([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("p", range(1, 8))
def test_full_spectrum_is_scipy_eigh_bit_for_bit(p):
    for N in (2, 5, 20, 80):
        for kappa in ("one", "exp"):
            d = build_1d(p, N, kappa)
            for K, M in ((d.K, d.M), (d.Kt, d.Mt)):
                want = scipy.linalg.eigh(K.to_dense(), M.to_dense())[0]
                assert full_spectrum(K, M).eigenvalues.tobytes() == want.tobytes()


def test_full_spectrum_of_an_indefinite_mass_is_a_numerical_failure():
    with pytest.raises(NumericalFailure, match="INFO=5"):
        full_spectrum(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -1.0, 1.0]))


def test_factor_rejects_a_non_finite_band():
    ab = np.vstack([np.full(5, -1.0), np.full(5, 4.0)])
    ab[1, 2] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        BandedSymMatrix(ab).factor()


def test_factor_of_an_indefinite_matrix_is_a_numerical_failure():
    ab = np.vstack([np.full(5, -1.0), np.array([4.0, 4.0, 0.2, 4.0, 4.0])])
    with pytest.raises(NumericalFailure, match="leading minor of order 3"):
        BandedSymMatrix(ab).factor()
