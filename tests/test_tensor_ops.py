"""Kronecker operators against dense np.kron oracles on small grids."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igawave
from igawave.assembly_1d import (
    WHOLE_MAX,
    BandedSymMatrix,
    assemble_mass,
    assemble_stiffness,
    kappa_variant,
)
from igawave.cli import main
from igawave.quadrature import gauss_legendre
from igawave.spline_basis import open_uniform_knots
from igawave.tensor_ops import KroneckerOperator, build_tensor_operators, kron_mass_factor

ONE = kappa_variant("one")


def axis_pair(p, N):
    kv = open_uniform_knots(p, N)
    rule = gauss_legendre(p + 1)
    return assemble_mass(kv, rule), assemble_stiffness(kv, rule, ONE)


def test_dense_oracle_2d():
    M1, K1 = axis_pair(3, 4)
    mass, stiff = build_tensor_operators([(M1, K1), (M1, K1)])
    m, k = M1.to_dense(), K1.to_dense()
    np.testing.assert_allclose(mass.to_dense(), np.kron(m, m), rtol=1e-14)
    np.testing.assert_allclose(
        stiff.to_dense(), np.kron(k, m) + np.kron(m, k), rtol=1e-14
    )
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.standard_normal(mass.total_dim)
        np.testing.assert_allclose(mass.matvec(x), np.kron(m, m) @ x, rtol=1e-12)
        np.testing.assert_allclose(
            stiff.matvec(x), (np.kron(k, m) + np.kron(m, k)) @ x, rtol=1e-12
        )


def test_dense_oracle_3d():
    M1, K1 = axis_pair(2, 3)
    mass, stiff = build_tensor_operators([(M1, K1)] * 3)
    m, k = M1.to_dense(), K1.to_dense()
    ref_mass = np.kron(np.kron(m, m), m)
    ref_stiff = (
        np.kron(np.kron(k, m), m)
        + np.kron(np.kron(m, k), m)
        + np.kron(np.kron(m, m), k)
    )
    rng = np.random.default_rng(2)
    x = rng.standard_normal(mass.total_dim)
    np.testing.assert_allclose(mass.matvec(x), ref_mass @ x, rtol=1e-12)
    np.testing.assert_allclose(stiff.matvec(x), ref_stiff @ x, rtol=1e-12)


def test_mixed_axes():
    """Different degrees and element counts per axis must line up."""
    Mx, Kx = axis_pair(3, 5)
    My, Ky = axis_pair(2, 4)
    mass, stiff = build_tensor_operators([(Mx, Kx), (My, Ky)])
    assert mass.dims == (6, 4)
    ref = np.kron(Kx.to_dense(), My.to_dense()) + np.kron(Mx.to_dense(), Ky.to_dense())
    rng = np.random.default_rng(8)
    x = rng.standard_normal(24)
    np.testing.assert_allclose(stiff.matvec(x), ref @ x, rtol=1e-12)


def test_mass_solve_round_trip():
    for pairs in ([axis_pair(3, 4)] * 2, [axis_pair(2, 3)] * 3):
        mass, _ = build_tensor_operators(pairs)
        solve = kron_mass_factor(mass)
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = rng.standard_normal(mass.total_dim)
            np.testing.assert_allclose(solve(mass.matvec(x)), x, atol=1e-10)


def test_mass_solve_against_dense():
    mass, _ = build_tensor_operators([axis_pair(3, 4), axis_pair(3, 4)])
    rng = np.random.default_rng(4)
    b = rng.standard_normal(mass.total_dim)
    ref = np.linalg.solve(mass.to_dense(), b)
    solve = kron_mass_factor(mass)
    np.testing.assert_allclose(solve(b), ref, rtol=1e-10)
    # a second call reuses the same factorization
    np.testing.assert_allclose(solve(b), ref, rtol=1e-10)


def test_spectral_additivity():
    """Eigenvalues of the tensor pair are pairwise sums of 1D eigenvalues."""
    from scipy.linalg import eigh

    M1, K1 = axis_pair(3, 4)
    mass, stiff = build_tensor_operators([(M1, K1), (M1, K1)])
    lam1 = eigh(K1.to_dense(), M1.to_dense(), eigvals_only=True)
    lam2 = eigh(stiff.to_dense(), mass.to_dense(), eigvals_only=True)
    sums = np.sort(np.add.outer(lam1, lam1).ravel())
    np.testing.assert_allclose(lam2, sums, rtol=1e-10)


def test_stiffness_solve_refused():
    mass, stiff = build_tensor_operators([axis_pair(2, 3), axis_pair(2, 3)])
    with pytest.raises(ValueError):
        kron_mass_factor(stiff)


def test_validation():
    M1, K1 = axis_pair(2, 3)
    with pytest.raises(ValueError):
        build_tensor_operators([(M1, K1)])
    with pytest.raises(ValueError):
        build_tensor_operators([(M1, K1)] * 4)
    M2, K2 = axis_pair(2, 4)
    with pytest.raises(ValueError):
        KroneckerOperator([(M1, M1), (M2, M2)])
    with pytest.raises(ValueError):
        KroneckerOperator([])
    mass, _ = build_tensor_operators([(M1, K1), (M1, K1)])
    with pytest.raises(ValueError):
        mass.matvec(np.zeros(5))


def tensordot_apply(op, x):
    """The per-axis sweep written with np.tensordot and np.moveaxis."""
    X = x.reshape(op.dims)
    out = np.zeros_like(X)
    for term in op.terms:
        Y = X
        for axis, f in enumerate(term):
            Y = np.moveaxis(np.tensordot(f.to_dense(), Y, axes=(1, axis)), 0, axis)
        out += Y
    return out.reshape(-1)


def moveaxis_solve(mass, b):
    X = b.reshape(mass.dims)
    for axis, f in enumerate(mass.terms[0]):
        moved = np.moveaxis(X, axis, 0)
        flat = f.factor()(moved.reshape(moved.shape[0], -1))
        X = np.moveaxis(flat.reshape(moved.shape), 0, axis)
    return X.reshape(-1)


def absolute(op):
    """The operator with every factor entry replaced by its absolute value."""
    return KroneckerOperator([[BandedSymMatrix(np.abs(f.ab)) for f in t] for t in op.terms])


@pytest.mark.parametrize("d, N", [(2, 4), (2, 9), (3, 3), (2, 16), (2, 33), (2, 64), (2, 130),
                                  (3, 6), (3, 20)])
@pytest.mark.parametrize("p", range(1, 8))
def test_apply_and_solve_match_the_tensordot_route_exactly(p, N, d):
    """Up to WHOLE_MAX unknowns per axis an axis apply is the dense product
    itself.  Above it the band windows sum differently from one dense
    matrix product, whose own sums move with the BLAS thread count; there
    the apply is held within 2 eps of ((|A| (x) |B|) |x|)."""
    Mx, Kx = axis_pair(p, N)
    My, Ky = axis_pair(p, N + 1)
    mass, stiff = build_tensor_operators([(Mx, Kx), (My, Ky), (Mx, Kx)][:d])
    x = np.random.default_rng(p).standard_normal(mass.total_dim)
    for op in (mass, stiff):
        got, want = op.matvec(x), tensordot_apply(op, x)
        if max(op.dims) <= WHOLE_MAX:
            np.testing.assert_array_equal(got, want)
        else:
            scale = tensordot_apply(absolute(op), np.abs(x))
            assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * scale)
    np.testing.assert_array_equal(kron_mass_factor(mass)(x), moveaxis_solve(mass, x))


@pytest.mark.parametrize("argv", [["solve", "--dim", "2"], ["convergence", "--dim", "2"]],
                         ids=["solve", "convergence"])
def test_two_dimensional_runs_build_no_dense_view(argv, tmp_path, monkeypatch):
    """The Kronecker operators apply their factors on the band; a dense
    view raises here, in this process and in the forked cell workers."""

    def refuse(self):
        raise AssertionError("BandedSymMatrix.to_dense called")

    monkeypatch.setattr(BandedSymMatrix, "to_dense", refuse)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0


# Axes of 133 unknowns, above WHOLE_MAX, where a dense matrix
# product splits its work across BLAS threads.
THREAD_RUNS = (
    ["solve", "--dim", "2", "--elements", "130", "--steps", "200", "--final-time", "0.1",
     "--stride", "50"],
    ["convergence", "--dim", "2", "--degrees", "5", "--elements", "8,130", "--steps", "400",
     "--final-time", "0.1"],
)


@pytest.mark.parametrize("argv", THREAD_RUNS, ids=["solve", "convergence"])
def test_two_dimensional_output_does_not_depend_on_the_blas_thread_count(argv, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(igawave.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}.csv"
        subprocess.run([sys.executable, "-m", "igawave.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
