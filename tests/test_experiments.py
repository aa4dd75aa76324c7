"""Study drivers: rows from the forked process pool equal the serial rows,
and the library entry points reject counts and times no run can take."""

import multiprocessing
import os

import pytest

from igawave import experiments as ex

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@needs_fork
def test_process_map_runs_closures_in_forked_workers():
    offset = 10  # a closure cannot be pickled; the workers inherit it

    def cell(item):
        return item + offset, os.getpid()

    out = ex._process_map(cell, [1, 2, 3, 4], 2)
    assert [v for v, _ in out] == [11, 12, 13, 14]
    assert os.getpid() not in {pid for _, pid in out}


@pytest.mark.parametrize("dim, elements, n_steps", [(1, [4, 8], 40), (2, [4, 6], 10)])
def test_space_study_rows_match_serial(dim, elements, n_steps):
    kwargs = dict(dim=dim, T=0.05, n_steps=n_steps)
    serial = ex.convergence_space([3, 4], elements, workers=1, **kwargs)
    assert ex.convergence_space([3, 4], elements, workers=2, **kwargs) == serial


def test_time_study_rows_match_serial():
    kwargs = dict(p=3, N=8, T=0.2, kappa="exp")
    serial = ex.convergence_time([20, 40, 80], workers=1, **kwargs)
    assert ex.convergence_time([20, 40, 80], workers=3, **kwargs) == serial


def test_spectrum_rows_match_serial():
    serial = ex.spectrum_table([3, 5], [10, 40], kappa="exp", workers=1)
    assert ex.spectrum_table([3, 5], [10, 40], kappa="exp", workers=2) == serial


@needs_fork
def test_eigensolver_failure_in_a_worker_reaches_the_caller(monkeypatch):
    import igawave.eigen

    monkeypatch.setattr(igawave.eigen, "SWEEPS", 1)  # inherited by the forked workers
    with pytest.raises(ex.NumericalFailure, match="did not settle"):
        ex.spectrum_table([3], [4, 8], workers=2)


def test_blow_up_in_a_worker_reaches_the_caller():
    with pytest.raises(ex.BlowupDetected, match="blew up"):
        ex.convergence_space([3], [4, 8], T=20.0, n_steps=20, workers=2)


@pytest.mark.parametrize("study, kwargs, argument", [
    ("solve_mms", {"stride": 0}, "stride"),
    ("solve_mms", {"n_steps": 0}, "n_steps"),
    ("convergence_time", {"steps_list": [0, 10]}, "steps_list"),
    ("solve_mms", {"T": -1.0}, "T"),
    ("solve_mms", {"T": float("nan")}, "T"),
    ("convergence_space", {"degrees": [3], "elements": [10, 10], "n_steps": 200}, "elements"),
    ("convergence_space", {"degrees": [3, 3], "elements": [5, 10], "n_steps": 200}, "degrees"),
    ("convergence_time", {"steps_list": [1000, 1000], "N": 20}, "steps_list"),
])
def test_run_arguments_checked_before_any_work(study, kwargs, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        getattr(ex, study)(**kwargs)
