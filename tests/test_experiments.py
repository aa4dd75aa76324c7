"""Study drivers: rows from the forked workers equal the serial rows, the
dispatcher keeps its contract, and the library entry points reject counts
and times no run can take."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import igawave
from igawave import experiments as ex

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, not a hang, if the block runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_process_map_runs_closures_in_forked_workers():
    offset = 10  # a closure cannot be pickled; the workers inherit it

    def cell(item):
        return item + offset, os.getpid()

    out = ex._process_map(cell, [1, 2, 3, 4], 2)
    assert [v for v, _ in out] == [11, 12, 13, 14]
    assert os.getpid() not in {pid for _, pid in out}


@needs_fork
def test_a_worker_killed_by_a_signal_raises_promptly():
    parent = os.getpid()

    def cell(item):
        if item == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with deadline(20), pytest.raises(RuntimeError, match="SIGKILL while running cell 2"):
        ex._process_map(cell, [0, 1, 2, 3], 2)
    assert_no_child_left()


@needs_fork
def test_the_lowest_failing_cell_raises_as_in_the_serial_map():
    def cell(item):
        if item == 1:
            raise ValueError("cell 1")
        if item == 3:
            raise KeyError("cell 3")  # runs first: the dispatch goes from the last item down
        return item

    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="cell 1"):
            ex._process_map(cell, list(range(5)), workers)


@needs_fork
def test_the_largest_cells_start_first(tmp_path):
    log = tmp_path / "started"

    def cell(item):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b"%d\n" % item)
        os.close(fd)
        end = time.monotonic() + 5.0  # hold until both workers have started a cell
        while len(log.read_bytes().split()) < 2 and time.monotonic() < end:
            time.sleep(0.001)
        return item

    assert ex._process_map(cell, list(range(6)), 2) == list(range(6))
    started = [int(s) for s in log.read_text().split()]
    assert sorted(started[:2]) == [4, 5]
    assert sorted(started) == list(range(6))


@needs_fork
def test_no_worker_is_left_after_success_or_failure():
    items = list(range(-40, 0))  # more workers than a small machine has cores
    assert ex._process_map(abs, items, 5) == [abs(i) for i in items]
    assert_no_child_left()
    with pytest.raises(ZeroDivisionError):
        ex._process_map(lambda x: 1 / x, [1, 0, 2], 2)
    assert_no_child_left()


@needs_fork
def test_a_row_larger_than_a_pipe_buffer_comes_back_whole_and_in_order():
    size = 256 * 1024  # a Linux pipe holds 64 KiB

    def cell(item):
        return bytes([item]) * size

    with deadline(20):
        rows = ex._process_map(cell, list(range(5)), 2)
    assert rows == [bytes([i]) * size for i in range(5)]
    assert_no_child_left()


@needs_fork
def test_a_row_that_cannot_be_pickled_ends_its_worker_with_status_1():
    def cell(item):
        return (lambda: item) if item == 1 else item

    with deadline(20), pytest.raises(RuntimeError, match="died with status 1 while running cell 1"):
        ex._process_map(cell, [0, 1, 2], 2)
    assert_no_child_left()


@needs_fork
def test_an_interrupt_kills_and_reaps_the_workers():
    parent = os.getpid()

    def cell(item):
        if item == 0:
            os.kill(parent, signal.SIGINT)
        time.sleep(30)

    # A shell starts a background job with SIGINT ignored; the interrupt
    # must reach this process however pytest was launched.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        start = time.monotonic()
        with deadline(20), pytest.raises(KeyboardInterrupt):
            ex._process_map(cell, [0, 1], 2)
        assert time.monotonic() - start < 10
        assert_no_child_left()
    finally:
        signal.signal(signal.SIGINT, previous)


def test_pooled_studies_load_no_multiprocessing(tmp_path):
    code = f"""
import sys
from igawave.cli import main
for argv in (["spectrum"], ["convergence", "--dim", "2"]):
    assert main(argv + ["--workers", "2", "--out", {str(tmp_path / "out.csv")!r}]) == 0
print("multiprocessing" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(igawave.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
    ("spectrum_table", {"degrees": [3], "elements": [10, 10]}, "elements"),
    ("spectrum_table", {"degrees": [3, 3], "elements": [10]}, "degrees"),
    ("spectrum_table", {"degrees": [3, 16], "elements": [10]}, "degrees"),
    ("stability_region", {"p": 16}, "degrees"),
    ("solve_mms", {"p": 14}, "degrees"),
    ("convergence_time", {"steps_list": [10, 20], "p": 14}, "degrees"),
    ("free_run", {"p": 16, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 1}, "degrees"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.0, "n_steps": 20}, "tau_factor"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": -1.0, "n_steps": 20}, "tau_factor"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": float("nan"), "n_steps": 20},
     "tau_factor"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 0}, "n_steps"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.5, "tau_factor": 0.5, "n_steps": 20}, "rho"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 5, "seed": None},
     "seed"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 5, "seed": 1.5},
     "seed"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 5, "seed": True},
     "seed"),
    ("free_run", {"p": 3, "N": 10, "rho": 1.0, "tau_factor": 0.5, "n_steps": 5, "seed": -1},
     "seed"),
    ("spectrum_table", {"degrees": [3], "elements": [10], "penalty": "yes"}, "penalty"),
])
def test_run_arguments_checked_before_any_work(study, kwargs, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        getattr(ex, study)(**kwargs)


def test_free_run_checks_its_seed_before_assembly(monkeypatch):
    def build_1d(*args, **kwargs):
        raise AssertionError("assembly ran before the seed was checked")

    monkeypatch.setattr(ex, "build_1d", build_1d)
    with pytest.raises(ValueError, match="^seed must"):
        ex.free_run(3, 10, 1.0, 0.5, 5, seed=None)


def test_free_run_is_reproducible():
    a, tau_a = ex.free_run(3, 10, 1.0, 0.5, 5, seed=11)
    b, tau_b = ex.free_run(3, 10, 1.0, 0.5, 5, seed=11)
    c, _ = ex.free_run(3, 10, 1.0, 0.5, 5, seed=12)
    assert tau_a == tau_b
    assert a.final.u.tobytes() == b.final.u.tobytes()
    assert not np.array_equal(a.final.u, c.final.u)


BAD_RHO_RUNS = {
    "convergence_space": {"degrees": [3, 4], "elements": [20, 40], "workers": 2},
    "convergence_time": {"steps_list": [10, 20], "workers": 2},
    "solve_mms": {},
}


@pytest.mark.parametrize("study", BAD_RHO_RUNS)
def test_a_bad_rho_is_rejected_before_assembly(monkeypatch, study):
    def build_1d(*args, **kwargs):
        raise AssertionError("assembly ran before rho was checked")

    monkeypatch.setattr(ex, "build_1d", build_1d)
    with pytest.raises(ValueError, match="^rho must"):
        getattr(ex, study)(rho=1.5, **BAD_RHO_RUNS[study])


def test_spectrum_table_takes_the_unit_coefficient_object_in_2d():
    one = ex.kappa_variant("one")
    rows = ex.spectrum_table([3], [10], dim=2, kappa=one, workers=1)
    assert rows == ex.spectrum_table([3], [10], dim=2, workers=1)


def test_convergence_space_takes_the_unit_coefficient_object_in_2d():
    kwargs = dict(dim=2, T=0.05, n_steps=10, workers=1)
    rows = ex.convergence_space([3], [4, 6], kappa=ex.kappa_variant("one"), **kwargs)
    assert rows == ex.convergence_space([3], [4, 6], **kwargs)
