"""Tests of the benchmark's span recorder and output checks.

    python3 -m pytest bench
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import igawave  # noqa: E402
import igawave.assembly_1d  # noqa: E402
import igawave.tensor_ops  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _set_times(rec, times):
    """Overwrite the main thread's span times, in opening order."""
    buf = rec.buffer()
    for i, (start, end) in enumerate(times):
        buf.start[i], buf.end[i] = start, end


def test_nested_spans_parents_and_self_time():
    rec = tracer.Recorder()
    rec.request = 7
    with rec.span("request.x"):
        with rec.span("integrator.step"):
            with rec.span("assembly_1d.matvec"):
                pass
            with rec.span("assembly_1d.solve"):
                pass
        with rec.span("integrator.step"):
            with rec.span("assembly_1d.solve"):
                pass
    _set_times(rec, [(0.0, 10.0), (1.0, 5.0), (1.5, 2.5), (3.0, 4.0), (6.0, 9.0), (6.5, 8.5)])
    cols = rec.columns()
    names = [rec.names[i] for i in cols["name"]]
    assert names == ["request.x", "integrator.step", "assembly_1d.matvec",
                     "assembly_1d.solve", "integrator.step", "assembly_1d.solve"]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 0, 4]
    assert set(cols["request"].tolist()) == {7}
    dur, self_t = tracer.span_stats(cols)
    assert self_t.tolist() == [10.0 - 4.0 - 3.0, 4.0 - 1.0 - 1.0, 1.0, 1.0, 3.0 - 2.0, 2.0]

    m = tracer.layer_metrics(rec, rounds=1)
    assert m["integrator.step.self_s"] == pytest.approx(3.0)
    assert m["assembly_1d.solve.calls"] == 2
    assert m["integrator.msolve_share"] == pytest.approx(3.0 / 7.0)
    assert m["integrator.kapply_share"] == pytest.approx(1.0 / 7.0)
    assert m["experiments.concurrency"] == pytest.approx(1.0)


def test_worker_thread_spans_are_roots_of_the_same_request():
    rec = tracer.Recorder()
    rec.request = 3

    def cell():
        with rec.span("experiments.cell"):
            pass

    with rec.span("request.x"):
        with rec.span("experiments._pool_map"):
            workers = [threading.Thread(target=cell) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    main, *cells = rec._buffers
    assert main.is_main and len(cells) == 2
    main.start[0], main.end[0] = 0.0, 10.0
    main.start[1], main.end[1] = 2.0, 8.0
    for buf in cells:
        buf.start[0], buf.end[0] = 2.0, 8.0
    cols = rec.columns()
    is_cell = cols["name"] == rec.names.index("experiments.cell")
    assert cols["parent"][is_cell].tolist() == [-1, -1]
    assert cols["request"][is_cell].tolist() == [3, 3]
    assert not cols["main"][is_cell].any()
    assert len(set(cols["thread"].tolist())) == 3
    # 10 s of request, 6 s of it waiting on the pool, 2 x 6 s of cells
    m = tracer.layer_metrics(rec, rounds=1)
    assert m["experiments.concurrency"] == pytest.approx((10.0 - 6.0 + 12.0) / 10.0)


def _bindings():
    """Identity of every attribute of every igawave module and patched class."""
    mods = [m for k, m in sys.modules.items() if k == "igawave" or k.startswith("igawave.")]
    snap = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}
    for cls in (igawave.assembly_1d.BandedSymMatrix, igawave.tensor_ops.KroneckerOperator):
        snap.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    return snap


def test_install_wraps_consumer_bindings_and_closures_then_restores():
    import igawave.experiments as ex
    import igawave.mms_errors as mms

    before = _bindings()
    original_load = mms.assemble_load
    rec = tracer.Recorder()
    with tracer.install(rec) as missing:
        assert missing == []
        assert ex.assemble_load is not original_load
        assert mms.assemble_load is ex.assemble_load
        d = ex.build_1d(3, 4)
        solve = d.Mt.factor()
        solve(d.Kt.matvec(np.ones(d.Kt.n)))
        mass, _ = ex.build_tensor_operators([(d.M, d.K), (d.M, d.K)])
        ex.kron_mass_factor(mass)(np.ones(mass.total_dim))
    assert _bindings() == before
    names = {rec.names[i] for i in rec.columns()["name"]}
    assert {"experiments.build_1d", "assembly_1d.assemble_mass", "spline_basis.eval_basis_many",
            "assembly_1d.factor", "assembly_1d.solve", "assembly_1d.matvec",
            "tensor_ops.kron_mass_factor", "tensor_ops.solve"} <= names
    assert rec.counters()["assembly_1d.to_dense.calls"] >= 1


def test_install_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.install(tracer.Recorder()):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_compare_csv_flags_a_drifted_value(tmp_path):
    ref = workloads.REFERENCE / "convergence-2d.csv"
    assert workloads.compare_csv(ref, ref) == []
    lines = ref.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-5))
    lines[5] = ",".join(cells)
    drifted = tmp_path / "drifted.csv"
    drifted.write_text("\n".join(lines) + "\n")
    problems = workloads.compare_csv(drifted, ref)
    assert len(problems) == 1 and problems[0][1] is False
