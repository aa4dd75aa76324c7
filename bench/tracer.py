"""Outside-in span recorder for the igawave layers.

The recorder never touches the library's source.  `install` rebinds the
public functions of each layer to timing wrappers, in every igawave module
that holds them (consumer modules bind names with ``from .x import y``, so
patching the defining module alone would miss those calls), and patches the
operator methods on their classes.  The solve closures returned by
``BandedSymMatrix.factor`` and ``kron_mass_factor`` are wrapped as they are
handed out.  Leaving the ``with`` block restores every original binding.

Spans carry name, start, end, parent, thread and request id.  Each thread
appends to its own column buffers, so recording takes no lock; the parent
is the innermost open span of the same thread.  The request id is a single
process-wide value set by the caller: the benchmark keeps one request in
flight, so spans opened by pool threads belong to that request too.
"""

import contextlib
import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "igawave"


class _ThreadBuffer:
    """Span columns and counters of one thread."""

    def __init__(self, index, is_main):
        self.index = index
        self.is_main = is_main
        self.name = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.sums = {}
        self.peaks = {}


class Recorder:
    """In-memory store of spans and counters, one buffer per thread."""

    def __init__(self):
        self.request = -1
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def name_id(self, name):
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers), threading.current_thread() is self._main)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def open(self, nid):
        buf = self.buffer()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.request.append(self.request)
        buf.end.append(float("nan"))
        buf.stack.append(idx)
        buf.start.append(perf_counter())
        return buf, idx

    @staticmethod
    def close(buf, idx):
        buf.end[idx] = perf_counter()
        buf.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        buf, idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(buf, idx)

    def add(self, key, value):
        sums = self.buffer().sums
        sums[key] = sums.get(key, 0) + value

    def peak(self, key, value):
        peaks = self.buffer().peaks
        peaks[key] = max(peaks.get(key, value), value)

    def columns(self):
        """All spans as numpy columns with thread-local parents made global.

        Returns a dict of equal-length arrays: name (index into `names`),
        start, end, parent (row index, -1 for a root), thread, request and
        main (the span ran on the main thread).
        """
        cols = {k: [] for k in ("name", "start", "end", "parent", "thread", "request", "main")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.array(buf.parent, dtype=np.int64)
            parent[parent >= 0] += offset
            cols["name"].append(np.array(buf.name, dtype=np.int32))
            cols["start"].append(np.array(buf.start, dtype=float))
            cols["end"].append(np.array(buf.end, dtype=float))
            cols["parent"].append(parent)
            cols["thread"].append(np.full(n, buf.index, dtype=np.int32))
            cols["request"].append(np.array(buf.request, dtype=np.int64))
            cols["main"].append(np.full(n, buf.is_main, dtype=bool))
            offset += n
        return {k: np.concatenate(v) for k, v in cols.items()}

    def counters(self):
        """Counters summed (add) or maximized (peak) over all threads."""
        out = {}
        for buf in self._buffers:
            for k, v in buf.sums.items():
                out[k] = out.get(k, 0) + v
        for buf in self._buffers:
            for k, v in buf.peaks.items():
                out[k] = max(out.get(k, v), v)
        return out

    def save(self, path):
        """Write every span and the name table as a compressed npz file."""
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **cols)


def span_stats(cols):
    """Per-span duration and self time (duration minus direct children).

    Children are spans whose parent is the span; spans in other threads
    are never children, so a span waiting on a pool keeps that wait as
    self time.
    """
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    has_parent = cols["parent"] >= 0
    np.add.at(child, cols["parent"][has_parent], dur[has_parent])
    return dur, dur - child


# --- wrappers ----------------------------------------------------------------


def _traced(rec, name, fn, after=None):
    nid = rec.name_id(name)
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        buf, idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(buf, idx)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


def _counted(rec, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(key, 1)
        return fn(*args, **kwargs)

    return wrapper


def _returns_traced(rec, name, inner_name, fn):
    """Span around a factory plus a span around every closure it returns."""
    traced = _traced(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _traced(rec, inner_name, traced(*args, **kwargs))

    return wrapper


def _pool_map(rec, name, fn):
    """Span around the pool plus one 'experiments.cell' span per item."""
    traced = _traced(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(cell_fn, items, workers):
        return traced(_traced(rec, "experiments.cell", cell_fn), items, workers)

    return wrapper


def _count_points(rec, result):
    rec.add("spline_basis.eval_basis_many.points", len(result[0]))


def _count_spectrum(rec, result):
    rec.peak("eigen.full_spectrum.n_max", int(result.eigenvalues.size))


def _count_power(rec, result):
    rec.add("eigen.max_eigenvalue.iterations", int(result.iterations))
    rec.add("eigen.max_eigenvalue.converged", int(bool(result.converged)))


def _count_steps(rec, result):
    rec.add("integrator.integrate.steps", int(result.steps_completed))


def _span(after=None):
    return lambda rec, name, fn: _traced(rec, name, fn, after)


def _factory(inner):
    return lambda rec, name, fn: _returns_traced(rec, name, inner, fn)


# (module, function, wrapper maker); span name is "<module>.<function>".
FUNCTIONS = [
    ("spline_basis", "eval_basis_many", _span(_count_points)),
    ("assembly_1d", "assemble_mass", _span()),
    ("assembly_1d", "assemble_stiffness", _span()),
    ("assembly_1d", "assemble_load", _span()),
    ("assembly_1d", "assemble_penalty", _span()),
    ("tensor_ops", "kron_mass_factor", _factory("tensor_ops.solve")),
    ("eigen", "full_spectrum", _span(_count_spectrum)),
    ("eigen", "max_eigenvalue", _span(_count_power)),
    ("integrator", "initial_state", _span()),
    ("integrator", "step", _span()),
    ("integrator", "integrate", _span(_count_steps)),
    ("integrator", "critical_omega", _span()),
    ("mms_errors", "initial_coefficients", _span()),
    ("mms_errors", "l2_error", _span()),
    ("mms_errors", "h1_seminorm_error", _span()),
    ("mms_errors", "l2_error_2d", _span()),
    ("mms_errors", "h1_seminorm_error_2d", _span()),
    ("experiments", "build_1d", _span()),
    ("experiments", "spectrum_table", _span()),
    ("experiments", "convergence_space", _span()),
    ("experiments", "convergence_time", _span()),
    ("experiments", "stability_region", _span()),
    ("experiments", "solve_mms", _span()),
    ("experiments", "free_run", _span()),
    ("experiments", "write_csv", _span()),
    ("experiments", "_pool_map", _pool_map),
    ("cli", "main", _span()),
]

# (module, class, method, span or counter name, wrapper maker)
METHODS = [
    ("assembly_1d", "BandedSymMatrix", "matvec", "assembly_1d.matvec", _span()),
    ("assembly_1d", "BandedSymMatrix", "to_dense", "assembly_1d.to_dense.calls", _counted),
    ("assembly_1d", "BandedSymMatrix", "factor", "assembly_1d.factor", _factory("assembly_1d.solve")),
    ("tensor_ops", "KroneckerOperator", "matvec", "tensor_ops.matvec", _span()),
]


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def install(rec):
    """Rebind every traced name to a wrapper; restore all of them on exit.

    Yields the list of names that were not found (a later version of the
    library may have removed them); those layers simply record nothing.
    """
    saved = []
    missing = []
    try:
        for mod_name, fn_name, make in FUNCTIONS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            span_name = f"{mod_name}.{fn_name}"
            wrapper = make(rec, span_name, original)
            for m in _package_modules():
                if getattr(m, fn_name, None) is original:
                    saved.append((m, fn_name, original))
                    setattr(m, fn_name, wrapper)
        for mod_name, cls_name, meth, key, make in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            saved.append((cls, meth, original))
            setattr(cls, meth, make(rec, key, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------

# (metric group, spans summed into it, report calls, report self_s)
GROUPS = [
    ("spline_basis.eval_basis_many", ["spline_basis.eval_basis_many"], True, True),
    ("assembly_1d.matvec", ["assembly_1d.matvec"], True, True),
    ("assembly_1d.factor", ["assembly_1d.factor"], True, True),
    ("assembly_1d.solve", ["assembly_1d.solve"], True, True),
    ("assembly_1d.assemble", ["assembly_1d.assemble_mass", "assembly_1d.assemble_stiffness",
                              "assembly_1d.assemble_load", "assembly_1d.assemble_penalty"], True, True),
    ("experiments.build_1d", ["experiments.build_1d"], True, True),
    ("eigen.full_spectrum", ["eigen.full_spectrum"], True, True),
    ("eigen.max_eigenvalue", ["eigen.max_eigenvalue"], True, True),
    ("tensor_ops.matvec", ["tensor_ops.matvec"], True, True),
    ("tensor_ops.solve", ["tensor_ops.solve"], True, True),
    ("mms_errors.error", ["mms_errors.l2_error", "mms_errors.h1_seminorm_error",
                          "mms_errors.l2_error_2d", "mms_errors.h1_seminorm_error_2d"], True, True),
    ("mms_errors.initial_coefficients", ["mms_errors.initial_coefficients"], True, True),
    ("integrator.integrate", ["integrator.integrate"], True, True),
    ("integrator.step", ["integrator.step"], False, True),
    ("integrator.critical_omega", ["integrator.critical_omega"], True, True),
    ("experiments.write_csv", ["experiments.write_csv"], False, True),
    ("cli.main", ["cli.main"], False, True),
]

SOLVES = ("assembly_1d.solve", "tensor_ops.solve")
APPLIES = ("assembly_1d.matvec", "tensor_ops.matvec")
REQUEST_PREFIX = "request."


def layer_metrics(rec, rounds):
    """Per-layer metrics per traced round, from the recorder's spans.

    Counts and self times are totals over the traced rounds divided by
    their number, so they do not depend on how many rounds fit in a run.
    A ratio whose denominator is empty reads 0.
    """
    cols = rec.columns()
    dur, self_t = span_stats(cols)
    counters = rec.counters()
    parent = cols["parent"]
    has_parent = parent >= 0

    def mask_of(span_names):
        return np.isin(cols["name"], [i for i, n in enumerate(rec.names) if n in span_names])

    out = {}
    for group, spans, calls, selfs in GROUPS:
        m = mask_of(spans)
        if calls:
            out[f"{group}.calls"] = int(m.sum()) / rounds
        if selfs:
            out[f"{group}.self_s"] = float(self_t[m].sum()) / rounds
    for key in ("spline_basis.eval_basis_many.points", "assembly_1d.to_dense.calls",
                "eigen.max_eigenvalue.iterations", "integrator.integrate.steps"):
        out[key] = counters.get(key, 0) / rounds
    out["eigen.full_spectrum.n_max"] = counters.get("eigen.full_spectrum.n_max", 0)
    power_calls = int(mask_of(["eigen.max_eigenvalue"]).sum())
    out["eigen.max_eigenvalue.converged_frac"] = (
        counters.get("eigen.max_eigenvalue.converged", 0) / power_calls if power_calls else 0.0
    )

    steps = mask_of(["integrator.step"])
    step_time = float(dur[steps].sum())
    under_step = np.zeros(dur.size, dtype=bool)
    under_step[has_parent] = steps[parent[has_parent]]
    for key, group in (("integrator.msolve_share", SOLVES), ("integrator.kapply_share", APPLIES)):
        part = float(dur[under_step & mask_of(group)].sum())
        out[key] = part / step_time if step_time > 0 else 0.0

    # Busy time: the main thread's requests, minus the pool maps whose
    # cells ran on worker threads (the main thread only waited there),
    # plus those worker cells.
    requests = mask_of([n for n in rec.names if n.startswith(REQUEST_PREFIX)])
    cells = mask_of(["experiments.cell"])
    inline_pool = np.zeros(dur.size, dtype=bool)
    inline_pool[parent[cells & has_parent]] = True
    waiting = mask_of(["experiments._pool_map"]) & ~inline_pool
    wall = float(dur[requests].sum())
    busy = wall - float(dur[waiting].sum()) + float(dur[cells & ~has_parent].sum())
    out["experiments.concurrency"] = busy / wall if wall > 0 else 0.0
    return out
