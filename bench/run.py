"""Closed-loop benchmark of the igawave library and command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  One process issues one
request at a time, with BLAS pinned to one thread.  A round is every
request of the workload once, in an order drawn from the seed; rounds
repeat until the next one would end after ``--seconds``, with at least
MIN_ROUNDS of them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it holds the per-layer metrics, measured by wrapping the
library's functions from outside (see tracer.py), and the spans are written
to ``.bench_out/``.  The lines before it are a human-readable report: the
environment, every failed request, and every metric with its unit.
See METRICS.md for the definitions.
"""

import os

# Pinned before numpy loads, and inherited by the set-up subprocesses, so
# pool threads never ask for more cores than the machine has.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# An eigen round can take a third of a run or more; at least two rounds
# keep wall_s from resting on a single sample.
MIN_ROUNDS = 2


@dataclass
class Round:
    traced: bool
    wall: float = 0.0  # sum of request latencies, checks excluded
    took: float = 0.0  # wall clock of the round, checks included
    latencies: dict = field(default_factory=dict)  # request name -> seconds
    dof_steps: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure_setup():
    """Median wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls at 50 ms steps and quantizes the time.
        subprocess.run([sys.executable, "-c", "import igawave.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(requests, rng, tally, rec=None):
    order = list(requests)
    rng.shuffle(order)
    rnd = Round(traced=rec is not None)
    t0 = time.perf_counter()
    for req in order:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            if rec is None:
                output = req.call()
            else:
                rec.request += 1
                with rec.span("request." + req.name):
                    output = req.call()
        except Exception as err:  # a request that raises is a failed request
            problems = [(f"{type(err).__name__}: {err}", True)]
        else:
            problems = None
        latency = time.perf_counter() - start
        if problems is None:
            problems = req.check(output)
        rnd.wall += latency
        rnd.latencies[req.name] = latency
        rnd.dof_steps += req.dof_steps
        if problems:
            tally.failed += 1
            tally.correct = tally.correct and all(flagged for _, flagged in problems)
            more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
            tally.notes.append(f"{req.name}: {problems[0][0]}{more}")
    rnd.took = time.perf_counter() - t0
    return rnd


def measure(requests, seconds, seed, trace):
    """Rounds until the next would overrun; alternate plain/traced if tracing."""
    rng = random.Random(seed)
    rec = tracer.Recorder() if trace else None
    tally = Tally()
    rounds = []
    missing = []
    start = time.perf_counter()
    while True:
        if trace and len(rounds) % 2 == 1:
            with tracer.install(rec) as missing:
                rounds.append(run_round(requests, rng, tally, rec))
        else:
            rounds.append(run_round(requests, rng, tally))
        if len(rounds) < MIN_ROUNDS:
            continue
        next_traced = trace and len(rounds) % 2 == 1
        expected = statistics.median(r.took for r in rounds if r.traced == next_traced)
        if time.perf_counter() - start + expected > seconds:
            break
    return rounds, tally, rec, missing


def environment(workload, workloads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "workers": {name: w.workers for name, w in workloads.items()},
        "seed_sets": workload.seed_sets,
    }


def end_to_end(rounds, tally, setup_s):
    plain = [r for r in rounds if not r.traced]
    latencies = [t for r in plain for t in r.latencies.values()]
    wall = sum(r.wall for r in plain)
    dof_steps = sum(r.dof_steps for r in plain)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in plain), "s"),
        "request_s_p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed only: zero on some workloads, so not a gated metric.
    extra = {"failed_frac": (tally.failed / tally.attempted, "ratio")}
    if dof_steps:
        extra["dof_steps_per_s"] = (dof_steps / wall, "1/s")
    return metrics, extra, len(latencies)


def per_layer(rounds, rec):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    metrics = tracer.layer_metrics(rec, len(traced))
    base = statistics.median(r.wall for r in plain)
    metrics["trace.overhead_frac"] = (statistics.median(r.wall for r in traced) - base) / base
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "igawave" / "__init__.py").is_file():
        print(f"error: no igawave sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import igawave

    if Path(igawave.__file__).resolve().parent != (SRC / "igawave").resolve():
        print(f"error: imported igawave from {igawave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        requests = workload.make(args.seed, scratch)
        rounds, tally, rec, missing = measure(requests, args.seconds, args.seed, args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("env " + json.dumps(environment(workload, WORKLOADS), sort_keys=True))
    plain = sum(not r.traced for r in rounds)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(rounds)} rounds "
          f"({plain} untraced), {tally.attempted} requests, {tally.failed} failed")
    for note in tally.notes:
        print(f"failed {note}")
    if args.trace:
        values = per_layer(rounds, rec)
        units = {k: _layer_unit(k) for k in values}
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
        rec.save(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        for name in missing:
            print(f"not traced (absent from the library): {name}")
    else:
        e2e, extra, samples = end_to_end(rounds, tally, setup_s)
        values = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}
        for name, (value, unit) in extra.items():
            print(f"{name:18s} {value:.6g} {unit}")
        print(f"{'samples':18s} {samples} requests, {plain} rounds; setup median of {SETUP_REPEATS}")
        for name in sorted(rounds[0].latencies):
            times = [r.latencies[name] for r in rounds if not r.traced]
            print(f"request {name} median {statistics.median(times):.6g} s (n={len(times)})")
    for name, value in values.items():
        print(f"{name:18s} {value:.6g} {units[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac", "concurrency")):
        return "ratio"
    if name.endswith("n_max"):
        return "dof"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
