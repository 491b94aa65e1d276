"""Workloads, output check and measurement passes of the tiling benchmark.

Every run calls ``tiling.run_tiling`` from outside the package and is checked
against the output recorded in ``expected.json``: status, stage count, cells
per stage, final mass, and one sha256 over the stable-timing report CSV (from
``emit_report``) plus every stage's ``Prepartition.dump``. A run that raises
or whose output differs counts as failed.

There are three passes, none of which changes the package:

* end-to-end (``--trace 0``): set-up time of ``generate_model``, untraced
  ``run_tiling`` wall time, and the growth of the process's peak resident
  memory over the first ``run_tiling`` call;
* counting (``--trace 1``): one run that only counts calls, including
  ``WeightedGraph.neighbors``, whose wrapper would distort the spans;
* traced (``--trace 1``): untraced and traced runs alternate; the traced ones
  wrap each layer's entry point at its lookup name and give self times. Their
  call counts must equal the counting run's.

Each pass ends its last run within the ``seconds`` it is given, counted from
its start, unless that leaves fewer than its minimum number of runs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

from ergodic_tiler import ModelSpec, emit_report, generate_model
from ergodic_tiler import graph, packing, partition, tiling

from spans import Tracer

WORKLOADS = {
    # quasi-pmp cycle (p != 1/2); converges in one stage with 512 tiles, so
    # quotient, join and from_cells carry real weight
    "odometer-16": dict(kind="odometer", n=16, p=0.4),
    # stalls after stages of 66, 1 and 0 cells; packing also searches a
    # contracted graph whose units are whole cells
    "bernoulli-13": dict(kind="bernoulli", n=13, p=0.3, q=0.5),
    # nothing is ever admitted: the time is failed greedy chain growth
    "free_tree-4": dict(kind="free_tree", n=4),
}
RUN_ARGS = dict(eps=0.05, max_stages=8, raise_on_stall=False)

SETUP_SLICE_SECONDS = 0.2
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2
CALIBRATION_STEPS = 200_000

SPAN_POINTS = (
    (tiling, "run_tiling", "tiling.run_tiling"),
    (tiling, "linf_reduction", "tiling.linf_reduction"),
    (tiling, "quotient", "graph.quotient"),
    (graph, "build_graph", "graph.build_graph"),
    (tiling, "packed_and_saturated", "packing.packed_and_saturated"),
    (packing, "packed", "packing.packed"),
    (packing, "saturate", "packing.saturate"),
    (packing, "find_pack", "packing.find_pack"),
    (packing.CentralFamily, "contains", "packing.oracle"),
    (partition.EquivRel, "join", "partition.join"),
    (partition.Prepartition, "from_cells", "partition.from_cells"),
)
COUNT_POINTS = ((graph.WeightedGraph, "neighbors", "graph.neighbors"),)

END_TO_END = {"setup_s": "s", "run_s": "s", "run_rss_mib": "MiB"}
COUNTED_CALLS = (
    "graph.quotient.calls",
    "graph.neighbors.calls",
    "partition.from_cells.calls",
    "packing.find_pack.calls",
    "packing.oracle.calls",
    "packing.oracle.admitted",
)
ADMITTING = ("packing.oracle",)


def self_time_metric(span):
    # run_tiling's span covers the whole run, so its name says "self"
    return "tiling.run_tiling.self_s" if span == "tiling.run_tiling" else span + ".s"


PER_LAYER = {
    **{self_time_metric(name): "s" for _, _, name in SPAN_POINTS},
    **{name: "count" for name in COUNTED_CALLS},
    "tiling.stages": "count",
    "packing.cells": "count",
    "trace.overhead_s": "s",
}


def model_spec(workload, seed):
    """The workload's model. These generators are deterministic; the seed is
    stored in the spec, which only random_regular reads, so the output and its
    digest do not depend on it."""
    return ModelSpec(**WORKLOADS[workload], seed=seed)


def summarize(state, report, workdir):
    """Output record of one run, with a digest over its written artefacts."""
    digest = hashlib.sha256()
    csv_path = emit_report(report, workdir, stable_timing=True)[0]
    with open(csv_path, "rb") as fh:
        digest.update(fh.read())
    cells_path = os.path.join(workdir, "cells.txt")
    for stage, part in enumerate(state.prepartitions, 1):
        part.dump(cells_path)
        digest.update(b"stage %d\n" % stage)
        with open(cells_path, "rb") as fh:
            digest.update(fh.read())
    return {
        "status": report.status,
        "stages": len(report.rows),
        "cells": [part.cell_count for part in state.prepartitions],
        "final_mass": report.final_mass,
        "sha256": digest.hexdigest(),
    }


def calibrate():
    """Wall time of a fixed pure-Python loop, a gauge of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
    return time.perf_counter() - start


def environment():
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Session:
    """One workload's model, its recorded output and the tally of runs."""

    def __init__(self, model, workdir, expected=None):
        self.model = model
        self.workdir = workdir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.outputs = []
        self.counts_repeated = True

    def run(self):
        """Run the tiling loop once, check its output; return the wall time."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            state, report = tiling.run_tiling(self.model, **RUN_ARGS)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        summary = summarize(state, report, self.workdir)
        reference = self.expected or (self.outputs[0] if self.outputs else summary)
        if summary != reference:
            self.failed += 1
        self.outputs.append(summary)
        return elapsed


def repeat_until(deadline, minimum, step):
    """Call step() at least `minimum` times, and again while the next call is
    expected to end by `deadline`, a time.perf_counter() value."""
    durations = []
    while len(durations) < minimum or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def timed_setup(spec, samples):
    gc.collect()
    start = time.perf_counter()
    model = generate_model(spec)
    samples.append(time.perf_counter() - start)
    return model


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(spec, workdir, expected, seconds):
    """One untimed run whose growth of peak resident memory is recorded, then
    timed untraced runs for the rest of `seconds`, each after a slice of
    set-up repetitions, so that set-up is sampled across the same window."""
    deadline = time.perf_counter() + seconds
    setup_s, run_s, calib_s = [], [], []
    session = Session(timed_setup(spec, setup_s), workdir, expected)
    # The peak only grows, so the run measured must be the process's first:
    # the reading is how far it lifts the peak that the imports and one
    # generate_model left.
    before = peak_rss_mib()
    session.run()
    run_rss_mib = peak_rss_mib() - before

    def step():
        calib_s.append(calibrate())
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_SLICE_SECONDS:
            timed_setup(spec, setup_s)
        run_s.append(session.run())

    repeat_until(deadline, MIN_SAMPLES, step)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "run_rss_mib": run_rss_mib,
    }
    return session, metrics, {"setup_s": setup_s, "run_s": run_s, "calib_s": calib_s}


def per_layer(spec, workdir, expected, seconds):
    """One counting run, then untraced and traced runs alternating for the
    rest of `seconds`; every traced run's counts must equal the counting
    run's."""
    deadline = time.perf_counter() + seconds
    plain_s, traced_s, calib_s, self_times, traced_calls = [], [], [], [], []
    session = Session(generate_model(spec), workdir, expected)
    with Tracer(SPAN_POINTS + COUNT_POINTS, ADMITTING, timed=False) as counter:
        session.run()
    counts = dict(counter.calls)
    span_counts = {k: v for k, v in counts.items() if not k.startswith("graph.neighbors")}

    def step():
        calib_s.append(calibrate())
        plain_s.append(session.run())
        with Tracer(SPAN_POINTS, ADMITTING) as tracer:
            traced_s.append(session.run())
        self_times.append(tracer.self_s)
        traced_calls.append(dict(tracer.calls))

    repeat_until(deadline, MIN_TRACED_PAIRS, step)
    session.counts_repeated = all(calls == span_counts for calls in traced_calls)

    metrics = {}
    for _, _, name in SPAN_POINTS:
        metrics[self_time_metric(name)] = float(statistics.median(t[name] for t in self_times))
    for name in COUNTED_CALLS:
        metrics[name] = counts.get(name.removesuffix(".calls"), 0)
    last = session.outputs[-1] if session.outputs else {"stages": 0, "cells": []}
    metrics["tiling.stages"] = last["stages"]
    metrics["packing.cells"] = sum(last["cells"])
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    samples = {"run_s": plain_s, "traced_run_s": traced_s, "calib_s": calib_s, "calls": counts}
    return session, metrics, samples


def measure(spec, seconds, trace, workroot, expected=None):
    """One benchmark run. Returns (result, detail): the result is the object
    printed last, the detail holds raw samples for diagnosis."""
    os.makedirs(workroot, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        measure_pass = per_layer if trace else end_to_end
        session, metrics, samples = measure_pass(spec, workdir, expected, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": session.failed == 0 and session.counts_repeated,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "environment": environment(),
        "counts_repeated": session.counts_repeated,
        "output": session.outputs[-1] if session.outputs else None,
        "samples": samples,
    }
    return result, detail
