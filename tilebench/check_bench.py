"""Self-tests of the benchmark; run with

    python3 -m pytest tilebench/check_bench.py -q

The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_checkout_source()

import bench  # noqa: E402
from ergodic_tiler import ModelSpec, generate_model, tiling  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_MODELS = [ModelSpec("odometer", 8, p=0.4), ModelSpec("bernoulli", 7, p=0.3, q=0.5)]


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def installed(points):
    return [owner.__dict__[attr] for owner, attr, _ in points]


@pytest.mark.parametrize("spec", SMALL_MODELS, ids=lambda s: s.kind)
def test_traced_pass_restores_wrappers_and_repeats_counts(spec, tmp_path):
    points = bench.SPAN_POINTS + bench.COUNT_POINTS
    before = installed(points)
    session, metrics, _ = bench.per_layer(spec, str(tmp_path), None, 0)
    assert all(a is b for a, b in zip(installed(points), before))
    assert session.counts_repeated and session.failed == 0
    assert set(metrics) == set(bench.PER_LAYER)
    assert metrics["graph.quotient.calls"] == metrics["tiling.stages"] >= 1


@pytest.mark.parametrize("spec", SMALL_MODELS, ids=lambda s: s.kind)
def test_traced_and_untraced_runs_give_the_same_digest(spec, tmp_path):
    model = generate_model(spec)
    plain = bench.summarize(*tiling.run_tiling(model, **bench.RUN_ARGS), str(tmp_path))
    with Tracer(bench.SPAN_POINTS, bench.ADMITTING):
        traced = bench.summarize(*tiling.run_tiling(model, **bench.RUN_ARGS), str(tmp_path))
    with Tracer(bench.SPAN_POINTS + bench.COUNT_POINTS, bench.ADMITTING, timed=False):
        counted = bench.summarize(*tiling.run_tiling(model, **bench.RUN_ARGS), str(tmp_path))
    assert plain == traced == counted


def test_wrong_output_counts_as_failed(tmp_path):
    model = generate_model(SMALL_MODELS[0])
    good = bench.summarize(*tiling.run_tiling(model, **bench.RUN_ARGS), str(tmp_path))
    session = bench.Session(model, str(tmp_path), expected=dict(good, sha256="0" * 64))
    session.run()
    assert (session.attempted, session.failed) == (1, 1)


def test_benchmark_json_matches_what_the_command_runs():
    config = load(os.path.join(run.ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in config["workloads"]]
    assert names == list(bench.WORKLOADS)
    assert sorted(load(run.EXPECTED)["workloads"]) == sorted(names)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == bench.PER_LAYER
    assert config["command"] == ["python3", "tilebench/run.py"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "tilebench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "tilebench/run.py", "--workload", "free_tree-4", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
