"""Benchmark of the staged tiling loop on three fixed models.

Run from the repository root:

    python3 tilebench/run.py --workload odometer-16 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. The line before it holds the raw samples and the host
calibration times. The package is imported from ``src/`` of the checkout the
script sits in; without it the script exits with code 2 and prints no result.

    python3 tilebench/run.py --record

runs every workload untraced, traced and counting, requires the outputs to
agree, and rewrites ``tilebench/expected.json`` with the output every later
run is checked against and the environment it was recorded in. Re-record only
when a change is meant to alter the output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKROOT = os.path.join(ROOT, ".bench_build", "tilebench")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_source():
    """Pin BLAS to one thread and import the package from this checkout.

    Returns False when the checkout has no package source."""
    if not os.path.isfile(os.path.join(SRC, "ergodic_tiler", "__init__.py")):
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for path in (SRC, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def record(bench):
    outputs = {}
    for name in bench.WORKLOADS:
        result, detail = bench.measure(bench.model_spec(name, 0), 0, 1, WORKROOT)
        if not result["correct"]:
            raise SystemExit(f"{name}: runs disagree or failed; nothing recorded")
        outputs[name] = detail["output"]
        print(name, json.dumps(detail["output"]), flush=True)
    doc = {"environment": {**bench.environment(), "commit": git_commit()}, "workloads": outputs}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not use_checkout_source():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.record:
        record(bench)
        return 0
    if args.workload not in bench.WORKLOADS or args.seconds is None:
        parser.error(f"give --seconds and a --workload from {', '.join(bench.WORKLOADS)}")
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["workloads"][args.workload]

    spec = bench.model_spec(args.workload, args.seed)
    result, detail = bench.measure(spec, args.seconds, args.trace, WORKROOT, expected)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
