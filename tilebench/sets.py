"""Run the benchmark in sets, round-robin over workloads, and report spreads.

Run from the repository root:

    python3 tilebench/sets.py --runs 10 --sets 2 --out spreads.json

Each set runs every workload of BENCHMARK.json once per round, for the
benchmark's ``run_seconds`` with ``--trace 0``; round i of set s uses seed
s * runs + i + 1. Going round-robin lets slow drift of a shared host reach
all workloads alike. For each end-to-end metric the report gives, per set,
the median, the quartiles and the spread (interquartile distance over the
median), the host calibration median, the wall time of each benchmark
process, and the change of each set's median against the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(detail), time.perf_counter() - start


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args(argv)

    command = config["command"]
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": seconds, "sets": []}
    for set_index in range(args.sets):
        values = {w: {} for w in workloads}
        failures = {w: 0 for w in workloads}
        for i in range(args.runs):
            seed = set_index * args.runs + i + 1
            for workload in workloads:
                result, detail, process_s = run_once(command, workload, seed, seconds)
                failures[workload] += result["failed"] + (not result["correct"])
                row = {k: m["value"] for k, m in result["metrics"].items()}
                row["calib_s"] = statistics.median(detail["samples"]["calib_s"])
                row["process_s"] = process_s
                for key, value in row.items():
                    values[workload].setdefault(key, []).append(value)
                print(f"set {set_index} seed {seed} {workload} {json.dumps(row)}", flush=True)
        stats = {
            w: {key: summarize(vals) for key, vals in values[w].items()} for w in workloads
        }
        report["sets"].append({"failures": failures, "stats": stats})

    first = report["sets"][0]["stats"]
    for set_index, entry in enumerate(report["sets"]):
        for w in workloads:
            for key, s in entry["stats"][w].items():
                base = first[w][key]["median"]
                s["vs_first_set"] = s["median"] / base - 1.0 if base else 0.0
                bound = bounds.get(key)
                flag = ""
                if bound is not None and s["spread"] > bound / 3:
                    flag = f"  spread above a third of bound {bound}"
                print(
                    f"set {set_index} {w:13s} {key:16s} median {s['median']:.6g} "
                    f"spread {s['spread']:.3f} vs first {s['vs_first_set']:+.3f}{flag}"
                )
        print(f"set {set_index} failures {entry['failures']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
