#!/usr/bin/env python3
"""Append end-to-end benchmark results to the performance record.

Usage:
  record_e2e.py RESULTS [--out FILE] [--sha SHA]

RESULTS is a results.json written by `bash bench/e2e/run.sh` (normally
bench/e2e/out/results.json). For each workload in it, one JSON line is
appended to FILE (default: BENCH_results.json at the repository root);
existing lines are left as they are. Each line holds:

  bench           "e2e/<workload>"
  git_sha         the measured commit (default: `git rev-parse --short HEAD`)
  seed, smoke     from RESULTS
  nproc           cores on this machine (os.cpu_count())
  kernel_backend  the GEMM backend the run dispatched to: the
                  DQN_KERNEL_BACKEND override when it names a backend the
                  CPU supports, else the strongest of avx512, avx2 and
                  blocked that the CPU supports, the same rule as
                  nn::kernels::select_startup_backend on a build with every
                  backend compiled in

Run it on the machine, and with the environment, that produced RESULTS.
  attempted, failed  the workload's run counts
  end_to_end      every end-to-end metric in BENCHMARK.json: value and unit,
                  plus p25 and p75 where RESULTS reports a spread
  counts          every per-layer metric in BENCHMARK.json whose unit is
                  "count", where RESULTS has it

Exit 0 = rows written; 2 = bad input (nothing is written).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def dispatched_backend():
    flags = cpu_flags()
    supported = {"naive", "blocked"}
    if {"avx2", "fma"} <= flags:
        supported.add("avx2")
    if "avx512f" in flags:
        supported.add("avx512")
    wanted = os.environ.get("DQN_KERNEL_BACKEND")
    if wanted in supported:
        return wanted
    for be in ("avx512", "avx2"):
        if be in supported:
            return be
    return "blocked"


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def rows_for(results, bench, sha, nproc, backend):
    count_metrics = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    rows = []
    for name, doc in sorted(results["workloads"].items()):
        metrics = doc["metrics"]
        end_to_end = {}
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            if metric not in metrics:
                raise ValueError(f"{name}: no end-to-end metric {metric}")
            m = metrics[metric]
            end_to_end[metric] = {k: m[k] for k in ("value", "p25", "p75", "unit")
                                  if k in m}
        rows.append({
            "bench": f"e2e/{name}",
            "git_sha": sha,
            "seed": results["seed"],
            "smoke": results.get("smoke", False),
            "nproc": nproc,
            "kernel_backend": backend,
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "end_to_end": end_to_end,
            "counts": {metric: metrics[metric]["value"]
                       for metric in count_metrics if metric in metrics},
        })
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results")
    parser.add_argument("--out", default=str(ROOT / "BENCH_results.json"))
    parser.add_argument("--sha")
    args = parser.parse_args(argv)
    try:
        with open(args.results) as f:
            results = json.load(f)
        with open(ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        if not results.get("workloads"):
            raise ValueError("no workloads")
        rows = rows_for(results, bench, args.sha or git_sha(), os.cpu_count(),
                        dispatched_backend())
    except (OSError, ValueError, KeyError) as err:
        print(f"record_e2e.py: {args.results}: {err}", file=sys.stderr)
        return 2
    with open(args.out, "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"record_e2e.py: appended {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
