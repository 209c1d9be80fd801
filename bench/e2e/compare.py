#!/usr/bin/env python3
"""Compare two end-to-end benchmark results under the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py A.json B.json

A is the baseline and B the candidate. Both are results.json files written by
`bench/e2e/run.sh` with the same seed. For each (workload, end-to-end metric)
the candidate is:

  improved    better than A by more than the metric's bound,
  worse       worse than A by more than the bound (a regression),
  unchanged   within the bound,
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, so the difference cannot be judged.

Counts must match exactly: every per-layer metric with unit "count" except
the scheduling-dependent ones below, and the number of injected packets. A
count mismatch, a rise in the share of failed runs, or a candidate whose
outputs failed their checks is also a regression. Exit status: 0 with no
regression, 1 with one, 2 on bad input.
"""

import json
import sys
from pathlib import Path

# Counts that depend on thread timing rather than on the inputs.
SCHEDULING_DEPENDENT = {"util.pool.steals"}


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(entry):
    if "p25" not in entry or not entry["value"]:
        return 0.0
    return (entry["p75"] - entry["p25"]) / abs(entry["value"])


def verdict(a, b, bound, better):
    if max(spread(a), spread(b)) > bound:
        return "unresolved", False
    base = a["value"]
    worse_by = (b["value"] - base) / base if better == "lower" else (base - b["value"]) / base
    if worse_by > bound:
        return "worse", True
    if worse_by < -bound:
        return "improved", False
    return "unchanged", False


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    bench = load(Path(__file__).resolve().parents[2] / "BENCHMARK.json")
    a_doc, b_doc = load(argv[1]), load(argv[2])
    if a_doc.get("seed") != b_doc.get("seed"):
        print(f"compare.py: seeds differ ({a_doc.get('seed')} vs {b_doc.get('seed')}); "
              "counts are only comparable on one seed", file=sys.stderr)
        return 2

    regression = False
    print(f"{'workload':<16} {'metric':<36} {'A':>14} {'B':>14} {'change':>8}  verdict")
    for name in sorted(set(a_doc["workloads"]) | set(b_doc["workloads"])):
        a = a_doc["workloads"].get(name)
        b = b_doc["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<16} missing from {'A' if a is None else 'B'}")
            regression = True
            continue
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            if metric not in a["metrics"] or metric not in b["metrics"]:
                print(f"{name:<16} {metric:<36} missing")
                regression = True
                continue
            am, bm = a["metrics"][metric], b["metrics"][metric]
            label, bad = verdict(am, bm, spec["bound"], spec["better"])
            regression |= bad
            change = (bm["value"] - am["value"]) / am["value"]
            print(f"{name:<16} {metric:<36} {am['value']:>14.6g} {bm['value']:>14.6g} "
                  f"{change:>+8.2%}  {label} (bound {spec['bound']:.0%})")

        a_fail = a["failed"] / a["attempted"]
        b_fail = b["failed"] / b["attempted"]
        if b_fail > a_fail or not b["correct"]:
            print(f"{name:<16} {'failed_runs_frac':<36} {a_fail:>14.6g} {b_fail:>14.6g} "
                  f"{'':>8}  worse (correct: {b['correct']})")
            regression = True

        counts = [("packets", a.get("packets"), b.get("packets"))]
        for metric, am in a["metrics"].items():
            bm = b["metrics"].get(metric)
            if am["unit"] == "count" and metric not in SCHEDULING_DEPENDENT and bm:
                counts.append((metric, am["value"], bm["value"]))
        for metric, av, bv in counts:
            if av != bv:
                print(f"{name:<16} {metric:<36} {av!s:>14} {bv!s:>14} {'':>8}  count differs")
                regression = True
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
