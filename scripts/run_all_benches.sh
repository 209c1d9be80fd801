#!/usr/bin/env bash
# Regenerate every table and figure (EXPERIMENTS.md). PTMs are trained on
# first use and cached under ./dqn_models (or $DQN_MODEL_DIR), so the first
# run is dominated by training time and re-runs are fast.
#
# Knobs: DQN_BENCH_SCALE (default 1.0), DQN_PTM_ARCH=mlp|attention,
#        DQN_BENCH_FULL=1 (adds the 32/64-port Table 2 rows).
#
# --json [dir]: additionally profile every bench through the observability
# sink (obs::sink) and write one registry snapshot per binary as
# <dir>/<bench>.json (default dir: bench_json). Tables still print as usual,
# and one summary line per run — bench name, wall seconds, key counters,
# git SHA — is appended to BENCH_results.json at the repo root (JSON lines),
# building the perf trajectory across commits.
set -u
cd "$(dirname "$0")/.."

json_dir=""
if [ "${1:-}" = "--json" ]; then
  json_dir="${2:-bench_json}"
  mkdir -p "$json_dir"
  echo "profiling enabled: JSON snapshots under $json_dir/"
fi

# Append one JSON-lines summary of a profiled run to BENCH_results.json.
# Needs python3 for snapshot parsing; degrades to a warning without it.
append_summary() {
  bench_name="$1"; snapshot="$2"; wall="$3"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "[bench-json] python3 not found; skipping BENCH_results.json entry"
    return 0
  fi
  python3 - "$bench_name" "$snapshot" "$wall" >> BENCH_results.json <<'PY' \
    || echo "[bench-json] failed to summarize $snapshot"
import datetime
import json
import socket
import subprocess
import sys

bench, path, wall = sys.argv[1], sys.argv[2], float(sys.argv[3])
try:
    with open(path) as f:
        snap = json.load(f)
except Exception:
    snap = {}
sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                     capture_output=True, text=True).stdout.strip()
counters = snap.get("counters", {})
keys = ["engine.iterations", "engine.device_inferences", "engine.deliveries",
        "engine.steals",
        "des.events", "des.deliveries", "ptm.epochs", "ptm.batches",
        "sec.corrections", "trace.dropped",
        "tiered.analytical_packets", "tiered.ptm_packets"]
gauges = snap.get("gauges", {})
gauge_keys = ["tiered.analytical_fraction", "table7.tiered_speedup",
              "table7.ptm_wall_seconds", "table7.tiered_wall_seconds",
              "table7.measured_wall_w1", "table7.measured_wall_w2",
              "table7.measured_wall_w4", "table7.measured_wall_w8",
              "table7.measured_speedup_w2", "table7.measured_speedup_w4",
              "table7.measured_speedup_w8",
              "engine.cross_shard_links", "engine.shard_imbalance",
              "quickstart.measured_speedup"]
entry = {
    "bench": bench,
    "wall_seconds": wall,
    "git_sha": sha,
    "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    "hostname": socket.gethostname(),
    "counters": {k: counters[k] for k in keys if k in counters},
}
# Peak RSS, published by bench_sink()'s atexit hook (bench/common.hpp): the
# headline number for tracking bench memory across commits.
rss = gauges.get("process.max_rss_bytes")
if rss is not None:
    entry["peak_rss_bytes"] = int(rss)
picked_gauges = {k: gauges[k] for k in gauge_keys if k in gauges}
if picked_gauges:
    entry["gauges"] = picked_gauges
print(json.dumps(entry, sort_keys=True))
PY
}

echo "DQN_BENCH_SCALE=${DQN_BENCH_SCALE:-1.0} DQN_PTM_ARCH=${DQN_PTM_ARCH:-mlp}"
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo
  echo "##### $b"
  if [ -n "$json_dir" ]; then
    snapshot="$json_dir/$(basename "$b").json"
    start=$(date +%s.%N)
    DQN_BENCH_JSON="$snapshot" "$b"
    end=$(date +%s.%N)
    append_summary "$(basename "$b")" "$snapshot" \
      "$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')"
  else
    "$b"
  fi
done
