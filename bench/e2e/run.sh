#!/usr/bin/env bash
# The end-to-end benchmark's one command. Run from the repository root.
#
#   bash bench/e2e/run.sh [--smoke] [--seed N] [--seconds S]
#       Every workload, each in its own process with the traced pass on.
#       Prints "workload metric value unit" lines and writes
#       bench/e2e/out/results.json. --smoke quarters the packet budgets and
#       makes 3 timed runs, for quick iteration; it is not the measured command.
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload; the last line of stdout is its JSON result (end-to-end
#       metrics with --trace 0, per-layer metrics with --trace 1).
#
# Both forms first build the main tree's libraries (Release) and the driver
# into bench/e2e/build/, then train the PTM into a fresh cache directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"
out="$here/out"

workload="" seed=1000 seconds=10 trace=0 smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -f "$root/src/core/engine.hpp" ]]; then
  echo "run.sh: no DeepQueueNet source tree at $root" >&2
  exit 2
fi

mkdir -p "$build/tmp" "$out"
export TMPDIR="$build/tmp"  # keep compiler temporaries inside the checkout
jobs="$(nproc 2>/dev/null || echo 2)"
log="$build/build.log"

step() {
  if ! "$@" >>"$log" 2>&1; then
    echo "run.sh: build step failed: $*" >&2
    tail -n 40 "$log" >&2
    exit 1
  fi
}

if [[ ! -f "$build/main/CMakeCache.txt" ]]; then
  step cmake -S "$root" -B "$build/main" -DCMAKE_BUILD_TYPE=Release
fi
step cmake --build "$build/main" -j"$jobs" --target \
  dqn_core dqn_des dqn_traffic dqn_queueing dqn_nn dqn_obs dqn_topo dqn_stats dqn_util
if [[ ! -f "$build/e2e/CMakeCache.txt" ]]; then
  step cmake -S "$here" -B "$build/e2e" -DCMAKE_BUILD_TYPE=Release \
    -DDQN_MAIN_BUILD_DIR="$build/main"
fi
step cmake --build "$build/e2e" -j"$jobs"

driver="$build/e2e/dqn_e2e"
cache="$build/ptm-cache"
rm -rf "$cache"
"$driver" --prime --cache "$cache" >&2

if [[ -n "$workload" ]]; then
  exec "$driver" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --cache "$cache" --trace-dir "$out"
fi

smoke_flag=()
[[ "$smoke" == 1 ]] && smoke_flag=(--smoke)
status=0
for name in ft16_ptm_paper ft128_tiered ft16_sp_drops; do
  rm -f "$out/$name.json"  # a failed workload must not merge a stale result
  if ! "$driver" --workload "$name" --seed "$seed" --seconds "$seconds" --trace 1 \
      --cache "$cache" --trace-dir "$out" --out "$out/$name.json" \
      "${smoke_flag[@]}" >"$out/$name.txt"; then
    echo "run.sh: workload $name exited with an error" >&2
    status=1
    continue
  fi
  grep -v '^{' "$out/$name.txt"
done

python3 - "$out" "$seed" "$smoke" <<'PY' || status=1
import json, sys
out, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
names = ["ft16_ptm_paper", "ft128_tiered", "ft16_sp_drops"]
results = {"seed": seed, "smoke": smoke, "workloads": {}}
ok = True
for name in names:
    try:
        with open(f"{out}/{name}.json") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        print(f"run.sh: no result for {name}", file=sys.stderr)
        ok = False
        continue
    results["workloads"][name] = doc
    if not doc["correct"] or doc["failed"] > 0:
        print(f"run.sh: {name} failed its output checks "
              f"({doc['failed']}/{doc['attempted']} runs failed)", file=sys.stderr)
        ok = False
with open(f"{out}/results.json", "w") as f:
    json.dump(results, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {out}/results.json", file=sys.stderr)
sys.exit(0 if ok else 1)
PY
exit "$status"
