#!/usr/bin/env bash
# Repo lint driver: custom greppable rules, header self-containment,
# clang-tidy, and (optionally) a clang-format gate.
#
# Usage:
#   scripts/lint.sh                 # custom rules + self-containment + tidy
#   scripts/lint.sh --no-tidy       # skip clang-tidy (e.g. no compile DB yet)
#   scripts/lint.sh --tidy-base R   # tidy only src/ files changed since R
#                                   # (PR mode; default is the full tree)
#   scripts/lint.sh --format        # additionally format-check changed files
#   scripts/lint.sh --format-base R # diff base for --format (default origin/main)
#   scripts/lint.sh --require-tools # missing tool = failure, not a skip (CI)
#
# clang-tidy needs the compilation database; configure first:
#   cmake -B build -S .   (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)
#
# Tool binaries are overridable for version pinning: CLANG_TIDY and
# CLANG_FORMAT name the executables (default clang-tidy / clang-format); the
# CI static-analysis job sets them to the pinned major version.
#
# By default tools that are not installed are skipped with a notice (exit
# stays 0): the custom rules below always run and are the portable floor.
# With --require-tools a missing tool is a lint failure — CI passes it so an
# image regression cannot silently disable a gate.
set -u

cd "$(dirname "$0")/.."

clang_tidy="${CLANG_TIDY:-clang-tidy}"
clang_format="${CLANG_FORMAT:-clang-format}"

run_tidy=1
tidy_base=""
run_format=0
format_base="origin/main"
require_tools=0
while [ $# -gt 0 ]; do
  case "$1" in
    --no-tidy) run_tidy=0 ;;
    --tidy-base) shift; tidy_base="$1" ;;
    --format) run_format=1 ;;
    --format-base) shift; format_base="$1" ;;
    --require-tools) require_tools=1 ;;
    *) echo "lint: unknown option $1" >&2; exit 2 ;;
  esac
  shift
done

failures=0
fail() {
  echo "LINT FAIL: $*" >&2
  failures=$((failures + 1))
}

# ---------------------------------------------------------------------------
# Rule 1: no std::endl in first-party code. endl flushes; in per-packet hot
# paths that is a syscall per line. Use '\n' and flush explicitly when needed.
# ---------------------------------------------------------------------------
if out=$(grep -rn "std::endl" src/ bench/ examples/ 2>/dev/null); then
  fail "std::endl found (use '\\n'; flush explicitly if required):"
  echo "$out" >&2
fi

# ---------------------------------------------------------------------------
# Rule 2: no naked new/delete in src/. Ownership goes through containers and
# smart pointers; placement new and vendored code would need an explicit
# NOLINT-style marker 'lint:allow-new' on the same line.
# ---------------------------------------------------------------------------
if out=$(grep -rnE '(^|[^_[:alnum:]])(new|delete)[[:space:]]+[A-Za-z_(]' src/ \
         | grep -vE '(//.*(new|delete))|lint:allow-new'); then
  fail "naked new/delete in src/ (use containers / smart pointers):"
  echo "$out" >&2
fi

# ---------------------------------------------------------------------------
# Rule 3: ptm_model::predict is private to src/core — everything else goes
# through the delay-provider API (core/delay_provider.hpp), so backend policy
# (ptm/analytical/tiered) stays swappable at one seam. The receiver pattern
# catches the PTM spellings used in this tree (model/ptm/bundle.model/...);
# baseline estimators with their own predict() (mn./rn.) are unrelated, and
# tests/ may reach the model directly to pin its numerics.
# ---------------------------------------------------------------------------
if out=$(grep -rnE '(ptm[A-Za-z_0-9]*|model)(\.|->)predict\(' \
         src/ bench/ examples/ 2>/dev/null | grep -v '^src/core/'); then
  fail "ptm_model::predict outside src/core (route through core/delay_provider.hpp):"
  echo "$out" >&2
fi

# ---------------------------------------------------------------------------
# Rule 4: every src/ header is referenced by at least one test. Modules whose
# coverage is intentionally transitive are allow-listed with a reason.
# ---------------------------------------------------------------------------
allow_untested=(
  # Exercised through core/engine.hpp's device_model wrapper in every engine test.
  "core/device_model.hpp"
  # Parameter-pack plumbing compiled into every nn test via lstm.hpp/attention.hpp.
  "nn/params.hpp"
  # Building block of the routenet and fluid baselines; exercised through
  # their suites in test_baselines.cpp.
  "baselines/constant_delay_replay.hpp"
)
while IFS= read -r header; do
  inc="${header#src/}"
  for allowed in "${allow_untested[@]}"; do
    [ "$inc" = "$allowed" ] && continue 2
  done
  if ! grep -rqF "\"$inc\"" tests/; then
    fail "no test references \"$inc\" (add a test or allow-list it here with a reason)"
  fi
done < <(find src -name "*.hpp" | sort)

# ---------------------------------------------------------------------------
# Rule 5: header self-containment — every header must compile on its own
# (catches headers that lean on includer-provided includes).
# ---------------------------------------------------------------------------
cxx="${CXX:-g++}"
if command -v "$cxx" >/dev/null 2>&1; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  while IFS= read -r header; do
    printf '#include "%s"\n' "${header#src/}" > "$tmp/self.cpp"
    if ! "$cxx" -std=c++20 -fsyntax-only -Isrc "$tmp/self.cpp" 2> "$tmp/self.err"; then
      fail "header not self-contained: $header"
      head -5 "$tmp/self.err" >&2
    fi
  done < <(find src -name "*.hpp" | sort)
elif [ "$require_tools" = 1 ]; then
  fail "$cxx not found but --require-tools was given"
else
  echo "lint: $cxx not found; skipping self-containment check" >&2
fi

# ---------------------------------------------------------------------------
# Rule 6: AST lint — hot-path purity (no allocation / string-keyed obs inside
# DQN_HOT_PATH bodies) and explicit std::memory_order on every atomic access.
# scripts/ast_lint.py is dependency-free, so this rule always runs. Semantic
# hot-function detection (through the dqn::hot_path annotation, which macro
# tricks cannot hide) belongs to the dqn-* clang-tidy pass below.
# ---------------------------------------------------------------------------
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/ast_lint.py
  case $? in
    0) ;;
    1) fail "ast_lint.py reported findings (see above)" ;;
    *) fail "ast_lint.py could not run" ;;
  esac
elif [ "$require_tools" = 1 ]; then
  fail "python3 not found but --require-tools was given"
else
  echo "lint: python3 not found; skipping ast_lint (CI runs it)" >&2
fi

# ---------------------------------------------------------------------------
# Rule 7: the metric catalog matches the code. Every string-literal metric
# name passed to count/gauge/observe/*_handle_for under src/, or written by
# the sink's own export as counters["..."] (comments skipped, through
# ast_lint.py's masking lexer), must be listed in
# docs/OBSERVABILITY.md's "Metric catalog" table, and every name listed there
# must have such a call site. Names built at run time are catalogued as the
# pattern <stage>.<name>.seconds (obs::scoped_timer).
# ---------------------------------------------------------------------------
if command -v python3 >/dev/null 2>&1; then
  if ! python3 - <<'PY'
import os
import re
import sys

sys.path.insert(0, "scripts")
from ast_lint import line_of, mask_source

PATTERNS = {"<stage>.<name>.seconds"}
DOC = "docs/OBSERVABILITY.md"
# Masking blanks string contents but keeps the quotes and every offset, so
# the name is read back from the original text at the masked match. The
# sink's own export writes `counters["trace.dropped"]` directly.
CALL = re.compile(
    r'(?:(?:\.|->)\s*(?:count|gauge|observe|\w+_handle_for)\(|\bcounters\[)'
    r'\s*"( *)"\s*[,)\]]')

sites = {}
for root, _dirs, files in os.walk("src"):
    for name in sorted(files):
        if not name.endswith((".cpp", ".hpp")):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for m in CALL.finditer(mask_source(text)):
            metric = text[m.start(1):m.end(1)]
            sites.setdefault(metric, f"{path}:{line_of(text, m.start(1))}")

with open(DOC, encoding="utf-8") as fh:
    doc = fh.read()
heading = "\n## Metric catalog\n"
if heading not in doc:
    print(f"{DOC}: no '## Metric catalog' section", file=sys.stderr)
    sys.exit(1)
section = doc.split(heading, 1)[1].split("\n## ", 1)[0]
catalog = set()
for row in section.splitlines():
    if row.startswith("| `"):
        catalog.update(re.findall(r"`([^`]+)`", row.split("|")[1]))

problems = [f"{site}: metric \"{metric}\" is not in {DOC}'s catalog"
            for metric, site in sorted(sites.items()) if metric not in catalog]
problems += [f"{DOC}: catalog lists \"{entry}\" but no call site under src/ "
             "publishes it"
             for entry in sorted(catalog - sites.keys() - PATTERNS)]
for problem in problems:
    print(problem, file=sys.stderr)
sys.exit(1 if problems else 0)
PY
  then
    fail "metric catalog out of step with the code (see above)"
  fi
elif [ "$require_tools" = 1 ]; then
  fail "python3 not found but --require-tools was given"
else
  echo "lint: python3 not found; skipping the metric catalog check" >&2
fi

# ---------------------------------------------------------------------------
# clang-tidy over the compilation database (src/ only: tests and benches get
# tidied in CI where the runtime cost is parallelized).
# ---------------------------------------------------------------------------
if [ "$run_tidy" = 1 ]; then
  # DQNTidyModule (tools/tidy): loaded when built so the dqn-* checks run.
  # DQN_TIDY_PLUGIN overrides the path; *explicitly* requesting a missing
  # module is a hard failure (a stale CI cache must not silently drop the
  # dqn-* gate), whereas the default path simply not existing is the normal
  # plugin-less local build.
  tidy_load=()
  if [ -n "${DQN_TIDY_PLUGIN:-}" ]; then
    if [ ! -f "$DQN_TIDY_PLUGIN" ]; then
      fail "DQN_TIDY_PLUGIN=$DQN_TIDY_PLUGIN does not exist"
    else
      tidy_load=(--load="$DQN_TIDY_PLUGIN")
    fi
  elif [ -f build/tools/tidy/DQNTidyModule.so ]; then
    tidy_load=(--load=build/tools/tidy/DQNTidyModule.so)
  fi
  if ! command -v "$clang_tidy" >/dev/null 2>&1; then
    if [ "$require_tools" = 1 ]; then
      fail "$clang_tidy not found but --require-tools was given"
    else
      echo "lint: $clang_tidy not installed; skipping (CI runs it)" >&2
    fi
  elif [ ! -f build/compile_commands.json ]; then
    if [ "$require_tools" = 1 ]; then
      fail "build/compile_commands.json missing but --require-tools was given (configure first)"
    else
      echo "lint: build/compile_commands.json missing; configure first (skipping tidy)" >&2
    fi
  else
    # .clang-tidy sets WarningsAsErrors: '*', so any finding is a failure.
    if [ -n "$tidy_base" ]; then
      # PR mode: only the src/ translation units changed since the base ref.
      tidy_files=$(git diff --name-only --diff-filter=ACMR "$tidy_base"...HEAD \
                   -- 'src/*.cpp' 2>/dev/null || true)
    else
      tidy_files=$(find src -name "*.cpp")
    fi
    if [ -n "$tidy_files" ]; then
      # shellcheck disable=SC2086
      if ! printf '%s\n' $tidy_files \
          | xargs -n 8 -P "$(nproc)" "$clang_tidy" ${tidy_load[@]+"${tidy_load[@]}"} \
              -p build --quiet; then
        fail "clang-tidy reported findings (see above)"
      fi
    fi
  fi
fi

# ---------------------------------------------------------------------------
# Format gate (opt-in): clang-format over files changed vs the base ref.
# Scoped to changed files so adopting .clang-format needed no flag-day
# reformat; the tree converges as files get touched.
# ---------------------------------------------------------------------------
if [ "$run_format" = 1 ]; then
  if ! command -v "$clang_format" >/dev/null 2>&1; then
    if [ "$require_tools" = 1 ]; then
      fail "$clang_format not found but --require-tools was given"
    else
      echo "lint: $clang_format not installed; skipping format gate (CI runs it)" >&2
    fi
  else
    changed=$(git diff --name-only --diff-filter=ACMR "$format_base"...HEAD -- \
              'src/*.cpp' 'src/*.hpp' 'tests/*.cpp' 'bench/*.cpp' 'bench/*.hpp' \
              'examples/*.cpp' 2>/dev/null || true)
    if [ -n "$changed" ]; then
      # shellcheck disable=SC2086
      if ! "$clang_format" --dry-run --Werror $changed; then
        fail "clang-format: files above differ from .clang-format style"
      fi
    fi
  fi
fi

if [ "$failures" -gt 0 ]; then
  echo "lint: $failures failure(s)" >&2
  exit 1
fi
echo "lint: OK"
