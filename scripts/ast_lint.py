#!/usr/bin/env python3
"""AST lint: hot-path, ordering, and atomic memory-order invariants.

Four rules (docs/STATIC_ANALYSIS.md is the rationale; tests/lint_fixtures/
the executable spec — every bad fixture must be rejected, every good twin
pass):

  hot-path-alloc       Functions marked DQN_HOT_PATH (util/annotations.hpp)
                       are steady-state per-packet kernels: no allocating
                       constructs inside the body — operator new,
                       make_unique/make_shared, std::string construction,
                       std::to_string, stringstreams, container declarations,
                       or container growth calls (push_back/emplace/insert/
                       resize/reserve/append). Stage buffers outside, pass
                       them in pre-sized (see core/device_model.cpp).

  hot-path-string-obs  Inside DQN_HOT_PATH bodies, obs recording goes through
                       pre-resolved handles only: no string-keyed sink calls
                       (count("...")/gauge("...")/observe("...")/event("...")
                       — each hashes the name under the registry meta mutex)
                       and no handle resolution (counter_handle_for and
                       friends: resolution locks; do it once at setup).

  atomic-order         Every std::atomic load/store/RMW in first-party code
                       names an explicit std::memory_order. Defaulted
                       seq_cst hides the intended contract; where seq_cst is
                       required, say so: .load(std::memory_order_seq_cst)
                       plus a one-line comment.

  unordered-iteration  Range-for traversal of a std::unordered_map/set whose
                       body accumulates values (+=/-=/*=//=), emits output
                       (stream <<, push_back/emplace/insert/append into an
                       outside container), or takes the element by non-const
                       reference (mutation through the loop variable).
                       Traversal order is implementation- and
                       rehash-dependent, so any of those turns into
                       cross-run / cross-partition nondeterminism. Fix by
                       iterating in sorted key order (or restructuring to a
                       keyed vector — util/keyed_vector.hpp); genuinely
                       order-insensitive loops are silenced with an explicit
                       `// dqn-order-insensitive: <rationale>` annotation on
                       the loop line or the line above.

Engine: a dependency-free single-pass lexer (comment/string masking + token
scan) that runs anywhere python3 runs, including containers with no clang at
all. Hot functions are found by the DQN_HOT_PATH macro name; rule application
is textual over the brace-matched body.

This script is the portable floor. The clang-tidy plugin in tools/tidy/
(checks dqn-hot-path-alloc, dqn-unordered-iteration, dqn-atomic-order,
dqn-narrowing-float) is the compiler-grade promotion that sees through
templates, typedefs, and macros; dqn-hot-path-alloc finds hot functions
semantically, through the annotate("dqn::hot_path") attribute the macro
expands to. Both read the same `dqn-order-insensitive` annotations.

Exit status: 0 clean, 1 findings, 2 usage error. Findings print as
`file:line: [rule] message`, one per line, machine-greppable; with
--format=json a stable, sorted JSON document is emitted instead (CI uploads
it as the ast-lint artifact so artifact diffs are meaningful).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOT_MACRO = "DQN_HOT_PATH"
ORDER_ANNOTATION = "dqn-order-insensitive"

# Rule registry: name -> one-line description (--list-rules; the module
# docstring carries the full rationale per rule).
RULES = {
    "hot-path-alloc": (
        "no allocating constructs inside DQN_HOT_PATH bodies "
        "(new/make_unique/make_shared, string construction, container "
        "declaration or growth)"
    ),
    "hot-path-string-obs": (
        "no string-keyed obs calls or handle resolution inside DQN_HOT_PATH "
        "bodies (pre-resolve handles at setup)"
    ),
    "atomic-order": (
        "every std::atomic access names an explicit std::memory_order "
        "(defaulted seq_cst hides the intended contract)"
    ),
    "unordered-iteration": (
        "no accumulating/output-emitting/mutating range-for over "
        "std::unordered_{map,set} without a "
        "'// dqn-order-insensitive: <rationale>' annotation"
    ),
}

# ---------------------------------------------------------------------------
# Body rules (every hot-function body is funnelled through these).
# ---------------------------------------------------------------------------

ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\s+[A-Za-z_(:]"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
    (re.compile(r"\bstd::o?stringstream\b"), "stringstream"),
    (re.compile(r"\bstd::string\s*[\s\w]*[{(;=]"), "std::string construction"),
    (
        re.compile(
            r"\bstd::(vector|deque|list|forward_list|map|multimap|set|multiset|"
            r"unordered_map|unordered_set|unordered_multimap|unordered_multiset|"
            r"queue|priority_queue|stack|function)\s*<"
        ),
        "container declaration",
    ),
    (
        re.compile(
            r"\.\s*(push_back|emplace_back|push_front|emplace_front|emplace|"
            r"insert|insert_or_assign|try_emplace|resize|reserve|append)\s*\("
        ),
        "container growth",
    ),
]

STRING_OBS_PATTERNS = [
    (
        re.compile(r"[.>]\s*(count|gauge|observe|event)\s*\(\s*\""),
        "string-keyed obs call (pre-resolve a handle at setup)",
    ),
    (
        re.compile(r"\b(counter|gauge|histogram)_handle_for\s*\("),
        "handle resolution (resolve once at setup, not per packet)",
    ),
]

ATOMIC_ONLY_METHODS = re.compile(
    r"[.>]\s*(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|exchange|"
    r"compare_exchange_weak|compare_exchange_strong|test_and_set)\s*\("
)

# `name.load(...)` / `name.store(...)` (optionally subscripted receiver);
# only applied when `name` is a declared std::atomic in this file or its
# paired header — .load() is too common (streams, nn models) to flag blindly.
LOAD_STORE_CALL = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)\s*(?:\[[^][]*\])?\s*\.\s*(load|store)\s*\("
)

ATOMIC_DECL = re.compile(r"std::atomic\s*<[^;{()]*>\s*&?\s*([A-Za-z_]\w*)")

# `std::unordered_map<K, V> name` — the template argument list may nest
# (pair<...>), so the char class only excludes tokens that end a declarator.
# An optional trailing DQN_* annotation macro (e.g. DQN_GUARDED_BY(m_)) may
# sit between the name and the declarator terminator.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|multimap|set|multiset)\s*<[^;{}()]*>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*(?:DQN_\w+\s*\([^()]*\)\s*)?[;={(\[),]"
)

# Range-for whose range expression ends in a plain identifier (possibly a
# member path — the last component is what the declaration scan names).
RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*(?P<decl>[^():;]*?)\s*:\s*"
    r"(?P<recv>[\w.\->]*?([A-Za-z_]\w*))\s*\)"
)

# Body constructs that make iteration order observable: accumulation into a
# value, stream output, and appends into a container declared outside the
# loop. Mutation through a non-const-reference loop variable is detected on
# the loop declaration itself.
ORDER_SENSITIVE_BODY = [
    (re.compile(r"[+\-*/]="), "accumulates with a compound assignment"),
    (re.compile(r"<<"), "emits stream output"),
    (
        re.compile(r"\.\s*(push_back|emplace_back|emplace|insert|append)\s*\("),
        "appends to a container",
    ),
]

NONCONST_REF_LOOP_VAR = re.compile(r"(?<!const )\bauto\s*&")

ORDER_ANNOTATION_WITH_RATIONALE = re.compile(
    re.escape(ORDER_ANNOTATION) + r"\s*:\s*\S"
)


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        rel = os.path.relpath(self.path, REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "file": os.path.relpath(self.path, REPO),
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def mask_source(text: str) -> str:
    """Blank comments entirely and string/char *contents* (quotes survive so
    string-keyed call sites stay detectable); newlines survive so offsets and
    line numbers are unchanged. Handles //, /**/, "...", '...' and raw
    string literals R"delim(...)delim"."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            blank(i, end)
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            blank(i, end)
            i = end
        elif c == '"' and text[max(0, i - 1) : i + 1] in ('"', 'R"') and text[
            max(0, i - 1)
        ] == "R":
            # raw string literal: R"delim( ... )delim"
            open_paren = text.find("(", i)
            if open_paren == -1:
                i += 1
                continue
            delim = text[i + 1 : open_paren]
            close = text.find(")" + delim + '"', open_paren)
            close = n if close == -1 else close + len(delim) + 2
            blank(i + 1, close - 1)
            i = close
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_hot_body(path: str, masked: str, start: int, end: int) -> list:
    """Apply the hot-path body rules to masked[start:end]."""
    findings = []
    body = masked[start:end]
    for pattern, what in ALLOC_PATTERNS:
        for m in pattern.finditer(body):
            findings.append(
                Finding(
                    path,
                    line_of(masked, start + m.start()),
                    "hot-path-alloc",
                    f"{what} inside a {HOT_MACRO} body",
                )
            )
    for pattern, what in STRING_OBS_PATTERNS:
        for m in pattern.finditer(body):
            findings.append(
                Finding(
                    path,
                    line_of(masked, start + m.start()),
                    "hot-path-string-obs",
                    f"{what} inside a {HOT_MACRO} body",
                )
            )
    return findings


def balanced_args(masked: str, open_paren: int) -> str:
    """Text between open_paren and its matching close (exclusive)."""
    depth = 0
    for j in range(open_paren, len(masked)):
        if masked[j] == "(":
            depth += 1
        elif masked[j] == ")":
            depth -= 1
            if depth == 0:
                return masked[open_paren + 1 : j]
    return masked[open_paren + 1 :]


def check_atomic_orders(path: str, masked: str, atomic_names: set) -> list:
    findings = []
    for m in ATOMIC_ONLY_METHODS.finditer(masked):
        args = balanced_args(masked, masked.index("(", m.end() - 1))
        if "memory_order" not in args:
            findings.append(
                Finding(
                    path,
                    line_of(masked, m.start()),
                    "atomic-order",
                    f".{m.group(1)}() without an explicit std::memory_order",
                )
            )
    for m in LOAD_STORE_CALL.finditer(masked):
        if m.group(1) not in atomic_names:
            continue
        args = balanced_args(masked, masked.index("(", m.end() - 1))
        if "memory_order" not in args:
            findings.append(
                Finding(
                    path,
                    line_of(masked, m.start()),
                    "atomic-order",
                    f"{m.group(1)}.{m.group(2)}() without an explicit "
                    "std::memory_order",
                )
            )
    return findings


def unordered_names_for(path: str, masked: str) -> set:
    """Declared std::unordered_{map,set} variable names in this file plus,
    for a .cpp, its paired header (members live in the .hpp)."""
    names = {m.group(1) for m in UNORDERED_DECL.finditer(masked)}
    root, ext = os.path.splitext(path)
    if ext == ".cpp":
        header = root + ".hpp"
        if os.path.exists(header):
            with open(header, encoding="utf-8") as fh:
                names |= {
                    m.group(1)
                    for m in UNORDERED_DECL.finditer(mask_source(fh.read()))
                }
    return names


def loop_body_span(masked: str, after: int) -> tuple:
    """(start, end) offsets of the loop body following the for's close paren
    at `after`: a brace-matched compound statement, or the single statement
    up to its `;`."""
    i, n = after, len(masked)
    while i < n and masked[i].isspace():
        i += 1
    if i < n and masked[i] == "{":
        brace, j = 1, i + 1
        while j < n and brace:
            if masked[j] == "{":
                brace += 1
            elif masked[j] == "}":
                brace -= 1
            j += 1
        return i + 1, j - 1
    end = masked.find(";", i)
    return i, n if end == -1 else end + 1


def annotated_order_insensitive(text: str, line: int) -> tuple:
    """(annotated, has_rationale) looking at the loop's own line plus its
    contiguous leading `//` comment block in the ORIGINAL text (annotations
    are comments, which masking blanks)."""
    lines = text.split("\n")
    window = [lines[line - 1]]  # the loop line itself (trailing comment)
    i = line - 2
    while i >= 0 and lines[i].lstrip().startswith("//"):
        window.append(lines[i])
        i -= 1
    joined = "\n".join(window)
    if ORDER_ANNOTATION not in joined:
        return False, False
    return True, ORDER_ANNOTATION_WITH_RATIONALE.search(joined) is not None


def check_unordered_iterations(
    path: str, text: str, masked: str, unordered_names: set
) -> list:
    findings = []
    for m in RANGE_FOR.finditer(masked):
        if m.group(3) not in unordered_names:
            continue
        line = line_of(masked, m.start())
        annotated, has_rationale = annotated_order_insensitive(text, line)
        if annotated and has_rationale:
            continue
        if annotated:
            findings.append(
                Finding(
                    path,
                    line,
                    "unordered-iteration",
                    f"{ORDER_ANNOTATION} annotation present but missing its "
                    f"rationale (write '// {ORDER_ANNOTATION}: <why order "
                    "cannot matter>')",
                )
            )
            continue
        reasons = []
        if NONCONST_REF_LOOP_VAR.search(m.group("decl")):
            reasons.append("binds elements by non-const reference")
        start, end = loop_body_span(masked, m.end())
        body = masked[start:end]
        reasons.extend(what for pat, what in ORDER_SENSITIVE_BODY if pat.search(body))
        if not reasons:
            continue
        findings.append(
            Finding(
                path,
                line,
                "unordered-iteration",
                f"range-for over unordered container '{m.group(3)}' "
                f"{'; '.join(reasons)} — iteration order is nondeterministic; "
                "iterate in sorted key order, restructure to a keyed vector, "
                f"or annotate '// {ORDER_ANNOTATION}: <rationale>'",
            )
        )
    return findings


def atomic_names_for(path: str, masked: str) -> set:
    """Declared std::atomic variable names in this file plus, for a .cpp, its
    paired header (members are declared in the .hpp, used in the .cpp)."""
    names = {m.group(1) for m in ATOMIC_DECL.finditer(masked)}
    root, ext = os.path.splitext(path)
    if ext == ".cpp":
        header = root + ".hpp"
        if os.path.exists(header):
            with open(header, encoding="utf-8") as fh:
                names |= {
                    m.group(1) for m in ATOMIC_DECL.finditer(mask_source(fh.read()))
                }
    return names


# ---------------------------------------------------------------------------
# Find DQN_HOT_PATH bodies by macro token + brace matching.
# ---------------------------------------------------------------------------

HOT_TOKEN = re.compile(r"\b" + HOT_MACRO + r"\b")


def hot_bodies(masked: str):
    """Yield (body_start, body_end) offsets for every DQN_HOT_PATH function
    *definition* (declarations — `;` before `{` at depth 0 — are skipped, as
    are preprocessor lines such as the macro's own #define)."""
    for m in HOT_TOKEN.finditer(masked):
        line_start = masked.rfind("\n", 0, m.start()) + 1
        if masked[line_start:m.start()].lstrip().startswith("#"):
            continue  # the #define itself (or conditional around it)
        depth = 0
        i = m.end()
        n = len(masked)
        while i < n:
            c = masked[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and c == ";":
                break  # declaration only
            elif depth == 0 and c == "{":
                brace = 1
                j = i + 1
                while j < n and brace:
                    if masked[j] == "{":
                        brace += 1
                    elif masked[j] == "}":
                        brace -= 1
                    j += 1
                yield i + 1, j - 1
                break
            i += 1


def lint(paths):
    findings = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        masked = mask_source(text)
        for start, end in hot_bodies(masked):
            findings.extend(check_hot_body(path, masked, start, end))
        findings.extend(
            check_atomic_orders(path, masked, atomic_names_for(path, masked))
        )
        findings.extend(
            check_unordered_iterations(
                path, text, masked, unordered_names_for(path, masked)
            )
        )
    return findings


def default_paths():
    paths = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, "src")):
        for name in sorted(filenames):
            if name.endswith((".cpp", ".hpp")):
                paths.append(os.path.join(dirpath, name))
    return sorted(paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="hot-path and atomic memory-order lint (see module docstring)"
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="files to lint (default: every .cpp/.hpp under src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings format: text (file:line: [rule] message) or json "
        "(stable sorted document for CI artifact diffs)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule names this lint enforces and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "json":
            print(json.dumps({"rules": RULES}, indent=2, sort_keys=True))
        else:
            for name in sorted(RULES):
                print(f"{name}: {RULES[name]}")
        return 0

    paths = [os.path.abspath(f) for f in args.files] or default_paths()
    for path in paths:
        if not os.path.exists(path):
            print(f"ast_lint: no such file: {path}", file=sys.stderr)
            return 2

    findings = lint(paths)

    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))
    if args.format == "json":
        # Stable by construction: relative paths, deterministic sort, sorted
        # keys, no timestamps — two runs over the same tree diff empty.
        print(
            json.dumps(
                {
                    "checked_files": len(paths),
                    "findings": [f.as_dict() for f in ordered],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for f in ordered:
            print(f.render())
    if findings:
        print(
            f"ast_lint: {len(findings)} finding(s)",
            file=sys.stderr,
        )
        return 1
    print(f"ast_lint: OK [{len(paths)} file(s)]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
