#!/usr/bin/env python3
"""anyk_lint: project-specific invariants no generic tool knows.

The any-k engine promises zero global heap allocations on the enumeration
hot path (ROADMAP PR-3), flat open-addressing indexes instead of node-based
hash maps (PR-3), locale-independent parsing (PR-8), and — since the
static-analysis PR — a single annotated synchronization vocabulary
(src/util/sync.h). This linter encodes those house rules as cheap, line-based
checks over comment- and string-stripped source, so CI catches a regression
before a benchmark or a TSan interleaving ever could.

Rules (see docs/STATIC_ANALYSIS.md for the rationale of each):

  heap-hot-path        In enumeration hot-path files (src/anyk/, src/dp/):
                       no non-placement `new`, no make_unique/make_shared,
                       no node-based std containers (map/set/list/deque and
                       their unordered/multi variants). Placement new into an
                       arena is the blessed idiom and is allowed.
  unordered-map        `std::unordered_map` only inside the allowlist dirs
                       (src/query/, src/join/, src/workload/ — parse- and
                       reference-layer code); anywhere else needs a justified
                       suppression (the server's cold control-plane maps).
  locale-parse         No locale-dependent float parsing, formatting or
                       locale mutation: std::stod/stof/stold, atof,
                       strtod/strtof, setlocale, and floating-point
                       conversions (%g, %f, %e, %a) in *printf format
                       strings. Use std::from_chars / std::to_chars (see
                       src/storage/csv.cc, AppendResultRow).
  throwing-parse       No std::stoi/stol/stoll/stoul/stoull: on bad or
                       out-of-range input they throw std::invalid_argument /
                       std::out_of_range, which escape the CHECK path with
                       only the function name as the message. Use ParseSize
                       (src/util/parse.h) or std::from_chars and CHECK-fail
                       with a located message.
  lenient-parse        No strtol/strtoll/strtoul/strtoull/atoi/atol/atoll in
                       src/ and cli/: they saturate on overflow, accept a
                       sign and leading blanks, and ignore trailing bytes
                       unless the caller checks the end pointer. Use
                       ParseSize or std::from_chars over the whole field.
  env-knob             No getenv/secure_getenv in src/ and cli/:
                       configuration is a flag that --help lists, never an
                       environment variable that silently changes a run.
  one-heap             One priority queue, src/util/dary_heap.h: in src/ and
                       cli/ no other class or struct whose name ends in
                       `Heap`, and no std::priority_queue or
                       make_heap/push_heap/pop_heap/sort_heap.
  iostream-header      No `#include <iostream>` in library headers — it
                       injects a static iostream initializer into every TU.
  raw-mutex            `std::mutex` / `std::condition_variable` / std lock
                       RAII types appear only in src/util/sync.h; everything
                       else uses the thread-safety-annotated Mutex/MutexLock/
                       CondVar so Clang TSA sees every lock site.

Suppressions:
  // anyk-lint: allow(<rule>): <justification>        one finding — covers
      its own line, any directly attached comment block, and the next code
      line.
  // anyk-lint: allow-file(<rule>): <justification>   whole file (put it in
      the file's header comment; for files that are prepare-time by design).

Usage:
  scripts/anyk_lint.py --root .              # lint src/ and cli/
  scripts/anyk_lint.py --root . --self-test  # prove every rule fires, then lint
  scripts/anyk_lint.py --list-rules

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/internal.
Stdlib only; no third-party imports.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

# Prefix-matched: whole directories, plus individual files that feed the
# enumeration hot path from elsewhere (the sharding storage layer: ShardHash
# runs per row in the partition pass, and ShardedDatabase's staging loops are
# the same batch-bind kernels the enumerators drain through).
HOT_PATH_DIRS = ("src/anyk/", "src/dp/",
                 "src/storage/shard_hash.h", "src/storage/sharded_database.h")
UNORDERED_MAP_ALLOWED_DIRS = ("src/query/", "src/join/", "src/workload/")
SYNC_HEADER = "src/util/sync.h"
ONE_HEAP_HEADER = "src/util/dary_heap.h"

_HEAP_NEW = re.compile(r"\bnew\b(?!\s*\()")  # `new (addr) T` = placement, ok
_HEAP_MAKE = re.compile(r"\bstd::make_(?:unique|shared)\s*<")
_HEAP_CONTAINER = re.compile(
    r"\bstd::(?:unordered_)?(?:multi)?(?:map|set)\s*<|\bstd::(?:list|deque)\s*<"
)
_UNORDERED_MAP = re.compile(r"\bstd::unordered_map\s*<")
_LOCALE = re.compile(
    r"\bstd::sto(?:d|f|ld)\s*\(|\batof\s*\(|\bstrto(?:d|f|ld)\s*\(|\bsetlocale\s*\("
)
# A *printf call, and a floating-point conversion in its format string
# (flags, width, precision, length modifier, then one of aAeEfFgG); `%%`
# is a literal percent sign and is removed before matching.
_PRINTF_CALL = re.compile(r"\b\w*printf\s*\(")
_FLOAT_CONVERSION = re.compile(
    r"%[-+ #0']*(?:\d+|\*)?(?:\.(?:\d+|\*)?)?(?:hh|h|ll|l|L|j|z|t)?[aAeEfFgG]"
)
_THROWING_PARSE = re.compile(r"\b(?:std::)?sto(?:i|l|ll|ul|ull)\s*\(")
_LENIENT_PARSE = re.compile(
    r"\b(?:std::)?(?:strto(?:l|ll|ul|ull)|ato(?:i|l|ll))\s*\(")
_ENV_KNOB = re.compile(r"\b(?:std::)?(?:secure_)?getenv\s*\(")
# A class/struct named *Heap, but not a template parameter (`class Heap>`).
_HEAP_CLASS = re.compile(r"\b(?:class|struct)\s+\w*Heap\b(?!\s*[,>=])")
_STD_HEAP = re.compile(
    r"\bstd::priority_queue\b|\b(?:make|push|pop|sort)_heap\b")
_IOSTREAM = re.compile(r'#\s*include\s*<iostream>')
_RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|unique_lock|lock_guard|scoped_lock)\b"
)


@dataclass
class Rule:
    rule_id: str
    description: str

    def applies_to(self, relpath: str) -> bool:
        raise NotImplementedError

    def check_line(self, relpath: str, code: str) -> str | None:
        """Return a message if the stripped code line violates the rule."""
        raise NotImplementedError

    def check_file(self, relpath: str, code: list[str],
                   literals: list[list[str]]) -> dict[int, str]:
        """Findings that span lines: 0-based line index -> message.

        `code` is the stripped source, `literals[i]` the string-literal
        contents that stripping blanked on line i.
        """
        return {}


class HeapHotPath(Rule):
    def __init__(self) -> None:
        super().__init__(
            "heap-hot-path",
            "no non-placement new / make_unique / make_shared / node-based "
            "std containers in enumeration hot-path files (src/anyk/, src/dp/)",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(HOT_PATH_DIRS)

    def check_line(self, relpath: str, code: str) -> str | None:
        if code.lstrip().startswith("#"):
            return None  # preprocessor lines (#include <new>) never allocate
        if _HEAP_NEW.search(code):
            return ("non-placement `new` in a hot-path file; enumeration "
                    "state belongs in the per-query Arena")
        if _HEAP_MAKE.search(code):
            return ("make_unique/make_shared in a hot-path file; if this is "
                    "prepare-time setup, add a justified suppression")
        if _HEAP_CONTAINER.search(code):
            return ("node-based std container in a hot-path file; use "
                    "FlatKeyIndex/CSR or an ArenaVector")
        return None


class UnorderedMap(Rule):
    def __init__(self) -> None:
        super().__init__(
            "unordered-map",
            "std::unordered_map only in src/query/, src/join/, src/workload/ "
            "(PR-3 flat hot-path policy); elsewhere requires a suppression",
        )

    def applies_to(self, relpath: str) -> bool:
        if not relpath.startswith("src/"):
            return False
        if relpath.startswith(UNORDERED_MAP_ALLOWED_DIRS):
            return False
        # Hot-path dirs are already covered (more strictly) by heap-hot-path;
        # skip them so one bad line doesn't need two suppressions.
        return not relpath.startswith(HOT_PATH_DIRS)

    def check_line(self, relpath: str, code: str) -> str | None:
        if _UNORDERED_MAP.search(code):
            return ("std::unordered_map outside the allowlist dirs; use "
                    "FlatKeyIndex, or justify a cold-path exception")
        return None


class LocaleParse(Rule):
    def __init__(self) -> None:
        super().__init__(
            "locale-parse",
            "no locale-dependent parsing (stod/atof/strtod/setlocale) or "
            "printf float formatting (%g/%f/%e); std::from_chars and "
            "std::to_chars are locale-independent",
        )

    def applies_to(self, relpath: str) -> bool:
        return True

    def check_line(self, relpath: str, code: str) -> str | None:
        if _LOCALE.search(code):
            return ("locale-dependent parse or locale mutation; use "
                    "std::from_chars (see src/storage/csv.cc)")
        return None

    def check_file(self, relpath: str, code: list[str],
                   literals: list[list[str]]) -> dict[int, str]:
        # printf's radix character follows LC_NUMERIC, so a float conversion
        # prints "2,5" under a comma-decimal locale. Every line of a *printf
        # call's argument list is checked: the format string often sits on
        # the line after `snprintf(`.
        hits: dict[int, str] = {}
        depth = 0
        for idx, line in enumerate(code):
            pos = 0
            in_call = depth > 0
            while True:
                if depth == 0:
                    m = _PRINTF_CALL.search(line, pos)
                    if m is None:
                        break
                    depth, pos, in_call = 1, m.end(), True
                while pos < len(line) and depth > 0:
                    depth += {"(": 1, ")": -1}.get(line[pos], 0)
                    pos += 1
                if depth > 0:
                    break
            if in_call and any(_FLOAT_CONVERSION.search(lit.replace("%%", ""))
                               for lit in literals[idx]):
                hits[idx] = ("floating-point conversion in a printf format "
                             "follows the process locale; use std::to_chars "
                             "(see AppendResultRow in src/anyk/query_handle.h)")
        return hits


class ThrowingParse(Rule):
    def __init__(self) -> None:
        super().__init__(
            "throwing-parse",
            "no std::stoi/stol/stoll/stoul/stoull in src/ and cli/: their "
            "exceptions escape the CHECK path named only 'stoull'; use "
            "ParseSize or std::from_chars",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "cli/"))

    def check_line(self, relpath: str, code: str) -> str | None:
        if _THROWING_PARSE.search(code):
            return ("std::sto* throws invalid_argument/out_of_range with the "
                    "function name as its only message; parse with "
                    "ParseSize (src/util/parse.h) or std::from_chars and "
                    "CHECK-fail with a located message")
        return None


class LenientParse(Rule):
    def __init__(self) -> None:
        super().__init__(
            "lenient-parse",
            "no strtol/strtoll/strtoul/strtoull/atoi/atol/atoll in src/ and "
            "cli/: they saturate, accept signs and ignore trailing bytes; "
            "use ParseSize or std::from_chars",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "cli/"))

    def check_line(self, relpath: str, code: str) -> str | None:
        if _LENIENT_PARSE.search(code):
            return ("strtol-family / atoi parse leniently: they saturate on "
                    "overflow, accept a sign and leading blanks, and ignore "
                    "trailing bytes; parse the whole field with ParseSize "
                    "(src/util/parse.h) or std::from_chars")
        return None


class EnvKnob(Rule):
    def __init__(self) -> None:
        super().__init__(
            "env-knob",
            "no getenv/secure_getenv in src/ and cli/: configuration is a "
            "flag that --help lists",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "cli/"))

    def check_line(self, relpath: str, code: str) -> str | None:
        if _ENV_KNOB.search(code):
            return ("environment lookup changes a run behind --help's back; "
                    "make it a flag (or an option field) instead")
        return None


class OneHeap(Rule):
    def __init__(self) -> None:
        super().__init__(
            "one-heap",
            "one priority queue (src/util/dary_heap.h): no other class or "
            "struct named *Heap and no std::priority_queue / std heap "
            "algorithms in src/ and cli/",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("src/", "cli/"))

    def check_line(self, relpath: str, code: str) -> str | None:
        if relpath != ONE_HEAP_HEADER and _HEAP_CLASS.search(code):
            return ("a second heap class; use DAryHeap / BoundedHeap "
                    "(src/util/dary_heap.h) at the arity you need")
        if _STD_HEAP.search(code):
            return ("std::priority_queue / std heap algorithms duplicate "
                    "DAryHeap; use it (src/util/dary_heap.h)")
        return None


class IostreamHeader(Rule):
    def __init__(self) -> None:
        super().__init__(
            "iostream-header",
            "no #include <iostream> in library headers (src/**/*.h)",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and relpath.endswith(".h")

    def check_line(self, relpath: str, code: str) -> str | None:
        if _IOSTREAM.search(code):
            return ("<iostream> in a library header adds a static "
                    "initializer to every includer; use <ostream> or move "
                    "the printing into a .cc")
        return None


class RawMutex(Rule):
    def __init__(self) -> None:
        super().__init__(
            "raw-mutex",
            "std::mutex/condition_variable and std lock RAII only in "
            "src/util/sync.h; use the annotated Mutex/MutexLock/CondVar",
        )

    def applies_to(self, relpath: str) -> bool:
        return relpath != SYNC_HEADER

    def check_line(self, relpath: str, code: str) -> str | None:
        if _RAW_MUTEX.search(code):
            return ("raw std synchronization primitive outside "
                    "src/util/sync.h defeats Clang Thread Safety Analysis; "
                    "use anyk::Mutex / MutexLock / CondVar")
        return None


RULES: list[Rule] = [
    HeapHotPath(),
    UnorderedMap(),
    LocaleParse(),
    ThrowingParse(),
    LenientParse(),
    EnvKnob(),
    OneHeap(),
    IostreamHeader(),
    RawMutex(),
]

# ---------------------------------------------------------------------------
# Source model: strip comments and literals, collect suppressions
# ---------------------------------------------------------------------------

_ALLOW = re.compile(r"anyk-lint:\s*allow\(([a-z0-9-]+)\)")
_ALLOW_FILE = re.compile(r"anyk-lint:\s*allow-file\(([a-z0-9-]+)\)")


def strip_code(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    """Return per-line code with comments and string/char literals blanked,
    plus the contents of each line's "..." literals.

    A tiny state machine, not a real lexer: tracks // and /* */ comments and
    "..." / '...' literals with backslash escapes. Raw strings are treated as
    ordinary strings, which errs toward blanking too much — fine for linting.
    """
    out: list[str] = []
    literals: list[list[str]] = []
    in_block = False
    for line in lines:
        buf: list[str] = []
        line_literals: list[str] = []
        i, n = 0, len(line)
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if c == "/" and nxt == "/":
                break  # rest of line is comment
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                i += 1
                start = i
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                if quote == '"':
                    line_literals.append(line[start:i - 1])
                buf.append(quote + quote)  # keep delimiters, drop contents
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
        literals.append(line_literals)
    return out, literals


@dataclass
class Finding:
    relpath: str
    line: int  # 1-based
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass
class FileReport:
    findings: list[Finding] = field(default_factory=list)
    unused_suppressions: list[tuple[int, str]] = field(default_factory=list)


def lint_text(relpath: str, text: str) -> FileReport:
    lines = text.splitlines()
    code, literals = strip_code(lines)
    report = FileReport()
    file_hits = {rule.rule_id: rule.check_file(relpath, code, literals)
                 for rule in RULES if rule.applies_to(relpath)}

    file_allows: set[str] = set()
    for line in lines:
        for m in _ALLOW_FILE.finditer(line):
            file_allows.add(m.group(1))

    # Line suppressions: an allow(...) covers its own line and stays pending
    # through any directly attached comment/blank lines plus the next code
    # line (so a multi-line justification comment above a declaration works).
    pending: dict[str, int] = {}  # rule_id -> line where declared
    used: set[int] = set()
    declared: list[tuple[int, str]] = []

    for idx, raw in enumerate(lines):
        lineno = idx + 1
        for m in _ALLOW.finditer(raw):
            pending[m.group(1)] = lineno
            declared.append((lineno, m.group(1)))

        stripped = code[idx].strip()
        is_code = bool(stripped)
        for rule in RULES:
            if not rule.applies_to(relpath):
                continue
            message = rule.check_line(relpath, code[idx]) if is_code else None
            if message is None:
                message = file_hits[rule.rule_id].get(idx)
            if message is None:
                continue
            if rule.rule_id in file_allows:
                continue
            if rule.rule_id in pending:
                used.add(pending[rule.rule_id])
                continue
            report.findings.append(Finding(relpath, lineno, rule.rule_id, message))
        if is_code:
            pending.clear()  # consumed by this code line

    for lineno, rule_id in declared:
        if lineno not in used:
            report.unused_suppressions.append((lineno, rule_id))
    return report


# ---------------------------------------------------------------------------
# Tree walk
# ---------------------------------------------------------------------------

LINT_DIRS = ("src", "cli")
EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")


def collect_files(root: str) -> list[str]:
    files: list[str] = []
    for top in LINT_DIRS:
        base = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append(os.path.relpath(full, root))
    return sorted(files)


def lint_tree(root: str, verbose: bool) -> int:
    findings: list[Finding] = []
    stale: list[str] = []
    files = collect_files(root)
    for relpath in files:
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            report = lint_text(relpath.replace(os.sep, "/"), f.read())
        findings.extend(report.findings)
        for lineno, rule_id in report.unused_suppressions:
            stale.append(f"{relpath}:{lineno}: suppression allow({rule_id}) "
                         "matches nothing; delete it")
    for f_ in findings:
        print(f_.render())
    for s in stale:
        print(s)
    status = "FAILED" if (findings or stale) else "OK"
    print(f"anyk_lint: {len(files)} files, {len(findings)} finding(s), "
          f"{len(stale)} stale suppression(s): {status}")
    if verbose and not findings:
        for relpath in files:
            print(f"  clean: {relpath}")
    return 1 if (findings or stale) else 0


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on the
# suppressed/blessed variant. This runs in-memory — no temp files.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, relpath, source, expected rule ids)
    ("hot-path new",
     "src/anyk/bad.h", "int* p = new int[8];\n", {"heap-hot-path"}),
    ("hot-path make_unique",
     "src/dp/bad.h", "auto g = std::make_unique<StageGraph<D>>();\n",
     {"heap-hot-path"}),
    ("hot-path node container",
     "src/anyk/bad.h", "std::unordered_set<int> seen;\n", {"heap-hot-path"}),
    ("placement new is the arena idiom",
     "src/anyk/ok.h", "auto* cd = new (arena->Allocate(8, 8)) ConnData();\n",
     set()),
    ("#include <new> is not an allocation",
     "src/anyk/ok.h", "#include <new>\n", set()),
    ("prose 'new' in a comment does not fire",
     "src/anyk/ok.h", "// one new subspace per remaining stage\nint x;\n",
     set()),
    ("suppressed make_unique",
     "src/dp/ok.h",
     "// anyk-lint: allow(heap-hot-path): prepare-time construction\n"
     "auto g = std::make_unique<StageGraph<D>>();\n",
     set()),
    ("file-level suppression",
     "src/anyk/ok.h",
     "// anyk-lint: allow-file(heap-hot-path): prepare-time by design\n"
     "auto a = std::make_unique<A>();\nauto b = std::make_unique<B>();\n",
     set()),
    ("stale suppression is itself a finding",
     "src/anyk/stale.h",
     "// anyk-lint: allow(heap-hot-path): nothing here anymore\nint x;\n",
     {"<stale>"}),
    ("unordered_map outside allowlist",
     "src/storage/bad.h", "std::unordered_map<int, int> m;\n",
     {"unordered-map"}),
    ("unordered_map inside allowlist",
     "src/query/ok.cc", "std::unordered_map<int, int> m;\n", set()),
    ("stod is locale-dependent",
     "src/storage/bad.cc", "double w = std::stod(cell);\n", {"locale-parse"}),
    ("atof in cli",
     "cli/bad.cc", "double q = atof(argv[1]);\n", {"locale-parse"}),
    ("from_chars is fine",
     "src/storage/ok.cc",
     "auto r = std::from_chars(p, end, value);\n", set()),
    ("stod in a comment/string does not fire",
     "src/storage/ok.cc",
     "// std::stod honors the locale, so we avoid it\n"
     "const char* msg = \"std::stod(x)\";\n",
     set()),
    ("printf %g in src",
     "src/util/bad.h", 'std::snprintf(buf, sizeof(buf), "%.6g", v);\n',
     {"locale-parse"}),
    ("fprintf %f in cli",
     "cli/bad.cc", 'std::fprintf(stderr, "took %.3f s\\n", secs);\n',
     {"locale-parse"}),
    ("format string on the line after snprintf(",
     "src/server/bad.cc",
     "const int n = std::snprintf(\n"
     '    buf, sizeof(buf), "%e",\n'
     "    x);\n",
     {"locale-parse"}),
    ("%zu is not a float conversion",
     "cli/ok.cc", 'std::printf("loaded %zu rows\\n", n);\n', set()),
    ("\\u%04x is not a float conversion",
     "src/util/ok.h", 'std::snprintf(buf, sizeof(buf), "\\\\u%04x", c);\n',
     set()),
    ("%% is a literal percent sign",
     "cli/ok.cc", 'std::printf("100%%g\\n");\n', set()),
    ("a float format outside a printf call does not fire",
     "src/util/ok.h", 'const char* kDoc = "%.6g";\n', set()),
    ("stoull is a throwing parse",
     "src/query/bad.cc", "syn.limit = std::stoull(k.text);\n",
     {"throwing-parse"}),
    ("stoi in cli",
     "cli/bad.cc", "const int n = std::stoi(argv[1]);\n", {"throwing-parse"}),
    ("ParseSize and from_chars are fine",
     "src/query/ok.cc",
     "const bool ok = ParseSize(k.text, &limit);\n"
     "auto r = std::from_chars(p, end, value);\n",
     set()),
    ("stoull in a comment/string does not fire",
     "src/query/ok.cc",
     "// std::stoull(k.text) throws out_of_range past 2^64 - 1\n"
     "const char* msg = \"std::stoull(x)\";\n",
     set()),
    ("strtoull is a lenient parse",
     "src/server/bad.cc",
     "const unsigned long long n = std::strtoull(v.c_str(), &endp, 10);\n",
     {"lenient-parse"}),
    ("strtol without std::",
     "src/query/bad.cc", "const long idx = strtol(s + 1, nullptr, 10);\n",
     {"lenient-parse"}),
    ("atoi in cli",
     "cli/bad.cc", "const int port = std::atoi(argv[1]);\n",
     {"lenient-parse"}),
    ("strtold is locale-parse, not lenient-parse",
     "src/util/bad.cc", "long double x = strtold(s, nullptr);\n",
     {"locale-parse"}),
    ("strtoull in a comment/string does not fire",
     "src/server/ok.cc",
     "// strtoull accepts \"-0\", so Content-Length goes through ParseSize\n"
     "const char* msg = \"atoi(x)\";\n",
     set()),
    ("getenv is an env knob",
     "src/storage/bad.cc",
     "if (const char* env = std::getenv(\"ANYK_X\")) Use(env);\n",
     {"env-knob"}),
    ("secure_getenv in cli",
     "cli/bad.cc", "const char* home = secure_getenv(\"HOME\");\n",
     {"env-knob"}),
    ("getenv in a comment does not fire",
     "src/util/ok.h", "// no std::getenv here: flags only\nint x;\n", set()),
    ("a second heap class",
     "src/util/bad.h", "template <typename T>\nclass BinaryHeap {\n};\n",
     {"one-heap"}),
    ("a heap struct in cli",
     "cli/bad.cc", "struct MergeHeap {\n  int top;\n};\n", {"one-heap"}),
    ("std::priority_queue",
     "src/server/bad.cc", "std::priority_queue<int> pq;\n", {"one-heap"}),
    ("std heap algorithms",
     "src/join/bad.cc",
     "std::make_heap(v.begin(), v.end());\npop_heap(v.begin(), v.end());\n",
     {"one-heap"}),
    ("dary_heap.h defines the heaps",
     "src/util/dary_heap.h",
     "class DAryHeap {\n};\nclass BoundedHeap {\n};\n", set()),
    ("BoundedHeapStats is not a heap",
     "src/util/ok.h", "struct BoundedHeapStats {\n  size_t max_size;\n};\n",
     set()),
    ("a DAryHeap alias is not a second heap",
     "src/anyk/ok.h",
     "using ConnHeap = DAryHeap<uint32_t, Cmp, ArenaAllocator<uint32_t>, 2>;\n",
     set()),
    ("a template parameter named Heap is not a class",
     "src/anyk/ok.h", "template <class Heap>\nvoid Drain(Heap* h);\n", set()),
    ("tests may keep a std::priority_queue oracle",
     "tests/ok.cc",
     "std::priority_queue<int> oracle;\nstruct FakeHeap {};\n", set()),
    ("iostream in a library header",
     "src/util/bad.h", "#include <iostream>\n", {"iostream-header"}),
    ("iostream in a .cc is fine",
     "cli/ok.cc", "#include <iostream>\n", set()),
    ("raw std::mutex outside sync.h",
     "src/server/bad.h", "std::mutex mu_;\n", {"raw-mutex"}),
    ("raw unique_lock outside sync.h",
     "src/server/bad.cc",
     "std::unique_lock<std::mutex> lock(mu_);\n", {"raw-mutex"}),
    ("sync.h itself may use std::mutex",
     "src/util/sync.h", "std::mutex mu_;\n", set()),
    ("sharding storage files are hot-path",
     "src/storage/shard_hash.h", "int* p = new int[8];\n",
     {"heap-hot-path"}),
    ("sharded database staging is hot-path",
     "src/storage/sharded_database.h", "std::unordered_set<int> seen;\n",
     {"heap-hot-path"}),
    ("other storage files stay cold-path",
     "src/storage/columnar.h", "auto s = std::make_unique<Segment>();\n",
     set()),
    ("multi-line justification comment still suppresses",
     "src/server/ok.h",
     "// anyk-lint: allow(unordered-map): cold control plane, bounded by\n"
     "// the session gauge; never on the enumeration hot path.\n"
     "std::unordered_map<std::string, int> map_;\n",
     set()),
]


def run_self_test() -> int:
    failures = 0
    for name, relpath, source, expected in SELF_TEST_CASES:
        report = lint_text(relpath, source)
        got = {f.rule_id for f in report.findings}
        if report.unused_suppressions:
            got.add("<stale>")
        if got != expected:
            failures += 1
            print(f"self-test FAILED: {name}: expected {sorted(expected)}, "
                  f"got {sorted(got)}")
    n = len(SELF_TEST_CASES)
    print(f"anyk_lint self-test: {n - failures}/{n} cases passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/ and cli/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation "
                             "before linting the tree")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}: {rule.description}")
        return 0

    if args.self_test and run_self_test() != 0:
        return 1
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"anyk_lint: no src/ under --root {args.root!r}", file=sys.stderr)
        return 2
    return lint_tree(args.root, args.verbose)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
