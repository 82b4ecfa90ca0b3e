#!/usr/bin/env python3
"""Repo lint for ssjoin. Runs as the `ssjoin_lint` ctest test.

Line rules (regexes over source lines with comments blanked):

  no-raw-rand          `rand()` / `std::rand` / `srand` make experiments
                       irreproducible across platforms; use the seeded PCG32
                       in util/random.h.
  no-assert            `assert(` vanishes in NDEBUG builds *silently*; use
                       SSJOIN_CHECK / SSJOIN_DCHECK (util/check.h), which
                       are explicit about their build-mode behavior and
                       print file:line with a formatted message.
  pragma-once          every header uses `#pragma once` (no #ifndef-style
                       include guards, no unguarded headers).
  no-using-namespace   `using namespace` in a header leaks into every
                       includer; fully qualify or alias instead.
  no-dropped-status    a bare-statement call to a util::Status-returning
                       guardrail/IO function (Checkpoint, CheckBreaker,
                       SaveSetsBinary, ...) silently discards a trip or an
                       IO failure, even behind `(void)`; propagate it
                       (SSJOIN_RETURN_NOT_OK, assign, or branch on it).
  no-raw-timing        src/core must not time phases with raw PhaseTimer /
                       Stopwatch (util/timer.h) or <chrono> clock reads;
                       the clock stays in src/obs: operator timing goes
                       through obs::OpInstrument (Operator::Pull).
                       execution_guard.{h,cc} are exempt (deadline
                       enforcement needs a wall clock, not telemetry).
  no-unchecked-io      a bare-statement call to a C stdio / POSIX write
                       primitive (fwrite, fflush, fclose, fsync, ...)
                       discards the only notification of a short write or
                       a full disk; consume the result (branch on it or
                       fold it into a Status). Destructor-style
                       best-effort closes may suppress with an allow
                       marker and a justification.
  telemetry-registry   every span / attribute / metric / explain name
                       emitted as a string literal from src/ must be
                       registered in src/obs/stability.h (the single
                       vocabulary the exporters, the explain layer, and
                       downstream diff tooling agree on). Emissions through
                       obs::names:: constants are registered by
                       construction; a raw literal that is not in the
                       registry is a typo or an unregistered name.

Structure rules (a dependency-free parser over src/ and tools/: brace
scopes, function extents, a name-level call graph, class member lists):

  deterministic-iteration  range-for over std::unordered_map/unordered_set
                           (or their multi variants) inside a function
                           that can reach a result sink (Write*/Save*
                           exporters). Unordered iteration order is not
                           part of the determinism contract (DESIGN.md
                           Section 7); anything on a path to external
                           bytes must iterate a sorted container or sort
                           before emitting.
  no-unjoined-thread       std::thread / std::jthread outside
                           util/thread_pool.{h,cc}. All parallelism goes
                           through ThreadPool so threads are always
                           joined and exceptions are propagated.
  status-must-use          a call to a Status/Result-returning function
                           used as a bare expression statement. Mirrors
                           the class-level [[nodiscard]] on
                           util::Status; `(void)Call();` is the explicit
                           opt-out.
  mutex-wrapper-only       bare <mutex>/<condition_variable> vocabulary
                           (std::mutex, std::lock_guard, ...) outside
                           util/thread_annotations.h. The util::Mutex /
                           util::MutexLock / util::CondVar wrappers carry
                           the Clang Thread Safety capability
                           annotations; bare std primitives are invisible
                           to -Wthread-safety.
  guarded-by-required      in a class that owns a util::Mutex, every
                           mutable data member must carry
                           SSJOIN_GUARDED_BY / SSJOIN_PT_GUARDED_BY or an
                           explicit allow-comment, so *deleting* a
                           GUARDED_BY is a test failure (members of
                           atomic, Mutex, CondVar, or const type are
                           exempt — they need no capability).
  operator-contract        a class deriving from the pipeline Operator
                           base must override Close(). Close() is where
                           an operator records its PlanOp in the explain
                           plan tree; Plan::Run closes every operator on
                           every exit path, so a subclass that inherits
                           the base no-op silently drops its row counts
                           from EXPLAIN output (src/core/pipeline/operator.h).

The call graph is name-level: two functions with one name are one node,
so an unrelated namesake of a sink caller also counts as reaching it.

Usage:
  tools/lint/ssjoin_lint.py [--root REPO_ROOT] [--self-test] [--list-rules]

Exit status: 0 clean, 1 violations (printed as file:line: rule: message),
2 usage error. Suppress a single line with a trailing
`// ssjoin-lint: allow(<rule>)` comment — use sparingly and justify it in
an adjacent comment.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import re
import sys
from pathlib import Path

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# rule -> (paths, relative to the repo root, it patrols; files exempt
# from it outright — the implementation sites).
RULES = {
    "no-raw-rand": (("src", "tools", "bench", "examples"), ()),
    "no-assert": (("src",), ()),
    "pragma-once": (("src", "tools", "bench", "tests"), ()),
    "no-using-namespace": (("src", "tools", "bench"), ()),
    "no-dropped-status": (("src", "tools", "bench", "examples"), ()),
    # The guard needs a real clock for deadlines; everything else in
    # src/core times joins through the obs seams.
    "no-raw-timing": (("src/core",), ("src/core/execution_guard.h",
                                      "src/core/execution_guard.cc")),
    "no-unchecked-io": (("src", "tools", "bench"), ()),
    "telemetry-registry": (("src",), ("src/obs/stability.h",)),
    "deterministic-iteration": (("src",), ()),
    "no-unjoined-thread": (("src", "tools"), ("src/util/thread_pool.h",
                                              "src/util/thread_pool.cc")),
    "status-must-use": (("src", "tools"), ()),
    "mutex-wrapper-only": (("src", "tools"),
                           ("src/util/thread_annotations.h",)),
    "guarded-by-required": (("src",), ()),
    "operator-contract": (("src",), ()),
}

# The structure rules' facts (call graph, Status-returning names, class
# shapes) come from these directories only, whatever the rule scopes.
STRUCTURE_DIRS = ("src", "tools")

ALLOW_RE = re.compile(r"//\s*ssjoin-lint:\s*allow\(([a-z-]+)\)")

# Lint self-test fixtures: deliberately-bad miniature repo trees that must
# never be linted as part of the real tree. `--self-test` lints each tree
# and diffs the findings against `// expect(<rule>)` markers.
FIXTURE_DIR = ("tests", "lint", "fixtures")
FIXTURE_TREES = ("regex", "ast")
EXPECT_RE = re.compile(r"//\s*expect\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# Line rules
# ---------------------------------------------------------------------------

# telemetry-registry: the registry file and the emission seams it guards.
STABILITY_HEADER = "src/obs/stability.h"
# Methods/functions whose first string-literal argument is a telemetry
# name: JoinTelemetry (Sample/Attr/Event/AddCount/SetGauge), Tracer
# (StartSpan/SetAttr/AddEvent), MetricsRegistry
# (counter/gauge/histogram), the explain seams (SetParam/Predict/
# Actual + their null-safe Record* wrappers), and the structured-log
# seams (Logger::Log / the null-safe LogEvent wrapper, whose event name
# is the first literal after the level). Calls that pass a
# names:: constant (or any non-literal) are skipped — they are registered
# by construction.
TELEMETRY_CALL_RE = re.compile(
    r"(?<![\w:])(?:StartSpan|AddCount|SetGauge|SetAttr|AddEvent|"
    r"Attr|LogEvent|Log|Event|Sample|counter|gauge|histogram|"
    r"RecordParam|RecordPrediction|RecordActual|SetParam|Predict|Actual)"
    r"\s*\(")
STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

RAW_RAND_RE = re.compile(r"(?<![\w:.])(std\s*::\s*)?s?rand\s*\(")
ASSERT_RE = re.compile(r"(?<![\w:.])(assert\s*\(|static_assert\s*\()")
CASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')
USING_NAMESPACE_RE = re.compile(r"(?<!\w)using\s+namespace\s+[\w:]+")
INCLUDE_GUARD_RE = re.compile(r"#\s*ifndef\s+\w*_H_?\b")
# Functions whose util::Status return must not be discarded. A line that
# consists of nothing but such a call (optionally through `obj.` / `ptr->`)
# followed by `;` drops the Status on the floor: a guard trip or an IO
# failure would vanish. `return f(...)`, `auto s = f(...)`,
# `SSJOIN_RETURN_NOT_OK(f(...))` and `if (f(...).ok())` all keep the value
# and do not match (the call is then not the start of the statement).
STATUS_FUNCTIONS = ("Checkpoint", "CheckBreaker", "SaveSetsBinary",
                    "SavePairsBinary", "Validate")
DROPPED_STATUS_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:\w+(?:\.|->))?(%s)\s*\(.*\)\s*;\s*$"
    % "|".join(STATUS_FUNCTIONS))
# I/O primitives whose int/size_t result is the only report of a short
# write, ENOSPC, or a buffered-write failure surfacing at flush/close.
# A line that is nothing but such a call (even behind a `(void)` cast)
# throws that report away. Member-style calls (`out.write(...)` on a
# stream whose state is checked afterwards) deliberately do not match.
IO_FUNCTIONS = ("fwrite", "fread", "fflush", "fclose", "fsync",
                "fdatasync", "ftruncate", "pwrite", "pread")
UNCHECKED_IO_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:std\s*::\s*)?(%s)\s*\(.*\)\s*;\s*$"
    % "|".join(IO_FUNCTIONS))
# Raw timing machinery forbidden in src/core: the util/timer.h include
# (PhaseTimer / Stopwatch / ScopedTimer live there) and direct <chrono>
# clock reads. `#include <chrono>` alone is also flagged — core code that
# needs elapsed time gets it from an obs seam instead (an operator's
# Pull).
TIMER_INCLUDE_RE = re.compile(r'#\s*include\s*"util/timer\.h"')
CHRONO_INCLUDE_RE = re.compile(r"#\s*include\s*<chrono>")
CHRONO_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*\w*clock\w*\s*::\s*now\s*\(")


@dataclasses.dataclass
class Finding:
    file: str   # path relative to root, posix separators
    line: int   # 1-based
    rule: str
    message: str
    suppressible: bool = True

    def key(self):
        return (self.file, self.line, self.rule)


def strip(text, strings=True):
    """Blanks comments — and, with `strings`, the contents of string and
    char literals — with spaces, keeping every offset and newline so a
    position in the result is the same position in the source.
    Preprocessor lines stay: the line rules read #include and #ifndef."""
    out = list(text)
    n = len(text)
    i = 0

    def blank(start, end):
        for j in range(start, min(end, n)):
            if text[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            blank(i, end)
            i = end
            continue
        if c == '"' and i > 0 and text[i - 1] == "R":
            m = re.match(r'R"([^()\s\\"]{0,16})\(', text[i - 1:i + 20])
            if m:
                delim = ")" + m.group(1) + '"'
                end = text.find(delim, i + 1)
                end = n if end < 0 else end + len(delim)
                if strings:
                    blank(i + 1, end - 1)
                i = end
                continue
        if c == '"' or c == "'":
            if c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEFxX" \
                    and i + 1 < n and text[i + 1].isalnum():
                i += 1  # digit separator, e.g. 1'000'000
                continue
            i += 1
            start = i
            while i < n and text[i] != c:
                i += 2 if text[i] == "\\" else 1
            if strings:
                blank(start, i)
            i += 1
            continue
        i += 1
    return "".join(out)


def blank_directives(code):
    """Blanks preprocessor directives (with their \\-continuations), so
    the structure rules see only declarations and statements."""
    lines = code.split("\n")
    j = 0
    while j < len(lines):
        if lines[j].lstrip().startswith("#"):
            while True:
                cont = lines[j].rstrip().endswith("\\")
                lines[j] = " " * len(lines[j])
                if not cont or j + 1 >= len(lines):
                    break
                j += 1
        j += 1
    return "\n".join(lines)


def load_telemetry_registry(root):
    """Every string literal in src/obs/stability.h (comments stripped) is
    a registered telemetry name. None disables the rule (header missing,
    e.g. a partial checkout)."""
    path = root / STABILITY_HEADER
    if not path.is_file():
        return None
    code = strip(path.read_text(encoding="utf-8", errors="replace"),
                 strings=False)
    return {m.group(1) for m in STRING_LIT_RE.finditer(code)}


def line_findings(rel, suffix, raw, code, registry):
    """The line rules over one file, before scopes and allow markers."""
    found = []

    def report(lineno, rule, message, suppressible=True):
        found.append(Finding(rel, lineno, rule, message, suppressible))

    header = suffix in HEADER_SUFFIXES
    raw_lines = raw.split("\n")
    for lineno, line in enumerate(code.split("\n"), start=1):
        if RAW_RAND_RE.search(line):
            report(lineno, "no-raw-rand",
                   "use the seeded Rng from util/random.h, not "
                   "rand()/srand()")
        m = ASSERT_RE.search(line)
        if m and not m.group(1).startswith("static_assert"):
            report(lineno, "no-assert",
                   "use SSJOIN_CHECK/SSJOIN_DCHECK from util/check.h "
                   "instead of assert()")
        if CASSERT_INCLUDE_RE.search(line):
            report(lineno, "no-assert",
                   "do not include <cassert>; use util/check.h")
        m = DROPPED_STATUS_RE.match(line)
        if m:
            report(lineno, "no-dropped-status",
                   f"util::Status returned by {m.group(1)}() is "
                   "discarded; propagate it "
                   "(SSJOIN_RETURN_NOT_OK / assign / branch)")
        m = UNCHECKED_IO_RE.match(line)
        if m:
            report(lineno, "no-unchecked-io",
                   f"result of {m.group(1)}() is discarded — a short "
                   "write / ENOSPC / deferred flush error vanishes; "
                   "consume it (branch or fold into a Status)")
        # The include path is a string literal, which the stripper
        # blanks — match it on the raw line instead.
        if (TIMER_INCLUDE_RE.search(raw_lines[lineno - 1])
                or CHRONO_INCLUDE_RE.search(line)
                or CHRONO_CLOCK_RE.search(line)):
            report(lineno, "no-raw-timing",
                   "src/core times joins through the obs seams, not raw "
                   "util/timer.h or std::chrono clocks (execution_guard "
                   "is the only exemption)")
        if header and USING_NAMESPACE_RE.search(line):
            report(lineno, "no-using-namespace",
                   "headers must not contain `using namespace`")

    if registry is not None:
        with_strings = strip(raw, strings=False)
        for m in TELEMETRY_CALL_RE.finditer(with_strings):
            # The name argument is the first string literal of the
            # statement (calls may wrap across lines). No literal = a
            # names:: constant or a runtime value — registered by
            # construction or out of this rule's reach.
            stmt = with_strings[m.end():m.end() + 240].split(";", 1)[0]
            lit = STRING_LIT_RE.search(stmt)
            if lit and lit.group(1) not in registry:
                report(with_strings[:m.start()].count("\n") + 1,
                       "telemetry-registry",
                       f'telemetry name "{lit.group(1)}" is not registered '
                       "in src/obs/stability.h (add it to the names:: "
                       "vocabulary or emit a registered constant)")

    if header:
        if "#pragma once" not in raw:
            report(1, "pragma-once", "header lacks `#pragma once`",
                   suppressible=False)
        m = INCLUDE_GUARD_RE.search(code)
        if m:
            report(code[:m.start()].count("\n") + 1, "pragma-once",
                   "use `#pragma once`, not #ifndef include guards "
                   "(repo convention)")
    return found


# ---------------------------------------------------------------------------
# Structure rules: facts
# ---------------------------------------------------------------------------

# The pipeline Operator base: subclasses are identified by this exact
# unqualified base-class name.
OPERATOR_BASE = "Operator"

# Result sinks: functions whose output is externally visible bytes. A
# function "reaches a sink" when its name-based call graph can reach one
# of these (or it is one).
SINK_FUNCTIONS = frozenset({
    "WriteTextFile", "WriteTraceJsonl", "WriteMetricsJsonl",
    "WriteChromeTrace", "WriteJsonlReport", "WriteTraceAuto",
    "WriteExplainJsonl", "SaveStrings", "SaveSets", "SaveSetsBinary",
})

THREAD_RE = re.compile(r"\bstd\s*::\s*(jthread|thread)\b(?!\s*::)")
MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(recursive_timed_mutex|recursive_mutex|shared_timed_mutex|"
    r"shared_mutex|timed_mutex|mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable_any|condition_variable|call_once|"
    r"once_flag)\b")
UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b")
STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]|\bstatic\s|\bfriend\s)\s*(?:::)?(?:ssjoin\s*::\s*)?"
    r"(?:Status|Result\s*<[^;{}()]*>)\s+([A-Za-z_]\w*)\s*\(", re.M)
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "alignof",
    "noexcept", "decltype", "assert", "defined", "new", "delete", "throw",
    "case", "do", "else", "goto", "not", "and", "or", "co_await",
    "co_return", "co_yield", "static_assert", "requires",
})
SPECIFIER_WORDS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try",
})
ACCESS_RE = re.compile(r"^\s*(?:public|private|protected)\s*:")
MEMBER_RE = re.compile(
    r"\b([A-Za-z_]\w*_)\s*"
    r"((?:SSJOIN_\w+\s*\([^()]*\)\s*)*)"
    r"(=[^;]*)?$")
MEMBER_EXEMPT_RE = re.compile(
    r"std\s*::\s*atomic\b|\bMutex\b|\bCondVar\b|\bconst\b|\bstatic\b|"
    r"\bconstexpr\b|\busing\b|\bfriend\b|\btypedef\b")
MUTEX_MEMBER_RE = re.compile(r"\bMutex\s+[A-Za-z_]\w*_?\s*$")
DISCARD_RE = re.compile(
    r"^(\(\s*void\s*\)\s*)?((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*)"
    r"([A-Za-z_]\w*)\s*\(")


@dataclasses.dataclass
class FunctionFact:
    file: str
    line: int
    name: str
    qualname: str
    calls: set
    unordered_fors: list  # [(line, expr_text)]
    end: int = -1


@dataclasses.dataclass
class MemberFact:
    line: int
    name: str
    guarded: bool
    exempt: bool


@dataclasses.dataclass
class ClassFact:
    file: str
    line: int
    name: str
    bases: list
    has_mutex: bool = False
    has_close: bool = False
    members: list = dataclasses.field(default_factory=list)
    end: int = -1


@dataclasses.dataclass
class RepoFacts:
    functions: list = dataclasses.field(default_factory=list)
    classes: list = dataclasses.field(default_factory=list)
    thread_uses: list = dataclasses.field(default_factory=list)  # (file, line, what)
    mutex_uses: list = dataclasses.field(default_factory=list)   # (file, line, what)
    status_fn_names: set = dataclasses.field(default_factory=set)
    discards: list = dataclasses.field(default_factory=list)     # (file, line, callee)


def skip_angles(code, i):
    """From code[i] == '<', returns the index just past the matching '>'
    (heuristic template-argument scan)."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            if i > 0 and code[i - 1] == "-":  # ->
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return i  # gave up: not a template argument list
        i += 1
    return n


def match_paren_back(s, close):
    """Index of the '(' matching s[close] == ')'. -1 if unbalanced."""
    depth = 0
    for i in range(close, -1, -1):
        if s[i] == ")":
            depth += 1
        elif s[i] == "(":
            depth -= 1
            if depth == 0:
                return i
    return -1


def top_level_colon(s):
    """Index of the first ':' at paren depth 0 that is not part of '::',
    or -1. Used to find constructor initializer lists."""
    depth = 0
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < n and s[i + 1] == ":":
                i += 2
                continue
            if i > 0 and s[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def function_header_name(seg):
    """If `seg` (text between the previous ;/{/} and a '{') looks like a
    function definition header, returns the function's unqualified name;
    otherwise None."""
    s = ACCESS_RE.sub(" ", seg).strip()
    # Constructor initializer list: analyze only the declarator part.
    colon = top_level_colon(s)
    if colon >= 0:
        left = s[:colon].strip()
        if left.endswith(")") or re.search(r"\)\s*\w+$", left):
            s = left
        else:
            return None  # base-clause of a class, label, ...
    for _ in range(24):
        s = s.strip()
        if not s:
            return None
        m = re.search(r"\b(" + "|".join(SPECIFIER_WORDS) + r")\s*$", s)
        if m:
            s = s[:m.start()]
            continue
        m = re.search(r"->\s*[\w:<>,\s*&()]+$", s)
        if m and not s.endswith(")"):
            s = s[:m.start()]
            continue
        if not s.endswith(")"):
            return None
        op = match_paren_back(s, len(s) - 1)
        if op <= 0:
            return None
        before = s[:op]
        m = re.search(r"([\w~]+)\s*$", before)
        if not m:
            return None
        word = m.group(1)
        if word.startswith("SSJOIN_") or word in ("noexcept", "throw",
                                                  "alignas"):
            s = before[:m.start()]
            continue
        if word in KEYWORDS or word in ("class", "struct", "union", "enum",
                                        "namespace"):
            return None
        return word
    return None


def class_header(seg):
    """(name, unqualified base names) when `seg` is a class header,
    else None. Template arguments are stripped from the bases."""
    s = ACCESS_RE.sub(" ", seg)
    kw = re.search(r"\b(class|struct|union)\b", s)
    if not kw:
        return None
    paren = s.find("(")
    if 0 <= paren < kw.start():
        return None
    rest = s[kw.end():]
    colon = top_level_colon(rest)
    head = rest[:colon] if colon >= 0 else rest
    words = [w for w in re.findall(r"[A-Za-z_]\w*", head) if w != "final"]
    if not words:
        return None
    bases = []
    for part in (rest[colon + 1:].split(",") if colon >= 0 else ()):
        part = re.sub(r"<[^<>]*>", " ", part)
        names = [w for w in re.findall(r"[A-Za-z_]\w*", part)
                 if w not in ("public", "private", "protected", "virtual",
                              "final", "struct", "class")]
        if names:
            bases.append(names[-1])
    return words[-1], bases


def line_of(offsets, pos):
    return bisect.bisect_right(offsets, pos)


def parse_file(relpath, code, facts, unordered_vars, unordered_fns):
    """One pass over the stripped text: functions (extents, calls,
    range-fors), classes (member annotations), and token-level facts."""
    offsets = [0] + [m.end() for m in re.finditer("\n", code)]
    n = len(code)
    stack = []  # (scope kind, FunctionFact/ClassFact or None)
    functions = []  # (FunctionFact, body start)
    classes = []    # (ClassFact, body start)

    for i, ch in enumerate(code):
        if ch == "}":
            if stack:
                rec = stack.pop()[1]
                if rec is not None:
                    rec.end = i
            continue
        if ch != "{":
            continue
        if any(kind in ("function", "block") for kind, _ in stack):
            stack.append(("block", None))
            continue
        seg_start = max(code.rfind(";", 0, i), code.rfind("{", 0, i),
                        code.rfind("}", 0, i))
        seg = code[seg_start + 1:i]
        if re.search(r"\benum\b", seg):
            stack.append(("enum", None))
            continue
        fn = function_header_name(seg)
        if fn is not None:
            qual = "::".join([rec.name for kind, rec in stack
                              if kind == "class"] + [fn])
            rec = FunctionFact(relpath, line_of(offsets, i), fn, qual, set(),
                               [])
            stack.append(("function", rec))
            functions.append((rec, i))
            continue
        cls = class_header(seg)
        if cls is not None:
            rec = ClassFact(relpath, line_of(offsets, i), cls[0], cls[1])
            stack.append(("class", rec))
            classes.append((rec, i))
        elif re.search(r"\bnamespace\b", seg):
            stack.append(("namespace", None))
        else:
            stack.append(("other", None))

    for rec, start in functions:
        end = n if rec.end < 0 else rec.end
        analyze_function_body(rec, code[start + 1:end], start + 1, offsets,
                              unordered_vars, unordered_fns)
        facts.functions.append(rec)
    for rec, start in classes:
        end = n if rec.end < 0 else rec.end
        analyze_class_body(rec, code[start + 1:end], start + 1, offsets)
        facts.classes.append(rec)

    for m in THREAD_RE.finditer(code):
        facts.thread_uses.append((relpath, line_of(offsets, m.start()),
                                  "std::" + m.group(1)))
    for m in MUTEX_RE.finditer(code):
        facts.mutex_uses.append((relpath, line_of(offsets, m.start()),
                                 "std::" + m.group(1)))
    for m in STATUS_DECL_RE.finditer(code):
        facts.status_fn_names.add(m.group(1))
    collect_discards(relpath, code, offsets, facts)


def analyze_function_body(rec, body, base, offsets, unordered_vars,
                          unordered_fns):
    for m in CALL_RE.finditer(body):
        if m.group(1) not in KEYWORDS:
            rec.calls.add(m.group(1))
    for m in re.finditer(r"\bfor\s*\(", body):
        open_paren = m.end() - 1
        depth = 0
        j = open_paren
        while j < len(body):
            if body[j] == "(":
                depth += 1
            elif body[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        inner = body[open_paren + 1:j]
        colon = top_level_colon(inner)
        if colon < 0:
            continue
        expr = inner[colon + 1:].strip()
        if range_expr_is_unordered(expr, unordered_vars, unordered_fns):
            rec.unordered_fors.append(
                (line_of(offsets, base + m.start()), expr))


def range_expr_is_unordered(expr, unordered_vars, unordered_fns):
    if "unordered_" in expr:
        return True
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    if m and m.group(1) in unordered_vars:
        return True
    m = re.search(r"([A-Za-z_]\w*)\s*\(\s*\)\s*$", expr)
    return bool(m and m.group(1) in unordered_fns)


def analyze_class_body(rec, body, base, offsets):
    """Collapses nested braces to ';' (length-preserving) and inspects the
    class's direct member declarations."""
    out = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            out.append(";" if depth == 1 else " ")
        elif ch == "}":
            depth -= 1
            out.append(" ")
        elif depth > 0:
            out.append("\n" if ch == "\n" else " ")
        else:
            out.append(ch)
    flat = "".join(out)

    # Direct member declarations only survive the collapse, so a Close
    # token here is the subclass's own override, not a call in a body.
    if re.search(r"\bClose\s*\(", flat):
        rec.has_close = True

    pos = 0
    for seg in flat.split(";"):
        seg_off = pos
        pos += len(seg) + 1
        stripped = ACCESS_RE.sub(" ", seg).rstrip()
        m = MEMBER_RE.search(stripped) if stripped else None
        if not m:
            continue
        name = m.group(1)
        prefix = stripped[:m.start(1)]
        if not prefix.strip():
            continue  # bare identifier, not a declaration
        if "(" in re.sub(r"SSJOIN_\w+\s*\([^()]*\)", " ",
                         stripped[m.start(1):]):
            continue  # function declarator, not a data member
        if MUTEX_MEMBER_RE.search(prefix + name):
            rec.has_mutex = True
            continue
        # Search from the right so an identical token inside the type
        # (e.g. a template argument) cannot shadow the declarator.
        line = line_of(offsets, base + seg_off + seg.rfind(name))
        rec.members.append(MemberFact(
            line, name, "GUARDED_BY" in m.group(2),
            bool(MEMBER_EXEMPT_RE.search(prefix))))


def collect_discards(relpath, code, offsets, facts):
    """Bare expression statements whose top-level call target might return
    Status/Result. Filtered against the declared-name set later."""
    for m in re.finditer(r"[;{}]", code):
        start = m.end()
        end = code.find(";", start)
        if end < 0:
            continue
        if any(0 <= p < end for p in (code.find("{", start),
                                      code.find("}", start))):
            continue  # not a simple statement
        seg = code[start:end].strip()
        if not seg.endswith(")"):
            continue
        dm = DISCARD_RE.match(seg)
        if not dm:
            continue
        callee = dm.group(3)
        if callee in KEYWORDS or dm.group(2).split("::")[0].strip() in KEYWORDS:
            continue
        if dm.group(1):
            continue  # (void) cast: explicit discard, sanctioned
        if match_paren_back(seg, len(seg) - 1) != dm.end() - 1:
            continue  # trailing ')' closes something other than this call
        stmt_off = end - len(code[start:end].lstrip())
        facts.discards.append((relpath, line_of(offsets, stmt_off), callee))


def collect_unordered_decls(code, out_vars, out_fns):
    aliases = set(re.findall(
        r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_", code))
    for m in UNORDERED_RE.finditer(code):
        j = code.find("<", m.end())
        if j < 0 or code[m.end():j].strip():
            continue
        j = skip_angles(code, j)
        dm = re.match(r"\s*[*&]*\s*([A-Za-z_]\w*)", code[j:])
        if not dm:
            continue
        after = code[j + dm.end():].lstrip()
        (out_fns if after.startswith("(") else out_vars).add(dm.group(1))
    for alias in aliases:
        for dm in re.finditer(r"\b" + re.escape(alias) +
                              r"\b\s*[*&]?\s*([a-z_]\w*)\s*[;={(]", code):
            (out_fns if code[dm.end() - 1] == "(" else out_vars).add(
                dm.group(1))


def build_facts(codes):
    """`codes`: relpath -> preprocessor-blanked stripped text of every
    source under STRUCTURE_DIRS. A .cc also sees the unordered
    declarations of its paired .h."""
    facts = RepoFacts()
    for relpath, code in codes.items():
        uv, uf = set(), set()
        collect_unordered_decls(code, uv, uf)
        if relpath.endswith(".cc"):
            header = codes.get(relpath[:-3] + ".h")
            if header is not None:
                collect_unordered_decls(header, uv, uf)
        parse_file(relpath, code, facts, uv, uf)
    return facts


# ---------------------------------------------------------------------------
# Structure rules: evaluation
# ---------------------------------------------------------------------------

def reaches_sink(facts):
    """Name-level call graph reachability to SINK_FUNCTIONS. Returns the
    function names that can reach a sink, mapped to one witness sink."""
    graph = {}
    for fn in facts.functions:
        graph.setdefault(fn.name, set()).update(fn.calls)
    witness = {name: name for name in SINK_FUNCTIONS}
    changed = True
    while changed:
        changed = False
        for name, calls in graph.items():
            if name in witness:
                continue
            for callee in calls:
                if callee in witness:
                    witness[name] = witness[callee]
                    changed = True
                    break
    return witness


def structure_findings(facts):
    findings = []
    witness = reaches_sink(facts)

    for fn in facts.functions:
        sink = fn.name if fn.name in SINK_FUNCTIONS else witness.get(fn.name)
        if sink is None:
            continue
        for line, _ in fn.unordered_fors:
            findings.append(Finding(
                fn.file, line, "deterministic-iteration",
                f"range-for over unordered container in '{fn.qualname}', "
                f"which reaches result sink '{sink}'; iterate a sorted "
                f"container or sort before emitting"))

    for file, line, what in facts.thread_uses:
        findings.append(Finding(
            file, line, "no-unjoined-thread",
            f"raw {what} (use util::ThreadPool so threads are joined and "
            f"exceptions propagate)"))

    for file, line, callee in facts.discards:
        if callee in facts.status_fn_names:
            findings.append(Finding(
                file, line, "status-must-use",
                f"result of Status-returning '{callee}' is discarded; use "
                f"SSJOIN_RETURN_NOT_OK, branch on it, or cast to (void)"))

    for file, line, what in facts.mutex_uses:
        findings.append(Finding(
            file, line, "mutex-wrapper-only",
            f"bare {what}; use util::Mutex / util::MutexLock / util::CondVar "
            f"from util/thread_annotations.h so -Wthread-safety sees it"))

    for cls in facts.classes:
        for member in cls.members if cls.has_mutex else ():
            if member.guarded or member.exempt:
                continue
            findings.append(Finding(
                cls.file, member.line, "guarded-by-required",
                f"member '{member.name}' of mutex-owning class '{cls.name}' "
                f"lacks SSJOIN_GUARDED_BY (annotate, make it atomic/const, "
                f"or allow with a justification)"))
        if (OPERATOR_BASE in cls.bases and cls.name != OPERATOR_BASE
                and not cls.has_close):
            findings.append(Finding(
                cls.file, cls.line, "operator-contract",
                f"'{cls.name}' derives from the pipeline Operator but does "
                f"not override Close(); every operator must override "
                f"Close() — and finish it with Operator::Close() — so its "
                f"PlanOp row counts reach the explain plan tree"))
    return findings


# ---------------------------------------------------------------------------
# Lint run, self-test, CLI
# ---------------------------------------------------------------------------

def under(rel, prefixes):
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


def collect_files(root):
    """Every source under a rule's scope, minus the self-test fixtures."""
    tops = sorted({p.split("/")[0] for paths, _ in RULES.values()
                   for p in paths})
    fixtures = "/".join(FIXTURE_DIR)
    return sorted(
        p for top in tops for p in (root / top).rglob("*")
        if p.is_file() and p.suffix in SOURCE_SUFFIXES
        and not under(p.relative_to(root).as_posix(), (fixtures,)))


def lint(root):
    """Lints `root`. Returns (files, kept findings sorted by file, line
    and rule, keys of the findings an allow marker suppressed)."""
    files = collect_files(root)
    registry = load_telemetry_registry(root)
    raws, findings, codes = {}, [], {}
    for path in files:
        rel = path.relative_to(root).as_posix()
        raw = raws[rel] = path.read_text(encoding="utf-8", errors="replace")
        code = strip(raw)
        findings += line_findings(rel, path.suffix, raw, code, registry)
        if under(rel, STRUCTURE_DIRS):
            codes[rel] = blank_directives(code)
    findings += structure_findings(build_facts(codes))

    kept, seen, suppressed = [], set(), set()
    for f in sorted(findings, key=Finding.key):
        paths, exempt = RULES[f.rule]
        if not under(f.file, paths) or f.file in exempt:
            continue
        m = ALLOW_RE.search(raws[f.file].split("\n")[f.line - 1])
        if f.suppressible and m and m.group(1) == f.rule:
            suppressed.add(f.key())
        elif f.key() not in seen:
            seen.add(f.key())
            kept.append(f)
    return files, kept, suppressed


def run_self_test(repo_root):
    """Lints each fixture tree (a miniature repo layout full of deliberate
    violations) and diffs the findings against the fixtures'
    `// expect(<rule>)` markers. Every rule needs an expect() fixture
    that fires and an allow() fixture whose marker suppresses a real
    finding, so a blunted rule or a broken allow-path fails here."""
    fixture_dir = repo_root.joinpath(*FIXTURE_DIR)
    expected, actual, allows, suppressed = set(), set(), set(), set()
    n_files = 0
    for tree in FIXTURE_TREES:
        tree_root = fixture_dir / tree
        if not tree_root.is_dir():
            print(f"ssjoin_lint: self-test fixture tree missing: {tree_root}",
                  file=sys.stderr)
            return 2
        files, kept, supp = lint(tree_root)
        n_files += len(files)
        actual |= {(f"{tree}/{f.file}", f.line, f.rule) for f in kept}
        suppressed |= {(f"{tree}/{rel}", line, rule)
                       for rel, line, rule in supp}
        for path in files:
            rel = f"{tree}/{path.relative_to(tree_root).as_posix()}"
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.split("\n"), start=1):
                expected |= {(rel, lineno, m.group(1))
                             for m in EXPECT_RE.finditer(line)}
                m = ALLOW_RE.search(line)
                if m:
                    allows.add((rel, lineno, m.group(1)))

    problems = []
    for what, covered in (("violation (expect)", expected),
                          ("suppression (allow)", allows)):
        missing = set(RULES) - {rule for _, _, rule in covered}
        if missing:
            problems.append(f"fixtures exercise no {what} for: "
                            f"{', '.join(sorted(missing))}")
    problems += [f"MISSED expected finding: {f}:{line} [{rule}]"
                 for f, line, rule in sorted(expected - actual)]
    problems += [f"UNEXPECTED finding: {f}:{line} [{rule}]"
                 for f, line, rule in sorted(actual - expected)]
    problems += [f"allow() suppresses no finding: {f}:{line} [{rule}]"
                 for f, line, rule in sorted(allows - suppressed)]
    for problem in problems:
        print(f"ssjoin_lint self-test: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"ssjoin_lint self-test OK: {len(expected)} expected findings "
          f"matched across {n_files} fixtures, all {len(RULES)} rules fire, "
          f"{len(allows)} allow() markers each suppress a finding")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and scopes, then exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tests/lint/fixtures")
    args = parser.parse_args()
    if args.list_rules:
        for rule, (paths, _) in RULES.items():
            print(f"{rule}: {', '.join(paths)}")
        return 0
    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root)
    if not (root / "src").is_dir():
        print(f"ssjoin_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    files, findings, _ = lint(root)
    for f in findings:
        print(f"{f.file}:{f.line}: {f.rule}: {f.message}")
    if findings:
        print(f"ssjoin_lint: {len(findings)} violation(s) in {len(files)} "
              f"files", file=sys.stderr)
        return 1
    print(f"ssjoin_lint: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
