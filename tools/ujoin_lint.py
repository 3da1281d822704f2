#!/usr/bin/env python3
"""ujoin_lint: repo-specific invariant linter for the ujoin codebase.

The runtime test suite proves the repo's determinism and allocation
invariants on the inputs it runs; this linter enforces the coding rules
those invariants depend on *statically*, so a violation is caught in any
code path, compiled or not.  It is a regex-AST hybrid: a small lexer strips
comments and literals, a brace tracker attributes code to functions, and
per-rule regexes run over the stripped source.  (libclang is not available
in the build container; the lexer+tracker recovers the structure the rules
need.)

Rules (see DESIGN.md "Static analysis and CI gates"):

  rng-source
      rand()/srand()/time()/std::random_device/std::mt19937 anywhere except
      src/util/rng.h.  Every randomized component must draw from the seeded
      ujoin::Rng so runs are reproducible across machines and reruns.

  unordered-iteration
      Iterating an unordered_{map,set,multimap,multiset} (range-for or
      explicit begin()) in files that produce join results or serialized
      output.  Unordered iteration order depends on hash seeding and
      insertion history, which silently breaks byte-identical results
      across thread counts and save/load round-trips.

  probe-path-alloc
      new/malloc-family/make_unique/make_shared or construction of a local
      allocating container inside the frozen probe path
      (flat_postings, segment_index, probe_set), outside whitelisted
      build/freeze functions.  The steady-state probe path must not
      allocate; the operator-new hook tests prove it at runtime for tested
      inputs, this rule keeps untested branches honest.

  obs-macro-only
      Direct Recorder recording calls (RecordHist/AddCounter/SetGauge/
      AddFunnel) outside src/obs/.  Instrumentation must go through the
      UJOIN_OBS_* macros so -DUJOIN_OBS=OFF compiles it out and every site
      keeps the null-recorder guard.

  simd-intrinsics
      Raw SIMD intrinsics (immintrin/arm_neon includes, _mm*/__m* tokens,
      NEON v*_type calls, __builtin_prefetch / __builtin_cpu_supports)
      anywhere except src/util/simd*.  The probe-path kernels there are
      portable C++ that every target compiles and runs to the same bits;
      confining target-specific code (including prefetch hints) to that
      one header keeps every other file portable and puts any such code
      next to the kernel whose arithmetic it would have to match.

  query-log-api
      JsonWriter use in src/serve/ outside protocol.cc.  Serve-layer JSON
      (responses, /healthz, query-log records, the /debug/slow page) must
      be rendered through the shared renderers — protocol.cc for the wire
      protocol, the obs::QueryLog/RenderSlowQueriesPage API for records —
      so tools/validate_query_log.py and the byte-golden tests pin every
      byte that leaves the server.  Ad-hoc JsonWriter use in the server
      would create a second, unvalidated serialization path.

  flight-macro-only
      Direct FlightRecorder::RecordEvent calls outside src/obs/.  Flight
      events must be recorded through UJOIN_OBS_FLIGHT_EVENT so
      -DUJOIN_OBS=OFF compiles them out and every site stays on the
      alloc/lock/io-free record path the flight-path effects contract
      proves (tools/ujoin_effects.py).

  stale-suppression
      An `ujoin-lint: allow(<rule>)` comment that suppresses nothing: the
      code it excused was refactored away, or the rule name is a typo and
      it never worked.  Either way it is a silent escape hatch held open
      for the next edit.  Stale suppressions are not themselves
      suppressible — delete the comment.  (tools/ujoin_effects.py runs
      the same check over unused `ujoin-effect: assumes(...)`.)

Suppression: append `// ujoin-lint: allow(<rule>)` on the offending line
(or the line above) with a reason.  Suppressions are deliberate, reviewed
escapes — e.g. the legacy allocating Query overloads kept for API
compatibility — and must stay load-bearing: an allow() that no longer
suppresses anything is reported by the stale-suppression rule.

Usage:
  tools/ujoin_lint.py [--root DIR] [paths...]   lint the repo (or paths)
  tools/ujoin_lint.py --self-test               run the fixture suite
  tools/ujoin_lint.py --list-rules              print rule names

Exit status: 0 clean, 1 violations found (or self-test failure), 2 usage.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Files scanned at all (relative to the repo root).
SCAN_GLOBS = [
    "src/**/*.h", "src/**/*.cc",
    "tools/*.cc",
    "bench/*.cc", "bench/*.h",
    "tests/**/*.cc", "tests/**/*.h",
    "examples/*.cpp",
]

# Lint fixtures contain deliberate violations; never scanned as real code.
EXCLUDE_GLOBS = [
    "tests/lint/*",
]

# Files that produce join results or serialized output: pair lists, index
# serialization, run reports.  Iteration order here is output order.
DETERMINISTIC_OUTPUT_GLOBS = [
    "src/join/*",
    "src/index/*",
    "src/obs/*",
    "src/serve/*",
    "src/util/serde*",
    "tools/ujoin_cli.cc",
]

# The frozen probe path and its per-file allocation whitelist: functions
# that legitimately allocate because they build, freeze, serialize, or grow
# a reusable workspace — never called per-probe in steady state.
PROBE_PATH_ALLOC_WHITELIST = {
    "src/index/flat_postings.h": {
        "FlatPostings", "Add", "Freeze", "Rehash", "ForEachSorted",
    },
    "src/index/flat_postings.cc": {
        "FlatPostings", "Add", "Freeze", "Rehash", "ForEachSorted",
    },
    "src/index/segment_index.h": {
        "LengthBucketIndex", "InvertedSegmentIndex", "Insert", "Freeze",
        "Serialize", "Deserialize", "MemoryUsage",
    },
    "src/index/segment_index.cc": {
        "LengthBucketIndex", "InvertedSegmentIndex", "Insert", "Freeze",
        "Serialize", "Deserialize", "MemoryUsage",
    },
    "src/filter/probe_set.h": {
        "Reset",
    },
    "src/filter/probe_set.cc": {
        "BuildProbeSet", "ForEachWindowWorld", "ExactOccurrenceProbability",
    },
}

OBS_MACRO_SCOPE_GLOBS = ["src/*", "src/**/*", "tools/*"]
OBS_MACRO_ALLOW_GLOBS = ["src/obs/*"]

# The kernel layer: the only files allowed to contain raw intrinsics.
SIMD_KERNEL_GLOBS = ["src/util/simd*"]

RULE_NAMES = (
    "rng-source",
    "unordered-iteration",
    "probe-path-alloc",
    "obs-macro-only",
    "simd-intrinsics",
    "query-log-api",
    "flight-macro-only",
    "stale-suppression",
)

# Serve-layer JSON rendering is confined to the shared renderers: every
# byte the server emits is covered by the byte-golden protocol tests and
# tools/validate_query_log.py.
QUERY_LOG_API_SCOPE_GLOBS = ["src/serve/*"]
QUERY_LOG_API_ALLOW = {"src/serve/protocol.cc"}

SUPPRESS_RE = re.compile(r"ujoin-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Lexer: strip comments and literals, preserving line structure
# ---------------------------------------------------------------------------


def strip_comments_and_literals(text: str) -> str:
    """Returns `text` with comments and string/char literal *contents*
    replaced by spaces.  Newlines are preserved so line numbers survive."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'R"([^()\\\s]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j < 0 else j + len(close)
                out.append('""')
                out.append("".join("\n" for ch in text[i:j] if ch == "\n"))
                i = j
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + quote)
            out.append("".join("\n" for ch in text[i:j] if ch == "\n"))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Function tracker: map each line to the name of the enclosing function
#
# The tracker walks the stripped source once, classifying every `{` as a
# namespace, class, enum, function, lambda, or plain block, and records a
# FunctionSpan for each function-like body.  It understands the constructs
# the original PR 4 tracker mis-attributed:
#   * lambdas get their own frame (named `(lambda@LINE)`, qualified by the
#     enclosing function) instead of silently inheriting the enclosing
#     named function — or no frame at all at class/file scope;
#   * constructor init lists (`Foo::Foo() : a_(x), b_(y) {`) attribute the
#     body to the constructor, not to the last initializer (`b_`);
#   * operator definitions (`operator==`, `operator[]`, `operator()`, …)
#     and out-of-line template members get proper frames instead of None.
# The spans carry namespace/class-qualified names, which the whole-repo
# effect analyzer (tools/ujoin_effects.py) builds its call graph from.
# ---------------------------------------------------------------------------

_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
    "sizeof", "alignof", "decltype", "new", "delete", "co_return", "co_await",
}
_NON_FUNCTION_HEADS = re.compile(
    r"(?:^|[;{}])\s*(?:typedef\b|using\b|namespace\b|enum\b"
    r"|struct\s+\w+\s*$|class\s+\w+\s*$)")

_NAMESPACE_RE = re.compile(
    r"(?:^|[^\w])(?:inline\s+)?namespace(?:\s+([\w:]+))?\s*$")
_CLASS_RE = re.compile(
    r"(?:^|[^\w])(?:class|struct|union)\s+(?:\w+\s+)*?"
    r"(\w+)(?:<[^;{}]*>)?\s*(?:final\s*)?(?::[^:{][^{]*)?$")
_ENUM_RE = re.compile(
    r"(?:^|[^\w])enum(?:\s+(?:class|struct))?(?:\s+\w+)?\s*(?::[^{]*)?$")
_LEADING_TEMPLATE_RE = re.compile(r"^\s*template\s*<")
_TRAILING_QUAL_RE = re.compile(
    r"\s*(?:const|noexcept(?:\([^()]*\))?|override|final|mutable|constexpr"
    r"|&&|&|throw\s*\([^()]*\))$")
_OPERATOR_TAIL_RE = re.compile(
    r"operator\s*(?:\(\s*\)|\[\s*\]|\"\"\s*_?\w+|[^\s\w]{1,3}"
    r"|\s+[\w:]+(?:\s*[&*])*)$")
_NAME_TAIL_RE = re.compile(r"((?:\w+\s*::\s*)*)(~?\w+)\s*$")


def _strip_angle_groups(text: str) -> str:
    """Removes balanced `<...>` groups (template argument lists) so
    `Foo<T>::Bar` names as `Foo::Bar`.  Unbalanced `<` (comparisons) leave
    the text unchanged."""
    out = []
    depth = 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            if depth > 0:
                depth -= 1
                continue
        if depth == 0:
            out.append(ch)
    return "".join(out) if depth == 0 else text


def _strip_leading_templates(chunk: str) -> str:
    """Removes leading `template <...>` headers (possibly several)."""
    while _LEADING_TEMPLATE_RE.match(chunk):
        depth = 0
        cut = None
        for idx, ch in enumerate(chunk):
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
                if depth == 0:
                    cut = idx + 1
                    break
        if cut is None:
            break
        chunk = chunk[cut:].lstrip()
    return chunk


def _cut_ctor_init_list(sig: str) -> str:
    """Truncates a constructor init list: `Foo(int x) : a_(x), b_(y)` ->
    `Foo(int x)`.  The init-list `:` is the first depth-0 `:` (not `::`)
    that follows a `)` and precedes an initializer (`ident(` / `ident{`)."""
    depth = 0
    for idx, ch in enumerate(sig):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == ":" and depth == 0:
            if idx + 1 < len(sig) and sig[idx + 1] == ":":
                continue
            if idx > 0 and sig[idx - 1] == ":":
                continue
            before = sig[:idx].rstrip()
            after = sig[idx + 1:].lstrip()
            if before.endswith(")") and re.match(r"\w+\s*[({]", after):
                return before
    return sig


def _cut_trailing_return(sig: str) -> str:
    """Truncates a depth-0 trailing return type: `auto F(int) -> T` ->
    `auto F(int)` (only when what precedes `->` ends with `)`)."""
    depth = 0
    for idx in range(len(sig) - 1):
        ch = sig[idx]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "-" and sig[idx + 1] == ">" and depth == 0:
            before = sig[:idx].rstrip()
            if before.endswith(")"):
                return before
    return sig


def _signature_name(chunk: str) -> str | None:
    """Heuristic: extract the function name from the text between the
    previous top-level delimiter and an opening `{`.  Returns the (possibly
    `::`-qualified) name, `"(lambda)"` for a lambda introducer, or None if
    the chunk does not look like a function definition."""
    chunk = _strip_leading_templates(chunk.strip())
    if not chunk or chunk.endswith("=") or chunk.endswith("("):
        return None
    if _NON_FUNCTION_HEADS.search(" " + chunk):
        return None
    sig = _cut_trailing_return(_cut_ctor_init_list(chunk))
    while True:
        cut = _TRAILING_QUAL_RE.sub("", sig)
        if cut == sig:
            break
        sig = cut
    sig = _cut_trailing_return(sig).rstrip()
    if sig.endswith("]"):
        # `[&] {` — capture-only lambda, unless it is an operator[] def.
        if re.search(r"operator\s*\[\s*\]$", sig):
            return "operator[]"
        return "(lambda)"
    if not sig.endswith(")"):
        return None
    # Find the parameter list's opening paren.
    depth = 0
    open_idx = -1
    for idx in range(len(sig) - 1, -1, -1):
        ch = sig[idx]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
            if depth == 0:
                open_idx = idx
                break
    if open_idx <= 0:
        return None
    head = sig[:open_idx].rstrip()
    if head.endswith("]"):
        if re.search(r"operator\s*\[\s*\]$", head):
            return "operator[]"
        return "(lambda)"  # `[...](args) {`
    m = _OPERATOR_TAIL_RE.search(head)
    if m:
        return re.sub(r"\s+", "_", m.group(0).strip())
    head = _strip_angle_groups(head)
    m = _NAME_TAIL_RE.search(head)
    if not m:
        return None
    name = m.group(2)
    if name in _CONTROL_KEYWORDS:
        return None
    qual = re.sub(r"\s", "", m.group(1))
    # `Type var(args);` style initialization is indistinguishable in general;
    # requiring the next token to be `{` (checked by the caller) rules out
    # the `;` forms, and control keywords the rest.
    return qual + name if qual else name


@dataclass
class FunctionSpan:
    """One function-like body: a named function, method, operator, or
    lambda.  `qual` is the `::`-qualified name including namespace and
    class scope (lambdas: `<enclosing-qual>::(lambda@LINE)`); `name` is the
    unqualified last component.  Lines are 1-based; `start_line` is the
    line of the opening brace, `end_line` the line of the closing brace."""
    qual: str
    name: str
    start_line: int
    end_line: int
    parent: int | None  # index of the enclosing function/lambda span
    is_lambda: bool


@dataclass
class _Frame:
    kind: str  # "namespace" | "class" | "function" | "block"
    name: str
    depth: int
    span: int | None = None  # FunctionSpan index for function frames


def function_spans(stripped: str) -> list[FunctionSpan]:
    """Parses the stripped source into function-body spans with qualified
    names.  This is the structural backbone shared by the per-file lint
    rules (via enclosing_functions) and the whole-repo call-graph extractor
    in tools/ujoin_effects.py."""
    lines = stripped.split("\n")
    spans: list[FunctionSpan] = []
    stack: list[_Frame] = []
    depth = 0
    pending = ""  # text since the last top-level delimiter

    def scope_prefix() -> str:
        parts = [f.name for f in stack if f.kind in ("namespace", "class")
                 and f.name and f.name != "(anon)"]
        return "::".join(parts)

    def enclosing_span() -> int | None:
        for frame in reversed(stack):
            if frame.kind == "function":
                return frame.span
        return None

    for line_no, line in enumerate(lines, 1):
        for ch in line:
            if ch == "{":
                chunk = _strip_leading_templates(pending.strip())
                frame = _Frame("block", "", depth)
                m = _NAMESPACE_RE.search(chunk) if chunk else None
                if chunk and m:
                    frame = _Frame("namespace", m.group(1) or "(anon)", depth)
                elif chunk and _ENUM_RE.search(chunk):
                    frame = _Frame("block", "", depth)
                elif chunk and not chunk.endswith(")") \
                        and _CLASS_RE.search(chunk):
                    frame = _Frame("class", _CLASS_RE.search(chunk).group(1),
                                   depth)
                else:
                    name = _signature_name(pending)
                    if name is not None:
                        parent = enclosing_span()
                        if name == "(lambda)":
                            short = f"(lambda@{line_no})"
                            if parent is not None:
                                qual = f"{spans[parent].qual}::{short}"
                            else:
                                prefix = scope_prefix()
                                qual = (f"{prefix}::{short}" if prefix
                                        else short)
                            spans.append(FunctionSpan(
                                qual, short, line_no, line_no, parent, True))
                        else:
                            prefix = scope_prefix()
                            qual = f"{prefix}::{name}" if prefix else name
                            spans.append(FunctionSpan(
                                qual, name.split("::")[-1], line_no, line_no,
                                parent, False))
                        frame = _Frame("function", name, depth,
                                       span=len(spans) - 1)
                stack.append(frame)
                depth += 1
                pending = ""
            elif ch == "}":
                depth -= 1
                while stack and depth <= stack[-1].depth:
                    popped = stack.pop()
                    if popped.kind == "function" and popped.span is not None:
                        spans[popped.span].end_line = line_no
                pending = ""
            elif ch == ";":
                pending = ""
            else:
                pending += ch
        pending += " "  # line break separates tokens
    while stack:  # unterminated bodies extend to EOF
        popped = stack.pop()
        if popped.kind == "function" and popped.span is not None:
            spans[popped.span].end_line = len(lines)
    return spans


def _display_name(spans: list[FunctionSpan], idx: int) -> str:
    """Lint-facing name of a span: the unqualified name, with lambda
    frames shown as `<named-ancestor>::(lambda@LINE)` chains."""
    span = spans[idx]
    if not span.is_lambda:
        return span.name
    if span.parent is not None:
        return f"{_display_name(spans, span.parent)}::{span.name}"
    return span.name


def named_base(func: str) -> str:
    """The named function a (possibly lambda-nested) lint frame belongs
    to: `Freeze::(lambda@12)` -> `Freeze`.  Lambdas inherit their defining
    function's whitelist membership — the effect analyzer
    (tools/ujoin_effects.py) is the layer that tracks where a lambda is
    actually *invoked*."""
    return func.split("::(lambda", 1)[0]


def enclosing_functions(stripped: str) -> list[str | None]:
    """For each line (0-based) of the stripped source, the innermost
    function name enclosing that line, or None at namespace/class scope.
    Lambda bodies report `<function>::(lambda@LINE)` (nested lambdas
    chain); rules that whitelist by function name compare named_base()."""
    spans = function_spans(stripped)
    n_lines = stripped.count("\n") + 1
    result: list[str | None] = [None] * n_lines
    # Spans are listed in opening order, so inner (later) spans overwrite
    # their enclosing span's lines; the brace line attributes to the
    # opening function, matching the PR 4 tracker.
    for idx, span in enumerate(spans):
        name = _display_name(spans, idx)
        for line in range(span.start_line, min(span.end_line, n_lines) + 1):
            result[line - 1] = name
    return result


# ---------------------------------------------------------------------------
# Violations and suppression
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _suppression_at(raw_lines: list[str], line: int, rule: str) -> int | None:
    """When line `line` (1-based) or the line above carries an
    `ujoin-lint: allow(rule)` comment, returns that comment's 1-based line
    number; None otherwise."""
    for idx in (line - 1, line - 2):
        if 0 <= idx < len(raw_lines):
            m = SUPPRESS_RE.search(raw_lines[idx])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return idx + 1
    return None


def suppression_comments(raw_lines: list[str],
                         pattern: re.Pattern = SUPPRESS_RE,
                         ) -> list[tuple[int, str]]:
    """Every (1-based line, rule-name) pair declared by a suppression
    comment matching `pattern` (group 1 = comma-separated rule list).
    Shared with tools/ujoin_effects.py, which runs the same staleness
    check over its `ujoin-effect: assumes(...)` annotations."""
    out: list[tuple[int, str]] = []
    for idx, raw in enumerate(raw_lines, 1):
        m = pattern.search(raw)
        if m:
            for rule in m.group(1).split(","):
                out.append((idx, rule.strip()))
    return out


def stale_suppression_violations(
        path: str, raw_lines: list[str], used: set[tuple[int, str]],
        known_rules: tuple[str, ...] = RULE_NAMES,
        pattern: re.Pattern = SUPPRESS_RE,
        rule_name: str = "stale-suppression",
        what: str = "ujoin-lint: allow") -> list[Violation]:
    """A suppression that suppresses nothing is itself a violation: it
    either outlived the code it excused (delete it) or names the wrong
    rule (it never worked).  `used` holds (comment line, rule) pairs that
    actually absorbed a violation.  Stale-suppression findings are not
    themselves suppressible — fix them by deleting the comment."""
    out = []
    for line, rule in suppression_comments(raw_lines, pattern):
        if rule == rule_name:
            out.append(Violation(
                path, line, rule_name,
                f"`{what}({rule})` is not suppressible; delete stale "
                f"suppressions instead of allowing them"))
        elif rule not in known_rules:
            out.append(Violation(
                path, line, rule_name,
                f"`{what}({rule})` names an unknown rule (known: "
                f"{', '.join(known_rules)}); it can never suppress "
                f"anything"))
        elif (line, rule) not in used:
            out.append(Violation(
                path, line, rule_name,
                f"`{what}({rule})` suppresses nothing on the next line; "
                f"the code it excused is gone — delete the comment"))
    return out


def _matches(path: str, globs: list[str]) -> bool:
    return any(fnmatch.fnmatch(path, g) for g in globs)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_RNG_PATTERNS = [
    (re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.>])rand\s*\("), "rand()"),
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"std\s*::\s*mt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"std\s*::\s*(?:minstd_rand0?|ranlux\w+|knuth_b)\b"),
     "a std:: engine"),
    # ::time takes a time_t* argument, so the call form always passes one
    # (usually nullptr); requiring it keeps member functions *named* time()
    # from matching.
    (re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?time\s*\("
                r"\s*(?:NULL|nullptr|0|&\s*\w+)\s*\)"),
     "time()"),
]


def check_rng_source(path: str, stripped_lines: list[str], **_) -> list[Violation]:
    if path == "src/util/rng.h":
        return []
    out = []
    for i, line in enumerate(stripped_lines, 1):
        for pat, what in _RNG_PATTERNS:
            if pat.search(line):
                out.append(Violation(
                    path, i, "rng-source",
                    f"{what} breaks run reproducibility; draw from the "
                    f"seeded ujoin::Rng (src/util/rng.h) instead"))
    return out


_UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:multi)?(?:map|set)\s*<")
# Declared names of unordered containers (members, locals, parameters).
# Greedy `<...>` absorbs nested template arguments on the same line.
_UNORDERED_NAME_RE = re.compile(
    r"unordered_(?:multi)?(?:map|set)\s*<[^;{}]*>(?:\s*[&*])?\s+(\w+)\s*[;={(,)]")
# Range-for: `for ( decl : range-expr )`.  `[^;]` keeps classic
# `for (init; cond; step)` loops from matching.
_RANGE_FOR_SPLIT_RE = re.compile(r"for\s*\(([^;]*?)(?<!:):(?!:)([^;]*)\)")
_BEGIN_CALL_RE = re.compile(r"([\w.\->]+)\s*(?:\.|->)\s*c?begin\s*\(")


def _base_identifier(expr: str) -> str:
    """Trailing identifier of an lvalue expression: `ws->sets_` -> `sets_`."""
    m = re.search(r"([\w.\->]+)\s*$", expr.strip().replace("()", ""))
    return re.split(r"\.|->", m.group(1))[-1] if m else ""


def check_unordered_iteration(path: str, stripped_lines: list[str],
                              **_) -> list[Violation]:
    if not _matches(path, DETERMINISTIC_OUTPUT_GLOBS):
        return []
    text = "\n".join(stripped_lines)
    unordered_names = set(_UNORDERED_NAME_RE.findall(text))
    out = []
    for i, line in enumerate(stripped_lines, 1):
        hit = None
        m = _RANGE_FOR_SPLIT_RE.search(line)
        if m:
            range_expr = m.group(2)
            base = _base_identifier(range_expr)
            if _UNORDERED_DECL_RE.search(range_expr):
                hit = "range-for over an unordered temporary"
            elif base in unordered_names:
                hit = f"range-for over unordered container '{base}'"
        if hit is None:
            m = _BEGIN_CALL_RE.search(line)
            if m:
                base = re.split(r"\.|->", m.group(1).replace("()", ""))[-1]
                if base in unordered_names:
                    hit = f"iterator over unordered container '{base}'"
        if hit:
            out.append(Violation(
                path, i, "unordered-iteration",
                f"{hit}: iteration order is hash/insertion dependent and "
                f"this file produces join results or serialized output; "
                f"sort first or use an ordered/flat container"))
    return out


# (pattern, description, flag_at_file_scope): container construction is only
# a violation inside a function body — at class scope the same syntax is a
# member *declaration* (the reusable workspace pattern), and on signature
# lines it is a return type.
_ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "operator new", True),
    (re.compile(r"(?<![\w:])new\s*\("), "placement/operator new", True),
    (re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?(?:m|c|re)alloc\s*\("),
     "malloc-family call", True),
    (re.compile(r"make_(?:unique|shared)\s*<"), "make_unique/make_shared",
     True),
    (re.compile(
        r"(?<![\w:])(?:std\s*::\s*)?"
        r"(?:vector|deque|list|map|set|multimap|multiset|"
        r"unordered_map|unordered_set|basic_string)\s*<[^;{}]*>\s+(\w+)"
        r"\s*[;({=]"),
     "local allocating container", False),
    (re.compile(r"(?<![\w:])std\s*::\s*string\s+(\w+)\s*[;({=]"),
     "local std::string", False),
]


def check_probe_path_alloc(path: str, stripped_lines: list[str],
                           functions: list[str | None] | None = None,
                           **_) -> list[Violation]:
    whitelist = PROBE_PATH_ALLOC_WHITELIST.get(path)
    if whitelist is None:
        return []
    assert functions is not None
    out = []
    for i, line in enumerate(stripped_lines, 1):
        func = functions[i - 1]
        if func is not None and named_base(func) in whitelist:
            continue
        for pat, what, flag_at_file_scope in _ALLOC_PATTERNS:
            if func is None and not flag_at_file_scope:
                continue
            m = pat.search(line)
            if m is None:
                continue
            # A container type followed by the enclosing function's own name
            # is that function's signature (return type), not a local.
            if m.groups() and func is not None and m.group(1) == named_base(func):
                continue
            where = f"in '{func}'" if func else "at file scope"
            out.append(Violation(
                path, i, "probe-path-alloc",
                f"{what} {where}: the frozen probe path must not "
                f"allocate in steady state; move the allocation into a "
                f"build/freeze function (whitelisted in ujoin_lint.py) "
                f"or into a reusable workspace"))
            break
    return out


_OBS_DIRECT_RE = re.compile(
    r"(?:\.|->)\s*(RecordHist|AddCounter|SetGauge|AddFunnel)\s*\(")


def check_obs_macro_only(path: str, stripped_lines: list[str],
                         **_) -> list[Violation]:
    if not _matches(path, OBS_MACRO_SCOPE_GLOBS):
        return []
    if _matches(path, OBS_MACRO_ALLOW_GLOBS):
        return []
    out = []
    for i, line in enumerate(stripped_lines, 1):
        m = _OBS_DIRECT_RE.search(line)
        if m:
            macro = {
                "RecordHist": "UJOIN_OBS_HIST",
                "AddCounter": "UJOIN_OBS_COUNTER",
                "SetGauge": "UJOIN_OBS_GAUGE",
                "AddFunnel": "UJOIN_OBS_FUNNEL",
            }[m.group(1)]
            out.append(Violation(
                path, i, "obs-macro-only",
                f"direct Recorder::{m.group(1)} call; record through "
                f"{macro}(...) so -DUJOIN_OBS=OFF compiles it out and the "
                f"null-recorder guard is kept"))
    return out


_INTRINSIC_PATTERNS = [
    (re.compile(r"#\s*include\s*<(?:[a-z]mm|imm|avx|arm_neon)\w*\.h>"),
     "intrinsics header include"),
    (re.compile(r"\b_mm(?:256|512)?_\w+\s*\("), "x86 SIMD intrinsic"),
    (re.compile(r"\b__m(?:64|128|256|512)[di]?\b"), "x86 vector type"),
    (re.compile(r"\bv\w+q?_(?:[fsup](?:8|16|32|64)|lane\w*)\s*\("),
     "NEON intrinsic"),
    (re.compile(r"\b(?:float|int|uint|poly)(?:8|16|32|64)x\d+_t\b"),
     "NEON vector type"),
    (re.compile(r"\b__builtin_prefetch\s*\("), "__builtin_prefetch"),
    (re.compile(r"\b__builtin_cpu_supports\s*\("), "__builtin_cpu_supports"),
]


def check_simd_intrinsics(path: str, stripped_lines: list[str],
                          **_) -> list[Violation]:
    if _matches(path, SIMD_KERNEL_GLOBS):
        return []
    out = []
    for i, line in enumerate(stripped_lines, 1):
        for pat, what in _INTRINSIC_PATTERNS:
            if pat.search(line):
                out.append(Violation(
                    path, i, "simd-intrinsics",
                    f"{what} outside src/util/simd*; target-specific code "
                    f"lives only in the kernel layer (util/simd.h) so every "
                    f"other file compiles to the same code on every "
                    f"target"))
                break
    return out


_JSON_WRITER_RE = re.compile(r"\bJsonWriter\b")


def check_query_log_api(path: str, stripped_lines: list[str],
                        **_) -> list[Violation]:
    if not _matches(path, QUERY_LOG_API_SCOPE_GLOBS):
        return []
    if path in QUERY_LOG_API_ALLOW:
        return []
    out = []
    for i, line in enumerate(stripped_lines, 1):
        if _JSON_WRITER_RE.search(line):
            out.append(Violation(
                path, i, "query-log-api",
                "JsonWriter use in the serve layer outside protocol.cc; "
                "render wire responses via serve/protocol.cc and query-log "
                "records via the obs::QueryLog API so every emitted byte "
                "stays covered by the byte-golden tests and "
                "tools/validate_query_log.py"))
    return out


# A direct flight-event record call.  The watchdog (src/obs/) records its
# own capture events and tests exercise the recorder directly; everything
# else goes through UJOIN_OBS_FLIGHT_EVENT.  Taking the recorder pointer
# (GlobalFlightRecorder()) for lifecycle wiring — watchdog construction,
# the bench kill switch — is fine; only recording is confined.
_FLIGHT_DIRECT_RE = re.compile(r"(?:\.|->)\s*RecordEvent\s*\(")


def check_flight_macro_only(path: str, stripped_lines: list[str],
                            **_) -> list[Violation]:
    if not _matches(path, OBS_MACRO_SCOPE_GLOBS):
        return []
    if _matches(path, OBS_MACRO_ALLOW_GLOBS):
        return []
    out = []
    for i, line in enumerate(stripped_lines, 1):
        if _FLIGHT_DIRECT_RE.search(line):
            out.append(Violation(
                path, i, "flight-macro-only",
                "direct FlightRecorder::RecordEvent call; record through "
                "UJOIN_OBS_FLIGHT_EVENT(...) so -DUJOIN_OBS=OFF compiles "
                "it out and the site stays on the flight-path contract's "
                "alloc/lock/io-free record path"))
    return out


CHECKS = [
    check_rng_source,
    check_unordered_iteration,
    check_probe_path_alloc,
    check_obs_macro_only,
    check_simd_intrinsics,
    check_query_log_api,
    check_flight_macro_only,
]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_text(path: str, text: str) -> list[Violation]:
    """Lints one file's contents as repo-relative `path`."""
    raw_lines = text.split("\n")
    stripped = strip_comments_and_literals(text)
    stripped_lines = stripped.split("\n")
    functions = enclosing_functions(stripped)
    violations: list[Violation] = []
    used: set[tuple[int, str]] = set()  # (comment line, rule) consumed
    for check in CHECKS:
        for v in check(path, stripped_lines, functions=functions):
            comment_line = _suppression_at(raw_lines, v.line, v.rule)
            if comment_line is None:
                violations.append(v)
            else:
                used.add((comment_line, v.rule))
    violations.extend(
        stale_suppression_violations(path, raw_lines, used))
    violations.sort(key=lambda v: (v.line, v.rule))
    return violations


def iter_repo_files(root: str) -> list[str]:
    found: list[str] = []
    for glob in SCAN_GLOBS:
        # fnmatch-based recursive walk (Python's glob ** needs recursive=True
        # and we want stable ordering anyway).
        for dirpath, _dirnames, filenames in os.walk(root):
            rel_dir = os.path.relpath(dirpath, root)
            for fname in sorted(filenames):
                rel = os.path.normpath(os.path.join(rel_dir, fname))
                rel = rel.replace(os.sep, "/")
                if fnmatch.fnmatch(rel, glob) and rel not in found:
                    found.append(rel)
    return sorted(
        rel for rel in found if not _matches(rel, EXCLUDE_GLOBS))


def lint_paths(root: str, rel_paths: list[str]) -> list[Violation]:
    texts: dict[str, str] = {}
    for rel in rel_paths:
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                texts[rel] = f.read()
        except OSError as e:
            print(f"ujoin_lint: cannot read {full}: {e}", file=sys.stderr)
            sys.exit(2)
    violations: list[Violation] = []
    for rel in rel_paths:
        violations.extend(lint_text(rel, texts[rel]))
    return violations


# ---------------------------------------------------------------------------
# Self-test: fixtures with seeded violations
# ---------------------------------------------------------------------------

FIXTURE_DIRECTIVE_RE = re.compile(
    r"ujoin-lint-fixture:\s*as=(\S+)\s+rule=(\S+)\s+expect=(\d+)")


def run_self_test(root: str) -> int:
    """Lints every fixture under tests/lint/fixtures as the path named in
    its `ujoin-lint-fixture` directive and checks the violation count and
    rule.  Returns a process exit status."""
    fixture_dir = os.path.join(root, "tests", "lint", "fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"ujoin_lint: no fixture directory at {fixture_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    total = 0
    for fname in sorted(os.listdir(fixture_dir)):
        if not fname.endswith((".cc", ".h")):
            continue
        full = os.path.join(fixture_dir, fname)
        with open(full, encoding="utf-8") as f:
            text = f.read()
        m = FIXTURE_DIRECTIVE_RE.search(text)
        if not m:
            print(f"FAIL {fname}: missing ujoin-lint-fixture directive")
            failures += 1
            continue
        as_path, rule, expect = m.group(1), m.group(2), int(m.group(3))
        if rule != "-" and rule not in RULE_NAMES:
            print(f"FAIL {fname}: unknown rule '{rule}' in directive")
            failures += 1
            continue
        total += 1
        violations = lint_text(as_path, text)
        ok = len(violations) == expect and all(
            rule == "-" or v.rule == rule for v in violations)
        if ok:
            print(f"ok   {fname}: {len(violations)} violation(s) as expected")
        else:
            failures += 1
            print(f"FAIL {fname}: expected {expect} violation(s) of "
                  f"'{rule}', got {len(violations)}:")
            for v in violations:
                print(f"     {v}")
    if total == 0:
        print("FAIL: no fixtures found")
        return 1
    # The fixture suite must cover every rule with at least one seeded
    # violation and one clean counterpart, or the linter itself is untested.
    covered: dict[str, set[str]] = {r: set() for r in RULE_NAMES}
    for fname in sorted(os.listdir(fixture_dir)):
        full = os.path.join(fixture_dir, fname)
        if not os.path.isfile(full) or not fname.endswith((".cc", ".h")):
            continue
        with open(full, encoding="utf-8") as f:
            m = FIXTURE_DIRECTIVE_RE.search(f.read())
        if m and m.group(2) in covered:
            covered[m.group(2)].add(
                "seeded" if int(m.group(3)) > 0 else "clean")
    for rule, kinds in covered.items():
        for kind in ("seeded", "clean"):
            if kind not in kinds:
                print(f"FAIL: rule '{rule}' has no {kind} fixture")
                failures += 1
    print(f"self-test: {total} fixture(s), {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="ujoin_lint.py",
        description="ujoin-specific invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite and exit")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="repo-relative files to lint (default: all)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.list_rules:
        for rule in RULE_NAMES:
            print(rule)
        return 0
    if args.self_test:
        return run_self_test(root)

    rel_paths = args.paths or iter_repo_files(root)
    violations = lint_paths(root, rel_paths)
    for v in violations:
        print(v)
    if violations:
        print(f"ujoin_lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)")
        return 1
    print(f"ujoin_lint: {len(rel_paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
