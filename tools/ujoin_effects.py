#!/usr/bin/env python3
"""ujoin_effects: the repo's static analyzer.

The runtime tests sample two guarantees of the join on the inputs they run:
the steady-state probe path never allocates, and every pair list, index
image and report is byte-identical across thread counts and runs.  This
tool proves the coding rules both depend on for every code path, compiled
or not.  It is a regex-AST hybrid (libclang is not available in the build
container): a lexer strips comments and literals, a brace tracker
attributes every line to its namespace/class-qualified function, evidence
patterns run over the stripped lines, and a function-level call graph of
src/ and tools/*.cc carries that evidence transitively.

Evidence kinds.  The first eight form the effect lattice that propagates
over the call graph (a set union lattice; bigger = more effects):

  alloc          heap allocation: new/malloc/make_unique/make_shared or
                 construction of a local allocating container
  lock           mutex acquisition: lock_guard/unique_lock/scoped_lock,
                 .lock()
  io             syscalls and streams: socket/send/recv/open/fstream/...
  block          unbounded blocking: thread join, condition_variable wait,
                 sleep, accept
  wall_clock     reading the clock: Timer/ScopedTimer/ScopedNanoTimer,
                 steady_clock::now
  rng            an unseeded randomness source (rand, random_device,
                 std:: engines, time(NULL) seeds); ujoin::Rng does not count
  unordered_iter iterating an unordered_{map,set}: order depends on hash
                 seeding and insertion history
  obs_record     direct Recorder or FlightRecorder recording (RecordHist/
                 AddCounter/SetGauge/AddFunnel/RecordEvent)

The last two are only checked by scope:

  json_writer    JsonWriter use
  simd_intrinsic intrinsics headers, x86/NEON vector types and calls,
                 __builtin_prefetch, __builtin_cpu_supports

Contracts.  A graph contract (CONTRACTS) forbids effects on every call
path from its roots and reports each violation with its call-chain
witness.  A scope contract (SCOPE_CONTRACTS) forbids one evidence kind in
a set of files, minus the files allowed to hold it, and reports the line.
Graph contracts see src/ and tools/*.cc; scope contracts also scan bench/,
tests/ and examples/.  `--list-contracts` prints them; DESIGN.md
"Static analysis and CI gates" explains each.

Annotation grammar (in comments, attached to the function they precede or
enclose):

  // ujoin-effect: declares(alloc, io) -- reason
      This function intentionally carries these effects.  Adds them if the
      analyzer cannot see them (externals), and *blesses* them: a graph
      traversal that reaches this function accepts the declared effects
      instead of reporting a violation.  Traversal still descends into
      the callees.
  // ujoin-effect: assumes(alloc) -- reason
      Vouches for the whole subtree: traversals stop here for the listed
      effects.  Use for intentional sinks whose internals are audited by
      other means.
  // ujoin-effect: calls(ujoin::Foo::Bar) -- reason
      Adds an explicit call edge for indirection the extractor cannot see
      (function pointers, type-erased callbacks, operator syntax).

Every annotation must be load-bearing: a declares()/assumes() that no
traversal consults, an assumes() masking an effect its subtree does not
have, or a calls() naming an unknown function is a stale-annotation error.
Scope contracts have no escape hatch besides their allowed paths.

Fixtures.  --self-test runs embedded graphs and every fixture under
tests/lint/fixtures/: a .cc/.h file is a one-file tree, a directory a
multi-file tree.  Each source carries the directive

  // ujoin-effects-fixture: as=<repo path> [contract=<a,b>] [witness=<f,g>]

and every line the analysis must report carries `flagged: <contract>` in a
comment.  A fixture passes when its findings are exactly its flagged
lines; `witness=` also requires that call chain, and a golden.json beside
a tree pins the report bytes.  Every contract needs a seeded fixture (one
flagged line) and a clean one (named by contract=, none flagged).

Usage:
  tools/ujoin_effects.py [--root DIR] [--report FILE] [--require-roots]
  tools/ujoin_effects.py --self-test
  tools/ujoin_effects.py --list-contracts

The report (--report) is the versioned "ujoin.effects" JSON document:
deterministic byte-for-byte for a fixed tree (no timestamps, sorted
collections), so fixtures pin it byte-golden.

Exit status: 0 clean, 1 violations/stale findings, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys
from dataclasses import dataclass, field

SCHEMA_NAME = "ujoin.effects"
SCHEMA_VERSION = 1

EFFECTS = (
    "alloc", "lock", "io", "block", "wall_clock", "rng", "unordered_iter",
    "obs_record",
)

# Files scanned (relative to the repo root).  The call graph covers the
# production subset GRAPH_GLOBS: tests exercise deliberately-allocating
# convenience overloads, and contracts constrain the production tree.
SCAN_GLOBS = [
    "src/**/*.h", "src/**/*.cc",
    "tools/*.cc",
    "bench/*.cc", "bench/*.h",
    "tests/**/*.cc", "tests/**/*.h",
    "examples/*.cpp",
]
GRAPH_GLOBS = ["src/**/*.h", "src/**/*.cc", "tools/*.cc"]
# Fixtures contain deliberate violations; never scanned as real code.
EXCLUDE_GLOBS = ["tests/lint/*"]


def _matches(path: str, globs: list[str]) -> bool:
    return any(fnmatch.fnmatch(path, g) for g in globs)


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
# Function tracker: map each line to the function that encloses it
#
# The tracker walks the stripped source once, classifying every `{` as a
# namespace, class, enum, function, lambda, or plain block, and records a
# FunctionSpan for each function-like body.  It handles the constructs a
# naive "last identifier before `(`" tracker mis-attributes:
#   * lambdas get their own frame (named `(lambda@LINE)`, qualified by the
#     enclosing function or, at namespace scope, by the namespace);
#   * constructor init lists (`Foo::Foo() : a_(x), b_(y) {`) attribute the
#     body to the constructor, not to the last initializer (`b_`);
#   * operator definitions (`operator==`, `operator[]`, `operator()`, …)
#     and out-of-line template members get proper frames.
# tests/lint/fixtures/ pins each of these (bad_lambda_scope_alloc.cc,
# clean_ctor_init_alloc.cc, bad_operator_alloc.cc).
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
    """One function-like body: a named function, method, operator, lambda,
    or `UJOIN_*` macro.  `qual` is the `::`-qualified name including
    namespace and class scope (lambdas: `<enclosing-qual>::(lambda@LINE)`);
    `name` is the unqualified last component.  Lines are 1-based;
    `start_line` is the line of the opening brace, `end_line` the line of
    the closing brace."""
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
    names: the structural backbone of the call graph."""
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


_MACRO_DEF_RE = re.compile(r"^\s*#\s*define\s+(UJOIN_\w+)\s*\(")


def _macro_spans(stripped_lines: list[str]) -> list[FunctionSpan]:
    """Function-like `#define UJOIN_*(...)` macros become pseudo-function
    spans, so the obs macro layer appears in the call graph: call sites
    UJOIN_OBS_COUNTER(...) resolve to the macro node, and the macro body's
    direct Recorder mutation is attributed to it (not to file scope)."""
    spans = []
    i = 0
    while i < len(stripped_lines):
        m = _MACRO_DEF_RE.match(stripped_lines[i])
        if m:
            start = i + 1
            end = i
            while end < len(stripped_lines) - 1 and \
                    stripped_lines[end].rstrip().endswith("\\"):
                end += 1
            spans.append(FunctionSpan(
                m.group(1), m.group(1), start, end + 1, None, False))
            i = end + 1
        else:
            i += 1
    return spans


# ---------------------------------------------------------------------------
# Evidence: patterns over stripped source lines
# ---------------------------------------------------------------------------

_ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w:])new\s*\("), "placement/operator new"),
    (re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?(?:m|c|re)alloc\s*\("),
     "malloc-family call"),
    (re.compile(r"make_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(
        r"(?<![\w:])(?:std\s*::\s*)?"
        r"(?:vector|deque|list|map|set|multimap|multiset|"
        r"unordered_map|unordered_set|basic_string)\s*<[^;{}]*>\s+(\w+)"
        r"\s*[;({=]"),
     "local allocating container"),
    (re.compile(r"(?<![\w:])std\s*::\s*string\s+(\w+)\s*[;({=]"),
     "local std::string"),
]

_LOCK_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?"
                r"(?:lock_guard|unique_lock|scoped_lock|shared_lock)\s*<"),
     "mutex guard construction"),
    (re.compile(r"(?:\.|->)\s*lock\s*\(\s*\)"), ".lock()"),
    (re.compile(r"\bpthread_mutex_lock\s*\("), "pthread_mutex_lock"),
]

_IO_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?[oi]?fstream\b"), "file stream"),
    (re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog|cin)\b"), "std stream"),
    (re.compile(r"(?<![\w:.>])(?:f?printf|fputs|fopen|fclose|fread|fwrite"
                r"|fflush|remove|rename|getenv|system)\s*\("),
     "libc io call"),
    (re.compile(r"(?<![\w:.>])(?:socket|bind|listen|accept|connect|send"
                r"|recv|setsockopt|getsockname|poll|close)\s*\("),
     "socket/syscall"),
]

_BLOCK_PATTERNS = [
    (re.compile(r"(?:\.|->)\s*join\s*\(\s*\)"), "thread join"),
    (re.compile(r"(?:\.|->)\s*wait\s*\("), "condition_variable wait"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    (re.compile(r"(?<![\w:.>])(?:sleep|usleep)\s*\("), "sleep"),
    (re.compile(r"(?<![\w:.>])accept\s*\("), "blocking accept"),
]

_WALL_CLOCK_PATTERNS = [
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock"
                r"|Clock)\s*::\s*now\s*\("),
     "clock read"),
    (re.compile(r"\b(?:Timer|ScopedTimer|ScopedNanoTimer)\s+\w+\s*[;({]"),
     "stopwatch construction"),
]

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

# Taking the flight recorder's pointer (GlobalFlightRecorder()) for
# lifecycle wiring is fine; only recording counts.
_OBS_RECORD_PATTERNS = [
    (re.compile(r"(?:\.|->)\s*(?:RecordHist|AddCounter|SetGauge|AddFunnel)"
                r"\s*\("),
     "direct Recorder mutation"),
    (re.compile(r"(?:\.|->)\s*RecordEvent\s*\("),
     "direct FlightRecorder::RecordEvent"),
]

_JSON_WRITER_PATTERNS = [
    (re.compile(r"\bJsonWriter\b"), "JsonWriter use"),
]

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

EVIDENCE_PATTERNS = {
    "alloc": _ALLOC_PATTERNS,
    "lock": _LOCK_PATTERNS,
    "io": _IO_PATTERNS,
    "block": _BLOCK_PATTERNS,
    "wall_clock": _WALL_CLOCK_PATTERNS,
    "rng": _RNG_PATTERNS,
    "obs_record": _OBS_RECORD_PATTERNS,
    "json_writer": _JSON_WRITER_PATTERNS,
    "simd_intrinsic": _INTRINSIC_PATTERNS,
}

_UNORDERED_DECL_RE = re.compile(r"unordered_(?:multi)?(?:map|set)\s*<")
# Declared names of unordered containers (members, locals, parameters).
# Greedy `<...>` absorbs nested template arguments on the same line.
_UNORDERED_NAME_RE = re.compile(
    r"unordered_(?:multi)?(?:map|set)\s*<[^;{}]*>(?:\s*[&*])?\s+(\w+)"
    r"\s*[;={(,)]")
# Range-for: `for ( decl : range-expr )`, the header read up to its own
# closing parenthesis, so a body on the same line is not part of the range.
# A `;` in the header marks a classic `for (init; cond; step)` loop.
_FOR_HEADER_RE = re.compile(r"\bfor\s*\(")
_RANGE_FOR_COLON_RE = re.compile(r"(?<!:):(?!:)")
_BEGIN_CALL_RE = re.compile(r"([\w.\->]+)\s*(?:\.|->)\s*c?begin\s*\(")


def _base_identifier(expr: str) -> str:
    """Trailing identifier of an lvalue expression: `ws->sets_` -> `sets_`."""
    m = re.search(r"([\w.\->]+)\s*$", expr.strip().replace("()", ""))
    return re.split(r"\.|->", m.group(1))[-1] if m else ""


def _range_for_expr(line: str) -> str | None:
    """The range expression of the first range-for header on `line` whose
    parentheses close on it; None if there is none."""
    for m in _FOR_HEADER_RE.finditer(line):
        depth = 1
        end = m.end()
        while end < len(line) and depth > 0:
            depth += {"(": 1, ")": -1}.get(line[end], 0)
            end += 1
        if depth > 0:
            return None
        header = line[m.end():end - 1]
        colon = _RANGE_FOR_COLON_RE.search(header)
        if ";" not in header and colon:
            return header[colon.end():]
    return None


def _unordered_iteration(line: str, unordered_names: set[str]) -> str | None:
    """Describes an iteration over an unordered container on `line`, whose
    file declares the containers `unordered_names`; None if there is none."""
    range_expr = _range_for_expr(line)
    if range_expr is not None:
        if _UNORDERED_DECL_RE.search(range_expr):
            return "range-for over an unordered temporary"
        base = _base_identifier(range_expr)
        if base in unordered_names:
            return f"range-for over unordered container '{base}'"
    m = _BEGIN_CALL_RE.search(line)
    if m:
        base = re.split(r"\.|->", m.group(1).replace("()", ""))[-1]
        if base in unordered_names:
            return f"iterator over unordered container '{base}'"
    return None


def line_evidence(line: str, unordered_names: set[str], function: str
                  ) -> list[tuple[str, str]]:
    """Evidence on one stripped line of `function` (unqualified name, or
    "" outside functions): (kind, what) pairs, one per kind."""
    out: list[tuple[str, str]] = []
    for kind, patterns in EVIDENCE_PATTERNS.items():
        for pat, what in patterns:
            m = pat.search(line)
            # A container type followed by the enclosing function's own
            # name is that function's signature (return type), not a local.
            if m and not (m.groups() and m.group(1) == function):
                out.append((kind, what))
                break
    what = _unordered_iteration(line, unordered_names)
    if what:
        out.append(("unordered_iter", what))
    return out


@dataclass
class SourceFile:
    """One scanned file, lexed and tracked once for every contract."""
    rel: str
    raw_lines: list[str]
    stripped_lines: list[str]
    spans: list[FunctionSpan]
    line_span: list[int | None]            # innermost span index per line
    evidence: list[list[tuple[str, str]]]  # line_evidence per line

    def function_at(self, line: int) -> str:
        idx = self.line_span[line - 1]
        return self.spans[idx].qual if idx is not None else "(file scope)"


def load_source(rel: str, text: str) -> SourceFile:
    stripped = strip_comments_and_literals(text)
    stripped_lines = stripped.split("\n")
    spans = function_spans(stripped) + _macro_spans(stripped_lines)
    # Innermost span per line (later/inner spans overwrite).
    line_span: list[int | None] = [None] * len(stripped_lines)
    for idx, span in enumerate(spans):
        for ln in range(span.start_line,
                        min(span.end_line, len(stripped_lines)) + 1):
            line_span[ln - 1] = idx
    # Unordered container names declared anywhere in the file.
    unordered_names = set(_UNORDERED_NAME_RE.findall(stripped))
    return SourceFile(rel, text.split("\n"), stripped_lines, spans,
                      line_span,
                      [line_evidence(line, unordered_names,
                                     spans[idx].name if idx is not None
                                     else "")
                       for line, idx in zip(stripped_lines, line_span)])


# Effects of calls the extractor cannot resolve to a repo function.  Keyed
# by the callee's last name component; consulted only after repo-function
# resolution fails, so a repo function named e.g. `Open` shadows the entry.
BUILTIN_CALL_EFFECTS = {
    "to_string": ("alloc", "std::to_string"),
    "substr": ("alloc", "std::string::substr"),
    "stringstream": ("alloc", "stringstream"),
    "strdup": ("alloc", "strdup"),
    "fopen": ("io", "fopen"),
    "getline": ("io", "getline"),
    "wait_for": ("block", "condition_variable wait_for"),
}

_ANNOT_RE = re.compile(r"ujoin-effect:\s*(declares|assumes|calls)\(([^)]*)\)")

# ---------------------------------------------------------------------------
# Graph model
# ---------------------------------------------------------------------------


@dataclass
class Evidence:
    effect: str
    file: str
    line: int
    what: str


@dataclass
class Annotation:
    kind: str       # declares | assumes | calls
    arg: str        # one effect name or one call target
    file: str
    line: int       # 1-based line of the comment
    used: bool = False


@dataclass
class Node:
    qual: str                       # merged key: qualified function name
    files: list = field(default_factory=list)       # definition sites
    evidence: list = field(default_factory=list)    # [Evidence]
    declares: dict = field(default_factory=dict)    # effect -> Annotation
    assumes: dict = field(default_factory=dict)     # effect -> Annotation
    callees: set = field(default_factory=set)       # node quals

    def direct_effects(self) -> set[str]:
        return {e.effect for e in self.evidence} | set(self.declares)


_CALL_RE = re.compile(
    r"(?<![\w.>:])((?:~?\w+\s*::\s*)+~?\w+|\w+)\s*\(")
_MEMBER_CALL_RE = re.compile(
    r"([\w\)\]]+(?:(?:\.|->)\w+(?:\(\s*\))?)*)\s*(?:\.|->)\s*(\w+)\s*\(")
_DECL_BIND_RE = re.compile(
    r"(?:^|[;{(,]|\bconst\s|\bstatic\s|\bmutable\s)\s*"
    r"((?:\w+\s*::\s*)*[A-Z]\w*)(?:<[^;{}]*>)?([&*\s]+)(\w+)\s*(?:[;={(,]|$)")
_MEMBER_BIND_RE = re.compile(
    r"^\s*(?:const\s+|static\s+|mutable\s+)*"
    r"((?:\w+\s*::\s*)*[A-Z]\w*)(?:<[^;{}()]*>)?[&*\s]+(\w+_)\s*[;={]")
# Lowercase std:: vocabulary types the class-style binder misses.  Binding
# them lets builtin-call inference stay type-aware: string_view::substr is
# allocation-free while string::substr is not.
_STD_BIND_RE = re.compile(r"\bstd\s*::\s*(string_view|string)\b[&*\s]+(\w+)\b")
# A namespace-scope lambda bound to a name: `auto kNormalize = [](...) {`.
_LAMBDA_BIND_RE = re.compile(r"\b(\w+)\s*=\s*\[")

_CALL_KEYWORDS = _CONTROL_KEYWORDS | {
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "defined", "assert", "static_assert", "noexcept", "alignas",
    "UJOIN_CHECK", "UJOIN_RETURN_IF_ERROR", "UJOIN_ASSIGN_OR_RETURN",
}


def _norm(name: str) -> str:
    return re.sub(r"\s*::\s*", "::", name.strip())


class Graph:
    """The whole-repo call graph with per-function effect evidence."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.by_last: dict[str, set[str]] = {}       # last comp -> quals
        self.class_methods: dict[str, dict[str, set[str]]] = {}
        self.member_types: dict[str, str] = {}       # `foo_` -> type last comp
        self.lambda_names: dict[tuple[str, str], str] = {}  # (file, var)
        self.annotations: list[Annotation] = []
        self.call_edges_from_annotations: list[tuple[str, str, Annotation]] = []
        self.files: list[str] = []
        self._pending_calls: list = []

    # -- node bookkeeping ---------------------------------------------------

    def node(self, qual: str) -> Node:
        qual = _norm(qual)
        n = self.nodes.get(qual)
        if n is None:
            n = Node(qual)
            self.nodes[qual] = n
            parts = qual.split("::")
            self.by_last.setdefault(parts[-1], set()).add(qual)
            if len(parts) >= 2 and "(" not in parts[-1]:
                cls = parts[-2]
                if "(" not in cls:
                    self.class_methods.setdefault(cls, {}).setdefault(
                        parts[-1], set()).add(qual)
        return n

    # -- extraction ---------------------------------------------------------

    def add_file(self, src: SourceFile) -> None:
        rel = src.rel
        self.files.append(rel)
        spans = src.spans
        stripped_lines = src.stripped_lines
        # Member variable bindings (class scope, `name_` convention) are
        # collected globally: the trailing underscore keeps them unambiguous
        # enough across the tree.
        for line in stripped_lines:
            m = _MEMBER_BIND_RE.match(line)
            if m:
                self.member_types.setdefault(
                    m.group(2), _norm(m.group(1)).split("::")[-1])
        # Register nodes.
        span_nodes: list[Node] = []
        for span in spans:
            n = self.node(span.qual)
            if rel not in n.files:
                n.files.append(rel)
            span_nodes.append(n)
            if span.is_lambda and span.parent is None:
                m = _LAMBDA_BIND_RE.search(stripped_lines[span.start_line - 1])
                if m:
                    self.lambda_names[(rel, m.group(1))] = n.qual
        # Effect evidence + raw call sites per line.
        calls: dict[int, list[tuple[str, str, int, bool]]] = {}
        for i, line in enumerate(stripped_lines, 1):
            idx = src.line_span[i - 1]
            if idx is None:
                continue
            node = span_nodes[idx]
            for effect, what in src.evidence[i - 1]:
                if effect in EFFECTS:
                    node.evidence.append(Evidence(effect, rel, i, what))
            sites = calls.setdefault(idx, [])
            for m in _CALL_RE.finditer(line):
                name = _norm(m.group(1))
                if name.split("::")[-1] in _CALL_KEYWORDS:
                    continue
                sites.append(("free", name, i, False))
            for m in _MEMBER_CALL_RE.finditer(line):
                obj, meth = m.group(1), m.group(2)
                if meth in _CALL_KEYWORDS:
                    continue
                base = re.split(r"\.|->", obj.replace("()", ""))[-1]
                # Inline string_view temporaries (`string_view(x).substr(...)`)
                # leave no binding; the line text is the only type signal.
                sv_hint = "string_view" in line[:m.start(2)]
                sites.append(("member", f"{base}.{meth}", i, sv_hint))
            for m in _DECL_BIND_RE.finditer(line):
                # A pointer/reference declaration binds the name for member
                # resolution but constructs nothing.
                if "*" not in m.group(2) and "&" not in m.group(2):
                    sites.append(("ctor", _norm(m.group(1)), i, False))
        # Local variable bindings per span (span body text).
        span_binds: dict[int, dict[str, str]] = {}
        for idx, span in enumerate(spans):
            binds: dict[str, str] = {}
            # span.start_line is the `{` line; the signature (and its
            # parameter types) may run over the preceding lines.  Backscan a
            # bounded window, stopping at the previous statement boundary.
            sig_start = span.start_line - 1
            while (sig_start > 1 and span.start_line - sig_start < 8 and
                   not re.search(r"[;}]\s*$|^\s*#",
                                 stripped_lines[sig_start - 2])):
                sig_start -= 1
            for ln in range(sig_start - 1,
                            min(span.end_line, len(stripped_lines))):
                for m in _DECL_BIND_RE.finditer(stripped_lines[ln]):
                    binds[m.group(3)] = _norm(m.group(1)).split("::")[-1]
                for m in _STD_BIND_RE.finditer(stripped_lines[ln]):
                    binds[m.group(2)] = m.group(1)
            span_binds[idx] = binds
        for idx, sites in calls.items():
            for kind, name, line_no, sv_hint in sites:
                self._pending_calls.append(
                    (spans[idx].qual, kind, name, rel, line_no,
                     span_binds.get(idx, {}), sv_hint))
        # Annotations attach to the innermost span containing the comment
        # line, else to the next span that starts after it.
        for i, raw in enumerate(src.raw_lines, 1):
            for m in _ANNOT_RE.finditer(raw):
                kind = m.group(1)
                args = [a.strip() for a in m.group(2).split(",") if a.strip()]
                target = self._annotation_target(spans, i)
                for arg in args:
                    ann = Annotation(kind, _norm(arg), rel, i)
                    self.annotations.append(ann)
                    if target is None:
                        continue  # dangling: reported stale later
                    node = self.node(target.qual)
                    if kind == "declares":
                        node.declares.setdefault(arg, ann)
                    elif kind == "assumes":
                        node.assumes.setdefault(arg, ann)
                    else:  # calls
                        self.call_edges_from_annotations.append(
                            (node.qual, ann.arg, ann))

    @staticmethod
    def _annotation_target(spans, line: int):
        inner = None
        for span in spans:
            if span.start_line <= line <= span.end_line:
                if inner is None or span.start_line >= inner.start_line:
                    inner = span
        if inner is not None:
            return inner
        after = [s for s in spans if s.start_line > line]
        return min(after, key=lambda s: s.start_line) if after else None

    # -- call resolution (after all files are loaded) -----------------------

    def resolve_calls(self) -> None:
        for caller, kind, name, rel, line_no, binds, sv_hint in \
                self._pending_calls:
            caller = _norm(caller)
            targets = self._resolve(caller, kind, name, binds, rel)
            for target in targets:
                if target != caller:
                    self.nodes[caller].callees.add(target)
            if not targets and kind != "ctor":
                last = name.split("::")[-1].split(".")[-1]
                hit = BUILTIN_CALL_EFFECTS.get(last)
                if hit and last == "substr":
                    base = name.split(".")[0]
                    if sv_hint or binds.get(base) == "string_view":
                        hit = None  # string_view::substr does not allocate
                if hit:
                    self.nodes[caller].evidence.append(
                        Evidence(hit[0], rel, line_no, hit[1]))
        for caller, target, ann in self.call_edges_from_annotations:
            resolved = self._suffix_match(target)
            if resolved:
                ann.used = True
                for t in resolved:
                    self.nodes[caller].callees.add(t)
        # Lambdas are invoked by their definer (directly or passed down):
        # add the implicit definition edge.
        for qual in list(self.nodes):
            if "(lambda@" in qual:
                parent = qual.rsplit("::(lambda@", 1)[0]
                if parent in self.nodes:
                    self.nodes[parent].callees.add(qual)
        # Builtin member-call effects (e.g. cv.wait) that never resolved are
        # already covered by the direct-evidence patterns.

    def _resolve(self, caller: str, kind: str, name: str,
                 binds: dict[str, str], rel: str) -> set[str]:
        if kind == "member":
            base, meth = name.split(".", 1)
            btype = binds.get(base) or self.member_types.get(base)
            if btype and btype in self.class_methods:
                hits = self.class_methods[btype].get(meth)
                if hits:
                    return set(hits)
            if btype:
                return set()  # bound to a non-repo type (std:: etc.)
            hits = set()
            for cls, methods in self.class_methods.items():
                hits |= methods.get(meth, set())
            return hits
        if kind == "ctor":
            last = name.split("::")[-1]
            return self._suffix_match(f"{name}::{last}") or \
                self._suffix_match(f"{last}::{last}")
        # A call through a namespace-scope lambda's name.
        lam = self.lambda_names.get((rel, name))
        if lam:
            return {lam}
        # free / qualified call
        hits = self._suffix_match(name)
        if hits:
            return hits
        # Unqualified constructor-style temporary `Type(...)`.
        last = name.split("::")[-1]
        if last[:1].isupper():
            hits = self._suffix_match(f"{name}::{last}")
            if hits:
                return hits
        # Same-class unqualified member call.
        if "::" not in name:
            caller_parts = caller.split("::")
            if len(caller_parts) >= 2:
                cls = caller_parts[-2]
                hits = self.class_methods.get(cls, {}).get(name)
                if hits:
                    return set(hits)
        return set()

    def _suffix_match(self, name: str) -> set[str]:
        parts = name.split("::")
        candidates = self.by_last.get(parts[-1], set())
        out = set()
        for qual in candidates:
            qparts = qual.split("::")
            if qparts[-len(parts):] == parts:
                out.add(qual)
        return out

    # -- propagation --------------------------------------------------------

    def closures(self) -> dict[str, set[str]]:
        """Unmasked transitive effect closure per node (direct + declared
        effects of the node and everything reachable from it)."""
        closure = {q: set(n.direct_effects()) for q, n in self.nodes.items()}
        changed = True
        while changed:
            changed = False
            for q, n in self.nodes.items():
                acc = closure[q]
                before = len(acc)
                for callee in n.callees:
                    acc |= closure.get(callee, set())
                if len(acc) != before:
                    changed = True
        return closure


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------
#
# Graph contracts: roots, allow_nodes, and allow_subtrees are function-name
# suffixes matched at `::` boundaries.  allow_nodes accepts the function's
# *own* effects but still descends into its callees; allow_subtrees stops
# the traversal (the subtree is vouched for).  Growing either list is a
# reviewed change to this file — that is the point: a new allocation two
# layers below a query root fails CI until it is whitelisted or annotated.

CONTRACTS = [
    {
        "name": "probe-path",
        "doc": "query roots reach no alloc/lock/io/block outside the "
               "frozen build/workspace-growth whitelist",
        "roots": [
            "InvertedSegmentIndex::Query",
            "LengthBucketIndex::QueryCandidates",
            "SimilaritySearcher::Search",
            "SimilaritySearcher::SearchMany",
            "ujoin::SimilaritySelfJoin",
            # The per-candidate filter-and-verify cascade every driver runs
            # (join/probe_cascade.h).  It declares no container of its own:
            # hits go to the caller's vector, whose growth the callers'
            # allow_nodes entries already cover, so it needs no entry.
            "internal::RunCascade",
        ],
        "forbid": ["alloc", "lock", "io", "block"],
        "allow_nodes": [
            # Driver-level setup and result emission: vectors sized to the
            # batch before the steady-state loop, hit emission after.
            "ujoin::SimilaritySelfJoin",
            "SimilaritySearcher::Search",
            "SimilaritySearcher::SearchTopK",
            "SimilaritySearcher::SearchMany",
            "SimilaritySearcher::SearchImpl",
            "SimilaritySearcher::Explain",
            # The ordered pool both drivers run on: it starts and joins its
            # workers once per batch, and hands positions and their outcomes
            # over under one mutex (a few lock operations per probe).
            "internal::OrderedPool::StartWorkers",
            "internal::OrderedPool::StopWorkers",
            "internal::OrderedPool::Release",
            "internal::OrderedPool::Drain",
            "internal::OrderedPool::WorkerLoop",
            # Workspace growth: allocates until warm, then reuses.
            "FlatProbeSets::Reset",
            "ujoin::BuildProbeSet",
        ],
        "allow_subtrees": [
            # Pair verification builds per-pair tries by design; its own
            # budget/deadline limits bound the work (see verify/).
            "internal::PairVerifier::PairVerifier",
            "internal::PairVerifier::Decide",
            "internal::PairVerifier::Probability",
            # The self-join root spans both phases; phase 1 builds the index
            # (postings, partitions, world enumeration all allocate).
            "InvertedSegmentIndex::Insert",
            # Query-log writes: SearchMany's fold writes each query's
            # record on the calling thread, outside the probes themselves.
            "obs::QueryLog::Write",
            # Error construction allocates the message string; error paths
            # are not steady state.
            "Status::InvalidArgument",
            "Status::IoError",
            "Status::NotFound",
            "Status::Internal",
            "Status::ResourceExhausted",
        ],
    },
    {
        "name": "serialize-deterministic",
        "doc": "serialized bytes are a pure function of content: no "
               "unordered iteration, no clock reads, no unseeded rng",
        "roots": [
            "InvertedSegmentIndex::Serialize",
            "LengthBucketIndex::Serialize",
            "SimilaritySearcher::Save",
            "obs::DeterministicContentJson",
            "obs::RenderQueryLogLine",
            "obs::RenderSlowQueriesPage",
            "obs::RenderPrometheusText",
            "serve::RenderHitsResponse",
            "serve::RenderErrorResponse",
        ],
        "forbid": ["unordered_iter", "wall_clock", "rng"],
        "allow_nodes": [],
        "allow_subtrees": [],
    },
    {
        "name": "flight-path",
        "doc": "flight-event record and dump paths reach no alloc/lock/io "
               "(crash-safe: the only I/O is the blessed pre-opened-fd "
               "sink write)",
        "roots": [
            "FlightRecorder::RecordEvent",
            "FlightRecorder::DumpToFd",
        ],
        "forbid": ["alloc", "lock", "io"],
        "allow_nodes": [],
        "allow_subtrees": [],
    },
    {
        "name": "serve-steady",
        "doc": "request handling and the aggregate fold/snapshot path "
               "reach no unbounded blocking call",
        "roots": [
            "SearchServer::HandleConnection",
            "SearchServer::FoldQuery",
            "SearchServer::FinishBatch",
            "SearchServer::PushSnapshotLocked",
            "SearchServer::QueryMetrics",
            "SearchServer::ServeMetrics",
            "SearchServer::Stats",
            "SearchServer::SlowQueriesJson",
        ],
        "forbid": ["block"],
        "allow_nodes": [],
        "allow_subtrees": [],
    },
]

# Scope contracts: one evidence kind, forbidden in every scanned file that
# matches `scope` unless it also matches `allow`.  Checked line by line, so
# evidence at file scope (an #include, a declaration) counts too.
SCOPE_CONTRACTS = [
    {
        # Every other file records through the UJOIN_OBS_* macros (defined
        # in src/obs/), which compile out under -DUJOIN_OBS=OFF and keep
        # the null-recorder guard; the watchdog records its own captures.
        "name": "obs-isolation",
        "doc": "obs_record only inside src/obs/ (reached via UJOIN_OBS_*)",
        "effect": "obs_record",
        "scope": ["src/*", "tools/*"],
        "allow": ["src/obs/*"],
    },
    {
        # Files that produce join results or serialized output: pair lists,
        # index images, run reports, serve responses.  Iteration order here
        # is output order.
        "name": "unordered-iteration",
        "doc": "no unordered_iter where iteration order is output order; "
               "sort first or use an ordered/flat container",
        "effect": "unordered_iter",
        "scope": ["src/join/*", "src/index/*", "src/obs/*", "src/serve/*",
                  "src/util/serde*", "tools/ujoin_cli.cc"],
        "allow": [],
    },
    {
        "name": "rng-source",
        "doc": "rng only in src/util/rng.h: everything else draws from the "
               "seeded ujoin::Rng, so runs reproduce from their seed",
        "effect": "rng",
        "scope": ["*"],
        "allow": ["src/util/rng.h"],
    },
    {
        # Wire responses and /healthz render in protocol.cc, query-log
        # records through the obs::QueryLog API, so the byte-golden tests
        # and tools/validate.py cover every byte the server emits.
        "name": "query-log-api",
        "doc": "serve-layer JSON only in src/serve/protocol.cc",
        "effect": "json_writer",
        "scope": ["src/serve/*"],
        "allow": ["src/serve/protocol.cc"],
    },
    {
        # The probe-path kernels are portable C++ that every target runs to
        # the same bits; target-specific code may only live beside them.
        "name": "simd-intrinsics",
        "doc": "simd_intrinsic only in src/util/simd*, so every other file "
               "compiles to the same code on every target",
        "effect": "simd_intrinsic",
        "scope": ["*"],
        "allow": ["src/util/simd*"],
    },
]

CONTRACT_NAMES = tuple(
    [c["name"] for c in CONTRACTS + SCOPE_CONTRACTS] + ["stale-annotation"])


def _suffix_set(graph: Graph, names: list[str]) -> dict[str, set[str]]:
    """Maps each configured suffix to the node quals it resolves to."""
    return {name: graph._suffix_match(name) for name in names}


@dataclass
class ContractViolation:
    contract: str
    root: str        # scope contracts: the enclosing function
    effect: str
    function: str
    path: list
    evidence: Evidence


@dataclass
class StaleFinding:
    file: str
    line: int
    kind: str
    message: str


class Analysis:
    def __init__(self, graph: Graph, sources: list[SourceFile]) -> None:
        self.graph = graph
        self.sources = sources
        self.closure = graph.closures()
        self.violations: list[ContractViolation] = []
        self.stale: list[StaleFinding] = []
        self.contract_info: list[dict] = []

    # -- contract traversal -------------------------------------------------

    def run(self, require_roots: bool = False) -> None:
        for contract in CONTRACTS:
            self._run_contract(contract, require_roots)
        for contract in SCOPE_CONTRACTS:
            self._run_scope_contract(contract)
        self._collect_stale()
        self.violations.sort(key=lambda v: (
            v.contract, v.root, v.effect, v.function, v.evidence.file,
            v.evidence.line))
        self.stale.sort(key=lambda s: (s.file, s.line, s.kind, s.message))

    def _run_contract(self, contract: dict, require_roots: bool) -> None:
        g = self.graph
        roots = _suffix_set(g, contract["roots"])
        allow_nodes = _suffix_set(g, contract["allow_nodes"])
        allow_subtrees = _suffix_set(g, contract["allow_subtrees"])
        allow_node_quals = {q for s in allow_nodes.values() for q in s}
        allow_subtree_quals = {q for s in allow_subtrees.values() for q in s}
        resolved, missing = [], []
        for name in contract["roots"]:
            (resolved if roots[name] else missing).append(name)
        if require_roots:
            for name in missing:
                self.stale.append(StaleFinding(
                    "tools/ujoin_effects.py", 0, "missing-root",
                    f"contract '{contract['name']}' root '{name}' matches "
                    f"no function in the tree"))
        for entry, quals in {**allow_nodes, **allow_subtrees}.items():
            if require_roots and not quals:
                self.stale.append(StaleFinding(
                    "tools/ujoin_effects.py", 0, "stale-whitelist",
                    f"contract '{contract['name']}' whitelist entry "
                    f"'{entry}' matches no function in the tree"))
        for effect in contract["forbid"]:
            for root_name in resolved:
                for root_qual in sorted(roots[root_name]):
                    self._traverse(contract["name"], root_qual, effect,
                                   allow_node_quals, allow_subtree_quals)
        self.contract_info.append({
            "name": contract["name"],
            "doc": contract["doc"],
            "forbidden": list(contract["forbid"]),
            "roots": sorted(q for s in roots.values() for q in s),
            "roots_missing": sorted(missing),
        })

    def _traverse(self, contract: str, root: str, effect: str,
                  allow_nodes: set[str], allow_subtrees: set[str]) -> None:
        g = self.graph
        parent: dict[str, str | None] = {root: None}
        queue = [root]
        while queue:
            qual = queue.pop(0)
            node = g.nodes.get(qual)
            if node is None:
                continue
            # Subtree masks: analyzer whitelist or an assumes() annotation.
            if qual != root:
                if qual in allow_subtrees:
                    continue
                ann = node.assumes.get(effect)
                if ann is not None:
                    if effect in self.closure.get(qual, set()):
                        ann.used = True
                    continue
            # Node-level check of the function's own effects: one violation
            # per offending line, each with the same witness.
            if effect in node.direct_effects():
                ann = node.declares.get(effect)
                if ann is not None:
                    ann.used = True
                elif qual not in allow_nodes:
                    path = []
                    cur: str | None = qual
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    lines = set()
                    for ev in sorted(node.evidence,
                                     key=lambda e: (e.file, e.line)):
                        if ev.effect == effect and \
                                (ev.file, ev.line) not in lines:
                            lines.add((ev.file, ev.line))
                            self.violations.append(ContractViolation(
                                contract, root, effect, qual, path, ev))
            for callee in sorted(node.callees):
                if callee not in parent:
                    parent[callee] = qual
                    queue.append(callee)

    def _run_scope_contract(self, contract: dict) -> None:
        effect = contract["effect"]
        for src in self.sources:
            if not _matches(src.rel, contract["scope"]) or \
                    _matches(src.rel, contract["allow"]):
                continue
            for i, found in enumerate(src.evidence, 1):
                for kind, what in found:
                    if kind == effect:
                        func = src.function_at(i)
                        self.violations.append(ContractViolation(
                            contract["name"], func, effect, func, [func],
                            Evidence(effect, src.rel, i, what)))
        self.contract_info.append({
            "name": contract["name"],
            "doc": contract["doc"],
            "forbidden": [effect],
            "scope": list(contract["scope"]),
            "allowed": list(contract["allow"]),
        })

    # -- staleness ----------------------------------------------------------

    def _collect_stale(self) -> None:
        for ann in self.graph.annotations:
            if ann.used:
                continue
            if ann.kind == "calls":
                self.stale.append(StaleFinding(
                    ann.file, ann.line, "stale-annotation",
                    f"`ujoin-effect: calls({ann.arg})` matches no function "
                    f"in the tree; fix the name or delete the annotation"))
            elif ann.kind in ("declares", "assumes") and \
                    ann.arg not in EFFECTS:
                self.stale.append(StaleFinding(
                    ann.file, ann.line, "stale-annotation",
                    f"`ujoin-effect: {ann.kind}({ann.arg})` names an "
                    f"unknown effect (known: {', '.join(EFFECTS)})"))
            else:
                self.stale.append(StaleFinding(
                    ann.file, ann.line, "stale-annotation",
                    f"`ujoin-effect: {ann.kind}({ann.arg})` changes no "
                    f"contract's outcome (no traversal consults it); the "
                    f"code it excused is gone — delete the annotation"))

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        g = self.graph
        edges = sum(len(n.callees) for n in g.nodes.values())
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "files": len(g.files),
            "functions": len(g.nodes),
            "edges": edges,
            "contracts": [
                {
                    **info,
                    "violations": [
                        {
                            "root": v.root,
                            "effect": v.effect,
                            "function": v.function,
                            "path": v.path,
                            "evidence": {
                                "file": v.evidence.file,
                                "line": v.evidence.line,
                                "what": v.evidence.what,
                            },
                        }
                        for v in self.violations
                        if v.contract == info["name"]
                    ],
                }
                for info in self.contract_info
            ],
            "stale": [
                {"file": s.file, "line": s.line, "kind": s.kind,
                 "message": s.message}
                for s in self.stale
            ],
            "summary": {
                "violations": len(self.violations),
                "stale": len(self.stale),
            },
        }


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def analyze(files: dict[str, str], require_roots: bool = False) -> Analysis:
    """Analyzes `files` (repo-relative path -> text): the call graph over
    the GRAPH_GLOBS subset, the scope contracts over all of them."""
    sources = [load_source(rel, files[rel]) for rel in sorted(files)]
    graph = Graph()
    for src in sources:
        if _matches(src.rel, GRAPH_GLOBS):
            graph.add_file(src)
    graph.resolve_calls()
    analysis = Analysis(graph, sources)
    analysis.run(require_roots)
    return analysis


def repo_files(root: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for top in sorted({glob.split("/", 1)[0] for glob in SCAN_GLOBS}):
        for dirpath, _dirs, filenames in os.walk(os.path.join(root, top)):
            for fname in filenames:
                rel = os.path.relpath(os.path.join(dirpath, fname), root)
                rel = rel.replace(os.sep, "/")
                if not _matches(rel, SCAN_GLOBS) or \
                        _matches(rel, EXCLUDE_GLOBS):
                    continue
                with open(os.path.join(root, rel), encoding="utf-8",
                          errors="replace") as f:
                    out[rel] = f.read()
    return out


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


_SCOPE_DOCS = {c["name"]: c["doc"] for c in SCOPE_CONTRACTS}


def print_findings(analysis: Analysis) -> None:
    for v in analysis.violations:
        ev = v.evidence
        if v.contract in _SCOPE_DOCS:
            print(f"{ev.file}:{ev.line}: [{v.contract}] {ev.what} in "
                  f"{v.function}: {_SCOPE_DOCS[v.contract]}")
            continue
        print(f"{ev.file}:{ev.line}: [{v.contract}] root {v.root} reaches "
              f"'{v.effect}' ({ev.what}) in {v.function}")
        print(f"    witness: {' -> '.join(v.path)}")
    for s in analysis.stale:
        print(f"{s.file}:{s.line}: [{s.kind}] {s.message}")


# ---------------------------------------------------------------------------
# Self-test: embedded graphs + fixtures
# ---------------------------------------------------------------------------

_EMBEDDED_BAD = {
    # Multi-hop violation: Query -> Helper -> Deep allocates; the witness
    # must spell out the full chain.
    "src/index/segment_index.cc": """
namespace ujoin {
void Deep() { int* p = new int[4]; (void)p; }
void Helper() { Deep(); }
class InvertedSegmentIndex {
 public:
  void Query() { Helper(); }
};
}  // namespace ujoin
""",
    # Direct Recorder mutation outside src/obs: obs-isolation violation.
    "src/join/search.cc": """
namespace ujoin {
class SimilaritySearcher {
 public:
  void Search(void* rec) { recorder_->AddCounter(1, 2); }
 private:
  void* recorder_;
};
}  // namespace ujoin
""",
    # Stale assumes: nothing below carries io.
    "src/util/serde.cc": """
namespace ujoin {
// ujoin-effect: assumes(io)
void CleanHelper() { int x = 0; (void)x; }
}  // namespace ujoin
""",
}

_EMBEDDED_CLEAN = {
    "src/index/segment_index.cc": """
namespace ujoin {
// ujoin-effect: declares(alloc) -- external arena growth
void Deep();
void Deep2() { Helper2(); }
// ujoin-effect: declares(alloc) -- grows the workspace until warm
void Helper() { int* p = new int[4]; (void)p; }
class InvertedSegmentIndex {
 public:
  void Query() { Helper(); }
};
}  // namespace ujoin
""",
}

FIXTURE_DIRECTIVE_RE = re.compile(r"ujoin-effects-fixture:\s*as=(\S+)(.*)")
FLAGGED_RE = re.compile(r"flagged:\s*([a-z-]+)")


@dataclass
class Fixture:
    files: dict[str, str]               # repo path -> text
    contracts: set[str]                 # named by contract=
    expected: set[tuple[str, int, str]]  # (repo path, line, contract)
    witness: list[str] | None
    golden: str | None                  # golden.json beside a tree


def load_fixture(path: str) -> Fixture:
    if os.path.isdir(path):
        sources = [os.path.join(path, f) for f in sorted(os.listdir(path))
                   if f.endswith((".cc", ".h"))]
        golden = os.path.join(path, "golden.json")
    else:
        sources, golden = [path], ""
    fx = Fixture({}, set(), set(), None,
                 golden if os.path.isfile(golden) else None)
    for source in sources:
        with open(source, encoding="utf-8") as f:
            text = f.read()
        m = FIXTURE_DIRECTIVE_RE.search(text)
        if not m:
            raise ValueError(f"{os.path.basename(source)}: missing "
                             f"ujoin-effects-fixture directive")
        as_path = m.group(1)
        fx.files[as_path] = text
        for option in m.group(2).split():
            key, _, value = option.partition("=")
            if key == "contract":
                fx.contracts |= set(value.split(","))
            elif key == "witness":
                fx.witness = value.split(",")
            else:
                raise ValueError(f"{os.path.basename(source)}: unknown "
                                 f"directive option '{option}'")
        for i, raw in enumerate(text.split("\n"), 1):
            for fm in FLAGGED_RE.finditer(raw):
                fx.expected.add((as_path, i, fm.group(1)))
    return fx


def run_self_test(root: str) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    # --- embedded graphs ---------------------------------------------------
    bad = analyze(_EMBEDDED_BAD)
    probe = [v for v in bad.violations if v.contract == "probe-path"]
    check("embedded: multi-hop alloc violation found",
          len(probe) == 1 and probe[0].effect == "alloc",
          f"got {[(v.contract, v.effect) for v in bad.violations]}")
    check("embedded: witness spells the full chain",
          bool(probe) and len(probe[0].path) >= 3 and
          probe[0].path[0].endswith("Query") and
          probe[0].path[-1].endswith("Deep"),
          f"path={probe[0].path if probe else None}")
    check("embedded: obs-isolation violation found",
          any(v.contract == "obs-isolation" for v in bad.violations))
    check("embedded: stale assumes reported",
          any(s.kind == "stale-annotation" and "assumes(io)" in s.message
              for s in bad.stale))
    clean = analyze(_EMBEDDED_CLEAN)
    check("embedded: declares() blesses the chain",
          not [v for v in clean.violations if v.contract == "probe-path"],
          f"got {[(v.function, v.effect) for v in clean.violations]}")
    check("embedded: unused declares is stale",
          any("declares(alloc)" in s.message and s.line == 3
              for s in clean.stale),
          f"stale={[(s.line, s.message) for s in clean.stale]}")
    # Cycle tolerance: mutual recursion must terminate and propagate.
    cyc = analyze({"src/index/segment_index.cc": """
namespace ujoin {
void A();
void B() { A(); }
void A() { B(); int* p = new int; (void)p; }
class InvertedSegmentIndex { public: void Query() { A(); } };
}  // namespace ujoin
"""})
    check("embedded: cycles terminate and propagate",
          any(v.function.endswith("::A") for v in cyc.violations))

    # --- fixtures ----------------------------------------------------------
    fixture_root = os.path.join(root, "tests", "lint", "fixtures")
    if not os.path.isdir(fixture_root):
        print(f"FAIL: no fixture directory at {fixture_root}")
        return 1
    seeded: set[str] = set()
    clean_for: set[str] = set()
    saw_multi_hop = False
    total = 0
    for entry in sorted(os.listdir(fixture_root)):
        path = os.path.join(fixture_root, entry)
        if not os.path.isdir(path) and not entry.endswith((".cc", ".h")):
            continue
        total += 1
        try:
            fx = load_fixture(path)
        except ValueError as e:
            check(f"fixture {entry}", False, str(e))
            continue
        flagged = {name for _, _, name in fx.expected}
        unknown = (flagged | fx.contracts) - set(CONTRACT_NAMES)
        if unknown:
            check(f"fixture {entry}", False,
                  f"unknown contract(s) {sorted(unknown)}")
            continue
        seeded |= flagged
        clean_for |= fx.contracts - flagged
        analysis = analyze(fx.files)
        found = {(v.evidence.file, v.evidence.line, v.contract)
                 for v in analysis.violations}
        found |= {(s.file, s.line, s.kind) for s in analysis.stale}
        ok = found == fx.expected
        detail = (f"missed {sorted(fx.expected - found)}, "
                  f"unexpected {sorted(found - fx.expected)}")
        if ok and fx.witness:
            paths = [v.path for v in analysis.violations]
            ok = fx.witness in paths
            detail = f"witness {fx.witness} not in {paths}"
        if ok and fx.golden:
            with open(fx.golden, encoding="utf-8") as f:
                ok = render_report(analysis.report()) == f.read()
            detail = f"report does not match {fx.golden} byte-for-byte"
        saw_multi_hop |= any(len(v.path) >= 3 for v in analysis.violations)
        check(f"fixture {entry}", ok, detail)
    check("fixtures: at least one multi-hop witness", saw_multi_hop)
    # Every contract needs a seeded fixture and a clean counterpart, or
    # that contract is itself untested.
    for name in CONTRACT_NAMES:
        for kind, covered in (("seeded", seeded), ("clean", clean_for)):
            if name not in covered:
                check(f"coverage: '{name}' has no {kind} fixture", False)
    print(f"self-test: {total} fixture(s), {failures} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="ujoin_effects.py",
        description="the repo's static analyzer (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write the ujoin.effects JSON report here")
    parser.add_argument("--require-roots", action="store_true",
                        help="fail when a contract root or whitelist entry "
                             "matches nothing (the repo gate sets this)")
    parser.add_argument("--self-test", action="store_true",
                        help="run embedded graphs + fixtures and exit")
    parser.add_argument("--list-contracts", action="store_true")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.list_contracts:
        for contract in CONTRACTS:
            print(f"{contract['name']}: {contract['doc']}")
        for contract in SCOPE_CONTRACTS:
            print(f"{contract['name']}: {contract['doc']} "
                  f"(scope {', '.join(contract['scope'])})")
        print("stale-annotation: every ujoin-effect annotation is "
              "load-bearing")
        return 0
    if args.self_test:
        return run_self_test(root)

    files = repo_files(root)
    if not files:
        print(f"ujoin_effects: no source files under {root}",
              file=sys.stderr)
        return 2
    analysis = analyze(files, require_roots=args.require_roots)
    report = analysis.report()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(render_report(report))
    print_findings(analysis)
    n_viol = report["summary"]["violations"]
    n_stale = report["summary"]["stale"]
    if n_viol or n_stale:
        print(f"ujoin_effects: {n_viol} violation(s), {n_stale} stale "
              f"finding(s) across {len(files)} file(s)")
        return 1
    print(f"ujoin_effects: {len(files)} file(s), {report['files']} in the "
          f"call graph, {report['functions']} function(s), "
          f"{report['edges']} edge(s): all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
