#!/usr/bin/env python3
"""ujoin_effects: whole-repo transitive effect analyzer for ujoin.

tools/ujoin_lint.py spot-checks invariants file by file; this tool proves
the *transitive* versions.  It reuses the linter's comment-stripping lexer
and brace-depth function tracker to extract a function-level call graph of
src/ and tools/, infers a per-function effect set, propagates effects over
the graph, and verifies the contracts below, reporting every violation
with a full call-chain witness.  (libclang is not available in the build
container; like the linter, this is a regex-AST hybrid, tuned to the
repo's own idioms.)

Effect lattice (a set union lattice; bigger = more effects):

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
                 time(NULL) seeds); the seeded ujoin::Rng does not count
  unordered_iter iterating an unordered_{map,set}: order depends on hash
                 seeding and insertion history
  obs_record     direct Recorder mutation (RecordHist/AddCounter/SetGauge/
                 AddFunnel)

Annotation grammar (in comments, attached to the function they precede or
enclose):

  // ujoin-effect: declares(alloc, io) -- reason
      This function intentionally carries these effects.  Adds them if the
      analyzer cannot see them (externals), and *blesses* them: a contract
      traversal that reaches this function accepts the declared effects
      instead of reporting a violation.  Removing a declares() from a
      function with visible evidence turns a clean analysis into a
      violation — annotations are load-bearing.
  // ujoin-effect: assumes(alloc) -- reason
      Vouches for the whole subtree: traversals stop here for the listed
      effects.  Use for intentional sinks whose internals are audited by
      other means.
  // ujoin-effect: calls(ujoin::Foo::Bar) -- reason
      Adds an explicit call edge for indirection the extractor cannot see
      (function pointers, type-erased callbacks, virtual dispatch).

Every annotation must be load-bearing: a declares()/assumes() that no
contract traversal consults, an assumes() masking an effect its subtree
does not have, or a calls() naming an unknown function is reported as
stale (same policy as the linter's stale-suppression rule).

Contracts (frozen in CONTRACTS below; see DESIGN.md "Effect analysis"):

  probe-path        The query roots (InvertedSegmentIndex::Query, the
                    searcher's Search/SearchMany, the self-join wave
                    driver) reach no alloc/lock/io/block outside the
                    frozen whitelist of build/freeze/workspace-growth and
                    batch-boundary functions.
  serialize-deterministic
                    Serialization and deterministic-JSON roots reach no
                    unordered_iter, wall_clock, or unseeded rng: emitted
                    bytes stay a pure function of content.
  flight-path       The flight recorder's record path (RecordEvent, run
                    inside the zero-allocation probe path) and dump path
                    (DumpToFd, run inside a SIGSEGV handler) reach no
                    alloc, lock, or io; the async-signal-safe raw-write
                    sink is blessed by its declares(io) annotation.
  serve-steady      Serve request handlers and the aggregate fold/snapshot
                    path reach no unbounded blocking call: a slow scrape
                    or a stuck peer must not stall query folds.
  obs-isolation     obs_record happens only inside src/obs/ (reached
                    through the UJOIN_OBS_* macro layer), transitively.
  stale-annotation  Every ujoin-effect annotation (and whitelist entry)
                    is load-bearing; stale ones are errors.

Usage:
  tools/ujoin_effects.py [--root DIR] [--report FILE] [--require-roots]
  tools/ujoin_effects.py --self-test        embedded graphs + fixtures
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

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ujoin_lint as lint  # noqa: E402  (lexer, tracker, staleness helpers)

SCHEMA_NAME = "ujoin.effects"
SCHEMA_VERSION = 1

EFFECTS = (
    "alloc", "lock", "io", "block", "wall_clock", "rng", "unordered_iter",
    "obs_record",
)

# Files whose functions enter the graph.  Tests are excluded: contracts
# constrain the production tree, and tests exercise deliberately-allocating
# convenience overloads.
GRAPH_GLOBS = ["src/**/*.h", "src/**/*.cc", "tools/*.cc"]
EXCLUDE_GLOBS = ["tests/lint/*"]

# ---------------------------------------------------------------------------
# Direct effect evidence: patterns over stripped source lines
# ---------------------------------------------------------------------------

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

# A local declaration of an unordered container, and iteration over one
# (shared shapes with the linter's per-file rule).
_UNORDERED_ITER_PATTERNS = [
    (lint._RANGE_FOR_SPLIT_RE, None),   # handled specially below
]


def _line_effects(line: str, unordered_names: set[str]
                  ) -> list[tuple[str, str]]:
    """Direct effect evidence on one stripped line: (effect, what) pairs."""
    out: list[tuple[str, str]] = []
    for pat, what, _file_scope in lint._ALLOC_PATTERNS:
        if pat.search(line):
            out.append(("alloc", what))
            break
    for pat, what in _LOCK_PATTERNS:
        if pat.search(line):
            out.append(("lock", what))
            break
    for pat, what in _IO_PATTERNS:
        if pat.search(line):
            out.append(("io", what))
            break
    for pat, what in _BLOCK_PATTERNS:
        if pat.search(line):
            out.append(("block", what))
            break
    for pat, what in _WALL_CLOCK_PATTERNS:
        if pat.search(line):
            out.append(("wall_clock", what))
            break
    for pat, what in lint._RNG_PATTERNS:
        if pat.search(line):
            out.append(("rng", what))
            break
    m = lint._RANGE_FOR_SPLIT_RE.search(line)
    if m:
        range_expr = m.group(2)
        if lint._UNORDERED_DECL_RE.search(range_expr):
            out.append(("unordered_iter", "range-for over unordered temporary"))
        elif lint._base_identifier(range_expr) in unordered_names:
            out.append(("unordered_iter",
                        "range-for over unordered container"))
    else:
        m = lint._BEGIN_CALL_RE.search(line)
        if m:
            base = re.split(r"\.|->", m.group(1).replace("()", ""))[-1]
            if base in unordered_names:
                out.append(("unordered_iter",
                            "iterator over unordered container"))
    if lint._OBS_DIRECT_RE.search(line):
        out.append(("obs_record", "direct Recorder mutation"))
    return out


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
    is_macro: bool = False

    def direct_effects(self) -> set[str]:
        return {e.effect for e in self.evidence} | set(self.declares)

    def first_evidence(self, effect: str) -> Evidence | None:
        best = None
        for ev in self.evidence:
            if ev.effect == effect:
                if best is None or (ev.file, ev.line) < (best.file, best.line):
                    best = ev
        if best is None and effect in self.declares:
            a = self.declares[effect]
            return Evidence(effect, a.file, a.line, "declared effect")
        return best


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
_MACRO_DEF_RE = re.compile(r"^\s*#\s*define\s+(UJOIN_\w+)\s*\(")
# Lowercase std:: vocabulary types the class-style binder misses.  Binding
# them lets builtin-call inference stay type-aware: string_view::substr is
# allocation-free while string::substr is not.
_STD_BIND_RE = re.compile(r"\bstd\s*::\s*(string_view|string)\b[&*\s]+(\w+)\b")

_CALL_KEYWORDS = lint._CONTROL_KEYWORDS | {
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
        self.annotations: list[Annotation] = []
        self.call_edges_from_annotations: list[tuple[str, str, Annotation]] = []
        self.files: list[str] = []

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

    def add_file(self, rel: str, text: str) -> None:
        self.files.append(rel)
        stripped = lint.strip_comments_and_literals(text)
        stripped_lines = stripped.split("\n")
        raw_lines = text.split("\n")
        spans = lint.function_spans(stripped)
        spans = spans + _macro_spans(stripped_lines)
        # Innermost span per line (later/inner spans overwrite).
        line_span: list[int | None] = [None] * len(stripped_lines)
        for idx, span in enumerate(spans):
            for ln in range(span.start_line,
                            min(span.end_line, len(stripped_lines)) + 1):
                line_span[ln - 1] = idx
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
            n.is_macro = n.is_macro or span.qual.startswith("UJOIN_")
            span_nodes.append(n)
        # Unordered container names declared anywhere in this file feed the
        # unordered_iter evidence patterns.
        unordered_names = set(
            lint._UNORDERED_NAME_RE.findall("\n".join(stripped_lines)))
        # Effect evidence + raw call sites per line.
        calls: dict[int, list[tuple[str, str, str]]] = {}
        for i, line in enumerate(stripped_lines, 1):
            idx = line_span[i - 1]
            if idx is None:
                continue
            node = span_nodes[idx]
            for effect, what in _line_effects(line, unordered_names):
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
        self._pending_calls = getattr(self, "_pending_calls", [])
        for idx, sites in calls.items():
            for kind, name, line_no, sv_hint in sites:
                self._pending_calls.append(
                    (spans[idx].qual, kind, name, rel, line_no,
                     span_binds.get(idx, {}), sv_hint))
        # Annotations attach to the innermost span containing the comment
        # line, else to the next span that starts after it.
        for i, raw in enumerate(raw_lines, 1):
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
                getattr(self, "_pending_calls", []):
            caller = _norm(caller)
            targets = self._resolve(caller, kind, name, binds)
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
                 binds: dict[str, str]) -> set[str]:
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


def _macro_spans(stripped_lines: list[str]) -> list:
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
            spans.append(lint.FunctionSpan(
                m.group(1), m.group(1), start, end + 1, None, False))
            i = end + 1
        else:
            i += 1
    return spans


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------
#
# Roots, allow_nodes, and allow_subtrees are function-name suffixes matched
# at `::` boundaries.  allow_nodes accepts the function's *own* effects but
# still descends into its callees; allow_subtrees stops the traversal (the
# subtree is vouched for).  Growing either list is a reviewed change to
# this file — that is the point: a new allocation two layers below a query
# root fails CI until it is whitelisted or annotated.

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
            # batch/wave before the steady-state loop, hit emission after.
            "ujoin::SimilaritySelfJoin",
            "SimilaritySearcher::Search",
            "SimilaritySearcher::SearchTopK",
            "SimilaritySearcher::SearchMany",
            "SimilaritySearcher::SearchImpl",
            "SimilaritySearcher::Explain",
            # Worker fan-out joins its pool; bounded by the wave's work.
            "ujoin::RunWaveTasks",
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
            # Batch-boundary log flush: SearchMany flushes the query log
            # once per batch, outside the per-query steady state.
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

# obs-isolation: direct Recorder mutation is confined to src/obs/ (every
# other instrumentation site goes through the UJOIN_OBS_* macro layer, which
# lives there).  Checked as a scope contract over direct evidence — the
# transitive closure through the macro nodes is masked at src/obs/*.
OBS_ISOLATION = {
    "name": "obs-isolation",
    "doc": "obs_record only inside src/obs/ (reached via UJOIN_OBS_*)",
    "effect": "obs_record",
    "allow_path_globs": ["src/obs/*"],
}


def _suffix_set(graph: Graph, names: list[str]) -> dict[str, set[str]]:
    """Maps each configured suffix to the node quals it resolves to."""
    return {name: graph._suffix_match(name) for name in names}


@dataclass
class ContractViolation:
    contract: str
    root: str
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
    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.closure = graph.closures()
        self.violations: list[ContractViolation] = []
        self.stale: list[StaleFinding] = []
        self.contract_info: list[dict] = []
        self._used_allow: set[tuple[str, str]] = set()

    # -- contract traversal -------------------------------------------------

    def run(self, require_roots: bool = False) -> None:
        for contract in CONTRACTS:
            self._run_contract(contract, require_roots)
        self._run_obs_isolation()
        self._collect_stale(require_roots)
        self.violations.sort(key=lambda v: (
            v.contract, v.root, v.effect, v.function))
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
                    if effect in self.closure.get(qual, set()):
                        self._used_allow.add((contract, qual))
                    continue
                ann = node.assumes.get(effect)
                if ann is not None:
                    if effect in self.closure.get(qual, set()):
                        ann.used = True
                    continue
            # Node-level check of the function's own effects.
            if effect in node.direct_effects():
                ann = node.declares.get(effect)
                if ann is not None:
                    ann.used = True
                elif qual in allow_nodes:
                    self._used_allow.add((contract, qual))
                else:
                    path = []
                    cur: str | None = qual
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    self.violations.append(ContractViolation(
                        contract, root, effect, qual, path,
                        node.first_evidence(effect)))
            for callee in sorted(node.callees):
                if callee not in parent:
                    parent[callee] = qual
                    queue.append(callee)

    def _run_obs_isolation(self) -> None:
        g = self.graph
        effect = OBS_ISOLATION["effect"]
        globs = OBS_ISOLATION["allow_path_globs"]
        for qual in sorted(g.nodes):
            node = g.nodes[qual]
            if node.is_macro:
                continue
            if node.files and all(lint._matches(f, globs)
                                  for f in node.files):
                continue
            for ev in node.evidence:
                if ev.effect != effect:
                    continue
                if lint._matches(ev.file, globs):
                    continue
                ann = node.declares.get(effect)
                if ann is not None:
                    ann.used = True
                    continue
                self.violations.append(ContractViolation(
                    OBS_ISOLATION["name"], qual, effect, qual, [qual], ev))
        self.contract_info.append({
            "name": OBS_ISOLATION["name"],
            "doc": OBS_ISOLATION["doc"],
            "forbidden": [effect],
            "roots": ["<every function outside src/obs/>"],
            "roots_missing": [],
        })

    # -- staleness ----------------------------------------------------------

    def _collect_stale(self, require_roots: bool) -> None:
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
                            } if v.evidence else None,
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


def build_graph(files: dict[str, str]) -> Graph:
    graph = Graph()
    for rel in sorted(files):
        graph.add_file(rel, files[rel])
    graph.resolve_calls()
    return graph


def analyze(files: dict[str, str], require_roots: bool = False) -> Analysis:
    analysis = Analysis(build_graph(files))
    analysis.run(require_roots)
    return analysis


def repo_files(root: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for dirpath, _dirs, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        for fname in sorted(filenames):
            rel = os.path.normpath(os.path.join(rel_dir, fname))
            rel = rel.replace(os.sep, "/")
            if not any(fnmatch.fnmatch(rel, g) for g in GRAPH_GLOBS):
                continue
            if lint._matches(rel, EXCLUDE_GLOBS):
                continue
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as f:
                out[rel] = f.read()
    return out


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def print_findings(analysis: Analysis) -> None:
    for v in analysis.violations:
        ev = v.evidence
        where = f"{ev.file}:{ev.line}" if ev else "?"
        print(f"{where}: [{v.contract}] root {v.root} reaches "
              f"'{v.effect}' ({ev.what if ev else '?'}) in {v.function}")
        print(f"    witness: {' -> '.join(v.path)}")
    for s in analysis.stale:
        print(f"{s.file}:{s.line}: [{s.kind}] {s.message}")


# ---------------------------------------------------------------------------
# Self-test: embedded graphs + fixture trees
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

FIXTURE_DIRECTIVE_RE = re.compile(r"ujoin-effects-fixture:\s*as=(\S+)")


def _load_fixture_tree(dirpath: str) -> dict[str, str]:
    files: dict[str, str] = {}
    for fname in sorted(os.listdir(dirpath)):
        if not fname.endswith((".cc", ".h")):
            continue
        with open(os.path.join(dirpath, fname), encoding="utf-8") as f:
            text = f.read()
        m = FIXTURE_DIRECTIVE_RE.search(text)
        if not m:
            raise ValueError(f"{fname}: missing ujoin-effects-fixture "
                             f"directive")
        files[m.group(1)] = text
    return files


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

    # --- fixture trees -----------------------------------------------------
    fixture_root = os.path.join(root, "tests", "lint", "fixtures", "effects")
    if not os.path.isdir(fixture_root):
        print(f"FAIL: no fixture directory at {fixture_root}")
        return 1
    saw_multi_hop = False
    for case in sorted(os.listdir(fixture_root)):
        casedir = os.path.join(fixture_root, case)
        if not os.path.isdir(casedir):
            continue
        expect_path = os.path.join(casedir, "expect.json")
        with open(expect_path, encoding="utf-8") as f:
            expect = json.load(f)
        try:
            files = _load_fixture_tree(casedir)
        except ValueError as e:
            check(f"fixture {case}", False, str(e))
            continue
        analysis = analyze(files)
        report = analysis.report()
        ok = (report["summary"]["violations"] == expect["violations"] and
              report["summary"]["stale"] == expect["stale"])
        detail = (f"expected {expect['violations']} violation(s) / "
                  f"{expect['stale']} stale, got "
                  f"{report['summary']['violations']} / "
                  f"{report['summary']['stale']}")
        if ok and "witness" in expect:
            paths = [v.path for v in analysis.violations]
            ok = expect["witness"] in paths
            detail = f"witness {expect['witness']} not in {paths}"
        if ok and expect.get("golden"):
            golden_path = os.path.join(casedir, "golden.json")
            rendered = render_report(report)
            with open(golden_path, encoding="utf-8") as f:
                golden = f.read()
            ok = rendered == golden
            detail = f"report does not match {golden_path} byte-for-byte"
        for v in analysis.violations:
            if len(v.path) >= 3:
                saw_multi_hop = True
        check(f"fixture {case}", ok, detail)
    check("fixtures: at least one multi-hop witness", saw_multi_hop)
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="ujoin_effects.py",
        description="whole-repo transitive effect analyzer (see module "
                    "docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write the ujoin.effects JSON report here")
    parser.add_argument("--require-roots", action="store_true",
                        help="fail when a contract root or whitelist entry "
                             "matches nothing (the repo gate sets this)")
    parser.add_argument("--self-test", action="store_true",
                        help="run embedded graphs + fixture trees and exit")
    parser.add_argument("--list-contracts", action="store_true")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.list_contracts:
        for contract in CONTRACTS + [OBS_ISOLATION]:
            print(f"{contract['name']}: {contract['doc']}")
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
              f"finding(s) across {report['functions']} function(s)")
        return 1
    print(f"ujoin_effects: {report['files']} file(s), "
          f"{report['functions']} function(s), {report['edges']} edge(s): "
          f"all contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
