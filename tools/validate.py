#!/usr/bin/env python3
"""validate: schema validator for the documents ujoin writes.

Three kinds of document leave a ujoin process for other programs to read:
the Prometheus text exposition (/metrics, --metrics-textfile), the
ujoin.query_log JSONL records (--query-log), and the ujoin.flight_record
dump (--flight-record, the crash handler, watchdog captures).  This tool
re-validates each from the outside, with no ujoin code involved.  ctest
and the smoke scripts run it on documents the real binaries write, so a
silent drift in a C++ renderer fails the gate even if every C++ test
still passes.

The schema comes from the document itself:

  * one JSON object whose schema is "ujoin.flight_record": flight record;
  * JSON lines whose schema is "ujoin.query_log": query log;
  * anything else: Prometheus text exposition (format 0.0.4).

An empty document, a page without samples and a log without records are
rejected.  Checks per schema:

  exposition     every sample belongs to a family announced by `# HELP`
                 then `# TYPE` before its first sample; well-formed names
                 and labels; no duplicate (name, labels) sample; numeric
                 values; counter families end in `_total`; histograms have
                 `_bucket` samples with strictly increasing `le` bounds,
                 non-decreasing cumulative counts and a terminal
                 `le="+Inf"`, plus `_sum` and a `_count` equal to it.
  query_log      per line: the exact top-level key order (records are
                 byte-comparable); schema_version 1; request_id equals
                 splitmix64((connection << 32) ^ seq), recomputed here so
                 the constants in src/obs/query_log.h are pinned by an
                 independent implementation; length_band is the bit width
                 of query_length; funnel stages in cascade order with
                 survived <= entered, each filter entering what the
                 previous one passed, verify entering at most what
                 cdf_bound passed, candidates == qgram survivors;
                 non-negative integer counts; status "ok" or "error", and
                 error records report no hits.
  flight_record  the exact top-level key order; schema_version 3; reason
                 "manual", "crash" or "watchdog", and only "crash" carries
                 a delivering signal; a non-empty build.compiler; the
                 registry lists every event kind in registry order with
                 non-negative totals; threads_registered matches the
                 thread list, slots unique, ascending and under the
                 recorder's capacity; per thread at most kEventsPerThread
                 events, each with the exact key order, a known kind and
                 a seq strictly increasing within (recorded - capacity,
                 recorded].  A dump taken under live writers may skip
                 torn events, so gaps are legal; regressions are not.

Wall-clock fields (query-log timing, flight ts_ns and os_tid) are checked
for type and sign only, never for value: they are determinism tier 1.

Usage:
  tools/validate.py FILE|-                validate one document ('-': stdin)
  tools/validate.py --self-test [SCHEMA]  embedded good and bad documents,
                                          all schemas or one of exposition,
                                          query_log, flight_record

Exit status: 0 valid, 1 invalid (or self-test failure), 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def _int_field(obj: dict, key: str, errors: list[str],
               where: str = "") -> int:
    value = obj.get(key)
    # bool is an int subclass in Python; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{where}{key}: expected integer, got {value!r}")
        return 0
    return value


def _key_list(obj) -> list | object:
    """The keys of a JSON object, or the value itself when it is none."""
    return list(obj.keys()) if isinstance(obj, dict) else obj


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>\S+))?$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _family_of(sample_name, types):
    """Maps a sample name to its family: histogram samples drop the
    _bucket/_sum/_count suffix when the base family is a histogram."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return sample_name


def _parse_le(raw):
    if raw == "+Inf":
        return float("inf")
    try:
        return float(raw)
    except ValueError:
        return None


def validate_exposition(text: str) -> tuple[list[str], str]:
    """Validates a text-exposition page: (problems, summary)."""
    problems = []
    helps = {}
    types = {}
    seen_samples = set()
    # family -> list of (le, cumulative value) in document order
    hist_buckets = {}
    hist_sum = {}
    hist_count = {}
    family_sampled = set()
    samples = 0

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(None, 1)
            if not parts:
                problems.append(f"line {lineno}: HELP line without a name")
                continue
            name = parts[0]
            if name in helps:
                problems.append(f"line {lineno}: duplicate HELP for '{name}'")
            if name in family_sampled:
                problems.append(
                    f"line {lineno}: HELP for '{name}' after its samples")
            helps[name] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(
                    f"line {lineno}: unknown metric type '{kind}'")
            if name in types:
                problems.append(f"line {lineno}: duplicate TYPE for '{name}'")
            if name in family_sampled:
                problems.append(
                    f"line {lineno}: TYPE for '{name}' after its samples")
            if name not in helps:
                problems.append(
                    f"line {lineno}: TYPE for '{name}' without preceding "
                    f"HELP")
            types[name] = kind
            if kind == "counter" and not name.endswith("_total"):
                problems.append(
                    f"line {lineno}: counter '{name}' does not end in "
                    f"'_total'")
            continue
        if line.startswith("#"):
            continue  # other comments are legal

        samples += 1
        m = SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparsable sample line: {line}")
            continue
        name = m.group("name")
        if not METRIC_NAME_RE.match(name):
            problems.append(f"line {lineno}: bad metric name '{name}'")
            continue
        labels = {}
        raw_labels = m.group("labels")
        if raw_labels:
            for lm in LABEL_RE.finditer(raw_labels):
                key = lm.group(1)
                if not LABEL_NAME_RE.match(key):
                    problems.append(
                        f"line {lineno}: bad label name '{key}'")
                if key in labels:
                    problems.append(
                        f"line {lineno}: duplicate label '{key}'")
                labels[key] = lm.group(2)
            leftovers = re.sub(r"[,\s]", "", raw_labels)
            matched = "".join(
                lm.group(0) for lm in LABEL_RE.finditer(raw_labels))
            if len(leftovers) != len(re.sub(r"[,\s]", "", matched)):
                problems.append(
                    f"line {lineno}: malformed label set "
                    f"'{{{raw_labels}}}'")
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: unparsable value "
                f"'{m.group('value')}' for '{name}'")
            continue

        key = (name, tuple(sorted(labels.items())))
        if key in seen_samples:
            problems.append(
                f"line {lineno}: duplicate sample for '{name}' "
                f"{dict(labels)}")
        seen_samples.add(key)

        family = _family_of(name, types)
        family_sampled.add(family)
        if family not in types:
            problems.append(
                f"line {lineno}: sample '{name}' without a preceding TYPE "
                f"for '{family}'")
        if family not in helps:
            problems.append(
                f"line {lineno}: sample '{name}' without a preceding HELP "
                f"for '{family}'")

        if types.get(family) == "histogram":
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: histogram bucket without an 'le' "
                        f"label")
                    continue
                le = _parse_le(labels["le"])
                if le is None:
                    problems.append(
                        f"line {lineno}: unparsable le "
                        f"'{labels['le']}'")
                    continue
                hist_buckets.setdefault(family, []).append(
                    (le, value, lineno))
            elif name.endswith("_sum"):
                hist_sum[family] = value
            elif name.endswith("_count"):
                hist_count[family] = value

    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = hist_buckets.get(family, [])
        if not buckets:
            problems.append(f"histogram '{family}' has no _bucket samples")
            continue
        if buckets[-1][0] != float("inf"):
            problems.append(
                f"histogram '{family}' does not end with an le=\"+Inf\" "
                f"bucket")
        prev_le = None
        prev_value = None
        for le, value, lineno in buckets:
            if prev_le is not None and le <= prev_le:
                problems.append(
                    f"line {lineno}: histogram '{family}' bucket bounds not "
                    f"strictly increasing")
            if prev_value is not None and value < prev_value:
                problems.append(
                    f"line {lineno}: histogram '{family}' cumulative bucket "
                    f"counts decrease")
            prev_le, prev_value = le, value
        if family not in hist_count:
            problems.append(f"histogram '{family}' is missing _count")
        elif buckets[-1][0] == float("inf") and \
                hist_count[family] != buckets[-1][1]:
            problems.append(
                f"histogram '{family}': _count ({hist_count[family]:g}) != "
                f"le=\"+Inf\" bucket ({buckets[-1][1]:g})")
        if family not in hist_sum:
            problems.append(f"histogram '{family}' is missing _sum")

    if samples == 0:
        problems.append("no samples")
    return problems, f"{samples} samples"


# ---------------------------------------------------------------------------
# ujoin.query_log (src/obs/query_log.h)
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1

QUERY_LOG_KEYS = [
    "schema", "schema_version", "request_id", "connection", "seq",
    "query_length", "length_band", "funnel", "candidates", "verify_worlds",
    "budget_fallbacks", "deadline_fallbacks", "hits", "status", "inexact",
    "timing",
]
FUNNEL_STAGES = ["qgram", "freq_distance", "cdf_bound", "verify"]
STAGE_KEYS = ["entered", "survived"]
TIMING_KEYS = ["total_ns", "verify_ns"]


def request_id(connection: int, seq: int) -> int:
    """splitmix64 over (connection << 32) ^ seq, as in src/obs/query_log.h."""
    x = ((connection << 32) ^ seq) & MASK64
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def validate_record(line: str) -> list[str]:
    """Validates one JSONL line; returns a list of error strings."""
    errors: list[str] = []
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"not valid JSON: {e}"]
    if not isinstance(rec, dict):
        return ["line is not a JSON object"]
    if list(rec.keys()) != QUERY_LOG_KEYS:
        return [f"top-level key order mismatch: got {list(rec.keys())}"]

    if rec["schema"] != "ujoin.query_log":
        errors.append(f"schema: expected 'ujoin.query_log', "
                      f"got {rec['schema']!r}")
    if rec["schema_version"] != 1:
        errors.append(f"schema_version: expected 1, "
                      f"got {rec['schema_version']!r}")

    connection = _int_field(rec, "connection", errors)
    seq = _int_field(rec, "seq", errors)
    rid = _int_field(rec, "request_id", errors)
    if connection < 0 or seq < 1:
        errors.append(f"attribution out of range: connection={connection} "
                      f"(>= 0), seq={seq} (>= 1)")
    expected_rid = request_id(connection, seq)
    if rid != expected_rid:
        errors.append(f"request_id mismatch: got {rid}, expected "
                      f"{expected_rid} for (connection={connection}, "
                      f"seq={seq})")

    query_length = _int_field(rec, "query_length", errors)
    length_band = _int_field(rec, "length_band", errors)
    if query_length < 0:
        errors.append(f"query_length is negative: {query_length}")
    elif length_band != query_length.bit_length():
        errors.append(f"length_band mismatch: got {length_band}, expected "
                      f"{query_length.bit_length()} for query_length "
                      f"{query_length}")

    funnel = rec["funnel"]
    stages: dict[str, tuple[int, int]] = {}
    if _key_list(funnel) != FUNNEL_STAGES:
        errors.append(f"funnel stage order mismatch: got "
                      f"{_key_list(funnel)!r}")
    else:
        for stage, counts in funnel.items():
            if _key_list(counts) != STAGE_KEYS:
                errors.append(f"funnel.{stage}: expected keys {STAGE_KEYS}")
                continue
            entered = _int_field(counts, "entered", errors,
                                 where=f"funnel.{stage}.")
            survived = _int_field(counts, "survived", errors,
                                  where=f"funnel.{stage}.")
            if entered < 0 or survived < 0 or survived > entered:
                errors.append(f"funnel.{stage}: need 0 <= survived <= "
                              f"entered, got entered={entered} "
                              f"survived={survived}")
            stages[stage] = (entered, survived)
    if len(stages) == len(FUNNEL_STAGES):
        # The cascade chains: each filter enters what the previous one
        # passed (a disabled filter is recorded as a pass-through).
        # Verification may enter fewer — CDF-accepted candidates and
        # budget/deadline fallbacks are decided without verifying.
        if stages["freq_distance"][0] != stages["qgram"][1]:
            errors.append(f"funnel chain broken: freq_distance.entered "
                          f"{stages['freq_distance'][0]} != qgram.survived "
                          f"{stages['qgram'][1]}")
        if stages["cdf_bound"][0] != stages["freq_distance"][1]:
            errors.append(f"funnel chain broken: cdf_bound.entered "
                          f"{stages['cdf_bound'][0]} != "
                          f"freq_distance.survived "
                          f"{stages['freq_distance'][1]}")
        if stages["verify"][0] > stages["cdf_bound"][1]:
            errors.append(f"funnel chain broken: verify.entered "
                          f"{stages['verify'][0]} > cdf_bound.survived "
                          f"{stages['cdf_bound'][1]}")
        candidates = _int_field(rec, "candidates", errors)
        if candidates != stages["qgram"][1]:
            errors.append(f"candidates {candidates} != qgram survivors "
                          f"{stages['qgram'][1]}")

    for key in ("verify_worlds", "budget_fallbacks", "deadline_fallbacks",
                "hits"):
        if _int_field(rec, key, errors) < 0:
            errors.append(f"{key} is negative: {rec[key]}")

    status = rec["status"]
    if status not in ("ok", "error"):
        errors.append(f"status: expected 'ok' or 'error', got {status!r}")
    elif status == "error" and rec["hits"] != 0:
        errors.append(f"error record reports {rec['hits']} hits")
    if not isinstance(rec["inexact"], bool):
        errors.append(f"inexact: expected bool, got {rec['inexact']!r}")

    timing = rec["timing"]
    if _key_list(timing) != TIMING_KEYS:
        errors.append(f"timing: expected keys {TIMING_KEYS}")
    else:
        for key in TIMING_KEYS:
            if _int_field(timing, key, errors, where="timing.") < 0:
                errors.append(f"timing.{key} is negative: {timing[key]}")
    return errors


def validate_query_log(text: str) -> tuple[list[str], str]:
    """Validates every line of a JSONL log: (problems, summary)."""
    problems: list[str] = []
    records = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        records += 1
        problems += [f"line {lineno}: {err}"
                     for err in validate_record(line.strip())]
    if records == 0:
        problems.append("no records")
    return problems, f"{records} records"


# ---------------------------------------------------------------------------
# ujoin.flight_record (src/obs/flight_recorder.h)
# ---------------------------------------------------------------------------

FLIGHT_RECORD_KEYS = [
    "schema", "schema_version", "reason", "signal", "build",
    "dropped_events", "threads_registered", "registry", "threads",
]
BUILD_KEYS = ["compiler"]
THREAD_KEYS = ["slot", "os_tid", "recorded", "events"]
EVENT_KEYS = ["seq", "ts_ns", "kind", "a", "b"]

# FlightEvent registry order (src/obs/flight_recorder.cc
# kFlightEventNames); the dump spells the registry in exactly this order.
EVENT_KINDS = [
    "probe_begin", "funnel_stage", "verify_begin", "query_begin", "query_end",
    "batch_boundary", "conn_open", "conn_close", "conn_idle_close",
    "serve_query", "stall_captured",
]
REASONS = ("manual", "crash", "watchdog")

MAX_THREAD_SLOTS = 32    # FlightRecorder::kMaxThreadSlots
EVENTS_PER_THREAD = 128  # FlightRecorder::kEventsPerThread


def _validate_thread(thread, index: int, errors: list[str]) -> int:
    """Validates one per-thread entry; returns its slot (or -1)."""
    where = f"threads[{index}]"
    if _key_list(thread) != THREAD_KEYS:
        errors.append(f"{where}: expected keys {THREAD_KEYS}, got "
                      f"{_key_list(thread)!r}")
        return -1
    slot = _int_field(thread, "slot", errors, where=f"{where}.")
    if not 0 <= slot < MAX_THREAD_SLOTS:
        errors.append(f"{where}.slot out of range [0, {MAX_THREAD_SLOTS}): "
                      f"{slot}")
    if _int_field(thread, "os_tid", errors, where=f"{where}.") < 0:
        errors.append(f"{where}.os_tid is negative: {thread['os_tid']}")
    recorded = _int_field(thread, "recorded", errors, where=f"{where}.")
    if recorded < 0:
        errors.append(f"{where}.recorded is negative: {recorded}")

    events = thread["events"]
    if not isinstance(events, list):
        errors.append(f"{where}.events: expected list, got {events!r}")
        return slot
    if len(events) > EVENTS_PER_THREAD:
        errors.append(f"{where}.events: {len(events)} events exceed the "
                      f"ring capacity {EVENTS_PER_THREAD}")
    if len(events) > recorded:
        errors.append(f"{where}.events: {len(events)} events but only "
                      f"{recorded} recorded")
    window_lo = max(0, recorded - EVENTS_PER_THREAD)
    prev_seq = window_lo  # seq is 1-based; the window is (lo, recorded]
    prev_ts = -1
    for j, event in enumerate(events):
        ewhere = f"{where}.events[{j}]"
        if _key_list(event) != EVENT_KEYS:
            errors.append(f"{ewhere}: expected keys {EVENT_KEYS}")
            continue
        seq = _int_field(event, "seq", errors, where=f"{ewhere}.")
        if seq <= prev_seq:
            errors.append(f"{ewhere}.seq not strictly increasing within "
                          f"the ring window: {seq} after {prev_seq}")
        if seq > recorded:
            errors.append(f"{ewhere}.seq {seq} exceeds recorded {recorded}")
        prev_seq = max(prev_seq, seq)
        ts = _int_field(event, "ts_ns", errors, where=f"{ewhere}.")
        if ts < 0:
            errors.append(f"{ewhere}.ts_ns is negative: {ts}")
        if ts < prev_ts:
            errors.append(f"{ewhere}.ts_ns regresses: {ts} after {prev_ts}")
        prev_ts = max(prev_ts, ts)
        if event["kind"] not in EVENT_KINDS:
            errors.append(f"{ewhere}.kind unknown: {event['kind']!r}")
        _int_field(event, "a", errors, where=f"{ewhere}.")
        _int_field(event, "b", errors, where=f"{ewhere}.")
    return slot


def validate_flight_record(text: str) -> tuple[list[str], str]:
    """Validates one flight-record document: (problems, summary)."""
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"not valid JSON: {e}"], ""
    if not isinstance(rec, dict):
        return ["document is not a JSON object"], ""
    if list(rec.keys()) != FLIGHT_RECORD_KEYS:
        return [f"top-level key order mismatch: got {list(rec.keys())}"], ""

    errors: list[str] = []
    if rec["schema"] != "ujoin.flight_record":
        errors.append(f"schema: expected 'ujoin.flight_record', "
                      f"got {rec['schema']!r}")
    if rec["schema_version"] != 3:
        errors.append(f"schema_version: expected 3, "
                      f"got {rec['schema_version']!r}")

    reason = rec["reason"]
    signal = _int_field(rec, "signal", errors)
    if reason not in REASONS:
        errors.append(f"reason: expected one of {REASONS}, got {reason!r}")
    elif reason == "crash" and signal <= 0:
        errors.append(f"crash record without a delivering signal: {signal}")
    elif reason != "crash" and signal != 0:
        errors.append(f"non-crash record carries signal {signal}")

    build = rec["build"]
    if _key_list(build) != BUILD_KEYS:
        errors.append(f"build: expected keys {BUILD_KEYS}")
    elif not isinstance(build["compiler"], str) or not build["compiler"]:
        errors.append(f"build.compiler: expected non-empty string, "
                      f"got {build['compiler']!r}")

    if _int_field(rec, "dropped_events", errors) < 0:
        errors.append(f"dropped_events is negative: {rec['dropped_events']}")

    registry = rec["registry"]
    if _key_list(registry) != EVENT_KINDS:
        errors.append(f"registry key order mismatch: got "
                      f"{_key_list(registry)!r}")
    else:
        for kind in EVENT_KINDS:
            if _int_field(registry, kind, errors, where="registry.") < 0:
                errors.append(f"registry.{kind} is negative: "
                              f"{registry[kind]}")

    threads = rec["threads"]
    threads_registered = _int_field(rec, "threads_registered", errors)
    if not isinstance(threads, list):
        errors.append(f"threads: expected list, got {threads!r}")
        return errors, ""
    if len(threads) != min(threads_registered, MAX_THREAD_SLOTS):
        errors.append(f"threads: {len(threads)} entries for "
                      f"threads_registered {threads_registered}")
    prev_slot = -1
    for i, thread in enumerate(threads):
        slot = _validate_thread(thread, i, errors)
        if slot <= prev_slot:
            errors.append(f"threads[{i}].slot not strictly increasing: "
                          f"{slot} after {prev_slot}")
        prev_slot = max(prev_slot, slot)
    return errors, f"{len(threads)} threads"


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

SCHEMAS = {
    "exposition": validate_exposition,
    "query_log": validate_query_log,
    "flight_record": validate_flight_record,
}


def _json_schema(text: str) -> str | None:
    """The `schema` field of `text` parsed as one JSON object, else None."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    return doc.get("schema") if isinstance(doc, dict) else None


def detect(text: str) -> str:
    """The schema a document declares about itself (see module doc)."""
    if _json_schema(text) == "ujoin.flight_record":
        return "flight_record"
    first = next((line for line in text.splitlines() if line.strip()), "")
    if _json_schema(first) == "ujoin.query_log":
        return "query_log"
    return "exposition"


def validate(text: str) -> tuple[str, list[str], str]:
    """(schema, problems, summary) for one document."""
    schema = detect(text)
    problems, summary = SCHEMAS[schema](text)
    return schema, problems, summary


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

_GOOD_PAGE = """\
# HELP ujoin_probes_total probes executed
# TYPE ujoin_probes_total counter
ujoin_probes_total 200
# HELP ujoin_threads worker threads used
# TYPE ujoin_threads gauge
ujoin_threads 4
# HELP ujoin_filter_funnel_candidates_total candidates per stage
# TYPE ujoin_filter_funnel_candidates_total counter
ujoin_filter_funnel_candidates_total{stage="qgram",edge="entered"} 6305
ujoin_filter_funnel_candidates_total{stage="qgram",edge="survived"} 108
# HELP ujoin_verify_latency_ns wall time of one verification
# TYPE ujoin_verify_latency_ns histogram
ujoin_verify_latency_ns_bucket{le="0"} 0
ujoin_verify_latency_ns_bucket{le="1023"} 2
ujoin_verify_latency_ns_bucket{le="2047"} 5
ujoin_verify_latency_ns_bucket{le="+Inf"} 5
ujoin_verify_latency_ns_sum 6000
ujoin_verify_latency_ns_count 5
"""


def _exposition_cases() -> list[tuple[str, str, str | None]]:
    hist = "# HELP ujoin_h h\n# TYPE ujoin_h histogram\n"
    return [
        ("good page", _GOOD_PAGE, None),
        ("sample without TYPE", "ujoin_x_total 1\n",
         "without a preceding TYPE"),
        ("duplicate sample",
         "# HELP ujoin_x_total x\n# TYPE ujoin_x_total counter\n"
         "ujoin_x_total 1\nujoin_x_total 1\n", "duplicate sample"),
        ("counter without _total",
         "# HELP ujoin_x x\n# TYPE ujoin_x counter\nujoin_x 1\n",
         "does not end in '_total'"),
        ("histogram without +Inf",
         hist + "ujoin_h_bucket{le=\"1\"} 1\nujoin_h_sum 1\n"
         "ujoin_h_count 1\n", "le=\"+Inf\""),
        ("decreasing buckets",
         hist + "ujoin_h_bucket{le=\"1\"} 3\nujoin_h_bucket{le=\"2\"} 2\n"
         "ujoin_h_bucket{le=\"+Inf\"} 3\nujoin_h_sum 1\nujoin_h_count 3\n",
         "cumulative bucket counts decrease"),
        ("unordered bounds",
         hist + "ujoin_h_bucket{le=\"2\"} 1\nujoin_h_bucket{le=\"1\"} 2\n"
         "ujoin_h_bucket{le=\"+Inf\"} 2\nujoin_h_sum 1\nujoin_h_count 2\n",
         "not strictly increasing"),
        ("_count off the +Inf bucket",
         hist + "ujoin_h_bucket{le=\"1\"} 1\nujoin_h_bucket{le=\"+Inf\"} 1\n"
         "ujoin_h_sum 1\nujoin_h_count 2\n", "_count"),
        ("TYPE without HELP",
         "# TYPE ujoin_x_total counter\nujoin_x_total 1\n",
         "without preceding HELP"),
        ("unparsable value",
         "# HELP ujoin_x_total x\n# TYPE ujoin_x_total counter\n"
         "ujoin_x_total nope\n", "unparsable value"),
        ("empty page", "", "no samples"),
        ("families without samples",
         "# HELP ujoin_x_total x\n# TYPE ujoin_x_total counter\n",
         "no samples"),
    ]


def _good_record() -> dict:
    return {
        "schema": "ujoin.query_log",
        "schema_version": 1,
        "request_id": request_id(3, 7),
        "connection": 3,
        "seq": 7,
        "query_length": 22,
        "length_band": 5,
        "funnel": {
            "qgram": {"entered": 49, "survived": 4},
            "freq_distance": {"entered": 4, "survived": 4},
            "cdf_bound": {"entered": 4, "survived": 3},
            "verify": {"entered": 2, "survived": 2},
        },
        "candidates": 4,
        "verify_worlds": 77250,
        "budget_fallbacks": 0,
        "deadline_fallbacks": 0,
        "hits": 3,
        "status": "ok",
        "inexact": False,
        "timing": {"total_ns": 160389952, "verify_ns": 157542480},
    }


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _query_log_cases() -> list[tuple[str, str, str | None]]:
    cases = [("good record", _dumps(_good_record()), None)]

    def bad(name: str, expect: str, mutate) -> None:
        rec = _good_record()
        mutate(rec)
        cases.append((name, _dumps(rec), expect))

    bad("bad request id", "request_id mismatch",
        lambda r: r.update(request_id=(r["request_id"] + 1) & MASK64))
    bad("bad length band", "length_band mismatch",
        lambda r: r.update(length_band=9))
    bad("broken funnel chain", "funnel chain broken",  # != qgram.survived
        lambda r: r["funnel"]["freq_distance"].update(entered=5))
    bad("survivors exceed entered", "need 0 <= survived <= entered",
        lambda r: r["funnel"]["qgram"].update(survived=50))
    bad("candidates mismatch", "!= qgram survivors",
        lambda r: r.update(candidates=5))
    bad("unknown status", "status: expected", lambda r: r.update(status="slow"))
    bad("negative timing", "timing.total_ns is negative",
        lambda r: r["timing"].update(total_ns=-1))
    bad("bool-typed count", "hits: expected integer",  # bool is no integer
        lambda r: r.update(hits=True))
    # Key order is part of the schema: same content, swapped keys.
    items = list(_good_record().items())
    items[3], items[4] = items[4], items[3]
    cases.append(("top-level key order", _dumps(dict(items)),
                  "top-level key order mismatch"))
    cases.append(("not json", "{nope\n", "not valid JSON"))
    # An error record: funnel zeroed, no hits.
    err = _good_record()
    err.update(request_id=request_id(1, 2), connection=1, seq=2,
               query_length=0, length_band=0, candidates=0, verify_worlds=0,
               hits=0, status="error", timing={"total_ns": 0, "verify_ns": 0})
    for stage in FUNNEL_STAGES:
        err["funnel"][stage] = {"entered": 0, "survived": 0}
    cases.append(("error record", _dumps(err), None))
    err["hits"] = 2
    cases.append(("error record with hits", _dumps(err),
                  "error record reports 2 hits"))
    cases.append(("empty log", "\n", "no records"))
    return cases


def _good_flight_record() -> dict:
    return {
        "schema": "ujoin.flight_record",
        "schema_version": 3,
        "reason": "manual",
        "signal": 0,
        "build": {"compiler": "12.2.0"},
        "dropped_events": 0,
        "threads_registered": 2,
        "registry": {
            "probe_begin": 3, "funnel_stage": 0, "verify_begin": 1,
            "query_begin": 1, "query_end": 1, "batch_boundary": 0,
            "conn_open": 0, "conn_close": 0, "conn_idle_close": 0,
            "serve_query": 0, "stall_captured": 0,
        },
        "threads": [
            {
                "slot": 0, "os_tid": 4242, "recorded": 4,
                "events": [
                    {"seq": 1, "ts_ns": 10, "kind": "query_begin",
                     "a": 0, "b": 2},
                    {"seq": 2, "ts_ns": 20, "kind": "probe_begin",
                     "a": 0, "b": 0},
                    {"seq": 3, "ts_ns": 30, "kind": "verify_begin",
                     "a": 64, "b": 0},
                    {"seq": 4, "ts_ns": 40, "kind": "query_end",
                     "a": 0, "b": 0},
                ],
            },
            {
                "slot": 1, "os_tid": 4243, "recorded": 2,
                "events": [
                    {"seq": 1, "ts_ns": 15, "kind": "probe_begin",
                     "a": 1, "b": 1},
                    {"seq": 2, "ts_ns": 25, "kind": "probe_begin",
                     "a": 1, "b": 3},
                ],
            },
        ],
    }


def _flight_record_cases() -> list[tuple[str, str, str | None]]:
    cases = [("good document", _dumps(_good_flight_record()), None)]

    def case(name: str, expect: str | None, mutate) -> None:
        doc = _good_flight_record()
        mutate(doc)
        cases.append((name, _dumps(doc), expect))

    def events(doc: dict, thread: int = 0) -> list:
        return doc["threads"][thread]["events"]

    case("wrong schema", "schema: expected 'ujoin.flight_record'",
         lambda d: d.update(schema="ujoin.query_log"))
    case("old schema version", "schema_version: expected 3",
         lambda d: d.update(schema_version=2))
    case("unknown reason", "reason: expected one of",
         lambda d: d.update(reason="panic"))
    case("crash without signal", "crash record without a delivering signal",
         lambda d: d.update(reason="crash"))
    case("crash with signal", None, lambda d: d.update(reason="crash",
                                                       signal=11))
    case("manual with signal", "non-crash record carries signal 11",
         lambda d: d.update(signal=11))
    case("extra build key", "build: expected keys",
         lambda d: d["build"].update(simd="scalar"))
    case("missing registry kind", "registry key order mismatch",
         lambda d: d["registry"].pop("serve_query"))
    case("negative registry count", "registry.probe_begin is negative",
         lambda d: d["registry"].update(probe_begin=-1))
    case("thread count mismatch", "2 entries for threads_registered 3",
         lambda d: d.update(threads_registered=3))
    case("duplicate thread slot", "slot not strictly increasing",
         lambda d: d["threads"][1].update(slot=0))
    case("seq not increasing", "seq not strictly increasing",
         lambda d: events(d)[2].update(seq=2))
    case("seq exceeds recorded", "seq 9 exceeds recorded 4",
         lambda d: events(d)[3].update(seq=9))
    case("unknown event kind", "kind unknown",
         lambda d: events(d)[1].update(kind="coffee_break"))
    case("timestamp regression", "ts_ns regresses",
         lambda d: events(d)[1].update(ts_ns=5))
    case("more events than recorded", "4 events but only 3 recorded",
         lambda d: d["threads"][0].update(recorded=3))
    case("bool-typed payload", "a: expected integer",
         lambda d: events(d)[0].update(a=True))
    # A ring that wrapped: only the visible window is present, seqs sit in
    # (recorded - capacity, recorded], and gaps (torn events skipped by a
    # live dump) are legal.
    wrapped = [
        {"seq": 480, "ts_ns": 100, "kind": "probe_begin", "a": 0, "b": 0},
        {"seq": 482, "ts_ns": 110, "kind": "verify_begin", "a": 8, "b": 0},
        {"seq": 500, "ts_ns": 120, "kind": "query_end", "a": 0, "b": 0},
    ]
    case("wrapped ring with gaps", None,
         lambda d: d["threads"][0].update(recorded=500, events=wrapped))
    below = [dict(wrapped[0], seq=300)] + wrapped[1:]
    case("seq below ring window", "not strictly increasing within the ring",
         lambda d: d["threads"][0].update(recorded=500, events=below))
    cases.append(("top-level key order",
                  _dumps(dict(sorted(_good_flight_record().items()))),
                  "top-level key order mismatch"))
    cases.append(("not json", "{nope", "not valid JSON"))
    cases.append(("empty document", " \n", "not valid JSON"))
    return cases


SELF_TEST_CASES = {
    "exposition": _exposition_cases,
    "query_log": _query_log_cases,
    "flight_record": _flight_record_cases,
}


def run_self_test(schemas: list[str]) -> int:
    failures = 0
    total = 0
    for schema in schemas:
        for name, text, expect in SELF_TEST_CASES[schema]():
            total += 1
            problems, _ = SCHEMAS[schema](text)
            if expect is None:
                # A valid document must also declare its own schema.
                ok = not problems and detect(text) == schema
                detail = f"got {problems}, detected as {detect(text)!r}"
            else:
                ok = any(expect in p for p in problems)
                detail = f"expected a problem mentioning {expect!r}, " \
                         f"got {problems}"
            if ok:
                print(f"ok   {schema}: {name}")
            else:
                failures += 1
                print(f"FAIL {schema}: {name}: {detail}")
    print(f"self-test: {total} document(s), {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="validate.py",
        description="schema validator for ujoin documents (see module "
                    "docstring)")
    parser.add_argument("file", nargs="?", metavar="FILE",
                        help="document to validate ('-' reads stdin)")
    parser.add_argument("--self-test", nargs="?", const="all",
                        choices=["all", *SCHEMAS], metavar="SCHEMA",
                        help="run the embedded good/bad documents of every "
                             "schema, or of one")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(list(SCHEMAS) if args.self_test == "all"
                             else [args.self_test])
    if args.file is None:
        parser.print_usage(sys.stderr)
        return 2
    label = "<stdin>" if args.file == "-" else args.file
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        print(f"validate: cannot read {label}: {e}", file=sys.stderr)
        return 2
    schema, problems, summary = validate(text)
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)
    if problems:
        print(f"{label}: {schema} invalid, "
              f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{label}: valid {schema} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
