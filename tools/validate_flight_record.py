#!/usr/bin/env python3
"""validate_flight_record: schema validator for ujoin.flight_record files.

`ujoin_cli join|search|serve --flight-record[=FILE]` dumps the black-box
flight recorder (src/obs/flight_recorder.h) — at orderly exit, from the
SIGSEGV/SIGABRT/SIGBUS crash handler, and on watchdog stall captures.  The
dump is rendered by an async-signal-safe hand-rolled serializer (no stdio,
no malloc), so this tool re-validates the bytes from the outside with no
ujoin code involved: CI runs it against records the test suite and a forced
crash produce, so a silent drift in the C++ renderer fails the gate even if
every C++ test still passes.

Checks, per document:

  * a single JSON object with the exact top-level key order (key order is
    part of the schema: redacted dumps are byte-comparable);
  * schema == "ujoin.flight_record" and schema_version == 1;
  * reason is "manual", "crash", or "watchdog"; exactly the "crash" reason
    carries a non-zero delivering signal;
  * build holds a non-empty compiler string and simd_isa "scalar", the
    one kernel body every build compiles (simd::kIsaName);
  * the registry lists every event kind in registry order with
    non-negative totals; dropped_events is non-negative;
  * threads_registered matches the per-thread list, slots are unique,
    ascending, and within the recorder's capacity;
  * per thread: recorded is non-negative, at most kEventsPerThread events
    are present, each with the exact event key order, a known kind, and
    strictly increasing seq within (recorded - capacity, recorded] — the
    ring's visible window.  A dump taken under live writers may skip torn
    events, so gaps are legal; regressions are not.

Wall-clock fields (ts_ns, os_tid) are checked for type and sign only,
never for value: they are determinism tier 1, and redacted dumps
(redact_timing) zero them.

Usage:
  tools/validate_flight_record.py FILE     validate a dump ('-' = stdin)
  tools/validate_flight_record.py --self-test

Exit status: 0 valid, 1 invalid (or self-test failure), 2 usage.
"""

from __future__ import annotations

import json
import sys

TOP_LEVEL_KEYS = [
    "schema", "schema_version", "reason", "signal", "build",
    "dropped_events", "threads_registered", "registry", "threads",
]
BUILD_KEYS = ["compiler", "simd_isa"]
THREAD_KEYS = ["slot", "os_tid", "recorded", "events"]
EVENT_KEYS = ["seq", "ts_ns", "kind", "a", "b"]

# FlightEvent registry order (src/obs/flight_recorder.cc
# kFlightEventNames); the dump spells the registry in exactly this order.
EVENT_KINDS = [
    "wave_start", "wave_end", "probe_begin", "funnel_stage", "verify_begin",
    "query_begin", "query_end", "batch_boundary", "conn_open", "conn_close",
    "conn_idle_close", "serve_query", "stall_captured",
]
REASONS = ("manual", "crash", "watchdog")
# simd::kIsaName (src/util/simd.h): every target runs the portable kernels.
SIMD_ISAS = ("scalar",)

MAX_THREAD_SLOTS = 32    # FlightRecorder::kMaxThreadSlots
EVENTS_PER_THREAD = 128  # FlightRecorder::kEventsPerThread


def _int_field(obj: dict, key: str, errors: list[str],
               where: str = "") -> int:
    value = obj.get(key)
    # bool is an int subclass in Python; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{where}{key}: expected integer, got {value!r}")
        return 0
    return value


def _validate_thread(thread, index: int, errors: list[str]) -> int:
    """Validates one per-thread entry; returns its slot (or -1)."""
    where = f"threads[{index}]"
    if not isinstance(thread, dict) or list(thread.keys()) != THREAD_KEYS:
        errors.append(f"{where}: expected keys {THREAD_KEYS}, got "
                      f"{list(thread.keys()) if isinstance(thread, dict) else thread!r}")
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
        if not isinstance(event, dict) or list(event.keys()) != EVENT_KEYS:
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


def validate_document(text: str) -> list[str]:
    """Validates one flight-record document; returns error strings."""
    errors: list[str] = []
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"not valid JSON: {e}"]
    if not isinstance(rec, dict):
        return ["document is not a JSON object"]
    if list(rec.keys()) != TOP_LEVEL_KEYS:
        return [f"top-level key order mismatch: got {list(rec.keys())}"]

    if rec["schema"] != "ujoin.flight_record":
        errors.append(f"schema: expected 'ujoin.flight_record', "
                      f"got {rec['schema']!r}")
    if rec["schema_version"] != 1:
        errors.append(f"schema_version: expected 1, "
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
    if not isinstance(build, dict) or list(build.keys()) != BUILD_KEYS:
        errors.append(f"build: expected keys {BUILD_KEYS}")
    else:
        if not isinstance(build["compiler"], str) or not build["compiler"]:
            errors.append(f"build.compiler: expected non-empty string, "
                          f"got {build['compiler']!r}")
        if build["simd_isa"] not in SIMD_ISAS:
            errors.append(f"build.simd_isa: expected one of {SIMD_ISAS}, "
                          f"got {build['simd_isa']!r}")

    if _int_field(rec, "dropped_events", errors) < 0:
        errors.append(f"dropped_events is negative: {rec['dropped_events']}")

    registry = rec["registry"]
    if not isinstance(registry, dict) or list(registry.keys()) != EVENT_KINDS:
        errors.append(f"registry key order mismatch: got "
                      f"{list(registry.keys()) if isinstance(registry, dict) else registry!r}")
    else:
        for kind in EVENT_KINDS:
            if _int_field(registry, kind, errors, where="registry.") < 0:
                errors.append(f"registry.{kind} is negative: "
                              f"{registry[kind]}")

    threads = rec["threads"]
    threads_registered = _int_field(rec, "threads_registered", errors)
    if not isinstance(threads, list):
        errors.append(f"threads: expected list, got {threads!r}")
        return errors
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
    return errors


def validate_file(text: str, label: str) -> int:
    """Validates one document; prints errors; returns an exit status."""
    if not text.strip():
        print(f"{label}: empty document")
        return 1
    errors = validate_document(text)
    if errors:
        for err in errors:
            print(f"{label}: {err}")
        print(f"{label}: {len(errors)} error(s)")
        return 1
    print(f"{label}: valid")
    return 0


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def _good_document() -> dict:
    return {
        "schema": "ujoin.flight_record",
        "schema_version": 1,
        "reason": "manual",
        "signal": 0,
        "build": {"compiler": "12.2.0", "simd_isa": "scalar"},
        "dropped_events": 0,
        "threads_registered": 2,
        "registry": {
            "wave_start": 2, "wave_end": 2, "probe_begin": 3,
            "funnel_stage": 0, "verify_begin": 1, "query_begin": 0,
            "query_end": 0, "batch_boundary": 0, "conn_open": 0,
            "conn_close": 0, "conn_idle_close": 0, "serve_query": 0,
            "stall_captured": 0,
        },
        "threads": [
            {
                "slot": 0, "os_tid": 4242, "recorded": 4,
                "events": [
                    {"seq": 1, "ts_ns": 10, "kind": "wave_start",
                     "a": 0, "b": 2},
                    {"seq": 2, "ts_ns": 20, "kind": "probe_begin",
                     "a": 0, "b": 0},
                    {"seq": 3, "ts_ns": 30, "kind": "verify_begin",
                     "a": 64, "b": 0},
                    {"seq": 4, "ts_ns": 40, "kind": "wave_end",
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


def run_self_test() -> int:
    failures = 0

    def expect(name: str, doc, should_pass: bool):
        nonlocal failures
        text = doc if isinstance(doc, str) else \
            json.dumps(doc, separators=(",", ":"))
        errors = validate_document(text)
        ok = (not errors) == should_pass
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            verdict = "valid" if not errors else f"invalid ({errors[0]})"
            print(f"FAIL {name}: expected "
                  f"{'valid' if should_pass else 'invalid'}, got {verdict}")

    expect("good document", _good_document(), True)

    doc = _good_document()
    doc["schema"] = "ujoin.query_log"
    expect("wrong schema", doc, False)

    # Key order is part of the schema: same content, swapped keys.
    doc = _good_document()
    items = list(doc.items())
    items[2], items[3] = items[3], items[2]
    expect("top-level key order", dict(items), False)

    doc = _good_document()
    doc["reason"] = "panic"
    expect("unknown reason", doc, False)

    doc = _good_document()
    doc["reason"] = "crash"
    expect("crash without signal", doc, False)
    doc["signal"] = 11
    expect("crash with signal", doc, True)

    doc = _good_document()
    doc["signal"] = 11  # reason stays "manual"
    expect("manual with signal", doc, False)

    doc = _good_document()
    doc["build"]["simd_isa"] = "avx1024"
    expect("unknown simd_isa", doc, False)

    # An ISA no build writes: the kernels have one portable body.
    doc = _good_document()
    doc["build"]["simd_isa"] = "avx2"
    expect("simd_isa other than scalar", doc, False)

    doc = _good_document()
    del doc["registry"]["serve_query"]
    expect("missing registry kind", doc, False)

    doc = _good_document()
    doc["registry"]["probe_begin"] = -1
    expect("negative registry count", doc, False)

    doc = _good_document()
    doc["threads_registered"] = 3  # but only 2 entries
    expect("thread count mismatch", doc, False)

    doc = _good_document()
    doc["threads"][1]["slot"] = 0  # duplicate slot
    expect("duplicate thread slot", doc, False)

    doc = _good_document()
    doc["threads"][0]["events"][2]["seq"] = 2  # repeats the previous seq
    expect("seq not increasing", doc, False)

    doc = _good_document()
    doc["threads"][0]["events"][3]["seq"] = 9  # > recorded
    expect("seq exceeds recorded", doc, False)

    doc = _good_document()
    doc["threads"][0]["events"][1]["kind"] = "coffee_break"
    expect("unknown event kind", doc, False)

    doc = _good_document()
    doc["threads"][0]["events"][1]["ts_ns"] = 5  # regresses after 10
    expect("timestamp regression", doc, False)

    doc = _good_document()
    doc["threads"][0]["recorded"] = 3  # fewer than the 4 events present
    expect("more events than recorded", doc, False)

    doc = _good_document()
    doc["threads"][0]["events"][0]["a"] = True  # bool is not an integer
    expect("bool-typed payload", doc, False)

    # A ring that wrapped: only the visible window is present, seqs sit in
    # (recorded - capacity, recorded], and gaps (torn events skipped by a
    # live dump) are legal.
    doc = _good_document()
    doc["threads"][0]["recorded"] = 500
    doc["threads"][0]["events"] = [
        {"seq": 480, "ts_ns": 100, "kind": "probe_begin", "a": 0, "b": 0},
        {"seq": 482, "ts_ns": 110, "kind": "verify_begin", "a": 8, "b": 0},
        {"seq": 500, "ts_ns": 120, "kind": "wave_end", "a": 0, "b": 0},
    ]
    expect("wrapped ring with gaps", doc, True)

    doc["threads"][0]["events"][0]["seq"] = 300  # below the window
    expect("seq below ring window", doc, False)

    expect("not json", "{nope", False)

    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: validate_flight_record.py FILE|-|--self-test",
              file=sys.stderr)
        return 2
    if args[0] == "--self-test":
        return run_self_test()
    if args[0] == "-":
        return validate_file(sys.stdin.read(), "<stdin>")
    try:
        with open(args[0], encoding="utf-8") as f:
            return validate_file(f.read(), args[0])
    except OSError as e:
        print(f"validate_flight_record: cannot read {args[0]}: {e}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
