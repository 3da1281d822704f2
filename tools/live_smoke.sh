#!/usr/bin/env bash
# Live-monitoring smoke, shared by tools/check.sh and CI:
#
#   1. runs a CLI join with --listen (ephemeral port) and --listen-hold,
#      scrapes /metrics and /healthz over real HTTP while the process is
#      holding, and validates the page with tools/validate.py;
#   2. shuts the held process down with SIGINT and checks a clean exit;
#   3. re-runs the join with --trace-sample=N and asserts the sampled trace
#      keeps every driver span, records the sampling rate in its
#      metadata, and carries roughly N-fold fewer probe spans than an
#      unsampled trace of the same run.
#
# Usage: tools/live_smoke.sh [build_dir]
#   build_dir defaults to "build"; artefacts go to <build_dir>/live-smoke.
#
# Pure python3 stdlib for the HTTP client (urllib): curl is not assumed.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/tools/ujoin_cli"
DIR="$BUILD/live-smoke"
SAMPLE_N=4
mkdir -p "$DIR"

"$CLI" generate --kind=names --size=200 --seed=11 \
  --out="$DIR/data.txt" >/dev/null

echo "--- live scrape endpoint"
rm -f "$DIR/listen.err"
"$CLI" join --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 \
  --threads=2 --listen=0 --listen-hold --out="$DIR/pairs.txt" \
  >/dev/null 2>"$DIR/listen.err" &
JOIN_PID=$!
trap 'kill "$JOIN_PID" 2>/dev/null || true' EXIT

# The CLI prints "listen: serving /metrics on 127.0.0.1:<port>" on stderr
# before the join starts; poll for it, then for the endpoint itself.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listen: serving \/metrics on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$DIR/listen.err" 2>/dev/null || true)"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "FAIL: scrape endpoint never announced its port" >&2
  cat "$DIR/listen.err" >&2
  exit 1
fi
echo "scrape endpoint on port $PORT"

python3 - "$PORT" "$DIR/metrics.prom" <<'PYEOF'
import sys, time, urllib.request

port, out_path = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"

def fetch(path):
    with urllib.request.urlopen(base + path, timeout=5) as r:
        return r.status, r.headers.get("Content-Type", ""), r.read()

deadline = time.monotonic() + 10
while True:
    try:
        status, _, body = fetch("/healthz")
        break
    except OSError:
        if time.monotonic() > deadline:
            raise
        time.sleep(0.1)
assert status == 200 and body == b"ok\n", (status, body)

# Scrape until the finished join's final snapshot (all 200 probes) lands;
# --listen-hold keeps the server up after the join completes.
deadline = time.monotonic() + 60
while True:
    status, ctype, body = fetch("/metrics")
    assert status == 200, status
    assert ctype.startswith("text/plain"), ctype
    if b"ujoin_probes_total 200\n" in body:
        break
    assert time.monotonic() < deadline, \
        f"final snapshot never appeared; last page:\n{body.decode()}"
    time.sleep(0.2)
assert b"ujoin_filter_funnel_candidates_total{stage=\"qgram\"," in body
with open(out_path, "wb") as f:
    f.write(body)
print(f"scraped /healthz and /metrics ({len(body)} bytes)")
PYEOF

python3 tools/validate.py "$DIR/metrics.prom"

kill -INT "$JOIN_PID"
wait "$JOIN_PID"
trap - EXIT
echo "held process exited cleanly on SIGINT"

echo "--- trace sampling (1 in $SAMPLE_N)"
"$CLI" join --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 \
  --threads=2 --trace-out="$DIR/trace_full.json" \
  --out=/dev/null >/dev/null 2>&1
"$CLI" join --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 \
  --threads=2 --trace-out="$DIR/trace_sampled.json" \
  --trace-sample="$SAMPLE_N" --out=/dev/null >/dev/null 2>&1

python3 - "$DIR/trace_full.json" "$DIR/trace_sampled.json" "$SAMPLE_N" <<'PYEOF'
import json, sys

full = json.load(open(sys.argv[1]))
sampled = json.load(open(sys.argv[2]))
n = int(sys.argv[3])

def probe_spans(trace):
    return sum(1 for e in trace["traceEvents"]
               if e["ph"] == "X" and e["name"] == "probe")

for trace in (full, sampled):
    # Same schema checks as the unsampled obs smoke.
    assert trace["traceEvents"], "trace has no events"
    assert all({"ph", "pid"} <= e.keys() for e in trace["traceEvents"])
    assert all({"ts", "dur", "tid"} <= e.keys()
               for e in trace["traceEvents"] if e["ph"] == "X")
    # Driver spans survive sampling.
    spans = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    for name in ("index_insert", "freq_summaries"):
        assert name in spans, f"missing span '{name}'"

meta_full = full["metadata"]
meta_sampled = sampled["metadata"]
assert meta_full["probe_span_sample_n"] == 1, meta_full
assert meta_full["probes_seen"] == meta_full["probes_sampled"] == 200, \
    meta_full
assert meta_sampled["probe_span_sample_n"] == n, meta_sampled
assert meta_sampled["probes_seen"] == 200, meta_sampled

full_probes = probe_spans(full)
kept = probe_spans(sampled)
assert full_probes == 200, full_probes
assert kept == meta_sampled["probes_sampled"], (kept, meta_sampled)
# ~1-in-n survives; the seeded decision is deterministic, the band generous.
assert 0 < kept <= full_probes // 2, (kept, full_probes)
print(f"sampled trace keeps {kept}/{full_probes} probe spans "
      f"(rate 1/{n} recorded in metadata)")
PYEOF

echo "live smoke passed"
