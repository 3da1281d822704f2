#!/usr/bin/env bash
# Resident-service smoke, shared by tools/check.sh and CI:
#
#   1. starts `ujoin_cli serve` on an ephemeral port with a generated
#      dataset, a metrics endpoint, and a verification budget;
#   2. runs a query batch over a real socket with a python3 stdlib client:
#      well-formed queries (checking id-sorted hits, per-connection seq, and
#      the inexact flag), one malformed line (error without losing the
#      connection), and a blank batch separator;
#   3. scrapes /metrics, /healthz (the build-info JSON block), and
#      /debug/slow (the slow-query rings) and checks the serve-layer series
#      reflect the batch just sent;
#   4. shuts the server down with SIGINT and checks a clean exit plus the
#      shutdown summary on stderr, then validates the structured query log
#      the run wrote with tools/validate.py.
#
#   5. runs the watchdog leg: three fresh serve instances under
#      --watchdog-ms with 1, 2, and 4 concurrent clients all sending the
#      same slow (huge world-product) query, asserts /debug/stalls reports
#      the stall with funnel_stage "verify", validates the flight record
#      each run dumps on shutdown, and checks the non-timing stall
#      projection (timing, connection, and seq stripped) is byte-identical
#      across the three client counts.
#
# Usage: tools/serve_smoke.sh [build_dir]
#   build_dir defaults to "build"; artefacts go to <build_dir>/serve-smoke.
#
# Pure python3 stdlib (socket + urllib): curl is not assumed.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/tools/ujoin_cli"
DIR="$BUILD/serve-smoke"
mkdir -p "$DIR"

# Low-fanout strings (<= 3^2 worlds each): exact verification is cheap, so
# the serve-side world budget below never trips and responses stay exact.
"$CLI" generate --kind=names --size=100 --seed=17 \
  --theta=0.1 --gamma=3 --max-uncertain=2 \
  --out="$DIR/data.txt" >/dev/null

echo "--- resident search service"
rm -f "$DIR/serve.err"
rm -f "$DIR/query_log.jsonl"
"$CLI" serve --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 \
  --port=0 --metrics-port=0 --max-verify-worlds=1000000 \
  --query-log="$DIR/query_log.jsonl" \
  2>"$DIR/serve.err" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# The CLI announces both ports on stderr before accepting; poll for them.
PORT="" METRICS_PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serve: .* answering on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' \
    "$DIR/serve.err" 2>/dev/null || true)"
  METRICS_PORT="$(sed -n 's/^serve: \/metrics on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$DIR/serve.err" 2>/dev/null || true)"
  [[ -n "$PORT" && -n "$METRICS_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$PORT" || -z "$METRICS_PORT" ]]; then
  echo "FAIL: serve never announced its ports" >&2
  cat "$DIR/serve.err" >&2
  exit 1
fi
echo "query port $PORT, metrics port $METRICS_PORT"

python3 - "$PORT" "$METRICS_PORT" "$DIR/data.txt" "$DIR/metrics.prom" <<'PYEOF'
import json, socket, sys, time, urllib.request

port, metrics_port = int(sys.argv[1]), int(sys.argv[2])
queries = [line.strip() for line in open(sys.argv[3]) if line.strip()][:10]

sock = socket.create_connection(("127.0.0.1", port), timeout=10)
f = sock.makefile("rwb")

def ask(line):
    f.write(line.encode() + b"\n")
    f.flush()
    return json.loads(f.readline().decode())

# A batch of well-formed queries: sequenced responses, id-sorted hits, and
# exact results under a budget far above these strings' world counts.
total_hits = 0
for i, q in enumerate(queries, start=1):
    r = ask(q)
    assert r["seq"] == i and r["status"] == "ok", r
    assert r["inexact"] is False, r
    ids = [h["id"] for h in r["hits"]]
    assert ids == sorted(ids), r
    assert all(h["probability"] > 0.1 for h in r["hits"]), r
    total_hits += len(ids)
# Querying the collection against itself must surface matches (certain
# strings match themselves with probability 1).
assert total_hits > 0

# A malformed line gets an error response and the connection survives.
r = ask("not a query !!")
assert r["status"] == "error" and r["seq"] == len(queries) + 1, r
r = ask(queries[0])
assert r["status"] == "ok" and r["seq"] == len(queries) + 2, r

# Blank line = batch separator: flushes a metrics snapshot, no response.
f.write(b"\n")
f.flush()

def fetch(path):
    url = f"http://127.0.0.1:{metrics_port}{path}"
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read()

# /healthz under serve is the build-info JSON block (the bare scrape
# endpoint's "ok\n" liveness body is covered by tools/live_smoke.sh).
status, body = fetch("/healthz")
assert status == 200, (status, body)
health = json.loads(body)
assert health["status"] == "ok", health
assert list(health) == ["status", "searcher_format_version", "obs",
                        "metrics_schema_version", "collection_size",
                        "index_length_buckets", "index_segments"], health
assert health["collection_size"] == 100, health

# The batch-boundary snapshot is pushed by the worker that saw the blank
# line; poll briefly until it lands.
want = f"ujoin_serve_requests_total {len(queries) + 2}\n".encode()
deadline = time.monotonic() + 10
while True:
    status, body = fetch("/metrics")
    assert status == 200, status
    if want in body:
        break
    assert time.monotonic() < deadline, \
        f"snapshot never appeared; last page:\n{body.decode()}"
    time.sleep(0.2)
assert b"ujoin_serve_connections_total 1\n" in body, body.decode()
assert b"ujoin_serve_request_errors_total 1\n" in body, body.decode()
assert f"ujoin_queries_total {len(queries) + 1}\n".encode() in body
with open(sys.argv[4], "wb") as out:
    out.write(body)

# /debug/slow serves the slow-query rings once the batch snapshot landed.
status, body = fetch("/debug/slow")
assert status == 200, status
slow = json.loads(body)
assert slow["schema"] == "ujoin.slow_queries", slow
assert slow["schema_version"] == 1, slow
assert slow["by_verify_worlds"], "verify-worlds ring is empty after a batch"
assert slow["by_latency_ns"], "latency ring is empty after a batch"
worst = slow["by_verify_worlds"][0]
assert worst["schema"] == "ujoin.query_log", worst
keys = [r["verify_worlds"] for r in slow["by_verify_worlds"]]
assert keys == sorted(keys, reverse=True), keys

sock.close()
print(f"answered {len(queries) + 2} requests, scraped /metrics "
      f"({len(body)} bytes)")
PYEOF

python3 tools/validate.py "$DIR/metrics.prom"

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q "^serve: shutting down$" "$DIR/serve.err"
grep -q "^serve: 1 connections (0 rejected), 12 requests (1 errors)" \
  "$DIR/serve.err"
echo "server exited cleanly on SIGINT with shutdown summary"

# The structured query log: one schema-valid record per answered request
# (10 good + 1 error + 1 retry), flushed at the batch boundary and closed
# on shutdown.
grep -q "^query-log: wrote 12 records to " "$DIR/serve.err"
python3 tools/validate.py "$DIR/query_log.jsonl"
[[ "$(wc -l < "$DIR/query_log.jsonl")" == "12" ]]
grep -q '"status":"error"' "$DIR/query_log.jsonl"
echo "query log is schema-valid (12 records, error record included)"

echo "--- watchdog stall leg"
# One string whose self-verification is genuinely slow: five uncertain
# positions with five alternatives each (3125 worlds, a 9.7M-world pair
# product) and a skewed distribution so the CDF bounds straddle tau and the
# funnel cannot decide without exact verification.  The query takes ~1-3 s —
# far past the 50 ms flat watchdog threshold, finite well under timeouts.
python3 - > "$DIR/stall_data.txt" <<'PYEOF'
u = "{" + ",".join(f"({c},{0.6 if c == 'a' else 0.1:g})" for c in "abcde") + "}"
print("ab" + u * 5 + "xy")
print("qrstuvwxyz")
print("mnopqrstuv")
PYEOF
STALL_QUERY="$(head -1 "$DIR/stall_data.txt")"

for CLIENTS in 1 2 4; do
  ERR="$DIR/stall_serve_$CLIENTS.err"
  rm -f "$ERR" "$DIR/stall_flight_$CLIENTS.json"
  "$CLI" serve --input="$DIR/stall_data.txt" --kind=names --k=2 --tau=0.1 \
    --port=0 --metrics-port=0 --watchdog-ms=50 \
    --flight-record="$DIR/stall_flight_$CLIENTS.json" \
    2>"$ERR" &
  SERVE_PID=$!
  trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

  PORT="" METRICS_PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^serve: .* answering on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' \
      "$ERR" 2>/dev/null || true)"
    METRICS_PORT="$(sed -n 's/^serve: \/metrics on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$ERR" 2>/dev/null || true)"
    [[ -n "$PORT" && -n "$METRICS_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$PORT" && -n "$METRICS_PORT" ]] || {
    echo "FAIL: stall serve ($CLIENTS clients) never announced its ports" >&2
    cat "$ERR" >&2
    exit 1
  }

  python3 - "$PORT" "$METRICS_PORT" "$CLIENTS" "$STALL_QUERY" \
    "$DIR/stalls_proj_$CLIENTS.json" <<'PYEOF'
import json, socket, sys, threading, urllib.request

port, metrics_port = int(sys.argv[1]), int(sys.argv[2])
clients, query, out_path = int(sys.argv[3]), sys.argv[4], sys.argv[5]

# All clients send the same slow query concurrently; every one must still
# get its (exact) answer back — a stall capture observes, never cancels.
def run_client(results, i):
    sock = socket.create_connection(("127.0.0.1", port), timeout=120)
    f = sock.makefile("rwb")
    f.write(query.encode() + b"\n")
    f.flush()
    results[i] = json.loads(f.readline().decode())
    sock.close()

results = [None] * clients
threads = [threading.Thread(target=run_client, args=(results, i))
           for i in range(clients)]
for t in threads:
    t.start()
for t in threads:
    t.join()
for r in results:
    assert r is not None and r["status"] == "ok", r
    assert r["hits"] and r["hits"][0]["id"] == 0, r

# The watchdog saw every in-flight query blow through the 50 ms flat
# threshold inside exact verification.
url = f"http://127.0.0.1:{metrics_port}/debug/stalls"
with urllib.request.urlopen(url, timeout=5) as resp:
    status, body = resp.status, resp.read()
assert status == 200, status
page = json.loads(body)
assert page["schema"] == "ujoin.stalls", page
assert page["schema_version"] == 1, page
assert page["captures"] >= 1, page
assert page["stalls"], page
for s in page["stalls"]:
    assert s["funnel_stage"] == "verify", s
    assert s["deadline_ns"] == 0, s
    assert s["threshold_ns"] == 50_000_000, s
    assert s["elapsed_ns"] > 50_000_000, s

# Non-timing projection: drop elapsed time and connection identity, keep
# everything content-derived.  Identical queries must leave identical
# stall content no matter how many clients raced.
timing = ("elapsed_ns", "connection", "seq")
proj = sorted(set(
    json.dumps({k: v for k, v in s.items() if k not in timing},
               sort_keys=True)
    for s in page["stalls"]))
with open(out_path, "w") as out:
    out.write("\n".join(proj) + "\n")
print(f"{clients} client(s): {page['captures']} capture(s), "
      f"{len(proj)} distinct stall signature(s)")
PYEOF

  kill -INT "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT
  grep -q "^serve: shutting down$" "$ERR"
  grep -q "^flight-record: wrote " "$ERR"
  python3 tools/validate.py "$DIR/stall_flight_$CLIENTS.json"
  grep -q '"kind":"stall_captured"' "$DIR/stall_flight_$CLIENTS.json"
done

# The stripped stall projection is byte-identical across 1, 2, and 4
# concurrent clients: watchdog content depends on the query, not the race.
cmp "$DIR/stalls_proj_1.json" "$DIR/stalls_proj_2.json"
cmp "$DIR/stalls_proj_1.json" "$DIR/stalls_proj_4.json"
echo "stall projection identical across 1/2/4 clients"

echo "serve smoke passed"
