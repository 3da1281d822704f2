#!/usr/bin/env bash
# CLI smoke, shared by tools/check.sh and CI:
#
#   1. runs a CLI join with metrics + tracing and schema-checks the
#      ujoin.run_report and the Chrome trace it writes;
#   2. checks the join's verification contract: `join` and `join --exact`
#      print the same pair set, and every "(lower bound)" probability of the
#      default join is at most the exact one;
#   3. checks that `join --threads=1` and `--threads=4` write byte-identical
#      pair files;
#   4. checks that the removed `join --early-stop` and `--wave-size` flags
#      are rejected (exit 2);
#   5. checks that a batch `search --input --queries --metrics-out` report
#      carries the index it built (peak memory and build time above 0).
#
# Usage: tools/cli_smoke.sh [build_dir]
#   build_dir defaults to "build"; artefacts go to <build_dir>/cli-smoke.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/tools/ujoin_cli"
DIR="$BUILD/cli-smoke"
mkdir -p "$DIR"

"$CLI" generate --kind=names --size=200 --seed=11 \
  --out="$DIR/data.txt" >/dev/null

echo "--- run report + trace schemas"
"$CLI" join --input="$DIR/data.txt" --kind=names \
  --k=2 --tau=0.1 --threads=2 --progress \
  --out="$DIR/pairs.txt" \
  --metrics-out="$DIR/metrics.json" \
  --trace-out="$DIR/trace.json" 2>/dev/null >/dev/null
python3 - "$DIR/metrics.json" "$DIR/trace.json" <<'PYEOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["schema"] == "ujoin.run_report", report.get("schema")
assert report["schema_version"] == 3
assert report["command"] == "join"
for key in ("options", "stats", "metrics"):
    assert key in report, f"run report missing section '{key}'"
stats = report["stats"]
for key in ("pairs", "time_seconds", "index", "verify"):
    assert key in stats, f"stats missing '{key}'"
metrics = report["metrics"]
for key in ("counters", "gauges", "histograms"):
    assert key in metrics, f"metrics missing '{key}'"
assert metrics["counters"]["probes"] == 200, metrics["counters"]
for name in ("verify_latency_ns", "merged_list_length",
             "candidate_alpha_ppm", "explored_trie_nodes"):
    hist = metrics["histograms"][name]
    for key in ("unit", "count", "sum", "buckets"):
        assert key in hist, f"histogram '{name}' missing '{key}'"

trace = json.load(open(sys.argv[2]))
events = trace["traceEvents"]
assert events, "trace has no events"
spans = {e["name"] for e in events if e["ph"] == "X"}
for name in ("index_insert", "freq_summaries", "probe", "qgram_probe"):
    assert name in spans, f"trace missing span '{name}'"
# Metadata ("M") events carry no timestamp; complete ("X") events must.
assert all({"ph", "pid"} <= e.keys() for e in events)
assert all({"ts", "dur", "tid"} <= e.keys()
           for e in events if e["ph"] == "X")
print("run report and trace are schema-valid")
PYEOF

echo "--- verification contract (default join vs --exact)"
"$CLI" join --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 --exact \
  --out="$DIR/pairs_exact.txt" 2>/dev/null >/dev/null
python3 - "$DIR/pairs.txt" "$DIR/pairs_exact.txt" <<'PYEOF'
import sys

def read(path):
    pairs = {}
    for line in open(path):
        cols = line.rstrip("\n").split("\t")
        pairs[(int(cols[0]), int(cols[1]))] = (float(cols[2]),
                                               cols[3:] == ["(lower bound)"])
    return pairs

default, exact = read(sys.argv[1]), read(sys.argv[2])
assert default, "the smoke join found no pairs"
assert default.keys() == exact.keys(), \
    f"pair sets differ: {sorted(default.keys() ^ exact.keys())[:10]}"
assert not any(bound for _, bound in exact.values()), \
    "--exact printed a lower bound"
bounds = [(pair, p) for pair, (p, bound) in default.items() if bound]
assert bounds, "the default join printed no lower bound"
for pair, p in bounds:
    assert p <= exact[pair][0], (pair, p, exact[pair][0])
print(f"{len(default)} pairs agree; {len(bounds)} lower bounds <= exact")
PYEOF

echo "--- thread count does not change the pair file"
for threads in 1 4; do
  "$CLI" join --input="$DIR/data.txt" --kind=names --k=2 --tau=0.1 \
    --threads="$threads" --out="$DIR/pairs_t$threads.txt" >/dev/null 2>&1
done
cmp "$DIR/pairs_t1.txt" "$DIR/pairs_t4.txt"
echo "join --threads=1 and --threads=4 write identical pairs"

for flag in --early-stop --wave-size=8; do
  echo "--- removed flag $flag is rejected"
  rc=0
  "$CLI" join --input="$DIR/data.txt" --kind=names "$flag" \
    --out=/dev/null >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "FAIL: join $flag exited $rc, want 2" >&2
    exit 1
  fi
  echo "join $flag exits 2"
done

echo "--- batch search reports its index"
# Same generator seed, at most two uncertain positions: near-duplicates of
# the first strings that stay cheap to verify exactly.
"$CLI" generate --kind=names --size=20 --seed=11 --max-uncertain=2 \
  --out="$DIR/queries.txt" >/dev/null
"$CLI" search --input="$DIR/data.txt" --queries="$DIR/queries.txt" \
  --kind=names --metrics-out="$DIR/search.json" >/dev/null 2>&1
python3 - "$DIR/search.json" <<'PYEOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["command"] == "search"
stats = report["stats"]
assert stats["pairs"]["results"] > 0, stats["pairs"]
assert stats["index"]["peak_memory_bytes"] > 0, stats["index"]
assert stats["time_seconds"]["index_build"] > 0, stats["time_seconds"]
print("search report carries index memory and build time")
PYEOF
