#ifndef UJOIN_OBS_QUERY_LOG_H_
#define UJOIN_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace ujoin {
namespace obs {

class JsonWriter;

// ---------------------------------------------------------------------------
// Per-query diagnostics (DESIGN.md "Per-query diagnostics")
//
// The registry answers "how did the run behave"; the query log answers
// "which query was slow and why".  One QueryLogRecord per answered request
// captures the paper's q-gram -> frequency-distance -> CDF-bound -> verify
// funnel for that single query, plus the verification cost and the verdict.
//
// Records split into three determinism tiers, mirroring how the registry
// excludes `ns`-unit counters from bit-identity:
//   1. wall-clock fields (`total_ns`, `verify_ns`) — never compared;
//   2. attribution (`request_id`, `connection`, `seq`) — deterministic for a
//      fixed client topology (same clients, same query assignment), but a
//      query's (connection, seq) naturally changes when the same workload is
//      spread over a different number of connections;
//   3. query-content fields (everything else) — a pure function of the query
//      and the frozen index, bit-identical across thread and client counts.
// ---------------------------------------------------------------------------

/// \brief One answered query, as a flat POD: building and buffering a record
/// performs no heap allocation, which keeps the serve path inside the
/// steady-state zero-allocation guarantee.  Records are built from the
/// query's own JoinStats (ujoin::MakeQueryLogRecord, join/join_stats.h).
struct QueryLogRecord {
  // Attribution (determinism tier 2).
  uint64_t request_id = 0;  ///< QueryRequestId(connection, seq).
  int64_t connection = 0;   ///< Connection ordinal (accept order; 0 = batch).
  int64_t seq = 0;          ///< Query ordinal within the connection, from 1.

  // Query content (determinism tier 3).
  int64_t query_length = 0;
  int64_t length_band = 0;  ///< Histogram::BucketIndex(query_length).
  int64_t funnel_entered[kNumFunnelStages] = {};
  int64_t funnel_survived[kNumFunnelStages] = {};
  int64_t candidates = 0;      ///< q-gram stage survivors.
  int64_t verify_worlds = 0;   ///< Sum of verified pairs' world products.
  int64_t budget_fallbacks = 0;
  int64_t deadline_fallbacks = 0;
  int64_t hits = 0;
  bool inexact = false;
  bool error = false;

  // Wall clock (determinism tier 1; excluded from every comparison).
  int64_t total_ns = 0;
  int64_t verify_ns = 0;
};

/// Version of the "ujoin.query_log" JSONL line schema.
inline constexpr int kQueryLogSchemaVersion = 1;

/// Deterministic request id: splitmix64 over (connection << 32) ^ seq.
/// Reimplemented (with 64-bit masking) by tools/validate.py, so
/// the mixing constants are part of the schema.
inline uint64_t QueryRequestId(int64_t connection, int64_t seq) {
  uint64_t x = (static_cast<uint64_t>(connection) << 32) ^
               static_cast<uint64_t>(seq);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Appends the record as one JSON value (fixed key order; see
/// RenderQueryLogLine for the newline-terminated JSONL form).
void AppendQueryLogRecord(const QueryLogRecord& rec, JsonWriter* w);

/// The record's JSONL line, newline-terminated.  Byte-deterministic.
std::string RenderQueryLogLine(const QueryLogRecord& rec);

/// The record's query-content fields only (no attribution, no timing),
/// rendered as one JSON object.  Two queries with equal content are
/// interchangeable for the slow-query ring's tie-breaking, which is what
/// makes the ring's deterministic fields client-count invariant.
std::string DeterministicContentJson(const QueryLogRecord& rec);

/// \brief JSONL sink for query-log records: one mutex, one output stream.
///
/// Writers render under the lock into a reused scratch buffer; the intended
/// callers batch their writes (QueryLogBuffer::FlushTo at batch boundaries),
/// so the lock is taken once per batch, not once per query.
class QueryLog {
 public:
  QueryLog() = default;

  /// Opens (truncates) `path`.  Call once, before any Write.
  Status Open(const std::string& path);

  bool is_open() const { return open_; }

  /// Renders and writes one record.
  void Write(const QueryLogRecord& rec);

  /// Renders and writes `count` records under one lock acquisition.
  void WriteAll(const QueryLogRecord* recs, size_t count);

  /// Flushes and closes; reports stream failure.  Idempotent.
  Status Close();

  /// Records written so far.
  int64_t records_written() const;

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  bool open_ = false;
  int64_t written_ = 0;
};

/// \brief Fixed-capacity per-connection record buffer.
///
/// The serve path appends one record per answered query — allocation-free
/// once constructed, because the storage is reserved up front — and flushes
/// to the shared QueryLog at batch boundaries (or when full).  One buffer
/// per connection, never shared.
class QueryLogBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryLogBuffer(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    records_.reserve(capacity_);
  }

  /// Appends a record.  Never allocates; a full buffer drops the record and
  /// counts it (callers flush on full(), so drops indicate misuse).
  void Add(const QueryLogRecord& rec) {
    if (records_.size() < capacity_) {
      records_.push_back(rec);
    } else {
      ++dropped_;
    }
  }

  bool full() const { return records_.size() >= capacity_; }
  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  int64_t dropped() const { return dropped_; }
  const QueryLogRecord* data() const { return records_.data(); }

  void Clear() { records_.clear(); }

  /// Writes the buffered records to `log` (no-op when null or empty) and
  /// clears the buffer.  Capacity is retained, so the next Add stays
  /// allocation-free.
  void FlushTo(QueryLog* log) {
    if (log != nullptr && !records_.empty()) {
      log->WriteAll(records_.data(), records_.size());
    }
    records_.clear();
  }

 private:
  size_t capacity_;
  std::vector<QueryLogRecord> records_;
  int64_t dropped_ = 0;
};

/// \brief Fixed-size ring of the N worst queries by one key.
///
/// Entries are kept sorted by (key descending, deterministic content
/// ascending).  The content tie-break makes the kept multiset of
/// (key, content) pairs a pure top-N of everything offered, independent of
/// arrival order — which is what lets the verify-cost ring stay
/// client-count invariant (the latency ring's key is wall clock, so it
/// makes no such promise).
class SlowQueryRing {
 public:
  enum class Key {
    kVerifyWorlds,  ///< Deterministic verify cost.
    kLatencyNs,     ///< Wall clock (tier 1: not compared).
  };

  static constexpr size_t kDefaultCapacity = 8;

  explicit SlowQueryRing(Key key, size_t capacity = kDefaultCapacity)
      : key_(key), capacity_(capacity) {}

  /// Considers one record for the ring.
  void Offer(const QueryLogRecord& rec);

  Key key() const { return key_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }
  const QueryLogRecord& record(size_t i) const { return entries_[i].rec; }

  /// Snapshot of the kept records, worst first.
  std::vector<QueryLogRecord> Records() const;

  /// Appends the ring as a JSON array of records, worst first.
  void AppendJson(JsonWriter* w) const;

 private:
  struct Entry {
    int64_t key;
    QueryLogRecord rec;
    std::string content;  ///< DeterministicContentJson, cached for ordering.
  };

  int64_t KeyOf(const QueryLogRecord& rec) const {
    return key_ == Key::kVerifyWorlds ? rec.verify_worlds : rec.total_ns;
  }

  Key key_;
  size_t capacity_;
  std::vector<Entry> entries_;  // sorted: key desc, content asc
};

/// Version of the "ujoin.slow_queries" /debug/slow page schema.
inline constexpr int kSlowQueriesSchemaVersion = 1;

/// Renders the /debug/slow page: both rings plus schema/version/capacity.
std::string RenderSlowQueriesPage(const SlowQueryRing& by_verify_worlds,
                                  const SlowQueryRing& by_latency);

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_QUERY_LOG_H_
