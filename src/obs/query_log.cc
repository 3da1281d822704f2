#include "obs/query_log.h"

#include <algorithm>

#include "obs/json_writer.h"

namespace ujoin {
namespace obs {

namespace {

/// The record's content fields, shared by the full line and the
/// content-only rendering (attribution and timing are what differ).
void AppendContentFields(const QueryLogRecord& rec, JsonWriter* w) {
  w->Key("query_length");
  w->Int(rec.query_length);
  w->Key("length_band");
  w->Int(rec.length_band);
  w->Key("funnel");
  w->BeginObject();
  for (int s = 0; s < kNumFunnelStages; ++s) {
    w->Key(FunnelStageInfo(static_cast<FunnelStage>(s)).name);
    w->BeginObject();
    w->Key("entered");
    w->Int(rec.funnel_entered[s]);
    w->Key("survived");
    w->Int(rec.funnel_survived[s]);
    w->EndObject();
  }
  w->EndObject();
  w->Key("candidates");
  w->Int(rec.candidates);
  w->Key("verify_worlds");
  w->Int(rec.verify_worlds);
  w->Key("budget_fallbacks");
  w->Int(rec.budget_fallbacks);
  w->Key("deadline_fallbacks");
  w->Int(rec.deadline_fallbacks);
  w->Key("hits");
  w->Int(rec.hits);
  w->Key("status");
  w->String(rec.error ? "error" : "ok");
  w->Key("inexact");
  w->Bool(rec.inexact);
}

}  // namespace

void AppendQueryLogRecord(const QueryLogRecord& rec, JsonWriter* w) {
  w->BeginObject();
  w->Key("schema");
  w->String("ujoin.query_log");
  w->Key("schema_version");
  w->Int(kQueryLogSchemaVersion);
  w->Key("request_id");
  w->UInt(rec.request_id);
  w->Key("connection");
  w->Int(rec.connection);
  w->Key("seq");
  w->Int(rec.seq);
  AppendContentFields(rec, w);
  w->Key("timing");
  w->BeginObject();
  w->Key("total_ns");
  w->Int(rec.total_ns);
  w->Key("verify_ns");
  w->Int(rec.verify_ns);
  w->EndObject();
  w->EndObject();
}

std::string RenderQueryLogLine(const QueryLogRecord& rec) {
  JsonWriter w;
  AppendQueryLogRecord(rec, &w);
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string DeterministicContentJson(const QueryLogRecord& rec) {
  JsonWriter w;
  w.BeginObject();
  AppendContentFields(rec, &w);
  w.EndObject();
  return w.TakeString();
}

Status QueryLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) return Status::FailedPrecondition("query log already open");
  out_.open(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out_.is_open()) {
    return Status::IoError("cannot open query log " + path);
  }
  open_ = true;
  return Status::OK();
}

void QueryLog::Write(const QueryLogRecord& rec) { WriteAll(&rec, 1); }

void QueryLog::WriteAll(const QueryLogRecord* recs, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return;
  for (size_t i = 0; i < count; ++i) {
    const std::string line = RenderQueryLogLine(recs[i]);
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    ++written_;
  }
}

Status QueryLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::OK();
  open_ = false;
  out_.flush();
  const bool failed = out_.fail();
  out_.close();
  if (failed) return Status::IoError("query log write failed");
  return Status::OK();
}

int64_t QueryLog::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

void SlowQueryRing::Offer(const QueryLogRecord& rec) {
  if (capacity_ == 0) return;
  const int64_t key = KeyOf(rec);
  if (entries_.size() >= capacity_ && key < entries_.back().key) return;
  Entry entry{key, rec, DeterministicContentJson(rec)};
  // Insert position under (key desc, content asc): the first slot whose
  // entry sorts after the new one.
  const auto after = [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.content < b.content;
  };
  auto it = entries_.begin();
  while (it != entries_.end() && !after(entry, *it)) ++it;
  entries_.insert(it, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<QueryLogRecord> SlowQueryRing::Records() const {
  std::vector<QueryLogRecord> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.rec);
  return out;
}

void SlowQueryRing::AppendJson(JsonWriter* w) const {
  w->BeginArray();
  for (const Entry& entry : entries_) AppendQueryLogRecord(entry.rec, w);
  w->EndArray();
}

std::string RenderSlowQueriesPage(const SlowQueryRing& by_verify_worlds,
                                  const SlowQueryRing& by_latency) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("ujoin.slow_queries");
  w.Key("schema_version");
  w.Int(kSlowQueriesSchemaVersion);
  w.Key("capacity");
  w.Int(static_cast<int64_t>(by_verify_worlds.capacity()));
  w.Key("by_verify_worlds");
  by_verify_worlds.AppendJson(&w);
  w.Key("by_latency_ns");
  by_latency.AppendJson(&w);
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

}  // namespace obs
}  // namespace ujoin
