#include "join/join_stats.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"
#include "obs/query_log.h"
#include "util/math_util.h"

namespace ujoin {

void JoinStats::Merge(const JoinStats& other) {
  length_compatible_pairs += other.length_compatible_pairs;
  qgram_candidates += other.qgram_candidates;
  freq_candidates += other.freq_candidates;
  freq_lower_pruned += other.freq_lower_pruned;
  freq_upper_pruned += other.freq_upper_pruned;
  cdf_accepted += other.cdf_accepted;
  cdf_rejected += other.cdf_rejected;
  cdf_undecided += other.cdf_undecided;
  verified_pairs += other.verified_pairs;
  result_pairs += other.result_pairs;
  verified_hits += other.verified_hits;
  verify_worlds = SaturatingAdd(verify_worlds, other.verify_worlds);
  budget_fallbacks += other.budget_fallbacks;
  deadline_fallbacks += other.deadline_fallbacks;

  qgram_time += other.qgram_time;
  freq_time += other.freq_time;
  cdf_time += other.cdf_time;
  verify_time += other.verify_time;
  index_build_time += other.index_build_time;
  total_time += other.total_time;

  peak_index_memory = std::max(peak_index_memory, other.peak_index_memory);
  index_stats.Merge(other.index_stats);
  verify_stats.Merge(other.verify_stats);
}

std::array<JoinStats::FunnelEdge, obs::kNumFunnelStages> JoinStats::Funnel()
    const {
  std::array<FunnelEdge, obs::kNumFunnelStages> funnel;
  funnel[static_cast<size_t>(obs::FunnelStage::kQgram)] = {
      length_compatible_pairs, qgram_candidates};
  funnel[static_cast<size_t>(obs::FunnelStage::kFreqDistance)] = {
      qgram_candidates, freq_candidates};
  funnel[static_cast<size_t>(obs::FunnelStage::kCdfBound)] = {
      freq_candidates, freq_candidates - cdf_rejected};
  funnel[static_cast<size_t>(obs::FunnelStage::kVerify)] = {verified_pairs,
                                                            verified_hits};
  return funnel;
}

obs::QueryLogRecord MakeQueryLogRecord(const JoinStats& stats,
                                       int64_t connection, int64_t seq,
                                       int64_t query_length, int64_t hits,
                                       bool error) {
  obs::QueryLogRecord out;
  out.request_id = obs::QueryRequestId(connection, seq);
  out.connection = connection;
  out.seq = seq;
  out.query_length = query_length;
  out.length_band = obs::Histogram::BucketIndex(query_length);
  const std::array<JoinStats::FunnelEdge, obs::kNumFunnelStages> funnel =
      stats.Funnel();
  for (size_t s = 0; s < funnel.size(); ++s) {
    out.funnel_entered[s] = funnel[s].entered;
    out.funnel_survived[s] = funnel[s].survived;
  }
  out.candidates = stats.qgram_candidates;
  out.verify_worlds = stats.verify_worlds;
  out.budget_fallbacks = stats.budget_fallbacks;
  out.deadline_fallbacks = stats.deadline_fallbacks;
  out.hits = hits;
  out.inexact = stats.Inexact();
  out.error = error;
  out.total_ns = static_cast<int64_t>(stats.total_time * 1e9);
  out.verify_ns = static_cast<int64_t>(stats.verify_time * 1e9);
  return out;
}

std::string JoinStats::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "pairs: length-compatible=%lld qgram=%lld (support-pruned=%lld, "
      "prob-pruned=%lld) freq=%lld (fd-pruned=%lld, cheb-pruned=%lld)\n"
      "cdf: accepted=%lld rejected=%lld undecided=%lld | verified=%lld "
      "results=%lld (budget-fallbacks=%lld, deadline-fallbacks=%lld)\n"
      "time[s]: qgram=%.4f freq=%.4f cdf=%.4f verify=%.4f total=%.4f\n"
      "index-build[s]: %.4f\n"
      "index: peak-memory=%zu bytes",
      static_cast<long long>(length_compatible_pairs),
      static_cast<long long>(qgram_candidates),
      static_cast<long long>(index_stats.support_pruned),
      static_cast<long long>(index_stats.probability_pruned),
      static_cast<long long>(freq_candidates),
      static_cast<long long>(freq_lower_pruned),
      static_cast<long long>(freq_upper_pruned),
      static_cast<long long>(cdf_accepted),
      static_cast<long long>(cdf_rejected),
      static_cast<long long>(cdf_undecided),
      static_cast<long long>(verified_pairs),
      static_cast<long long>(result_pairs),
      static_cast<long long>(budget_fallbacks),
      static_cast<long long>(deadline_fallbacks),
      qgram_time, freq_time, cdf_time,
      verify_time, total_time, index_build_time, peak_index_memory);
  return buf;
}

std::string JoinStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kJoinStatsSchemaVersion);

  w.Key("pairs");
  w.BeginObject();
  w.Key("length_compatible");
  w.Int(length_compatible_pairs);
  w.Key("qgram_candidates");
  w.Int(qgram_candidates);
  w.Key("freq_candidates");
  w.Int(freq_candidates);
  w.Key("freq_lower_pruned");
  w.Int(freq_lower_pruned);
  w.Key("freq_upper_pruned");
  w.Int(freq_upper_pruned);
  w.Key("cdf_accepted");
  w.Int(cdf_accepted);
  w.Key("cdf_rejected");
  w.Int(cdf_rejected);
  w.Key("cdf_undecided");
  w.Int(cdf_undecided);
  w.Key("verified");
  w.Int(verified_pairs);
  w.Key("results");
  w.Int(result_pairs);
  w.Key("budget_fallbacks");
  w.Int(budget_fallbacks);
  w.Key("deadline_fallbacks");
  w.Int(deadline_fallbacks);
  w.EndObject();

  w.Key("time_seconds");
  w.BeginObject();
  w.Key("qgram");
  w.Double(qgram_time);
  w.Key("freq");
  w.Double(freq_time);
  w.Key("cdf");
  w.Double(cdf_time);
  w.Key("verify");
  w.Double(verify_time);
  w.Key("index_build");
  w.Double(index_build_time);
  w.Key("filter");
  w.Double(FilterTime());
  w.Key("total");
  w.Double(total_time);
  w.EndObject();

  w.Key("index");
  w.BeginObject();
  w.Key("peak_memory_bytes");
  w.UInt(peak_index_memory);
  w.Key("lists_scanned");
  w.Int(index_stats.lists_scanned);
  w.Key("postings_scanned");
  w.Int(index_stats.postings_scanned);
  w.Key("ids_touched");
  w.Int(index_stats.ids_touched);
  w.Key("support_pruned");
  w.Int(index_stats.support_pruned);
  w.Key("probability_pruned");
  w.Int(index_stats.probability_pruned);
  w.Key("candidates");
  w.Int(index_stats.candidates);
  w.EndObject();

  w.Key("verify");
  w.BeginObject();
  w.Key("r_trie_nodes");
  w.Int(verify_stats.r_trie_nodes);
  w.Key("explored_s_nodes");
  w.Int(verify_stats.explored_s_nodes);
  w.Key("active_entries");
  w.Int(verify_stats.active_entries);
  w.Key("world_pairs");
  w.Int(verify_stats.world_pairs);
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

}  // namespace ujoin
