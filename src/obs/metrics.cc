#include "obs/metrics.h"

#include <cmath>

#include "obs/json_writer.h"

namespace ujoin {
namespace obs {

namespace {

constexpr MetricInfo kHistInfo[kNumHists] = {
    {"verify_latency_ns", "ns", "wall time of one trie verification"},
    {"explored_trie_nodes", "count",
     "s-trie nodes explored by one verification"},
    {"merged_list_length", "count",
     "length of one per-segment merged posting list"},
    {"candidate_alpha_ppm", "ppm",
     "candidate upper bound from the q-gram DP, parts-per-million"},
    {"probe_latency_ns", "ns", "wall time of one probe or query"},
    {"verify_world_count", "count",
     "saturating possible-world count of one verified pair"},
    {"serve_batch_size", "count",
     "queries answered in one serve-layer batch"},
};

constexpr MetricInfo kCounterInfo[kNumCounters] = {
    {"probes", "count", "probes executed against the segment index"},
    {"queries", "count", "similarity-search queries answered"},
    {"verify_budget_fallbacks", "count",
     "candidates decided from CDF bounds under the world-count budget or "
     "over the VerifyOptions caps"},
    {"verify_deadline_fallbacks", "count",
     "candidates decided from CDF bounds after the per-query deadline"},
    {"serve_connections", "count", "connections accepted by the serve layer"},
    {"serve_rejected_connections", "count",
     "connections rejected by admission control"},
    {"serve_requests", "count", "request lines answered by the serve layer"},
    {"serve_request_errors", "count",
     "request lines answered with an error (malformed or oversized)"},
    {"serve_batches", "count",
     "query batches completed (metric-snapshot boundaries)"},
    {"kernel_cdf_dp_ns", "ns",
     "wall time in the CDF-bound filter (banded DP cell kernel)"},
    {"kernel_event_dp_ns", "ns",
     "wall time in the stage-2 scan incl. the event-count DP kernel"},
    {"kernel_freq_dist_ns", "ns",
     "wall time in the frequency-distance filter (S-array dot kernels)"},
    {"kernel_fingerprint_ns", "ns",
     "wall time batch-fingerprinting probe keys"},
    {"kernel_merge_ns", "ns",
     "wall time in the stage-1 posting-list merge (prefetched scan)"},
    {"serve_idle_closed_connections", "count",
     "connections closed by the idle keep-alive timeout"},
    {"watchdog_stalls_captured", "count",
     "stall reports captured by the watchdog"},
};

constexpr MetricInfo kGaugeInfo[kNumGauges] = {
    {"threads", "count", "worker threads used"},
    {"peak_index_memory_bytes", "bytes", "peak segment-index memory"},
    {"collection_size", "count", "strings in the joined collection"},
};

constexpr MetricInfo kFunnelInfo[kNumFunnelStages] = {
    {"qgram", "count", "q-gram index probe (Theorem 2)"},
    {"freq_distance", "count", "frequency-distance filter (Theorem 3)"},
    {"cdf_bound", "count", "CDF-bound filter (Theorem 4)"},
    {"verify", "count", "trie verification (Section 6)"},
};

void AppendHistogramJson(const Histogram& h, const MetricInfo& info,
                         JsonWriter* w) {
  w->BeginObject();
  w->Key("unit");
  w->String(info.unit);
  w->Key("count");
  w->Int(h.count());
  w->Key("sum");
  w->Int(h.sum());
  if (h.count() > 0) {
    w->Key("min");
    w->Int(h.min());
    w->Key("max");
    w->Int(h.max());
    w->Key("p50");
    w->Int(h.Percentile(0.50));
    w->Key("p90");
    w->Int(h.Percentile(0.90));
    w->Key("p99");
    w->Int(h.Percentile(0.99));
  }
  // Sparse bucket encoding: [inclusive lower bound, count] for non-empty
  // buckets only, in ascending bound order.
  w->Key("buckets");
  w->BeginArray();
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    w->BeginArray();
    w->Int(Histogram::BucketLowerBound(b));
    w->Int(h.bucket(b));
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

const MetricInfo& HistInfo(Hist h) {
  return kHistInfo[static_cast<size_t>(h)];
}

const MetricInfo& CounterInfo(Counter c) {
  return kCounterInfo[static_cast<size_t>(c)];
}

const MetricInfo& GaugeInfo(Gauge g) {
  return kGaugeInfo[static_cast<size_t>(g)];
}

const MetricInfo& FunnelStageInfo(FunnelStage s) {
  return kFunnelInfo[static_cast<size_t>(s)];
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(clamped *
                                                static_cast<double>(count_))));
  int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[static_cast<size_t>(b)];
    if (cumulative >= target) {
      return std::min(std::max(BucketLowerBound(b), min_), max_);
    }
  }
  return max_;
}

void Recorder::Merge(const Recorder& other) {
  for (size_t h = 0; h < hists_.size(); ++h) hists_[h].Merge(other.hists_[h]);
  for (size_t c = 0; c < counters_.size(); ++c) {
    counters_[c] += other.counters_[c];
  }
  for (size_t g = 0; g < gauges_.size(); ++g) {
    gauges_[g] = std::max(gauges_[g], other.gauges_[g]);
  }
  for (size_t s = 0; s < funnel_entered_.size(); ++s) {
    funnel_entered_[s] += other.funnel_entered_[s];
    funnel_survived_[s] += other.funnel_survived_[s];
  }
}

void Recorder::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("schema_version");
  w->Int(kMetricsSchemaVersion);
  w->Key("counters");
  w->BeginObject();
  for (size_t c = 0; c < counters_.size(); ++c) {
    w->Key(kCounterInfo[c].name);
    w->Int(counters_[c]);
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (size_t g = 0; g < gauges_.size(); ++g) {
    w->Key(kGaugeInfo[g].name);
    w->Int(gauges_[g]);
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (size_t h = 0; h < hists_.size(); ++h) {
    w->Key(kHistInfo[h].name);
    AppendHistogramJson(hists_[h], kHistInfo[h], w);
  }
  w->EndObject();
  w->Key("funnel");
  w->BeginObject();
  for (size_t s = 0; s < funnel_entered_.size(); ++s) {
    w->Key(kFunnelInfo[s].name);
    w->BeginObject();
    w->Key("entered");
    w->Int(funnel_entered_[s]);
    w->Key("survived");
    w->Int(funnel_survived_[s]);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string Recorder::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.TakeString();
}

}  // namespace obs
}  // namespace ujoin
