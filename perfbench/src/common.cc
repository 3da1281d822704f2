#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "workloads.h"

namespace perfbench {

void EmitEndToEnd(const EndToEnd& m, Report* report) {
  report->Add("setup_s", m.setup_s, "s");
  report->Add("ops_per_s", m.ops_per_s, "1/s");
  report->AddPercentile("latency_ms.p50", m.latency_p50, "ms");
  report->AddPercentile("latency_ms.p99", m.latency_p99, "ms");
  report->Add("peak_rss_mb", m.peak_rss_mb, "MB");
  report->Add("index_bytes_per_byte", m.index_bytes_per_byte, "B/B");
}

void EmitLayerMetrics(const LayerMetrics& m, Report* report) {
  const auto count = [&](const char* name, int64_t value) {
    report->Add(name, static_cast<double>(value), "count");
  };
  report->Add("text.parse_s", m.text_parse_s, "s");
  report->Add("index.query_s", m.index_query_s, "s");
  count("index.queries", m.index_queries);
  count("index.postings_scanned", m.index_postings_scanned);
  report->AddRatio("index.candidate_ratio", m.index_candidate_ratio);
  report->Add("index.insert_s", m.index_insert_s, "s");
  report->Add("index.build_s", m.index_build_s, "s");
  report->Add("index.mb", m.index_mb, "MB");
  report->Add("filter.freq_build_s", m.filter_freq_build_s, "s");
  report->Add("filter.freq_s", m.filter_freq_s, "s");
  report->AddRatio("filter.freq_pass_ratio", m.filter_freq_pass_ratio);
  report->Add("filter.cdf_s", m.filter_cdf_s, "s");
  report->AddRatio("filter.cdf_accept_ratio", m.filter_cdf_accept_ratio);
  report->AddRatio("filter.cdf_undecided_ratio",
                   m.filter_cdf_undecided_ratio);
  report->Add("verify.s", m.verify_s, "s");
  count("verify.pairs", m.verify_pairs);
  report->AddPercentile("verify.pair_ms.p50", m.verify_pair_ms_p50, "ms");
  report->AddPercentile("verify.pair_ms.p99", m.verify_pair_ms_p99, "ms");
  report->AddRatio("verify.similar_ratio", m.verify_similar_ratio);
  count("verify.explored_nodes", m.verify_explored_nodes);
  report->AddRatio("join.idle_ratio.t2", m.join_idle_ratio_t2);
  report->Add("join.traced_s", m.join_traced_s, "s");
  report->Add("join.unattributed_s", m.join_unattributed_s, "s");
  report->AddRatio("join.trace_overhead_ratio", m.join_trace_overhead_ratio);
  report->AddPercentile("serve.search_ms.p50", m.serve_search_ms_p50, "ms");
  report->AddPercentile("serve.search_ms.p99", m.serve_search_ms_p99, "ms");
  report->AddPercentile("serve.overhead_ms.p50.t1", m.serve_overhead_ms_p50_t1,
                        "ms");
  report->Add("serve.render_us", m.serve_render_us, "us");
  count("serve.batches", m.serve_batches);
  count("serve.errors", m.serve_errors);
  report->Add("obs.snapshot_us", m.obs_snapshot_us, "us");
}

bool PrintLayerShares(const SpanTrace& trace, double traced_s) {
  const std::vector<double> self = trace.SelfSecondsByLayer();
  double attributed = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const double s = self[static_cast<size_t>(l)];
    if (layer != Layer::kReplay) attributed += s;
    std::printf("share %-12s %10.4f s  %6.2f%% of traced %.4f s\n",
                layer == Layer::kReplay ? "unattributed" : LayerName(layer), s,
                traced_s > 0 ? 100.0 * s / traced_s : 0.0, traced_s);
  }
  const double unattributed = self[static_cast<size_t>(Layer::kReplay)];
  const double gap = traced_s - attributed - unattributed;
  const bool nested = trace.MinSelfSeconds() >= -1e-6;
  const bool closed = std::fabs(gap) <= 1e-6 * std::max(1.0, traced_s);
  std::printf(
      "closure layers %.6f s + unattributed %.6f s = %.6f s vs traced "
      "%.6f s: %s\n",
      attributed, unattributed, attributed + unattributed, traced_s,
      closed && nested ? "ok" : "FAILED");
  return closed && nested;
}

std::string ToText(const std::vector<ujoin::UncertainString>& strings,
                   size_t begin, size_t end) {
  std::string text;
  for (size_t i = begin; i < end; ++i) {
    text += strings[i].ToString();
    text += '\n';
  }
  return text;
}

bool ParseLines(const std::string& text, const ujoin::Alphabet& alphabet,
                std::vector<ujoin::UncertainString>* out, SpanTrace* trace,
                uint32_t parent) {
  out->clear();
  std::string_view rest(text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    const int64_t item = static_cast<int64_t>(out->size());
    const uint32_t span =
        trace != nullptr ? trace->Begin("text.parse", Layer::kText, parent, item)
                         : 0;
    ujoin::Result<ujoin::UncertainString> parsed =
        ujoin::UncertainString::Parse(line, alphabet);
    if (trace != nullptr) trace->End(span);
    if (!parsed.ok()) return false;
    out->push_back(std::move(parsed).value());
  }
  return true;
}

uint64_t RoundSeed(uint64_t seed, int round) {
  // splitmix64 of (seed, round): distinct seeds never share a round's data.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(round) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
