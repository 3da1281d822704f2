#include "join/explain.h"

#include <string>

#include "obs/json_writer.h"

namespace ujoin {

const char* ExplainStageName(ExplainStage stage) {
  switch (stage) {
    case ExplainStage::kFreqLowerPruned:
      return "freq_lower_pruned";
    case ExplainStage::kFreqUpperPruned:
      return "freq_upper_pruned";
    case ExplainStage::kCdfRejected:
      return "cdf_rejected";
    case ExplainStage::kCdfAccepted:
      return "cdf_accepted";
    case ExplainStage::kBudgetFallback:
      return "budget_fallback";
    case ExplainStage::kDeadlineFallback:
      return "deadline_fallback";
    case ExplainStage::kVerified:
      return "verified";
  }
  return "unknown";
}

Result<ExplainResult> SimilaritySearcher::Explain(
    const UncertainString& query, const SearchLimits* limits) const {
  // Defined here (not search.cc) so the narrative machinery lives with its
  // renderers; a member function may be defined in any TU of the library.
  ExplainResult result;
  Result<std::vector<SearchHit>> hits =
      SearchImpl(query, &result.stats, /*force_exact=*/false,
                 /*workspace=*/nullptr, &result.metrics, /*spans=*/nullptr,
                 limits != nullptr ? *limits : options_.limits, &result.data);
  if (!hits.ok()) return hits.status();
  result.hits = std::move(hits).value();
  return result;
}

void AppendJoinOptionsFields(const JoinOptions& options, obs::JsonWriter* w) {
  w->Key("k");
  w->Int(options.k);
  w->Key("tau");
  w->Double(options.tau);
  w->Key("q");
  w->Int(options.q);
  w->Key("use_qgram_filter");
  w->Bool(options.use_qgram_filter);
  w->Key("use_freq_filter");
  w->Bool(options.use_freq_filter);
  w->Key("use_cdf_filter");
  w->Bool(options.use_cdf_filter);
  w->Key("qgram_probabilistic_pruning");
  w->Bool(options.qgram_probabilistic_pruning);
  w->Key("always_verify");
  w->Bool(options.always_verify);
}

namespace {

void AppendProbe(const ExplainProbe& probe, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("length");
  w->Int(probe.length);
  w->Key("indexed_ids");
  w->Int(probe.indexed_ids);
  w->Key("num_segments");
  w->Int(probe.num_segments);
  w->Key("merged_list_lengths");
  w->BeginArray();
  for (int64_t n : probe.merged_list_lengths) w->Int(n);
  w->EndArray();
  w->Key("lists_scanned");
  w->Int(probe.lists_scanned);
  w->Key("postings_scanned");
  w->Int(probe.postings_scanned);
  w->Key("ids_touched");
  w->Int(probe.ids_touched);
  w->Key("support_pruned");
  w->Int(probe.support_pruned);
  w->Key("probability_pruned");
  w->Int(probe.probability_pruned);
  w->Key("candidates");
  w->Int(probe.candidates);
  w->EndObject();
}

void AppendCandidate(const ExplainCandidate& c, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("id");
  w->UInt(c.id);
  w->Key("length");
  w->Int(c.length);
  w->Key("matched_segments");
  w->Int(c.matched_segments);
  w->Key("qgram_bound");
  w->Double(c.qgram_bound);
  w->Key("freq_lower_bound");
  if (c.have_freq) {
    w->Int(c.freq_lower_bound);
  } else {
    w->Null();
  }
  w->Key("freq_upper_bound");
  if (c.have_freq) {
    w->Double(c.freq_upper_bound);
  } else {
    w->Null();
  }
  w->Key("cdf_lower");
  if (c.have_cdf) {
    w->Double(c.cdf_lower);
  } else {
    w->Null();
  }
  w->Key("stage");
  w->String(ExplainStageName(c.stage));
  w->Key("verify_worlds");
  w->Int(c.verify_worlds);
  w->Key("emitted");
  w->Bool(c.emitted);
  w->Key("probability");
  w->Double(c.probability);
  w->Key("exact");
  w->Bool(c.exact);
  w->EndObject();
}

}  // namespace

std::string RenderExplainJson(const SimilaritySearcher& searcher,
                              const UncertainString& query,
                              const ExplainResult& result,
                              const SearchLimits& limits,
                              bool include_timing) {
  const JoinStats& stats = result.stats;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("ujoin.explain");
  w.Key("schema_version");
  w.Int(kExplainSchemaVersion);
  w.Key("query");
  w.BeginObject();
  w.Key("text");
  w.String(query.MostLikelyInstance());
  w.Key("length");
  w.Int(query.length());
  w.Key("length_band");
  w.Int(obs::Histogram::BucketIndex(query.length()));
  w.Key("worlds");
  w.Int(query.WorldCount());
  w.EndObject();
  w.Key("options");
  w.BeginObject();
  AppendJoinOptionsFields(searcher.options(), &w);
  w.EndObject();
  w.Key("limits");
  w.BeginObject();
  w.Key("max_verify_worlds");
  w.Int(limits.max_verify_worlds);
  w.Key("deadline_ns");
  w.Int(limits.deadline_ns);
  w.EndObject();
  w.Key("index");
  w.BeginObject();
  w.Key("collection_size");
  w.Int(static_cast<int64_t>(searcher.collection().size()));
  w.Key("length_buckets");
  w.Int(searcher.NumIndexLengthBuckets());
  w.Key("segments");
  w.Int(searcher.NumIndexSegments());
  w.EndObject();
  // The funnel comes from JoinStats (not the obs recorder) so the envelope
  // is complete under -DUJOIN_OBS=OFF.
  w.Key("funnel");
  w.BeginObject();
  w.Key("length_compatible");
  w.Int(stats.length_compatible_pairs);
  w.Key("qgram_candidates");
  w.Int(stats.qgram_candidates);
  w.Key("freq_candidates");
  w.Int(stats.freq_candidates);
  w.Key("cdf_rejected");
  w.Int(stats.cdf_rejected);
  w.Key("cdf_accepted");
  w.Int(stats.cdf_accepted);
  w.Key("cdf_undecided");
  w.Int(stats.cdf_undecided);
  w.Key("verified");
  w.Int(stats.verified_pairs);
  w.EndObject();
  w.Key("probes");
  w.BeginArray();
  for (const ExplainProbe& probe : result.data.probes) AppendProbe(probe, &w);
  w.EndArray();
  w.Key("candidates");
  w.BeginArray();
  for (const ExplainCandidate& c : result.data.candidates) {
    AppendCandidate(c, &w);
  }
  w.EndArray();
  w.Key("hits");
  w.BeginArray();
  for (const SearchHit& hit : result.hits) {
    w.BeginObject();
    w.Key("id");
    w.UInt(hit.id);
    w.Key("probability");
    w.Double(hit.probability);
    w.Key("exact");
    w.Bool(hit.exact);
    w.EndObject();
  }
  w.EndArray();
  w.Key("verdict");
  w.BeginObject();
  w.Key("hits");
  w.Int(static_cast<int64_t>(result.hits.size()));
  w.Key("inexact");
  w.Bool(stats.Inexact());
  w.Key("budget_fallbacks");
  w.Int(stats.budget_fallbacks);
  w.Key("deadline_fallbacks");
  w.Int(stats.deadline_fallbacks);
  w.EndObject();
  if (include_timing) {
    // Wall clock, appended last so `--no-timing` yields a prefix-stable,
    // byte-reproducible envelope (the registry's ns-exclusion discipline).
    const obs::Recorder& m = result.metrics;
    w.Key("timing_ns");
    w.BeginObject();
    w.Key("total");
    w.Int(static_cast<int64_t>(stats.total_time * 1e9));
    w.Key("qgram");
    w.Int(static_cast<int64_t>(stats.qgram_time * 1e9));
    w.Key("freq");
    w.Int(static_cast<int64_t>(stats.freq_time * 1e9));
    w.Key("cdf");
    w.Int(static_cast<int64_t>(stats.cdf_time * 1e9));
    w.Key("verify");
    w.Int(static_cast<int64_t>(stats.verify_time * 1e9));
    w.Key("kernel_cdf_dp");
    w.Int(m.counter(obs::Counter::kKernelCdfDpNs));
    w.Key("kernel_event_dp");
    w.Int(m.counter(obs::Counter::kKernelEventDpNs));
    w.Key("kernel_freq_dist");
    w.Int(m.counter(obs::Counter::kKernelFreqDistNs));
    w.Key("kernel_fingerprint");
    w.Int(m.counter(obs::Counter::kKernelFingerprintNs));
    w.Key("kernel_merge");
    w.Int(m.counter(obs::Counter::kKernelMergeNs));
    w.EndObject();
  }
  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

std::string RenderExplainNarrative(const SimilaritySearcher& searcher,
                                   const UncertainString& query,
                                   const ExplainResult& result) {
  using obs::JsonWriter;
  const JoinOptions& options = searcher.options();
  std::string out;
  out += "explain: query \"" + query.MostLikelyInstance() + "\" (length " +
         std::to_string(query.length()) + ", " +
         std::to_string(query.WorldCount()) + " worlds) against " +
         std::to_string(searcher.collection().size()) +
         " strings, k=" + std::to_string(options.k) +
         " tau=" + JsonWriter::FormatDouble(options.tau) +
         " q=" + std::to_string(options.q) + "\n";
  for (const ExplainProbe& probe : result.data.probes) {
    out += "  probe length " + std::to_string(probe.length) + ": " +
           std::to_string(probe.indexed_ids) + " indexed";
    if (probe.num_segments > 0) {
      out += ", merged [";
      for (size_t x = 0; x < probe.merged_list_lengths.size(); ++x) {
        if (x > 0) out += ' ';
        out += std::to_string(probe.merged_list_lengths[x]);
      }
      out += "] over " + std::to_string(probe.num_segments) + " segments (" +
             std::to_string(probe.postings_scanned) + " postings, " +
             std::to_string(probe.lists_scanned) + " lists), pruned " +
             std::to_string(probe.support_pruned) + " support / " +
             std::to_string(probe.probability_pruned) + " probability";
    } else {
      out += " (q-gram filter off)";
    }
    out += " -> " + std::to_string(probe.candidates) + " candidates\n";
  }
  for (const ExplainCandidate& c : result.data.candidates) {
    out += "  candidate " + std::to_string(c.id) + " (length " +
           std::to_string(c.length) + ")";
    if (c.matched_segments >= 0) {
      out += ": segments " + std::to_string(c.matched_segments) + ", bound " +
             JsonWriter::FormatDouble(c.qgram_bound);
    }
    if (c.have_freq) {
      out += ", freq [" + std::to_string(c.freq_lower_bound) + ", " +
             JsonWriter::FormatDouble(c.freq_upper_bound) + "]";
    }
    if (c.have_cdf) {
      out += ", cdf_lower " + JsonWriter::FormatDouble(c.cdf_lower);
    }
    out += " -> ";
    out += ExplainStageName(c.stage);
    if (c.stage == ExplainStage::kVerified) {
      out += " (" + std::to_string(c.verify_worlds) + " worlds)";
    }
    if (c.emitted) {
      out += ", hit p=" + JsonWriter::FormatDouble(c.probability) +
             (c.exact ? " exact" : " lower-bound");
    }
    out += '\n';
  }
  out += "  verdict: " + std::to_string(result.hits.size()) + " hits, " +
         (result.stats.Inexact() ? "inexact" : "exact") + " (" +
         std::to_string(result.stats.budget_fallbacks) + " budget / " +
         std::to_string(result.stats.deadline_fallbacks) +
         " deadline fallbacks)\n";
  return out;
}

}  // namespace ujoin
