#include "join/search.h"

#include <algorithm>

#include "join/explain.h"
#include "join/ordered_pool.h"
#include "join/probe_cascade.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace ujoin {

namespace {

Status ValidateString(const UncertainString& s, const Alphabet& alphabet,
                      const char* what) {
  if (s.empty()) {
    return Status::InvalidArgument(std::string(what) + " is empty");
  }
  for (int pos = 0; pos < s.length(); ++pos) {
    for (const CharProb& cp : s.AlternativesAt(pos)) {
      if (!alphabet.Contains(cp.symbol)) {
        return Status::InvalidArgument(std::string(what) + " uses symbol '" +
                                       cp.symbol + "' outside the alphabet");
      }
    }
  }
  return Status::OK();
}

}  // namespace

SimilaritySearcher::SimilaritySearcher(std::vector<UncertainString> collection,
                                       const Alphabet& alphabet,
                                       const JoinOptions& options)
    : collection_(std::move(collection)),
      alphabet_(alphabet),
      options_(options),
      index_(options.k, options.q, options.probe) {}

Result<SimilaritySearcher> SimilaritySearcher::Create(
    std::vector<UncertainString> collection, const Alphabet& alphabet,
    const JoinOptions& options) {
  UJOIN_CHECK(options.k >= 0 && options.q >= 1);
  for (size_t i = 0; i < collection.size(); ++i) {
    UJOIN_RETURN_IF_ERROR(
        ValidateString(collection[i], alphabet, "collection string"));
  }
  SimilaritySearcher searcher(std::move(collection), alphabet, options);
  if (options.use_qgram_filter) {
    for (uint32_t id = 0; id < searcher.collection_.size(); ++id) {
      UJOIN_RETURN_IF_ERROR(
          searcher.index_.Insert(id, searcher.collection_[id]));
    }
  }
  // The searcher is read-only from here on: pack the inverted lists into
  // their contiguous arenas once so every later probe scans flat memory.
  searcher.index_.Freeze();
  searcher.BuildSideStructures();
  return searcher;
}

void SimilaritySearcher::BuildSideStructures() {
  int max_length = 0;
  for (const UncertainString& s : collection_) {
    max_length = std::max(max_length, s.length());
  }
  ids_by_length_.resize(static_cast<size_t>(max_length) + 1);
  for (uint32_t id = 0; id < collection_.size(); ++id) {
    const size_t length = static_cast<size_t>(collection_[id].length());
    ids_by_length_[length].push_back(id);
  }
  if (options_.use_freq_filter) {
    freq_summaries_.resize(collection_.size());
    for (size_t id = 0; id < collection_.size(); ++id) {
      FrequencySummary::BuildInto(collection_[id], alphabet_,
                                  &freq_summaries_[id]);
    }
  }
}

Result<std::vector<SearchHit>> SimilaritySearcher::Search(
    const UncertainString& query, JoinStats* stats, QueryWorkspace* workspace,
    obs::Recorder* metrics, obs::SpanCollector* spans,
    const SearchLimits* limits) const {
  return SearchImpl(query, stats, /*force_exact=*/false, workspace, metrics,
                    spans, limits != nullptr ? *limits : options_.limits,
                    /*explain=*/nullptr);
}

Result<std::vector<SearchHit>> SimilaritySearcher::SearchImpl(
    const UncertainString& query, JoinStats* stats, bool force_exact,
    QueryWorkspace* workspace, obs::Recorder* metrics,
    obs::SpanCollector* spans, const SearchLimits& limits,
    ExplainData* explain) const {
  UJOIN_RETURN_IF_ERROR(ValidateString(query, alphabet_, "query"));
  QueryWorkspace local_workspace;
  if (workspace == nullptr) workspace = &local_workspace;
  obs::SpanCollector local_spans;  // disabled
  if (spans == nullptr) spans = &local_spans;
  // The index probe records merged-list lengths and candidate α bounds
  // through the workspace hook; restore the previous sink on every exit so
  // a caller-owned workspace is left untouched.
  obs::Recorder* const saved_ws_obs = workspace->obs;
  workspace->obs = metrics;
  struct ObsRestore {
    QueryWorkspace* ws;
    obs::Recorder* saved;
    ~ObsRestore() { ws->obs = saved; }
  } obs_restore{workspace, saved_ws_obs};
  // The explain sink collects per-segment merged-list lengths through the
  // workspace hook; same save/restore discipline as the recorder above.
  std::vector<int64_t> explain_merged;
  std::vector<int64_t>* const saved_ws_explain = workspace->explain_merged;
  if (explain != nullptr) workspace->explain_merged = &explain_merged;
  struct ExplainRestore {
    QueryWorkspace* ws;
    std::vector<int64_t>* saved;
    ~ExplainRestore() { ws->explain_merged = saved; }
  } explain_restore{workspace, saved_ws_explain};

  UJOIN_OBS_FLIGHT_EVENT(
      obs::FlightEvent::kQueryBegin, limits.deadline_ns,
      obs::Histogram::BucketIndex(static_cast<int64_t>(query.length())));
  // Close the in-flight epoch on every exit (the error returns included):
  // an unmatched begin would leave this thread permanently "in flight" for
  // the watchdog.
  struct FlightQueryEnd {
    bool ok = false;
    int64_t hits = 0;
    ~FlightQueryEnd() {
      UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kQueryEnd, hits, ok ? 0 : 1);
    }
  } flight_query_end;
  Timer total_timer;
  const int64_t query_span_start = spans->NowNs();
  // The query records into its own stats, which merge into the caller's
  // once, at the end.
  JoinStats query_stats;
  internal::StageNanos ns;
  std::vector<SearchHit> hits;

  if (options_.use_freq_filter) {
    ScopedNanoTimer timer(&ns.freq);
    FrequencySummary::BuildInto(query, alphabet_, &workspace->query_summary);
  }
  JoinOptions effective_options = options_;
  if (force_exact) effective_options.always_verify = true;

  const double qgram_tau =
      options_.qgram_probabilistic_pruning ? options_.tau : 0.0;
  const int max_indexed_length =
      static_cast<int>(ids_by_length_.size()) - 1;
  const int lo = std::max(1, query.length() - options_.k);
  const int hi = std::min(max_indexed_length, query.length() + options_.k);

  std::vector<uint32_t>& candidates = workspace->candidate_ids;
  candidates.clear();
  const int64_t qgram_span_start = spans->NowNs();
  for (int l = lo; l <= hi; ++l) {
    const int64_t bucket_ids =
        static_cast<int64_t>(ids_by_length_[static_cast<size_t>(l)].size());
    query_stats.length_compatible_pairs += bucket_ids;
    ExplainProbe* probe = nullptr;
    IndexQueryStats probe_base;
    size_t candidates_base = candidates.size();
    size_t merged_base = 0;
    if (explain != nullptr) {
      explain->probes.push_back(ExplainProbe{});
      probe = &explain->probes.back();
      probe->length = l;
      probe->indexed_ids = bucket_ids;
      probe_base = query_stats.index_stats;
      merged_base = explain_merged.size();
    }
    if (options_.use_qgram_filter) {
      ScopedNanoTimer timer(&ns.qgram);
      for (const IndexCandidate& c :
           index_.Query(query, l, qgram_tau, workspace,
                        &query_stats.index_stats)) {
        candidates.push_back(c.id);
        if (explain != nullptr) {
          ExplainCandidate ec;
          ec.id = c.id;
          ec.length = l;
          ec.matched_segments = c.matched_segments;
          ec.qgram_bound = c.upper_bound;
          explain->candidates.push_back(ec);
        }
      }
    } else {
      for (uint32_t id : ids_by_length_[static_cast<size_t>(l)]) {
        candidates.push_back(id);
        if (explain != nullptr) {
          ExplainCandidate ec;
          ec.id = id;
          ec.length = l;
          explain->candidates.push_back(ec);
        }
      }
    }
    if (probe != nullptr) {
      if (options_.use_qgram_filter) {
        const LengthBucketIndex* bucket = index_.bucket(l);
        probe->num_segments =
            bucket != nullptr ? bucket->num_segments() : 0;
        const IndexQueryStats& is = query_stats.index_stats;
        probe->lists_scanned = is.lists_scanned - probe_base.lists_scanned;
        probe->postings_scanned =
            is.postings_scanned - probe_base.postings_scanned;
        probe->ids_touched = is.ids_touched - probe_base.ids_touched;
        probe->support_pruned = is.support_pruned - probe_base.support_pruned;
        probe->probability_pruned =
            is.probability_pruned - probe_base.probability_pruned;
        probe->merged_list_lengths.assign(
            explain_merged.begin() +
                static_cast<std::ptrdiff_t>(merged_base),
            explain_merged.end());
      }
      probe->candidates =
          static_cast<int64_t>(candidates.size() - candidates_base);
    }
  }
  if (options_.use_qgram_filter) {
    spans->Span("qgram_probe", qgram_span_start,
                spans->NowNs() - qgram_span_start);
  }
  query_stats.qgram_candidates += static_cast<int64_t>(candidates.size());
  UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kFunnelStage,
                         static_cast<int64_t>(obs::FunnelStage::kQgram),
                         static_cast<int64_t>(candidates.size()));

  // Explain rows were appended in candidate order above, so row n narrates
  // the cascade pass of candidate n.
  UJOIN_RETURN_IF_ERROR(internal::RunCascade(
      internal::ProbeCascade{
          .r = query,
          .r_summary =
              options_.use_freq_filter ? &workspace->query_summary : nullptr,
          .options = effective_options,
          .strings = collection_,
          .ids = {},
          .summaries = freq_summaries_,
          .limits = &limits,
          .clock = &total_timer,
          .explain =
              explain != nullptr ? explain->candidates.data() : nullptr},
      candidates, ns, &query_stats, metrics, spans, &hits));

  UJOIN_OBS_COUNTER(metrics, obs::Counter::kQueries, 1);
  UJOIN_OBS_COUNTER(metrics, obs::Counter::kProbes, 1);
  UJOIN_OBS_HIST(metrics, obs::Hist::kProbeLatencyNs,
                 total_timer.ElapsedNanos());
  spans->Span("search", query_span_start, spans->NowNs() - query_span_start);

  std::sort(hits.begin(), hits.end());
  query_stats.total_time = total_timer.ElapsedSeconds();
  if (stats != nullptr) stats->Merge(query_stats);
  flight_query_end.ok = true;
  flight_query_end.hits = static_cast<int64_t>(hits.size());
  return hits;
}

Result<std::vector<SearchHit>> SimilaritySearcher::SearchTopK(
    const UncertainString& query, int count, JoinStats* stats,
    QueryWorkspace* workspace) const {
  if (count <= 0) {
    return Status::InvalidArgument("count must be positive");
  }
  // Top-k needs comparable (exact) probabilities, so per-query limits are
  // ignored here: a CDF-bound fallback would rank hits by incomparable
  // lower bounds.
  Result<std::vector<SearchHit>> hits =
      SearchImpl(query, stats, /*force_exact=*/true, workspace,
                 /*metrics=*/nullptr, /*spans=*/nullptr, SearchLimits{},
                 /*explain=*/nullptr);
  if (!hits.ok()) return hits.status();
  std::sort(hits->begin(), hits->end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.id < b.id;
            });
  if (static_cast<int>(hits->size()) > count) {
    hits->resize(static_cast<size_t>(count));
  }
  return hits;
}

namespace {

constexpr uint32_t kSearcherMagic = 0x554a5358;  // "UJSX"
// Version 2 (kSearcherFormatVersion, search.h): the index section writes
// keys in sorted order and no longer persists the derived memory/posting
// counters (they are recomputed from content), so saved bytes are a pure
// function of the indexed collection.

void SerializeUncertainString(const UncertainString& s, BinaryWriter* writer) {
  writer->WriteI32(s.length());
  for (int i = 0; i < s.length(); ++i) {
    auto alts = s.AlternativesAt(i);
    writer->WriteU32(static_cast<uint32_t>(alts.size()));
    for (const CharProb& cp : alts) {
      writer->WriteU8(static_cast<uint8_t>(cp.symbol));
      writer->WriteDouble(cp.prob);
    }
  }
}

Result<UncertainString> DeserializeUncertainString(BinaryReader* reader) {
  Result<int32_t> length = reader->ReadI32();
  if (!length.ok()) return length.status();
  if (*length < 0) {
    return Status::InvalidArgument("corrupt searcher: negative length");
  }
  UncertainString::Builder builder;
  for (int32_t i = 0; i < *length; ++i) {
    Result<uint32_t> num_alts = reader->ReadU32();
    if (!num_alts.ok()) return num_alts.status();
    if (*num_alts == 0 || *num_alts > 256) {
      return Status::InvalidArgument("corrupt searcher: bad alternative count");
    }
    std::vector<CharProb> alts;
    alts.reserve(*num_alts);
    for (uint32_t a = 0; a < *num_alts; ++a) {
      Result<uint8_t> symbol = reader->ReadU8();
      if (!symbol.ok()) return symbol.status();
      Result<double> prob = reader->ReadDouble();
      if (!prob.ok()) return prob.status();
      alts.push_back(CharProb{static_cast<char>(*symbol), *prob});
    }
    builder.AddUncertain(std::move(alts));
  }
  return builder.Build();
}

}  // namespace

Status SimilaritySearcher::Save(const std::string& path) const {
  BinaryWriter writer;
  writer.WriteU32(kSearcherMagic);
  writer.WriteU32(kSearcherFormatVersion);
  writer.WriteI32(options_.k);
  writer.WriteDouble(options_.tau);
  writer.WriteI32(options_.q);
  uint8_t flags = 0;
  flags |= options_.use_qgram_filter ? 1 : 0;
  flags |= options_.use_freq_filter ? 2 : 0;
  flags |= options_.use_cdf_filter ? 4 : 0;
  flags |= options_.qgram_probabilistic_pruning ? 8 : 0;
  flags |= options_.always_verify ? 16 : 0;
  writer.WriteU8(flags);
  writer.WriteU8(0);  // reserved: the former verify-method byte
  writer.WriteU64(collection_.size());
  for (const UncertainString& s : collection_) {
    SerializeUncertainString(s, &writer);
  }
  writer.WriteU8(options_.use_qgram_filter ? 1 : 0);
  if (options_.use_qgram_filter) index_.Serialize(&writer);
  return writer.WriteToFile(path);
}

Result<SimilaritySearcher> SimilaritySearcher::Load(const std::string& path,
                                                    const Alphabet& alphabet) {
  Result<BinaryReader> reader_or = BinaryReader::FromFile(path);
  if (!reader_or.ok()) return reader_or.status();
  BinaryReader reader = std::move(reader_or).value();

  Result<uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kSearcherMagic) {
    return Status::InvalidArgument("not a ujoin searcher file");
  }
  Result<uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kSearcherFormatVersion) {
    return Status::InvalidArgument("unsupported searcher version " +
                                   std::to_string(*version));
  }
  JoinOptions options;
  Result<int32_t> k = reader.ReadI32();
  if (!k.ok()) return k.status();
  options.k = *k;
  Result<double> tau = reader.ReadDouble();
  if (!tau.ok()) return tau.status();
  options.tau = *tau;
  Result<int32_t> q = reader.ReadI32();
  if (!q.ok()) return q.status();
  options.q = *q;
  if (options.k < 0 || options.q < 1 || options.tau < 0.0 ||
      options.tau > 1.0) {
    return Status::InvalidArgument("corrupt searcher: bad options");
  }
  Result<uint8_t> flags = reader.ReadU8();
  if (!flags.ok()) return flags.status();
  options.use_qgram_filter = *flags & 1;
  options.use_freq_filter = *flags & 2;
  options.use_cdf_filter = *flags & 4;
  options.qgram_probabilistic_pruning = *flags & 8;
  options.always_verify = *flags & 16;
  // Older builds stored two verification settings here, flag bit 32 and a
  // method of 0-2 in the reserved byte; both are ignored, since every
  // searcher verifies through one fixed chain.
  Result<uint8_t> reserved = reader.ReadU8();
  if (!reserved.ok()) return reserved.status();
  if (*reserved > 2) {
    return Status::InvalidArgument("corrupt searcher: bad verify method");
  }

  // Nothing is sized from the image's count: a short image fails a read.
  Result<uint64_t> count = reader.ReadU64();
  if (!count.ok()) return count.status();
  std::vector<UncertainString> collection;
  for (uint64_t i = 0; i < *count; ++i) {
    Result<UncertainString> s = DeserializeUncertainString(&reader);
    if (!s.ok()) return s.status();
    UJOIN_RETURN_IF_ERROR(ValidateString(*s, alphabet, "persisted string"));
    collection.push_back(std::move(s).value());
  }

  Result<uint8_t> has_index = reader.ReadU8();
  if (!has_index.ok()) return has_index.status();

  const uint64_t collection_size = collection.size();
  SimilaritySearcher searcher(std::move(collection), alphabet, options);
  if (*has_index != 0) {
    Result<InvertedSegmentIndex> index = InvertedSegmentIndex::Deserialize(
        &reader, options.probe, /*id_limit=*/collection_size);
    if (!index.ok()) return index.status();
    if (index->k() != options.k || index->q() != options.q) {
      return Status::InvalidArgument(
          "corrupt searcher: index parameters disagree with options");
    }
    searcher.index_ = std::move(index).value();
    searcher.index_.Freeze();
  }
  searcher.BuildSideStructures();
  return searcher;
}

Result<std::vector<std::vector<SearchHit>>> SimilaritySearcher::SearchMany(
    const std::vector<UncertainString>& queries, int threads,
    JoinStats* stats, obs::Recorder* metrics,
    obs::TraceRecorder* trace_sink, const SearchLimits* limits,
    obs::QueryLog* query_log) const {
  threads = internal::OrderedPool::Threads(threads, queries.size());
  // Each query records into its own outcome, and the fold merges outcomes
  // into the sinks (by default the Create-time ones) in query order, as it
  // goes, so the aggregates are the same for every thread count.
  obs::Recorder* const run_metrics =
      metrics != nullptr ? metrics : options_.metrics;
  obs::TraceRecorder* const trace =
      trace_sink != nullptr ? trace_sink : options_.trace;
  std::vector<QueryWorkspace> workspaces(static_cast<size_t>(threads));
  std::vector<std::vector<SearchHit>> out(queries.size());
  const auto run = [&](int worker, uint32_t i,
                       internal::ProbeOutcome* outcome) {
    // Query-span sampling depends only on the query index, so sampled
    // traces are identical for every thread count.  Under a slow-keep
    // threshold every query collects spans and the fold decides.
    obs::SpanCollector* span_sink = nullptr;
    if (trace != nullptr && (trace->SampleProbe(static_cast<int64_t>(i)) ||
                             trace->slow_keep_ns() > 0)) {
      outcome->spans =
          obs::SpanCollector(trace, static_cast<uint32_t>(worker) + 1);
      span_sink = &outcome->spans;
    }
    auto hits = Search(queries[i], &outcome->stats,
                       &workspaces[static_cast<size_t>(worker)],
                       run_metrics != nullptr ? &outcome->metrics : nullptr,
                       span_sink, limits);
    if (hits.ok()) {
      outcome->hits = std::move(hits).value();
    } else {
      outcome->status = hits.status();
    }
  };
  const auto fold = [&](uint32_t i, internal::ProbeOutcome& outcome) {
    if (!outcome.status.ok()) return outcome.status;
    if (stats != nullptr) stats->Merge(outcome.stats);
    if (run_metrics != nullptr) run_metrics->Merge(outcome.metrics);
    if (query_log != nullptr) {
      query_log->Write(MakeQueryLogRecord(
          outcome.stats, /*connection=*/0,
          /*seq=*/static_cast<int64_t>(i) + 1, queries[i].length(),
          static_cast<int64_t>(outcome.hits.size()), /*error=*/false));
    }
    if (trace != nullptr) {
      const bool keep = trace->KeepProbe(
          trace->SampleProbe(static_cast<int64_t>(i)),
          static_cast<int64_t>(outcome.stats.total_time * 1e9));
      trace->NoteProbe(keep);
      if (keep) trace->Append(outcome.spans.events());
    }
    out[i] = std::move(outcome.hits);
    return Status::OK();
  };
  {
    internal::OrderedPool pool(threads, run, fold);
    pool.Release(static_cast<uint32_t>(queries.size()));
    UJOIN_RETURN_IF_ERROR(pool.Finish());
  }
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kThreads, threads);
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kCollectionSize,
                  static_cast<int64_t>(collection_.size()));
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kPeakIndexMemoryBytes,
                  static_cast<int64_t>(index_.MemoryUsage()));
  return out;
}

}  // namespace ujoin
