#include "join/probe_cascade.h"

#include "filter/cdf_filter.h"
#include "join/explain.h"
#include "join/pair_verifier.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "verify/verifier.h"

namespace ujoin::internal {

Status RunCascade(const ProbeCascade& probe,
                  std::span<const uint32_t> candidates, StageNanos ns,
                  JoinStats* stats, obs::Recorder* rec,
                  obs::SpanCollector* spans, std::vector<SearchHit>* hits) {
  const JoinOptions& options = probe.options;
  const size_t k = static_cast<size_t>(options.k);
  const SearchLimits limits =
      probe.limits != nullptr ? *probe.limits : SearchLimits{};
  PairVerifier verifier(probe.r, options);
  // World-count factor of R, computed on first use: WorldCount walks every
  // position, and most probes never reach verification.
  int64_t r_worlds = -1;
  const int64_t cascade_start = spans->NowNs();

  for (size_t n = 0; n < candidates.size(); ++n) {
    const uint32_t c = candidates[n];
    const UncertainString& s =
        probe.strings[probe.ids.empty() ? c : probe.ids[c]];
    ExplainCandidate* const ec =
        probe.explain != nullptr ? &probe.explain[n] : nullptr;
    const auto emit = [&](double probability, bool exact) {
      ++stats->result_pairs;
      hits->push_back(SearchHit{c, probability, exact});
      if (ec != nullptr) {
        ec->emitted = true;
        ec->probability = probability;
        ec->exact = exact;
      }
    };

    if (options.use_freq_filter) {
      ScopedNanoTimer timer(&ns.freq);
      const FreqFilterOutcome freq =
          EvaluateFreqFilter(*probe.r_summary, probe.summaries[c], options.k);
      if (ec != nullptr) {
        ec->have_freq = true;
        ec->freq_lower_bound = freq.fd_lower_bound;
        ec->freq_upper_bound = freq.upper_bound;
      }
      if (freq.fd_lower_bound > options.k) {
        ++stats->freq_lower_pruned;
        if (ec != nullptr) ec->stage = ExplainStage::kFreqLowerPruned;
        continue;
      }
      if (freq.upper_bound <= options.tau) {
        ++stats->freq_upper_pruned;
        if (ec != nullptr) ec->stage = ExplainStage::kFreqUpperPruned;
        continue;
      }
    }
    ++stats->freq_candidates;

    bool have_cdf = false;
    double cdf_lower = 0.0;
    if (options.use_cdf_filter) {
      ScopedNanoTimer timer(&ns.cdf);
      const CdfFilterOutcome cdf =
          EvaluateCdfFilter(probe.r, s, options.k, options.tau);
      have_cdf = true;
      cdf_lower = cdf.bounds.lower[k];
      if (ec != nullptr) {
        ec->have_cdf = true;
        ec->cdf_lower = cdf_lower;
      }
      if (cdf.decision == CdfDecision::kReject) {
        ++stats->cdf_rejected;
        if (ec != nullptr) ec->stage = ExplainStage::kCdfRejected;
        continue;
      }
      if (cdf.decision == CdfDecision::kAccept) {
        ++stats->cdf_accepted;
        if (!options.always_verify) {
          if (ec != nullptr) ec->stage = ExplainStage::kCdfAccepted;
          emit(cdf_lower, /*exact=*/false);
          continue;
        }
      } else {
        ++stats->cdf_undecided;
      }
    }

    if (r_worlds < 0) r_worlds = probe.r.WorldCount();
    const int64_t pair_worlds = SaturatingMul(r_worlds, s.WorldCount());

    // Decides the pair from its certified CDF lower bound instead of exact
    // verification, marking the result inexact: the pair is emitted iff
    // the bound exceeds τ, with exact = false.
    const auto fall_back = [&](ExplainStage stage) {
      if (!have_cdf) {
        ScopedNanoTimer timer(&ns.cdf);
        cdf_lower = EvaluateCdfFilter(probe.r, s, options.k, options.tau)
                        .bounds.lower[k];
      }
      if (stage == ExplainStage::kBudgetFallback) {
        ++stats->budget_fallbacks;
      } else {
        ++stats->deadline_fallbacks;
      }
      if (ec != nullptr) {
        ec->have_cdf = true;
        ec->cdf_lower = cdf_lower;
        ec->stage = stage;
      }
      if (cdf_lower > options.tau) emit(cdf_lower, /*exact=*/false);
    };

    // Per-query limits (the serve layer's deadline / verification budget):
    // when this pair's exact verification is forbidden, decide it from the
    // certified CDF lower bound instead.  The budget is a pure function of
    // the two strings, so budget-limited results stay deterministic; the
    // deadline is wall-clock and is not.
    if (ExceedsWorldBudget(pair_worlds, limits.max_verify_worlds)) {
      fall_back(ExplainStage::kBudgetFallback);
      continue;
    }
    if (limits.deadline_ns > 0 &&
        probe.clock->ElapsedNanos() > limits.deadline_ns) {
      fall_back(ExplainStage::kDeadlineFallback);
      continue;
    }

    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kVerifyBegin, pair_worlds, 0);
    Timer verify_timer;
    const int64_t nodes_before = stats->verify_stats.explored_s_nodes;
    Result<ThresholdVerdict> verdict =
        verifier.Decide(s, options.tau, &stats->verify_stats);
    const int64_t pair_verify_ns = verify_timer.ElapsedNanos();
    ns.verify += pair_verify_ns;
    UJOIN_OBS_HIST(rec, obs::Hist::kVerifyLatencyNs, pair_verify_ns);
    UJOIN_OBS_HIST(rec, obs::Hist::kExploredTrieNodes,
                   stats->verify_stats.explored_s_nodes - nodes_before);
    UJOIN_OBS_HIST(rec, obs::Hist::kVerifyWorldCount, pair_worlds);
    // A pair over every VerifyOptions cap (T_R nodes, compressed nodes,
    // naive world pairs) cannot be verified exactly at all; it falls back
    // like a pair over the per-query budget instead of failing the call.
    if (!verdict.ok()) {
      if (verdict.status().code() != StatusCode::kResourceExhausted) {
        return verdict.status();
      }
      fall_back(ExplainStage::kBudgetFallback);
      continue;
    }
    ++stats->verified_pairs;
    stats->verify_worlds = SaturatingAdd(stats->verify_worlds, pair_worlds);
    if (ec != nullptr) {
      ec->stage = ExplainStage::kVerified;
      ec->verify_worlds = pair_worlds;
    }
    if (verdict->similar) {
      ++stats->verified_hits;
      emit(verdict->lower, verdict->exact);
    }
  }

  // The probe's record is complete: every view below is derived from it
  // (plus the stage times), once.
  stats->qgram_time += 1e-9 * static_cast<double>(ns.qgram);
  stats->freq_time += 1e-9 * static_cast<double>(ns.freq);
  stats->cdf_time += 1e-9 * static_cast<double>(ns.cdf);
  stats->verify_time += 1e-9 * static_cast<double>(ns.verify);
  const std::array<JoinStats::FunnelEdge, obs::kNumFunnelStages> funnel =
      stats->Funnel();
  for (size_t stage = 0; stage < funnel.size(); ++stage) {
    UJOIN_OBS_FUNNEL(rec, static_cast<obs::FunnelStage>(stage),
                     funnel[stage].entered, funnel[stage].survived);
  }
  UJOIN_OBS_COUNTER(rec, obs::Counter::kVerifyBudgetFallbacks,
                    stats->budget_fallbacks);
  UJOIN_OBS_COUNTER(rec, obs::Counter::kVerifyDeadlineFallbacks,
                    stats->deadline_fallbacks);
  UJOIN_OBS_COUNTER(rec, obs::Counter::kKernelFreqDistNs, ns.freq);
  UJOIN_OBS_COUNTER(rec, obs::Counter::kKernelCdfDpNs, ns.cdf);

  // The per-pair stages interleave, so they are emitted as aggregate spans
  // laid back to back from the cascade's start; each span's duration is
  // that stage's summed time in this probe (DESIGN.md "Observability").
  int64_t t = cascade_start;
  if (options.use_freq_filter) {
    spans->Span("freq_filter", t, ns.freq);
    t += ns.freq;
  }
  if (options.use_cdf_filter) {
    spans->Span("cdf_dp", t, ns.cdf);
    t += ns.cdf;
  }
  if (ns.verify > 0) spans->Span("trie_verify", t, ns.verify);
  return Status::OK();
}

}  // namespace ujoin::internal
