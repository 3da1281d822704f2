// Ablations of the library's design choices (beyond the paper's own
// figures):
//
//  * selection window policy — the ±k window the paper's examples use
//    (kPositional) versus the tighter shift-bounded window its prose
//    formula describes (kShiftBounded, the default),
//  * probabilistic q-gram pruning (Theorem 2) versus the conservative
//    support-only mode (exact Lemma 5),
//  * the paper's grouped occurrence probabilities versus exact union
//    probabilities in probe sets,
//  * the join's default (k, τ) verdict versus exact probabilities for every
//    surviving pair (always_verify),
//  * plain versus path-compressed instance tries on long strings.

#include <string>

#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "join/self_join.h"
#include "util/check.h"
#include "verify/compressed_verifier.h"
#include "verify/verifier.h"

namespace {

using namespace ujoin;
using ujoin::bench::DblpConfig;
using ujoin::bench::Scaled;

const Dataset& CachedDataset() {
  static const Dataset data =
      GenerateDataset(DblpConfig::Data(Scaled(1500)));
  return data;
}

void RunJoinAblation(benchmark::State& state, const JoinOptions& options,
                     const char* label) {
  const Dataset& data = CachedDataset();
  JoinStats stats;
  for (auto _ : state) {
    Result<SelfJoinResult> out =
        SimilaritySelfJoin(data.strings, data.alphabet, options);
    UJOIN_CHECK(out.ok());
    stats = out->stats;
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(label);
  state.counters["qgram_candidates"] =
      static_cast<double>(stats.qgram_candidates);
  state.counters["verified"] = static_cast<double>(stats.verified_pairs);
  state.counters["results"] = static_cast<double>(stats.result_pairs);
  state.counters["filter_ms"] =
      (stats.FilterTime() + stats.index_build_time) * 1e3;
  state.counters["verify_ms"] = stats.verify_time * 1e3;
  state.counters["total_ms"] = stats.total_time * 1e3;
}

void BM_Ablation_SelectionPolicy(benchmark::State& state) {
  JoinOptions options = DblpConfig::Join();
  const bool tight = state.range(0) != 0;
  options.probe.selection = tight ? SelectionPolicy::kShiftBounded
                                  : SelectionPolicy::kPositional;
  RunJoinAblation(state, options,
                  tight ? "shift_bounded_window" : "positional_window");
}
BENCHMARK(BM_Ablation_SelectionPolicy)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Ablation_ProbabilisticPruning(benchmark::State& state) {
  JoinOptions options = DblpConfig::Join();
  options.qgram_probabilistic_pruning = state.range(0) != 0;
  RunJoinAblation(state, options,
                  options.qgram_probabilistic_pruning
                      ? "theorem2_pruning"
                      : "support_only (conservative)");
}
BENCHMARK(BM_Ablation_ProbabilisticPruning)
    ->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Ablation_ExactProbeProbability(benchmark::State& state) {
  JoinOptions options = DblpConfig::Join();
  options.probe.exact_union_probability = state.range(0) != 0;
  RunJoinAblation(state, options,
                  options.probe.exact_union_probability
                      ? "exact_union_prob"
                      : "grouped_recursion (paper)");
}
BENCHMARK(BM_Ablation_ExactProbeProbability)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->Iterations(1);

// always_verify also verifies the pairs the CDF lower bound accepted.
void BM_Ablation_VerdictVerification(benchmark::State& state) {
  JoinOptions options = DblpConfig::Join();
  options.always_verify = state.range(0) != 0;
  RunJoinAblation(
      state, options,
      options.always_verify ? "always_verify" : "verdict (default)");
}
BENCHMARK(BM_Ablation_VerdictVerification)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->Iterations(1);

// Plain vs compressed tries on progressively longer strings (×1..×3
// self-append).  Counters show the node-count gap; the timing column shows
// build plus a fixed number of verifications.
void BM_Ablation_TrieRepresentation(benchmark::State& state) {
  const bool compressed = state.range(0) != 0;
  const int repeats = static_cast<int>(state.range(1));
  Dataset data = GenerateDataset(DblpConfig::Data(Scaled(60)));
  for (UncertainString& s : data.strings) {
    s = CapUncertainPositions(AppendSelf(s, repeats), 6);
  }
  const int k = 2;
  int64_t nodes = 0;
  double checksum = 0.0;
  for (auto _ : state) {
    nodes = 0;
    checksum = 0.0;
    for (size_t i = 0; i + 1 < data.strings.size(); i += 2) {
      if (compressed) {
        Result<CompressedTrieVerifier> verifier =
            CompressedTrieVerifier::Create(data.strings[i], k);
        UJOIN_CHECK(verifier.ok());
        nodes += verifier->trie().num_nodes();
        checksum += verifier->Probability(data.strings[i + 1]);
      } else {
        Result<TrieVerifier> verifier =
            TrieVerifier::Create(data.strings[i], k);
        UJOIN_CHECK(verifier.ok());
        nodes += verifier->trie().num_nodes();
        checksum += verifier->Probability(data.strings[i + 1]);
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetLabel(std::string(compressed ? "compressed" : "plain") + "/x" +
                 std::to_string(repeats + 1));
  state.counters["trie_nodes"] = static_cast<double>(nodes);
  state.counters["prob_sum"] = checksum;
}
BENCHMARK(BM_Ablation_TrieRepresentation)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return ujoin::bench::RunReportMain(argc, argv, "bench_ablation",
                                     "BENCH_ablation.json");
}
