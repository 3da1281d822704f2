// Determinism guarantees of the parallel self-join: the pair list (ids,
// probabilities, exactness flags) is byte-identical for every thread count,
// and so are the pair-flow and index work counters.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/self_join.h"

namespace ujoin {
namespace {

std::vector<UncertainString> SeededCollection(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 11;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

// Bitwise pair-list equality: ids, probability (exact double identity, not
// approximate), and the exactness flag.
void ExpectIdenticalPairs(const SelfJoinResult& a, const SelfJoinResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size()) << label;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].lhs, b.pairs[i].lhs) << label << " pair " << i;
    EXPECT_EQ(a.pairs[i].rhs, b.pairs[i].rhs) << label << " pair " << i;
    EXPECT_EQ(a.pairs[i].probability, b.pairs[i].probability)
        << label << " pair " << i;
    EXPECT_EQ(a.pairs[i].exact, b.pairs[i].exact) << label << " pair " << i;
  }
}

// Pair-flow counters: everything except wall times and the index scan
// work.
void ExpectEqualPairFlow(const JoinStats& a, const JoinStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.length_compatible_pairs, b.length_compatible_pairs) << label;
  EXPECT_EQ(a.qgram_candidates, b.qgram_candidates) << label;
  EXPECT_EQ(a.freq_candidates, b.freq_candidates) << label;
  EXPECT_EQ(a.freq_lower_pruned, b.freq_lower_pruned) << label;
  EXPECT_EQ(a.freq_upper_pruned, b.freq_upper_pruned) << label;
  EXPECT_EQ(a.cdf_accepted, b.cdf_accepted) << label;
  EXPECT_EQ(a.cdf_rejected, b.cdf_rejected) << label;
  EXPECT_EQ(a.cdf_undecided, b.cdf_undecided) << label;
  EXPECT_EQ(a.verified_pairs, b.verified_pairs) << label;
  EXPECT_EQ(a.result_pairs, b.result_pairs) << label;
  EXPECT_EQ(a.verify_stats.r_trie_nodes, b.verify_stats.r_trie_nodes) << label;
  EXPECT_EQ(a.verify_stats.explored_s_nodes, b.verify_stats.explored_s_nodes)
      << label;
  EXPECT_EQ(a.verify_stats.active_entries, b.verify_stats.active_entries)
      << label;
  EXPECT_EQ(a.verify_stats.world_pairs, b.verify_stats.world_pairs) << label;
}

// Full work-counter equality, including the index merge-scan counters: every
// probe sees exactly the prefix of its position, whatever the thread count.
void ExpectEqualWorkCounters(const JoinStats& a, const JoinStats& b,
                             const std::string& label) {
  ExpectEqualPairFlow(a, b, label);
  EXPECT_EQ(a.index_stats.lists_scanned, b.index_stats.lists_scanned) << label;
  EXPECT_EQ(a.index_stats.postings_scanned, b.index_stats.postings_scanned)
      << label;
  EXPECT_EQ(a.index_stats.ids_touched, b.index_stats.ids_touched) << label;
  EXPECT_EQ(a.index_stats.support_pruned, b.index_stats.support_pruned)
      << label;
  EXPECT_EQ(a.index_stats.probability_pruned, b.index_stats.probability_pruned)
      << label;
  EXPECT_EQ(a.index_stats.candidates, b.index_stats.candidates) << label;
  EXPECT_EQ(a.peak_index_memory, b.peak_index_memory) << label;
}

TEST(SelfJoinParallelTest, ThreadCountDoesNotChangeResultsOrStats) {
  const Alphabet alphabet = Alphabet::Names();
  for (uint64_t seed : {uint64_t{11}, uint64_t{23}}) {
    const std::vector<UncertainString> collection = SeededCollection(90, seed);
    JoinOptions base = JoinOptions::Qfct(2, 0.1);
    base.threads = 1;
    Result<SelfJoinResult> reference =
        SimilaritySelfJoin(collection, alphabet, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int threads : {2, 3, 4, 8}) {
      JoinOptions options = base;
      options.threads = threads;
      Result<SelfJoinResult> got =
          SimilaritySelfJoin(collection, alphabet, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string label = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      ExpectIdenticalPairs(*reference, *got, label);
      ExpectEqualWorkCounters(reference->stats, got->stats, label);
    }
  }
}

TEST(SelfJoinParallelTest, AllVariantsDeterministicAcrossThreads) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SeededCollection(60, 37);
  const JoinOptions variants[] = {
      JoinOptions::Qfct(2, 0.1), JoinOptions::Qct(2, 0.1),
      JoinOptions::Qft(2, 0.1), JoinOptions::Fct(2, 0.1)};
  for (const JoinOptions& variant : variants) {
    JoinOptions base = variant;
    base.threads = 1;
    Result<SelfJoinResult> reference =
        SimilaritySelfJoin(collection, alphabet, base);
    ASSERT_TRUE(reference.ok());
    JoinOptions parallel = base;
    parallel.threads = 4;
    Result<SelfJoinResult> got =
        SimilaritySelfJoin(collection, alphabet, parallel);
    ASSERT_TRUE(got.ok());
    ExpectIdenticalPairs(*reference, *got, "variant");
    ExpectEqualWorkCounters(reference->stats, got->stats, "variant");
  }
}

TEST(SelfJoinParallelTest, AutoThreadsWork) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SeededCollection(50, 41);
  JoinOptions reference_options = JoinOptions::Qfct(2, 0.1);
  reference_options.threads = 1;
  Result<SelfJoinResult> reference =
      SimilaritySelfJoin(collection, alphabet, reference_options);
  ASSERT_TRUE(reference.ok());

  JoinOptions auto_options = JoinOptions::Qfct(2, 0.1);
  auto_options.threads = 0;  // hardware concurrency
  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, auto_options);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalPairs(*reference, *got, "auto");
  ExpectEqualWorkCounters(reference->stats, got->stats, "auto");
}

TEST(SelfJoinParallelTest, ParallelRunStillMatchesExhaustiveGroundTruth) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SeededCollection(45, 53);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  options.threads = 4;
  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok());
  Result<SelfJoinResult> truth =
      ExhaustiveSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(got->pairs.size(), truth->pairs.size());
  for (size_t i = 0; i < got->pairs.size(); ++i) {
    EXPECT_EQ(got->pairs[i].lhs, truth->pairs[i].lhs);
    EXPECT_EQ(got->pairs[i].rhs, truth->pairs[i].rhs);
    EXPECT_NEAR(got->pairs[i].probability, truth->pairs[i].probability, 1e-9);
  }
}

TEST(SelfJoinParallelTest, ErrorsPropagateFromWorkerThreads) {
  // An invalid collection must surface the same status regardless of the
  // thread count (validation happens before the pass; failures inside
  // workers propagate through the pool, see OrderedPoolTest).
  const Alphabet alphabet = Alphabet::Dna();
  std::vector<UncertainString> collection = {
      UncertainString::FromDeterministic("ACGT"), UncertainString()};
  JoinOptions options = JoinOptions::Qfct(1, 0.1);
  options.threads = 4;
  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, options);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ujoin
