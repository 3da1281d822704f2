// Tests for SearchTopK and (parallel) SearchMany.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "testing/test_util.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

std::vector<UncertainString> SmallDataset(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

TEST(SearchTopKTest, ReturnsMostProbableMatchesInOrder) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 201);
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.01));
  ASSERT_TRUE(searcher.ok());
  const UncertainString& query = collection[10];
  Result<std::vector<SearchHit>> all = searcher->SearchTopK(query, 1000);
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->size(), 1u);  // at least the string itself
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_GE((*all)[i - 1].probability, (*all)[i].probability);
  }
  // Every reported probability is exact and matches ground truth.
  for (const SearchHit& hit : *all) {
    EXPECT_TRUE(hit.exact);
    Result<double> truth =
        TrieVerifyProbability(query, collection[hit.id], 2);
    ASSERT_TRUE(truth.ok());
    EXPECT_NEAR(hit.probability, *truth, 1e-9);
  }
  // Truncation keeps the best prefix.
  const int k = std::min<int>(3, static_cast<int>(all->size()));
  Result<std::vector<SearchHit>> top = searcher->SearchTopK(query, k);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(static_cast<int>(top->size()), k);
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ((*top)[static_cast<size_t>(i)].id,
              (*all)[static_cast<size_t>(i)].id);
  }
}

TEST(SearchTopKTest, RejectsNonPositiveCount) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      {UncertainString::FromDeterministic("ACGT")}, alphabet,
      JoinOptions::Qfct(1, 0.1));
  ASSERT_TRUE(searcher.ok());
  EXPECT_FALSE(
      searcher->SearchTopK(UncertainString::FromDeterministic("ACGT"), 0)
          .ok());
}

TEST(SearchManyTest, SequentialAndParallelAgree) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(80, 202);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(collection, alphabet, options);
  ASSERT_TRUE(searcher.ok());
  const std::vector<UncertainString> queries = SmallDataset(25, 203);
  Result<std::vector<std::vector<SearchHit>>> sequential =
      searcher->SearchMany(queries, 1);
  Result<std::vector<std::vector<SearchHit>>> parallel =
      searcher->SearchMany(queries, 4);
  ASSERT_TRUE(sequential.ok() && parallel.ok());
  ASSERT_EQ(sequential->size(), queries.size());
  ASSERT_EQ(parallel->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& a = (*sequential)[q];
    const auto& b = (*parallel)[q];
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_NEAR(a[i].probability, b[i].probability, 1e-12);
    }
  }
}

TEST(SearchManyTest, MatchesSingleSearches) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(50, 204);
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(searcher.ok());
  const std::vector<UncertainString> queries = SmallDataset(10, 205);
  Result<std::vector<std::vector<SearchHit>>> many =
      searcher->SearchMany(queries, 0);  // auto thread count
  ASSERT_TRUE(many.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<std::vector<SearchHit>> single = searcher->Search(queries[q]);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*many)[q].size(), single->size());
    for (size_t i = 0; i < single->size(); ++i) {
      EXPECT_EQ((*many)[q][i].id, (*single)[i].id);
    }
  }
}

// The aggregated stats are folded in query order, so every count is
// identical for every thread count (only wall times may differ).
TEST(SearchManyTest, AggregatedStatsAreThreadCountInvariant) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(70, 206);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(collection, alphabet, options);
  ASSERT_TRUE(searcher.ok());
  const std::vector<UncertainString> queries = SmallDataset(20, 207);

  JoinStats sequential_stats;
  JoinStats parallel_stats;
  ASSERT_TRUE(searcher->SearchMany(queries, 1, &sequential_stats).ok());
  ASSERT_TRUE(searcher->SearchMany(queries, 4, &parallel_stats).ok());

  EXPECT_GT(sequential_stats.result_pairs, 0);
  EXPECT_EQ(sequential_stats.length_compatible_pairs,
            parallel_stats.length_compatible_pairs);
  EXPECT_EQ(sequential_stats.qgram_candidates,
            parallel_stats.qgram_candidates);
  EXPECT_EQ(sequential_stats.index_stats.support_pruned,
            parallel_stats.index_stats.support_pruned);
  EXPECT_EQ(sequential_stats.index_stats.probability_pruned,
            parallel_stats.index_stats.probability_pruned);
  EXPECT_EQ(sequential_stats.freq_candidates, parallel_stats.freq_candidates);
  EXPECT_EQ(sequential_stats.cdf_accepted, parallel_stats.cdf_accepted);
  EXPECT_EQ(sequential_stats.cdf_rejected, parallel_stats.cdf_rejected);
  EXPECT_EQ(sequential_stats.cdf_undecided, parallel_stats.cdf_undecided);
  EXPECT_EQ(sequential_stats.verified_pairs, parallel_stats.verified_pairs);
  EXPECT_EQ(sequential_stats.result_pairs, parallel_stats.result_pairs);
  EXPECT_EQ(sequential_stats.index_stats.lists_scanned,
            parallel_stats.index_stats.lists_scanned);
  EXPECT_EQ(sequential_stats.index_stats.postings_scanned,
            parallel_stats.index_stats.postings_scanned);
  EXPECT_EQ(sequential_stats.index_stats.ids_touched,
            parallel_stats.index_stats.ids_touched);
}

TEST(SearchManyTest, PropagatesQueryErrors) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      {UncertainString::FromDeterministic("ACGT")}, alphabet,
      JoinOptions::Qfct(1, 0.1));
  ASSERT_TRUE(searcher.ok());
  const std::vector<UncertainString> queries = {
      UncertainString::FromDeterministic("ACGT"),
      UncertainString(),  // invalid: empty
  };
  EXPECT_FALSE(searcher->SearchMany(queries, 2).ok());
}

TEST(SearchManyTest, EmptyQueryListIsFine) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      {UncertainString::FromDeterministic("ACGT")}, alphabet,
      JoinOptions::Qfct(1, 0.1));
  ASSERT_TRUE(searcher.ok());
  Result<std::vector<std::vector<SearchHit>>> out =
      searcher->SearchMany({}, 4);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

}  // namespace
}  // namespace ujoin
