#include "join/explain.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "text/alphabet.h"

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

Result<SimilaritySearcher> MakeSearcher(
    const std::vector<UncertainString>& collection) {
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  return SimilaritySearcher::Create(collection, Alphabet::Names(), options);
}

std::set<uint32_t> HitIds(const std::vector<SearchHit>& hits) {
  std::set<uint32_t> ids;
  for (const SearchHit& h : hits) ids.insert(h.id);
  return ids;
}

// Explain is a replay, not a different algorithm: its hits are exactly
// Search's, and the emitted candidates in the narrative are exactly the
// hits.
TEST(ExplainTest, HitsMatchSearch) {
  const std::vector<UncertainString> collection = SmallDataset(60, 3);
  Result<SimilaritySearcher> searcher = MakeSearcher(collection);
  ASSERT_TRUE(searcher.ok());
  for (uint32_t q = 0; q < 6; ++q) {
    const UncertainString& query = collection[q * 9];
    Result<std::vector<SearchHit>> hits = searcher->Search(query);
    ASSERT_TRUE(hits.ok());
    Result<ExplainResult> explain = searcher->Explain(query);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_EQ(HitIds(explain->hits), HitIds(*hits));

    std::set<uint32_t> emitted;
    for (const ExplainCandidate& c : explain->data.candidates) {
      if (c.emitted) emitted.insert(c.id);
    }
    EXPECT_EQ(emitted, HitIds(*hits));
    // Every probed length accounts for its cascade survivors.
    int64_t cascade = 0;
    for (const ExplainProbe& p : explain->data.probes) {
      cascade += p.candidates;
    }
    EXPECT_EQ(cascade,
              static_cast<int64_t>(explain->data.candidates.size()));
  }
}

// Without the timing section the envelope is a pure function of
// (index, query, limits): byte-identical across repeated replays and
// across independently built searchers over the same collection.
TEST(ExplainTest, JsonWithoutTimingIsByteDeterministic) {
  const std::vector<UncertainString> collection = SmallDataset(50, 5);
  Result<SimilaritySearcher> a = MakeSearcher(collection);
  Result<SimilaritySearcher> b = MakeSearcher(collection);
  ASSERT_TRUE(a.ok() && b.ok());
  const SearchLimits limits;
  for (uint32_t q = 0; q < 5; ++q) {
    const UncertainString& query = collection[q * 7];
    Result<ExplainResult> ra1 = a->Explain(query);
    Result<ExplainResult> ra2 = a->Explain(query);
    Result<ExplainResult> rb = b->Explain(query);
    ASSERT_TRUE(ra1.ok() && ra2.ok() && rb.ok());
    const std::string json =
        RenderExplainJson(*a, query, *ra1, limits, /*include_timing=*/false);
    EXPECT_EQ(json.rfind("{\"schema\":\"ujoin.explain\","
                         "\"schema_version\":3,", 0),
              0u)
        << json.substr(0, 80);
    EXPECT_EQ(json.back(), '\n');
    EXPECT_EQ(json.find("timing_ns"), std::string::npos);
    EXPECT_EQ(RenderExplainJson(*a, query, *ra2, limits, false), json);
    EXPECT_EQ(RenderExplainJson(*b, query, *rb, limits, false), json);
  }
}

TEST(ExplainTest, TimingSectionIsOptIn) {
  const std::vector<UncertainString> collection = SmallDataset(30, 7);
  Result<SimilaritySearcher> searcher = MakeSearcher(collection);
  ASSERT_TRUE(searcher.ok());
  const SearchLimits limits;
  Result<ExplainResult> result = searcher->Explain(collection[0]);
  ASSERT_TRUE(result.ok());
  const std::string timed =
      RenderExplainJson(*searcher, collection[0], *result, limits,
                        /*include_timing=*/true);
  EXPECT_NE(timed.find("\"timing_ns\":{"), std::string::npos);
}

// Explain works on a Load-restored searcher (nothing has to be attached at
// Create time) and replays identically to the original — the persisted
// index carries everything the narrative depends on.
TEST(ExplainTest, LoadRestoredSearcherExplainsIdentically) {
  const std::vector<UncertainString> collection = SmallDataset(50, 11);
  Result<SimilaritySearcher> original = MakeSearcher(collection);
  ASSERT_TRUE(original.ok());
  const std::string path = ::testing::TempDir() + "ujoin_explain_test.bin";
  ASSERT_TRUE(original->Save(path).ok());
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, Alphabet::Names());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const SearchLimits limits;
  for (uint32_t q = 0; q < 5; ++q) {
    const UncertainString& query = collection[q * 7];
    Result<ExplainResult> a = original->Explain(query);
    Result<ExplainResult> b = loaded->Explain(query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(RenderExplainJson(*original, query, *a, limits, false),
              RenderExplainJson(*loaded, query, *b, limits, false));
  }
}

// A starved world budget shows up in the narrative: some candidate is
// decided by the budget fallback, the envelope names the stage, and the
// replay's stats count the fallback — the same story the query log tells.
TEST(ExplainTest, BudgetFallbackIsVisibleInNarrative) {
  const std::vector<UncertainString> collection = SmallDataset(60, 13);
  Result<SimilaritySearcher> searcher = MakeSearcher(collection);
  ASSERT_TRUE(searcher.ok());
  SearchLimits limits;
  limits.max_verify_worlds = 1;

  bool saw_fallback = false;
  for (uint32_t q = 0; q < collection.size() && !saw_fallback; q += 5) {
    const UncertainString& query = collection[q];
    Result<ExplainResult> result = searcher->Explain(query, &limits);
    ASSERT_TRUE(result.ok());
    for (const ExplainCandidate& c : result->data.candidates) {
      if (c.stage != ExplainStage::kBudgetFallback) continue;
      saw_fallback = true;
      EXPECT_GT(result->stats.budget_fallbacks, 0);
      const std::string json = RenderExplainJson(*searcher, query, *result,
                                                 limits, false);
      EXPECT_NE(json.find("\"stage\":\"budget_fallback\""),
                std::string::npos);
      EXPECT_NE(json.find("\"inexact\":true"), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(saw_fallback)
      << "no query hit the 1-world budget; dataset too easy for the test";
}

TEST(ExplainTest, NarrativeMentionsVerdictAndStages) {
  const std::vector<UncertainString> collection = SmallDataset(40, 17);
  Result<SimilaritySearcher> searcher = MakeSearcher(collection);
  ASSERT_TRUE(searcher.ok());
  Result<ExplainResult> result = searcher->Explain(collection[0]);
  ASSERT_TRUE(result.ok());
  const std::string text =
      RenderExplainNarrative(*searcher, collection[0], *result);
  EXPECT_NE(text.find("explain:"), std::string::npos) << text;
  EXPECT_NE(text.find("verdict:"), std::string::npos) << text;
}

}  // namespace
}  // namespace ujoin
