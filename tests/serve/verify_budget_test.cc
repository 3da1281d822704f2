// Regression tests for the exponential-verification guard
// (SearchLimits::max_verify_worlds / deadline_ns, and the VerifyOptions
// caps).  The pathological query is
// a string with seven uncertain positions of twenty alternatives each
// (|worlds| = 20^7 ≈ 1.3e9): exactly verifying it against itself would
// explore a possible-world product of ~1.6e18 and never finish, so the mere
// fact that these tests complete proves the budget early-out works.  The
// fallback must be a *certified* CDF verdict: a hit is emitted iff Theorem
// 4's lower bound exceeds τ, carries that bound as its probability, and is
// flagged exact=false — and the per-query stats flag the result set inexact.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/cdf_filter.h"
#include "join/search.h"
#include "join/self_join.h"
#include "serve/search_server.h"
#include "serve_test_util.h"
#include "text/uncertain_string.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

using serve::testing::LineClient;

/// Seven uncertain positions, each with alternatives 'a'..'t' where 'a' has
/// probability 0.81 and the 19 others 0.01: a skewed, high-fanout string
/// whose world count (20^7) saturates any practical verification budget
/// while keeping the self-match probability high.
UncertainString PathologicalString() {
  UncertainString::Builder builder;
  for (int pos = 0; pos < 7; ++pos) {
    std::vector<CharProb> alternatives;
    alternatives.push_back({'a', 0.81});
    for (char c = 'b'; c <= 't'; ++c) alternatives.push_back({c, 0.01});
    builder.AddUncertain(std::move(alternatives));
  }
  Result<UncertainString> s = builder.Build();
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

/// A certain string far enough in length from the pathological one that the
/// length window |ΔL| <= k keeps the two from ever pairing up.
UncertainString CheapString() {
  return UncertainString::FromDeterministic("abcdefghijkl");
}

JoinOptions GuardedOptions() {
  // No q-gram index: the candidate set is the whole length window, so the
  // test exercises the budget check on the unfiltered path.  always_verify
  // forces every survivor toward exact verification — the workload the
  // guard exists for.
  JoinOptions options = JoinOptions::Fct(/*k=*/2, /*tau=*/0.01);
  options.always_verify = true;
  return options;
}

class VerifyBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pathological_ = PathologicalString();
    cheap_ = CheapString();
    Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
        {pathological_, cheap_}, Alphabet::Names(), GuardedOptions());
    ASSERT_TRUE(searcher.ok());
    searcher_ =
        std::make_unique<SimilaritySearcher>(std::move(searcher).value());
  }

  UncertainString pathological_;
  UncertainString cheap_;
  std::unique_ptr<SimilaritySearcher> searcher_;
};

TEST_F(VerifyBudgetTest, PairWorldCountExceedsAnyPracticalBudget) {
  const int64_t pair_worlds = PairWorldCount(pathological_, pathological_);
  EXPECT_TRUE(ExceedsWorldBudget(pair_worlds, int64_t{1} << 20));
  // The cheap pair is a single world: never budgeted out.
  EXPECT_FALSE(
      ExceedsWorldBudget(PairWorldCount(cheap_, cheap_), int64_t{1} << 20));
}

TEST_F(VerifyBudgetTest, OverBudgetQueryFallsBackToCdfVerdict) {
  SearchLimits limits;
  limits.max_verify_worlds = int64_t{1} << 20;
  JoinStats stats;
  Result<std::vector<SearchHit>> hits =
      searcher_->Search(pathological_, &stats, /*workspace=*/nullptr,
                        /*metrics=*/nullptr, /*spans=*/nullptr, &limits);
  ASSERT_TRUE(hits.ok());

  // The only length-compatible candidate was budgeted out of verification.
  EXPECT_EQ(stats.budget_fallbacks, 1);
  EXPECT_EQ(stats.deadline_fallbacks, 0);
  EXPECT_EQ(stats.verified_pairs, 0);
  EXPECT_TRUE(stats.Inexact());

  // The fallback verdict must agree exactly with Theorem 4's lower bound:
  // a hit iff lower[k] > tau, carrying the bound itself, flagged inexact.
  const JoinOptions options = GuardedOptions();
  const CdfFilterOutcome cdf = EvaluateCdfFilter(pathological_, pathological_,
                                                 options.k, options.tau);
  const double lower = cdf.bounds.lower[static_cast<size_t>(options.k)];
  if (lower > options.tau) {
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].id, 0u);
    EXPECT_FALSE((*hits)[0].exact);
    EXPECT_EQ((*hits)[0].probability, lower);
  } else {
    EXPECT_TRUE(hits->empty());
  }
}

TEST_F(VerifyBudgetTest, UnderBudgetQueryStaysExact) {
  SearchLimits limits;
  limits.max_verify_worlds = int64_t{1} << 20;
  JoinStats stats;
  Result<std::vector<SearchHit>> hits =
      searcher_->Search(cheap_, &stats, /*workspace=*/nullptr,
                        /*metrics=*/nullptr, /*spans=*/nullptr, &limits);
  ASSERT_TRUE(hits.ok());

  // One world pair: verified exactly, so the same limits leave this query's
  // results exact.
  EXPECT_EQ(stats.budget_fallbacks, 0);
  EXPECT_FALSE(stats.Inexact());
  EXPECT_EQ(stats.verified_pairs, 1);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, 1u);
  EXPECT_TRUE((*hits)[0].exact);
  EXPECT_EQ((*hits)[0].probability, 1.0);
}

TEST_F(VerifyBudgetTest, ExpiredDeadlineFallsBackToCdfVerdict) {
  // A 1 ns deadline has always expired by the time the first candidate is
  // checked, so even the cheap pair is decided from its CDF bounds.
  SearchLimits limits;
  limits.deadline_ns = 1;
  JoinStats stats;
  Result<std::vector<SearchHit>> hits =
      searcher_->Search(cheap_, &stats, /*workspace=*/nullptr,
                        /*metrics=*/nullptr, /*spans=*/nullptr, &limits);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(stats.deadline_fallbacks, 1);
  EXPECT_EQ(stats.budget_fallbacks, 0);
  EXPECT_EQ(stats.verified_pairs, 0);
  EXPECT_TRUE(stats.Inexact());
  // ed(cheap, cheap) = 0 with certainty, so the CDF lower bound is exact
  // (1.0) and the hit survives the fallback — flagged inexact regardless.
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_FALSE((*hits)[0].exact);
  EXPECT_EQ((*hits)[0].probability, 1.0);
}

// A pair over every VerifyOptions cap (the T_R node cap stops the plain and
// the compressed trie, the world-pair cap stops naive enumeration) cannot
// be verified exactly at all.  It must fall back to its CDF verdict like an
// over-budget pair instead of failing the whole join or search.
TEST(VerifyCapTest, PairOverEveryVerifyCapFallsBackToCdfVerdict) {
  Result<UncertainString> s = UncertainString::Parse(
      "jo{(h,0.9),(n,0.1)}n sm{(i,0.8),(y,0.2)}th", Alphabet::Names());
  ASSERT_TRUE(s.ok());
  JoinOptions options = JoinOptions::Fct(/*k=*/2, /*tau=*/0.1);
  options.always_verify = true;
  options.verify.max_trie_nodes = 2;
  options.verify.max_world_pairs = 1;
  const double lower =
      EvaluateCdfFilter(*s, *s, options.k, options.tau)
          .bounds.lower[static_cast<size_t>(options.k)];
  ASSERT_GT(lower, options.tau);

  Result<SelfJoinResult> join =
      SimilaritySelfJoin({*s, *s}, Alphabet::Names(), options);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_EQ(join->pairs.size(), 1u);
  EXPECT_FALSE(join->pairs[0].exact);
  EXPECT_EQ(join->pairs[0].probability, lower);
  EXPECT_EQ(join->stats.budget_fallbacks, 1);
  EXPECT_EQ(join->stats.verified_pairs, 0);
  EXPECT_TRUE(join->stats.Inexact());

  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create({*s}, Alphabet::Names(), options);
  ASSERT_TRUE(searcher.ok());
  JoinStats stats;
  Result<std::vector<SearchHit>> hits = searcher->Search(*s, &stats);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_FALSE((*hits)[0].exact);
  EXPECT_EQ((*hits)[0].probability, lower);
  EXPECT_EQ(stats.budget_fallbacks, 1);
  EXPECT_EQ(stats.verified_pairs, 0);
  EXPECT_TRUE(stats.Inexact());
}

TEST_F(VerifyBudgetTest, ServerMarksOverBudgetResponsesInexact) {
  serve::ServeOptions serve_options;
  serve_options.limits.max_verify_worlds = int64_t{1} << 20;
  serve::SearchServer server(searcher_.get(), serve_options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  // The pathological query trips the budget: the response must carry the
  // inexact flag so clients can tell a certified-but-bounded answer apart
  // from an exact one.
  ASSERT_TRUE(client.SendLine(pathological_.ToString()));
  std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"inexact\":true"), std::string::npos) << response;

  // The cheap query on the same connection, under the same limits, stays
  // exact.
  ASSERT_TRUE(client.SendLine(cheap_.ToString()));
  response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"inexact\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"exact\":true"), std::string::npos) << response;

  client.Close();
  server.Stop();
  EXPECT_EQ(server.Stats().budget_fallbacks, 1);
}

}  // namespace
}  // namespace ujoin
