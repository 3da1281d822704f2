#include "filter/qgram_filter.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "text/alphabet.h"
#include "text/edit_distance.h"
#include "util/rng.h"

namespace ujoin {
namespace {

// The full Table 1 setup: r = GGATCC, m = 3, q = 2, k = 1, τ = 0.25.
class Table1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dna_ = Alphabet::Dna();
    r_ = UncertainString::FromDeterministic("GGATCC");
    auto parse = [&](const char* text) {
      Result<UncertainString> s = UncertainString::Parse(text, dna_);
      UJOIN_CHECK(s.ok());
      return std::move(s).value();
    };
    s1_ = parse("A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC");
    s2_ = parse("AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C");
    s3_ = parse("G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C");
    s4_ = parse("{(G,0.8),(T,0.2)}GA{(C,0.3),(G,0.2),(T,0.5)}CT");
    options_.k = 1;
    options_.q = 2;
  }

  Alphabet dna_ = Alphabet::Dna();
  UncertainString r_, s1_, s2_, s3_, s4_;
  QGramOptions options_;
  static constexpr double kTau = 0.25;
};

TEST_F(Table1Test, S1HasNoMatchingSegments) {
  Result<QGramFilterOutcome> out = EvaluateQGramFilter(r_, s1_, options_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->m, 3);
  EXPECT_EQ(out->matched_segments, 0);
  EXPECT_TRUE(out->support_pruned);
  EXPECT_FALSE(out->Survives(kTau));
}

TEST_F(Table1Test, S2HasOneMatchedSegmentAndIsRejected) {
  // S2's second segment instance GG occurs in r, but only outside the
  // position-aware window, so only the third segment matches.  The paper
  // works the example with the positional (±k) window.
  options_.probe.selection = SelectionPolicy::kPositional;
  Result<QGramFilterOutcome> out = EvaluateQGramFilter(r_, s2_, options_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->matched_segments, 1);
  EXPECT_TRUE(out->support_pruned);  // needs m - k = 2 matches
  EXPECT_NEAR(out->alphas[0], 0.0, 1e-12);
  EXPECT_NEAR(out->alphas[1], 0.0, 1e-12);
  EXPECT_NEAR(out->alphas[2], 0.8, 1e-12);  // TC (0.5) + CC (0.3)
  EXPECT_FALSE(out->Survives(kTau));
}

TEST_F(Table1Test, S3AlphasMatchPaperAndBoundRejects) {
  // The paper's α values come from the positional (±k) window.
  options_.probe.selection = SelectionPolicy::kPositional;
  Result<QGramFilterOutcome> out = EvaluateQGramFilter(r_, s3_, options_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->matched_segments, 2);
  EXPECT_FALSE(out->support_pruned);
  ASSERT_EQ(out->alphas.size(), 3u);
  EXPECT_NEAR(out->alphas[0], 1.0, 1e-12);  // GA (0.8) + GG (0.2)
  EXPECT_NEAR(out->alphas[1], 0.0, 1e-12);
  EXPECT_NEAR(out->alphas[2], 0.2, 1e-12);  // CC (0.1) + TC (0.1)
  EXPECT_NEAR(out->upper_bound, 0.2, 1e-12);
  EXPECT_FALSE(out->Survives(kTau));  // 0.2 < τ = 0.25
}

TEST_F(Table1Test, S4SurvivesWithBoundPointFour) {
  Result<QGramFilterOutcome> out = EvaluateQGramFilter(r_, s4_, options_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->matched_segments, 2);
  ASSERT_EQ(out->alphas.size(), 3u);
  EXPECT_NEAR(out->alphas[0], 0.8, 1e-12);  // GG
  EXPECT_NEAR(out->alphas[1], 0.5, 1e-12);  // AT
  EXPECT_NEAR(out->alphas[2], 0.0, 1e-12);
  EXPECT_NEAR(out->upper_bound, 0.4, 1e-12);
  EXPECT_TRUE(out->Survives(kTau));
}

TEST(QGramFilterTest, DeterministicPairsReduceToClassicFiltering) {
  // For deterministic strings the filter must keep any pair within the edit
  // threshold (completeness) — exhaustively over random similar pairs.
  Alphabet names = Alphabet::Names();
  Rng rng(91);
  QGramOptions options;
  for (int trial = 0; trial < 500; ++trial) {
    options.k = static_cast<int>(rng.UniformInt(1, 3));
    options.q = static_cast<int>(rng.UniformInt(2, 4));
    const std::string s = testing::RandomString(
        names, static_cast<int>(rng.UniformInt(options.k + 1, 14)), rng);
    const std::string r = testing::RandomEdits(s, names, options.k, rng);
    if (r.empty()) continue;
    if (EditDistance(r, s) > options.k) continue;
    Result<QGramFilterOutcome> out =
        EvaluateQGramFilter(UncertainString::FromDeterministic(r),
                            UncertainString::FromDeterministic(s), options);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->support_pruned) << "r=" << r << " s=" << s;
    EXPECT_NEAR(out->upper_bound, 1.0, 1e-9) << "r=" << r << " s=" << s;
  }
}

TEST(QGramFilterTest, SupportPruningIsExactlySound) {
  // Lemma 4 is an exact necessary condition: the support-level prune must
  // never fire on a pair with Pr(ed(R,S) <= k) > 0 — strictly, all trials.
  Alphabet dna = Alphabet::Dna();
  Rng rng(92);
  int positive_pairs = 0;
  for (int trial = 0; trial < 800; ++trial) {
    QGramOptions options;
    options.k = static_cast<int>(rng.UniformInt(1, 2));
    options.q = 2;
    testing::RandomStringOptions gen;
    gen.min_length = options.k + 1;
    gen.max_length = 8;
    gen.theta = 0.35;
    gen.max_alternatives = 2;
    const UncertainString s = testing::RandomUncertainString(dna, gen, rng);
    testing::RandomStringOptions gen_r = gen;
    gen_r.min_length = std::max(1, s.length() - options.k);
    gen_r.max_length = s.length() + options.k;
    const UncertainString r = testing::RandomUncertainString(dna, gen_r, rng);
    const double truth = testing::BruteForceMatchProbability(r, s, options.k);
    if (truth <= 0.0) continue;
    ++positive_pairs;
    Result<QGramFilterOutcome> out = EvaluateQGramFilter(r, s, options);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->support_pruned)
        << "R=" << r.ToString() << " S=" << s.ToString() << " k=" << options.k
        << " truth=" << truth;
    EXPECT_GT(out->upper_bound, 0.0);
  }
  EXPECT_GT(positive_pairs, 100);
}

TEST(QGramFilterTest, ProbabilisticBoundIsMostlyAboveTruth) {
  // Theorem 2 treats the segment-match events E_x as independent.  That is
  // exact with respect to S's randomness (segments are disjoint) but not
  // with respect to R's (selection windows overlap in R), so on adversarial
  // uncertain probes the computed "upper bound" can dip below the exact
  // probability.  This test pins down the empirical behaviour the library
  // documents: violations are rare and modest.  Users needing a hard
  // guarantee disable probabilistic pruning (JoinOptions).
  Alphabet dna = Alphabet::Dna();
  Rng rng(93);
  int positive_pairs = 0;
  int violations = 0;
  double worst_shortfall = 0.0;
  for (int trial = 0; trial < 1500; ++trial) {
    QGramOptions options;
    options.k = static_cast<int>(rng.UniformInt(1, 2));
    options.q = 2;
    testing::RandomStringOptions gen;
    gen.min_length = options.k + 1;
    gen.max_length = 8;
    gen.theta = 0.35;
    gen.max_alternatives = 2;
    const UncertainString s = testing::RandomUncertainString(dna, gen, rng);
    testing::RandomStringOptions gen_r = gen;
    gen_r.min_length = std::max(1, s.length() - options.k);
    gen_r.max_length = s.length() + options.k;
    const UncertainString r = testing::RandomUncertainString(dna, gen_r, rng);
    const double truth = testing::BruteForceMatchProbability(r, s, options.k);
    if (truth <= 0.0) continue;
    ++positive_pairs;
    Result<QGramFilterOutcome> out = EvaluateQGramFilter(r, s, options);
    ASSERT_TRUE(out.ok());
    if (out->upper_bound < truth - 1e-9) {
      ++violations;
      worst_shortfall = std::max(worst_shortfall, truth - out->upper_bound);
    }
  }
  EXPECT_GT(positive_pairs, 200);
  // Empirically < 10% of positive pairs on this adversarial workload; the
  // realistic datasets of Section 7 sit far below (see join tests).
  EXPECT_LT(violations, positive_pairs / 10)
      << "violations=" << violations << " of " << positive_pairs;
  EXPECT_LT(worst_shortfall, 0.5);
}

TEST(QGramFilterTest, EmptyCandidateString) {
  QGramOptions options;
  options.k = 2;
  const UncertainString r = UncertainString::FromDeterministic("AC");
  Result<QGramFilterOutcome> out =
      EvaluateQGramFilter(r, UncertainString(), options);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Survives(0.5));  // ed = 2 <= k with certainty
  const UncertainString r2 = UncertainString::FromDeterministic("ACGTA");
  Result<QGramFilterOutcome> out2 =
      EvaluateQGramFilter(r2, UncertainString(), options);
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->Survives(0.0));  // ed = 5 > k
}

TEST(QGramFilterTest, SegmentMatchProbabilityClampsToOne) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> seg = UncertainString::Parse("{(A,0.5),(C,0.5)}", dna);
  ASSERT_TRUE(seg.ok());
  const std::vector<ProbeSubstring> probes = {{"A", 1.0}, {"C", 1.0}};
  EXPECT_NEAR(SegmentMatchProbability(probes, *seg), 1.0, 1e-12);
}

}  // namespace
}  // namespace ujoin
