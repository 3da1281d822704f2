#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/self_join.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

TEST(DecideSimilarTest, VerdictMatchesExactProbabilityOnRandomPairs) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(311);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 8;
  opt.theta = 0.45;
  int early_stops = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const int k = static_cast<int>(rng.UniformInt(0, 3));
    const double tau = rng.UniformDouble();
    Result<TrieVerifier> verifier = TrieVerifier::Create(r, k);
    ASSERT_TRUE(verifier.ok());
    const ThresholdVerdict verdict = verifier->DecideSimilar(s, tau);
    const double truth = testing::BruteForceMatchProbability(r, s, k);
    EXPECT_EQ(verdict.similar, truth > tau)
        << "R=" << r.ToString() << " S=" << s.ToString() << " k=" << k
        << " tau=" << tau << " truth=" << truth;
    EXPECT_LE(verdict.lower, truth + 1e-9);
    EXPECT_GE(verdict.upper, truth - 1e-9);
    if (verdict.exact) {
      EXPECT_NEAR(verdict.lower, verdict.upper, 1e-12);
      EXPECT_NEAR(verdict.lower, truth, 1e-9);
    } else {
      ++early_stops;
    }
  }
  EXPECT_GT(early_stops, 30);  // early termination must actually happen
}

TEST(DecideSimilarTest, EarlyStopExploresFewerNodes) {
  Alphabet dna = Alphabet::Dna();
  // A pair that is obviously similar: identical strings with many uncertain
  // positions.  The accept threshold is crossed long before the full walk.
  UncertainString::Builder b;
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      b.AddUncertain({{'A', 0.9}, {'C', 0.1}});
    } else {
      b.AddCertain('G');
    }
  }
  const UncertainString s = b.Build().value();
  Result<TrieVerifier> verifier = TrieVerifier::Create(s, 2);
  ASSERT_TRUE(verifier.ok());
  VerifyStats full_stats, early_stats;
  verifier->Probability(s, &full_stats);
  const ThresholdVerdict verdict =
      verifier->DecideSimilar(s, 0.01, &early_stats);
  EXPECT_TRUE(verdict.similar);
  EXPECT_FALSE(verdict.exact);
  EXPECT_LT(early_stats.explored_s_nodes, full_stats.explored_s_nodes);
}

TEST(DecideSimilarTest, CompletedWalkIsExact) {
  Alphabet dna = Alphabet::Dna();
  const UncertainString r = UncertainString::FromDeterministic("ACGTAC");
  Result<UncertainString> s =
      UncertainString::Parse("AC{(G,0.6),(T,0.4)}TAC", dna);
  ASSERT_TRUE(s.ok());
  Result<TrieVerifier> verifier = TrieVerifier::Create(r, 0);
  ASSERT_TRUE(verifier.ok());
  // tau = 0.99 cannot accept early, and only the last alternative certifies
  // the rejection, so nothing is left unwalked: expect an exact 0.6.
  const ThresholdVerdict verdict = verifier->DecideSimilar(*s, 0.99);
  EXPECT_FALSE(verdict.similar);
  EXPECT_TRUE(verdict.exact);
  EXPECT_DOUBLE_EQ(verdict.lower, 0.6);
  EXPECT_DOUBLE_EQ(verdict.upper, 0.6);
}

TEST(EarlyStopJoinTest, SameResultSetAsExactJoin) {
  DatasetOptions data_opt;
  data_opt.kind = DatasetOptions::Kind::kNames;
  data_opt.size = 60;
  data_opt.theta = 0.3;
  data_opt.seed = 71;
  data_opt.min_length = 4;
  data_opt.max_length = 10;
  data_opt.max_uncertain_positions = 4;
  const Dataset data = GenerateDataset(data_opt);
  // The default join decides verified pairs by their (k, τ) verdict;
  // always_verify asks for exact probabilities.
  const JoinOptions early_options = JoinOptions::Qfct(2, 0.1);
  JoinOptions exact_options = early_options;
  exact_options.always_verify = true;
  Result<SelfJoinResult> exact =
      SimilaritySelfJoin(data.strings, data.alphabet, exact_options);
  Result<SelfJoinResult> early =
      SimilaritySelfJoin(data.strings, data.alphabet, early_options);
  ASSERT_TRUE(exact.ok() && early.ok());
  ASSERT_EQ(exact->pairs.size(), early->pairs.size());
  for (size_t i = 0; i < exact->pairs.size(); ++i) {
    EXPECT_EQ(exact->pairs[i].lhs, early->pairs[i].lhs);
    EXPECT_EQ(exact->pairs[i].rhs, early->pairs[i].rhs);
    // Early-stop probabilities are certified lower bounds.
    EXPECT_LE(early->pairs[i].probability,
              exact->pairs[i].probability + 1e-9);
    EXPECT_GT(early->pairs[i].probability, early_options.tau);
  }
}

}  // namespace
}  // namespace ujoin
