// Randomized whole-pipeline consistency sweep: many small collections with
// random parameters, each checked against exhaustive ground truth.  This is
// the widest net in the suite — anything the targeted tests miss tends to
// surface here first.

#include <set>

#include <gtest/gtest.h>

#include "join/ujoin.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace ujoin {
namespace {

struct StressCase {
  uint64_t seed;
};

class PipelineStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(PipelineStressTest, RandomConfigurationMatchesGroundTruth) {
  Rng rng(GetParam().seed);
  const Alphabet alphabet = Alphabet::Dna();  // small Σ: many collisions

  JoinOptions options;
  options.k = static_cast<int>(rng.UniformInt(0, 3));
  options.q = static_cast<int>(rng.UniformInt(2, 4));
  options.tau = rng.UniformDouble() * 0.6;
  options.use_freq_filter = rng.Bernoulli(0.7);
  options.use_cdf_filter = rng.Bernoulli(0.7);
  options.qgram_probabilistic_pruning = rng.Bernoulli(0.7);
  options.always_verify = rng.Bernoulli(0.5);

  testing::RandomStringOptions gen;
  gen.min_length = std::max(1, options.k);
  gen.max_length = 9;
  gen.theta = 0.2 + 0.3 * rng.UniformDouble();
  gen.max_alternatives = 3;
  std::vector<UncertainString> collection;
  const int size = static_cast<int>(rng.UniformInt(10, 35));
  for (int i = 0; i < size; ++i) {
    collection.push_back(testing::RandomUncertainString(alphabet, gen, rng));
  }

  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Ground truth by brute-force world enumeration.
  std::set<std::pair<uint32_t, uint32_t>> truth;
  for (uint32_t i = 0; i < collection.size(); ++i) {
    for (uint32_t j = i + 1; j < collection.size(); ++j) {
      if (testing::BruteForceMatchProbability(collection[i], collection[j],
                                              options.k) > options.tau) {
        truth.insert({i, j});
      }
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> got_pairs;
  for (const JoinPair& p : got->pairs) {
    got_pairs.insert({p.lhs, p.rhs});
    EXPECT_GT(p.probability, options.tau);
  }
  if (options.qgram_probabilistic_pruning) {
    // Theorem 2's bound is an approximation under R-side correlation (see
    // DESIGN.md): allow no false positives and at most a whisker of misses
    // on these adversarial small-alphabet inputs.
    for (const auto& pair : got_pairs) {
      EXPECT_TRUE(truth.count(pair))
          << "false positive (" << pair.first << "," << pair.second << ")";
    }
    size_t missed = 0;
    for (const auto& pair : truth) missed += !got_pairs.count(pair);
    EXPECT_LE(missed, truth.size() / 10 + 1)
        << "seed=" << GetParam().seed << " k=" << options.k
        << " tau=" << options.tau;
  } else {
    // Conservative mode: exact equality, always.
    EXPECT_EQ(got_pairs, truth)
        << "seed=" << GetParam().seed << " k=" << options.k
        << " q=" << options.q << " tau=" << options.tau
        << " freq=" << options.use_freq_filter
        << " cdf=" << options.use_cdf_filter;
  }
}

std::vector<StressCase> MakeCases() {
  std::vector<StressCase> cases;
  for (uint64_t seed = 1000; seed < 1040; ++seed) cases.push_back({seed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineStressTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<StressCase>&
                                param_info) {
                           return "seed" +
                                  std::to_string(param_info.param.seed);
                         });

}  // namespace
}  // namespace ujoin
