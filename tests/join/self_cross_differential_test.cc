// Differential test (exactness of the parallel self-join): on the same
// collection C, SimilaritySelfJoin(C) must report exactly the pairs of the
// two-collection SimilarityJoin(C, C) restricted to lhs < rhs.  The two
// drivers share the filter-and-verify cascade (join/probe_cascade.h) and
// the ordered pool (join/ordered_pool.h) but not candidate generation
// (index-then-probe-all through SearchMany versus a length-gated pass with
// id limits), so agreement across randomized
// collections and all four paper variants is strong evidence that both
// drivers' candidate generation and folding are exact.  ExhaustiveSelfJoin
// stays the independent reference for the cascade itself.

#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/cross_join.h"
#include "join/self_join.h"

namespace ujoin {
namespace {

std::set<std::pair<uint32_t, uint32_t>> OrderedPairSet(
    const std::vector<JoinPair>& pairs) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const JoinPair& p : pairs) {
    if (p.lhs < p.rhs) out.insert({p.lhs, p.rhs});
  }
  return out;
}

std::vector<UncertainString> RandomCollection(int size, double theta,
                                              uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = theta;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 11;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

struct VariantCase {
  const char* name;
  JoinOptions options;
};

// Without a printer gtest lists the parameter as a byte dump that starts with
// the `name` pointer, so the listed test name would change from run to run.
void PrintTo(const VariantCase& c, std::ostream* os) { *os << c.name; }

class SelfCrossDifferentialTest : public ::testing::TestWithParam<VariantCase> {
};

TEST_P(SelfCrossDifferentialTest, SelfJoinEqualsCrossJoinOnSameCollection) {
  const Alphabet alphabet = Alphabet::Names();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<UncertainString> collection =
        RandomCollection(45, 0.25, seed);

    JoinOptions options = GetParam().options;
    options.always_verify = true;  // exact probabilities on both paths
    options.threads = 4;           // exercise the parallel pass

    Result<SelfJoinResult> self =
        SimilaritySelfJoin(collection, alphabet, options);
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    Result<CrossJoinResult> cross =
        SimilarityJoin(collection, collection, alphabet, options);
    ASSERT_TRUE(cross.ok()) << cross.status().ToString();

    EXPECT_EQ(OrderedPairSet(self->pairs), OrderedPairSet(cross->pairs))
        << GetParam().name << " seed=" << seed;

    // Exact probabilities must agree pairwise between the two drivers.
    std::map<std::pair<uint32_t, uint32_t>, double> cross_probs;
    for (const JoinPair& p : cross->pairs) {
      if (p.lhs < p.rhs) cross_probs[{p.lhs, p.rhs}] = p.probability;
    }
    for (const JoinPair& p : self->pairs) {
      ASSERT_LT(p.lhs, p.rhs);
      auto it = cross_probs.find({p.lhs, p.rhs});
      ASSERT_NE(it, cross_probs.end());
      EXPECT_NEAR(p.probability, it->second, 1e-9)
          << GetParam().name << " seed=" << seed << " pair=(" << p.lhs << ","
          << p.rhs << ")";
      EXPECT_TRUE(p.exact);
    }
  }
}

TEST_P(SelfCrossDifferentialTest, AgreesWithoutForcedVerification) {
  // Pair sets (not probabilities: CDF-accepted pairs carry lower bounds that
  // may differ between probe orientations) must still agree when the CDF
  // accept shortcut is active.
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = RandomCollection(60, 0.2, 9);

  JoinOptions options = GetParam().options;
  options.threads = 2;

  Result<SelfJoinResult> self =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  Result<CrossJoinResult> cross =
      SimilarityJoin(collection, collection, alphabet, options);
  ASSERT_TRUE(cross.ok()) << cross.status().ToString();

  EXPECT_EQ(OrderedPairSet(self->pairs), OrderedPairSet(cross->pairs))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SelfCrossDifferentialTest,
    ::testing::Values(VariantCase{"QFCT", JoinOptions::Qfct(2, 0.1)},
                      VariantCase{"QCT", JoinOptions::Qct(2, 0.1)},
                      VariantCase{"QFT", JoinOptions::Qft(2, 0.1)},
                      VariantCase{"FCT", JoinOptions::Fct(2, 0.1)}),
    [](const ::testing::TestParamInfo<VariantCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace ujoin
