#include "join/self_join.h"

#include <map>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace ujoin {
namespace {

std::set<std::pair<uint32_t, uint32_t>> PairSet(const SelfJoinResult& result) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (const JoinPair& p : result.pairs) out.insert({p.lhs, p.rhs});
  return out;
}

std::vector<UncertainString> SmallDataset(int size, double theta,
                                          uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = theta;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

// Every filter combination must return exactly the ground-truth result set.
struct VariantCase {
  const char* name;
  JoinOptions options;
};

// Without a printer gtest lists the parameter as a byte dump that starts with
// the `name` pointer, so the listed test name would change from run to run.
void PrintTo(const VariantCase& c, std::ostream* os) { *os << c.name; }

class JoinVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(JoinVariantTest, MatchesExhaustiveGroundTruth) {
  JoinOptions options = GetParam().options;
  options.always_verify = true;  // exact probabilities for the comparison
  const Alphabet alphabet = Alphabet::Names();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<UncertainString> collection =
        SmallDataset(50, 0.25, seed);
    Result<SelfJoinResult> got =
        SimilaritySelfJoin(collection, alphabet, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<SelfJoinResult> truth =
        ExhaustiveSelfJoin(collection, alphabet, options);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(PairSet(*got), PairSet(*truth))
        << GetParam().name << " seed=" << seed;
    // Exact probabilities must agree pairwise.
    std::map<std::pair<uint32_t, uint32_t>, double> truth_probs;
    for (const JoinPair& p : truth->pairs) {
      truth_probs[{p.lhs, p.rhs}] = p.probability;
    }
    for (const JoinPair& p : got->pairs) {
      const std::pair<uint32_t, uint32_t> key(p.lhs, p.rhs);
      ASSERT_TRUE(truth_probs.count(key));
      EXPECT_NEAR(p.probability, truth_probs[key], 1e-9);
      EXPECT_TRUE(p.exact);
      EXPECT_GT(p.probability, options.tau);
      EXPECT_LT(p.lhs, p.rhs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, JoinVariantTest,
    ::testing::Values(VariantCase{"QFCT", JoinOptions::Qfct(2, 0.1)},
                      VariantCase{"QCT", JoinOptions::Qct(2, 0.1)},
                      VariantCase{"QFT", JoinOptions::Qft(2, 0.1)},
                      VariantCase{"FCT", JoinOptions::Fct(2, 0.1)},
                      VariantCase{"QFCT_k1", JoinOptions::Qfct(1, 0.05)},
                      VariantCase{"QFCT_k3", JoinOptions::Qfct(3, 0.2)},
                      VariantCase{"QFCT_q2", JoinOptions::Qfct(2, 0.1, 2)},
                      VariantCase{"QFCT_q4", JoinOptions::Qfct(2, 0.1, 4)}),
    [](const ::testing::TestParamInfo<VariantCase>& param_info) {
      return param_info.param.name;
    });

// Recall of the default (shift-bounded) selection window at dataset scale:
// names of length 10-35 with up to six uncertain positions and a small
// protein set, where the window is much tighter than the positional ±k one
// (JoinVariantTest's strings of length 4-10 leave the two nearly equal).
// For k = 1..3 and τ ∈ {0.05, 0.3}, the default join's pair set must equal
// the exhaustive oracle's and a positional-window join's.
TEST(SelfJoinTest, DefaultWindowFindsEveryOraclePairAtDatasetScale) {
  struct Collection {
    const char* name;
    DatasetOptions::Kind kind;
    int size;
    int max_uncertain_positions;
  };
  const Collection collections[] = {
      {"names", DatasetOptions::Kind::kNames, 300, 6},
      {"protein", DatasetOptions::Kind::kProtein, 120, 5},
  };
  size_t oracle_pairs = 0;
  for (const Collection& c : collections) {
    DatasetOptions data;
    data.kind = c.kind;
    data.size = c.size;
    data.seed = 61;
    data.max_uncertain_positions = c.max_uncertain_positions;
    const Dataset dataset = GenerateDataset(data);
    for (int k = 1; k <= 3; ++k) {
      // One oracle run per k: it computes every pair's exact probability,
      // so each τ's ground truth is the pairs above τ.
      Result<SelfJoinResult> oracle = ExhaustiveSelfJoin(
          dataset.strings, dataset.alphabet, JoinOptions::Qfct(k, 0.0));
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (const double tau : {0.05, 0.3}) {
        std::set<std::pair<uint32_t, uint32_t>> truth;
        for (const JoinPair& p : oracle->pairs) {
          if (p.probability > tau) truth.insert({p.lhs, p.rhs});
        }
        oracle_pairs += truth.size();
        const JoinOptions tight = JoinOptions::Qfct(k, tau);
        ASSERT_EQ(tight.probe.selection, SelectionPolicy::kShiftBounded);
        JoinOptions positional = tight;
        positional.probe.selection = SelectionPolicy::kPositional;
        for (const JoinOptions& options : {tight, positional}) {
          Result<SelfJoinResult> got =
              SimilaritySelfJoin(dataset.strings, dataset.alphabet, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(PairSet(*got), truth)
              << c.name << " k=" << k << " tau=" << tau << " window="
              << (options.probe.selection == SelectionPolicy::kPositional
                      ? "positional"
                      : "shift-bounded");
        }
      }
    }
  }
  // The check shows nothing unless the oracle finds pairs to miss.
  EXPECT_GT(oracle_pairs, 1000u);
}

TEST(SelfJoinTest, CdfAcceptedPairsCarryCertifiedLowerBounds) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 0.2, 7);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = false;  // allow CDF accepts
  Result<SelfJoinResult> fast =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(fast.ok());
  options.always_verify = true;
  Result<SelfJoinResult> exact =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(PairSet(*fast), PairSet(*exact));
  std::map<std::pair<uint32_t, uint32_t>, double> exact_probs;
  for (const JoinPair& p : exact->pairs) {
    exact_probs[{p.lhs, p.rhs}] = p.probability;
  }
  for (const JoinPair& p : fast->pairs) {
    const std::pair<uint32_t, uint32_t> key(p.lhs, p.rhs);
    EXPECT_GT(p.probability, options.tau);
    if (!p.exact) {
      // CDF lower bound must under-approximate the exact probability.
      EXPECT_LE(p.probability, exact_probs[key] + 1e-9);
    } else {
      EXPECT_NEAR(p.probability, exact_probs[key], 1e-9);
    }
  }
}

TEST(SelfJoinTest, ConservativeQGramModeAlsoExact) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(50, 0.3, 21);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.qgram_probabilistic_pruning = false;
  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok());
  Result<SelfJoinResult> truth =
      ExhaustiveSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(PairSet(*got), PairSet(*truth));
}

TEST(SelfJoinTest, AllVerifyMethodsGiveSameResults) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(30, 0.25, 9);
  JoinOptions trie_options = JoinOptions::Qfct(2, 0.1);
  JoinOptions compressed_options = trie_options;
  compressed_options.verify_method = VerifyMethod::kCompressedTrie;
  JoinOptions naive_options = trie_options;
  naive_options.verify_method = VerifyMethod::kNaive;
  Result<SelfJoinResult> trie =
      SimilaritySelfJoin(collection, alphabet, trie_options);
  Result<SelfJoinResult> compressed =
      SimilaritySelfJoin(collection, alphabet, compressed_options);
  Result<SelfJoinResult> naive =
      SimilaritySelfJoin(collection, alphabet, naive_options);
  ASSERT_TRUE(trie.ok() && compressed.ok() && naive.ok());
  EXPECT_EQ(PairSet(*trie), PairSet(*naive));
  EXPECT_EQ(PairSet(*trie), PairSet(*compressed));
}

TEST(SelfJoinTest, StatsFlowAddsUp) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(80, 0.2, 31);
  const JoinOptions options = JoinOptions::Qfct(2, 0.1);
  Result<SelfJoinResult> out =
      SimilaritySelfJoin(collection, alphabet, options);
  ASSERT_TRUE(out.ok());
  const JoinStats& stats = out->stats;
  EXPECT_GE(stats.length_compatible_pairs, stats.qgram_candidates);
  EXPECT_GE(stats.qgram_candidates, stats.freq_candidates);
  EXPECT_EQ(stats.freq_candidates,
            stats.cdf_accepted + stats.cdf_rejected + stats.cdf_undecided);
  EXPECT_EQ(stats.verified_pairs, stats.cdf_undecided);
  EXPECT_EQ(stats.result_pairs, static_cast<int64_t>(out->pairs.size()));
  EXPECT_GT(stats.peak_index_memory, 0u);
  EXPECT_GE(stats.total_time, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(SelfJoinTest, DuplicateStringsAreReported) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<UncertainString> s = UncertainString::Parse(
      "AC{(G,0.8),(T,0.2)}TACG", alphabet);
  ASSERT_TRUE(s.ok());
  const std::vector<UncertainString> collection = {*s, *s, *s};
  Result<SelfJoinResult> out =
      SimilaritySelfJoin(collection, alphabet, JoinOptions::Qfct(1, 0.5));
  ASSERT_TRUE(out.ok());
  // All three pairs are similar with probability ~1 (> 0.5).
  EXPECT_EQ(out->pairs.size(), 3u);
}

TEST(SelfJoinTest, EmptyAndSingletonCollections) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<SelfJoinResult> empty =
      SimilaritySelfJoin({}, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->pairs.empty());
  Result<SelfJoinResult> one = SimilaritySelfJoin(
      {UncertainString::FromDeterministic("ACGT")}, alphabet,
      JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(one->pairs.empty());
}

TEST(SelfJoinTest, RejectsEmptyStringsAndForeignSymbols) {
  const Alphabet alphabet = Alphabet::Dna();
  Result<SelfJoinResult> empty_string = SimilaritySelfJoin(
      {UncertainString::FromDeterministic("ACG"), UncertainString()}, alphabet,
      JoinOptions::Qfct(1, 0.1));
  EXPECT_FALSE(empty_string.ok());
  Result<SelfJoinResult> foreign = SimilaritySelfJoin(
      {UncertainString::FromDeterministic("XYZ")}, alphabet,
      JoinOptions::Qfct(1, 0.1));
  EXPECT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelfJoinTest, TauZeroReportsAllPositiveProbabilityPairs) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(25, 0.3, 13);
  JoinOptions options = JoinOptions::Qfct(2, 0.0);
  options.always_verify = true;
  Result<SelfJoinResult> got =
      SimilaritySelfJoin(collection, alphabet, options);
  Result<SelfJoinResult> truth =
      ExhaustiveSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok() && truth.ok());
  EXPECT_EQ(PairSet(*got), PairSet(*truth));
  for (const JoinPair& p : got->pairs) EXPECT_GT(p.probability, 0.0);
}

TEST(SelfJoinTest, ResultsSortedAndUnique) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 0.25, 17);
  Result<SelfJoinResult> out =
      SimilaritySelfJoin(collection, alphabet, JoinOptions::Qfct(2, 0.05));
  ASSERT_TRUE(out.ok());
  for (size_t i = 1; i < out->pairs.size(); ++i) {
    EXPECT_TRUE(out->pairs[i - 1] < out->pairs[i]);
  }
}

}  // namespace
}  // namespace ujoin
