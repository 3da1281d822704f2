#include "join/self_join.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "verify/compressed_trie.h"
#include "verify/instance_trie.h"

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

// The verifier chain: R's plain trie, R's compressed trie when the plain one
// is over VerifyOptions::max_trie_nodes, then VerifyPairProbability per pair
// (both sides' tries, naive enumeration last).  Capping the trie size forces
// each fallback; the pair set never changes.
TEST(SelfJoinTest, VerifierChainGivesSameResults) {
  // At most two uncertain positions keep every compressed trie small, while
  // the plain tries of most uncertain strings are several times larger.
  DatasetOptions data_opt;
  data_opt.kind = DatasetOptions::Kind::kNames;
  data_opt.size = 120;
  data_opt.theta = 0.3;
  data_opt.seed = 9;
  data_opt.min_length = 4;
  data_opt.max_length = 10;
  data_opt.max_uncertain_positions = 2;
  const Dataset data = GenerateDataset(data_opt);
  const Alphabet& alphabet = data.alphabet;
  const std::vector<UncertainString>& collection = data.strings;
  int64_t max_plain = 0;
  int64_t max_compressed = 0;
  for (const UncertainString& s : collection) {
    max_plain = std::max(max_plain, InstanceTrie::Build(s)->num_nodes());
    max_compressed = std::max(max_compressed,
                              CompressedInstanceTrie::Build(s)->num_nodes());
  }
  // Every compressed trie fits, and the largest plain tries do not.
  const int64_t compressed_cap = max_compressed;
  ASSERT_LT(compressed_cap, max_plain);
  // One node fits only the compressed trie of a certain string, so pairs of
  // two uncertain strings reach naive enumeration.
  const int64_t naive_cap = 1;

  for (const bool always_verify : {false, true}) {
    SCOPED_TRACE(always_verify ? "always_verify" : "verdict");
    // QFT: without the CDF filter every frequency survivor is verified.
    JoinOptions options = JoinOptions::Qft(2, 0.1);
    options.always_verify = always_verify;
    Result<SelfJoinResult> uncapped =
        SimilaritySelfJoin(collection, alphabet, options);
    ASSERT_TRUE(uncapped.ok());
    ASSERT_GT(uncapped->stats.verified_pairs, 0);
    EXPECT_EQ(uncapped->stats.verify_stats.world_pairs, 0);

    for (const int64_t cap : {compressed_cap, naive_cap}) {
      SCOPED_TRACE(cap);
      JoinOptions capped_options = options;
      capped_options.verify.max_trie_nodes = cap;
      Result<SelfJoinResult> capped =
          SimilaritySelfJoin(collection, alphabet, capped_options);
      ASSERT_TRUE(capped.ok());
      EXPECT_EQ(PairSet(*capped), PairSet(*uncapped));
      const VerifyStats& verify = capped->stats.verify_stats;
      if (cap == compressed_cap) {
        // Trie walks only, some of them over R's smaller compressed trie.
        EXPECT_EQ(verify.world_pairs, 0);
        EXPECT_LT(verify.r_trie_nodes,
                  uncapped->stats.verify_stats.r_trie_nodes);
      } else {
        EXPECT_GT(verify.world_pairs, 0);
      }
      if (!always_verify) continue;
      ASSERT_EQ(capped->pairs.size(), uncapped->pairs.size());
      for (size_t i = 0; i < capped->pairs.size(); ++i) {
        EXPECT_TRUE(capped->pairs[i].exact);
        EXPECT_NEAR(capped->pairs[i].probability,
                    uncapped->pairs[i].probability, 1e-9);
      }
    }
  }
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
