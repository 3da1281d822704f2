#include "join/string_level_join.h"

#include <set>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "text/frequency.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace ujoin {
namespace {

std::vector<StringLevelUncertainString> SmallCollection(int size,
                                                        uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  const Dataset data = GenerateDataset(opt);
  std::vector<StringLevelUncertainString> out;
  for (const UncertainString& s : data.strings) {
    Result<StringLevelUncertainString> sl =
        StringLevelUncertainString::FromCharacterLevel(s);
    UJOIN_CHECK(sl.ok());
    out.push_back(std::move(sl).value());
  }
  return out;
}

std::set<std::pair<uint32_t, uint32_t>> BruteForce(
    const std::vector<StringLevelUncertainString>& collection, int k,
    double tau) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  for (uint32_t i = 0; i < collection.size(); ++i) {
    for (uint32_t j = i + 1; j < collection.size(); ++j) {
      if (StringLevelMatchProbability(collection[i], collection[j], k) > tau) {
        out.insert({i, j});
      }
    }
  }
  return out;
}

TEST(StringLevelJoinTest, MatchesBruteForce) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<StringLevelUncertainString> collection =
      SmallCollection(40, 61);
  StringLevelJoinOptions options;
  options.k = 2;
  options.tau = 0.1;
  Result<SelfJoinResult> got =
      StringLevelSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok());
  std::set<std::pair<uint32_t, uint32_t>> got_pairs;
  for (const JoinPair& p : got->pairs) {
    got_pairs.insert({p.lhs, p.rhs});
    EXPECT_GT(p.probability, options.tau);
  }
  EXPECT_EQ(got_pairs, BruteForce(collection, options.k, options.tau));
}

TEST(StringLevelJoinTest, EarlyStopAndExactModesAgree) {
  // The join decides each pair by its (k, τ) verdict: the pair set is the
  // exact one, and each probability is a certified lower bound on the
  // exact match probability (equal to it when flagged exact).
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<StringLevelUncertainString> collection =
      SmallCollection(40, 62);
  StringLevelJoinOptions options;
  options.k = 2;
  options.tau = 0.15;
  Result<SelfJoinResult> got =
      StringLevelSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(got.ok());
  std::set<std::pair<uint32_t, uint32_t>> got_pairs;
  for (const JoinPair& p : got->pairs) {
    got_pairs.insert({p.lhs, p.rhs});
    const double exact =
        StringLevelMatchProbability(collection[p.lhs], collection[p.rhs],
                                    options.k);
    EXPECT_GT(p.probability, options.tau);
    EXPECT_LE(p.probability, exact + 1e-9);
    if (p.exact) {
      EXPECT_NEAR(p.probability, exact, 1e-9);
    }
  }
  EXPECT_EQ(got_pairs, BruteForce(collection, options.k, options.tau));
}

TEST(StringLevelJoinTest, MixedLengthCollections) {
  const Alphabet alphabet = Alphabet::Names();
  // Instances of different lengths — inexpressible character-level.
  auto make = [](std::vector<StringLevelUncertainString::Instance> insts) {
    Result<StringLevelUncertainString> s =
        StringLevelUncertainString::Create(std::move(insts));
    UJOIN_CHECK(s.ok());
    return std::move(s).value();
  };
  const std::vector<StringLevelUncertainString> collection = {
      make({{"jon smith", 0.7}, {"john smith", 0.3}}),
      make({{"john smith", 0.8}, {"jon smyth", 0.2}}),
      make({{"completely different", 1.0}}),
  };
  StringLevelJoinOptions options;
  options.k = 2;
  options.tau = 0.5;
  Result<SelfJoinResult> out =
      StringLevelSelfJoin(collection, alphabet, options);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->pairs.size(), 1u);
  EXPECT_EQ(out->pairs[0].lhs, 0u);
  EXPECT_EQ(out->pairs[0].rhs, 1u);
}

TEST(StringLevelJoinTest, FreqEnvelopeBoundIsSound) {
  Rng rng(63);
  const Alphabet dna = Alphabet::Dna();
  for (int trial = 0; trial < 100; ++trial) {
    // Random small pdfs; the envelope bound must never exceed the true
    // minimum fd over world pairs.
    auto random_pdf = [&]() {
      std::vector<StringLevelUncertainString::Instance> insts;
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      double remaining = 1.0;
      for (int i = 0; i < n; ++i) {
        const double p =
            i + 1 == n ? remaining : remaining * (0.3 + 0.4 * rng.UniformDouble());
        remaining -= i + 1 == n ? 0.0 : p;
        std::string text = testing::RandomString(
            dna, static_cast<int>(rng.UniformInt(1, 6)), rng);
        // Texts must be distinct: retry by appending.
        for (const auto& prev : insts) {
          if (prev.text == text) text += "A";
        }
        insts.push_back({text, p});
      }
      Result<StringLevelUncertainString> s =
          StringLevelUncertainString::Create(std::move(insts));
      UJOIN_CHECK(s.ok());
      return std::move(s).value();
    };
    const StringLevelUncertainString a = random_pdf();
    const StringLevelUncertainString b = random_pdf();
    // Brute-force minimum frequency distance across world pairs.
    int min_fd = INT32_MAX;
    for (const auto& ia : a.instances()) {
      for (const auto& ib : b.instances()) {
        min_fd = std::min(
            min_fd, FrequencyDistance(MakeFrequencyVector(ia.text, dna).value(),
                                      MakeFrequencyVector(ib.text, dna).value()));
      }
    }
    // Envelope bound.
    std::vector<int> amin, amax, bmin, bmax;
    auto envelope = [&](const StringLevelUncertainString& s,
                        std::vector<int>* mn, std::vector<int>* mx) {
      for (int i = 0; i < s.num_instances(); ++i) {
        FrequencyVector f =
            MakeFrequencyVector(s.instance(i).text, dna).value();
        if (i == 0) {
          *mn = f;
          *mx = f;
        } else {
          for (size_t c = 0; c < f.size(); ++c) {
            (*mn)[c] = std::min((*mn)[c], f[c]);
            (*mx)[c] = std::max((*mx)[c], f[c]);
          }
        }
      }
    };
    envelope(a, &amin, &amax);
    envelope(b, &bmin, &bmax);
    EXPECT_LE(StringLevelFreqDistanceLowerBound(amin, amax, bmin, bmax),
              min_fd);
  }
}

}  // namespace
}  // namespace ujoin
