#include "filter/freq_filter.h"

#include <cmath>

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "text/frequency.h"
#include "text/possible_worlds.h"
#include "util/rng.h"

namespace ujoin {
namespace {

UncertainString Parse(const char* text, const Alphabet& alphabet) {
  Result<UncertainString> s = UncertainString::Parse(text, alphabet);
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

TEST(FrequencySummaryTest, DeterministicStringCountsExactly) {
  Alphabet dna = Alphabet::Dna();
  FrequencySummary f =
      FrequencySummary::Build(UncertainString::FromDeterministic("ACCGGG"), dna);
  EXPECT_EQ(f.length(), 6);
  EXPECT_EQ(f.ForSymbol(dna.IndexOf('A')).certain_count, 1);
  EXPECT_EQ(f.ForSymbol(dna.IndexOf('C')).certain_count, 2);
  EXPECT_EQ(f.ForSymbol(dna.IndexOf('G')).certain_count, 3);
  EXPECT_EQ(f.ForSymbol(dna.IndexOf('T')).certain_count, 0);
  for (int c = 0; c < dna.size(); ++c) {
    EXPECT_EQ(f.ForSymbol(c).uncertain_count, 0);
    EXPECT_DOUBLE_EQ(f.ForSymbol(c).expected,
                     f.ForSymbol(c).certain_count);
  }
}

TEST(FrequencySummaryTest, PmfMatchesBruteForceWorldEnumeration) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(41);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 9;
  opt.theta = 0.5;
  for (int trial = 0; trial < 60; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const FrequencySummary summary = FrequencySummary::Build(s, dna);
    for (int c = 0; c < dna.size(); ++c) {
      const CharFrequencySummary& cs = summary.ForSymbol(c);
      // Brute-force distribution of the symbol's total count.
      std::vector<double> truth(static_cast<size_t>(s.length()) + 1, 0.0);
      double expected = 0.0;
      ForEachWorld(s, [&](const std::string& instance, double prob) {
        int count = 0;
        for (char ch : instance) count += ch == dna.SymbolAt(c);
        truth[static_cast<size_t>(count)] += prob;
        expected += prob * count;
      });
      EXPECT_NEAR(cs.expected, expected, 1e-9);
      for (int x = 0; x <= s.length(); ++x) {
        const int u = x - cs.certain_count;
        const double pmf = (u >= 0 && u <= cs.uncertain_count)
                               ? cs.pmf[static_cast<size_t>(u)]
                               : 0.0;
        EXPECT_NEAR(pmf, truth[static_cast<size_t>(x)], 1e-9);
      }
    }
  }
}

TEST(FrequencySummaryTest, PrecomputedArraysAreConsistent) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(42);
  testing::RandomStringOptions opt;
  opt.theta = 0.6;
  for (int trial = 0; trial < 40; ++trial) {
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const FrequencySummary summary = FrequencySummary::Build(s, dna);
    for (int c = 0; c < dna.size(); ++c) {
      const CharFrequencySummary& cs = summary.ForSymbol(c);
      const int fu = cs.uncertain_count;
      for (int x = 0; x <= fu; ++x) {
        double scaled_head = 0.0;
        for (int y = 0; y <= x; ++y) {
          scaled_head += (x - y) * cs.pmf[static_cast<size_t>(y)];
        }
        EXPECT_NEAR(cs.scaled_head[static_cast<size_t>(x)], scaled_head, 1e-9);
      }
    }
  }
}

TEST(ExpectedPositivePartTest, MatchesDoubleSum) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(43);
  testing::RandomStringOptions opt;
  opt.theta = 0.5;
  for (int trial = 0; trial < 60; ++trial) {
    const UncertainString a = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString b = testing::RandomUncertainString(dna, opt, rng);
    const FrequencySummary fa = FrequencySummary::Build(a, dna);
    const FrequencySummary fb = FrequencySummary::Build(b, dna);
    for (int c = 0; c < dna.size(); ++c) {
      const CharFrequencySummary& ca = fa.ForSymbol(c);
      const CharFrequencySummary& cb = fb.ForSymbol(c);
      double truth = 0.0;  // naive O(f^u_a · f^u_b) double sum
      for (int x = 0; x <= ca.uncertain_count; ++x) {
        for (int y = 0; y <= cb.uncertain_count; ++y) {
          const int diff =
              (ca.certain_count + x) - (cb.certain_count + y);
          if (diff > 0) {
            truth += ca.pmf[static_cast<size_t>(x)] *
                     cb.pmf[static_cast<size_t>(y)] * diff;
          }
        }
      }
      EXPECT_NEAR(ExpectedPositivePart(ca, cb), truth, 1e-9);
    }
  }
}

TEST(FreqLowerBoundTest, NeverExceedsAnyWorldsFrequencyDistance) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(44);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 8;
  opt.theta = 0.4;
  for (int trial = 0; trial < 100; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const int bound =
        FreqDistanceLowerBound(FrequencySummary::Build(r, dna),
                               FrequencySummary::Build(s, dna));
    const int min_fd = testing::BruteForceMinFreqDistance(r, s, dna);
    EXPECT_LE(bound, min_fd) << "R=" << r.ToString() << " S=" << s.ToString();
  }
}

TEST(FreqLowerBoundTest, TightOnDeterministicStrings) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(45);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string a = testing::RandomString(
        dna, static_cast<int>(rng.UniformInt(1, 10)), rng);
    const std::string b = testing::RandomString(
        dna, static_cast<int>(rng.UniformInt(1, 10)), rng);
    const int bound = FreqDistanceLowerBound(
        FrequencySummary::Build(UncertainString::FromDeterministic(a), dna),
        FrequencySummary::Build(UncertainString::FromDeterministic(b), dna));
    const int exact = FrequencyDistance(MakeFrequencyVector(a, dna).value(),
                                        MakeFrequencyVector(b, dna).value());
    EXPECT_EQ(bound, exact);
  }
}

TEST(ExpectedFreqDistanceTest, MatchesBruteForceExpectations) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(46);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 7;
  opt.theta = 0.4;
  for (int trial = 0; trial < 40; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    double true_pos = 0.0, true_neg = 0.0;
    ForEachWorld(r, [&](const std::string& ri, double pi) {
      const FrequencyVector fr = MakeFrequencyVector(ri, dna).value();
      ForEachWorld(s, [&](const std::string& sj, double pj) {
        const FrequencyVector fs = MakeFrequencyVector(sj, dna).value();
        int pd = 0, nd = 0;
        for (size_t c = 0; c < fr.size(); ++c) {
          if (fr[c] > fs[c]) pd += fr[c] - fs[c];
          if (fs[c] > fr[c]) nd += fs[c] - fr[c];
        }
        true_pos += pi * pj * pd;
        true_neg += pi * pj * nd;
      });
    });
    const ExpectedFreqDistances e = ExpectedFreqDistance(
        FrequencySummary::Build(r, dna), FrequencySummary::Build(s, dna));
    EXPECT_NEAR(e.pos, true_pos, 1e-9);
    EXPECT_NEAR(e.neg, true_neg, 1e-9);
  }
}

TEST(FreqChebyshevBoundTest, UpperBoundsTrueFdProbability) {
  // Theorem 3: the bound must sit above Pr(fd(R,S) <= k), hence above
  // Pr(ed(R,S) <= k), on random uncertain pairs.
  Alphabet dna = Alphabet::Dna();
  Rng rng(47);
  testing::RandomStringOptions opt;
  opt.min_length = 2;
  opt.max_length = 8;
  opt.theta = 0.4;
  int nontrivial = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const UncertainString s = testing::RandomUncertainString(dna, opt, rng);
    const FrequencySummary fr = FrequencySummary::Build(r, dna);
    const FrequencySummary fs = FrequencySummary::Build(s, dna);
    for (int k = 0; k <= 3; ++k) {
      const double bound = FreqChebyshevBound(fr, fs, k);
      const double truth =
          testing::BruteForceFreqDistanceProbability(r, s, k, dna);
      EXPECT_GE(bound, truth - 1e-9)
          << "R=" << r.ToString() << " S=" << s.ToString() << " k=" << k;
      nontrivial += bound < 1.0;
    }
  }
  EXPECT_GT(nontrivial, 50);  // the bound must actually prune sometimes
}

TEST(FreqFilterTest, OutcomeCombinesBothBounds) {
  Alphabet dna = Alphabet::Dna();
  // fd(R, S) = 4 with certainty: lower bound prunes at k <= 3.
  const FrequencySummary r = FrequencySummary::Build(
      UncertainString::FromDeterministic("AAAA"), dna);
  const FrequencySummary s = FrequencySummary::Build(
      UncertainString::FromDeterministic("CCCC"), dna);
  const FreqFilterOutcome out = EvaluateFreqFilter(r, s, /*k=*/3);
  EXPECT_EQ(out.fd_lower_bound, 4);
  EXPECT_DOUBLE_EQ(out.upper_bound, 0.0);
  EXPECT_FALSE(out.Survives(3, 0.0));
  EXPECT_TRUE(EvaluateFreqFilter(r, s, /*k=*/4).Survives(4, 0.5));
}

TEST(FreqFilterTest, IdenticalStringsAlwaysSurvive) {
  Alphabet dna = Alphabet::Dna();
  const UncertainString s = Parse("A{(C,0.5),(G,0.5)}GT", dna);
  const FrequencySummary f = FrequencySummary::Build(s, dna);
  const FreqFilterOutcome out = EvaluateFreqFilter(f, f, /*k=*/1);
  EXPECT_EQ(out.fd_lower_bound, 0);
  EXPECT_TRUE(out.Survives(1, 0.99));
}

TEST(FrequencySummaryTest, MemoryUsageGrowsWithUncertainty) {
  Alphabet dna = Alphabet::Dna();
  const FrequencySummary certain = FrequencySummary::Build(
      UncertainString::FromDeterministic("ACGTACGT"), dna);
  const FrequencySummary uncertain = FrequencySummary::Build(
      Parse("{(A,0.5),(C,0.5)}{(A,0.5),(G,0.5)}{(A,0.5),(T,0.5)}TACGT", dna),
      dna);
  EXPECT_GT(uncertain.MemoryUsage(), certain.MemoryUsage());
}

}  // namespace
}  // namespace ujoin
