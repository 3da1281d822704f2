#include "filter/probe_set.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/selection.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "text/possible_worlds.h"
#include "util/rng.h"

namespace ujoin {
namespace {

std::map<std::string, double> ToMap(const std::vector<ProbeSubstring>& set) {
  std::map<std::string, double> out;
  for (const ProbeSubstring& p : set) out[p.text] = p.prob;
  return out;
}

TEST(ProbeSetTest, DeterministicProbeSetListsWindowSubstrings) {
  // Table 1: r = GGATCC, q = 2, k = 1, m = 3, positional windows.
  const UncertainString r = UncertainString::FromDeterministic("GGATCC");
  const std::vector<Segment> segments = EvenPartition(6, 3);
  ProbeSetOptions opt;
  opt.selection = SelectionPolicy::kPositional;

  auto set1 = BuildProbeSet(r, 6, segments[0], 1, opt);
  ASSERT_TRUE(set1.ok());
  EXPECT_EQ(ToMap(*set1), (std::map<std::string, double>{{"GA", 1.0},
                                                         {"GG", 1.0}}));
  auto set2 = BuildProbeSet(r, 6, segments[1], 1, opt);
  ASSERT_TRUE(set2.ok());
  EXPECT_EQ(ToMap(*set2), (std::map<std::string, double>{
                              {"AT", 1.0}, {"GA", 1.0}, {"TC", 1.0}}));
  auto set3 = BuildProbeSet(r, 6, segments[2], 1, opt);
  ASSERT_TRUE(set3.ok());
  EXPECT_EQ(ToMap(*set3), (std::map<std::string, double>{{"CC", 1.0},
                                                         {"TC", 1.0}}));
}

TEST(ProbeSetTest, Section32OverlapGroupingExample) {
  // R = A{(A,0.8),(C,0.2)}AATT, q = 3, k = 1, segment S^1 at position 0,
  // positional window (starts 0 and 1): the naive sum double-counts AAA
  // (1.32); the grouped set is {(AAA, 0.8), (ACA, 0.2), (CAA, 0.2)}.
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> r =
      UncertainString::Parse("A{(A,0.8),(C,0.2)}AATT", dna);
  ASSERT_TRUE(r.ok());
  const Segment seg{0, 3};
  ProbeSetOptions opt;
  opt.selection = SelectionPolicy::kPositional;
  Result<std::vector<ProbeSubstring>> set = BuildProbeSet(*r, 6, seg, 1, opt);
  ASSERT_TRUE(set.ok());
  const std::map<std::string, double> got = ToMap(*set);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_NEAR(got.at("AAA"), 0.8, 1e-12);
  EXPECT_NEAR(got.at("ACA"), 0.2, 1e-12);
  EXPECT_NEAR(got.at("CAA"), 0.2, 1e-12);
}

TEST(ProbeSetTest, GroupedMatchesExactOnPaperExample) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> r =
      UncertainString::Parse("A{(A,0.8),(C,0.2)}AATT", dna);
  ASSERT_TRUE(r.ok());
  ProbeSetOptions exact_opt;
  exact_opt.exact_union_probability = true;
  Result<std::vector<ProbeSubstring>> exact =
      BuildProbeSet(*r, 6, Segment{0, 3}, 1, exact_opt);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(ToMap(*exact).at("AAA"), 0.8, 1e-12);
}

TEST(ProbeSetTest, ExactOccurrenceProbabilityViaEnumeration) {
  Alphabet dna = Alphabet::Dna();
  Result<UncertainString> r =
      UncertainString::Parse("{(A,0.5),(C,0.5)}A{(A,0.5),(C,0.5)}A", dna);
  ASSERT_TRUE(r.ok());
  // Pr("AA" occurs at start 0 or 2) = Pr(R0=A) + Pr(R2=A) - Pr(both) with
  // independence = 0.5 + 0.5 - 0.25 = 0.75.
  const std::vector<int> starts = {0, 2};
  Result<double> p = ExactOccurrenceProbability(*r, "AA", starts);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.75, 1e-12);
}

TEST(ProbeSetTest, GroupedProbabilityAgainstBruteForceUnion) {
  // Randomized: the paper's grouped recursion versus exact enumeration.
  // Occurrences that do not overlap are exact; overlapping suffix-prefix
  // cases follow the paper's approximation, so we compare against exact
  // union probabilities and record agreement within a loose tolerance while
  // asserting exactness for the non-overlapping decomposition.
  Alphabet dna = Alphabet::Dna();
  Rng rng(55);
  int exact_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    testing::RandomStringOptions opt;
    opt.min_length = 4;
    opt.max_length = 9;
    opt.theta = 0.4;
    opt.max_alternatives = 2;
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    const int q = static_cast<int>(rng.UniformInt(2, 3));
    const std::string w = testing::RandomString(dna, q, rng);
    // Candidate occurrence starts: every position where w can occur.
    std::vector<ProbeOccurrence> occurrences;
    std::vector<int> starts;
    for (int start = 0; start + q <= r.length(); ++start) {
      const double p = MatchProbabilityAt(w, r, start);
      if (p > 0.0) {
        occurrences.push_back(ProbeOccurrence{start, p});
        starts.push_back(start);
      }
    }
    if (occurrences.empty()) continue;
    Result<double> exact = ExactOccurrenceProbability(r, w, starts);
    ASSERT_TRUE(exact.ok());
    const double grouped =
        GroupedOccurrenceProbability(r, w, occurrences);
    // Always a valid probability.
    EXPECT_GE(grouped, -1e-12);
    EXPECT_LE(grouped, 1.0 + 1e-12);
    // Check exactness when no two occurrences overlap.
    bool overlapping = false;
    for (size_t i = 1; i < starts.size(); ++i) {
      overlapping = overlapping || starts[i] < starts[i - 1] + q;
    }
    if (!overlapping) {
      EXPECT_NEAR(grouped, *exact, 1e-9);
      ++exact_cases;
    }
  }
  EXPECT_GT(exact_cases, 30);
}

TEST(ProbeSetTest, EmptyWindowYieldsEmptySet) {
  const UncertainString r = UncertainString::FromDeterministic("ACGT");
  // |r| - |s| = 4 - 10 exceeds k = 2: nothing to probe.
  Result<std::vector<ProbeSubstring>> set =
      BuildProbeSet(r, 10, Segment{0, 3}, 2, ProbeSetOptions{});
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->empty());
}

TEST(ProbeSetTest, InstanceCapReturnsResourceExhausted) {
  UncertainString::Builder b;
  for (int i = 0; i < 10; ++i) b.AddUncertain({{'A', 0.5}, {'C', 0.5}});
  Result<UncertainString> r = b.Build();
  ASSERT_TRUE(r.ok());
  ProbeSetOptions opt;
  opt.max_instances_per_window = 8;
  Result<std::vector<ProbeSubstring>> set =
      BuildProbeSet(*r, 10, Segment{0, 5}, 1, opt);
  ASSERT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProbeSetTest, ProbabilitiesArePositiveAndSortedUnique) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(56);
  testing::RandomStringOptions opt;
  opt.min_length = 6;
  opt.max_length = 12;
  for (int trial = 0; trial < 100; ++trial) {
    const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
    Result<std::vector<ProbeSubstring>> set = BuildProbeSet(
        r, r.length(), Segment{2, 3}, 2, ProbeSetOptions{});
    ASSERT_TRUE(set.ok());
    for (size_t i = 0; i < set->size(); ++i) {
      EXPECT_GT((*set)[i].prob, 0.0);
      EXPECT_LE((*set)[i].prob, 1.0 + 1e-12);
      if (i > 0) {
        EXPECT_LT((*set)[i - 1].text, (*set)[i].text);
      }
    }
  }
}

// The probe set of `seg` built the plain way under `policy`: instances
// grouped in a std::map keyed by std::string, whose byte order (unsigned
// char) the builder's 8-byte prefix comparison must reproduce.
std::vector<ProbeSubstring> ReferenceProbeSet(const UncertainString& r,
                                              int s_len, const Segment& seg,
                                              int k, SelectionPolicy policy) {
  const SelectionWindow window =
      SelectSubstringWindow(r.length(), s_len, seg, k, policy);
  std::map<std::string, std::vector<ProbeOccurrence>> groups;
  for (int start = window.lo; start <= window.hi; ++start) {
    ForEachWorld(r.Substring(start, seg.length),
                 [&](const std::string& instance, double prob) {
                   groups[instance].push_back(ProbeOccurrence{start, prob});
                 });
  }
  std::vector<ProbeSubstring> out;
  for (const auto& [text, occurrences] : groups) {
    const double prob = GroupedOccurrenceProbability(r, text, occurrences);
    if (prob > 0.0) out.push_back(ProbeSubstring{text, prob});
  }
  return out;
}

void ExpectSameProbeSet(const std::vector<ProbeSubstring>& got,
                        const std::vector<ProbeSubstring>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].text, want[i].text) << what << " i=" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].prob),
              std::bit_cast<uint64_t>(want[i].prob))
        << what << " i=" << i;
  }
}

// Segments longer than 8 bytes whose instances share their first 8 bytes,
// over symbols on both sides of 0x80: grouping by the 8-byte big-endian
// prefix and then the remaining bytes must give the texts, order and
// probability bits of a std::string-ordered reference.
TEST(ProbeSetTest, PrefixGroupingMatchesStringOrder) {
  const char kHigh = static_cast<char>(0xe9);
  const std::vector<char> symbols = {'a', 'b', '\x7f', static_cast<char>(0x80),
                                     kHigh, static_cast<char>(0xff)};
  Rng rng(80);
  int shared_prefix_neighbours = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Mostly one high symbol, so that instances at different starts share
    // long prefixes; the rest drawn from both sides of 0x80.
    UncertainString::Builder builder;
    const int length = static_cast<int>(rng.UniformInt(14, 28));
    for (int i = 0; i < length; ++i) {
      const char c = rng.Bernoulli(0.7) ? kHigh : symbols[rng.Uniform(6)];
      if (!rng.Bernoulli(0.25)) {
        builder.AddCertain(c);
        continue;
      }
      char other = symbols[rng.Uniform(6)];
      if (other == c) other = c == 'a' ? 'b' : 'a';
      const double p = 0.2 + 0.6 * rng.UniformDouble();
      builder.AddUncertain({{c, p}, {other, 1.0 - p}});
    }
    Result<UncertainString> r = builder.Build();
    ASSERT_TRUE(r.ok());
    const int k = static_cast<int>(rng.UniformInt(1, 3));
    const int seg_length = static_cast<int>(rng.UniformInt(9, 12));
    const Segment seg{
        static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(length - seg_length + 1))),
        seg_length};
    const ProbeSetOptions options;
    Result<std::vector<ProbeSubstring>> got =
        BuildProbeSet(*r, length, seg, k, options);
    ASSERT_TRUE(got.ok());
    const std::vector<ProbeSubstring> want =
        ReferenceProbeSet(*r, length, seg, k, options.selection);
    ExpectSameProbeSet(*got, want, "trial " + std::to_string(trial));
    for (size_t i = 1; i < got->size(); ++i) {
      if ((*got)[i - 1].text.compare(0, 8, (*got)[i].text, 0, 8) == 0) {
        ++shared_prefix_neighbours;
      }
    }
  }
  // The tail comparison must actually have decided some orders.
  EXPECT_GT(shared_prefix_neighbours, 100);
}

}  // namespace
}  // namespace ujoin
