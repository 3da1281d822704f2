#include "filter/selection.h"

#include <string_view>

#include <gtest/gtest.h>

#include "filter/partition.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "text/edit_distance.h"
#include "util/rng.h"

namespace ujoin {
namespace {

TEST(SelectionWindowTest, EmptyWhenLengthGapExceedsK) {
  const Segment seg{2, 3};
  for (const SelectionPolicy policy :
       {SelectionPolicy::kPositional, SelectionPolicy::kShiftBounded}) {
    EXPECT_TRUE(SelectSubstringWindow(10, 20, seg, 4, policy).empty());
    EXPECT_TRUE(SelectSubstringWindow(20, 10, seg, 4, policy).empty());
  }
}

TEST(SelectionWindowTest, PositionalWindowMatchesTable1) {
  // Table 1: r = GGATCC (len 6), s len 6, q = 2, k = 1, m = 3.
  const std::vector<Segment> segments = EvenPartition(6, 3);
  const SelectionPolicy positional = SelectionPolicy::kPositional;
  // Segment 1 at 0-based start 0: starts {0, 1} (clipped at 0).
  SelectionWindow w1 = SelectSubstringWindow(6, 6, segments[0], 1, positional);
  EXPECT_EQ(w1.lo, 0);
  EXPECT_EQ(w1.hi, 1);
  // Segment 2 at start 2: starts {1, 2, 3}.
  SelectionWindow w2 = SelectSubstringWindow(6, 6, segments[1], 1, positional);
  EXPECT_EQ(w2.lo, 1);
  EXPECT_EQ(w2.hi, 3);
  // Segment 3 at start 4: starts {3, 4} (clipped at |r| - q = 4).
  SelectionWindow w3 = SelectSubstringWindow(6, 6, segments[2], 1, positional);
  EXPECT_EQ(w3.lo, 3);
  EXPECT_EQ(w3.hi, 4);
}

TEST(SelectionWindowTest, ShiftBoundedIsTighterAndBoundedByKPlusOne) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, 5));
    const int s_len = static_cast<int>(rng.UniformInt(4, 30));
    const int r_len =
        s_len + static_cast<int>(rng.UniformInt(-k, k));
    if (r_len < 1) continue;
    const int m = SegmentCount(s_len, k, 3);
    for (const Segment& seg : EvenPartition(s_len, m)) {
      SelectionWindow tight = SelectSubstringWindow(
          r_len, s_len, seg, k, SelectionPolicy::kShiftBounded);
      SelectionWindow wide = SelectSubstringWindow(
          r_len, s_len, seg, k, SelectionPolicy::kPositional);
      EXPECT_LE(tight.size(), k + 1);
      EXPECT_LE(wide.size(), 2 * k + 1);
      if (!tight.empty()) {
        EXPECT_GE(tight.lo, wide.lo);
        EXPECT_LE(tight.hi, wide.hi);
      }
    }
  }
}

// Completeness (Lemma 1): if ed(r, s) <= k then r contains substrings
// matching at least m - k segments of s *within the selection windows* —
// for both policies, over many random similar pairs.
class SelectionCompletenessTest
    : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(SelectionCompletenessTest, SimilarPairsShareEnoughSegments) {
  const SelectionPolicy policy = GetParam();
  Alphabet dna = Alphabet::Dna();
  Rng rng(101);
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(1, 4));
    const int q = static_cast<int>(rng.UniformInt(2, 4));
    const std::string s = testing::RandomString(
        dna, static_cast<int>(rng.UniformInt(k + 1, 16)), rng);
    const std::string r = testing::RandomEdits(s, dna, k, rng);
    if (r.empty()) continue;
    if (EditDistance(r, s) > k) continue;  // only similar pairs matter
    ++checked;
    const int m = SegmentCount(static_cast<int>(s.size()), k, q);
    const std::vector<Segment> segments =
        EvenPartition(static_cast<int>(s.size()), m);
    int matched = 0;
    for (const Segment& seg : segments) {
      const SelectionWindow window = SelectSubstringWindow(
          static_cast<int>(r.size()), static_cast<int>(s.size()), seg, k,
          policy);
      const std::string_view segment_text =
          std::string_view(s).substr(static_cast<size_t>(seg.start),
                                     static_cast<size_t>(seg.length));
      for (int start = window.lo; start <= window.hi; ++start) {
        if (std::string_view(r).substr(static_cast<size_t>(start),
                                       static_cast<size_t>(seg.length)) ==
            segment_text) {
          ++matched;
          break;
        }
      }
    }
    EXPECT_GE(matched, m - k) << "r=" << r << " s=" << s << " k=" << k
                              << " q=" << q;
  }
  EXPECT_GT(checked, 500);  // the generator must actually produce close pairs
}

INSTANTIATE_TEST_SUITE_P(Policies, SelectionCompletenessTest,
                         ::testing::Values(SelectionPolicy::kPositional,
                                           SelectionPolicy::kShiftBounded));

}  // namespace
}  // namespace ujoin
