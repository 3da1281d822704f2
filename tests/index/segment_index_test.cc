#include "index/segment_index.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "filter/qgram_filter.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"

namespace ujoin {
namespace {

UncertainString Parse(const char* text, const Alphabet& alphabet) {
  Result<UncertainString> s = UncertainString::Parse(text, alphabet);
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

TEST(LengthBucketIndexTest, PostingListsHoldInstanceProbabilities) {
  Alphabet dna = Alphabet::Dna();
  LengthBucketIndex bucket(6, /*k=*/1, /*q=*/2);
  ASSERT_EQ(bucket.num_segments(), 3);
  // S2 from Table 1.
  ASSERT_TRUE(bucket
                  .Insert(0, Parse("AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),"
                                   "(T,0.5)}C", dna))
                  .ok());
  const FlatPostings::ListView aa = bucket.Find(0, "AA");
  ASSERT_EQ(aa.size(), 1u);
  EXPECT_EQ(aa[0].id, 0u);
  EXPECT_DOUBLE_EQ(aa[0].prob, 1.0);
  const FlatPostings::ListView gg = bucket.Find(1, "GG");
  ASSERT_FALSE(gg.empty());
  EXPECT_DOUBLE_EQ(gg[0].prob, 0.9);
  const FlatPostings::ListView tc = bucket.Find(2, "TC");
  ASSERT_FALSE(tc.empty());
  EXPECT_DOUBLE_EQ(tc[0].prob, 0.5);
  EXPECT_TRUE(bucket.Find(2, "AC").empty());
}

TEST(LengthBucketIndexTest, RejectsWrongLengthAndOutOfOrderIds) {
  Alphabet dna = Alphabet::Dna();
  LengthBucketIndex bucket(6, 1, 2);
  EXPECT_FALSE(bucket.Insert(0, Parse("ACG", dna)).ok());
  ASSERT_TRUE(bucket.Insert(5, Parse("ACGTAC", dna)).ok());
  Status out_of_order = bucket.Insert(3, Parse("ACGTAC", dna));
  EXPECT_EQ(out_of_order.code(), StatusCode::kFailedPrecondition);
}

TEST(LengthBucketIndexTest, MemoryGrowsWithInsertions) {
  Alphabet dna = Alphabet::Dna();
  LengthBucketIndex bucket(6, 1, 2);
  const size_t empty = bucket.MemoryUsage();
  ASSERT_TRUE(bucket.Insert(0, Parse("ACGTAC", dna)).ok());
  const size_t one = bucket.MemoryUsage();
  ASSERT_TRUE(
      bucket.Insert(1, Parse("A{(C,0.5),(G,0.5)}GTAC", dna)).ok());
  const size_t two = bucket.MemoryUsage();
  EXPECT_GT(one, empty);
  EXPECT_GT(two, one);
}

// Consistency: querying the index must reproduce the pair-at-a-time q-gram
// filter (same candidates, same Theorem 2 bounds) on random collections.
TEST(InvertedSegmentIndexTest, QueryMatchesPairwiseFilter) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(121);
  for (int round = 0; round < 20; ++round) {
    const int k = static_cast<int>(rng.UniformInt(1, 2));
    const int q = static_cast<int>(rng.UniformInt(2, 3));
    const double tau = rng.UniformDouble() * 0.3;
    const int length = static_cast<int>(rng.UniformInt(k + 2, 9));

    testing::RandomStringOptions opt;
    opt.min_length = opt.max_length = length;
    opt.theta = 0.3;
    opt.max_alternatives = 2;
    std::vector<UncertainString> collection;
    for (int i = 0; i < 25; ++i) {
      collection.push_back(testing::RandomUncertainString(dna, opt, rng));
    }
    InvertedSegmentIndex index(k, q);
    for (uint32_t id = 0; id < collection.size(); ++id) {
      ASSERT_TRUE(index.Insert(id, collection[id]).ok());
    }
    testing::RandomStringOptions probe_opt = opt;
    probe_opt.min_length = std::max(1, length - k);
    probe_opt.max_length = length + k;
    const UncertainString r =
        testing::RandomUncertainString(dna, probe_opt, rng);

    const std::vector<IndexCandidate> candidates =
        index.Query(r, length, tau);
    std::map<uint32_t, IndexCandidate> by_id;
    for (const IndexCandidate& c : candidates) by_id[c.id] = c;

    QGramOptions options;
    options.k = k;
    options.q = q;
    for (uint32_t id = 0; id < collection.size(); ++id) {
      Result<QGramFilterOutcome> pairwise =
          EvaluateQGramFilter(r, collection[id], options);
      ASSERT_TRUE(pairwise.ok());
      const bool expected = pairwise->Survives(tau);
      EXPECT_EQ(by_id.count(id) > 0, expected)
          << "id=" << id << " R=" << r.ToString()
          << " S=" << collection[id].ToString() << " k=" << k << " q=" << q
          << " tau=" << tau << " bound=" << pairwise->upper_bound;
      if (expected && by_id.count(id)) {
        EXPECT_NEAR(by_id[id].upper_bound, pairwise->upper_bound, 1e-9);
        EXPECT_EQ(by_id[id].matched_segments, pairwise->matched_segments);
      }
    }
  }
}

TEST(InvertedSegmentIndexTest, ShortStringsBypassPruning) {
  Alphabet dna = Alphabet::Dna();
  // Length 2 with k = 3: m = 2 <= k, so every indexed string is a candidate.
  InvertedSegmentIndex index(3, 3);
  ASSERT_TRUE(index.Insert(0, Parse("AC", dna)).ok());
  ASSERT_TRUE(index.Insert(1, Parse("GT", dna)).ok());
  const std::vector<IndexCandidate> candidates =
      index.Query(Parse("TTT", dna), 2, 0.5);
  EXPECT_EQ(candidates.size(), 2u);
  for (const IndexCandidate& c : candidates) {
    EXPECT_DOUBLE_EQ(c.upper_bound, 1.0);
  }
}

TEST(InvertedSegmentIndexTest, QueryOnUnknownLengthIsEmpty) {
  InvertedSegmentIndex index(2, 3);
  EXPECT_TRUE(index
                  .Query(UncertainString::FromDeterministic("ACGTACGT"), 8,
                         0.1)
                  .empty());
}

TEST(InvertedSegmentIndexTest, StatsAreAccumulated) {
  Alphabet dna = Alphabet::Dna();
  InvertedSegmentIndex index(1, 2);
  ASSERT_TRUE(index.Insert(0, Parse("ACGTAC", dna)).ok());
  ASSERT_TRUE(index.Insert(1, Parse("ACGTAG", dna)).ok());
  IndexQueryStats stats;
  index.Query(Parse("ACGTAC", dna), 6, 0.1, &stats);
  EXPECT_GT(stats.lists_scanned, 0);
  EXPECT_GT(stats.postings_scanned, 0);
  EXPECT_GT(stats.ids_touched, 0);
  EXPECT_EQ(stats.candidates + stats.support_pruned + stats.probability_pruned,
            stats.ids_touched);
}

TEST(InvertedSegmentIndexTest, WildcardSegmentsStayConservative) {
  Alphabet dna = Alphabet::Dna();
  ProbeSetOptions probe;
  probe.max_instances_per_window = 2;  // force segment instance blow-up
  InvertedSegmentIndex index(1, 3, probe);
  // Each segment of length 3 with two uncertain positions has 4 instances,
  // beyond the cap of 2, so all segments are indexed as wildcards.
  const UncertainString s = Parse(
      "{(A,0.5),(C,0.5)}{(A,0.5),(G,0.5)}C{(A,0.5),(C,0.5)}{(A,0.5),(G,0.5)}T",
      dna);
  ASSERT_TRUE(index.Insert(0, s).ok());
  // The probe must still see string 0 as a candidate (alpha treated as 1).
  const std::vector<IndexCandidate> candidates =
      index.Query(Parse("AACAAT", dna), 6, 0.9);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].id, 0u);
  EXPECT_DOUBLE_EQ(candidates[0].upper_bound, 1.0);
}

// Sorted by length, ties by index: the self-join's visiting order.
std::vector<UncertainString> ByLength(std::vector<UncertainString> strings) {
  std::stable_sort(strings.begin(), strings.end(),
                   [](const UncertainString& a, const UncertainString& b) {
                     return a.length() < b.length();
                   });
  return strings;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The prefix argument the parallel self-join rests on: querying an index of
// every string with id_limit = i answers exactly like an index that holds
// only the strings below i (the paper's insert-after-every-string scan),
// frozen or not.  Compares ids, matched segments and the bits of Theorem 2's
// bound for every position i and every length within k of its own.
void ExpectIdLimitMatchesPrefixIndex(
    const std::vector<UncertainString>& strings, int k, double tau,
    const char* label) {
  InvertedSegmentIndex full(k, 3);
  for (uint32_t id = 0; id < strings.size(); ++id) {
    ASSERT_TRUE(full.Insert(id, strings[id]).ok());
  }
  InvertedSegmentIndex frozen = full;
  frozen.Freeze();
  InvertedSegmentIndex prefix(k, 3);
  int64_t compared = 0;
  for (uint32_t i = 0; i < strings.size(); ++i) {
    const UncertainString& r = strings[i];
    for (int l = std::max(1, r.length() - k); l <= r.length() + k; ++l) {
      const std::vector<IndexCandidate> want = prefix.Query(r, l, tau);
      for (const InvertedSegmentIndex* index : {&full, &frozen}) {
        const std::vector<IndexCandidate> got =
            index->Query(r, l, tau, /*stats=*/nullptr, /*id_limit=*/i);
        ASSERT_EQ(got.size(), want.size())
            << label << " i=" << i << " l=" << l;
        for (size_t c = 0; c < got.size(); ++c) {
          EXPECT_EQ(got[c].id, want[c].id) << label << " i=" << i;
          EXPECT_EQ(got[c].matched_segments, want[c].matched_segments)
              << label << " i=" << i << " id=" << got[c].id;
          EXPECT_TRUE(SameBits(got[c].upper_bound, want[c].upper_bound))
              << label << " i=" << i << " id=" << got[c].id;
        }
      }
      compared += static_cast<int64_t>(want.size());
    }
    ASSERT_TRUE(prefix.Insert(i, r).ok());
  }
  EXPECT_GT(compared, 0) << label;  // the property saw real candidates
}

TEST(InvertedSegmentIndexTest, IdLimitMatchesPrefixIndex) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{17}}) {
    DatasetOptions names;
    names.kind = DatasetOptions::Kind::kNames;
    names.size = 160;
    names.seed = seed;
    names.max_uncertain_positions = 4;
    ExpectIdLimitMatchesPrefixIndex(ByLength(GenerateDataset(names).strings),
                                    /*k=*/2, /*tau=*/0.1, "names");

    const Alphabet dna = Alphabet::Dna();
    Rng rng(seed);
    testing::RandomStringOptions opt;
    opt.min_length = 6;
    opt.max_length = 14;
    std::vector<UncertainString> strands;
    for (int n = 0; n < 160; ++n) {
      strands.push_back(testing::RandomUncertainString(dna, opt, rng));
    }
    ExpectIdLimitMatchesPrefixIndex(ByLength(std::move(strands)), /*k=*/1,
                                    /*tau=*/0.05, "dna");
  }
}

TEST(InvertedSegmentIndexTest, MemoryAccountsAllBuckets) {
  Alphabet dna = Alphabet::Dna();
  InvertedSegmentIndex index(1, 2);
  EXPECT_EQ(index.MemoryUsage(), 0u);
  ASSERT_TRUE(index.Insert(0, Parse("ACGTAC", dna)).ok());
  ASSERT_TRUE(index.Insert(1, Parse("ACGTACG", dna)).ok());
  EXPECT_GT(index.MemoryUsage(), 0u);
  EXPECT_NE(index.bucket(6), nullptr);
  EXPECT_NE(index.bucket(7), nullptr);
  EXPECT_EQ(index.bucket(5), nullptr);
  EXPECT_EQ(index.MemoryUsage(),
            index.bucket(6)->MemoryUsage() + index.bucket(7)->MemoryUsage());
}

}  // namespace
}  // namespace ujoin
