#include "join/join_stats.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/self_join.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace ujoin {
namespace {

JoinStats RandomStats(Rng& rng) {
  JoinStats s;
  s.length_compatible_pairs = static_cast<int64_t>(rng.Uniform(1000));
  s.qgram_candidates = static_cast<int64_t>(rng.Uniform(1000));
  s.freq_candidates = static_cast<int64_t>(rng.Uniform(1000));
  s.freq_lower_pruned = static_cast<int64_t>(rng.Uniform(1000));
  s.freq_upper_pruned = static_cast<int64_t>(rng.Uniform(1000));
  s.cdf_accepted = static_cast<int64_t>(rng.Uniform(1000));
  s.cdf_rejected = static_cast<int64_t>(rng.Uniform(1000));
  s.cdf_undecided = static_cast<int64_t>(rng.Uniform(1000));
  s.verified_pairs = static_cast<int64_t>(rng.Uniform(1000));
  s.result_pairs = static_cast<int64_t>(rng.Uniform(1000));
  s.qgram_time = rng.UniformDouble();
  s.freq_time = rng.UniformDouble();
  s.cdf_time = rng.UniformDouble();
  s.verify_time = rng.UniformDouble();
  s.index_build_time = rng.UniformDouble();
  s.total_time = rng.UniformDouble();
  s.peak_index_memory = static_cast<size_t>(rng.Uniform(1 << 20));
  s.index_stats.lists_scanned = static_cast<int64_t>(rng.Uniform(1000));
  s.index_stats.postings_scanned = static_cast<int64_t>(rng.Uniform(1000));
  s.index_stats.ids_touched = static_cast<int64_t>(rng.Uniform(1000));
  s.index_stats.support_pruned = static_cast<int64_t>(rng.Uniform(1000));
  s.index_stats.probability_pruned = static_cast<int64_t>(rng.Uniform(1000));
  s.index_stats.candidates = static_cast<int64_t>(rng.Uniform(1000));
  s.verify_stats.r_trie_nodes = static_cast<int64_t>(rng.Uniform(1000));
  s.verify_stats.explored_s_nodes = static_cast<int64_t>(rng.Uniform(1000));
  s.verify_stats.active_entries = static_cast<int64_t>(rng.Uniform(1000));
  s.verify_stats.world_pairs = static_cast<int64_t>(rng.Uniform(1000));
  s.verified_hits = static_cast<int64_t>(rng.Uniform(1000));
  s.verify_worlds = static_cast<int64_t>(rng.Uniform(1000));
  return s;
}

TEST(JoinStatsMergeTest, CountersAndTimingsSumMemoryTakesMax) {
  JoinStats a;
  a.qgram_candidates = 5;
  a.verified_pairs = 3;
  a.result_pairs = 2;
  a.verified_hits = 1;
  a.verify_worlds = 40;
  a.qgram_time = 0.5;
  a.verify_time = 1.25;
  a.peak_index_memory = 100;
  a.index_stats.postings_scanned = 7;
  a.verify_stats.r_trie_nodes = 11;

  JoinStats b;
  b.qgram_candidates = 4;
  b.verified_pairs = 6;
  b.result_pairs = 1;
  b.verified_hits = 1;
  b.verify_worlds = 2;
  b.qgram_time = 0.25;
  b.verify_time = 0.75;
  b.peak_index_memory = 60;
  b.index_stats.postings_scanned = 13;
  b.verify_stats.r_trie_nodes = 17;

  a.Merge(b);
  EXPECT_EQ(a.qgram_candidates, 9);
  EXPECT_EQ(a.verified_pairs, 9);
  EXPECT_EQ(a.result_pairs, 3);
  EXPECT_EQ(a.verified_hits, 2);
  EXPECT_EQ(a.verify_worlds, 42);
  EXPECT_DOUBLE_EQ(a.qgram_time, 0.75);
  EXPECT_DOUBLE_EQ(a.verify_time, 2.0);
  EXPECT_EQ(a.peak_index_memory, 100u);  // max, not sum
  EXPECT_EQ(a.index_stats.postings_scanned, 20);
  EXPECT_EQ(a.verify_stats.r_trie_nodes, 28);

  JoinStats c;
  c.peak_index_memory = 500;
  a.Merge(c);
  EXPECT_EQ(a.peak_index_memory, 500u);  // larger operand wins

  // World-count sums saturate like the world counts themselves.
  JoinStats huge;
  huge.verify_worlds = kWorldCountCap;
  a.Merge(huge);
  EXPECT_EQ(a.verify_worlds, kWorldCountCap);
}

TEST(JoinStatsMergeTest, MergingIntoDefaultIsIdentity) {
  Rng rng(99);
  const JoinStats original = RandomStats(rng);
  JoinStats merged;
  merged.Merge(original);
  EXPECT_EQ(merged.length_compatible_pairs, original.length_compatible_pairs);
  EXPECT_EQ(merged.qgram_candidates, original.qgram_candidates);
  EXPECT_EQ(merged.index_stats.support_pruned,
            original.index_stats.support_pruned);
  EXPECT_EQ(merged.index_stats.probability_pruned,
            original.index_stats.probability_pruned);
  EXPECT_EQ(merged.freq_candidates, original.freq_candidates);
  EXPECT_EQ(merged.freq_lower_pruned, original.freq_lower_pruned);
  EXPECT_EQ(merged.freq_upper_pruned, original.freq_upper_pruned);
  EXPECT_EQ(merged.cdf_accepted, original.cdf_accepted);
  EXPECT_EQ(merged.cdf_rejected, original.cdf_rejected);
  EXPECT_EQ(merged.cdf_undecided, original.cdf_undecided);
  EXPECT_EQ(merged.verified_pairs, original.verified_pairs);
  EXPECT_EQ(merged.result_pairs, original.result_pairs);
  EXPECT_EQ(merged.verified_hits, original.verified_hits);
  EXPECT_EQ(merged.verify_worlds, original.verify_worlds);
  EXPECT_DOUBLE_EQ(merged.qgram_time, original.qgram_time);
  EXPECT_DOUBLE_EQ(merged.freq_time, original.freq_time);
  EXPECT_DOUBLE_EQ(merged.cdf_time, original.cdf_time);
  EXPECT_DOUBLE_EQ(merged.verify_time, original.verify_time);
  EXPECT_DOUBLE_EQ(merged.index_build_time, original.index_build_time);
  EXPECT_DOUBLE_EQ(merged.total_time, original.total_time);
  EXPECT_EQ(merged.peak_index_memory, original.peak_index_memory);
  EXPECT_EQ(merged.index_stats.candidates, original.index_stats.candidates);
  EXPECT_EQ(merged.verify_stats.world_pairs, original.verify_stats.world_pairs);
}

// Property: folding N random "thread-local" stats into a total yields the
// field-wise sums (max for peak memory), independent of fold grouping.
TEST(JoinStatsMergeTest, FoldingEqualsFieldwiseSums) {
  Rng rng(7);
  std::vector<JoinStats> locals;
  for (int i = 0; i < 8; ++i) locals.push_back(RandomStats(rng));

  JoinStats sequential;
  for (const JoinStats& s : locals) sequential.Merge(s);

  // Fold in two halves, then merge the halves (associativity).
  JoinStats left, right;
  for (int i = 0; i < 4; ++i) left.Merge(locals[static_cast<size_t>(i)]);
  for (int i = 4; i < 8; ++i) right.Merge(locals[static_cast<size_t>(i)]);
  JoinStats grouped;
  grouped.Merge(left);
  grouped.Merge(right);

  int64_t expected_verified = 0;
  int64_t expected_verified_hits = 0;
  int64_t expected_worlds = 0;
  size_t expected_peak = 0;
  for (const JoinStats& s : locals) {
    expected_verified += s.verified_pairs;
    expected_verified_hits += s.verified_hits;
    expected_worlds += s.verify_worlds;
    expected_peak = std::max(expected_peak, s.peak_index_memory);
  }
  EXPECT_EQ(sequential.verified_pairs, expected_verified);
  EXPECT_EQ(sequential.peak_index_memory, expected_peak);
  EXPECT_EQ(grouped.verified_pairs, expected_verified);
  EXPECT_EQ(grouped.peak_index_memory, expected_peak);
  EXPECT_EQ(sequential.verified_hits, expected_verified_hits);
  EXPECT_EQ(grouped.verified_hits, expected_verified_hits);
  EXPECT_EQ(sequential.verify_worlds, expected_worlds);
  EXPECT_EQ(grouped.verify_worlds, expected_worlds);
  EXPECT_EQ(grouped.qgram_candidates, sequential.qgram_candidates);
  EXPECT_EQ(grouped.index_stats.postings_scanned,
            sequential.index_stats.postings_scanned);
  EXPECT_EQ(grouped.verify_stats.active_entries,
            sequential.verify_stats.active_entries);
}

// Property on the real pipeline: the parallel self-join folds per-probe
// stats with Merge; its pair-flow and index work counters must equal the
// one-thread run's counters.
TEST(JoinStatsMergeTest, MergedThreadLocalStatsEqualSequentialPairFlow) {
  DatasetOptions data;
  data.kind = DatasetOptions::Kind::kNames;
  data.size = 70;
  data.theta = 0.25;
  data.seed = 5;
  data.min_length = 4;
  data.max_length = 10;
  data.max_uncertain_positions = 4;
  const Dataset dataset = GenerateDataset(data);

  JoinOptions sequential_options = JoinOptions::Qfct(2, 0.1);
  sequential_options.threads = 1;
  Result<SelfJoinResult> sequential =
      SimilaritySelfJoin(dataset.strings, dataset.alphabet,
                         sequential_options);
  ASSERT_TRUE(sequential.ok());

  JoinOptions parallel_options = JoinOptions::Qfct(2, 0.1);
  parallel_options.threads = 4;
  Result<SelfJoinResult> parallel = SimilaritySelfJoin(
      dataset.strings, dataset.alphabet, parallel_options);
  ASSERT_TRUE(parallel.ok());

  const JoinStats& s = sequential->stats;
  const JoinStats& p = parallel->stats;
  EXPECT_EQ(p.length_compatible_pairs, s.length_compatible_pairs);
  EXPECT_EQ(p.qgram_candidates, s.qgram_candidates);
  EXPECT_EQ(p.freq_candidates, s.freq_candidates);
  EXPECT_EQ(p.freq_lower_pruned, s.freq_lower_pruned);
  EXPECT_EQ(p.freq_upper_pruned, s.freq_upper_pruned);
  EXPECT_EQ(p.cdf_accepted, s.cdf_accepted);
  EXPECT_EQ(p.cdf_rejected, s.cdf_rejected);
  EXPECT_EQ(p.cdf_undecided, s.cdf_undecided);
  EXPECT_EQ(p.verified_pairs, s.verified_pairs);
  EXPECT_EQ(p.result_pairs, s.result_pairs);
  EXPECT_EQ(p.verified_hits, s.verified_hits);
  EXPECT_EQ(p.verify_worlds, s.verify_worlds);
  EXPECT_GT(p.verify_worlds, 0);
  EXPECT_EQ(p.index_stats.lists_scanned, s.index_stats.lists_scanned);
  EXPECT_EQ(p.index_stats.postings_scanned, s.index_stats.postings_scanned);
  EXPECT_EQ(p.index_stats.ids_touched, s.index_stats.ids_touched);
  EXPECT_EQ(p.peak_index_memory, s.peak_index_memory);
}

TEST(JoinStatsTest, FilterTimeExcludesIndexBuild) {
  JoinStats s;
  s.qgram_time = 1.0;
  s.freq_time = 2.0;
  s.cdf_time = 4.0;
  s.index_build_time = 8.0;
  EXPECT_DOUBLE_EQ(s.FilterTime(), 7.0);  // filters only, not index build
}

TEST(JoinStatsTest, ToStringReportsIndexBuildOnItsOwnLine) {
  JoinStats s;
  s.index_build_time = 0.125;
  const std::string text = s.ToString();
  EXPECT_NE(text.find("index-build[s]: 0.1250"), std::string::npos) << text;
  // The per-stage time line no longer folds the build time in.
  EXPECT_EQ(text.find("index=0.1250"), std::string::npos) << text;
}

// The pair-flow line reports the q-gram stage's real prune counts, which
// the index probe records, on a join where Lemma 5 prunes something.
TEST(JoinStatsTest, ToStringReportsIndexPruneCounts) {
  DatasetOptions data;
  data.kind = DatasetOptions::Kind::kNames;
  data.size = 200;
  data.seed = 23;
  data.max_uncertain_positions = 4;
  const Dataset dataset = GenerateDataset(data);
  Result<SelfJoinResult> result = SimilaritySelfJoin(
      dataset.strings, dataset.alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(result.ok());
  const JoinStats& s = result->stats;
  EXPECT_GT(s.index_stats.support_pruned, 0);
  const std::string text = s.ToString();
  const std::string printed =
      "(support-pruned=" + std::to_string(s.index_stats.support_pruned) +
      ", prob-pruned=" + std::to_string(s.index_stats.probability_pruned) +
      ")";
  EXPECT_NE(text.find(printed), std::string::npos) << text;
}

// ToJson must be deterministic: the same field values always serialize to
// the same bytes (fixed key order, shortest round-trip doubles).  This is
// what lets run reports be compared with string equality.
TEST(JoinStatsTest, ToJsonIsByteStable) {
  Rng rng(13);
  const JoinStats original = RandomStats(rng);
  const std::string first = original.ToJson();
  EXPECT_EQ(first, original.ToJson());

  // An independently built JoinStats with identical values serializes to
  // the identical bytes.
  JoinStats copy = original;
  EXPECT_EQ(copy.ToJson(), first);

  // The document carries its schema version and the top-level sections.
  EXPECT_NE(first.find("\"schema_version\":"), std::string::npos);
  for (const char* key : {"\"pairs\":", "\"time_seconds\":", "\"index\":",
                          "\"verify\":"}) {
    EXPECT_NE(first.find(key), std::string::npos) << key;
  }
}

// Invariant on a real sequential run: the wall total covers the measured
// sub-stages, so total >= filter + verify + index-build (all measured on
// the same thread with the same clock).
TEST(JoinStatsTest, TotalTimeCoversFilterVerifyAndBuild) {
  DatasetOptions data;
  data.kind = DatasetOptions::Kind::kNames;
  data.size = 60;
  data.theta = 0.25;
  data.seed = 19;
  data.min_length = 4;
  data.max_length = 10;
  data.max_uncertain_positions = 4;
  const Dataset dataset = GenerateDataset(data);

  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.threads = 1;
  Result<SelfJoinResult> result =
      SimilaritySelfJoin(dataset.strings, dataset.alphabet, options);
  ASSERT_TRUE(result.ok());
  const JoinStats& s = result->stats;
  EXPECT_GT(s.total_time, 0.0);
  EXPECT_GE(s.total_time + 1e-6,
            s.FilterTime() + s.verify_time + s.index_build_time);
}

}  // namespace
}  // namespace ujoin
