// Concurrent differential harness for the resident search service: N client
// threads replay a query file against a SearchServer while the same file
// runs through the in-process SearchMany, and everything observable must
// agree — response bytes per query (the server's JSON re-rendered from the
// in-process hits with the client's own sequence numbers), the folded
// JoinStats counters, and the folded metric registry (query-path counters,
// filter-funnel flow, and the work-derived histograms, which are pure
// functions of (query, candidate, options) and therefore bit-identical
// under any interleaving).  Wall-clock histograms (probe/verify latency) and
// the serve-layer recorder are excluded by construction: the former are
// timing-dependent, the latter has no in-process counterpart.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "serve/protocol.h"
#include "serve/search_server.h"
#include "serve_test_util.h"

namespace ujoin {
namespace serve {
namespace {

using serve::testing::LineClient;

std::vector<UncertainString> SeededStrings(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

/// The counters compared between the server fold and the SearchMany fold.
/// (Latency histograms and gauges are deliberately absent: latencies are
/// wall-clock, and SearchMany sets driver gauges the per-query server path
/// does not.)
const obs::Counter kComparedCounters[] = {
    obs::Counter::kQueries,
    obs::Counter::kProbes,
    obs::Counter::kVerifyBudgetFallbacks,
    obs::Counter::kVerifyDeadlineFallbacks,
};
const obs::Hist kComparedHists[] = {
    obs::Hist::kExploredTrieNodes,
    obs::Hist::kMergedListLength,
    obs::Hist::kCandidateAlphaPpm,
    obs::Hist::kVerifyWorldCount,
};
const obs::FunnelStage kAllStages[] = {
    obs::FunnelStage::kQgram,
    obs::FunnelStage::kFreqDistance,
    obs::FunnelStage::kCdfBound,
    obs::FunnelStage::kVerify,
};

void ExpectSameQueryPathMetrics(const obs::Recorder& server,
                                const obs::Recorder& in_process) {
  for (const obs::Counter c : kComparedCounters) {
    EXPECT_EQ(server.counter(c), in_process.counter(c))
        << "counter " << obs::CounterInfo(c).name;
  }
  for (const obs::Hist h : kComparedHists) {
    EXPECT_TRUE(server.hist(h) == in_process.hist(h))
        << "histogram " << obs::HistInfo(h).name;
  }
  for (const obs::FunnelStage s : kAllStages) {
    EXPECT_EQ(server.funnel_entered(s), in_process.funnel_entered(s))
        << "funnel entered " << obs::FunnelStageInfo(s).name;
    EXPECT_EQ(server.funnel_survived(s), in_process.funnel_survived(s))
        << "funnel survived " << obs::FunnelStageInfo(s).name;
  }
}

void ExpectSameCounts(const JoinStats& server, const JoinStats& in_process) {
  EXPECT_EQ(server.length_compatible_pairs,
            in_process.length_compatible_pairs);
  EXPECT_EQ(server.qgram_candidates, in_process.qgram_candidates);
  EXPECT_EQ(server.index_stats.support_pruned,
            in_process.index_stats.support_pruned);
  EXPECT_EQ(server.index_stats.probability_pruned,
            in_process.index_stats.probability_pruned);
  EXPECT_EQ(server.freq_candidates, in_process.freq_candidates);
  EXPECT_EQ(server.freq_lower_pruned, in_process.freq_lower_pruned);
  EXPECT_EQ(server.freq_upper_pruned, in_process.freq_upper_pruned);
  EXPECT_EQ(server.cdf_accepted, in_process.cdf_accepted);
  EXPECT_EQ(server.cdf_rejected, in_process.cdf_rejected);
  EXPECT_EQ(server.cdf_undecided, in_process.cdf_undecided);
  EXPECT_EQ(server.verified_pairs, in_process.verified_pairs);
  EXPECT_EQ(server.result_pairs, in_process.result_pairs);
  EXPECT_EQ(server.budget_fallbacks, in_process.budget_fallbacks);
  EXPECT_EQ(server.deadline_fallbacks, in_process.deadline_fallbacks);
  EXPECT_EQ(server.index_stats.lists_scanned,
            in_process.index_stats.lists_scanned);
  EXPECT_EQ(server.index_stats.postings_scanned,
            in_process.index_stats.postings_scanned);
  EXPECT_EQ(server.index_stats.ids_touched, in_process.index_stats.ids_touched);
  EXPECT_EQ(server.verify_stats.explored_s_nodes,
            in_process.verify_stats.explored_s_nodes);
  EXPECT_EQ(server.verify_stats.r_trie_nodes,
            in_process.verify_stats.r_trie_nodes);
  EXPECT_EQ(server.verify_stats.active_entries,
            in_process.verify_stats.active_entries);
  EXPECT_EQ(server.verify_stats.world_pairs,
            in_process.verify_stats.world_pairs);
}

class ServeDifferentialTest : public ::testing::Test {
 protected:
  /// Runs the whole differential: SearchMany ground truth once, then one
  /// server replay per client count, comparing responses byte-for-byte and
  /// the folded aggregates bit-for-bit.
  void RunDifferential(const JoinOptions& join_options,
                       const SearchLimits& limits) {
    const std::vector<UncertainString> collection = SeededStrings(80, 11);
    const std::vector<UncertainString> queries = SeededStrings(40, 12);
    Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
        collection, Alphabet::Names(), join_options);
    ASSERT_TRUE(searcher.ok());

    // In-process ground truth: stats and metrics folded in query order.
    JoinStats expected_stats;
    obs::Recorder expected_metrics;
    Result<std::vector<std::vector<SearchHit>>> expected =
        searcher->SearchMany(queries, /*threads=*/3, &expected_stats,
                             &expected_metrics, /*trace=*/nullptr, &limits);
    ASSERT_TRUE(expected.ok());
    std::vector<bool> expected_inexact;
    {
      // Per-query inexactness, recomputed the way the server sees it (one
      // private JoinStats per request).
      QueryWorkspace workspace;
      for (const UncertainString& query : queries) {
        JoinStats per_query;
        ASSERT_TRUE(searcher
                        ->Search(query, &per_query, &workspace,
                                 /*metrics=*/nullptr, /*spans=*/nullptr,
                                 &limits)
                        .ok());
        expected_inexact.push_back(per_query.Inexact());
      }
    }

    for (const int clients : {1, 2, 4}) {
      ServeOptions serve_options;
      serve_options.max_connections = clients;
      serve_options.limits = limits;
      SearchServer server(&*searcher, serve_options);
      ASSERT_TRUE(server.Start().ok());

      // Client c replays queries c, c+clients, c+2*clients, ... in lockstep
      // (send one, read one), so responses can be checked byte-for-byte
      // against a local re-rendering with the client's own seq counter.
      std::vector<std::string> failures(static_cast<size_t>(clients));
      std::vector<std::thread> workers;
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c]() {
          LineClient client(server.port());
          if (!client.connected()) {
            failures[static_cast<size_t>(c)] = "connect failed";
            return;
          }
          int64_t seq = 0;
          for (size_t i = static_cast<size_t>(c); i < queries.size();
               i += static_cast<size_t>(clients)) {
            if (!client.SendLine(queries[i].ToString())) {
              failures[static_cast<size_t>(c)] = "send failed";
              return;
            }
            ++seq;
            const std::string want = RenderHitsResponse(
                seq, (*expected)[i], expected_inexact[i]);
            const std::string got = client.ReadLine();
            if (got != want) {
              failures[static_cast<size_t>(c)] =
                  "query " + std::to_string(i) + ":\n  want " + want +
                  "  got  " + (got.empty() ? "<eof>\n" : got);
              return;
            }
          }
          client.SendLine("");  // end the batch before disconnecting
        });
      }
      for (std::thread& worker : workers) worker.join();
      for (const std::string& failure : failures) {
        EXPECT_EQ(failure, "") << "with " << clients << " client(s)";
      }
      server.Stop();

      ExpectSameCounts(server.Stats(), expected_stats);
      ExpectSameQueryPathMetrics(server.QueryMetrics(), expected_metrics);
#ifndef UJOIN_OBS_DISABLED
      const obs::Recorder serve_metrics = server.ServeMetrics();
      EXPECT_EQ(serve_metrics.counter(obs::Counter::kServeRequests),
                static_cast<int64_t>(queries.size()));
      EXPECT_EQ(serve_metrics.counter(obs::Counter::kServeRequestErrors), 0);
      EXPECT_EQ(serve_metrics.counter(obs::Counter::kServeConnections),
                clients);
      EXPECT_EQ(
          serve_metrics.hist(obs::Hist::kServeBatchSize).sum(),
          static_cast<int64_t>(queries.size()));
#endif
    }
  }
};

TEST_F(ServeDifferentialTest, FilteredSearchMatchesInProcessFold) {
  RunDifferential(JoinOptions::Qfct(2, 0.1), SearchLimits{});
}

TEST_F(ServeDifferentialTest, AlwaysVerifyMatchesInProcessFold) {
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  RunDifferential(options, SearchLimits{});
}

TEST_F(ServeDifferentialTest, WorldBudgetFallbacksAreIdenticalOverTheWire) {
  // A tight world-count budget forces CDF-bound fallbacks.  The budget is a
  // pure function of the pair, so the inexact result sets and the fallback
  // counters must still be bit-identical between the server and the
  // in-process fold, for every client count.
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  SearchLimits limits;
  limits.max_verify_worlds = 16;
  RunDifferential(options, limits);
}

}  // namespace
}  // namespace serve
}  // namespace ujoin
