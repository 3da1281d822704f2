// The ordered pool both parallel drivers run on: positions fold in order on
// the calling thread whatever the thread count, no worker runs ahead of the
// fold by more than the window, only released positions run, the lowest
// failing position's status wins, and the workers stop on every exit.
// Labelled tsan: the ThreadSanitizer leg runs every case at 1, 2, 4 and 8
// threads.

#include "join/ordered_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ujoin {
namespace internal {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

TEST(OrderedPoolTest, FoldsEveryReleasedPositionOnceInOrder) {
  constexpr uint32_t kPositions = 1000;
  for (int threads : kThreadCounts) {
    const uint32_t window =
        threads == 1 ? 1 : OrderedPool::kWindowPerWorker *
                               static_cast<uint32_t>(threads);
    std::vector<std::atomic<int>> runs(kPositions);
    std::atomic<uint32_t> folded{0};
    std::atomic<bool> ran_ahead{false};
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    const auto run = [&](int worker, uint32_t position, ProbeOutcome* out) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, threads);
      if (position >= folded.load() + window) ran_ahead = true;
      if (std::this_thread::get_id() == caller) caller_ran = true;
      runs[position].fetch_add(1);
      out->hits.push_back(SearchHit{position, 0.5, true});
      out->stats.verified_pairs = position;
    };
    uint32_t next_fold = 0;
    const auto fold = [&](uint32_t position, ProbeOutcome& outcome) {
      EXPECT_EQ(position, next_fold++);
      EXPECT_TRUE(outcome.status.ok());
      EXPECT_EQ(outcome.hits.size(), 1u);
      EXPECT_EQ(outcome.hits[0].id, position);
      EXPECT_EQ(outcome.stats.verified_pairs, position);
      folded.store(position + 1);
      return Status::OK();
    };
    {
      OrderedPool pool(threads, run, fold);
      // Uneven prefixes, folding in between, as the self-join releases
      // length groups.
      uint32_t limit = 0;
      for (uint32_t step = 1; limit < kPositions; step = step * 3 % 97 + 1) {
        limit = std::min(kPositions, limit + step);
        pool.Release(limit);
        ASSERT_TRUE(pool.Fold().ok());
      }
      ASSERT_TRUE(pool.Finish().ok());
    }
    EXPECT_EQ(next_fold, kPositions) << threads;
    for (uint32_t p = 0; p < kPositions; ++p) {
      ASSERT_EQ(runs[p].load(), 1) << "threads " << threads << " position "
                                   << p;
    }
    EXPECT_FALSE(ran_ahead.load()) << threads;
    // One thread runs inline; more never run a position on the caller.
    EXPECT_EQ(caller_ran.load(), threads == 1) << threads;
  }
}

TEST(OrderedPoolTest, RunsOnlyReleasedPositions) {
  for (int threads : kThreadCounts) {
    std::atomic<uint32_t> highest{0};
    std::atomic<int> count{0};
    const auto run = [&](int, uint32_t position, ProbeOutcome*) {
      count.fetch_add(1);
      uint32_t seen = highest.load();
      while (position > seen &&
             !highest.compare_exchange_weak(seen, position)) {
      }
    };
    const auto fold = [](uint32_t, ProbeOutcome&) { return Status::OK(); };
    OrderedPool pool(threads, run, fold);
    pool.Release(10);
    ASSERT_TRUE(pool.Finish().ok());
    EXPECT_EQ(count.load(), 10) << threads;
    EXPECT_EQ(highest.load(), 9u) << threads;
  }
}

TEST(OrderedPoolTest, ReturnsTheLowestFailingPositionsStatus) {
  constexpr uint32_t kPositions = 600;
  for (int threads : kThreadCounts) {
    const auto run = [](int, uint32_t position, ProbeOutcome* out) {
      // A later position fails too, and usually finishes first.
      if (position == 37) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        out->status = Status::InvalidArgument("position 37");
      } else if (position == 40) {
        out->status = Status::Internal("position 40");
      }
    };
    uint32_t folded = 0;
    const auto fold = [&](uint32_t position, ProbeOutcome& outcome) {
      EXPECT_EQ(position, folded);
      if (!outcome.status.ok()) return outcome.status;
      ++folded;
      return Status::OK();
    };
    OrderedPool pool(threads, run, fold);
    pool.Release(kPositions);
    const Status status = pool.Finish();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_EQ(status.message(), "position 37") << threads;
    EXPECT_EQ(folded, 37u) << threads;
    // The status sticks; nothing more is folded.
    EXPECT_EQ(pool.Fold().message(), "position 37");
  }
}

TEST(OrderedPoolTest, DestructorStopsWorkersOnAnEarlyExit) {
  for (int threads : kThreadCounts) {
    std::atomic<int> count{0};
    const auto run = [&](int, uint32_t, ProbeOutcome*) { count.fetch_add(1); };
    const auto fold = [](uint32_t, ProbeOutcome&) { return Status::OK(); };
    {
      OrderedPool pool(threads, run, fold);
      pool.Release(100000);
      // Leaves without folding: the workers fill the ring and wait, and
      // the destructor must stop and join them.
    }
    const int ring =
        threads == 1
            ? 0
            : static_cast<int>(OrderedPool::kWindowPerWorker) * threads;
    EXPECT_LE(count.load(), ring) << threads;
  }
}

}  // namespace
}  // namespace internal
}  // namespace ujoin
