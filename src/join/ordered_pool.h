#ifndef UJOIN_JOIN_ORDERED_POOL_H_
#define UJOIN_JOIN_ORDERED_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "join/join_stats.h"
#include "join/search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace ujoin {
namespace internal {

/// What one position of a batch (a self-join probe or a SearchMany query)
/// leaves for the fold, private to it until the caller folds it.
struct ProbeOutcome {
  Status status = Status::OK();
  std::vector<SearchHit> hits;
  JoinStats stats;
  obs::Recorder metrics;     ///< recorded into only when the run has a sink
  obs::SpanCollector spans;  ///< disabled unless the position keeps spans

  /// Readies the outcome for the next position (keeps the hits' capacity).
  void Clear() {
    status = Status::OK();
    hits.clear();
    stats = JoinStats();
    metrics.Clear();
    spans = obs::SpanCollector();
  }
};

/// \brief Runs positions 0, 1, 2, ... of a batch on a persistent worker
/// pool and folds their outcomes on the calling thread in position order,
/// so what the fold merges is identical for every thread count.
///
/// Workers claim released positions in ascending order and stay within
/// kWindowPerWorker × threads positions of the fold (outcomes live in a
/// fixed ring).  With one thread none is started: released positions run
/// inline in Fold/Finish.  The first failed fold stops the pool and its
/// status sticks.  The destructor joins the workers, so declare the pool
/// after everything its callbacks read.
class OrderedPool {
 public:
  static constexpr uint32_t kWindowPerWorker = 64;

  /// Worker count for `requested` threads (<= 0: the hardware concurrency)
  /// over `positions` positions.
  static int Threads(int requested, size_t positions);

  /// `run(worker, position, &outcome)` fills a cleared outcome on a worker
  /// and may write only it and state private to `worker` (< threads).
  /// `fold(position, outcome)` runs on the caller in position order; a
  /// non-OK status stops the pool.  Both must outlive the pool.
  template <typename Run, typename Fold>
  OrderedPool(int threads, const Run& run, const Fold& fold)
      : run_(&run),
        fold_(&fold),
        run_fn_([](const void* f, int w, uint32_t p, ProbeOutcome* o) {
          (*static_cast<const Run*>(f))(w, p, o);
        }),
        fold_fn_([](const void* f, uint32_t p, ProbeOutcome& o) -> Status {
          return (*static_cast<const Fold*>(f))(p, o);
        }) {
    StartWorkers(threads);
  }
  OrderedPool(const OrderedPool&) = delete;
  OrderedPool& operator=(const OrderedPool&) = delete;
  ~OrderedPool() { StopWorkers(); }

  /// Makes every position below `limit` runnable.  Goes through the pool's
  /// mutex, so the caller's earlier writes are visible to those positions.
  void Release(uint32_t limit);

  /// Folds the finished positions after the last folded one, without
  /// waiting (with one thread: runs and folds every released position).
  Status Fold() { return Drain(/*wait=*/false); }

  /// Runs and folds every released position, then stops the workers.
  Status Finish();

 private:
  void StartWorkers(int threads);
  void StopWorkers();
  void WorkerLoop(int worker);
  Status Drain(bool wait);

  const void* run_;
  const void* fold_;
  void (*run_fn_)(const void*, int, uint32_t, ProbeOutcome*);
  Status (*fold_fn_)(const void*, uint32_t, ProbeOutcome&);

  uint32_t window_ = 1;  // ring size: position p uses slot p % window_
  std::vector<ProbeOutcome> ring_;
  Status status_ = Status::OK();  // caller-only

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a position became claimable
  std::condition_variable done_cv_;  // caller: the next position finished
  // Guarded by mu_ (caller-only with one thread).
  uint32_t released_ = 0;
  uint32_t next_ = 0;         // next position a worker claims
  uint32_t folded_ = 0;       // positions below this are folded
  std::vector<uint8_t> ready_;  // per slot: finished, not yet folded
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: they use everything above
};

}  // namespace internal
}  // namespace ujoin

#endif  // UJOIN_JOIN_ORDERED_POOL_H_
