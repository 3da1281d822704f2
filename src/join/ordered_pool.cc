#include "join/ordered_pool.h"

#include <algorithm>

namespace ujoin {
namespace internal {

int OrderedPool::Threads(int requested, size_t positions) {
  if (requested <= 0) {
    requested =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  return std::min(requested,
                  static_cast<int>(std::max<size_t>(positions, 1)));
}

void OrderedPool::StartWorkers(int threads) {
  if (threads > 1) window_ = kWindowPerWorker * static_cast<uint32_t>(threads);
  ring_.resize(window_);
  ready_.assign(window_, 0);
  if (threads <= 1) return;
  for (int worker = 0; worker < threads; ++worker) {
    workers_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

void OrderedPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void OrderedPool::Release(uint32_t limit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = std::max(released_, limit);
  }
  work_cv_.notify_all();
}

void OrderedPool::WorkerLoop(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (!stop_ && (next_ == released_ || next_ - folded_ == window_)) {
      work_cv_.wait(lock);
    }
    if (stop_) return;
    const uint32_t position = next_++;
    lock.unlock();
    ProbeOutcome& outcome = ring_[position % window_];
    outcome.Clear();
    run_fn_(run_, worker, position, &outcome);
    lock.lock();
    ready_[position % window_] = 1;
    if (position == folded_) done_cv_.notify_one();
  }
}

Status OrderedPool::Drain(bool wait) {
  while (status_.ok() && workers_.empty() && folded_ < released_) {
    ring_[0].Clear();
    run_fn_(run_, /*worker=*/0, folded_, &ring_[0]);
    status_ = fold_fn_(fold_, folded_++, ring_[0]);
  }
  while (status_.ok() && !workers_.empty()) {
    // Take the finished run [from, to) under the lock and fold it outside:
    // no worker touches those slots until folded_ moves past them.
    uint32_t from = 0;
    uint32_t to = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (wait && folded_ != released_ && ready_[folded_ % window_] == 0) {
        done_cv_.wait(lock);
      }
      from = folded_;
      const uint32_t end = std::min(released_, from + window_);
      for (to = from; to < end && ready_[to % window_] != 0; ++to) {
      }
    }
    if (from == to) break;
    for (uint32_t p = from; p < to && status_.ok(); ++p) {
      status_ = fold_fn_(fold_, p, ring_[p % window_]);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (uint32_t p = from; p < to; ++p) ready_[p % window_] = 0;
      folded_ = to;
    }
    work_cv_.notify_all();
  }
  if (!status_.ok()) StopWorkers();
  return status_;
}

Status OrderedPool::Finish() {
  Drain(/*wait=*/true);
  StopWorkers();
  return status_;
}

}  // namespace internal
}  // namespace ujoin
