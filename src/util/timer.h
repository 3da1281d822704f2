#ifndef UJOIN_UTIL_TIMER_H_
#define UJOIN_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace ujoin {

/// \brief Monotonic wall-clock stopwatch used by the per-stage join
/// statistics and the benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the stopwatch to zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in nanoseconds.  Sub-millisecond stages (per-pair filter
  /// and verification scopes) accumulate these integer nanoseconds instead
  /// of round-tripping through seconds-doubles, which lose precision once
  /// the accumulator grows.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Adds the scope's wall time to an accumulator on destruction.
///
/// Used to attribute join time to pipeline stages without littering the
/// driver with explicit stopwatch bookkeeping.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* accumulator_seconds)
      : accumulator_(accumulator_seconds) {}
  ~ScopedTimer() {
    if (accumulator_ != nullptr) *accumulator_ += timer_.ElapsedSeconds();
  }

  /// Stops the clock now: adds the elapsed time to the accumulator, detaches
  /// (the destructor becomes a no-op), and returns the elapsed seconds so
  /// callers can reuse the measurement (e.g. feed it to a histogram) without
  /// reading the clock twice.
  double StopAndGet() {
    const double elapsed = timer_.ElapsedSeconds();
    if (accumulator_ != nullptr) {
      *accumulator_ += elapsed;
      accumulator_ = nullptr;
    }
    return elapsed;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* accumulator_;
  Timer timer_;
};

/// \brief Nanosecond-precision counterpart of ScopedTimer.
///
/// Accumulates integer nanoseconds into an int64 so sub-millisecond stages
/// measured per pair do not lose precision in a double accumulator; drivers
/// fold the total into the seconds-based JoinStats fields once per rank.
class ScopedNanoTimer {
 public:
  explicit ScopedNanoTimer(int64_t* accumulator_ns)
      : accumulator_(accumulator_ns) {}
  ~ScopedNanoTimer() {
    if (accumulator_ != nullptr) *accumulator_ += timer_.ElapsedNanos();
  }

  /// Stops the clock now, adds to the accumulator, detaches, and returns the
  /// elapsed nanoseconds.
  int64_t StopAndGet() {
    const int64_t elapsed = timer_.ElapsedNanos();
    if (accumulator_ != nullptr) {
      *accumulator_ += elapsed;
      accumulator_ = nullptr;
    }
    return elapsed;
  }

  ScopedNanoTimer(const ScopedNanoTimer&) = delete;
  ScopedNanoTimer& operator=(const ScopedNanoTimer&) = delete;

 private:
  int64_t* accumulator_;
  Timer timer_;
};

}  // namespace ujoin

#endif  // UJOIN_UTIL_TIMER_H_
