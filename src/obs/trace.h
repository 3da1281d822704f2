#ifndef UJOIN_OBS_TRACE_H_
#define UJOIN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace ujoin {
namespace obs {

/// \brief One completed span on the run's shared steady-clock timeline.
///
/// `name` must point at storage outliving the recorder (in practice a string
/// literal); spans are recorded on hot-ish paths and must not own strings.
struct TraceEvent {
  const char* name;
  int64_t ts_ns;   ///< Start, nanoseconds since the TraceRecorder's origin.
  int64_t dur_ns;  ///< Duration in nanoseconds.
  uint32_t tid;    ///< Logical lane: 0 = driver, worker rank + 1 otherwise.
};

/// \brief Collects spans and writes them as Chrome trace-event JSON.
///
/// The recorder owns the run's clock origin: all timestamps are nanoseconds
/// since construction, taken from the same steady clock as util/Timer, so
/// spans from different threads share one timeline.  The recorder itself is
/// single-threaded — only the driver thread calls AddSpan/Append.  Each
/// probe records into its own SpanCollector (below), and the driver folds
/// those buffers in deterministic probe order, mirroring how JoinStats and
/// metrics merge.
///
/// The output is the Chrome trace-event format ("X" complete events plus
/// thread-name metadata), loadable in chrome://tracing and Perfetto.
class TraceRecorder {
 public:
  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since this recorder's origin.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Records one completed span.  `name` must be a string literal (or
  /// otherwise outlive the recorder).  Driver thread only.
  void AddSpan(const char* name, int64_t ts_ns, int64_t dur_ns,
               uint32_t tid) {
    events_.push_back(TraceEvent{name, ts_ns, dur_ns, tid});
  }

  /// Appends a probe's collected spans.  Driver thread only; call in probe
  /// order so traces are reproducibly ordered.
  void Append(const std::vector<TraceEvent>& events) {
    events_.insert(events_.end(), events.begin(), events.end());
  }

  size_t num_events() const { return events_.size(); }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Enables 1-in-`n` probe-span sampling (1 keeps every probe; 0 keeps
  /// none — useful with SetSlowKeepNs to trace only slow queries).
  /// Driver spans are never sampled out — only per-probe span buffers
  /// gated through SampleProbe.  The decision for a probe is a pure function
  /// of (`seed`, probe index), so sampled traces are reproducible and
  /// identical for every thread count.  Driver thread only, before the run.
  void SetProbeSampling(int64_t n, uint64_t seed) {
    sample_n_ = n >= 0 ? n : 1;
    sample_seed_ = seed;
  }

  /// Whether the probe with global index `probe_index` keeps its spans.
  /// Const and thread-safe: callable from any rank (each call derives its
  /// own seeded Rng), and depends only on the sampling config and the index.
  bool SampleProbe(int64_t probe_index) const {
    if (sample_n_ == 1) return true;
    if (sample_n_ <= 0) return false;
    Rng rng(sample_seed_ ^
            (static_cast<uint64_t>(probe_index) + 1) * 0x9E3779B97F4A7C15ULL);
    return rng.Uniform(static_cast<uint64_t>(sample_n_)) == 0;
  }

  /// Force-keep threshold for slow probes: a probe whose wall time reaches
  /// `ns` keeps its spans regardless of the sampler's decision (0 disables).
  /// Driver thread only, before the run.
  void SetSlowKeepNs(int64_t ns) { slow_keep_ns_ = ns > 0 ? ns : 0; }

  int64_t slow_keep_ns() const { return slow_keep_ns_; }

  /// The final keep decision for one probe, combining the deterministic
  /// sampler verdict with the slow-probe threshold.  Unlike SampleProbe this
  /// depends on wall clock, so force-kept spans vary run to run — that is
  /// the point: the sampler keeps traces reproducible, the threshold makes
  /// sure the query you are hunting is never the one sampled out.
  bool KeepProbe(bool sampled, int64_t probe_ns) const {
    return sampled || (slow_keep_ns_ > 0 && probe_ns >= slow_keep_ns_);
  }

  /// Driver-side bookkeeping: call once per probe (sampled or not) so the
  /// trace metadata can report coverage.  Driver thread only.
  void NoteProbe(bool sampled) {
    ++probes_seen_;
    if (sampled) ++probes_sampled_;
  }

  int64_t sample_n() const { return sample_n_; }
  int64_t probes_seen() const { return probes_seen_; }
  int64_t probes_sampled() const { return probes_sampled_; }

  /// Renders the full Chrome trace document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> events_;
  int64_t sample_n_ = 1;
  uint64_t sample_seed_ = 0;
  int64_t slow_keep_ns_ = 0;
  int64_t probes_seen_ = 0;
  int64_t probes_sampled_ = 0;
};

/// \brief A probe's private span buffer.
///
/// Workers must not touch the shared TraceRecorder concurrently; instead
/// each probe gets a SpanCollector that shares the recorder's clock (for a
/// common timeline) but buffers spans locally.  The driver appends the
/// buffers in probe order as it folds the probes.  A default-constructed
/// collector is disabled: NowNs() returns 0 and Span() is a no-op, so call
/// sites need no separate tracing flag.
class SpanCollector {
 public:
  SpanCollector() = default;
  SpanCollector(const TraceRecorder* clock, uint32_t tid)
      : clock_(clock), tid_(tid) {}

  bool enabled() const { return clock_ != nullptr; }

  int64_t NowNs() const { return clock_ != nullptr ? clock_->NowNs() : 0; }

  void Span(const char* name, int64_t ts_ns, int64_t dur_ns) {
    if (clock_ == nullptr) return;
    events_.push_back(TraceEvent{name, ts_ns, dur_ns, tid_});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  const TraceRecorder* clock_ = nullptr;
  uint32_t tid_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_TRACE_H_
