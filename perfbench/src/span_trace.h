// Bench-side span recorder for the traced run: one span per call into a
// layer's public functions, kept in memory and written at exit in the
// Chrome trace-event format that ujoin::obs::TraceRecorder emits.
#ifndef UJOIN_PERFBENCH_SPAN_TRACE_H_
#define UJOIN_PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The program's modules, as the benchmark attributes time to them.
/// kReplay marks spans that only group a probe's or query's calls; their
/// self time is the replay loop itself and counts as unattributed.
enum class Layer : uint8_t {
  kText,
  kIndex,
  kFilter,
  kVerify,
  kJoin,
  kServe,
  kObs,
  kReplay,
};
inline constexpr int kNumLayers = 8;
const char* LayerName(Layer layer);

struct Span {
  const char* name;  // string literal
  Layer layer;
  uint32_t parent;   // span id (index + 1) of the enclosing span, 0 = none
  int64_t item;      // probe position (joins) or query index (serve)
  int64_t start_ns;
  int64_t end_ns;
};

class SpanTrace {
 public:
  SpanTrace() : origin_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span and returns its id (1-based).
  uint32_t Begin(const char* name, Layer layer, uint32_t parent,
                 int64_t item) {
    spans_.push_back(Span{name, layer, parent, item, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  /// Adds a span whose interval was measured elsewhere (the stage split of
  /// a Search call, laid out inside the Search span).
  void AddClosed(const char* name, Layer layer, uint32_t parent, int64_t item,
                 int64_t start_ns, int64_t dur_ns) {
    spans_.push_back(Span{name, layer, parent, item, start_ns,
                          start_ns + dur_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every layer, in seconds: each span's duration minus the
  /// durations of its direct children, summed per layer.  The kReplay entry
  /// is the replay's own time, outside any layer call.
  std::vector<double> SelfSecondsByLayer() const;
  /// Summed duration of the spans without a parent, in seconds.
  double RootSeconds() const;
  /// Smallest self time of any span, in seconds; negative when a child
  /// span does not fit inside its parent.
  double MinSelfSeconds() const;
  /// Durations of the spans named `name`, in milliseconds.
  std::vector<double> DurationsMs(const char* name) const;
  /// Summed duration of the spans named `name`, in seconds.
  double NameSeconds(const char* name) const;
  /// Number of spans named `name`.
  int64_t Count(const char* name) const;

  /// Writes {"traceEvents":[...],"displayTimeUnit":"ms"}; each event's
  /// args carry its id, parent id and probe or query id.  False on IO error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call: opens a span on construction, closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name, Layer layer, uint32_t parent,
             int64_t item)
      : trace_(trace), id_(trace->Begin(name, layer, parent, item)) {}
  ~ScopedSpan() { trace_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // UJOIN_PERFBENCH_SPAN_TRACE_H_
