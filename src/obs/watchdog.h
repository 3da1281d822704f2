#ifndef UJOIN_OBS_WATCHDOG_H_
#define UJOIN_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"

namespace ujoin {
namespace obs {

// ---------------------------------------------------------------------------
// Stall watchdog
//
// A background thread that scans the flight recorder's per-thread in-flight
// blocks (FlightRecorder::ReadInFlight) and captures a stall report when a
// query (or self-join probe) has been running longer than its threshold:
// `deadline_multiple` times the query's own deadline when one is set, else
// the flat `stall_ns` fallback.  The flight macros already stamp the
// in-flight block (query begin/end, funnel stage, verify-world estimate,
// serve attribution), so no extra plumbing runs on the query path — the
// watchdog is a pure reader.
//
// Captured reports land in a bounded ring rendered as the versioned
// "ujoin.stalls" JSON page (served at /debug/stalls by the serve layer).
// Ring order and the page's non-timing fields are a pure function of the
// stalled queries' content — reports sort by (band, funnel_stage,
// verify_worlds, deadline_ns, connection, seq), never by capture time — so
// the page is comparable across runs and client counts after stripping the
// timing tier (elapsed_ns).  Each (thread slot, epoch) is captured at most
// once: a stall that persists across scan ticks yields one report.
// ---------------------------------------------------------------------------

struct WatchdogOptions {
  /// Flat stall threshold for work without a deadline, ns.  <= 0 disables
  /// the fallback (deadline-less work is then never flagged).
  int64_t stall_ns = 0;
  /// A query with a deadline stalls when elapsed exceeds deadline times
  /// this multiple.
  double deadline_multiple = 4.0;
  /// Scan period, milliseconds.
  int poll_ms = 50;
  /// When non-empty, the full flight record is dumped here (reason
  /// "watchdog") every time a stall is captured.
  std::string dump_path;
};

/// One captured stall.  All fields except elapsed_ns are determinism
/// tier 2/3 (attribution/content); elapsed_ns is tier 1 wall clock.
struct StallReport {
  int64_t band = 0;           ///< length band of the query or probe
  int64_t funnel_stage = -1;  ///< obs::FunnelStage, -1 = before the funnel
  int64_t verify_worlds = 0;  ///< last verify-begin world estimate
  int64_t deadline_ns = 0;    ///< the query's deadline, 0 = none
  int64_t threshold_ns = 0;   ///< threshold that tripped the capture
  int64_t connection = -1;    ///< serve attribution, -1 outside serve
  int64_t seq = 0;            ///< serve attribution, 0 outside serve
  int64_t elapsed_ns = 0;     ///< elapsed at capture (wall clock)
};

inline constexpr int kStallsSchemaVersion = 1;

/// Renders the "ujoin.stalls" page: `reports` in the ring's content order,
/// `captures` the lifetime capture count.  Deterministic: bytes are a pure
/// function of the arguments.
std::string RenderStallsPage(const std::vector<StallReport>& reports,
                             int64_t captures);

class Watchdog {
 public:
  static constexpr int kMaxReports = 8;

  /// Watches `recorder` (not owned; typically GlobalFlightRecorder()).
  explicit Watchdog(FlightRecorder* recorder) : recorder_(recorder) {}
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Called with the freshly rendered stalls page after every capture
  /// (from the watchdog thread).  Set before Start.
  void set_push_fn(std::function<void(const std::string&)> push_fn) {
    push_fn_ = std::move(push_fn);
  }

  /// Sets the scan options without starting the thread.  Deterministic
  /// tests call this and drive ScanOnce with explicit clock values;
  /// Start calls it on the way to spawning the scan thread.
  void Configure(const WatchdogOptions& options) { options_ = options; }

  /// Starts the scan thread.  No-op when already running.
  void Start(const WatchdogOptions& options);

  /// Stops and joins the scan thread.  Safe to call when not running.
  void Stop();

  /// One synchronous scan at recorder-clock time `now_ns`; the thread
  /// calls this every poll_ms.  Exposed for deterministic tests.
  void ScanOnce(int64_t now_ns);

  /// Lifetime captures (kept past ring eviction).
  int64_t captures() const {
    return captures_.load(std::memory_order_relaxed);
  }

  /// Ring contents in content order (see RenderStallsPage).
  std::vector<StallReport> Reports() const;

  /// The rendered "ujoin.stalls" page for the current ring.
  std::string StallsJson() const;

 private:
  void Loop();

  FlightRecorder* const recorder_;
  WatchdogOptions options_;
  std::function<void(const std::string&)> push_fn_;

  mutable std::mutex mu_;
  std::vector<StallReport> reports_;                 // content-sorted
  int64_t last_epoch_[FlightRecorder::kMaxThreadSlots] = {};

  std::atomic<int64_t> captures_{0};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = true;
  std::thread thread_;
};

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_WATCHDOG_H_
