#ifndef UJOIN_OBS_FLIGHT_RECORDER_H_
#define UJOIN_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>

namespace ujoin {
namespace obs {

// ---------------------------------------------------------------------------
// Black-box flight recorder
//
// An always-on, allocation-free record of what every thread was doing
// *recently*: fixed-capacity per-thread ring buffers of compact lifecycle
// events (probe/verify/query/batch/connection transitions), written
// through the UJOIN_OBS_FLIGHT macro (obs_macros.h) from the join pipeline
// and the serve layer.  Metrics (metrics.h) answer "how much, overall";
// the flight recorder answers "what was in flight when it died or hung".
//
// Design constraints, in order:
//
//  * Record path: no heap allocation, no locks, no syscalls beyond the
//    clock read — it runs inside the steady-state zero-allocation probe
//    path.  One writer per ring (the owning thread); every ring word is a
//    relaxed std::atomic<int64_t>, so concurrent dump reads are racy-by-
//    design but never data races (TSan-clean torn reads, detected and
//    skipped via a per-event sequence word).
//  * Dump path: async-signal-safe.  DumpToFd formats into a fixed stack
//    buffer with a hand-rolled integer renderer and emits bytes with raw
//    write(2) to a pre-opened fd — no malloc, no locks, no stdio — so the
//    same code serves the SIGSEGV/SIGABRT/SIGBUS crash handler installed
//    by InstallCrashDump and the orderly end-of-run dump.
//  * Both paths are contract roots of tools/ujoin_effects.py
//    ("flight-path"): an allocation or lock introduced anywhere below
//    RecordEvent or DumpToFd fails CI.
//
// The dump is the versioned "ujoin.flight_record" JSON document (see
// DESIGN.md "Flight recorder and watchdog" and
// tools/validate.py): per-thread recent events, the event registry
// snapshot (per-kind totals + drop count), and build info (the
// compiler).  Version 2 dropped the constant kernel-form key; version 3
// dropped the self-join driver's two batch kinds (each join probe now opens
// a query_begin/query_end epoch), which renumbered the registry.
//
// Ring sizing: kMaxThreadSlots covers the worker crews this repo ever
// starts (join workers + serve crew + watchdog + main); kEventsPerThread
// covers dozens of probes or serve batches of lifecycle events.  Storage is
// static (one global recorder, ~200 KiB) so recording needs no setup and
// the crash handler needs no indirection.
// ---------------------------------------------------------------------------

/// Event kinds, in registry order.  The dump spells these names; adding a
/// kind means appending here and one row in kFlightEventNames.
enum class FlightEvent : int {
  /// One self-join probe started, right after its kQueryBegin:
  /// a = worker, b = visiting position of the probe string.
  kProbeBegin = 0,
  /// Funnel stage entered: a = stage (obs::FunnelStage), b = candidates.
  kFunnelStage,
  /// Trie verification started: a = saturating possible-world estimate
  /// (0 when no metrics recorder is attached), b = 0.
  kVerifyBegin,
  /// Query (or self-join probe) started: a = deadline_ns (0 = none),
  /// b = length band.
  kQueryBegin,
  /// Query finished: a = hits, b = 1 on error else 0.
  kQueryEnd,
  /// Serve batch boundary: a = queries answered in the batch, b = 0.
  kBatchBoundary,
  /// Serve connection accepted: a = connection id, b = 0.
  kConnOpen,
  /// Serve connection closed: a = connection id, b = requests answered.
  kConnClose,
  /// Serve connection closed by the idle keep-alive timeout:
  /// a = connection id, b = idle milliseconds observed.
  kConnIdleClose,
  /// Serve request attribution, recorded just before the query executes:
  /// a = connection id, b = request seq.  Stamps the in-flight block so a
  /// stall report can name the connection.
  kServeQuery,
  /// The watchdog captured a stall report: a = stalled thread slot,
  /// b = elapsed ns at capture.
  kStallCaptured,
};
inline constexpr int kNumFlightEvents = 11;

/// The registry name of `kind` ("probe_begin", ...).
const char* FlightEventName(FlightEvent kind);

/// A seqlock-consistent snapshot of one thread's in-flight work, read by
/// the watchdog.  Valid (in_flight == true) only between a kQueryBegin and
/// its matching kQueryEnd.
struct InFlightSnapshot {
  bool in_flight = false;
  int64_t epoch = 0;          ///< odd while in flight; stamps the capture
  int64_t begin_ns = 0;       ///< recorder clock at the begin event
  int64_t deadline_ns = 0;    ///< per-query deadline, 0 = none
  int64_t band = 0;           ///< length band of the query or probe
  int64_t connection = -1;    ///< serve attribution, -1 outside serve
  int64_t seq = 0;            ///< serve attribution, 0 outside serve
  int64_t verify_worlds = 0;  ///< last kVerifyBegin estimate this query
  int64_t funnel_stage = -1;  ///< last kFunnelStage entered this query
};

/// Options for DumpToFd.  `redact_timing` zeroes every wall-clock-derived
/// field (event ts_ns, OS thread ids) so two dumps with the same logical
/// event content are byte-identical — the "non-timing projection" the
/// tests and the serve smoke pin.
struct FlightDumpOptions {
  const char* reason = "manual";  ///< "manual" | "crash" | "watchdog"
  int signal = 0;                 ///< delivering signal for "crash", else 0
  bool redact_timing = false;
};

class FlightRecorder {
 public:
  static constexpr int kMaxThreadSlots = 32;
  static constexpr int kEventsPerThread = 128;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event on the calling thread's ring.  Allocation-, lock-
  /// and syscall-free; safe on the probe path.  The first event on a
  /// thread claims a slot; once kMaxThreadSlots threads have claimed one,
  /// further threads' events count into dropped_events instead.
  void RecordEvent(FlightEvent kind, int64_t a, int64_t b);

  /// Runtime kill switch (default on).  A disabled recorder reduces
  /// RecordEvent to one relaxed load and a branch; the overhead gate
  /// (bench_obs_overhead) measures exactly this delta.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Writes the "ujoin.flight_record" JSON document to `fd`.
  /// Async-signal-safe: fixed buffers + raw write(2) only.  Readers may
  /// race live writers; torn events are detected via their sequence word
  /// and skipped.
  void DumpToFd(int fd, const FlightDumpOptions& options) const;

  /// Seqlock-consistent read of slot `slot`'s in-flight block.  Returns
  /// in_flight == false for unclaimed slots, idle threads, and snapshots
  /// torn by a concurrent begin/end.
  InFlightSnapshot ReadInFlight(int slot) const;

  /// Thread slots claimed so far (watchdog scan bound).  Clamped to
  /// kMaxThreadSlots: the claim counter overshoots when more threads than
  /// slots show up, and readers index slots_ with this value.
  int slots_used() const {
    const int64_t used = slots_used_.load(std::memory_order_acquire);
    return static_cast<int>(used < kMaxThreadSlots ? used : kMaxThreadSlots);
  }

  /// Events dropped because every thread slot was claimed.
  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Monotonic recorder clock, nanoseconds since the first use in this
  /// process.  Event timestamps and watchdog elapsed math share it.
  static int64_t NowNs();

 private:
  // Ring event layout: 5 words per event.  Word 0 is the per-event
  // sequence (1-based; 0 = being written), doubling as a seqlock so a
  // reader can detect an event overwritten mid-read.
  static constexpr int kWordsPerEvent = 5;

  struct Slot {
    std::atomic<int64_t> claimed_thread{0};  // logical thread id + 1; 0=free
    std::atomic<int64_t> os_tid{0};
    std::atomic<int64_t> head{0};            // events ever recorded
    std::atomic<int64_t> words[kEventsPerThread * kWordsPerEvent] = {};
    // In-flight block (see InFlightSnapshot).  Owner-written, watchdog-read.
    std::atomic<int64_t> q_epoch{0};
    std::atomic<int64_t> q_begin_ns{0};
    std::atomic<int64_t> q_deadline_ns{0};
    std::atomic<int64_t> q_band{0};
    std::atomic<int64_t> q_connection{-1};
    std::atomic<int64_t> q_seq{0};
    std::atomic<int64_t> q_verify_worlds{0};
    std::atomic<int64_t> q_funnel_stage{-1};
  };

  int SlotForThisThread();
  void DumpSlot(int fd, int slot, bool redact, char* buf, int* len) const;

  Slot slots_[kMaxThreadSlots];
  std::atomic<int64_t> slots_used_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> kind_counts_[kNumFlightEvents] = {};
  std::atomic<bool> enabled_{true};
};

/// The process-global recorder the UJOIN_OBS_FLIGHT macro targets.
/// Static storage: valid before main, valid inside signal handlers.
FlightRecorder* GlobalFlightRecorder();

/// Opens `path` (created/truncated) and installs SIGSEGV/SIGABRT/SIGBUS
/// handlers that dump the global recorder's flight record to the
/// pre-opened fd and then re-raise with the default disposition
/// (SA_RESETHAND).  Returns false when the file cannot be opened.  Safe to
/// call at most once per process; later calls replace the dump target.
bool InstallCrashDump(const char* path);

/// Dumps the global recorder to `path` with `options` (orderly, non-crash
/// path: open/dump/close).  Returns false when the file cannot be opened.
bool DumpFlightRecord(const char* path, const FlightDumpOptions& options);

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_FLIGHT_RECORDER_H_
