#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>

namespace ujoin {
namespace obs {

namespace {

// Registry names, in FlightEvent order (the dump's "registry" object and
// every event's "kind" field spell these).
constexpr const char* kFlightEventNames[kNumFlightEvents] = {
    "probe_begin",  "funnel_stage", "verify_begin",    "query_begin",
    "query_end",    "batch_boundary", "conn_open",     "conn_close",
    "conn_idle_close", "serve_query", "stall_captured",
};

/// Process-wide logical thread ids, 1-based.  Assigned once per thread on
/// first use; FlightRecorder slots key their claims on this id so a thread
/// that touches two recorder instances (tests) reuses its claim per
/// instance instead of leaking slots.
std::atomic<int64_t> g_thread_ids{0};

int64_t ThisThreadId() {
  thread_local const int64_t id =
      g_thread_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

int64_t OsTid() { return static_cast<int64_t>(syscall(SYS_gettid)); }

struct ThreadSlotCache {
  const void* recorder = nullptr;
  int slot = -1;
};
thread_local ThreadSlotCache t_slot_cache;

// --- async-signal-safe sink ------------------------------------------------
//
// The dump path formats into a fixed caller-provided buffer and emits bytes
// with raw write(2): no malloc, no locks, no stdio, so the same code runs
// inside the SIGSEGV handler.  tools/ujoin_effects.py roots its
// "flight-path" contract at DumpToFd; FlightSinkWrite is the one blessed
// I/O sink below it.

constexpr int kSinkBufBytes = 512;

// ujoin-effect: declares(io) -- raw write(2) to the pre-opened dump fd,
// the only I/O on the async-signal-safe dump path (blessed by the
// flight-path contract).
void FlightSinkWrite(int fd, const char* data, int64_t n) {
  int64_t off = 0;
  while (off < n) {
    const ssize_t wrote =
        write(fd, data + off, static_cast<size_t>(n - off));
    if (wrote <= 0) return;  // dump is best-effort; never loop on error
    off += static_cast<int64_t>(wrote);
  }
}

void SinkFlush(int fd, char* buf, int* len) {
  if (*len > 0) FlightSinkWrite(fd, buf, *len);
  *len = 0;
}

void SinkRaw(int fd, char* buf, int* len, const char* s) {
  for (const char* p = s; *p != '\0'; ++p) {
    if (*len == kSinkBufBytes) SinkFlush(fd, buf, len);
    buf[(*len)++] = *p;
  }
}

void SinkInt(int fd, char* buf, int* len, int64_t v) {
  // Hand-rolled decimal renderer: snprintf is not async-signal-safe.
  char tmp[24];
  int n = 0;
  uint64_t mag = v < 0 ? 0 - static_cast<uint64_t>(v)
                       : static_cast<uint64_t>(v);
  do {
    tmp[n++] = static_cast<char>('0' + static_cast<char>(mag % 10));
    mag /= 10;
  } while (mag != 0);
  if (v < 0) tmp[n++] = '-';
  while (n > 0) {
    if (*len == kSinkBufBytes) SinkFlush(fd, buf, len);
    buf[(*len)++] = tmp[--n];
  }
}

// --- crash handler ---------------------------------------------------------

std::atomic<int> g_crash_fd{-1};

void CrashDumpHandler(int sig) {
  const int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    FlightDumpOptions options;
    options.reason = "crash";
    options.signal = sig;
    GlobalFlightRecorder()->DumpToFd(fd, options);
  }
  // SA_RESETHAND restored the default disposition before we ran; re-raise
  // so the process still dies with the original signal.
  raise(sig);
}

// The global recorder lives in static storage (no construction order, no
// function-local-static guard) so the crash handler can reach it without
// any synchronization.
FlightRecorder g_flight_recorder;

}  // namespace

const char* FlightEventName(FlightEvent kind) {
  const int k = static_cast<int>(kind);
  if (k < 0 || k >= kNumFlightEvents) return "unknown";
  return kFlightEventNames[k];
}

FlightRecorder* GlobalFlightRecorder() { return &g_flight_recorder; }

int64_t FlightRecorder::NowNs() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int FlightRecorder::SlotForThisThread() {
  const int64_t tid = ThisThreadId();
  if (t_slot_cache.recorder == this) {
    const int cached = t_slot_cache.slot;
    // Revalidate the claim: a destroyed instance's address can be reused by
    // a new recorder (tests), making the cache hit spurious.
    if (cached < 0 ||
        slots_[static_cast<size_t>(cached)].claimed_thread.load(
            std::memory_order_relaxed) == tid) {
      return cached;
    }
  }
  int slot = -1;
  // Reuse an existing claim first (a thread re-entering this instance
  // after touching another recorder, e.g. in tests).
  const int used = slots_used();
  for (int i = 0; i < used; ++i) {
    if (slots_[i].claimed_thread.load(std::memory_order_relaxed) == tid) {
      slot = i;
      break;
    }
  }
  if (slot < 0) {
    const int64_t claimed =
        slots_used_.fetch_add(1, std::memory_order_acq_rel);
    if (claimed < kMaxThreadSlots) {
      slot = static_cast<int>(claimed);
      slots_[slot].claimed_thread.store(tid, std::memory_order_relaxed);
      slots_[slot].os_tid.store(OsTid(), std::memory_order_relaxed);
    }
    // Overshoot stays in slots_used_; every reader clamps to
    // kMaxThreadSlots, and this thread's events count as dropped.
  }
  t_slot_cache.recorder = this;
  t_slot_cache.slot = slot;
  return slot;
}

void FlightRecorder::RecordEvent(FlightEvent kind, int64_t a, int64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const int slot_index = SlotForThisThread();
  if (slot_index < 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  const int64_t ts = NowNs();
  const int64_t head = slot.head.load(std::memory_order_relaxed);
  std::atomic<int64_t>* w =
      &slot.words[static_cast<size_t>(head % kEventsPerThread) *
                  kWordsPerEvent];
  // Per-event seqlock: word 0 goes to 0 (being written), then the payload,
  // then the 1-based sequence.  A dump racing this write sees either the
  // old sequence with the old payload, 0, or the new sequence with the new
  // payload — torn events are skipped, never misreported.
  w[0].store(0, std::memory_order_release);
  w[1].store(ts, std::memory_order_relaxed);
  w[2].store(static_cast<int64_t>(kind), std::memory_order_relaxed);
  w[3].store(a, std::memory_order_relaxed);
  w[4].store(b, std::memory_order_relaxed);
  w[0].store(head + 1, std::memory_order_release);
  slot.head.store(head + 1, std::memory_order_release);
  kind_counts_[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);

  // In-flight block for the watchdog: begin/end events open and close an
  // epoch (odd = in flight); progress events refresh single words.
  switch (kind) {
    case FlightEvent::kQueryBegin: {
      slot.q_begin_ns.store(ts, std::memory_order_relaxed);
      slot.q_deadline_ns.store(a, std::memory_order_relaxed);
      slot.q_band.store(b, std::memory_order_relaxed);
      slot.q_verify_worlds.store(0, std::memory_order_relaxed);
      slot.q_funnel_stage.store(-1, std::memory_order_relaxed);
      const int64_t e = slot.q_epoch.load(std::memory_order_relaxed);
      slot.q_epoch.store(e + ((e & 1) != 0 ? 2 : 1),
                         std::memory_order_release);
      break;
    }
    case FlightEvent::kQueryEnd: {
      const int64_t e = slot.q_epoch.load(std::memory_order_relaxed);
      if ((e & 1) != 0) {
        slot.q_epoch.store(e + 1, std::memory_order_release);
      }
      break;
    }
    case FlightEvent::kServeQuery:
      slot.q_connection.store(a, std::memory_order_relaxed);
      slot.q_seq.store(b, std::memory_order_relaxed);
      break;
    case FlightEvent::kFunnelStage:
      slot.q_funnel_stage.store(a, std::memory_order_relaxed);
      break;
    case FlightEvent::kVerifyBegin:
      slot.q_verify_worlds.store(a, std::memory_order_relaxed);
      // Verification has no explicit kFunnelStage event; stamp the stage so
      // a stall report can say "stuck in verify" (3 == FunnelStage::kVerify).
      slot.q_funnel_stage.store(3, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

InFlightSnapshot FlightRecorder::ReadInFlight(int slot) const {
  InFlightSnapshot snap;
  if (slot < 0 || slot >= slots_used()) return snap;
  const Slot& s = slots_[static_cast<size_t>(slot)];
  const int64_t e1 = s.q_epoch.load(std::memory_order_acquire);
  if ((e1 & 1) == 0) return snap;
  snap.epoch = e1;
  snap.begin_ns = s.q_begin_ns.load(std::memory_order_relaxed);
  snap.deadline_ns = s.q_deadline_ns.load(std::memory_order_relaxed);
  snap.band = s.q_band.load(std::memory_order_relaxed);
  snap.connection = s.q_connection.load(std::memory_order_relaxed);
  snap.seq = s.q_seq.load(std::memory_order_relaxed);
  snap.verify_worlds = s.q_verify_worlds.load(std::memory_order_relaxed);
  snap.funnel_stage = s.q_funnel_stage.load(std::memory_order_relaxed);
  const int64_t e2 = s.q_epoch.load(std::memory_order_acquire);
  if (e2 != e1) return InFlightSnapshot{};  // torn by a begin/end; skip
  snap.in_flight = true;
  return snap;
}

void FlightRecorder::DumpSlot(int fd, int slot, bool redact, char* buf,
                              int* len) const {
  const Slot& s = slots_[static_cast<size_t>(slot)];
  const int64_t head = s.head.load(std::memory_order_acquire);
  SinkRaw(fd, buf, len, "{\"slot\":");
  SinkInt(fd, buf, len, slot);
  SinkRaw(fd, buf, len, ",\"os_tid\":");
  SinkInt(fd, buf, len,
          redact ? 0 : s.os_tid.load(std::memory_order_relaxed));
  SinkRaw(fd, buf, len, ",\"recorded\":");
  SinkInt(fd, buf, len, head);
  SinkRaw(fd, buf, len, ",\"events\":[");
  const int64_t first =
      head > kEventsPerThread ? head - kEventsPerThread : 0;
  bool first_out = true;
  for (int64_t i = first; i < head; ++i) {
    const std::atomic<int64_t>* w =
        &s.words[static_cast<size_t>(i % kEventsPerThread) * kWordsPerEvent];
    const int64_t s1 = w[0].load(std::memory_order_acquire);
    if (s1 != i + 1) continue;  // overwritten or mid-write: skip
    const int64_t ts = w[1].load(std::memory_order_relaxed);
    const int64_t kind = w[2].load(std::memory_order_relaxed);
    const int64_t a = w[3].load(std::memory_order_relaxed);
    const int64_t b = w[4].load(std::memory_order_relaxed);
    const int64_t s2 = w[0].load(std::memory_order_acquire);
    if (s2 != s1) continue;  // torn by a live writer: skip
    if (!first_out) SinkRaw(fd, buf, len, ",");
    first_out = false;
    SinkRaw(fd, buf, len, "{\"seq\":");
    SinkInt(fd, buf, len, s1);
    SinkRaw(fd, buf, len, ",\"ts_ns\":");
    SinkInt(fd, buf, len, redact ? 0 : ts);
    SinkRaw(fd, buf, len, ",\"kind\":\"");
    SinkRaw(fd, buf, len, FlightEventName(static_cast<FlightEvent>(kind)));
    SinkRaw(fd, buf, len, "\",\"a\":");
    SinkInt(fd, buf, len, a);
    SinkRaw(fd, buf, len, ",\"b\":");
    SinkInt(fd, buf, len, b);
    SinkRaw(fd, buf, len, "}");
  }
  SinkRaw(fd, buf, len, "]}");
}

void FlightRecorder::DumpToFd(int fd, const FlightDumpOptions& options) const {
  char buf[kSinkBufBytes];
  int len = 0;
  SinkRaw(fd, buf, &len,
          "{\"schema\":\"ujoin.flight_record\",\"schema_version\":3,"
          "\"reason\":\"");
  SinkRaw(fd, buf, &len, options.reason);
  SinkRaw(fd, buf, &len, "\",\"signal\":");
  SinkInt(fd, buf, &len, options.signal);
  SinkRaw(fd, buf, &len, ",\"build\":{\"compiler\":\"");
  SinkRaw(fd, buf, &len, __VERSION__);
  SinkRaw(fd, buf, &len, "\"},\"dropped_events\":");
  SinkInt(fd, buf, &len, dropped_.load(std::memory_order_relaxed));
  SinkRaw(fd, buf, &len, ",\"threads_registered\":");
  const int used = slots_used();
  SinkInt(fd, buf, &len, used);
  SinkRaw(fd, buf, &len, ",\"registry\":{");
  for (int k = 0; k < kNumFlightEvents; ++k) {
    if (k > 0) SinkRaw(fd, buf, &len, ",");
    SinkRaw(fd, buf, &len, "\"");
    SinkRaw(fd, buf, &len, kFlightEventNames[k]);
    SinkRaw(fd, buf, &len, "\":");
    SinkInt(fd, buf, &len,
            kind_counts_[static_cast<size_t>(k)].load(
                std::memory_order_relaxed));
  }
  SinkRaw(fd, buf, &len, "},\"threads\":[");
  for (int slot = 0; slot < used; ++slot) {
    if (slot > 0) SinkRaw(fd, buf, &len, ",");
    DumpSlot(fd, slot, options.redact_timing, buf, &len);
  }
  SinkRaw(fd, buf, &len, "]}\n");
  SinkFlush(fd, buf, &len);
}

bool InstallCrashDump(const char* path) {
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const int old = g_crash_fd.exchange(fd, std::memory_order_relaxed);
  if (old >= 0) close(old);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashDumpHandler;
  sigemptyset(&sa.sa_mask);
  // One shot: the handler dumps, then the re-raise hits the restored
  // default disposition, so a crash inside the dump cannot recurse.
  sa.sa_flags = static_cast<int>(SA_RESETHAND);
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGABRT, &sa, nullptr);
  sigaction(SIGBUS, &sa, nullptr);
  return true;
}

bool DumpFlightRecord(const char* path, const FlightDumpOptions& options) {
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  GlobalFlightRecorder()->DumpToFd(fd, options);
  close(fd);
  return true;
}

}  // namespace obs
}  // namespace ujoin
