// Flight recorder unit tests: ring overwrite, byte-golden redacted dumps,
// the in-flight block the watchdog reads, torn-read safety under a live
// writer (the TSan leg's target), and the validator sample fixture
// (tools/validate.py checks the bytes this test writes).

#include "obs/flight_recorder.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs_macros.h"
#include "util/check.h"

namespace ujoin {
namespace obs {
namespace {

// Local recorders are ~200 KiB of atomics; keep them off the stack.
std::unique_ptr<FlightRecorder> NewRecorder() {
  return std::make_unique<FlightRecorder>();
}

// Dumps `recorder` through the same fd path the crash handler uses and
// returns the bytes.
std::string DumpToString(const FlightRecorder& recorder,
                         const FlightDumpOptions& options) {
  std::FILE* f = std::tmpfile();
  UJOIN_CHECK(f != nullptr);
  recorder.DumpToFd(fileno(f), options);
  std::fflush(f);
  std::rewind(f);
  std::string out;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.append(chunk, n);
  }
  std::fclose(f);
  return out;
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(FlightRecorderTest, EventNamesMatchRegistryOrder) {
  const char* expected[kNumFlightEvents] = {
      "probe_begin",     "funnel_stage", "verify_begin",   "query_begin",
      "query_end",       "batch_boundary", "conn_open",    "conn_close",
      "conn_idle_close", "serve_query",  "stall_captured",
  };
  for (int k = 0; k < kNumFlightEvents; ++k) {
    EXPECT_STREQ(FlightEventName(static_cast<FlightEvent>(k)), expected[k]);
  }
  EXPECT_STREQ(FlightEventName(static_cast<FlightEvent>(-1)), "unknown");
  EXPECT_STREQ(FlightEventName(static_cast<FlightEvent>(kNumFlightEvents)),
               "unknown");
}

TEST(FlightRecorderTest, RecordsEventsAndClaimsOneSlotPerThread) {
  auto recorder = NewRecorder();
  EXPECT_EQ(recorder->slots_used(), 0);
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 4);
  recorder->RecordEvent(FlightEvent::kProbeBegin, 0, 3);
  recorder->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
  EXPECT_EQ(recorder->slots_used(), 1);
  EXPECT_EQ(recorder->dropped_events(), 0);

  const std::string dump = DumpToString(*recorder, FlightDumpOptions{});
  EXPECT_NE(dump.find("\"schema\":\"ujoin.flight_record\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"query_begin\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"probe_begin\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"recorded\":3"), std::string::npos) << dump;
  EXPECT_EQ(CountOccurrences(dump, "{\"seq\":"), 3) << dump;
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  auto recorder = NewRecorder();
  recorder->set_enabled(false);
  EXPECT_FALSE(recorder->enabled());
  recorder->RecordEvent(FlightEvent::kProbeBegin, 1, 2);
  EXPECT_EQ(recorder->slots_used(), 0);
  EXPECT_EQ(recorder->dropped_events(), 0);
  recorder->set_enabled(true);
  recorder->RecordEvent(FlightEvent::kProbeBegin, 1, 2);
  EXPECT_EQ(recorder->slots_used(), 1);
}

// The ring keeps the newest kEventsPerThread events; older ones are
// overwritten in place and vanish from the dump, while `recorded` keeps
// the lifetime count.
TEST(FlightRecorderTest, RingOverwriteKeepsNewestWindow) {
  auto recorder = NewRecorder();
  const int total = FlightRecorder::kEventsPerThread + 50;
  for (int i = 0; i < total; ++i) {
    recorder->RecordEvent(FlightEvent::kProbeBegin, i, 0);
  }
  const std::string dump = DumpToString(*recorder, FlightDumpOptions{});
  EXPECT_NE(dump.find("\"recorded\":178"), std::string::npos) << dump;
  EXPECT_EQ(CountOccurrences(dump, "{\"seq\":"),
            FlightRecorder::kEventsPerThread);
  // Oldest surviving event is seq 51 (1-based); 50 and older are gone.
  EXPECT_NE(dump.find("{\"seq\":51,"), std::string::npos);
  EXPECT_EQ(dump.find("{\"seq\":50,"), std::string::npos);
  EXPECT_NE(dump.find("{\"seq\":178,"), std::string::npos);
  // The payload words follow the overwrite: the newest event carries its
  // own `a`, not a stale one.
  EXPECT_NE(dump.find("{\"seq\":178,\"ts_ns\":"), std::string::npos);
  EXPECT_NE(dump.find("\"a\":177,\"b\":0}"), std::string::npos);
}

// Two recorders fed the same logical events dump byte-identically once the
// timing tier (ts_ns, os_tid) is redacted — the projection the serve smoke
// compares across client counts.
TEST(FlightRecorderTest, RedactedDumpIsByteGolden) {
  auto a = NewRecorder();
  auto b = NewRecorder();
  for (FlightRecorder* r : {a.get(), b.get()}) {
    r->RecordEvent(FlightEvent::kQueryBegin, 1'000'000, 4);
    r->RecordEvent(FlightEvent::kFunnelStage, 0, 37);
    r->RecordEvent(FlightEvent::kVerifyBegin, 512, 0);
    r->RecordEvent(FlightEvent::kQueryEnd, 3, 0);
  }
  FlightDumpOptions redacted;
  redacted.redact_timing = true;
  const std::string dump_a = DumpToString(*a, redacted);
  const std::string dump_b = DumpToString(*b, redacted);
  EXPECT_EQ(dump_a, dump_b);
  EXPECT_NE(dump_a.find("\"os_tid\":0"), std::string::npos);
  EXPECT_EQ(CountOccurrences(dump_a, "\"ts_ns\":0"), 4) << dump_a;
  // Unredacted dumps still agree on everything but the timing words.
  const std::string live = DumpToString(*a, FlightDumpOptions{});
  EXPECT_NE(live.find("\"a\":1000000,\"b\":4}"), std::string::npos);
}

TEST(FlightRecorderTest, InFlightBlockTracksQueryLifecycle) {
  auto recorder = NewRecorder();
  // Nothing in flight before the first begin event.
  recorder->RecordEvent(FlightEvent::kConnOpen, 7, 0);
  EXPECT_FALSE(recorder->ReadInFlight(0).in_flight);

  // Serve attribution is stamped before the query begins and survives it.
  recorder->RecordEvent(FlightEvent::kServeQuery, 7, 3);
  recorder->RecordEvent(FlightEvent::kQueryBegin, 5'000'000, 6);
  InFlightSnapshot snap = recorder->ReadInFlight(0);
  ASSERT_TRUE(snap.in_flight);
  EXPECT_EQ(snap.epoch % 2, 1);
  EXPECT_EQ(snap.deadline_ns, 5'000'000);
  EXPECT_EQ(snap.band, 6);
  EXPECT_EQ(snap.connection, 7);
  EXPECT_EQ(snap.seq, 3);
  EXPECT_EQ(snap.verify_worlds, 0);
  EXPECT_EQ(snap.funnel_stage, -1);
  EXPECT_GT(snap.begin_ns, 0);

  // Funnel progress refreshes the stage; verify-begin stamps the world
  // estimate and moves the stage to verification.
  recorder->RecordEvent(FlightEvent::kFunnelStage, 1, 12);
  EXPECT_EQ(recorder->ReadInFlight(0).funnel_stage, 1);
  recorder->RecordEvent(FlightEvent::kVerifyBegin, 123456, 0);
  snap = recorder->ReadInFlight(0);
  EXPECT_EQ(snap.verify_worlds, 123456);
  EXPECT_EQ(snap.funnel_stage, 3);

  recorder->RecordEvent(FlightEvent::kQueryEnd, 2, 0);
  EXPECT_FALSE(recorder->ReadInFlight(0).in_flight);

  // A new begin opens a fresh epoch and resets the per-query words, but
  // keeps the connection attribution.
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 9);
  const InFlightSnapshot next = recorder->ReadInFlight(0);
  ASSERT_TRUE(next.in_flight);
  EXPECT_GT(next.epoch, snap.epoch);
  EXPECT_EQ(next.verify_worlds, 0);
  EXPECT_EQ(next.funnel_stage, -1);
  EXPECT_EQ(next.connection, 7);

  // Out-of-range slots read as idle, never as garbage.
  EXPECT_FALSE(recorder->ReadInFlight(-1).in_flight);
  EXPECT_FALSE(recorder->ReadInFlight(1).in_flight);
  EXPECT_FALSE(
      recorder->ReadInFlight(FlightRecorder::kMaxThreadSlots).in_flight);
}

// A dropped end event (error path without the RAII guard) must not wedge
// the block: the next begin replaces the open epoch.
TEST(FlightRecorderTest, ReopenWithoutEndReplacesEpoch) {
  auto recorder = NewRecorder();
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 1);
  const int64_t first = recorder->ReadInFlight(0).epoch;
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 2);
  const InFlightSnapshot snap = recorder->ReadInFlight(0);
  ASSERT_TRUE(snap.in_flight);
  EXPECT_EQ(snap.epoch, first + 2);
  EXPECT_EQ(snap.band, 2);
}

// Concurrent dumps and in-flight reads against a live writer: the per-event
// seqlock turns every race into a skipped event, never a data race (this is
// the TSan leg's target) and never malformed output.
TEST(FlightRecorderTest, DumpAndReadRaceLiveWriterSafely) {
  auto recorder = NewRecorder();
  std::thread writer([&recorder] {
    for (int i = 0; i < 20000; ++i) {
      recorder->RecordEvent(FlightEvent::kQueryBegin, 1000, i % 8);
      recorder->RecordEvent(FlightEvent::kVerifyBegin, i, 0);
      recorder->RecordEvent(FlightEvent::kQueryEnd, i % 3, 0);
    }
  });
  for (int round = 0; round < 25; ++round) {
    const std::string dump = DumpToString(*recorder, FlightDumpOptions{});
    // Structurally whole even when racing: opens with the schema, closes
    // the threads array, and never emits a half-written event.
    ASSERT_EQ(dump.rfind("{\"schema\":\"ujoin.flight_record\"", 0), 0u);
    ASSERT_EQ(dump.substr(dump.size() - 3), "]}\n");
    ASSERT_EQ(CountOccurrences(dump, "{\"seq\":"),
              CountOccurrences(dump, ",\"b\":"));
    for (int slot = 0; slot < FlightRecorder::kMaxThreadSlots; ++slot) {
      const InFlightSnapshot snap = recorder->ReadInFlight(slot);
      if (snap.in_flight) {
        ASSERT_EQ(snap.deadline_ns, 1000);
        ASSERT_GE(snap.band, 0);
        ASSERT_LT(snap.band, 8);
      }
    }
  }
  writer.join();
  const std::string final_dump = DumpToString(*recorder, FlightDumpOptions{});
  EXPECT_NE(final_dump.find("\"query_begin\":20000"), std::string::npos);
  EXPECT_NE(final_dump.find("\"recorded\":60000"), std::string::npos);
}

// Writes the sample record tools/validate.py checks (ctest
// fixture ujoin_flight_record_sample; working directory is the binary dir).
TEST(FlightRecorderTest, WritesSampleForValidator) {
  FlightRecorder* recorder = GlobalFlightRecorder();
  ASSERT_TRUE(recorder->enabled());
  // One of every kind, through the macro the production code uses, plus a
  // second thread so the multi-thread shape is exercised.
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kQueryBegin, 0, 3);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kProbeBegin, 0, 7);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kFunnelStage, 0, 12);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kVerifyBegin, 512, 0);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kQueryEnd, 1, 0);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kConnOpen, 1, 0);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kServeQuery, 1, 1);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kQueryBegin, 2'000'000, 5);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kQueryEnd, 3, 0);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kBatchBoundary, 1, 0);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kConnIdleClose, 1, 250);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kConnClose, 1, 1);
  UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kStallCaptured, 0, 9'000'000);
  std::thread([] {
    UJOIN_OBS_FLIGHT_EVENT(FlightEvent::kProbeBegin, 1, 8);
  }).join();
  ASSERT_TRUE(DumpFlightRecord("flight_record_sample.json",
                               FlightDumpOptions{}));
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
