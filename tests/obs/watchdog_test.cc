// Stall watchdog unit tests, driven deterministically: Configure + ScanOnce
// with explicit recorder-clock values, so thresholds, per-epoch dedupe, the
// content-sorted report ring, and the rendered /debug/stalls page are all
// checked without sleeping or racing the scan thread.

#include "obs/watchdog.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "util/check.h"

namespace ujoin {
namespace obs {
namespace {

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest()
      : recorder_(std::make_unique<FlightRecorder>()),
        watchdog_(recorder_.get()) {}

  // The calling thread's in-flight begin time: ScanOnce thresholds are
  // relative to it.
  int64_t BeginNs() {
    const InFlightSnapshot snap = recorder_->ReadInFlight(0);
    UJOIN_CHECK(snap.in_flight);
    return snap.begin_ns;
  }

  std::unique_ptr<FlightRecorder> recorder_;
  Watchdog watchdog_;
};

TEST_F(WatchdogTest, CapturesPastDeadlineMultiple) {
  WatchdogOptions options;
  options.deadline_multiple = 4.0;
  watchdog_.Configure(options);

  recorder_->RecordEvent(FlightEvent::kQueryBegin, /*deadline_ns=*/1000,
                         /*band=*/6);
  const int64_t begin = BeginNs();
  // At exactly the threshold: not yet a stall (strictly greater trips it).
  watchdog_.ScanOnce(begin + 4000);
  EXPECT_EQ(watchdog_.captures(), 0);
  watchdog_.ScanOnce(begin + 4001);
  EXPECT_EQ(watchdog_.captures(), 1);

  const std::vector<StallReport> reports = watchdog_.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].band, 6);
  EXPECT_EQ(reports[0].deadline_ns, 1000);
  EXPECT_EQ(reports[0].threshold_ns, 4000);
  EXPECT_EQ(reports[0].elapsed_ns, 4001);
  EXPECT_EQ(reports[0].funnel_stage, -1);
  EXPECT_EQ(reports[0].connection, -1);

  // The capture itself is a flight event on the watchdog's (this) thread's
  // ring — the black box records its own alarms.
  // Slot 0 belongs to the stalled thread (also this thread here); the
  // registry total is the observable.
  recorder_->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
  EXPECT_FALSE(recorder_->ReadInFlight(0).in_flight);
}

TEST_F(WatchdogTest, FlatThresholdCoversDeadlinelessWork) {
  WatchdogOptions options;
  options.stall_ns = 5000;
  watchdog_.Configure(options);

  // A self-join probe: no deadline, length band 3.
  recorder_->RecordEvent(FlightEvent::kQueryBegin, /*deadline_ns=*/0,
                         /*band=*/3);
  const int64_t begin = BeginNs();
  watchdog_.ScanOnce(begin + 5000);
  EXPECT_EQ(watchdog_.captures(), 0);
  watchdog_.ScanOnce(begin + 5001);
  EXPECT_EQ(watchdog_.captures(), 1);
  const std::vector<StallReport> reports = watchdog_.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].band, 3);
  EXPECT_EQ(reports[0].deadline_ns, 0);
  EXPECT_EQ(reports[0].threshold_ns, 5000);
}

TEST_F(WatchdogTest, ZeroFlatThresholdNeverFlagsDeadlinelessWork) {
  watchdog_.Configure(WatchdogOptions{});  // stall_ns = 0
  recorder_->RecordEvent(FlightEvent::kQueryBegin, /*deadline_ns=*/0, 10);
  watchdog_.ScanOnce(BeginNs() + 1'000'000'000'000);
  EXPECT_EQ(watchdog_.captures(), 0);
}

TEST_F(WatchdogTest, DedupesPerEpochAcrossTicks) {
  WatchdogOptions options;
  options.stall_ns = 1000;
  watchdog_.Configure(options);

  recorder_->RecordEvent(FlightEvent::kQueryBegin, 0, 2);
  const int64_t begin = BeginNs();
  // A stall that persists across many scan ticks yields one report.
  for (int tick = 1; tick <= 5; ++tick) {
    watchdog_.ScanOnce(begin + 2000 + tick);
  }
  EXPECT_EQ(watchdog_.captures(), 1);

  // A new query on the same slot is a new epoch: captured again.
  recorder_->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
  recorder_->RecordEvent(FlightEvent::kQueryBegin, 0, 2);
  watchdog_.ScanOnce(BeginNs() + 2000);
  EXPECT_EQ(watchdog_.captures(), 2);
}

TEST_F(WatchdogTest, IdleAndFinishedWorkIsNeverFlagged) {
  WatchdogOptions options;
  options.stall_ns = 1;
  watchdog_.Configure(options);

  // Idle slot (events recorded, no open epoch).
  recorder_->RecordEvent(FlightEvent::kProbeBegin, 0, 0);
  watchdog_.ScanOnce(FlightRecorder::NowNs() + 1'000'000'000);
  EXPECT_EQ(watchdog_.captures(), 0);

  // A query that ends before the scan is not a stall.
  recorder_->RecordEvent(FlightEvent::kQueryBegin, 0, 1);
  recorder_->RecordEvent(FlightEvent::kQueryEnd, 1, 0);
  watchdog_.ScanOnce(FlightRecorder::NowNs() + 1'000'000'000);
  EXPECT_EQ(watchdog_.captures(), 0);
}

// The report ring is bounded and content-sorted: with more stalls than
// kMaxReports, the retained set is the smallest content keys, independent
// of arrival order.
TEST_F(WatchdogTest, RingKeepsSmallestContentKeys) {
  WatchdogOptions options;
  options.stall_ns = 1000;
  watchdog_.Configure(options);

  // Bands arrive in descending order, so the retained-ascending result can
  // only come from content sorting, not arrival order.
  const int total = Watchdog::kMaxReports + 4;
  for (int i = 0; i < total; ++i) {
    const int64_t band = total - 1 - i;
    recorder_->RecordEvent(FlightEvent::kQueryBegin, 0, band);
    watchdog_.ScanOnce(BeginNs() + 2000);
    recorder_->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
  }
  EXPECT_EQ(watchdog_.captures(), total);
  const std::vector<StallReport> reports = watchdog_.Reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(Watchdog::kMaxReports));
  for (int i = 0; i < Watchdog::kMaxReports; ++i) {
    EXPECT_EQ(reports[static_cast<size_t>(i)].band, i);
  }
}

TEST_F(WatchdogTest, CaptureRecordsFlightEventAndPushesPage) {
  WatchdogOptions options;
  options.stall_ns = 1000;
  std::string pushed;
  watchdog_.set_push_fn([&pushed](const std::string& page) { pushed = page; });
  watchdog_.Configure(options);

  recorder_->RecordEvent(FlightEvent::kServeQuery, 4, 9);
  recorder_->RecordEvent(FlightEvent::kQueryBegin, 0, 5);
  watchdog_.ScanOnce(BeginNs() + 2000);
  ASSERT_EQ(watchdog_.captures(), 1);
  // The push carries the freshly rendered page, with serve attribution.
  EXPECT_NE(pushed.find("\"schema\":\"ujoin.stalls\""), std::string::npos);
  EXPECT_NE(pushed.find("\"connection\":4,\"seq\":9"), std::string::npos)
      << pushed;
  EXPECT_EQ(pushed, watchdog_.StallsJson());
  // The kStallCaptured event landed on the scanning thread's ring.
  recorder_->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
}

// The page bytes are a pure function of the reports: golden-pinned here,
// shared with the serve smoke's non-timing projection.
TEST(StallsPageTest, RenderIsByteGolden) {
  EXPECT_EQ(RenderStallsPage({}, 0),
            "{\"schema\":\"ujoin.stalls\",\"schema_version\":1,"
            "\"captures\":0,\"stalls\":[]}");

  StallReport report;
  report.band = 5;
  report.funnel_stage = 3;  // FunnelStage::kVerify
  report.verify_worlds = 1'300'000'000;
  report.deadline_ns = 2'000'000;
  report.threshold_ns = 8'000'000;
  report.connection = 2;
  report.seq = 7;
  report.elapsed_ns = 9'000'001;
  EXPECT_EQ(RenderStallsPage({report}, 3),
            "{\"schema\":\"ujoin.stalls\",\"schema_version\":1,"
            "\"captures\":3,\"stalls\":[{\"band\":5,"
            "\"funnel_stage\":\"verify\",\"verify_worlds\":1300000000,"
            "\"deadline_ns\":2000000,\"threshold_ns\":8000000,"
            "\"connection\":2,\"seq\":7,\"elapsed_ns\":9000001}]}");

  // Out-of-range stages render as "none" (stalled before the funnel).
  report.funnel_stage = -1;
  EXPECT_NE(RenderStallsPage({report}, 1).find("\"funnel_stage\":\"none\""),
            std::string::npos);
}

// Start/Stop lifecycle: the thread scans on its own and a live stall is
// captured without any manual ScanOnce.  Uses a generous poll so the test
// stays fast; the stall is made unmissable (threshold 1 ns).
TEST(WatchdogThreadTest, BackgroundScanCapturesAndStops) {
  auto recorder = std::make_unique<FlightRecorder>();
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 1);

  Watchdog watchdog(recorder.get());
  WatchdogOptions options;
  options.stall_ns = 1;
  options.poll_ms = 1;
  watchdog.Start(options);
  // Second Start is a no-op while running.
  watchdog.Start(options);
  for (int i = 0; i < 2000 && watchdog.captures() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(watchdog.captures(), 1);
  watchdog.Stop();
  watchdog.Stop();  // idempotent
  const int64_t after_stop = watchdog.captures();
  recorder->RecordEvent(FlightEvent::kQueryEnd, 0, 0);
  recorder->RecordEvent(FlightEvent::kQueryBegin, 0, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(watchdog.captures(), after_stop);
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
