// ujoin-effects-fixture: as=src/obs/mini_flight.cc witness=ujoin::obs::FlightRecorder::RecordEvent,ujoin::obs::StampLabel,ujoin::obs::RenderLabel
//
// Seeded violation for the flight-path contract: a helper two hops below
// FlightRecorder::RecordEvent formats the event label with std::to_string,
// which allocates.  The record path runs inside the zero-allocation probe
// path, so this must be flagged (multi-hop witness: RecordEvent ->
// StampLabel -> RenderLabel).
#include <string>

namespace ujoin {
namespace obs {

std::string RenderLabel(int kind) {
  return std::to_string(kind);  // flagged: flight-path (allocates)
}

int StampLabel(int kind) {
  return static_cast<int>(RenderLabel(kind).size());
}

class FlightRecorder {
 public:
  void RecordEvent(int kind, long a, long b);
};

void FlightRecorder::RecordEvent(int kind, long a, long b) {
  (void)a;
  (void)b;
  (void)StampLabel(kind);
}

}  // namespace obs
}  // namespace ujoin
