// ujoin-effects-fixture: as=src/obs/watchdog.cc contract=obs-isolation,flight-path
//
// Scoping check: inside src/obs/ the FlightRecorder API is the
// implementation itself — the watchdog records its own capture events —
// so direct RecordEvent calls are allowed.  Taking the recorder pointer
// (GlobalFlightRecorder()) elsewhere is also fine; only recording is
// confined to the macro.  The record path itself only stores into a
// fixed ring slot, so the flight-path contract holds.
namespace ujoin {
namespace obs {

enum class FlightEvent : int { kStallCaptured };

struct FlightSlot {
  long a;
  long b;
  int kind;
};

class FlightRecorder {
 public:
  void RecordEvent(FlightEvent kind, long a, long b);

 private:
  FlightSlot ring_[128];
  unsigned long next_ = 0;
};

void FlightRecorder::RecordEvent(FlightEvent kind, long a, long b) {
  FlightSlot& slot = ring_[next_++ % 128];
  slot.a = a;
  slot.b = b;
  slot.kind = static_cast<int>(kind);
}

void CaptureStall(FlightRecorder* recorder, long slot, long elapsed_ns) {
  recorder->RecordEvent(FlightEvent::kStallCaptured, slot,
                        elapsed_ns);  // in src/obs/: allowed
}

}  // namespace obs
}  // namespace ujoin
