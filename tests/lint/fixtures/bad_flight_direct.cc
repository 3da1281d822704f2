// ujoin-effects-fixture: as=src/join/search.cc
//
// Seeded obs-isolation violations: pipeline code recording flight events
// by calling the FlightRecorder directly.  These sites keep running when
// -DUJOIN_OBS=OFF is supposed to compile instrumentation out, and they
// bypass UJOIN_OBS_FLIGHT_EVENT, the one record site outside src/obs/.
namespace ujoin {

namespace obs {
enum class FlightEvent : int { kQueryBegin, kQueryEnd };
class FlightRecorder {
 public:
  void RecordEvent(FlightEvent kind, long a, long b);
};
FlightRecorder* GlobalFlightRecorder();
}  // namespace obs

void ProbeOnce(long deadline_ns) {
  obs::GlobalFlightRecorder()->RecordEvent(  // flagged: obs-isolation
      obs::FlightEvent::kQueryBegin, deadline_ns, 0);
}

void FinishProbe(obs::FlightRecorder& recorder, long hits) {
  recorder.RecordEvent(obs::FlightEvent::kQueryEnd, hits, 0);  // flagged: obs-isolation
}

}  // namespace ujoin
