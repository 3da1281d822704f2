// ujoin-effects-fixture: as=src/join/self_join.cc
//
// Seeded violations: worker code recording metrics by calling the Recorder
// directly.  These sites lose the null-recorder guard and keep running
// when -DUJOIN_OBS=OFF is supposed to compile instrumentation out.
namespace ujoin {

namespace obs {
enum class Hist : int { kProbeLatencyNs };
enum class Counter : int { kProbes };
enum class Gauge : int { kThreads };
class Recorder {
 public:
  void RecordHist(Hist h, long value);
  void AddCounter(Counter c, long delta);
  void SetGauge(Gauge g, long value);
};
}  // namespace obs

void ProbeOnce(obs::Recorder* rec, long elapsed_ns) {
  rec->RecordHist(obs::Hist::kProbeLatencyNs, elapsed_ns);  // flagged: obs-isolation
  rec->AddCounter(obs::Counter::kProbes, 1);                // flagged: obs-isolation
}

void Configure(obs::Recorder& rec, long threads) {
  rec.SetGauge(obs::Gauge::kThreads, threads);  // flagged: obs-isolation
}

}  // namespace ujoin
