// ujoin-effects-fixture: as=src/join/self_join.cc contract=obs-isolation
//
// Clean counterpart of bad_obs_direct.cc: recording goes through the
// UJOIN_OBS_* macros (null-guarded, compiled out under -DUJOIN_OBS=OFF);
// *reading* a recorder (counter()/hist()/gauge()) is always allowed.
#define UJOIN_OBS_HIST(recorder, id, value) \
  do {                                      \
  } while (0)
#define UJOIN_OBS_COUNTER(recorder, id, delta) \
  do {                                         \
  } while (0)
#define UJOIN_OBS_GAUGE(recorder, id, value) \
  do {                                       \
  } while (0)

namespace ujoin {

namespace obs {
enum class Hist : int { kProbeLatencyNs };
enum class Counter : int { kProbes };
class Recorder {
 public:
  long counter(Counter c) const;
};
}  // namespace obs

void ProbeOnce(obs::Recorder* rec, long elapsed_ns) {
  UJOIN_OBS_HIST(rec, obs::Hist::kProbeLatencyNs, elapsed_ns);
  UJOIN_OBS_COUNTER(rec, obs::Counter::kProbes, 1);
}

long ProbesSoFar(const obs::Recorder& rec) {
  return rec.counter(obs::Counter::kProbes);  // reads are fine
}

}  // namespace ujoin
