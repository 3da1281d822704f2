// ujoin-effects-fixture: as=src/join/search.cc contract=obs-isolation
//
// Clean counterpart of bad_funnel_direct.cc: funnel recording goes through
// UJOIN_OBS_FUNNEL (null-guarded, compiled out under -DUJOIN_OBS=OFF);
// *reading* the funnel (funnel_entered()/funnel_survived()) is always
// allowed.
#define UJOIN_OBS_FUNNEL(recorder, stage, entered, survived) \
  do {                                                       \
  } while (0)

namespace ujoin {

namespace obs {
enum class FunnelStage : int { kQgram, kVerify };
class Recorder {
 public:
  long funnel_entered(FunnelStage s) const;
};
}  // namespace obs

void RecordQueryFunnel(obs::Recorder* rec, long window, long candidates) {
  UJOIN_OBS_FUNNEL(rec, obs::FunnelStage::kQgram, window, candidates);
}

long QgramEntered(const obs::Recorder& rec) {
  return rec.funnel_entered(obs::FunnelStage::kQgram);  // reads are fine
}

}  // namespace ujoin
