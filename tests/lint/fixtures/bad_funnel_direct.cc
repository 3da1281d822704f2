// ujoin-effects-fixture: as=src/join/search.cc
//
// Seeded violations: driver code recording the filter funnel by calling
// Recorder::AddFunnel directly.  These sites lose the null-recorder guard
// and keep running when -DUJOIN_OBS=OFF is supposed to compile
// instrumentation out.
namespace ujoin {

namespace obs {
enum class FunnelStage : int { kQgram, kVerify };
class Recorder {
 public:
  void AddFunnel(FunnelStage s, long entered, long survived);
};
}  // namespace obs

void RecordQueryFunnel(obs::Recorder* rec, long window, long candidates) {
  rec->AddFunnel(obs::FunnelStage::kQgram, window, candidates);  // flagged: obs-isolation
}

void RecordVerifyFunnel(obs::Recorder& rec, long verified, long emitted) {
  rec.AddFunnel(obs::FunnelStage::kVerify, verified, emitted);  // flagged: obs-isolation
}

}  // namespace ujoin
