// ujoin-effects-fixture: as=src/obs/report.cc contract=obs-isolation
//
// Scoping check: inside src/obs/ the Recorder API is the implementation
// itself, so direct calls are allowed.
namespace ujoin {
namespace obs {

enum class Counter : int { kProbes };
class Recorder {
 public:
  void AddCounter(Counter c, long delta);
};

void FoldInto(Recorder* total) {
  total->AddCounter(Counter::kProbes, 1);  // in src/obs/: allowed
}

}  // namespace obs
}  // namespace ujoin
