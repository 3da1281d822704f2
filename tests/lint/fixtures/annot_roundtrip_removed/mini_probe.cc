// ujoin-effects-fixture: as=src/filter/mini_probe.cc witness=ujoin::InvertedSegmentIndex::Query,ujoin::ReserveLane
//
// Annotation round trip, violating half: the `annot_roundtrip_clean`
// twin minus its directive options and the declares(alloc) line,
// so ReserveLane's allocation reaches the probe root unblessed.
#include <vector>

namespace ujoin {

class InvertedSegmentIndex {
 public:
  int Query(int id) const;
};

int ReserveLane(int n) {
  std::vector<int> lane(static_cast<size_t>(n));  // flagged: probe-path
  return static_cast<int>(lane.size());
}

int InvertedSegmentIndex::Query(int id) const { return ReserveLane(id); }

}  // namespace ujoin
