// ujoin-effects-fixture: as=src/filter/mini_probe.cc contract=probe-path,stale-annotation
//
// Annotation round trip, clean half: ReserveLane's allocation is blessed
// by a declares(alloc), so the probe root is clean and the annotation is
// load-bearing (not stale).  The `annot_roundtrip_removed` twin is this
// file minus the annotation line (and with its own directive); the diff
// flips the tree to one violation with the Query -> ReserveLane witness.
#include <vector>

namespace ujoin {

class InvertedSegmentIndex {
 public:
  int Query(int id) const;
};

int ReserveLane(int n) {
  // ujoin-effect: declares(alloc) -- lane tables are sized once at freeze.
  std::vector<int> lane(static_cast<size_t>(n));
  return static_cast<int>(lane.size());
}

int InvertedSegmentIndex::Query(int id) const { return ReserveLane(id); }

}  // namespace ujoin
