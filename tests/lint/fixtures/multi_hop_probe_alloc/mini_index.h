// ujoin-effects-fixture: as=src/index/mini_index.h witness=ujoin::InvertedSegmentIndex::Query,ujoin::InvertedSegmentIndex::BuildCandidates,ujoin::GrowPool
//
// Seeded multi-hop violation: the probe root allocates nowhere itself —
// the allocation is two calls away, across a header/impl split.  The
// analyzer must produce the full chain as the witness.

namespace ujoin {

class InvertedSegmentIndex {
 public:
  int Query(int id) const { return BuildCandidates(id); }

 private:
  int BuildCandidates(int id) const;
};

}  // namespace ujoin
