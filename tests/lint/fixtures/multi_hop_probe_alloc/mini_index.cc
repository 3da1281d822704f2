// ujoin-effects-fixture: as=src/index/mini_index.cc
#include <vector>

namespace ujoin {

int GrowPool(int n) {
  std::vector<int> pool(static_cast<size_t>(n));  // flagged: probe-path (per-probe pool growth)
  return static_cast<int>(pool.size());
}

int InvertedSegmentIndex::BuildCandidates(int id) const {
  return GrowPool(id);
}

}  // namespace ujoin
