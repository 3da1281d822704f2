// ujoin-effects-fixture: as=src/filter/probe_set.cc
//
// Tracker regression: lambda bodies get their own frames.  A lambda
// defined at namespace scope is a function body — its locals are
// allocation evidence, and a call through its name reaches it — and a
// lambda inside a function keeps a frame of its own under that function,
// which invokes it.  A tracker that gave either no frame would leave its
// allocation outside every function, and the probe root clean.
#include <string>
#include <vector>

namespace ujoin {

// File-scope lambda: runs per probe, so its locals are steady-state.
const auto kNormalizeKey = [](const std::string& key) {
  std::string lowered = key;  // flagged: probe-path (local std::string)
  return lowered;
};

int ProbeWidth(const std::vector<int>& widths) {
  const auto pick = [&](int index) {
    std::vector<int> staged(widths);  // flagged: probe-path (local container)
    return staged[static_cast<size_t>(index)];
  };
  return pick(0);
}

class InvertedSegmentIndex {
 public:
  int Query(const std::string& key, const std::vector<int>& widths) const {
    return static_cast<int>(kNormalizeKey(key).size()) + ProbeWidth(widths);
  }
};

}  // namespace ujoin
