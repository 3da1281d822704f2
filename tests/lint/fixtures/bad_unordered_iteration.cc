// ujoin-effects-fixture: as=src/join/pair_collector.cc
//
// Seeded violations: iterating unordered containers in a file that (per its
// fixture path) produces join results.  The iteration order depends on hash
// seeding and insertion history, so emitted pairs would not be
// byte-identical across runs or thread counts.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ujoin {

class PairCollector {
 public:
  void Emit() const {
    for (const auto& [key, count] : counts_) {  // flagged: unordered-iteration: range-for
      std::printf("%s %d\n", key.c_str(), count);
    }
  }

  std::vector<int> SortedIds() const {
    std::vector<int> out;
    for (auto it = ids_.begin(); it != ids_.end(); ++it) {  // flagged: unordered-iteration
      out.push_back(*it);
    }
    return out;
  }

 private:
  std::unordered_map<std::string, int> counts_;
  std::unordered_set<int> ids_;
};

void DumpTemporary() {
  for (int id : std::unordered_set<int>{3, 1, 2}) {  // flagged: unordered-iteration: temporary
    std::printf("%d\n", id);
  }
}

// The body on the header's line must not be read as part of the range.
void TouchAll(const std::unordered_map<int, int>& seen) {
  for (const auto& kv : seen) { (void)kv; }  // flagged: unordered-iteration: one-line range-for
}

}  // namespace ujoin
