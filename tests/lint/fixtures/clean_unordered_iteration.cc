// ujoin-effects-fixture: as=src/join/pair_collector.cc contract=unordered-iteration
//
// Clean counterpart of bad_unordered_iteration.cc: unordered containers
// used only for O(1) membership/lookup (order never observed), iteration
// restricted to ordered containers.
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ujoin {

class PairCollector {
 public:
  bool Seen(int id) const { return ids_.count(id) > 0; }

  int CountOf(const std::string& key) const {
    auto it = counts_.find(key);  // point lookup: order not observed
    return it == counts_.end() ? 0 : it->second;
  }

  void Emit() const {
    for (const auto& [key, count] : sorted_counts_) {  // ordered: fine
      std::printf("%s %d\n", key.c_str(), count);
    }
    for (int id : id_list_) {  // vector: insertion order, deterministic
      std::printf("%d\n", id);
    }
    for (const auto& kv : sorted_counts_) { (void)kv; }  // one line, ordered
  }

 private:
  std::unordered_map<std::string, int> counts_;
  std::unordered_set<int> ids_;
  std::map<std::string, int> sorted_counts_;
  std::vector<int> id_list_;
};

}  // namespace ujoin
