// ujoin-effects-fixture: as=src/eed/rival_model.cc contract=unordered-iteration
//
// Scoping check: this file iterates an unordered_map, but its fixture path
// is outside the deterministic-output file set (src/eed is the rival
// baseline, which never emits join results), so the contract must not fire.
#include <string>
#include <unordered_map>
#include <vector>

namespace ujoin {

size_t TotalPostings(
    const std::unordered_map<std::string, std::vector<int>>& lists) {
  size_t total = 0;
  for (const auto& [key, list] : lists) {  // out of scope: allowed
    total += list.size();
  }
  return total;
}

}  // namespace ujoin
