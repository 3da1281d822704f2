// ujoin-effects-fixture: as=src/util/stats_dump.cc contract=serialize-deterministic
//
// Clean twin of bad_serialize_clock_unordered.cc: the serializer writes
// counts from an ordered map, the unordered index serves point lookups
// only, and the clock is read by the caller that times the save, which no
// serializer root reaches.
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>

namespace ujoin {

void AppendCounts(const std::map<int, long>& counts, std::string* out) {
  for (const auto& [id, n] : counts) {  // ordered: deterministic
    out->push_back(static_cast<char>(id + n));
  }
}

class InvertedSegmentIndex {
 public:
  void Serialize(std::string* out) const { AppendCounts(counts_, out); }

  long CountOf(int id) const {
    auto it = by_id_.find(id);  // point lookup: order not observed
    return it == by_id_.end() ? 0 : it->second;
  }

 private:
  std::map<int, long> counts_;
  std::unordered_map<int, long> by_id_;
};

long TimedSave(const InvertedSegmentIndex& index, std::string* out) {
  const auto start = std::chrono::steady_clock::now();
  index.Serialize(out);
  return (std::chrono::steady_clock::now() - start).count();
}

}  // namespace ujoin
