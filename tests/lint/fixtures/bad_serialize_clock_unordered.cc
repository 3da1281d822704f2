// ujoin-effects-fixture: as=src/util/stats_dump.cc
//
// Seeded serialize-deterministic violations: the index serializer calls
// one helper that stamps the image with a clock read and another that
// writes counts in hash order, so the image bytes change between runs.
// Neither line sits in a deterministic-output file, so no scope contract
// sees them; the graph contract finds both through the Serialize root.
#include <chrono>
#include <string>
#include <unordered_map>

namespace ujoin {

long StampHeader() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // flagged: serialize-deterministic
}

void AppendCounts(const std::unordered_map<int, long>& counts,
                  std::string* out) {
  for (const auto& [id, n] : counts) {  // flagged: serialize-deterministic
    out->push_back(static_cast<char>(id + n));
  }
}

class InvertedSegmentIndex {
 public:
  void Serialize(std::string* out) const {
    out->push_back(static_cast<char>(StampHeader()));
    AppendCounts(counts_, out);
  }

 private:
  std::unordered_map<int, long> counts_;
};

}  // namespace ujoin
