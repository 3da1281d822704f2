// ujoin-effects-fixture: as=src/serve/search_server.cc
//
// Seeded violations: the serve layer renders response lines and metric
// snapshots whose bytes clients compare verbatim (the differential harness
// re-renders them), so iterating an unordered container on any serve path
// would make response or snapshot bytes hash-seed dependent.
#include <cstdio>
#include <string>
#include <unordered_map>

namespace ujoin::serve {

class ResponseRenderer {
 public:
  void RenderHits() const {
    for (const auto& [id, prob] : hits_by_id_) {  // flagged: unordered-iteration: range-for
      std::printf("{\"id\":%d,\"probability\":%f}", id, prob);
    }
  }

  void RenderSnapshot() const {
    for (auto it = hits_by_id_.begin(); it != hits_by_id_.end();  // flagged: unordered-iteration
         ++it) {
      std::printf("%d\n", it->first);
    }
  }

 private:
  std::unordered_map<int, double> hits_by_id_;
};

}  // namespace ujoin::serve
