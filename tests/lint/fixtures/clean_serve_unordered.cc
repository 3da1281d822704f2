// ujoin-effects-fixture: as=src/serve/search_server.cc contract=unordered-iteration
//
// Clean counterpart of bad_serve_unordered.cc: the serve layer renders
// hits in the id-sorted order Search returns them (a vector), and unordered
// containers appear only for point lookups whose order is never observed.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace ujoin::serve {

class ResponseRenderer {
 public:
  void RenderHits() const {
    for (const auto& [id, prob] : hits_) {  // vector: Search's sorted order
      std::printf("{\"id\":%d,\"probability\":%f}", id, prob);
    }
  }

  double ProbabilityOf(int id) const {
    auto it = probs_.find(id);  // point lookup: order not observed
    return it == probs_.end() ? 0.0 : it->second;
  }

 private:
  std::vector<std::pair<int, double>> hits_;
  std::unordered_map<int, double> probs_;
};

}  // namespace ujoin::serve
