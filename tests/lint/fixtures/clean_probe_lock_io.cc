// ujoin-effects-fixture: as=src/index/segment_index.cc contract=probe-path
//
// Clean twin of bad_probe_lock_io.cc: the probe counts into a per-query
// workspace its caller owns, and the mutex guard and the file stream live
// in Save(), which no probe root reaches.
#include <fstream>
#include <mutex>
#include <string>

namespace ujoin {

class InvertedSegmentIndex {
 public:
  int Query(int id, long* probes) const {
    ++*probes;
    return id;
  }

  void Save(const std::string& path) const {
    std::lock_guard<std::mutex> guard(mu_);
    std::ofstream out(path);
    out << probes_ << '\n';
  }

 private:
  mutable std::mutex mu_;
  long probes_ = 0;
};

}  // namespace ujoin
