// ujoin-effects-fixture: as=src/index/segment_index.cc
//
// Seeded probe-path violations of the non-allocating kinds: one probe
// helper takes a mutex guard to bump a shared counter, another appends a
// trace line to a file.  The first serializes every probe across threads,
// the second puts a syscall on each one.
#include <fstream>
#include <mutex>

namespace ujoin {

class InvertedSegmentIndex {
 public:
  int Query(int id) const {
    CountProbe();
    TraceProbe(id);
    return id;
  }

 private:
  void CountProbe() const {
    std::lock_guard<std::mutex> guard(mu_);  // flagged: probe-path (mutex guard)
    ++probes_;
  }

  void TraceProbe(int id) const {
    std::ofstream trace("probe.trace", std::ios::app);  // flagged: probe-path (file stream)
    trace << id << '\n';
  }

  mutable std::mutex mu_;
  mutable long probes_ = 0;
};

}  // namespace ujoin
