// ujoin-effects-fixture: as=src/index/flat_postings.cc
//
// Seeded probe-path violations, one per allocation pattern: Find() runs
// once per posting-list lookup under the probe root and is on no
// whitelist, so each of these lines would break the steady-state
// zero-allocation guarantee the operator-new hook tests enforce at
// runtime.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace ujoin {

struct Posting {
  int id;
};

class FlatPostings {
 public:
  const Posting* Find(const std::string& key) const {
    std::vector<char> copy(key.begin(), key.end());  // flagged: probe-path (local container)
    std::string padded = key + "\0";                 // flagged: probe-path (local string)
    int* scratch = new int[4];                       // flagged: probe-path (new)
    delete[] scratch;
    void* raw = std::malloc(copy.size());            // flagged: probe-path (malloc)
    std::free(raw);
    return padded.empty() ? nullptr : &postings_[0];
  }

 private:
  std::vector<Posting> postings_;
};

class InvertedSegmentIndex {
 public:
  const Posting* Query(const FlatPostings& postings,
                       const std::string& key) const {
    return postings.Find(key);
  }
};

}  // namespace ujoin
