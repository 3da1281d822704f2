// ujoin-effects-fixture: as=src/index/flat_postings.cc
//
// Stale annotations: a `ujoin-effect:` annotation that no contract
// traversal consults is itself an error.  It outlived the code it
// excused, names an effect that does not exist, or points at no
// function — and each would silently excuse whatever lands there next.
#include <string>

namespace ujoin {

class FlatPostings {
 public:
  int CountFor(int key) const {
    // The allocation this once vouched for was refactored away.
    // ujoin-effect: assumes(alloc) -- flagged: stale-annotation
    return key + size_;
  }

  int SizeTimes(int factor) const {
    // A typo'd effect name never blessed anything.
    // ujoin-effect: declares(allocs) -- flagged: stale-annotation
    return size_ * factor;
  }

  int Saturate(int v) const {
    // A call edge to a function that does not exist.
    // ujoin-effect: calls(FlatPostings::Clamp) -- flagged: stale-annotation
    return v < 0 ? 0 : v;
  }

 private:
  int size_ = 0;
};

class InvertedSegmentIndex {
 public:
  int Query(const FlatPostings& postings, int key) const {
    return postings.CountFor(key) + postings.SizeTimes(2) +
           postings.Saturate(key);
  }
};

}  // namespace ujoin
