// ujoin-effects-fixture: as=src/index/flat_postings.cc contract=probe-path,stale-annotation
//
// Tracker regression: constructor init lists.  The body after
// `: stride_(stride), slots_(keys * 2)` belongs to the FlatPostings
// constructor, not to the last initializer (`slots_`): the probe root
// builds a scratch FlatPostings on first use, reaches the constructor,
// and its declares(alloc) blesses the arena.  A tracker that named the
// body `slots_` would leave the constructor call unresolved and the
// annotation stale.  The lambda inside Freeze gets a frame of its own
// under Freeze, whose assumes(alloc) covers the comparator's key copies.
#include <algorithm>
#include <string>
#include <vector>

namespace ujoin {

class FlatPostings {
 public:
  FlatPostings(size_t keys, size_t stride)
      : stride_(stride),
        slots_(keys * 2) {
    // ujoin-effect: declares(alloc) -- the arena is sized once at build
    std::vector<char> arena(keys * stride);
    arena_ = arena;
  }

  // ujoin-effect: assumes(alloc) -- freeze-time sort, comparator included
  void Freeze() {
    std::vector<int> order(slots_);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      std::string ka(1, arena_[static_cast<size_t>(a)]);  // in Freeze's lambda
      std::string kb(1, arena_[static_cast<size_t>(b)]);
      return ka < kb;
    });
  }

 private:
  size_t stride_;
  size_t slots_;
  std::vector<char> arena_;
};

class InvertedSegmentIndex {
 public:
  void Query(size_t keys) const {
    FlatPostings scratch(keys, 8);
    scratch.Freeze();
  }
};

}  // namespace ujoin
