// ujoin-effects-fixture: as=src/index/segment_index.cc
//
// Tracker regression: operator definitions get frames.  `operator==` and
// the template member `operator[]` each become a function of their own,
// which the probe root reaches through the calls() edges below (operator
// syntax is indirection the call extractor cannot see).  A tracker that
// gave them no frame would leave their local allocations outside every
// function, and the calls() annotations stale.
#include <string>
#include <vector>

namespace ujoin {

struct SegmentKey {
  int length;
  int ordinal;
};

bool operator==(const SegmentKey& a, const SegmentKey& b) {
  std::vector<int> parts{a.length, a.ordinal};  // flagged: probe-path (local container)
  return parts[0] == b.length && parts[1] == b.ordinal;
}

template <typename P>
class PostingCursor {
 public:
  const P& operator[](size_t i) const {
    std::string tag(i, 'x');  // flagged: probe-path (local std::string inside operator[])
    return postings_[tag.size()];
  }

 private:
  std::vector<P> postings_;
};

class InvertedSegmentIndex {
 public:
  // ujoin-effect: calls(ujoin::operator==) -- segment key comparison
  // ujoin-effect: calls(PostingCursor::operator[]) -- posting lookup
  bool Query(const SegmentKey& a, const SegmentKey& b) const {
    return a == b;
  }
};

}  // namespace ujoin
