// ujoin-effects-fixture: as=src/index/flat_postings.cc contract=probe-path
//
// Clean counterpart of bad_probe_path_alloc.cc: allocations live in the
// build/freeze functions, which no probe root reaches; the probe path only
// reads members or appends to retained workspace storage (amortized-zero
// in steady state), and member container *declarations* at class scope
// are not allocations.
#include <string>
#include <vector>

namespace ujoin {

struct Posting {
  int id;
};

class FlatPostings {
 public:
  void Add(const std::string& key, Posting posting) {
    // Build function: allocation is fine here.
    std::vector<char> staged(key.begin(), key.end());
    key_arena_.insert(key_arena_.end(), staged.begin(), staged.end());
    postings_.push_back(posting);
  }

  void Freeze() {
    std::vector<Posting> packed;  // freeze function
    packed.reserve(postings_.size());
    for (const Posting& p : postings_) packed.push_back(p);
    postings_ = std::move(packed);
  }

  const Posting* Find(std::size_t i, std::vector<int>* workspace) const {
    workspace->push_back(static_cast<int>(i));  // retained workspace: fine
    return i < postings_.size() ? &postings_[i] : nullptr;
  }

 private:
  std::vector<Posting> postings_;   // member declaration: fine
  std::vector<char> key_arena_;     // member declaration: fine
};

class InvertedSegmentIndex {
 public:
  const Posting* Query(const FlatPostings& postings, std::size_t i,
                       std::vector<int>* workspace) const {
    return postings.Find(i, workspace);
  }
};

}  // namespace ujoin
