#ifndef UJOIN_INDEX_FLAT_POSTINGS_H_
#define UJOIN_INDEX_FLAT_POSTINGS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace ujoin {

/// \brief One posting of an inverted list L^x_l(w): an uncertain string id
/// and the probability that its x-th segment equals w.
struct Posting {
  uint32_t id;
  double prob;
};

/// 64-bit fingerprint of a byte string (FNV-1a folded through a splitmix64
/// finalizer so low bits avalanche).  Collisions are tolerated — lookups
/// always confirm with a byte comparison — but must be rare for speed.
uint64_t Fingerprint64(const void* data, size_t len);

/// Injectable fingerprint function (tests force collisions with a constant
/// function to exercise the open-addressing tail comparison).
using FingerprintFn = uint64_t (*)(const void* data, size_t len);

/// \brief One segment's inverted lists in a flat, scan-friendly layout.
///
/// All instances of one segment share a fixed length, so keys live in a
/// single character arena with stride `key_length` and lookup needs no
/// per-key size header: an open-addressing table over 64-bit fingerprints
/// selects a slot, and one `memcmp` of `key_length` bytes confirms it.
/// Each slot carries the upper 32 fingerprint bits next to its entry
/// index, so a lookup rejects a mismatched key without touching the
/// entries or the key arena (most probe keys are absent).
/// `Find` is heterogeneous (`string_view` in, spans out) and performs no
/// heap allocation — the map-based layout it replaces copied every probe
/// substring into a `std::string` just to hash it.
///
/// Postings live in two tiers.  `Freeze()` packs everything accumulated so
/// far into one contiguous arena, grouped by key in entry order (the order
/// keys were first added).  Nothing reads the arena's layout: lookups go
/// through the entries, `ForEachSorted` (serialization) sorts keys itself,
/// and `MemoryBytes` counts sizes.
/// Postings added after the last freeze sit in small per-key delta lists.
/// Ids are inserted in ascending order (the index drivers guarantee this),
/// so a key's logical list is its frozen extent followed by its delta
/// extent — already id-sorted, exposed as the two spans of a ListView.
/// Steady-state probing therefore never requires a re-pack: the self-join
/// queries an unfrozen index (all postings in deltas), while the searcher
/// freezes once after build and probes the arena.
///
/// Thread safety: `Find` and all const accessors are safe to call
/// concurrently as long as no `Add`/`Freeze` runs at the same time.
class FlatPostings {
 public:
  /// `key_length` is the fixed instance length; `fingerprint` defaults to
  /// Fingerprint64 (override only in tests).
  explicit FlatPostings(int key_length, FingerprintFn fingerprint = nullptr);

  /// A key's postings: frozen extent (smaller ids) then delta extent.
  struct ListView {
    std::span<const Posting> base;
    std::span<const Posting> delta;

    bool empty() const { return base.empty() && delta.empty(); }
    size_t size() const { return base.size() + delta.size(); }
    const Posting& operator[](size_t i) const {
      return i < base.size() ? base[i] : delta[i - base.size()];
    }
  };

  /// Appends `posting` to `key`'s list.  |key| must equal key_length();
  /// ids must be non-decreasing per key (the caller inserts strings in
  /// ascending id order).
  void Add(std::string_view key, Posting posting);

  /// Zero-allocation lookup; both spans empty when the key is absent.
  ListView Find(std::string_view key) const;

  /// Find with the fingerprint computed up front — the batched probe path
  /// fingerprints a whole segment's keys in one kernel call
  /// (simd::Fingerprint64Batch) and then probes with the results.  `fp`
  /// must equal the instance's fingerprint function applied to `key`.
  ListView FindWithFingerprint(uint64_t fp, std::string_view key) const;

  /// Hints the load of the hash slot `fp` would probe first, so a batch of
  /// FindWithFingerprint calls overlaps its cache misses.  No-op when empty.
  void PrefetchSlot(uint64_t fp) const;

  /// True when this instance hashes with the default Fingerprint64 — the
  /// precondition for probing it with externally batched fingerprints.
  bool uses_default_fingerprint() const {
    return fingerprint_ == &Fingerprint64;
  }

  /// Packs all postings (frozen extents + deltas) into one contiguous
  /// arena grouped by key in entry order, then clears the deltas.
  /// Idempotent; cheap when nothing changed since the last freeze.
  void Freeze();

  /// True when every posting lives in the packed arena.
  bool frozen() const { return delta_postings_ == 0; }

  int key_length() const { return key_length_; }
  size_t num_keys() const { return entries_.size(); }
  int64_t num_postings() const { return num_postings_; }

  /// Bytes of the flat layout: key arena + entries + tagged slot table +
  /// postings.  A function of content only (sizes, not capacities), so the
  /// number is deterministic and save/load round-trips preserve it.
  size_t MemoryBytes() const;

  /// Invokes fn(key, view) for every key in ascending key order — the
  /// deterministic iteration serialization relies on.  Allocates a sort
  /// index (not for use on the probe path).
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    std::vector<uint32_t> order(entries_.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return KeyAt(a) < KeyAt(b); });
    for (uint32_t e : order) fn(KeyAt(e), ViewOf(entries_[e]));
  }

 private:
  struct Entry {
    uint32_t arena_begin = 0;  // frozen extent within arena_
    uint32_t arena_count = 0;
    int32_t delta_list = -1;   // index into delta_lists_, -1 when none
  };

  std::string_view KeyAt(size_t entry_index) const {
    return {key_arena_.data() + entry_index * static_cast<size_t>(key_length_),
            static_cast<size_t>(key_length_)};
  }
  ListView ViewOf(const Entry& e) const {
    ListView view;
    view.base = {arena_.data() + e.arena_begin, e.arena_count};
    if (e.delta_list >= 0) {
      const std::vector<Posting>& d =
          delta_lists_[static_cast<size_t>(e.delta_list)];
      view.delta = {d.data(), d.size()};
    }
    return view;
  }
  // A slot packs the fingerprint's upper 32 bits (the tag) above
  // entry index + 1; 0 marks an empty slot.  The slot index comes from the
  // fingerprint's low bits, so the tag adds bits the index does not.
  static uint64_t SlotOf(uint64_t fp, uint32_t entry_index) {
    return (fp >> 32) << 32 | (static_cast<uint64_t>(entry_index) + 1);
  }
  static bool TagMatches(uint64_t slot, uint64_t fp) {
    return (slot >> 32) == (fp >> 32);
  }
  static uint32_t EntryOf(uint64_t slot) {
    return static_cast<uint32_t>(slot) - 1;
  }
  void Rehash(size_t slot_count);

  int key_length_;
  FingerprintFn fingerprint_;
  std::vector<Entry> entries_;
  std::vector<char> key_arena_;    // entry i's key at [i*key_length, ...)
  std::vector<uint64_t> slots_;    // open addressing; SlotOf(), 0 empty
  std::vector<Posting> arena_;     // frozen postings, grouped by key
  std::vector<std::vector<Posting>> delta_lists_;
  int64_t num_postings_ = 0;
  int64_t delta_postings_ = 0;
};

}  // namespace ujoin

#endif  // UJOIN_INDEX_FLAT_POSTINGS_H_
