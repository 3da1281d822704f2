#include "index/flat_postings.h"

#include <cstring>

#include "util/simd.h"

namespace ujoin {
namespace {

// Power-of-2 slot table sizing: grow when load would exceed 7/8.
constexpr size_t kInitialSlots = 16;

bool NeedsGrow(size_t entries, size_t slots) {
  return (entries + 1) * 8 > slots * 7;
}

}  // namespace

uint64_t Fingerprint64(const void* data, size_t len) {
  // FNV-1a over the bytes, then a splitmix64-style finalizer so that short
  // keys still spread across the low bits the slot mask consumes.  The
  // algorithm itself lives in the kernel layer so the batched variant
  // (simd::Fingerprint64Batch) and this single-key path share one
  // definition and can never drift.
  return simd::Fingerprint64(data, len);
}

FlatPostings::FlatPostings(int key_length, FingerprintFn fingerprint)
    : key_length_(key_length),
      fingerprint_(fingerprint != nullptr ? fingerprint : &Fingerprint64) {}

void FlatPostings::Rehash(size_t slot_count) {
  // Entries keep no fingerprint: it is recomputed from the key arena through
  // fingerprint_, so an injected test function hashes rehashed keys too.
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (uint32_t e = 0; e < entries_.size(); ++e) {
    const std::string_view key = KeyAt(e);
    const uint64_t fp = fingerprint_(key.data(), key.size());
    size_t slot = fp & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = SlotOf(fp, e);
  }
}

void FlatPostings::Add(std::string_view key, Posting posting) {
  if (slots_.empty()) Rehash(kInitialSlots);
  const uint64_t fp = fingerprint_(key.data(), key.size());
  const size_t mask = slots_.size() - 1;
  size_t slot = fp & mask;
  uint32_t entry_index;
  for (;;) {
    const uint64_t stored = slots_[slot];
    if (stored == 0) {
      entry_index = static_cast<uint32_t>(entries_.size());
      entries_.push_back(Entry{});
      key_arena_.insert(key_arena_.end(), key.begin(), key.end());
      slots_[slot] = SlotOf(fp, entry_index);
      // Growing right after the insertion that crossed the load threshold
      // makes the slot count a pure function of the number of distinct
      // keys — so MemoryBytes() is identical however the same content was
      // accumulated (e.g. original build vs. sorted-order deserialization).
      if (NeedsGrow(entries_.size(), slots_.size())) {
        Rehash(slots_.size() * 2);
      }
      break;
    }
    if (TagMatches(stored, fp) && KeyAt(EntryOf(stored)) == key) {
      entry_index = EntryOf(stored);
      break;
    }
    slot = (slot + 1) & mask;
  }
  Entry& entry = entries_[entry_index];
  if (entry.delta_list < 0) {
    entry.delta_list = static_cast<int32_t>(delta_lists_.size());
    delta_lists_.emplace_back();
  }
  delta_lists_[static_cast<size_t>(entry.delta_list)].push_back(posting);
  ++num_postings_;
  ++delta_postings_;
}

FlatPostings::ListView FlatPostings::Find(std::string_view key) const {
  if (slots_.empty() || key.size() != static_cast<size_t>(key_length_)) {
    return {};
  }
  return FindWithFingerprint(fingerprint_(key.data(), key.size()), key);
}

void FlatPostings::PrefetchSlot(uint64_t fp) const {
  if (slots_.empty()) return;
  simd::PrefetchRead(slots_.data() + (fp & (slots_.size() - 1)));
}

FlatPostings::ListView FlatPostings::FindWithFingerprint(
    uint64_t fp, std::string_view key) const {
  if (slots_.empty() || key.size() != static_cast<size_t>(key_length_)) {
    return {};
  }
  const size_t mask = slots_.size() - 1;
  size_t slot = fp & mask;
  for (;;) {
    const uint64_t stored = slots_[slot];
    if (stored == 0) return {};
    if (TagMatches(stored, fp)) {
      const uint32_t candidate = EntryOf(stored);
      if (std::memcmp(key_arena_.data() +
                          candidate * static_cast<size_t>(key_length_),
                      key.data(), key.size()) == 0) {
        return ViewOf(entries_[candidate]);
      }
    }
    slot = (slot + 1) & mask;
  }
}

void FlatPostings::Freeze() {
  if (delta_postings_ == 0) return;
  std::vector<Posting> packed;
  packed.reserve(static_cast<size_t>(num_postings_));
  for (Entry& entry : entries_) {
    const size_t begin = packed.size();
    packed.insert(packed.end(), arena_.begin() + entry.arena_begin,
                  arena_.begin() + entry.arena_begin + entry.arena_count);
    if (entry.delta_list >= 0) {
      const std::vector<Posting>& d =
          delta_lists_[static_cast<size_t>(entry.delta_list)];
      packed.insert(packed.end(), d.begin(), d.end());
      entry.delta_list = -1;
    }
    entry.arena_begin = static_cast<uint32_t>(begin);
    entry.arena_count = static_cast<uint32_t>(packed.size() - begin);
  }
  arena_ = std::move(packed);
  delta_lists_.clear();
  delta_postings_ = 0;
}

size_t FlatPostings::MemoryBytes() const {
  return key_arena_.size() + entries_.size() * sizeof(Entry) +
         slots_.size() * sizeof(uint64_t) +
         static_cast<size_t>(num_postings_) * sizeof(Posting);
}

}  // namespace ujoin
