#include "index/segment_index.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "filter/event_dp.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "text/possible_worlds.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"
#include "util/timer.h"

namespace ujoin {

namespace {

using MergedEntry = QueryWorkspace::MergedEntry;
using Cursor = QueryWorkspace::Cursor;

// Binary-heap keys pack (id, list index) into one uint64 so the min-heap
// pops equal ids in ascending list order — the same order in which the
// linear min-scan folds their contributions, keeping the two merge
// strategies bit-identical.
constexpr uint64_t HeapKey(uint32_t id, uint32_t list) {
  return (static_cast<uint64_t>(id) << 32) | list;
}
constexpr uint32_t HeapId(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
constexpr uint32_t HeapList(uint64_t key) {
  return static_cast<uint32_t>(key);
}

void HeapPush(std::vector<uint64_t>* heap, uint64_t key) {
  heap->push_back(key);
  std::push_heap(heap->begin(), heap->end(), std::greater<uint64_t>());
}

uint64_t HeapPop(std::vector<uint64_t>* heap) {
  std::pop_heap(heap->begin(), heap->end(), std::greater<uint64_t>());
  const uint64_t key = heap->back();
  heap->pop_back();
  return key;
}

}  // namespace

LengthBucketIndex::LengthBucketIndex(int length, int k, int q)
    : length_(length), segments_(PartitionForJoin(length, k, q)) {
  lists_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    lists_.emplace_back(seg.length);
  }
  wildcard_ids_.resize(segments_.size());
}

Status LengthBucketIndex::Insert(uint32_t id, const UncertainString& s,
                                 int64_t max_instances_per_segment) {
  if (s.length() != length_) {
    return Status::InvalidArgument("string length " +
                                   std::to_string(s.length()) +
                                   " does not match bucket length " +
                                   std::to_string(length_));
  }
  if (!ids_.empty() && ids_.back() >= id) {
    return Status::FailedPrecondition(
        "ids must be inserted in increasing order to keep lists sorted");
  }
  ids_.push_back(id);
  for (size_t x = 0; x < segments_.size(); ++x) {
    const Segment& seg = segments_[x];
    const UncertainString sub = s.Substring(seg.start, seg.length);
    if (sub.WorldCount() > max_instances_per_segment) {
      // Too many instances to enumerate: record a wildcard so queries treat
      // this segment as matched with certainty (conservative, never unsafe).
      wildcard_ids_[x].push_back(id);
      continue;
    }
    ForEachWorld(sub, [&](const std::string& instance, double prob) {
      lists_[x].Add(instance, Posting{id, prob});
    });
  }
  return Status::OK();
}

void LengthBucketIndex::Freeze() {
  for (FlatPostings& list : lists_) list.Freeze();
}

std::span<const IndexCandidate> LengthBucketIndex::QueryCandidates(
    const FlatProbeSets& probes, int k, double tau, QueryWorkspace* ws,
    IndexQueryStats* stats, uint32_t id_limit) const {
  const int m = num_segments();
  const int required = m - k;
  UJOIN_CHECK(probes.num_segments() == m);

  ws->candidates.clear();
  if (ids_.empty() || ids_.front() >= id_limit) return {};
  if (required <= 0) {
    // Lemma 5 cannot prune and Theorem 2's bound degenerates to 1: every
    // indexed string is a candidate (short strings relative to k).
    for (uint32_t id : ids_) {
      if (id >= id_limit) break;  // ids_ is sorted ascending
      ws->candidates.push_back(IndexCandidate{id, m, 1.0});
      UJOIN_OBS_HIST(ws->obs, obs::Hist::kCandidateAlphaPpm, 1000000);
    }
    if (stats != nullptr) {
      stats->ids_touched += static_cast<int64_t>(ws->candidates.size());
      stats->candidates += static_cast<int64_t>(ws->candidates.size());
    }
    return ws->candidates;
  }

  // Stage 1 (per segment): merge the posting lists of the probe substrings
  // into one id-sorted list carrying α_x = Σ_w p_r(w) · Pr(w = S^x).  The
  // per-segment lists are laid out back to back in ws->merged.
  // Per-kernel wall-time counters, accumulated locally and folded once at
  // the end (clock reads only happen with a recorder attached).
  const bool timed = UJOIN_OBS_ENABLED(ws->obs);
  int64_t fingerprint_ns = 0;
  int64_t merge_ns = 0;
  Timer kernel_timer;
  ws->merged.clear();
  ws->merged_begin.clear();
  ws->merged_begin.push_back(0);
  for (int x = 0; x < m; ++x) {
    if (probes.is_wildcard(x)) {
      // Probe-set blow-up on the query side: α_x = 1 for every indexed id.
      for (uint32_t id : ids_) {
        if (id >= id_limit) break;
        ws->merged.push_back(MergedEntry{id, 1.0});
      }
      ws->merged_begin.push_back(static_cast<uint32_t>(ws->merged.size()));
      continue;
    }
    // Gather the extents to merge: up to two per probe substring (frozen
    // arena + delta list, each id-sorted, weighted by the substring's
    // occurrence probability) plus this segment's wildcard ids at α = 1.
    //
    // The probe keys of one segment share the segment's fixed length, so
    // their fingerprints batch into one kernel call (simd::Fingerprint64Batch,
    // interleaved FNV) and their hash slots prefetch ahead of the lookups.
    // A test-injected fingerprint function (or a malformed probe length,
    // which Find answers with "absent") falls back to the per-key path.
    ws->cursors.clear();
    const std::span<const FlatProbeSets::Entry> entries =
        probes.segment_entries(x);
    const FlatPostings& seg_lists = lists_[static_cast<size_t>(x)];
    const uint32_t seg_key_len =
        static_cast<uint32_t>(seg_lists.key_length());
    bool batched = seg_lists.uses_default_fingerprint() && !entries.empty();
    for (size_t i = 0; batched && i < entries.size(); ++i) {
      batched = entries[i].length == seg_key_len;
    }
    if (batched) {
      if (timed) kernel_timer.Reset();
      ws->probe_ptrs.clear();
      for (const FlatProbeSets::Entry& probe : entries) {
        ws->probe_ptrs.push_back(probes.text(probe).data());
      }
      ws->probe_fps.resize(entries.size());
      simd::Fingerprint64Batch(ws->probe_ptrs.data(), seg_key_len,
                               entries.size(), ws->probe_fps.data());
      for (const uint64_t fp : ws->probe_fps) seg_lists.PrefetchSlot(fp);
      if (timed) fingerprint_ns += kernel_timer.ElapsedNanos();
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      const FlatProbeSets::Entry& probe = entries[i];
      const FlatPostings::ListView list =
          batched ? seg_lists.FindWithFingerprint(ws->probe_fps[i],
                                                  probes.text(probe))
                  : seg_lists.Find(probes.text(probe));
      if (list.empty()) continue;
      if (!list.base.empty()) {
        simd::PrefetchRead(list.base.data());
        ws->cursors.push_back(Cursor{list.base.data(),
                                     list.base.data() + list.base.size(),
                                     probe.prob});
      }
      if (!list.delta.empty()) {
        simd::PrefetchRead(list.delta.data());
        ws->cursors.push_back(Cursor{list.delta.data(),
                                     list.delta.data() + list.delta.size(),
                                     probe.prob});
      }
      if (stats != nullptr) ++stats->lists_scanned;
    }
    if (timed) kernel_timer.Reset();
    const std::vector<uint32_t>& wildcards =
        wildcard_ids_[static_cast<size_t>(x)];
    size_t wildcard_pos = 0;
    if (static_cast<int>(ws->cursors.size()) <= ws->heap_merge_threshold) {
      // Parallel scan with "top pointers" (Section 4): repeatedly take the
      // minimum id across list heads and fold its contributions into α_x.
      for (;;) {
        uint32_t min_id = UINT32_MAX;
        for (const Cursor& c : ws->cursors) {
          if (c.pos != c.end && c.pos->id < min_id) min_id = c.pos->id;
        }
        if (wildcard_pos < wildcards.size() &&
            wildcards[wildcard_pos] < min_id) {
          min_id = wildcards[wildcard_pos];
        }
        if (min_id == UINT32_MAX) break;
        // Lists are id-sorted, so once every head is past the limit no
        // in-range id remains; stop before touching out-of-range postings.
        if (min_id >= id_limit) break;
        double alpha = 0.0;
        for (Cursor& c : ws->cursors) {
          if (c.pos != c.end && c.pos->id == min_id) {
            alpha += c.weight * c.pos->prob;
            ++c.pos;
            // Hint ~2 cache lines ahead in this posting extent (offset
            // arithmetic over uintptr_t so a hint past the end is not UB).
            simd::PrefetchReadOffset(c.pos, 8 * sizeof(Posting));
            if (stats != nullptr) ++stats->postings_scanned;
          }
        }
        if (wildcard_pos < wildcards.size() &&
            wildcards[wildcard_pos] == min_id) {
          alpha = 1.0;
          ++wildcard_pos;
        }
        ws->merged.push_back(MergedEntry{min_id, ClampProb(alpha)});
      }
    } else {
      // Many lists: a binary-heap merge turns the O(#lists) min-scan per id
      // into O(log #lists) per posting.  Ties pop in cursor order, so the
      // α fold order — and hence every bit of the result — matches the
      // linear scan above.
      ws->heap.clear();
      for (uint32_t ci = 0; ci < ws->cursors.size(); ++ci) {
        HeapPush(&ws->heap, HeapKey(ws->cursors[ci].pos->id, ci));
      }
      for (;;) {
        uint32_t min_id =
            ws->heap.empty() ? UINT32_MAX : HeapId(ws->heap.front());
        if (wildcard_pos < wildcards.size() &&
            wildcards[wildcard_pos] < min_id) {
          min_id = wildcards[wildcard_pos];
        }
        if (min_id == UINT32_MAX) break;
        if (min_id >= id_limit) break;
        double alpha = 0.0;
        while (!ws->heap.empty() && HeapId(ws->heap.front()) == min_id) {
          const uint32_t ci = HeapList(HeapPop(&ws->heap));
          Cursor& c = ws->cursors[ci];
          alpha += c.weight * c.pos->prob;
          ++c.pos;
          simd::PrefetchReadOffset(c.pos, 8 * sizeof(Posting));
          if (stats != nullptr) ++stats->postings_scanned;
          if (c.pos != c.end) HeapPush(&ws->heap, HeapKey(c.pos->id, ci));
        }
        if (wildcard_pos < wildcards.size() &&
            wildcards[wildcard_pos] == min_id) {
          alpha = 1.0;
          ++wildcard_pos;
        }
        ws->merged.push_back(MergedEntry{min_id, ClampProb(alpha)});
      }
    }
    if (timed) merge_ns += kernel_timer.ElapsedNanos();
    ws->merged_begin.push_back(static_cast<uint32_t>(ws->merged.size()));
  }

  if (UJOIN_OBS_ENABLED(ws->obs)) {
    for (int x = 0; x < m; ++x) {
      const int64_t list_length =
          static_cast<int64_t>(ws->merged_begin[static_cast<size_t>(x) + 1]) -
          static_cast<int64_t>(ws->merged_begin[static_cast<size_t>(x)]);
      UJOIN_OBS_HIST(ws->obs, obs::Hist::kMergedListLength, list_length);
    }
  }
  if (ws->explain_merged != nullptr) {
    // Explain sink, deliberately outside the obs gate: the replay narrative
    // needs per-segment merged lengths even under -DUJOIN_OBS=OFF.
    for (int x = 0; x < m; ++x) {
      ws->explain_merged->push_back(
          static_cast<int64_t>(ws->merged_begin[static_cast<size_t>(x) + 1]) -
          static_cast<int64_t>(ws->merged_begin[static_cast<size_t>(x)]));
    }
  }

  // Stage 2: scan the m merged lists in parallel, counting matched segments
  // per id (Lemma 5) and bounding Pr(ed <= k) with the event DP (Theorem 2).
  const auto merged_list = [&](int x) {
    return std::span<const MergedEntry>(
        ws->merged.data() + ws->merged_begin[static_cast<size_t>(x)],
        ws->merged.data() + ws->merged_begin[static_cast<size_t>(x) + 1]);
  };
  if (timed) kernel_timer.Reset();
  ws->tops.assign(static_cast<size_t>(m), 0);
  ws->alphas.assign(static_cast<size_t>(m), 0.0);
  const std::span<const double> alphas_span(ws->alphas.data(),
                                            static_cast<size_t>(m));
  if (m <= ws->heap_merge_threshold) {
    for (;;) {
      uint32_t min_id = UINT32_MAX;
      for (int x = 0; x < m; ++x) {
        const auto list = merged_list(x);
        if (ws->tops[static_cast<size_t>(x)] < list.size()) {
          min_id = std::min(min_id, list[ws->tops[static_cast<size_t>(x)]].id);
        }
      }
      if (min_id == UINT32_MAX) break;
      int matched = 0;
      for (int x = 0; x < m; ++x) {
        const auto list = merged_list(x);
        size_t& top = ws->tops[static_cast<size_t>(x)];
        if (top < list.size() && list[top].id == min_id) {
          ws->alphas[static_cast<size_t>(x)] = list[top].alpha;
          if (list[top].alpha > 0.0) ++matched;
          ++top;
        } else {
          ws->alphas[static_cast<size_t>(x)] = 0.0;
        }
      }
      if (stats != nullptr) ++stats->ids_touched;
      if (matched < required) {
        if (stats != nullptr) ++stats->support_pruned;
        continue;
      }
      const double bound =
          ProbAtLeastEvents(alphas_span, required, &ws->dp_scratch);
      if (bound <= tau) {
        if (stats != nullptr) ++stats->probability_pruned;
        continue;
      }
      ws->candidates.push_back(IndexCandidate{min_id, matched, bound});
      UJOIN_OBS_HIST(ws->obs, obs::Hist::kCandidateAlphaPpm,
                     std::llround(bound * 1e6));
      if (stats != nullptr) ++stats->candidates;
    }
  } else {
    // Heap variant of the same scan.  α entries not owned by the current id
    // stay 0 (reset via `touched` after each round), so the event DP sees
    // exactly the α vector the linear scan would have built.
    ws->heap.clear();
    for (int x = 0; x < m; ++x) {
      const auto list = merged_list(x);
      if (!list.empty()) {
        HeapPush(&ws->heap, HeapKey(list.front().id, static_cast<uint32_t>(x)));
      }
    }
    while (!ws->heap.empty()) {
      const uint32_t min_id = HeapId(ws->heap.front());
      int matched = 0;
      ws->touched.clear();
      while (!ws->heap.empty() && HeapId(ws->heap.front()) == min_id) {
        const int x = static_cast<int>(HeapList(HeapPop(&ws->heap)));
        const auto list = merged_list(x);
        size_t& top = ws->tops[static_cast<size_t>(x)];
        ws->alphas[static_cast<size_t>(x)] = list[top].alpha;
        ws->touched.push_back(x);
        if (list[top].alpha > 0.0) ++matched;
        ++top;
        if (top < list.size()) {
          HeapPush(&ws->heap,
                   HeapKey(list[top].id, static_cast<uint32_t>(x)));
        }
      }
      if (stats != nullptr) ++stats->ids_touched;
      if (matched >= required) {
        const double bound =
            ProbAtLeastEvents(alphas_span, required, &ws->dp_scratch);
        if (bound > tau) {
          ws->candidates.push_back(IndexCandidate{min_id, matched, bound});
          UJOIN_OBS_HIST(ws->obs, obs::Hist::kCandidateAlphaPpm,
                         std::llround(bound * 1e6));
          if (stats != nullptr) ++stats->candidates;
        } else if (stats != nullptr) {
          ++stats->probability_pruned;
        }
      } else if (stats != nullptr) {
        ++stats->support_pruned;
      }
      for (int x : ws->touched) ws->alphas[static_cast<size_t>(x)] = 0.0;
    }
  }
  if (timed) {
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelEventDpNs,
                      kernel_timer.ElapsedNanos());
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelFingerprintNs,
                      fingerprint_ns);
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelMergeNs, merge_ns);
  }
  return ws->candidates;
}

size_t LengthBucketIndex::MemoryUsage() const {
  size_t total = ids_.size() * sizeof(uint32_t);
  for (const FlatPostings& list : lists_) total += list.MemoryBytes();
  for (const std::vector<uint32_t>& wildcards : wildcard_ids_) {
    total += wildcards.size() * sizeof(uint32_t);
  }
  return total;
}

int64_t LengthBucketIndex::num_postings() const {
  int64_t total = 0;
  for (const FlatPostings& list : lists_) total += list.num_postings();
  return total;
}

void LengthBucketIndex::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(length_);
  writer->WriteU64(ids_.size());
  for (uint32_t id : ids_) writer->WriteU32(id);
  writer->WriteU64(lists_.size());
  for (size_t x = 0; x < lists_.size(); ++x) {
    writer->WriteU64(lists_[x].num_keys());
    // Keys in ascending order: serialized bytes are a pure function of the
    // indexed content, independent of insertion order and hash layout.
    lists_[x].ForEachSorted(
        [&](std::string_view key, FlatPostings::ListView postings) {
          writer->WriteString(key);
          writer->WriteU64(postings.size());
          for (size_t p = 0; p < postings.size(); ++p) {
            writer->WriteU32(postings[p].id);
            writer->WriteDouble(postings[p].prob);
          }
        });
    writer->WriteU64(wildcard_ids_[x].size());
    for (uint32_t id : wildcard_ids_[x]) writer->WriteU32(id);
  }
}

Result<LengthBucketIndex> LengthBucketIndex::Deserialize(BinaryReader* reader,
                                                         int k, int q,
                                                         uint64_t id_limit) {
  // Nothing is sized from the image's counts: a short image fails a read.
  const auto read_id = [&]() -> Result<uint32_t> {
    Result<uint32_t> id = reader->ReadU32();
    if (id.ok() && *id >= id_limit) {
      return Status::InvalidArgument("corrupt index: id " +
                                     std::to_string(*id) +
                                     " is outside the collection");
    }
    return id;
  };
  Result<int32_t> length = reader->ReadI32();
  if (!length.ok()) return length.status();
  if (*length < 1) {
    return Status::InvalidArgument("corrupt index: bucket length " +
                                   std::to_string(*length));
  }
  LengthBucketIndex bucket(*length, k, q);
  Result<uint64_t> num_ids = reader->ReadU64();
  if (!num_ids.ok()) return num_ids.status();
  for (uint64_t i = 0; i < *num_ids; ++i) {
    Result<uint32_t> id = read_id();
    if (!id.ok()) return id.status();
    bucket.ids_.push_back(*id);
  }
  Result<uint64_t> num_segments = reader->ReadU64();
  if (!num_segments.ok()) return num_segments.status();
  if (*num_segments != bucket.lists_.size()) {
    return Status::InvalidArgument(
        "corrupt index: segment count mismatch (expected " +
        std::to_string(bucket.lists_.size()) + ", got " +
        std::to_string(*num_segments) + ")");
  }
  for (size_t x = 0; x < bucket.lists_.size(); ++x) {
    Result<uint64_t> num_keys = reader->ReadU64();
    if (!num_keys.ok()) return num_keys.status();
    for (uint64_t e = 0; e < *num_keys; ++e) {
      Result<std::string> key = reader->ReadString();
      if (!key.ok()) return key.status();
      if (key->size() !=
          static_cast<size_t>(bucket.segments_[x].length)) {
        return Status::InvalidArgument(
            "corrupt index: key length does not match segment length");
      }
      Result<uint64_t> num_postings = reader->ReadU64();
      if (!num_postings.ok()) return num_postings.status();
      for (uint64_t p = 0; p < *num_postings; ++p) {
        Result<uint32_t> id = read_id();
        if (!id.ok()) return id.status();
        Result<double> prob = reader->ReadDouble();
        if (!prob.ok()) return prob.status();
        bucket.lists_[x].Add(*key, Posting{*id, *prob});
      }
    }
    Result<uint64_t> num_wildcards = reader->ReadU64();
    if (!num_wildcards.ok()) return num_wildcards.status();
    for (uint64_t w = 0; w < *num_wildcards; ++w) {
      Result<uint32_t> id = read_id();
      if (!id.ok()) return id.status();
      bucket.wildcard_ids_[x].push_back(*id);
    }
  }
  return bucket;
}

InvertedSegmentIndex::InvertedSegmentIndex(int k, int q,
                                           ProbeSetOptions probe_options)
    : k_(k), q_(q), probe_options_(probe_options) {
  UJOIN_CHECK(k >= 0 && q >= 1);
}

void InvertedSegmentIndex::AddBucket(int length) {
  buckets_.try_emplace(length, length, k_, q_);
}

Status InvertedSegmentIndex::Insert(uint32_t id, const UncertainString& s) {
  if (s.empty()) {
    return Status::InvalidArgument("cannot index an empty string");
  }
  // try_emplace leaves the map untouched when the bucket exists.
  const auto it = buckets_.try_emplace(s.length(), s.length(), k_, q_).first;
  return it->second.Insert(id, s, probe_options_.max_instances_per_window);
}

void InvertedSegmentIndex::Freeze() {
  for (auto& [length, bucket] : buckets_) bucket.Freeze();
}

std::span<const IndexCandidate> InvertedSegmentIndex::Query(
    const UncertainString& r, int length, double tau, QueryWorkspace* ws,
    IndexQueryStats* stats, uint32_t id_limit) const {
  auto it = buckets_.find(length);
  if (it == buckets_.end()) return {};
  const LengthBucketIndex& bucket = it->second;
  // A bucket holding only ids past the limit behaves like an absent bucket
  // (the sequential scan would not have created it yet): skip the probe-set
  // construction entirely.
  if (bucket.ids().empty() || bucket.ids().front() >= id_limit) return {};
  ws->probes.Reset(bucket.num_segments());
  for (const Segment& seg : bucket.segments()) {
    // A failed build (instance blow-up) closes the segment as a wildcard;
    // the error itself carries no extra information for the query path.
    (void)BuildProbeSetInto(r, length, seg, k_, probe_options_,
                            &ws->probe_scratch, &ws->probes);
  }
  return bucket.QueryCandidates(ws->probes, k_, tau, ws, stats, id_limit);
}

std::vector<IndexCandidate> InvertedSegmentIndex::Query(
    const UncertainString& r, int length, double tau, IndexQueryStats* stats,
    uint32_t id_limit) const {
  QueryWorkspace ws;
  const std::span<const IndexCandidate> found =
      Query(r, length, tau, &ws, stats, id_limit);
  return std::vector<IndexCandidate>(found.begin(), found.end());
}

const LengthBucketIndex* InvertedSegmentIndex::bucket(int length) const {
  auto it = buckets_.find(length);
  return it == buckets_.end() ? nullptr : &it->second;
}

size_t InvertedSegmentIndex::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [length, bucket] : buckets_) total += bucket.MemoryUsage();
  return total;
}

int64_t InvertedSegmentIndex::num_postings() const {
  int64_t total = 0;
  for (const auto& [length, bucket] : buckets_) total += bucket.num_postings();
  return total;
}

void InvertedSegmentIndex::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(k_);
  writer->WriteI32(q_);
  writer->WriteU64(buckets_.size());
  for (const auto& [length, bucket] : buckets_) {
    bucket.Serialize(writer);
  }
}

Result<InvertedSegmentIndex> InvertedSegmentIndex::Deserialize(
    BinaryReader* reader, ProbeSetOptions probe_options, uint64_t id_limit) {
  Result<int32_t> k = reader->ReadI32();
  if (!k.ok()) return k.status();
  Result<int32_t> q = reader->ReadI32();
  if (!q.ok()) return q.status();
  if (*k < 0 || *q < 1) {
    return Status::InvalidArgument("corrupt index: bad k/q header");
  }
  InvertedSegmentIndex index(*k, *q, probe_options);
  Result<uint64_t> num_buckets = reader->ReadU64();
  if (!num_buckets.ok()) return num_buckets.status();
  for (uint64_t b = 0; b < *num_buckets; ++b) {
    Result<LengthBucketIndex> bucket =
        LengthBucketIndex::Deserialize(reader, *k, *q, id_limit);
    if (!bucket.ok()) return bucket.status();
    const int length = bucket->length();
    if (!index.buckets_.emplace(length, std::move(bucket).value()).second) {
      return Status::InvalidArgument("corrupt index: duplicate bucket length");
    }
  }
  return index;
}

}  // namespace ujoin
