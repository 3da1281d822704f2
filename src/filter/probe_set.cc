#include "filter/probe_set.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "text/possible_worlds.h"
#include "util/check.h"
#include "util/math_util.h"

namespace ujoin {

namespace {

// World count of the window r[start .. start+len), saturated exactly like
// UncertainString::WorldCount so the blow-up check below agrees with the
// Substring-based path it replaced.
int64_t WindowWorldCount(const UncertainString& r, int start, int len) {
  int64_t count = 1;
  for (int i = 0; i < len; ++i) {
    count = SaturatingMul(count, r.NumAlternatives(start + i));
  }
  return count;
}

// Enumerates the possible worlds of r[start .. start+len) in place —
// same odometer order and same probability arithmetic as
// ForEachWorld(r.Substring(start, len)), without materializing the
// substring.  fn(instance, prob) receives a view into scratch->instance.
template <typename Fn>
void ForEachWindowWorld(const UncertainString& r, int start, int len,
                        ProbeSetScratch* scratch, const Fn& fn) {
  scratch->instance.resize(static_cast<size_t>(len));
  scratch->uncertain_positions.clear();
  for (int i = 0; i < len; ++i) {
    const int pos = start + i;
    scratch->instance[static_cast<size_t>(i)] = r.AlternativesAt(pos)[0].symbol;
    if (r.NumAlternatives(pos) > 1) scratch->uncertain_positions.push_back(pos);
  }
  scratch->choice.assign(scratch->uncertain_positions.size(), 0);
  for (;;) {
    double p = 1.0;
    for (size_t u = 0; u < scratch->uncertain_positions.size(); ++u) {
      const int pos = scratch->uncertain_positions[u];
      p *= r.AlternativesAt(pos)[static_cast<size_t>(scratch->choice[u])].prob;
    }
    fn(std::string_view(scratch->instance), p);
    bool advanced = false;
    for (size_t u = scratch->uncertain_positions.size(); u-- > 0;) {
      const int pos = scratch->uncertain_positions[u];
      const size_t at = static_cast<size_t>(pos - start);
      if (scratch->choice[u] + 1 < r.NumAlternatives(pos)) {
        ++scratch->choice[u];
        scratch->instance[at] =
            r.AlternativesAt(pos)[static_cast<size_t>(scratch->choice[u])]
                .symbol;
        advanced = true;
        break;
      }
      scratch->choice[u] = 0;
      scratch->instance[at] = r.AlternativesAt(pos)[0].symbol;
    }
    if (!advanced) break;
  }
}

// The first 8 bytes of `text` as a big-endian unsigned integer, zero-padded
// when shorter.  For texts of one length, comparing these prefixes and then
// the bytes past 8 orders the texts exactly as std::string_view comparison
// does (which compares bytes as unsigned char).
uint64_t BigEndianPrefix(std::string_view text) {
  const size_t n = std::min<size_t>(text.size(), 8);
  if (n == 0) return 0;
  uint64_t prefix = 0;
  for (size_t i = 0; i < n; ++i) {
    prefix = prefix << 8 | static_cast<unsigned char>(text[i]);
  }
  return prefix << (8 * (8 - n));
}

}  // namespace

double GroupedOccurrenceProbability(
    const UncertainString& r, std::string_view w,
    std::span<const ProbeOccurrence> occurrences) {
  const int q = static_cast<int>(w.size());
  double none_prob = 1.0;  // Π (1 - p(g_i)) over completed groups
  size_t i = 0;
  while (i < occurrences.size()) {
    // One maximal run of pairwise-consecutive overlapping occurrences:
    // Section 3.2's Step 1.  β accumulates the union probability by adding
    // each occurrence and taking out its intersection with the previous one
    // ("the probability of its overlap").  The intersection of occurrences
    // at ps_{j-1} and ps_j exists only when w's suffix of the overlap
    // length equals its prefix, in which case the two occurrences pin R to
    // the merged pattern: P(A_{j-1} ∩ A_j) = P(A_{j-1}) · Pr(w's tail
    // beyond the overlap matches R after it).  (The formula as printed in
    // the paper subtracts the un-scaled overlap term; it reproduces the
    // paper's worked example but turns negative on simple inputs, so we use
    // the exact pairwise intersection — see DESIGN.md.)
    double beta = occurrences[i].prob;
    size_t j = i + 1;
    for (; j < occurrences.size();
         ++j) {
      const int prev_start = occurrences[j - 1].start;
      const int y = occurrences[j].start;
      const int z = prev_start + q - 1;  // last position of the previous occ
      if (y > z) break;                  // no overlap: the run ends
      const int overlap_len = z - y + 1;
      UJOIN_DCHECK(overlap_len >= 1 && overlap_len < q);
      double intersection = 0.0;
      const std::string_view prefix =
          w.substr(0, static_cast<size_t>(overlap_len));
      const std::string_view suffix =
          w.substr(static_cast<size_t>(q - overlap_len));
      if (prefix == suffix) {
        intersection =
            occurrences[j - 1].prob *
            MatchProbabilityAt(w.substr(static_cast<size_t>(overlap_len)), r,
                               z + 1);
      }
      beta += occurrences[j].prob - intersection;
    }
    none_prob *= 1.0 - ClampProb(beta);
    i = j;
  }
  return ClampProb(1.0 - none_prob);
}

Result<double> ExactOccurrenceProbability(const UncertainString& r,
                                          std::string_view w,
                                          std::span<const int> starts,
                                          int64_t max_worlds) {
  // ujoin-effect: assumes(alloc) -- exact-union fallback materializes the
  // covering region and its worlds; bounded by max_worlds, taken only when
  // the grouped estimate is unusable.
  if (starts.empty()) return 0.0;
  const int q = static_cast<int>(w.size());
  const int region_lo = starts.front();
  const int region_hi = starts.back() + q;  // exclusive
  UJOIN_CHECK(region_lo >= 0 && region_hi <= r.length());
  const UncertainString region = r.Substring(region_lo, region_hi - region_lo);
  if (region.WorldCount() > max_worlds) {
    return Status::ResourceExhausted(
        "covering region has too many possible worlds");
  }
  double p = 0.0;
  ForEachWorld(region, [&](const std::string& instance, double prob) {
    for (int start : starts) {
      const size_t offset = static_cast<size_t>(start - region_lo);
      if (std::string_view(instance).substr(offset, w.size()) == w) {
        p += prob;
        return;
      }
    }
  });
  return ClampProb(p);
}

Status BuildProbeSetInto(const UncertainString& r, int s_len,
                         const Segment& seg, int k,
                         const ProbeSetOptions& options,
                         ProbeSetScratch* scratch, FlatProbeSets* out) {
  // ujoin-effect: declares(alloc) -- the ResourceExhausted message below
  // concatenates std::to_string; that path rolls the segment back and is
  // never the steady state.
  const size_t entries_mark = out->num_entries();
  const size_t pool_mark = out->pool_size();
  const SelectionWindow window =
      SelectSubstringWindow(r.length(), s_len, seg, k, options.selection);
  if (window.empty()) {
    out->FinishSegment(/*wildcard=*/false);
    return Status::OK();
  }

  // Enumerate instances per admissible start into the scratch pool (every
  // instance has length seg.length, so the pool has a fixed stride), then
  // sort the occurrences by (instance text, start) and group equal texts.
  // Ties sort by start, so each group's occurrence list ends up ordered by
  // position as the grouping probability requires.  Texts compare by their
  // 8-byte prefix, computed once per occurrence, and only past it by bytes.
  using RawOccurrence = ProbeSetScratch::RawOccurrence;
  const size_t stride = static_cast<size_t>(seg.length);
  scratch->text_pool.clear();
  scratch->occurrences.clear();
  for (int start = window.lo; start <= window.hi; ++start) {
    if (WindowWorldCount(r, start, seg.length) >
        options.max_instances_per_window) {
      out->RollBackTo(entries_mark, pool_mark);
      out->FinishSegment(/*wildcard=*/true);
      return Status::ResourceExhausted(
          "substring window at position " + std::to_string(start) + " has " +
          std::to_string(WindowWorldCount(r, start, seg.length)) +
          " instances (cap " +
          std::to_string(options.max_instances_per_window) + ")");
    }
    ForEachWindowWorld(
        r, start, seg.length, scratch, [&](std::string_view instance,
                                           double prob) {
          const uint32_t offset =
              static_cast<uint32_t>(scratch->text_pool.size());
          scratch->text_pool.append(instance);
          scratch->occurrences.push_back(
              RawOccurrence{BigEndianPrefix(instance), offset, start, prob});
        });
  }
  const auto text_of = [&](const RawOccurrence& occ) {
    return std::string_view(scratch->text_pool.data() + occ.text_offset,
                            stride);
  };
  const size_t tail = stride > 8 ? stride - 8 : 0;  // bytes past the prefix
  const auto compare_tails = [&](const RawOccurrence& a,
                                 const RawOccurrence& b) {
    return std::memcmp(scratch->text_pool.data() + a.text_offset + 8,
                       scratch->text_pool.data() + b.text_offset + 8, tail);
  };
  const auto same_text = [&](const RawOccurrence& a, const RawOccurrence& b) {
    return a.prefix == b.prefix && (tail == 0 || compare_tails(a, b) == 0);
  };
  std::sort(scratch->occurrences.begin(), scratch->occurrences.end(),
            [&](const RawOccurrence& a, const RawOccurrence& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (tail != 0) {
                const int order = compare_tails(a, b);
                if (order != 0) return order < 0;
              }
              return a.start < b.start;
            });

  const auto& sorted = scratch->occurrences;
  for (size_t i = 0; i < sorted.size();) {
    const std::string_view text = text_of(sorted[i]);
    size_t j = i;
    scratch->group.clear();
    for (; j < sorted.size() && same_text(sorted[j], sorted[i]); ++j) {
      scratch->group.push_back(
          ProbeOccurrence{sorted[j].start, sorted[j].prob});
    }
    double prob = -1.0;
    if (options.exact_union_probability) {
      scratch->starts.clear();
      for (const ProbeOccurrence& occ : scratch->group) {
        scratch->starts.push_back(occ.start);
      }
      Result<double> exact = ExactOccurrenceProbability(
          r, text, scratch->starts, options.max_instances_per_window);
      if (exact.ok()) prob = exact.value();
    }
    if (prob < 0.0) prob = GroupedOccurrenceProbability(r, text, scratch->group);
    if (prob > 0.0) out->Append(text, prob);
    i = j;
  }
  out->FinishSegment(/*wildcard=*/false);
  return Status::OK();
}

Result<std::vector<ProbeSubstring>> BuildProbeSet(
    const UncertainString& r, int s_len, const Segment& seg, int k,
    const ProbeSetOptions& options) {
  FlatProbeSets flat;
  flat.Reset(1);
  ProbeSetScratch scratch;
  UJOIN_RETURN_IF_ERROR(
      BuildProbeSetInto(r, s_len, seg, k, options, &scratch, &flat));
  std::vector<ProbeSubstring> out;
  out.reserve(flat.segment_entries(0).size());
  for (const FlatProbeSets::Entry& entry : flat.segment_entries(0)) {
    out.push_back(ProbeSubstring{std::string(flat.text(entry)), entry.prob});
  }
  return out;
}

}  // namespace ujoin
