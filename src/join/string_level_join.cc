#include "join/string_level_join.h"

#include <algorithm>
#include <numeric>

#include "text/frequency.h"
#include "util/check.h"
#include "util/timer.h"

namespace ujoin {

namespace {

struct FreqEnvelope {
  std::vector<int> min_counts;
  std::vector<int> max_counts;
};

Result<FreqEnvelope> BuildEnvelope(const StringLevelUncertainString& s,
                                   const Alphabet& alphabet) {
  FreqEnvelope env;
  for (int i = 0; i < s.num_instances(); ++i) {
    Result<FrequencyVector> f =
        MakeFrequencyVector(s.instance(i).text, alphabet);
    if (!f.ok()) return f.status();
    if (i == 0) {
      env.min_counts = *f;
      env.max_counts = *f;
      continue;
    }
    for (size_t c = 0; c < f->size(); ++c) {
      env.min_counts[c] = std::min(env.min_counts[c], (*f)[c]);
      env.max_counts[c] = std::max(env.max_counts[c], (*f)[c]);
    }
  }
  return env;
}

}  // namespace

int StringLevelFreqDistanceLowerBound(const std::vector<int>& a_min_counts,
                                      const std::vector<int>& a_max_counts,
                                      const std::vector<int>& b_min_counts,
                                      const std::vector<int>& b_max_counts) {
  UJOIN_CHECK(a_min_counts.size() == b_min_counts.size());
  int pos = 0;  // surplus of A over B that no world pair can avoid
  int neg = 0;
  for (size_t c = 0; c < a_min_counts.size(); ++c) {
    if (a_min_counts[c] > b_max_counts[c]) {
      pos += a_min_counts[c] - b_max_counts[c];
    }
    if (b_min_counts[c] > a_max_counts[c]) {
      neg += b_min_counts[c] - a_max_counts[c];
    }
  }
  return std::max(pos, neg);
}

Result<SelfJoinResult> StringLevelSelfJoin(
    const std::vector<StringLevelUncertainString>& collection,
    const Alphabet& alphabet, const StringLevelJoinOptions& options) {
  UJOIN_CHECK(options.k >= 0);
  UJOIN_CHECK(options.tau >= 0.0 && options.tau <= 1.0);
  SelfJoinResult result;
  Timer total_timer;

  std::vector<FreqEnvelope> envelopes;
  envelopes.reserve(collection.size());
  for (const StringLevelUncertainString& s : collection) {
    Result<FreqEnvelope> env = BuildEnvelope(s, alphabet);
    if (!env.ok()) return env.status();
    envelopes.push_back(std::move(env).value());
  }

  // Visit in ascending min-length order so the length filter can stop the
  // inner scan early.
  std::vector<uint32_t> order(collection.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return collection[a].min_length() < collection[b].min_length();
  });

  for (size_t i = 0; i < order.size(); ++i) {
    const StringLevelUncertainString& r = collection[order[i]];
    for (size_t j = i; j-- > 0;) {
      const StringLevelUncertainString& s = collection[order[j]];
      ++result.stats.length_compatible_pairs;
      // Length filter: every world pair has ed >= length gap; prune when
      // even the closest lengths differ by more than k.  (No early break:
      // max_length is not monotone in the min_length visiting order.)
      if (r.min_length() - s.max_length() > options.k) continue;
      if (s.min_length() - r.max_length() > options.k) continue;
      ++result.stats.qgram_candidates;  // pairs past the cheap stage

      {
        ScopedTimer timer(&result.stats.freq_time);
        const int fd_bound = StringLevelFreqDistanceLowerBound(
            envelopes[order[i]].min_counts, envelopes[order[i]].max_counts,
            envelopes[order[j]].min_counts, envelopes[order[j]].max_counts);
        if (fd_bound > options.k) {
          ++result.stats.freq_lower_pruned;
          continue;
        }
      }
      ++result.stats.freq_candidates;

      ScopedTimer timer(&result.stats.verify_time);
      ++result.stats.verified_pairs;
      const StringLevelVerdict verdict =
          DecideStringLevelSimilar(r, s, options.k, options.tau);
      if (verdict.similar) {
        ++result.stats.result_pairs;
        uint32_t a = order[i];
        uint32_t b = order[j];
        if (a > b) std::swap(a, b);
        result.pairs.push_back(JoinPair{a, b, verdict.lower, verdict.exact});
      }
    }
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace ujoin
