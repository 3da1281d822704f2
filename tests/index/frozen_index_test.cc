// Tests for the frozen index layout: QueryWorkspace reuse must be
// invisible in the results, heap and linear merges must agree bit for bit,
// and the steady-state probe path, the query's frequency summary included,
// must not touch the heap allocator.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/join_stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/query_log.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation hook.  Counting is off except inside CountAllocations
// scopes, so gtest's own bookkeeping does not pollute the counter.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::aligned_alloc(alignment, ((size + alignment - 1) / alignment) *
                                              alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ujoin {
namespace {

class CountAllocations {
 public:
  CountAllocations() {
    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~CountAllocations() {
    g_count_allocations.store(false, std::memory_order_relaxed);
  }
  size_t count() const {
    return g_allocation_count.load(std::memory_order_relaxed);
  }
};

std::vector<IndexCandidate> Copy(std::span<const IndexCandidate> found) {
  return std::vector<IndexCandidate>(found.begin(), found.end());
}

void ExpectSameCandidates(const std::vector<IndexCandidate>& a,
                          const std::vector<IndexCandidate>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " i=" << i;
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments)
        << what << " i=" << i;
    // Bit-identical, not merely close: the frozen layout and the workspace
    // must not perturb the α arithmetic in any way.
    EXPECT_EQ(a[i].upper_bound, b[i].upper_bound) << what << " i=" << i;
  }
}

// Property: a workspace that has served many earlier queries returns exactly
// what a fresh workspace returns, and both match the legacy allocating
// Query overload.
TEST(FrozenIndexTest, WorkspaceReuseMatchesFreshWorkspace) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(2026);
  for (int round = 0; round < 10; ++round) {
    const int k = static_cast<int>(rng.UniformInt(1, 2));
    const int q = static_cast<int>(rng.UniformInt(2, 3));
    const int length = static_cast<int>(rng.UniformInt(k + 2, 10));

    testing::RandomStringOptions opt;
    opt.min_length = opt.max_length = length;
    opt.theta = 0.3;
    opt.max_alternatives = 2;
    InvertedSegmentIndex index(k, q);
    for (uint32_t id = 0; id < 30; ++id) {
      ASSERT_TRUE(
          index.Insert(id, testing::RandomUncertainString(dna, opt, rng)).ok());
    }
    index.Freeze();

    testing::RandomStringOptions probe_opt = opt;
    probe_opt.min_length = std::max(1, length - k);
    probe_opt.max_length = length + k;

    QueryWorkspace reused;
    for (int query = 0; query < 15; ++query) {
      const UncertainString r =
          testing::RandomUncertainString(dna, probe_opt, rng);
      const double tau = rng.UniformDouble() * 0.4;
      const uint32_t id_limit = rng.Bernoulli(0.3)
                                    ? static_cast<uint32_t>(rng.Uniform(30))
                                    : UINT32_MAX;

      const std::vector<IndexCandidate> with_reuse =
          Copy(index.Query(r, length, tau, &reused, nullptr, id_limit));
      QueryWorkspace fresh;
      const std::vector<IndexCandidate> with_fresh =
          Copy(index.Query(r, length, tau, &fresh, nullptr, id_limit));
      ExpectSameCandidates(with_reuse, with_fresh, "reused vs fresh");
      const std::vector<IndexCandidate> legacy =
          index.Query(r, length, tau, nullptr, id_limit);
      ExpectSameCandidates(with_reuse, legacy, "workspace vs legacy");
    }
  }
}

void ExpectSameStats(const IndexQueryStats& a, const IndexQueryStats& b,
                     const char* what) {
  EXPECT_EQ(a.lists_scanned, b.lists_scanned) << what;
  EXPECT_EQ(a.postings_scanned, b.postings_scanned) << what;
  EXPECT_EQ(a.ids_touched, b.ids_touched) << what;
  EXPECT_EQ(a.support_pruned, b.support_pruned) << what;
  EXPECT_EQ(a.probability_pruned, b.probability_pruned) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
}

// `text` with the given positions uncertain: each keeps its symbol at
// probability `p` and gains `other` at 1 - p.
UncertainString WithAlternatives(const std::string& text,
                                 const std::vector<int>& positions, double p,
                                 char other) {
  UncertainString::Builder builder;
  for (int i = 0; i < static_cast<int>(text.size()); ++i) {
    const char c = text[static_cast<size_t>(i)];
    if (std::find(positions.begin(), positions.end(), i) != positions.end()) {
      builder.AddUncertain({{c, p}, {other, 1.0 - p}});
    } else {
      builder.AddCertain(c);
    }
  }
  Result<UncertainString> s = builder.Build();
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

// Probes every bucket of [|r| - k, |r| + k] through `workspace` and checks
// each answer, candidates and stats, against a fresh workspace's.  Returns
// the fresh answers, concatenated.
std::vector<IndexCandidate> ProbeAllBucketsLikeFresh(
    const InvertedSegmentIndex& index, const UncertainString& r, double tau,
    QueryWorkspace* workspace, const char* what) {
  std::vector<IndexCandidate> all;
  for (int l = r.length() - index.k(); l <= r.length() + index.k(); ++l) {
    IndexQueryStats reused_stats;
    const std::vector<IndexCandidate> with_reuse =
        Copy(index.Query(r, l, tau, workspace, &reused_stats));
    QueryWorkspace fresh;
    IndexQueryStats fresh_stats;
    const std::vector<IndexCandidate> with_fresh =
        Copy(index.Query(r, l, tau, &fresh, &fresh_stats));
    ExpectSameCandidates(with_reuse, with_fresh, what);
    ExpectSameStats(reused_stats, fresh_stats, what);
    all.insert(all.end(), with_fresh.begin(), with_fresh.end());
  }
  return all;
}

bool SameCandidates(const std::vector<IndexCandidate>& a,
                    const std::vector<IndexCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].matched_segments != b[i].matched_segments ||
        a[i].upper_bound != b[i].upper_bound) {
      return false;
    }
  }
  return true;
}

// A reused workspace answers for the probe string's content, not its
// address: reassigning one variable to a string of the same length that
// differs in one symbol or in one probability must answer like a fresh
// workspace, with no probe set left over from the previous content.
TEST(FrozenIndexTest, ProbeSetMemoFollowsContentNotAddress) {
  const std::string text = "ACGTTGCAACGTAC";
  std::string edited = text;
  edited[10] = 'T';
  const UncertainString variants[] = {
      WithAlternatives(text, {4}, 0.7, 'A'),
      WithAlternatives(edited, {4}, 0.7, 'A'),  // one symbol differs
      WithAlternatives(text, {4}, 0.6, 'A'),    // one probability differs
      WithAlternatives(text, {4}, 0.7, 'A'),    // back to the first
  };

  // Index the variants' instances and one-edit neighbours, so that every
  // variant has candidates of its own in each bucket.
  const int k = 1;
  InvertedSegmentIndex index(k, /*q=*/3);
  uint32_t id = 0;
  for (const std::string& base : {text, edited}) {
    std::string extended = base;
    extended.push_back('A');
    std::string substituted = base;
    substituted[0] = 'T';
    for (const std::string& s :
         {base, base.substr(1), extended, substituted}) {
      ASSERT_TRUE(index.Insert(id++, UncertainString::FromDeterministic(s))
                      .ok());
    }
    ASSERT_TRUE(index.Insert(id++, WithAlternatives(base, {4}, 0.7, 'A')).ok());
  }
  index.Freeze();

  QueryWorkspace reused;
  UncertainString r;
  std::vector<std::vector<IndexCandidate>> answers;
  for (const UncertainString& variant : variants) {
    r = variant;  // same variable, same length, new content
    answers.push_back(
        ProbeAllBucketsLikeFresh(index, r, /*tau=*/0.05, &reused, "variant"));
  }
  // The variants must answer differently, or stale probe sets would go
  // unseen.
  EXPECT_FALSE(SameCandidates(answers[0], answers[1]));
  EXPECT_FALSE(SameCandidates(answers[0], answers[2]));
  EXPECT_TRUE(SameCandidates(answers[0], answers[3]));
}

// A reused workspace also answers for the index's settings: one workspace
// alternating between two indexes over the same strings must answer as a
// fresh one, whether the indexes differ in k, in the instance cap (one side
// closes a segment as a wildcard) or in the union-probability mode.
TEST(FrozenIndexTest, ProbeSetMemoFollowsIndexSettings) {
  ProbeSetOptions capped;
  capped.max_instances_per_window = 2;
  ProbeSetOptions exact_union;
  exact_union.exact_union_probability = true;
  struct Settings {
    int k;
    ProbeSetOptions options;
  };
  struct SettingsPair {
    const char* differ_in;
    Settings a;
    Settings b;
  };
  const SettingsPair pairs[] = {
      {"k", {1, {}}, {2, {}}},
      {"instance cap", {2, {}}, {2, capped}},
      {"union mode", {2, {}}, {2, exact_union}},
  };

  // A repetitive probe: overlapping occurrences of one text (where the
  // exact union differs from the grouped recursion) and segments with more
  // than two instances (wildcards under the cap).
  const UncertainString r =
      WithAlternatives("AAAAAAAAAAAAAA", {1, 3, 6, 9, 12}, 0.7, 'C');
  const Alphabet ac = Alphabet::Create("AC").value();
  testing::RandomStringOptions opt;
  opt.min_length = r.length() - 2;
  opt.max_length = r.length() + 2;
  opt.theta = 0.2;
  opt.max_alternatives = 2;
  Rng rng(1907);
  std::vector<UncertainString> strings;
  for (int i = 0; i < 80; ++i) {
    strings.push_back(testing::RandomUncertainString(ac, opt, rng));
  }

  for (const auto& [differ_in, a, b] : pairs) {
    SCOPED_TRACE(differ_in);
    InvertedSegmentIndex index_a(a.k, /*q=*/3, a.options);
    InvertedSegmentIndex index_b(b.k, /*q=*/3, b.options);
    for (uint32_t id = 0; id < strings.size(); ++id) {
      ASSERT_TRUE(index_a.Insert(id, strings[id]).ok());
      ASSERT_TRUE(index_b.Insert(id, strings[id]).ok());
    }
    QueryWorkspace shared;
    for (int round = 0; round < 2; ++round) {
      const std::vector<IndexCandidate> answer_a =
          ProbeAllBucketsLikeFresh(index_a, r, 0.05, &shared, "index a");
      const std::vector<IndexCandidate> answer_b =
          ProbeAllBucketsLikeFresh(index_b, r, 0.05, &shared, "index b");
      // The settings must change the answer, or the test shows nothing.
      EXPECT_FALSE(SameCandidates(answer_a, answer_b));
    }
  }
}

// The heap merge (threshold 0: always heap) and the linear min-scan
// (huge threshold: never heap) must produce bit-identical candidates.
TEST(FrozenIndexTest, HeapAndLinearMergesAgree) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(7031);
  for (int round = 0; round < 10; ++round) {
    const int k = static_cast<int>(rng.UniformInt(1, 3));
    const int q = static_cast<int>(rng.UniformInt(2, 3));
    const int length = static_cast<int>(rng.UniformInt(k + 2, 11));

    testing::RandomStringOptions opt;
    opt.min_length = opt.max_length = length;
    opt.theta = 0.4;
    opt.max_alternatives = 3;
    InvertedSegmentIndex index(k, q);
    for (uint32_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(
          index.Insert(id, testing::RandomUncertainString(dna, opt, rng)).ok());
    }
    // Deliberately not frozen for half the rounds, so the heap also merges
    // base + delta extent pairs.
    if (round % 2 == 0) index.Freeze();

    testing::RandomStringOptions probe_opt = opt;
    probe_opt.min_length = std::max(1, length - k);
    probe_opt.max_length = length + k;
    for (int query = 0; query < 10; ++query) {
      const UncertainString r =
          testing::RandomUncertainString(dna, probe_opt, rng);
      const double tau = rng.UniformDouble() * 0.4;

      QueryWorkspace always_heap;
      always_heap.heap_merge_threshold = 0;
      QueryWorkspace never_heap;
      never_heap.heap_merge_threshold = 1 << 20;
      QueryWorkspace standard;

      const std::vector<IndexCandidate> heap_result =
          Copy(index.Query(r, length, tau, &always_heap));
      const std::vector<IndexCandidate> linear_result =
          Copy(index.Query(r, length, tau, &never_heap));
      const std::vector<IndexCandidate> default_result =
          Copy(index.Query(r, length, tau, &standard));
      ExpectSameCandidates(heap_result, linear_result, "heap vs linear");
      ExpectSameCandidates(heap_result, default_result, "heap vs default");
    }
  }
}

// Acceptance gate: once the workspace is warm, repeated queries through a
// frozen index perform zero heap allocations.
TEST(FrozenIndexTest, SteadyStateQueryDoesNotAllocate) {
  Alphabet dna = Alphabet::Dna();
  Rng rng(99);
  const int k = 1;
  const int q = 2;
  const int length = 9;

  testing::RandomStringOptions opt;
  opt.min_length = opt.max_length = length;
  opt.theta = 0.3;
  opt.max_alternatives = 2;
  InvertedSegmentIndex index(k, q);
  for (uint32_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(
        index.Insert(id, testing::RandomUncertainString(dna, opt, rng)).ok());
  }
  index.Freeze();

  const UncertainString r = testing::RandomUncertainString(dna, opt, rng);
  QueryWorkspace workspace;
  IndexQueryStats stats;
  // Warm-up: grows every workspace buffer to its steady-state size.
  size_t warm_size = index.Query(r, length, 0.01, &workspace, &stats).size();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(index.Query(r, length, 0.01, &workspace, &stats).size(),
              warm_size);
  }

  size_t allocations;
  size_t counted_size;
  {
    CountAllocations counter;
    counted_size = index.Query(r, length, 0.01, &workspace, &stats).size();
    allocations = counter.count();
  }
  EXPECT_EQ(counted_size, warm_size);
  EXPECT_EQ(allocations, 0u)
      << "steady-state Query must not allocate; got " << allocations
      << " allocations";

  // Same property when two probe strings alternate through the workspace:
  // each query rebuilds its probe sets into storage the first round grew.
  const UncertainString other = testing::RandomUncertainString(dna, opt, rng);
  const size_t other_size =
      index.Query(other, length, 0.01, &workspace, &stats).size();
  for (int i = 0; i < 2; ++i) {
    index.Query(r, length, 0.01, &workspace, &stats);
    index.Query(other, length, 0.01, &workspace, &stats);
  }
  size_t alternating_sizes;
  {
    CountAllocations counter;
    alternating_sizes =
        index.Query(r, length, 0.01, &workspace, &stats).size() +
        index.Query(other, length, 0.01, &workspace, &stats).size();
    allocations = counter.count();
  }
  EXPECT_EQ(alternating_sizes, warm_size + other_size);
  EXPECT_EQ(allocations, 0u)
      << "alternating probe strings must not allocate once warm";

  // Same property with the heap merges forced on.
  workspace.heap_merge_threshold = 0;
  warm_size = index.Query(r, length, 0.01, &workspace, &stats).size();
  {
    CountAllocations counter;
    counted_size = index.Query(r, length, 0.01, &workspace, &stats).size();
    allocations = counter.count();
  }
  EXPECT_EQ(counted_size, warm_size);
  EXPECT_EQ(allocations, 0u);

  // Same property with metrics recording on: the obs::Recorder is a flat
  // value type with inline storage, so attaching it to the workspace keeps
  // the probe path allocation-free — and must not change the candidates.
  workspace.heap_merge_threshold = QueryWorkspace().heap_merge_threshold;
  const std::vector<IndexCandidate> unobserved =
      Copy(index.Query(r, length, 0.01, &workspace, &stats));
  obs::Recorder recorder;
  workspace.obs = &recorder;
  warm_size = index.Query(r, length, 0.01, &workspace, &stats).size();
  {
    CountAllocations counter;
    counted_size = index.Query(r, length, 0.01, &workspace, &stats).size();
    allocations = counter.count();
  }
  EXPECT_EQ(counted_size, warm_size);
  EXPECT_EQ(allocations, 0u)
      << "recording into obs::Recorder must not allocate";
  const std::vector<IndexCandidate> observed =
      Copy(index.Query(r, length, 0.01, &workspace, &stats));
  workspace.obs = nullptr;
  ExpectSameCandidates(unobserved, observed, "recording on vs off");
#ifndef UJOIN_OBS_DISABLED
  EXPECT_GT(recorder.hist(obs::Hist::kMergedListLength).count(), 0);
#endif

  // Same property for the query-log path the serve layer runs per request:
  // building a record from the query's stats and buffering it are flat
  // copies into pre-reserved storage.
  obs::QueryLogBuffer log_buffer;
  const JoinStats query_stats{};
  {
    CountAllocations counter;
    obs::QueryLogRecord record = MakeQueryLogRecord(
        query_stats, /*connection=*/1, /*seq=*/2, length, /*hits=*/3,
        /*error=*/false);
    log_buffer.Add(record);
    allocations = counter.count();
  }
  EXPECT_EQ(allocations, 0u)
      << "building and buffering a query-log record must not allocate";
  EXPECT_EQ(log_buffer.size(), 1u);

  // Same property with the always-on flight recorder live: a query's
  // lifecycle events are relaxed stores into the recorder's static rings,
  // so black-box recording rides the steady-state path for free.
  obs::FlightRecorder* flight = obs::GlobalFlightRecorder();
  const bool flight_was_enabled = flight->enabled();
  flight->set_enabled(true);
  // First event claims this thread's ring slot; keep that outside the
  // counted window, like the workspace warm-up above.
  UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kProbeBegin, 0, 0);
  {
    CountAllocations counter;
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kQueryBegin, 0, length);
    counted_size = index.Query(r, length, 0.01, &workspace, &stats).size();
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kVerifyBegin, 64, 0);
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kQueryEnd,
                           static_cast<int64_t>(counted_size), 0);
    allocations = counter.count();
  }
  flight->set_enabled(flight_was_enabled);
  EXPECT_EQ(counted_size, warm_size);
  EXPECT_EQ(allocations, 0u)
      << "flight-event recording must not allocate on the probe path";
}

// Acceptance gate for the query side of the frequency filter: once the
// workspace's summary has grown to fit, two names queries alternating
// through it rebuild their summaries without allocating, and each rebuild
// equals a fresh Build bit for bit.
TEST(FrozenIndexTest, QuerySummaryRebuildDoesNotAllocate) {
  const Alphabet names = Alphabet::Names();
  Rng rng(25);
  testing::RandomStringOptions opt;
  opt.min_length = 10;
  opt.max_length = 35;
  opt.theta = 0.2;
  const UncertainString a = testing::RandomUncertainString(names, opt, rng);
  const UncertainString b = testing::RandomUncertainString(names, opt, rng);
  ASSERT_FALSE(a.IsDeterministic());
  ASSERT_FALSE(b.IsDeterministic());

  QueryWorkspace workspace;
  FrequencySummary& summary = workspace.query_summary;
  for (int i = 0; i < 2; ++i) {
    FrequencySummary::BuildInto(a, names, &summary);
    FrequencySummary::BuildInto(b, names, &summary);
  }
  size_t allocations;
  {
    CountAllocations counter;
    FrequencySummary::BuildInto(a, names, &summary);
    FrequencySummary::BuildInto(b, names, &summary);
    allocations = counter.count();
  }
  EXPECT_EQ(allocations, 0u)
      << "rebuilding a query summary in a warm workspace must not allocate";

  const FrequencySummary fresh = FrequencySummary::Build(b, names);
  ASSERT_EQ(summary.length(), fresh.length());
  ASSERT_EQ(summary.alphabet_size(), fresh.alphabet_size());
  const auto same = [](std::span<const double> x, std::span<const double> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (int c = 0; c < names.size(); ++c) {
    const CharFrequencySummary got = summary.ForSymbol(c);
    const CharFrequencySummary want = fresh.ForSymbol(c);
    EXPECT_EQ(got.certain_count, want.certain_count) << "symbol " << c;
    EXPECT_EQ(got.uncertain_count, want.uncertain_count) << "symbol " << c;
    EXPECT_EQ(got.expected, want.expected) << "symbol " << c;
    EXPECT_TRUE(same(got.pmf, want.pmf)) << "symbol " << c;
    EXPECT_TRUE(same(got.scaled_head, want.scaled_head)) << "symbol " << c;
  }
}

}  // namespace
}  // namespace ujoin
