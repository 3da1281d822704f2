// Build the index once, persist it, reload, and answer a batch of queries
// in parallel — the deployment shape of a similarity-search service.
//
// Demonstrates: SimilaritySearcher::Save/Load, SearchMany (thread pool),
// SearchTopK, and the cross-collection SimilarityJoin.

#include <cstdio>

#include "datagen/datagen.h"
#include "join/ujoin.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {
using namespace ujoin;  // NOLINT: example code
}  // namespace

int main() {
  // A mid-sized collection of uncertain name records.
  DatasetOptions data_opt;
  data_opt.kind = DatasetOptions::Kind::kNames;
  data_opt.size = 5000;
  data_opt.theta = 0.2;
  data_opt.seed = 11;
  data_opt.max_uncertain_positions = 5;
  const Dataset data = GenerateDataset(data_opt);

  const JoinOptions options = JoinOptions::Qfct(/*k=*/2, /*tau=*/0.1);

  // Build and persist.
  Timer build_timer;
  Result<SimilaritySearcher> built =
      SimilaritySearcher::Create(data.strings, data.alphabet, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("built index over %zu strings in %.2fs (%.1f MiB)\n",
              data.strings.size(), build_timer.ElapsedSeconds(),
              static_cast<double>(built->IndexMemoryUsage()) / (1 << 20));
  const std::string path = "/tmp/ujoin_batch_search.idx";
  if (Status s = built->Save(path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Reload (a fresh process would start here).
  Timer load_timer;
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Load(path, data.alphabet);
  if (!searcher.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 searcher.status().ToString().c_str());
    return 1;
  }
  std::printf("reloaded from %s in %.3fs\n", path.c_str(),
              load_timer.ElapsedSeconds());

  // A batch of queries: noisy re-reads of collection members (the most
  // likely instance with one random substitution).
  Rng rng(12);
  std::vector<UncertainString> queries;
  for (size_t i = 0; i < data.strings.size() && queries.size() < 200;
       i += 25) {
    std::string text = data.strings[i].MostLikelyInstance();
    text[rng.Uniform(text.size())] =
        data.alphabet.SymbolAt(static_cast<int>(rng.Uniform(26)));
    queries.push_back(UncertainString::FromDeterministic(text));
  }

  for (int threads : {1, 4}) {
    Timer timer;
    Result<std::vector<std::vector<SearchHit>>> batches =
        searcher->SearchMany(queries, threads);
    if (!batches.ok()) {
      std::fprintf(stderr, "batch search failed: %s\n",
                   batches.status().ToString().c_str());
      return 1;
    }
    size_t total_hits = 0;
    for (const auto& hits : *batches) total_hits += hits.size();
    std::printf("%3d thread(s): %zu queries -> %zu hits in %.2fs\n", threads,
                queries.size(), total_hits, timer.ElapsedSeconds());
  }

  // Top-3 matches for one query, with exact probabilities.
  Result<std::vector<SearchHit>> top = searcher->SearchTopK(queries[0], 3);
  if (!top.ok()) {
    std::fprintf(stderr, "topk failed: %s\n", top.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntop-%zu for query %s\n", top->size(),
              queries[0].ToString().c_str());
  for (const SearchHit& hit : *top) {
    std::printf("  #%u  Pr=%.4f  %s\n", hit.id, hit.probability,
                searcher->collection()[hit.id].ToString().c_str());
  }

  // Cross-collection join: which query records match which index records?
  JoinOptions join_options = options;
  join_options.threads = 4;
  Timer join_timer;
  Result<CrossJoinResult> joined =
      SimilarityJoin(queries, data.strings, data.alphabet, join_options);
  if (!joined.ok()) {
    std::fprintf(stderr, "cross join failed: %s\n",
                 joined.status().ToString().c_str());
    return 1;
  }
  std::printf("\ncross join (4 threads): %zu query-record pairs in %.2fs\n",
              joined->pairs.size(), join_timer.ElapsedSeconds());
  std::remove(path.c_str());
  return 0;
}
