// Reproduces Table 1 of the paper: the q-gram filtering walk-through with
// r = GGATCC, m = 3, q = 2, k = 1, τ = 0.25 over four uncertain strings.
// Prints the probe sets q(r, x), each string's per-segment match
// probabilities α_x, Theorem 2's upper bound, and the accept/reject
// decision — the same rows the paper's table and accompanying narrative
// report — then times the filter evaluation per string through the
// google-benchmark harness and emits BENCH_table1.json in the
// ujoin.run_report envelope (bench_report.h).  Each timed run carries the
// table's values as counters (alpha_1..alpha_m, bound, candidate), so the
// JSON artefact holds the full worked example, machine-readably.

#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "filter/partition.h"
#include "filter/probe_set.h"
#include "filter/qgram_filter.h"
#include "text/alphabet.h"
#include "util/check.h"

namespace {

using namespace ujoin;  // NOLINT: benchmark driver

struct TableRow {
  const char* name;
  const char* text;
};

constexpr TableRow kStrings[] = {
    {"S1", "A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC"},
    {"S2", "AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C"},
    {"S3", "G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C"},
    {"S4", "{(G,0.8),(T,0.2)}GA{(C,0.3),(G,0.2),(T,0.5)}CT"},
};

QGramOptions Table1Options() {
  QGramOptions options;
  options.k = 1;
  options.q = 2;
  // The table's probe sets come from the ±k window (DESIGN.md Finding 1).
  options.probe.selection = SelectionPolicy::kPositional;
  return options;
}

constexpr double kTau = 0.25;

UncertainString Parse(const char* text) {
  Result<UncertainString> s = UncertainString::Parse(text, Alphabet::Dna());
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

UncertainString QueryR() {
  return UncertainString::FromDeterministic("GGATCC");
}

// The console walk-through the pre-envelope binary printed; runs once so
// the human-readable table still accompanies the JSON artefact.
void PrintWalkthrough() {
  const QGramOptions options = Table1Options();
  const UncertainString r = QueryR();
  std::printf("Table 1: application of q-gram filtering\n");
  std::printf("m = 3, q = %d, k = %d, tau = %.2f, r = GGATCC\n\n", options.q,
              options.k, kTau);
  const std::vector<Segment> segments = EvenPartition(6, 3);
  for (size_t x = 0; x < segments.size(); ++x) {
    Result<std::vector<ProbeSubstring>> probes =
        BuildProbeSet(r, 6, segments[x], options.k, options.probe);
    UJOIN_CHECK(probes.ok());
    std::printf("q(r,%zu) = {", x + 1);
    for (size_t i = 0; i < probes->size(); ++i) {
      std::printf("%s%s", i ? ", " : " ", (*probes)[i].text.c_str());
    }
    std::printf(" }\n");
  }
  std::printf("\n%-4s %-48s %-28s %-7s %s\n", "S", "string",
              "alpha_1 alpha_2 alpha_3", "bound", "decision");
  for (const TableRow& entry : kStrings) {
    const UncertainString s = Parse(entry.text);
    Result<QGramFilterOutcome> out = EvaluateQGramFilter(r, s, options);
    UJOIN_CHECK(out.ok());
    std::string alphas;
    for (double a : out->alphas) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.3f   ", a);
      alphas += buf;
    }
    const char* decision;
    if (out->support_pruned) {
      decision = out->matched_segments == 0
                     ? "pruned (no segment matches, Lemma 4)"
                     : "pruned (too few matches, Lemma 4)";
    } else if (!out->Survives(kTau)) {
      decision = "pruned (Theorem 2 bound <= tau)";
    } else {
      decision = "CANDIDATE";
    }
    std::printf("%-4s %-48s %-28s %-7.3f %s\n", entry.name, entry.text,
                alphas.c_str(), out->upper_bound, decision);
  }
  std::printf(
      "\npaper narrative: S1 no matches; S2 one matched segment (its GG "
      "occurs in r only\noutside the position-aware window); S3 alphas "
      "(1, 0, 0.2) -> bound 0.2 rejected;\nS4 bound 0.4 -> candidate.\n\n");
}

void BM_Table1Filter(benchmark::State& state) {
  const TableRow& entry = kStrings[static_cast<size_t>(state.range(0))];
  const QGramOptions options = Table1Options();
  const UncertainString r = QueryR();
  const UncertainString s = Parse(entry.text);
  Result<QGramFilterOutcome> out = Status::Internal("not evaluated");
  for (auto _ : state) {
    out = EvaluateQGramFilter(r, s, options);
    benchmark::DoNotOptimize(out);
  }
  UJOIN_CHECK(out.ok());
  state.SetLabel(entry.name);
  for (size_t x = 0; x < out->alphas.size(); ++x) {
    state.counters["alpha_" + std::to_string(x + 1)] = out->alphas[x];
  }
  state.counters["bound"] = out->upper_bound;
  state.counters["candidate"] =
      !out->support_pruned && out->Survives(kTau) ? 1.0 : 0.0;
}
BENCHMARK(BM_Table1Filter)->DenseRange(0, 3)->ArgName("string");

}  // namespace

int main(int argc, char** argv) {
  PrintWalkthrough();
  return ujoin::bench::RunReportMain(argc, argv, "bench_table1",
                                     "BENCH_table1.json");
}
