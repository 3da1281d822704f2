// Pins the trie verifiers' walk bit for bit on names-scale pairs.
//
// The `probability` and `lower` bits were captured from the heap-merged
// walker that preceded the linear active-set merge of verify/trie_walk.h,
// and the length-banded walk reproduces them exactly: the band drops only
// cells that no alignment of cost <= k passes through, so the full
// instances with D <= k and the order of the leaf sums are unchanged.  The
// counters and the `upper`/`exact` columns are the banded walk's own.
// Against the unbanded walk every counter is lower or equal (632 of 864
// lower), and 8 rows per table changed `exact` from false to true with
// `upper` becoming `lower`: all have a not-similar verdict, and the band
// prunes their last subtrees before an early stop would skip one.  The
// plain and the compressed verifier form their leaf products differently,
// so each has its own table (on these cases their values happen to agree).
//
// `exact` is true when DecideSimilar left no alternative unwalked, and then
// upper = lower.  That holds on the 48 rows per table whose verdict comes
// on the walk's last resolution; on those rows the DecideSimilar counters
// equal the Probability counters.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"
#include "verify/compressed_verifier.h"
#include "verify/verifier.h"

namespace ujoin {
namespace {

constexpr double kTau = 0.1;
constexpr int kPairs = 36;

struct GoldenCase {
  UncertainString r;
  UncertainString s;
  int k;
};

// `text` with one to four of its positions made uncertain (a position drawn
// twice stays one position).  Each keeps its own symbol as one alternative
// and gains one or two others.
UncertainString WithUncertainty(const std::string& text,
                                const Alphabet& alphabet, Rng& rng) {
  std::vector<bool> uncertain(text.size(), false);
  const int64_t draws = rng.UniformInt(1, 4);
  for (int64_t i = 0; i < draws; ++i) {
    uncertain[rng.Uniform(text.size())] = true;
  }
  UncertainString::Builder builder;
  for (size_t i = 0; i < text.size(); ++i) {
    if (!uncertain[i]) {
      builder.AddCertain(text[i]);
      continue;
    }
    std::vector<char> symbols{text[i]};
    const size_t want = 1 + static_cast<size_t>(rng.UniformInt(1, 2));
    while (symbols.size() < want) {
      const char c = testing::RandomSymbol(alphabet, rng);
      bool seen = false;
      for (char t : symbols) seen = seen || t == c;
      if (!seen) symbols.push_back(c);
    }
    std::vector<CharProb> alts;
    double remaining = 1.0;
    for (size_t j = 0; j < symbols.size(); ++j) {
      const bool last = j + 1 == symbols.size();
      const double p =
          last ? remaining : remaining * (0.2 + 0.6 * rng.UniformDouble());
      remaining -= last ? 0.0 : p;
      alts.push_back(CharProb{symbols[j], p});
    }
    builder.AddUncertain(std::move(alts));
  }
  Result<UncertainString> s = builder.Build();
  UJOIN_CHECK(s.ok());
  return std::move(s).value();
}

// Names-scale pairs at k = 1..3.  R is a random name of length 10-35 with up
// to four uncertain positions.  Every fifth S is R itself (a self-pair),
// every fifth an unrelated name, and the rest R's text after up to three
// random edits, each with uncertainty of its own.  Odd pairs draw from four
// letters of the names alphabet: repeated letters, as in real names, make
// the active sets wide.
std::vector<GoldenCase> NamesScaleCases() {
  const Alphabet names = Alphabet::Names();
  const Alphabet few = Alphabet::Create("aen ").value();
  Rng rng(20140622);
  std::vector<GoldenCase> cases;
  for (int i = 0; i < kPairs; ++i) {
    const Alphabet& alphabet = i % 2 == 0 ? names : few;
    const std::string text = testing::RandomString(
        alphabet, static_cast<int>(rng.UniformInt(10, 35)), rng);
    const UncertainString r = WithUncertainty(text, alphabet, rng);
    UncertainString s;
    if (i % 5 == 0) {
      s = r;
    } else if (i % 5 == 4) {
      s = WithUncertainty(
          testing::RandomString(alphabet,
                                static_cast<int>(rng.UniformInt(10, 35)), rng),
          alphabet, rng);
    } else {
      s = WithUncertainty(testing::RandomEdits(text, alphabet, 3, rng),
                          alphabet, rng);
    }
    for (int k = 1; k <= 3; ++k) cases.push_back(GoldenCase{r, s, k});
  }
  return cases;
}

// One verifier's observable output on one case: Probability's value and
// work counters, then DecideSimilar(τ)'s bounds, flag and work counters.
struct Pinned {
  uint64_t probability;
  uint64_t lower;
  uint64_t upper;
  bool exact;
  int64_t explored_s_nodes;
  int64_t active_entries;
  int64_t decide_explored_s_nodes;
  int64_t decide_active_entries;

  friend bool operator==(const Pinned&, const Pinned&) = default;
};

// Prints a Pinned as a row of the tables below, so a mismatch shows the
// observed row in the same syntax.
void PrintTo(const Pinned& p, std::ostream* os) {
  char row[192];
  std::snprintf(row, sizeof(row),
                "{0x%016llx, 0x%016llx, 0x%016llx, %s, %lld, %lld, %lld, "
                "%lld}",
                static_cast<unsigned long long>(p.probability),
                static_cast<unsigned long long>(p.lower),
                static_cast<unsigned long long>(p.upper),
                p.exact ? "true" : "false",
                static_cast<long long>(p.explored_s_nodes),
                static_cast<long long>(p.active_entries),
                static_cast<long long>(p.decide_explored_s_nodes),
                static_cast<long long>(p.decide_active_entries));
  *os << row;
}

template <typename Verifier>
Pinned Observe(const Verifier& verifier, const UncertainString& s) {
  VerifyStats exact_stats;
  VerifyStats decide_stats;
  const double probability = verifier.Probability(s, &exact_stats);
  const ThresholdVerdict verdict =
      verifier.DecideSimilar(s, kTau, &decide_stats);
  return Pinned{std::bit_cast<uint64_t>(probability),
                std::bit_cast<uint64_t>(verdict.lower),
                std::bit_cast<uint64_t>(verdict.upper),
                verdict.exact,
                exact_stats.explored_s_nodes,
                exact_stats.active_entries,
                decide_stats.explored_s_nodes,
                decide_stats.active_entries};
}

Pinned ObservePlain(const GoldenCase& c) {
  Result<TrieVerifier> verifier = TrieVerifier::Create(c.r, c.k);
  UJOIN_CHECK(verifier.ok());
  return Observe(*verifier, c.s);
}

Pinned ObserveCompressed(const GoldenCase& c) {
  Result<CompressedTrieVerifier> verifier =
      CompressedTrieVerifier::Create(c.r, c.k);
  UJOIN_CHECK(verifier.ok());
  return Observe(*verifier, c.s);
}

// Rows in case order: pair i at k = 1, 2, 3 is row 3 * i + k - 1.
// clang-format off
constexpr Pinned kPlain[] = {
    {0x3fdcf1b992ce48b8, 0x3fbb94f70b3f4f08, 0x3fea8e518f077cfb, false, 132, 636, 64, 279},
    {0x3feb63b42b2b966d, 0x3fbe81af6d60f2f2, 0x3fef8afdb14ae63b, false, 132, 1558, 27, 228},
    {0x3ff0000000000000, 0x3fc114e0f184e08d, 0x3ff0000000000000, false, 132, 2758, 27, 385},
    {0x3fc142f6348569a9, 0x3fbddb86e2b97469, 0x3fd0ddc960cf6b10, false, 153, 277, 104, 228},
    {0x3fd982ecfa933d87, 0x3fbf648d28cc23c6, 0x3fe5e5b9efbbb95b, false, 349, 1398, 143, 406},
    {0x3fe6d5be1af83f0d, 0x3fba31e0de0042f8, 0x3fedfe9a44ddb9b5, false, 477, 4536, 98, 702},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 6, 4, 6},
    {0x3fafd14140682025, 0x3fafd14140682025, 0x3fafd14140682025, true, 14, 29, 14, 29},
    {0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, true, 68, 140, 68, 140},
    {0x3fc28fa99407cfa4, 0x3fbf512029b617c2, 0x3fde73887486268a, false, 184, 1126, 152, 934},
    {0x3fe0ac92cb79755d, 0x3fc794934ceed8e8, 0x3feb2b1095c58fa1, false, 226, 4164, 78, 1599},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe84547fc61fa06, 0x3fc9f487261c660c, 0x3fed1abcb3550a1d, false, 115, 415, 69, 237},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 791, 39, 266},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 1339, 39, 449},
    {0x0000000000000000, 0x0000000000000000, 0x3fae1c66ea99ba90, false, 32, 47, 32, 47},
    {0x3f7905e61c703420, 0x3f7905e61c703420, 0x3fb09e91d713e08a, false, 74, 253, 67, 246},
    {0x3faf6d26067de509, 0x3faf3919687d4e21, 0x3fb4f61838359a48, false, 94, 890, 93, 889},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 6, 2, 6},
    {0x3fac8c431659e337, 0x3fac8c431659e337, 0x3fac8c431659e337, true, 18, 44, 18, 44},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 2, 2, 2},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 13, 9, 13},
    {0x3fd8aadb8256fa64, 0x3fc3ef79277b31f3, 0x3fee6a7bb271dd3a, false, 41, 69, 15, 27},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 62, 20, 34},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 128, 20, 73},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 180, 20, 99},
    {0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, true, 28, 50, 28, 50},
    {0x3fcf7844fee696d5, 0x3fc6eecb19cc4dd3, 0x3fe8c56bb5355d63, false, 52, 270, 26, 216},
    {0x3fe2cc03243d749f, 0x3fd4c0a8a46b0f89, 0x3fed6a0d40f7d1b2, false, 52, 840, 26, 551},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, true, 25, 66, 25, 66},
    {0x3f9b2271ff645b12, 0x3f9b2271ff645b12, 0x3f9b2271ff645b12, true, 125, 447, 125, 447},
    {0x3fd6a143766f9fcf, 0x3fd531cc2a96560e, 0x3fdc68dac4247bd2, false, 96, 176, 89, 169},
    {0x3fe760e5f9b3dc80, 0x3fbacc9d442a96fe, 0x3fec5c1655ffe689, false, 180, 725, 105, 320},
    {0x3fee37046327c359, 0x3fbc4061e2a6ef57, 0x3fef6da9e01bf1b0, false, 208, 1753, 72, 519},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fdf4ddd1e057039, 0x3fbb3f20fc2d2c7f, 0x3fe9ad963075bdc8, false, 61, 225, 31, 113},
    {0x3fec006b3c0fb209, 0x3fc07006aa24acd6, 0x3feeaaf4f2a2393a, false, 61, 517, 27, 211},
    {0x3ff0000000000000, 0x3fbc994137c231b2, 0x3ff0000000000000, false, 61, 849, 17, 220},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 15, 9, 15},
    {0x3fba260623478510, 0x3fba260623478510, 0x3fe3793dd340a5c1, false, 29, 37, 29, 37},
    {0x3fde60b9107618d8, 0x3fd7abc505436022, 0x3fec0a5f91796530, false, 47, 124, 29, 106},
    {0x3fc1a2c1d972810c, 0x3fc1a2c1d972810c, 0x3fd2eb58aff807f2, false, 20, 35, 20, 35},
    {0x3fe03b564ad079bd, 0x3fce503fa6ff47e9, 0x3feb746665a70926, false, 66, 142, 36, 85},
    {0x3feb3205de607023, 0x3fc523167225f0ca, 0x3fee558cbbe9968e, false, 84, 306, 43, 166},
    {0x3fd98e2c968781f4, 0x3fd84368287cda5f, 0x3fe397e4e28ebd3a, false, 50, 56, 35, 41},
    {0x3feb7108f13067ca, 0x3fdc4ac233d3c194, 0x3feee11fab3dfc84, false, 58, 117, 35, 72},
    {0x3ff0000000000000, 0x3fde8882dd57c88b, 0x3ff0000000000000, false, 58, 207, 35, 117},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe1a4f2d3d53d1c, 0x3fc61ba001621e33, 0x3feaed405e4c56dd, false, 45, 171, 20, 67},
    {0x3fed072571d1af44, 0x3fbc41c4833c8719, 0x3fef7b89af11bee0, false, 45, 391, 13, 88},
    {0x3ff0000000000000, 0x3fc032bb8557480d, 0x3ff0000000000000, false, 45, 631, 13, 137},
    {0x3f772a268d979c40, 0x3f772a268d979c40, 0x3f772a268d979c40, true, 31, 48, 31, 48},
    {0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, true, 105, 208, 105, 208},
    {0x3fcf62e74124f55d, 0x3fbad8af2053000f, 0x3fe87ec57cc05d02, false, 213, 634, 120, 408},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 20, 46, 20, 46},
    {0x3fa70401dfc2630c, 0x3fa70401dfc2630c, 0x3fa70401dfc2630c, true, 27, 101, 27, 101},
    {0x0000000000000000, 0x0000000000000000, 0x3fb26da429474f38, false, 12, 21, 11, 20},
    {0x3f93393a4334d1af, 0x3f93393a4334d1af, 0x3fb73bf2ba1483a4, false, 31, 81, 27, 73},
    {0x3fc28b6f7dd51469, 0x3fbc276a41c8ce6c, 0x3fd6dfc20cb7fb0b, false, 55, 277, 41, 209},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 85, 25, 45},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 175, 25, 95},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 249, 25, 132},
    {0x3fb29c6daac33220, 0x3fb29c6daac33220, 0x3fb8fc1c564be5b0, false, 146, 190, 146, 190},
    {0x3fd585de76b9d282, 0x3fbff87be85e1798, 0x3fe5ab1c84d2ffdc, false, 319, 651, 129, 210},
    {0x3fe86a327a5bc62b, 0x3fba91a5d33a9c07, 0x3fec7c517ee9bae1, false, 455, 1470, 99, 224},
    {0x3fccb0e9e88c2c2d, 0x3fc5c8361b66aa7d, 0x3fdd4f00941faabc, false, 130, 330, 115, 289},
    {0x3fe1aeebaa7111ca, 0x3fc207a44ec6d140, 0x3feb501e95665bdc, false, 166, 1370, 95, 476},
    {0x3feb12ee85abbf89, 0x3fba8eed2eb5f14a, 0x3feed98f00d5c086, false, 170, 3460, 82, 1203},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 3, 1, 3},
    {0x3f94b5b94951ae81, 0x3f94b5b94951ae81, 0x3f94b5b94951ae81, true, 14, 43, 14, 43},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe02fbd5038a27b, 0x3fbe5a5e9996c4a9, 0x3fea75855882799b, false, 74, 326, 34, 144},
    {0x3fec4aa9178b7767, 0x3fc09767cdc817dd, 0x3fef2141680e1325, false, 74, 748, 23, 211},
    {0x3feffffffffffffc, 0x3fb9cc2f705bc0b2, 0x3ff0000000000000, false, 74, 1296, 16, 235},
    {0x3fce08dff4def314, 0x3fc0ad84dec1423c, 0x3febd1f8ebe0ce60, false, 53, 59, 34, 37},
    {0x3fe6fe5e6aeab023, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 65, 167, 35, 103},
    {0x3ff0000000000000, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 69, 229, 35, 112},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 9, 8, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 24, 26, 24, 26},
    {0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, true, 43, 64, 43, 64},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 3, 3, 3},
    {0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, true, 13, 14, 13, 14},
    {0x3fdedb1996392d88, 0x3fda99eb947279c1, 0x3feacd743f1f2888, false, 23, 36, 19, 32},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 2, 1, 2},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 8, 3, 8},
    {0x3fcbbc42a42259e1, 0x3fb9f27e862a462f, 0x3fe311f521c59172, false, 93, 519, 60, 321},
    {0x3fe2b1ec1ad3abf9, 0x3fbb0c83a7c209e4, 0x3fed37f7913afbac, false, 93, 1445, 26, 340},
    {0x3fecd36b34b2dbbd, 0x3fbabcdd5dccb369, 0x3fef91bd6d056e03, false, 93, 2695, 22, 468},
};

constexpr Pinned kCompressed[] = {
    {0x3fdcf1b992ce48b8, 0x3fbb94f70b3f4f08, 0x3fea8e518f077cfb, false, 132, 636, 64, 279},
    {0x3feb63b42b2b966d, 0x3fbe81af6d60f2f2, 0x3fef8afdb14ae63b, false, 132, 1558, 27, 228},
    {0x3ff0000000000000, 0x3fc114e0f184e08d, 0x3ff0000000000000, false, 132, 2758, 27, 385},
    {0x3fc142f6348569a9, 0x3fbddb86e2b97469, 0x3fd0ddc960cf6b10, false, 153, 277, 104, 228},
    {0x3fd982ecfa933d87, 0x3fbf648d28cc23c6, 0x3fe5e5b9efbbb95b, false, 349, 1398, 143, 406},
    {0x3fe6d5be1af83f0d, 0x3fba31e0de0042f8, 0x3fedfe9a44ddb9b5, false, 477, 4536, 98, 702},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 6, 4, 6},
    {0x3fafd14140682025, 0x3fafd14140682025, 0x3fafd14140682025, true, 14, 29, 14, 29},
    {0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, true, 68, 140, 68, 140},
    {0x3fc28fa99407cfa4, 0x3fbf512029b617c2, 0x3fde73887486268a, false, 184, 1126, 152, 934},
    {0x3fe0ac92cb79755d, 0x3fc794934ceed8e8, 0x3feb2b1095c58fa1, false, 226, 4164, 78, 1599},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe84547fc61fa06, 0x3fc9f487261c660c, 0x3fed1abcb3550a1d, false, 115, 415, 69, 237},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 791, 39, 266},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 1339, 39, 449},
    {0x0000000000000000, 0x0000000000000000, 0x3fae1c66ea99ba90, false, 32, 47, 32, 47},
    {0x3f7905e61c703420, 0x3f7905e61c703420, 0x3fb09e91d713e08a, false, 74, 253, 67, 246},
    {0x3faf6d26067de509, 0x3faf3919687d4e21, 0x3fb4f61838359a48, false, 94, 890, 93, 889},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 6, 2, 6},
    {0x3fac8c431659e337, 0x3fac8c431659e337, 0x3fac8c431659e337, true, 18, 44, 18, 44},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 2, 2, 2},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 13, 9, 13},
    {0x3fd8aadb8256fa64, 0x3fc3ef79277b31f3, 0x3fee6a7bb271dd3a, false, 41, 69, 15, 27},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 62, 20, 34},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 128, 20, 73},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 180, 20, 99},
    {0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, true, 28, 50, 28, 50},
    {0x3fcf7844fee696d5, 0x3fc6eecb19cc4dd3, 0x3fe8c56bb5355d63, false, 52, 270, 26, 216},
    {0x3fe2cc03243d749f, 0x3fd4c0a8a46b0f89, 0x3fed6a0d40f7d1b2, false, 52, 840, 26, 551},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, true, 25, 66, 25, 66},
    {0x3f9b2271ff645b12, 0x3f9b2271ff645b12, 0x3f9b2271ff645b12, true, 125, 447, 125, 447},
    {0x3fd6a143766f9fcf, 0x3fd531cc2a96560e, 0x3fdc68dac4247bd2, false, 96, 176, 89, 169},
    {0x3fe760e5f9b3dc80, 0x3fbacc9d442a96fe, 0x3fec5c1655ffe689, false, 180, 725, 105, 320},
    {0x3fee37046327c359, 0x3fbc4061e2a6ef57, 0x3fef6da9e01bf1b0, false, 208, 1753, 72, 519},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fdf4ddd1e057039, 0x3fbb3f20fc2d2c7f, 0x3fe9ad963075bdc8, false, 61, 225, 31, 113},
    {0x3fec006b3c0fb209, 0x3fc07006aa24acd6, 0x3feeaaf4f2a2393a, false, 61, 517, 27, 211},
    {0x3ff0000000000000, 0x3fbc994137c231b2, 0x3ff0000000000000, false, 61, 849, 17, 220},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 15, 9, 15},
    {0x3fba260623478510, 0x3fba260623478510, 0x3fe3793dd340a5c1, false, 29, 37, 29, 37},
    {0x3fde60b9107618d8, 0x3fd7abc505436022, 0x3fec0a5f91796530, false, 47, 124, 29, 106},
    {0x3fc1a2c1d972810c, 0x3fc1a2c1d972810c, 0x3fd2eb58aff807f2, false, 20, 35, 20, 35},
    {0x3fe03b564ad079bd, 0x3fce503fa6ff47e9, 0x3feb746665a70926, false, 66, 142, 36, 85},
    {0x3feb3205de607023, 0x3fc523167225f0ca, 0x3fee558cbbe9968e, false, 84, 306, 43, 166},
    {0x3fd98e2c968781f4, 0x3fd84368287cda5f, 0x3fe397e4e28ebd3a, false, 50, 56, 35, 41},
    {0x3feb7108f13067ca, 0x3fdc4ac233d3c194, 0x3feee11fab3dfc84, false, 58, 117, 35, 72},
    {0x3ff0000000000000, 0x3fde8882dd57c88b, 0x3ff0000000000000, false, 58, 207, 35, 117},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe1a4f2d3d53d1c, 0x3fc61ba001621e33, 0x3feaed405e4c56dd, false, 45, 171, 20, 67},
    {0x3fed072571d1af44, 0x3fbc41c4833c8719, 0x3fef7b89af11bee0, false, 45, 391, 13, 88},
    {0x3ff0000000000000, 0x3fc032bb8557480d, 0x3ff0000000000000, false, 45, 631, 13, 137},
    {0x3f772a268d979c40, 0x3f772a268d979c40, 0x3f772a268d979c40, true, 31, 48, 31, 48},
    {0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, true, 105, 208, 105, 208},
    {0x3fcf62e74124f55d, 0x3fbad8af2053000f, 0x3fe87ec57cc05d02, false, 213, 634, 120, 408},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 20, 46, 20, 46},
    {0x3fa70401dfc2630c, 0x3fa70401dfc2630c, 0x3fa70401dfc2630c, true, 27, 101, 27, 101},
    {0x0000000000000000, 0x0000000000000000, 0x3fb26da429474f38, false, 12, 21, 11, 20},
    {0x3f93393a4334d1af, 0x3f93393a4334d1af, 0x3fb73bf2ba1483a4, false, 31, 81, 27, 73},
    {0x3fc28b6f7dd51469, 0x3fbc276a41c8ce6c, 0x3fd6dfc20cb7fb0b, false, 55, 277, 41, 209},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 85, 25, 45},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 175, 25, 95},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 249, 25, 132},
    {0x3fb29c6daac33220, 0x3fb29c6daac33220, 0x3fb8fc1c564be5b0, false, 146, 190, 146, 190},
    {0x3fd585de76b9d282, 0x3fbff87be85e1798, 0x3fe5ab1c84d2ffdc, false, 319, 651, 129, 210},
    {0x3fe86a327a5bc62b, 0x3fba91a5d33a9c07, 0x3fec7c517ee9bae1, false, 455, 1470, 99, 224},
    {0x3fccb0e9e88c2c2d, 0x3fc5c8361b66aa7d, 0x3fdd4f00941faabc, false, 130, 330, 115, 289},
    {0x3fe1aeebaa7111ca, 0x3fc207a44ec6d140, 0x3feb501e95665bdc, false, 166, 1370, 95, 476},
    {0x3feb12ee85abbf89, 0x3fba8eed2eb5f14a, 0x3feed98f00d5c086, false, 170, 3460, 82, 1203},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 3, 1, 3},
    {0x3f94b5b94951ae81, 0x3f94b5b94951ae81, 0x3f94b5b94951ae81, true, 14, 43, 14, 43},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 0, 1, 0},
    {0x3fe02fbd5038a27b, 0x3fbe5a5e9996c4a9, 0x3fea75855882799b, false, 74, 326, 34, 144},
    {0x3fec4aa9178b7767, 0x3fc09767cdc817dd, 0x3fef2141680e1325, false, 74, 748, 23, 211},
    {0x3feffffffffffffc, 0x3fb9cc2f705bc0b2, 0x3ff0000000000000, false, 74, 1296, 16, 235},
    {0x3fce08dff4def314, 0x3fc0ad84dec1423c, 0x3febd1f8ebe0ce60, false, 53, 59, 34, 37},
    {0x3fe6fe5e6aeab023, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 65, 167, 35, 103},
    {0x3ff0000000000000, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 69, 229, 35, 112},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 9, 8, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 24, 26, 24, 26},
    {0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, true, 43, 64, 43, 64},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 3, 3, 3},
    {0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, true, 13, 14, 13, 14},
    {0x3fdedb1996392d88, 0x3fda99eb947279c1, 0x3feacd743f1f2888, false, 23, 36, 19, 32},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 1, 2, 1, 2},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 8, 3, 8},
    {0x3fcbbc42a42259e1, 0x3fb9f27e862a462f, 0x3fe311f521c59172, false, 93, 519, 60, 321},
    {0x3fe2b1ec1ad3abf9, 0x3fbb0c83a7c209e4, 0x3fed37f7913afbac, false, 93, 1445, 26, 340},
    {0x3fecd36b34b2dbbd, 0x3fbabcdd5dccb369, 0x3fef91bd6d056e03, false, 93, 2695, 22, 468},
};
// clang-format on

TEST(WalkGoldenTest, TrieVerifierMatchesPinnedBits) {
  const std::vector<GoldenCase> cases = NamesScaleCases();
  ASSERT_EQ(cases.size(), std::size(kPlain));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(ObservePlain(cases[i]), kPlain[i])
        << "row " << i << " R=" << cases[i].r.ToString()
        << " S=" << cases[i].s.ToString() << " k=" << cases[i].k;
  }
}

TEST(WalkGoldenTest, CompressedVerifierMatchesPinnedBits) {
  const std::vector<GoldenCase> cases = NamesScaleCases();
  ASSERT_EQ(cases.size(), std::size(kCompressed));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(ObserveCompressed(cases[i]), kCompressed[i])
        << "row " << i << " R=" << cases[i].r.ToString()
        << " S=" << cases[i].s.ToString() << " k=" << cases[i].k;
  }
}

// Names-scale active sets span several depths and carry long insertion
// chains, which VerifierEquivalenceTest's short DNA strings rarely reach.
TEST(WalkGoldenTest, NamesScaleTrieEqualsNaiveEqualsBruteForce) {
  for (const GoldenCase& c : NamesScaleCases()) {
    const double truth = testing::BruteForceMatchProbability(c.r, c.s, c.k);
    Result<double> trie = TrieVerifyProbability(c.r, c.s, c.k);
    Result<double> compressed = CompressedTrieVerifyProbability(c.r, c.s, c.k);
    Result<double> naive = NaiveVerifyProbability(c.r, c.s, c.k);
    ASSERT_TRUE(trie.ok() && compressed.ok() && naive.ok());
    EXPECT_NEAR(*trie, truth, 1e-9)
        << "R=" << c.r.ToString() << " S=" << c.s.ToString() << " k=" << c.k;
    EXPECT_NEAR(*compressed, truth, 1e-9);
    EXPECT_NEAR(*naive, truth, 1e-9);
  }
}

}  // namespace
}  // namespace ujoin
