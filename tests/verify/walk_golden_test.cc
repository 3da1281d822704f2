// Pins the trie verifiers' walk bit for bit on names-scale pairs.
//
// Every probability, ThresholdVerdict bound and work counter below was
// captured from the heap-merged walker that preceded the linear active-set
// merge of verify/trie_walk.h.  Any walker must visit the same active sets
// in the same order, so the leaf sums, the early-stop points and the
// counters stay identical, not merely close.  The plain and the compressed
// verifier form their leaf products differently, so each has its own table
// (on these cases their values happen to agree).
//
// `exact` is true when DecideSimilar left no alternative unwalked, and then
// upper = lower.  That holds on the 40 rows per table whose verdict comes
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
    {0x3fdcf1b992ce48b8, 0x3fbb94f70b3f4f08, 0x3fea8e518f077cfb, false, 132, 898, 64, 409},
    {0x3feb63b42b2b966d, 0x3fbe81af6d60f2f2, 0x3fef8afdb14ae63b, false, 132, 2730, 27, 411},
    {0x3ff0000000000000, 0x3fc114e0f184e08d, 0x3ff0000000000000, false, 132, 5178, 27, 750},
    {0x3fc142f6348569a9, 0x3fbddb86e2b97469, 0x3fd0ddc960cf6b10, false, 155, 366, 105, 312},
    {0x3fd982ecfa933d87, 0x3fbf648d28cc23c6, 0x3fe5e5b9efbbb95b, false, 353, 2105, 146, 569},
    {0x3fe6d5be1af83f0d, 0x3fba31e0de0042f8, 0x3fedfe9a44ddb9b5, false, 477, 7749, 98, 1177},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 10, 4, 10},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 10, 36, 10, 36},
    {0x3fafd14140682025, 0x3fafd14140682025, 0x3fafd14140682025, true, 14, 107, 14, 107},
    {0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, true, 162, 624, 162, 624},
    {0x3fc28fa99407cfa4, 0x3fbf512029b617c2, 0x3fde73887486268a, false, 218, 3210, 152, 2548},
    {0x3fe0ac92cb79755d, 0x3fc794934ceed8e8, 0x3feb2b1095c58fa1, false, 226, 9753, 78, 3627},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 9, 3, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 20, 5, 20},
    {0x3fe84547fc61fa06, 0x3fc9f487261c660c, 0x3fed1abcb3550a1d, false, 115, 647, 69, 378},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 1577, 39, 529},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 2513, 39, 843},
    {0x0000000000000000, 0x0000000000000000, 0x3fae1c66ea99ba90, false, 38, 86, 38, 86},
    {0x3f7905e61c703420, 0x3f7905e61c703420, 0x3fb09e91d713e08a, false, 74, 397, 67, 389},
    {0x3faf6d26067de509, 0x3faf3919687d4e21, 0x3fb4f61838359a48, false, 94, 1461, 93, 1459},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 6, 10, 6, 10},
    {0x0000000000000000, 0x0000000000000000, 0x3fb7c3f733633d48, false, 23, 59, 23, 59},
    {0x3fac8c431659e337, 0x3fac8c431659e337, 0x3fb4dd173fdd664c, false, 62, 277, 62, 277},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 7, 5, 7},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 26, 42, 26, 42},
    {0x3fd8aadb8256fa64, 0x3fc3ef79277b31f3, 0x3fee6a7bb271dd3a, false, 56, 138, 15, 51},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 12, 5, 12},
    {0x0000000000000000, 0x0000000000000000, 0x3fb65ca2e80e2a38, false, 19, 44, 16, 41},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 128, 20, 73},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 244, 20, 137},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 356, 20, 199},
    {0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, true, 44, 174, 44, 174},
    {0x3fcf7844fee696d5, 0x3fc6eecb19cc4dd3, 0x3fe8c56bb5355d63, false, 52, 710, 26, 531},
    {0x3fe2cc03243d749f, 0x3fd4c0a8a46b0f89, 0x3fed6a0d40f7d1b2, false, 52, 1900, 26, 1207},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 46, 75, 46, 75},
    {0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, 0x3faf1c96969bfc6f, false, 131, 363, 127, 359},
    {0x3f9b2271ff645b12, 0x3f9b2271ff645b12, 0x3fb5c89ad46c9644, false, 246, 1356, 229, 1323},
    {0x3fd6a143766f9fcf, 0x3fd531cc2a96560e, 0x3fdc68dac4247bd2, false, 96, 245, 89, 237},
    {0x3fe760e5f9b3dc80, 0x3fbacc9d442a96fe, 0x3fec5c1655ffe689, false, 180, 1150, 105, 470},
    {0x3fee37046327c359, 0x3fbc4061e2a6ef57, 0x3fef6da9e01bf1b0, false, 208, 3253, 72, 947},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 11, 4, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 37, 5, 37},
    {0x3fdf4ddd1e057039, 0x3fbb3f20fc2d2c7f, 0x3fe9ad963075bdc8, false, 61, 365, 31, 184},
    {0x3fec006b3c0fb209, 0x3fc07006aa24acd6, 0x3feeaaf4f2a2393a, false, 61, 925, 27, 389},
    {0x3ff0000000000000, 0x3fbc994137c231b2, 0x3ff0000000000000, false, 61, 1477, 17, 388},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 22, 9, 22},
    {0x3fba260623478510, 0x3fba260623478510, 0x3fe3793dd340a5c1, false, 29, 63, 29, 63},
    {0x3fde60b9107618d8, 0x3fd7abc505436022, 0x3fec0a5f91796530, false, 47, 196, 29, 177},
    {0x3fc1a2c1d972810c, 0x3fc1a2c1d972810c, 0x3fd2eb58aff807f2, false, 46, 95, 34, 81},
    {0x3fe03b564ad079bd, 0x3fce503fa6ff47e9, 0x3feb746665a70926, false, 72, 321, 38, 183},
    {0x3feb3205de607023, 0x3fc523167225f0ca, 0x3fee558cbbe9968e, false, 88, 726, 45, 363},
    {0x3fd98e2c968781f4, 0x3fd84368287cda5f, 0x3fe397e4e28ebd3a, false, 50, 91, 35, 75},
    {0x3feb7108f13067ca, 0x3fdc4ac233d3c194, 0x3feee11fab3dfc84, false, 58, 231, 35, 138},
    {0x3ff0000000000000, 0x3fde8882dd57c88b, 0x3ff0000000000000, false, 58, 394, 35, 235},
    {0x0000000000000000, 0x0000000000000000, 0x3fa7e081d95b5750, false, 17, 34, 17, 34},
    {0x0000000000000000, 0x0000000000000000, 0x3fa7e081d95b5740, false, 66, 215, 62, 209},
    {0x0000000000000000, 0x0000000000000000, 0x3fb167b274462ac0, false, 150, 905, 134, 859},
    {0x3fe1a4f2d3d53d1c, 0x3fc61ba001621e33, 0x3feaed405e4c56dd, false, 45, 259, 20, 108},
    {0x3fed072571d1af44, 0x3fbc41c4833c8719, 0x3fef7b89af11bee0, false, 45, 669, 13, 157},
    {0x3ff0000000000000, 0x3fc032bb8557480d, 0x3ff0000000000000, false, 45, 1093, 13, 254},
    {0x3f772a268d979c40, 0x3f772a268d979c40, 0x3f772a268d979c40, true, 51, 115, 51, 115},
    {0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, true, 121, 443, 121, 443},
    {0x3fcf62e74124f55d, 0x3fbad8af2053000f, 0x3fe87ec57cc05d02, false, 213, 1261, 120, 826},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 12, 39, 12, 39},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 20, 83, 20, 83},
    {0x3fa70401dfc2630c, 0x3fa70401dfc2630c, 0x3fa70401dfc2630c, true, 27, 185, 27, 185},
    {0x0000000000000000, 0x0000000000000000, 0x3fb26da429474f38, false, 15, 50, 14, 47},
    {0x3f93393a4334d1af, 0x3f93393a4334d1af, 0x3fb73bf2ba1483a4, false, 35, 233, 29, 207},
    {0x3fc28b6f7dd51469, 0x3fbc276a41c8ce6c, 0x3fd6dfc20cb7fb0b, false, 61, 746, 46, 578},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 5, 2, 5},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 11, 3, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 19, 4, 19},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 175, 25, 95},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 337, 25, 181},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 493, 25, 264},
    {0x3fb29c6daac33220, 0x3fb29c6daac33220, 0x3fb8fc1c564be5b0, false, 146, 258, 146, 258},
    {0x3fd585de76b9d282, 0x3fbff87be85e1798, 0x3fe5ab1c84d2ffdc, false, 319, 1058, 129, 317},
    {0x3fe86a327a5bc62b, 0x3fba91a5d33a9c07, 0x3fec7c517ee9bae1, false, 455, 2714, 99, 345},
    {0x3fccb0e9e88c2c2d, 0x3fc5c8361b66aa7d, 0x3fdd4f00941faabc, false, 130, 426, 115, 381},
    {0x3fe1aeebaa7111ca, 0x3fc207a44ec6d140, 0x3feb501e95665bdc, false, 166, 2119, 95, 655},
    {0x3feb12ee85abbf89, 0x3fba8eed2eb5f14a, 0x3feed98f00d5c086, false, 170, 6298, 82, 2044},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 10, 12, 10, 12},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 34, 68, 34, 68},
    {0x3f94b5b94951ae81, 0x3f94b5b94951ae81, 0x3f94b5b94951ae81, true, 54, 206, 54, 206},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 7, 4, 7},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 29, 8, 29},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 13, 108, 13, 108},
    {0x3fe02fbd5038a27b, 0x3fbe5a5e9996c4a9, 0x3fea75855882799b, false, 74, 472, 34, 212},
    {0x3fec4aa9178b7767, 0x3fc09767cdc817dd, 0x3fef2141680e1325, false, 74, 1344, 23, 385},
    {0x3feffffffffffffc, 0x3fb9cc2f705bc0b2, 0x3ff0000000000000, false, 74, 2436, 16, 451},
    {0x3fce08dff4def314, 0x3fc0ad84dec1423c, 0x3febd1f8ebe0ce60, false, 53, 139, 34, 102},
    {0x3fe6fe5e6aeab023, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 67, 309, 35, 179},
    {0x3ff0000000000000, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 69, 483, 35, 248},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 11, 8, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 24, 51, 24, 51},
    {0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, true, 43, 128, 43, 128},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 5, 3, 5},
    {0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, true, 13, 21, 13, 21},
    {0x3fdedb1996392d88, 0x3fda99eb947279c1, 0x3feacd743f1f2888, false, 24, 68, 19, 62},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 9, 3, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 16, 4, 16},
    {0x3fcbbc42a42259e1, 0x3fb9f27e862a462f, 0x3fe311f521c59172, false, 93, 725, 60, 455},
    {0x3fe2b1ec1ad3abf9, 0x3fbb0c83a7c209e4, 0x3fed37f7913afbac, false, 93, 2445, 26, 575},
    {0x3fecd36b34b2dbbd, 0x3fbabcdd5dccb369, 0x3fef91bd6d056e03, false, 93, 4765, 22, 877},
};

constexpr Pinned kCompressed[] = {
    {0x3fdcf1b992ce48b8, 0x3fbb94f70b3f4f08, 0x3fea8e518f077cfb, false, 132, 898, 64, 409},
    {0x3feb63b42b2b966d, 0x3fbe81af6d60f2f2, 0x3fef8afdb14ae63b, false, 132, 2730, 27, 411},
    {0x3ff0000000000000, 0x3fc114e0f184e08d, 0x3ff0000000000000, false, 132, 5178, 27, 750},
    {0x3fc142f6348569a9, 0x3fbddb86e2b97469, 0x3fd0ddc960cf6b10, false, 155, 366, 105, 312},
    {0x3fd982ecfa933d87, 0x3fbf648d28cc23c6, 0x3fe5e5b9efbbb95b, false, 353, 2105, 146, 569},
    {0x3fe6d5be1af83f0d, 0x3fba31e0de0042f8, 0x3fedfe9a44ddb9b5, false, 477, 7749, 98, 1177},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 10, 4, 10},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 10, 36, 10, 36},
    {0x3fafd14140682025, 0x3fafd14140682025, 0x3fafd14140682025, true, 14, 107, 14, 107},
    {0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, 0x3f8ef64ee9057f1e, true, 162, 624, 162, 624},
    {0x3fc28fa99407cfa4, 0x3fbf512029b617c2, 0x3fde73887486268a, false, 218, 3210, 152, 2548},
    {0x3fe0ac92cb79755d, 0x3fc794934ceed8e8, 0x3feb2b1095c58fa1, false, 226, 9753, 78, 3627},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 9, 3, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 20, 5, 20},
    {0x3fe84547fc61fa06, 0x3fc9f487261c660c, 0x3fed1abcb3550a1d, false, 115, 647, 69, 378},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 1577, 39, 529},
    {0x3ff0000000000000, 0x3fb9b4bf0cab824e, 0x3ff0000000000000, false, 115, 2513, 39, 843},
    {0x0000000000000000, 0x0000000000000000, 0x3fae1c66ea99ba90, false, 38, 86, 38, 86},
    {0x3f7905e61c703420, 0x3f7905e61c703420, 0x3fb09e91d713e08a, false, 74, 397, 67, 389},
    {0x3faf6d26067de509, 0x3faf3919687d4e21, 0x3fb4f61838359a48, false, 94, 1461, 93, 1459},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 6, 10, 6, 10},
    {0x0000000000000000, 0x0000000000000000, 0x3fb7c3f733633d48, false, 23, 59, 23, 59},
    {0x3fac8c431659e337, 0x3fac8c431659e337, 0x3fb4dd173fdd664c, false, 62, 277, 62, 277},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 7, 5, 7},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 26, 42, 26, 42},
    {0x3fd8aadb8256fa64, 0x3fc3ef79277b31f3, 0x3fee6a7bb271dd3a, false, 56, 138, 15, 51},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 12, 5, 12},
    {0x0000000000000000, 0x0000000000000000, 0x3fb65ca2e80e2a38, false, 19, 44, 16, 41},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 128, 20, 73},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 244, 20, 137},
    {0x3ff0000000000000, 0x3fda0c7f445c3c52, 0x3ff0000000000000, false, 34, 356, 20, 199},
    {0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, 0x3fa73feeb2df6ce5, true, 44, 174, 44, 174},
    {0x3fcf7844fee696d5, 0x3fc6eecb19cc4dd3, 0x3fe8c56bb5355d63, false, 52, 710, 26, 531},
    {0x3fe2cc03243d749f, 0x3fd4c0a8a46b0f89, 0x3fed6a0d40f7d1b2, false, 52, 1900, 26, 1207},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 46, 75, 46, 75},
    {0x3f61c99ed74fd6eb, 0x3f61c99ed74fd6eb, 0x3faf1c96969bfc6f, false, 131, 363, 127, 359},
    {0x3f9b2271ff645b12, 0x3f9b2271ff645b12, 0x3fb5c89ad46c9644, false, 246, 1356, 229, 1323},
    {0x3fd6a143766f9fcf, 0x3fd531cc2a96560e, 0x3fdc68dac4247bd2, false, 96, 245, 89, 237},
    {0x3fe760e5f9b3dc80, 0x3fbacc9d442a96fe, 0x3fec5c1655ffe689, false, 180, 1150, 105, 470},
    {0x3fee37046327c359, 0x3fbc4061e2a6ef57, 0x3fef6da9e01bf1b0, false, 208, 3253, 72, 947},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 11, 4, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 5, 37, 5, 37},
    {0x3fdf4ddd1e057039, 0x3fbb3f20fc2d2c7f, 0x3fe9ad963075bdc8, false, 61, 365, 31, 184},
    {0x3fec006b3c0fb209, 0x3fc07006aa24acd6, 0x3feeaaf4f2a2393a, false, 61, 925, 27, 389},
    {0x3ff0000000000000, 0x3fbc994137c231b2, 0x3ff0000000000000, false, 61, 1477, 17, 388},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 9, 22, 9, 22},
    {0x3fba260623478510, 0x3fba260623478510, 0x3fe3793dd340a5c1, false, 29, 63, 29, 63},
    {0x3fde60b9107618d8, 0x3fd7abc505436022, 0x3fec0a5f91796530, false, 47, 196, 29, 177},
    {0x3fc1a2c1d972810c, 0x3fc1a2c1d972810c, 0x3fd2eb58aff807f2, false, 46, 95, 34, 81},
    {0x3fe03b564ad079bd, 0x3fce503fa6ff47e9, 0x3feb746665a70926, false, 72, 321, 38, 183},
    {0x3feb3205de607023, 0x3fc523167225f0ca, 0x3fee558cbbe9968e, false, 88, 726, 45, 363},
    {0x3fd98e2c968781f4, 0x3fd84368287cda5f, 0x3fe397e4e28ebd3a, false, 50, 91, 35, 75},
    {0x3feb7108f13067ca, 0x3fdc4ac233d3c194, 0x3feee11fab3dfc84, false, 58, 231, 35, 138},
    {0x3ff0000000000000, 0x3fde8882dd57c88b, 0x3ff0000000000000, false, 58, 394, 35, 235},
    {0x0000000000000000, 0x0000000000000000, 0x3fa7e081d95b5750, false, 17, 34, 17, 34},
    {0x0000000000000000, 0x0000000000000000, 0x3fa7e081d95b5740, false, 66, 215, 62, 209},
    {0x0000000000000000, 0x0000000000000000, 0x3fb167b274462ac0, false, 150, 905, 134, 859},
    {0x3fe1a4f2d3d53d1c, 0x3fc61ba001621e33, 0x3feaed405e4c56dd, false, 45, 259, 20, 108},
    {0x3fed072571d1af44, 0x3fbc41c4833c8719, 0x3fef7b89af11bee0, false, 45, 669, 13, 157},
    {0x3ff0000000000000, 0x3fc032bb8557480d, 0x3ff0000000000000, false, 45, 1093, 13, 254},
    {0x3f772a268d979c40, 0x3f772a268d979c40, 0x3f772a268d979c40, true, 51, 115, 51, 115},
    {0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, 0x3fadeb5a52862d5c, true, 121, 443, 121, 443},
    {0x3fcf62e74124f55d, 0x3fbad8af2053000f, 0x3fe87ec57cc05d02, false, 213, 1261, 120, 826},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 12, 39, 12, 39},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 20, 83, 20, 83},
    {0x3fa70401dfc2630c, 0x3fa70401dfc2630c, 0x3fa70401dfc2630c, true, 27, 185, 27, 185},
    {0x0000000000000000, 0x0000000000000000, 0x3fb26da429474f38, false, 15, 50, 14, 47},
    {0x3f93393a4334d1af, 0x3f93393a4334d1af, 0x3fb73bf2ba1483a4, false, 35, 233, 29, 207},
    {0x3fc28b6f7dd51469, 0x3fbc276a41c8ce6c, 0x3fd6dfc20cb7fb0b, false, 61, 746, 46, 578},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 5, 2, 5},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 11, 3, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 19, 4, 19},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 175, 25, 95},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 337, 25, 181},
    {0x3ff0000000000000, 0x3fd4ad16b7ae8076, 0x3ff0000000000000, false, 45, 493, 25, 264},
    {0x3fb29c6daac33220, 0x3fb29c6daac33220, 0x3fb8fc1c564be5b0, false, 146, 258, 146, 258},
    {0x3fd585de76b9d282, 0x3fbff87be85e1798, 0x3fe5ab1c84d2ffdc, false, 319, 1058, 129, 317},
    {0x3fe86a327a5bc62b, 0x3fba91a5d33a9c07, 0x3fec7c517ee9bae1, false, 455, 2714, 99, 345},
    {0x3fccb0e9e88c2c2d, 0x3fc5c8361b66aa7d, 0x3fdd4f00941faabc, false, 130, 426, 115, 381},
    {0x3fe1aeebaa7111ca, 0x3fc207a44ec6d140, 0x3feb501e95665bdc, false, 166, 2119, 95, 655},
    {0x3feb12ee85abbf89, 0x3fba8eed2eb5f14a, 0x3feed98f00d5c086, false, 170, 6298, 82, 2044},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 10, 12, 10, 12},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 34, 68, 34, 68},
    {0x3f94b5b94951ae81, 0x3f94b5b94951ae81, 0x3f94b5b94951ae81, true, 54, 206, 54, 206},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 7, 4, 7},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 29, 8, 29},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 13, 108, 13, 108},
    {0x3fe02fbd5038a27b, 0x3fbe5a5e9996c4a9, 0x3fea75855882799b, false, 74, 472, 34, 212},
    {0x3fec4aa9178b7767, 0x3fc09767cdc817dd, 0x3fef2141680e1325, false, 74, 1344, 23, 385},
    {0x3feffffffffffffc, 0x3fb9cc2f705bc0b2, 0x3ff0000000000000, false, 74, 2436, 16, 451},
    {0x3fce08dff4def314, 0x3fc0ad84dec1423c, 0x3febd1f8ebe0ce60, false, 53, 139, 34, 102},
    {0x3fe6fe5e6aeab023, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 67, 309, 35, 179},
    {0x3ff0000000000000, 0x3fc0b81c507cc67f, 0x3ff0000000000000, false, 69, 483, 35, 248},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 8, 11, 8, 11},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 24, 51, 24, 51},
    {0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, 0x3fa8d1801ccb249b, true, 43, 128, 43, 128},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 5, 3, 5},
    {0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, 0x3fb750d7b3d461f4, true, 13, 21, 13, 21},
    {0x3fdedb1996392d88, 0x3fda99eb947279c1, 0x3feacd743f1f2888, false, 24, 68, 19, 62},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 2, 4, 2, 4},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 3, 9, 3, 9},
    {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, true, 4, 16, 4, 16},
    {0x3fcbbc42a42259e1, 0x3fb9f27e862a462f, 0x3fe311f521c59172, false, 93, 725, 60, 455},
    {0x3fe2b1ec1ad3abf9, 0x3fbb0c83a7c209e4, 0x3fed37f7913afbac, false, 93, 2445, 26, 575},
    {0x3fecd36b34b2dbbd, 0x3fbabcdd5dccb369, 0x3fef91bd6d056e03, false, 93, 4765, 22, 877},
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
