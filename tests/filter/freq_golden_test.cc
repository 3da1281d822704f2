// Pins the frequency-distance filter (Section 5) bit for bit.
//
// Each row holds one seeded pair's Lemma 6 lower bound, the bits of
// ExpectedFreqDistance's E[pD] and E[nD], and the bits of Theorem 3's upper
// bound as EvaluateFreqFilter reports it at k = 0..3 (0 where Lemma 6
// prunes).  The values were captured from the summary layout that kept four
// heap vectors per alphabet symbol; the flat layout must reproduce them
// exactly, which holds only while each symbol's uncertain probabilities
// reach the event DP in position order, the S2-S4 scans and the E[f] dot
// product keep their order, and ExpectedFreqDistance adds symbols in index
// order.
//
// The 120 pairs come in three kinds of 40: names with at most four
// uncertain positions, proteins with at most five, and DNA with each
// position uncertain at θ = 0.6.  Within a kind, every fifth S is R itself,
// every fifth an unrelated string, every fifth R's text with one of R's
// symbols replaced everywhere (so that symbol is absent from S), and the
// rest R's text after up to three random edits with uncertainty of its own.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/freq_filter.h"
#include "testing/test_util.h"
#include "text/alphabet.h"
#include "util/rng.h"

namespace ujoin {
namespace {

constexpr int kPairsPerKind = 40;
constexpr int kMaxK = 3;

struct GoldenCase {
  Alphabet alphabet;
  UncertainString r;
  UncertainString s;
};

// `text` with the positions marked in `uncertain` made uncertain.  Each
// keeps its own symbol as one alternative and gains one or two others.
UncertainString Blur(const std::string& text,
                     const std::vector<bool>& uncertain,
                     const Alphabet& alphabet, Rng& rng) {
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

// How one kind of string gets its uncertainty: either up to `max_positions`
// drawn positions (a position drawn twice stays one), or each position
// independently with probability `theta`.
struct Blurring {
  int max_positions;
  double theta;
};

UncertainString WithUncertainty(const std::string& text,
                                const Alphabet& alphabet,
                                const Blurring& blurring, Rng& rng) {
  std::vector<bool> uncertain(text.size(), false);
  if (blurring.max_positions > 0) {
    const int64_t draws = rng.UniformInt(0, blurring.max_positions);
    for (int64_t i = 0; i < draws; ++i) {
      uncertain[rng.Uniform(text.size())] = true;
    }
  } else {
    for (size_t i = 0; i < text.size(); ++i) {
      uncertain[i] = rng.Bernoulli(blurring.theta);
    }
  }
  return Blur(text, uncertain, alphabet, rng);
}

void AppendKind(const Alphabet& alphabet, int min_length, int max_length,
                const Blurring& blurring, Rng& rng,
                std::vector<GoldenCase>* cases) {
  const auto random_text = [&]() {
    return testing::RandomString(
        alphabet, static_cast<int>(rng.UniformInt(min_length, max_length)),
        rng);
  };
  for (int i = 0; i < kPairsPerKind; ++i) {
    const std::string text = random_text();
    const UncertainString r = WithUncertainty(text, alphabet, blurring, rng);
    UncertainString s;
    switch (i % 5) {
      case 0:
        s = r;
        break;
      case 1:
        s = WithUncertainty(random_text(), alphabet, blurring, rng);
        break;
      case 2: {
        // Replace R's first symbol everywhere by another one.
        const char gone = text[0];
        char other = gone;
        while (other == gone) other = testing::RandomSymbol(alphabet, rng);
        std::string rest = text;
        for (char& c : rest) c = c == gone ? other : c;
        s = UncertainString::FromDeterministic(rest);
        break;
      }
      default:
        s = WithUncertainty(testing::RandomEdits(text, alphabet, 3, rng),
                            alphabet, blurring, rng);
        break;
    }
    cases->push_back(GoldenCase{alphabet, r, s});
  }
}

std::vector<GoldenCase> GoldenCases() {
  Rng rng(20140622);
  std::vector<GoldenCase> cases;
  AppendKind(Alphabet::Names(), 10, 35, Blurring{4, 0.0}, rng, &cases);
  AppendKind(Alphabet::Protein(), 20, 60, Blurring{5, 0.0}, rng, &cases);
  AppendKind(Alphabet::Dna(), 8, 30, Blurring{0, 0.6}, rng, &cases);
  return cases;
}

// The filter's observable output on one pair.
struct Pinned {
  int fd_lower_bound;
  uint64_t pos;
  uint64_t neg;
  uint64_t upper_bound[kMaxK + 1];  // EvaluateFreqFilter at k = 0..3

  friend bool operator==(const Pinned&, const Pinned&) = default;
};

// Prints a Pinned as a row of the table below, so a mismatch shows the
// observed row in the same syntax.
void PrintTo(const Pinned& p, std::ostream* os) {
  char row[160];
  std::snprintf(row, sizeof(row),
                "{%d, 0x%016llx, 0x%016llx, {0x%016llx, 0x%016llx, "
                "0x%016llx, 0x%016llx}}",
                p.fd_lower_bound, static_cast<unsigned long long>(p.pos),
                static_cast<unsigned long long>(p.neg),
                static_cast<unsigned long long>(p.upper_bound[0]),
                static_cast<unsigned long long>(p.upper_bound[1]),
                static_cast<unsigned long long>(p.upper_bound[2]),
                static_cast<unsigned long long>(p.upper_bound[3]));
  *os << row;
}

Pinned Observe(const GoldenCase& c) {
  const FrequencySummary r = FrequencySummary::Build(c.r, c.alphabet);
  const FrequencySummary s = FrequencySummary::Build(c.s, c.alphabet);
  const ExpectedFreqDistances e = ExpectedFreqDistance(r, s);
  Pinned p{FreqDistanceLowerBound(r, s), std::bit_cast<uint64_t>(e.pos),
           std::bit_cast<uint64_t>(e.neg), {}};
  for (int k = 0; k <= kMaxK; ++k) {
    p.upper_bound[k] =
        std::bit_cast<uint64_t>(EvaluateFreqFilter(r, s, k).upper_bound);
  }
  return p;
}

// Rows in case order.
// clang-format off
constexpr Pinned kRows[] = {
    {0, 0x3ff98589d9c46da6, 0x3ff98589d9c46da6, {0x3fedae0abda8531f, 0x3fefa7d2f511769c, 0x3ff0000000000000, 0x3ff0000000000000}},
    {15, 0x4031c0cfa0c306af, 0x4030c0cfa0c306b0, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ffa5fd14c470cde, 0x3ffa5fd14c470cde, {0x0000000000000000, 0x3fef4bfd34dc2efd, 0x3ff0000000000000, 0x3ff0000000000000}},
    {2, 0x4005850171f0641f, 0x400d850171f0641e, {0x0000000000000000, 0x0000000000000000, 0x3fec5ff3b285b8fd, 0x3fef55300789b5f8}},
    {1, 0x4008332c336f7da3, 0x4008332c336f7da3, {0x0000000000000000, 0x3fee0eb571696f55, 0x3fef7a90be51fa58, 0x3fefffeb5d4cbb0e}},
    {0, 0x3ff1a5b79722f19d, 0x3ff1a5b79722f19d, {0x3fec7874e1c5cfad, 0x3feff729077e3f2f, 0x3ff0000000000000, 0x3ff0000000000000}},
    {26, 0x4010000000000000, 0x403a000000000000, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {6, 0x401c7ca8c2cdaf6a, 0x401c7ca8c2cdaf6a, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x4015401f457a7574, 0x4011401f457a7574, {0x0000000000000000, 0x3fe96daaf1b8f7d5, 0x3febc425c1ca7bf9, 0x3fedc9522cb12b59}},
    {0, 0x3ff7c9dd909dae8c, 0x3ff7c9dd909dae8c, {0x3fedbc03478f7579, 0x3fefbda20a1c1ad4, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x3fd76cf28ee94ff2, 0x3fd76cf28ee94ff2, {0x3fef195921e3558b, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {15, 0x4030b085b3069eac, 0x4031b085b3069eab, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ffb9c1cc8b3e290, 0x3ffb9c1cc8b3e290, {0x0000000000000000, 0x3fef47ef27a0b87e, 0x3ff0000000000000, 0x3ff0000000000000}},
    {1, 0x4002938b47ceb11e, 0x3ff527168f9d623b, {0x0000000000000000, 0x3fee8a8baf798f4b, 0x3fefe8d8cf64e507, 0x3ff0000000000000}},
    {1, 0x3ffa70fd838c9496, 0x3ffa70fd838c9496, {0x0000000000000000, 0x3fef9e49eef44f1e, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x3ff5f4533fcfd18e, 0x3ff5f4533fcfd18e, {0x3fed129f91177da9, 0x3fefc3c5de9a69d8, 0x3ff0000000000000, 0x3ff0000000000000}},
    {16, 0x402b5747e2794a38, 0x4032aba3f13ca51c, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ff0000000000000, 0x3ff0000000000000, {0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {1, 0x3fd756762ccd4750, 0x3ff5d59d8b3351d4, {0x0000000000000000, 0x3feef06efdf6ab4f, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x40010579611fa9c2, 0x40010579611fa9c0, {0x3fed46cddbfaef14, 0x3fef2f63719fb9a1, 0x3feffd41ca5143d3, 0x3ff0000000000000}},
    {0, 0x0000000000000000, 0x0000000000000000, {0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {9, 0x40262eb8b64023db, 0x40222eb8b64023db, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ff0000000000000, 0x3ff0000000000000, {0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {2, 0x400d8dff77da1023, 0x4012c6ffbbed0811, {0x0000000000000000, 0x0000000000000000, 0x3fedb1b75eef381a, 0x3fef0bf04b57864f}},
    {1, 0x400a2652b6f1f72a, 0x401113295b78fb95, {0x0000000000000000, 0x3fecbb35a921c11a, 0x3fee565ba3ca69fa, 0x3fef75f5d4a4f912}},
    {0, 0x3ff9f5f9a9775575, 0x3ff9f5f9a9775575, {0x3fee790f6e808281, 0x3fefc401847f3256, 0x3ff0000000000000, 0x3ff0000000000000}},
    {14, 0x4021c6290a0d3df3, 0x402fc6290a0d3df4, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x4001fee32d2e2898, 0x4001fee32d2e2898, {0x0000000000000000, 0x3fed5ebf4aec3aef, 0x3fefe2dd4c4de58d, 0x3ff0000000000000}},
    {2, 0x400ff4ded277e36a, 0x400ff4ded277e368, {0x0000000000000000, 0x0000000000000000, 0x3fef010dc3964405, 0x3fefbf17afbce899}},
    {2, 0x400f69ec5adaefd6, 0x400f69ec5adaefd6, {0x0000000000000000, 0x0000000000000000, 0x3feee15cb76b3d59, 0x3fefbbdae20bce1d}},
    {0, 0x0000000000000000, 0x0000000000000000, {0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {5, 0x4021076659e5a49b, 0x40120eccb3cb4934, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x40044aa31c676477, 0x40044aa31c676477, {0x0000000000000000, 0x3fee2ef153d09806, 0x3fefc4556c714438, 0x3ff0000000000000}},
    {1, 0x40127e5478462fe0, 0x40127e5478462fe0, {0x0000000000000000, 0x3fe88fc7b2150530, 0x3feb9db01916ebd8, 0x3fee2a8ca8180eb8}},
    {0, 0x4006e0045572b92e, 0x4006e0045572b92e, {0x3feb6ccbeee90e2a, 0x3fede43571727a1a, 0x3fef8663d3592018, 0x3ff0000000000000}},
    {0, 0x3fda612da8da8cec, 0x3fda612da8da8cec, {0x3fef734f0c7b7266, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {14, 0x402fd9733082bd2e, 0x4023d9733082bd2d, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x4005cd5127b90297, 0x4005cd5127b90298, {0x0000000000000000, 0x3fee90d013256a4d, 0x3fefbca05860b0ab, 0x3ff0000000000000}},
    {2, 0x40021d30985f2e3d, 0x40021d30985f2e3e, {0x0000000000000000, 0x0000000000000000, 0x3fefeff9e575d0fb, 0x3ff0000000000000}},
    {2, 0x401304bf42c5890a, 0x400e097e858b1217, {0x0000000000000000, 0x0000000000000000, 0x3fedca4e25d7e7c2, 0x3fef10a77f0c7fae}},
    {0, 0x3ffc3d1fd18542bf, 0x3ffc3d1fd18542bf, {0x3fee793c8ce40a3b, 0x3fefb3a43b15502b, 0x3ff0000000000000, 0x3ff0000000000000}},
    {24, 0x402494e7adb9e5f6, 0x403e4a73d6dcf2fa, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {2, 0x400de5393a614fae, 0x400de5393a614faf, {0x0000000000000000, 0x0000000000000000, 0x3feed457396b1531, 0x3fefc8644f16b21e}},
    {0, 0x40033788feb17707, 0x40033788feb17709, {0x3feeb278e1b73904, 0x3fef8b3b098a489f, 0x3feff644b68d3499, 0x3ff0000000000000}},
    {1, 0x400789d3f4a5e8af, 0x400789d3f4a5e8b0, {0x0000000000000000, 0x3fef2b1e6b93f2ee, 0x3fefcce10a327428, 0x3ff0000000000000}},
    {0, 0x3fe4c2c24681d15c, 0x3fe4c2c24681d15c, {0x3fef02ea8eeda0b2, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {24, 0x403d235e8f639d54, 0x402046bd1ec73aa9, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ff6c38b76f91234, 0x3ff6c38b76f91234, {0x0000000000000000, 0x3fefe4b536f403ca, 0x3ff0000000000000, 0x3ff0000000000000}},
    {2, 0x4000000000000000, 0x0000000000000000, {0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {1, 0x40118ec89549c3f3, 0x40118ec89549c3f3, {0x0000000000000000, 0x3fec64f1ca78f41c, 0x3fee19b31c48851e, 0x3fef54d75f3080b3}},
    {0, 0x3ffafa7f0f478509, 0x3ffafa7f0f478509, {0x3feed3b7b16c31de, 0x3fefccb49aa08468, 0x3ff0000000000000, 0x3ff0000000000000}},
    {20, 0x403b9d72bca2644c, 0x40273ae57944c898, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {2, 0x4000000000000000, 0x4000000000000000, {0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x400c9f167ab187ff, 0x400c9f167ab18800, {0x3fed462e9efb4862, 0x3fee86496abced2c, 0x3fef6e4db4e3205f, 0x3fefec2924e7d8de}},
    {0, 0x40085909ade0f436, 0x40005909ade0f436, {0x3feae899d81cae76, 0x3fed7c25e53fda6e, 0x3fef4dc24fb65201, 0x3fefffaf0867fe63}},
    {0, 0x4002bbf43e36eaae, 0x4002bbf43e36eaae, {0x3fed952aceae9766, 0x3fef29fa7ac20400, 0x3feff1c4288f7a8c, 0x3ff0000000000000}},
    {24, 0x40246023bd35b965, 0x40393011de9adcb2, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {2, 0x40128d85b86b90b8, 0x40128d85b86b90b8, {0x0000000000000000, 0x0000000000000000, 0x3feef3f5a373edbb, 0x3fef9687030f9050}},
    {0, 0x3fffef85eb8c12c5, 0x3fffef85eb8c12c1, {0x3fee9c8adf7f799e, 0x3fefa4831c98097e, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x4002c6b96f368c4a, 0x400ac6b96f368c48, {0x3feacf3412edab38, 0x3fed37e4873a4a08, 0x3fef06ea2795467c, 0x3fefeefc11c752d6}},
    {0, 0x40028e6a9fb36528, 0x40028e6a9fb36528, {0x3fee3b9452507045, 0x3fef67e77c818fed, 0x3feff6ec181c2266, 0x3ff0000000000000}},
    {18, 0x4036afd115cf1626, 0x4016bf44573c5896, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x400af8b873b8b7ed, 0x400af8b873b8b7ed, {0x0000000000000000, 0x3fed15281ae67951, 0x3feef61565cc1872, 0x3fefebe37bc754b6}},
    {3, 0x400bb53fa1ba5c98, 0x4015da9fd0dd2e4b, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3feee82100204fc0}},
    {1, 0x400e8d46d6268458, 0x401346a36b13422d, {0x0000000000000000, 0x3feda65d03381d35, 0x3feeacda3d8590ae, 0x3fef6f4b877b8afd}},
    {0, 0x3fef10c566637db2, 0x3fef10c566637db2, {0x3fef6410353543cf, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {21, 0x4037504ea7c39e18, 0x4020a09d4f873c30, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x3ff54b8a5e4b3fc6, 0x3ff54b8a5e4b3fc6, {0x0000000000000000, 0x3fefdddeaa3a74e8, 0x3ff0000000000000, 0x3ff0000000000000}},
    {1, 0x4001586b4cd2e9fd, 0x4009586b4cd2e9fe, {0x0000000000000000, 0x3fee62f010aae447, 0x3fef83a4bc11c7b6, 0x3feffd623fe1c2dd}},
    {1, 0x400b2d21ef44b38c, 0x400b2d21ef44b38a, {0x0000000000000000, 0x3feee1178bf93b52, 0x3fef9c3c98c69e7c, 0x3feff7d9d8430b1f}},
    {0, 0x3fddc1be0233356f, 0x3fddc1be0233356f, {0x3fef9632b1bf49ed, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {30, 0x3fff5e9c4266e45d, 0x4041faf4e2133723, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {5, 0x401786b530a9c403, 0x401786b530a9c403, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x400db2cf73b09712, 0x4005b2cf73b09712, {0x0000000000000000, 0x3febddf0ddc5fb9b, 0x3fee36ca69a0f20b, 0x3fefad0d20d2c21e}},
    {1, 0x400a0f20bc0c3d3e, 0x400a0f20bc0c3d3f, {0x0000000000000000, 0x3fee95077447f2ec, 0x3fef8bd5a35b343d, 0x3feffb10bdcf53c6}},
    {0, 0x3fdffa1adbf6f122, 0x3fdffa1adbf6f122, {0x3fefb433e6427449, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {17, 0x4033333170bd8ffc, 0x4032333170bd8ffd, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {4, 0x4010000000000000, 0x4010000000000000, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {1, 0x400dcc6ede5e7653, 0x400dcc6ede5e7654, {0x0000000000000000, 0x3fed5f2678d716e2, 0x3feee46f7899e753, 0x3fefcc7492f4a9b8}},
    {1, 0x4013d072b4f07b54, 0x4017d072b4f07b54, {0x0000000000000000, 0x3fed3813d4a3dcba, 0x3fee2bbb0e86b304, 0x3feef3e2724578ac}},
    {0, 0x400050b74c676da6, 0x400050b74c676da6, {0x3fe9795047d6a0f1, 0x3fee00dd7626f43a, 0x3fefff375e817a98, 0x3ff0000000000000}},
    {0, 0x401801d3ae799d33, 0x400003a75cf33a65, {0x3fd555b168ec1131, 0x3fdaca56a1bdd0d6, 0x3fe0f08941c0b563, 0x3fe5546e54a848f0}},
    {1, 0x401f9944c0170dc4, 0x401f9944c0170dc5, {0x0000000000000000, 0x3fe7a959c9b0e91f, 0x3fe971b27dcad996, 0x3feb2bd97b9ef513}},
    {0, 0x4005e74c9f6cc5a2, 0x4005e74c9f6cc5a1, {0x3fea862cd824ce98, 0x3fed8ae560ceaa4d, 0x3fef86f594e156ac, 0x3ff0000000000000}},
    {0, 0x4006a279f0388b6e, 0x4006a279f0388b70, {0x3feb791acff4b0e9, 0x3fedf0128dbdbb58, 0x3fef8da3f8117a41, 0x3ff0000000000000}},
    {0, 0x3ffbdbd85419f87a, 0x3ffbdbd85419f87a, {0x3fec052a3d20dc81, 0x3fef327500c99119, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x40229a42a73f2b12, 0x4002690a9cfcac43, {0x3fc5c1d6523eef05, 0x3fca2d9bc1567a85, 0x3fcfedc879d3b578, 0x3fd3bf01a3075d7c}},
    {1, 0x4013adc73b98de9e, 0x4013adc73b98de9e, {0x0000000000000000, 0x3fe9d51915f2706c, 0x3fec41bcf6068a6a, 0x3fee44457f50a884}},
    {0, 0x4013859a2b632888, 0x40070b3456c6510f, {0x3fe4afb1831a1520, 0x3fe7c74b507f2b12, 0x3feae110d045b518, 0x3fed98cc7887d574}},
    {0, 0x40105869f3fae459, 0x4000b0d3e7f5c8b3, {0x3fd85866e1a700f6, 0x3fe0965fcf7c1eb6, 0x3fe6766256e1442e, 0x3fecb24f1d023f44}},
    {0, 0x40046d4fd26791a0, 0x40046d4fd26791a0, {0x3fe9b6fb21b8bf7f, 0x3fed586b0ffd4806, 0x3fefa3059807c9b5, 0x3ff0000000000000}},
    {0, 0x3fe40c674330b329, 0x4031a0633a19859a, {0x3f92ff072c7aa0a9, 0x3f954d0ece5b8089, 0x3f980c65e0d20ce7, 0x3f9b5bba8c0d7ba4}},
    {0, 0x400a3f0e57f69486, 0x400a3f0e57f69487, {0x3fe58060a99d5e31, 0x3fe9e3f184902332, 0x3fedc89dd7119daa, 0x3fefe2ce2b697058}},
    {0, 0x400efd8073b65d2c, 0x400efd8073b65d2d, {0x3feb68aa99862b16, 0x3fed4c8ce08aaff9, 0x3feecb0c254ea042, 0x3fefbac62636e8db}},
    {0, 0x4015ac46673c7c1c, 0x4015ac46673c7c1d, {0x3fea3875c256454e, 0x3febe8d38abee0f8, 0x3fed6b4d26ca007e, 0x3feea772990239ec}},
    {0, 0x4009c8e8a20e5c1a, 0x4009c8e8a20e5c1a, {0x3fead7d1793053fb, 0x3fed51f9b9ae716b, 0x3fef2377298bdcc4, 0x3feff877647f5353}},
    {0, 0x3f83991fca1fd211, 0x4034027323f943fa, {0x3f2f4a22aa6f66c0, 0x3f3155690e7fe1d1, 0x3f334fb9d59b3c76, 0x3f35a5e726eb9b27}},
    {4, 0x4022bc9c17f5caf5, 0x4022bc9c17f5caf5, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {0, 0x400c1ed732974bfe, 0x40120f6b994ba602, {0x3fea115bed92f945, 0x3fec1f0e749baee5, 0x3fede3b24b4e1d3f, 0x3fef3355a11fa3f1}},
    {0, 0x400b09214cc3f433, 0x400b09214cc3f435, {0x3fe52f8c47b19e52, 0x3fe9899ecb52e112, 0x3fed7de131eb4dfa, 0x3fefcb9def864b42}},
    {0, 0x3fef25af81500ce0, 0x3fef25af81500ce0, {0x3fec1b4a0fd5fe64, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}},
    {0, 0x3fb8e43344b34d54, 0x403318e43344b34e, {0x3f67be3267f1912b, 0x3f6a6e4159aafd65, 0x3f6d99f63133dab9, 0x3f70b0632c1feaa6}},
    {3, 0x401221563c9d0cb3, 0x401221563c9d0cb3, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3fee2793dd55bb12}},
    {0, 0x400403a95a599e2e, 0x400403a95a599e2e, {0x3fe9541ce1e2209c, 0x3fed39dfd1389602, 0x3fefaa1b44206eee, 0x3ff0000000000000}},
    {0, 0x4011a1ceaaa1592e, 0x4015a1ceaaa1592a, {0x3fe87a6d324e4168, 0x3fea9322df30d0df, 0x3fec850d1bda9422, 0x3fee2993aa0c4b6e}},
    {0, 0x40031d8a8ff4bfea, 0x40031d8a8ff4bfea, {0x3fec2d4ab0024004, 0x3fee98a798e05ac9, 0x3fefe2951898f271, 0x3ff0000000000000}},
    {0, 0x4002dd69935c5b41, 0x40156eb4c9ae2d9f, {0x3fe56b05f977f631, 0x3fe81dfc949e3116, 0x3feacc9604dd725e, 0x3fed348810183e56}},
    {0, 0x400c6da29428bd02, 0x400c6da29428bd02, {0x3fe7e0acfa3d80da, 0x3feb380c627716f8, 0x3fee0be9c49c9749, 0x3fefbcf01c786359}},
    {0, 0x40085584168df227, 0x40085584168df22d, {0x3feb5d6cef837059, 0x3fedbb2497e7bd63, 0x3fef606a72d5f31a, 0x3fefffbd1047f7b3}},
    {0, 0x400eab1af8598741, 0x4006ab1af8598743, {0x3fe16191b6a22eb5, 0x3fe5ecd7919f521c, 0x3fead624c418ef66, 0x3feec6b5265ff390}},
    {0, 0x400a14a94968b245, 0x400a14a94968b245, {0x3fec22dd70624468, 0x3fee04cdff1d58fc, 0x3fef5b4fb33e00ec, 0x3feff8d89860ff42}},
    {0, 0x3fff6be595ac1db8, 0x400fb5f2cad60ede, {0x3fe338f32e911e38, 0x3fe7547016d0d4d3, 0x3feb82df33c2d72f, 0x3feeca362233c1b4}},
    {1, 0x4007aafd5bcae80d, 0x4007aafd5bcae80d, {0x0000000000000000, 0x3feb8e9cbfdc147e, 0x3feecf6b30dbefdf, 0x3ff0000000000000}},
    {0, 0x400aeed6fbb1bde4, 0x400aeed6fbb1bde8, {0x3febb0d35cd95242, 0x3fedb70128278d8c, 0x3fef332e3bcbcdae, 0x3feff0e8d1512c9c}},
    {0, 0x4000850ffce7bd09, 0x4000850ffce7bd09, {0x3fe7bd78018c217c, 0x3fed4a1bf4251bcd, 0x3feffd2de7955358, 0x3ff0000000000000}},
    {0, 0x4002d7afc64f5460, 0x4002d7afc64f5460, {0x3fea9dcdc7570c77, 0x3fedfdca4a8f1563, 0x3fefda76cbc9bfd7, 0x3ff0000000000000}},
    {3, 0x3ff1c5cc701101b3, 0x402638b98e022038, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3fbaad1cd35dfe8a}},
    {4, 0x4021a260a2d9e5e5, 0x4021a260a2d9e5e4, {0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
    {0, 0x4007ccdf4dd3ae15, 0x4007ccdf4dd3ae13, {0x3fe75868faf8d7f8, 0x3feb8184104a0136, 0x3feec648a2cd9230, 0x3ff0000000000000}},
    {0, 0x3fff0af570cc454c, 0x400f857ab86622a4, {0x3fe55bb432e22afd, 0x3fe90cd6f68c89bb, 0x3fec8d012c5b14bf, 0x3fef1e0428aff455}},
};
// clang-format on

TEST(FreqGoldenTest, FilterMatchesPinnedBits) {
  const std::vector<GoldenCase> cases = GoldenCases();
  ASSERT_EQ(cases.size(), std::size(kRows));
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(Observe(cases[i]), kRows[i])
        << "row " << i << " R=" << cases[i].r.ToString()
        << " S=" << cases[i].s.ToString();
  }
}

}  // namespace
}  // namespace ujoin
