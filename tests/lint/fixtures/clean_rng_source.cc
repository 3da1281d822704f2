// ujoin-effects-fixture: as=src/datagen/seeded.cc contract=rng-source
//
// Clean counterpart of bad_rng_source.cc: the seeded repo Rng, plus
// lookalike tokens that must NOT fire (identifiers containing "rand" or
// "time", method calls named time(), and banned names inside comments or
// string literals).
#include <cstdint>
#include <string>

#include "util/rng.h"

namespace ujoin {

struct Span {
  long time() const { return 0; }  // member named time: not ::time()
};

int SeededNoise(uint64_t seed) {
  Rng rng(seed);
  return static_cast<int>(rng.Uniform(100));
}

long ElapsedTime(const Span& span) {
  // rand() and time(NULL) in a comment must not fire.
  const std::string msg = "do not call rand() or time(NULL)";
  long lifetime(0);  // declarator named lifetime(...): not time()
  lifetime += span.time();
  return lifetime + static_cast<long>(msg.size());
}

}  // namespace ujoin
