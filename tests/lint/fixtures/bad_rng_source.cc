// ujoin-effects-fixture: as=src/datagen/seeded.cc
//
// Seeded violations: every ad-hoc entropy source the rng-source contract must
// catch.  Each one makes a run irreproducible across machines or reruns.
#include <cstdlib>
#include <ctime>
#include <random>

namespace ujoin {

int UnseededNoise() {
  return rand() % 100;  // flagged: rng-source, C rand()
}

void ReseedFromClock() {
  srand(static_cast<unsigned>(42));  // flagged: rng-source, srand()
}

long WallClockSeed() {
  return time(nullptr);  // flagged: rng-source, time()
}

unsigned HardwareSeed() {
  std::random_device rd;  // flagged: rng-source, std::random_device
  return rd();
}

}  // namespace ujoin
