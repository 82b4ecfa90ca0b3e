// Fixture: no-raw-timing (scope: src/core) — raw clocks and timer
// includes are flagged; join timing flows through the obs seams.
#include <chrono>        // expect(no-raw-timing)
#include "util/timer.h"  // expect(no-raw-timing)

namespace fixture {

double Now() {
  auto t = std::chrono::steady_clock::now();  // expect(no-raw-timing)
  return static_cast<double>(t.time_since_epoch().count());
}

double AllowedNow() {
  // Startup-cost probe outside any join phase, justified suppression:
  auto t = std::chrono::steady_clock::now();  // ssjoin-lint: allow(no-raw-timing)
  return static_cast<double>(t.time_since_epoch().count());
}

}  // namespace fixture
