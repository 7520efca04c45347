// Fixture: MUST produce zero findings, even when linted --as-dir
// src/core. Exercises the near-miss shapes the rules must NOT flag:
// suppressed wall-clock, integral ==, ordered-map iteration, rule tokens
// inside comments and strings.
#include <chrono>
#include <cstdint>
#include <map>

#define WMLP_HOT
#define WMLP_CHECK(cond)

// Commented rule bait must stay invisible: std::rand(), steady_clock,
// mass == 1.0, WMLP_CHECK_MSG.
int64_t SumOrdered(const std::map<int64_t, int64_t>& weights) {
  int64_t total = 0;
  for (const auto& [page, weight] : weights) {  // ordered: deterministic
    total += page + weight;
  }
  const char* label = "srand( in a string literal is fine";
  (void)label;
  return total;
}

WMLP_HOT int64_t HotButClean(int64_t n) {
  WMLP_CHECK(n >= 0);
  return n == 0 ? 1 : n;  // integral compare: not float-eq
}

int64_t SanctionedClockRead() {
  // Throughput accounting, sanctioned exception:
  const auto now = std::chrono::steady_clock::now();  // wmlp-lint-allow(wall-clock)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}
