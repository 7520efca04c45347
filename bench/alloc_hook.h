// Process-wide heap allocation counter for the perf benches.
//
// Linking bench/alloc_hook.cpp into a benchmark replaces the global
// operator new/delete family with malloc-backed versions that bump one
// relaxed atomic per allocation. The benches read the counter around
// their timed regions to report an allocs/request column, which
// scripts/perf.py gates: the serve loops claim to be allocation-free in
// steady state (docs/ARCHITECTURE.md §11), and that claim is only worth
// anything if a counter enforces it.
//
// Counting is compiled in only for optimized builds (NDEBUG): that is the
// only configuration whose numbers are comparable, and debug allocators
// would distort the count anyway. In debug builds AllocCount() returns 0
// and AllocCountingEnabled() is false; callers report the column as n/a.
#pragma once

#include <cstdint>

namespace wmlp::bench {

// Total operator-new calls (all forms) in this process so far. Monotone;
// sample before/after a region and subtract. Thread-safe (relaxed).
int64_t AllocCount();

// True when the counting hooks are compiled in (NDEBUG builds).
bool AllocCountingEnabled();

}  // namespace wmlp::bench
