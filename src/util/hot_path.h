// Hot-path / cold-path source annotations backing the symbol-level
// allocation gate (scripts/check_hot_path_allocs.py; contract in
// docs/ARCHITECTURE.md §12).
//
// WMLP_HOT marks a batched serve/solver entry point whose entire direct
// call tree must be allocation-free: the function is placed in the
// `.text.wmlp_hot` section, the gate reads that section out of `nm`
// output, walks the call graph from every marked symbol via objdump, and
// fails the build if `operator new` / `malloc` (or friends) is reachable.
// That turns the runtime allocs/req bench budget into a static check — a
// stray std::string, vector growth, or WMLP_CHECK_MSG inside a marked
// function's tree is a red X, not a flaky bisect.
//
// WMLP_COLD marks the sanctioned escape hatch: a noinline, cold,
// `.text.wmlp_cold`-sectioned helper the gate treats as a sink (the walk
// stops there). Use it for one-time growth paths ("reserve on first use,
// never again") and [[noreturn]] failure reporters, so the cold branch's
// allocation is out-of-line and auditable instead of silently inlined
// into the hot loop.
//
// Template helpers cannot carry a section attribute portably; put them in
// namespace wmlp::coldpath instead — the gate also treats any symbol whose
// demangled name mentions `wmlp::coldpath` as a sink.
//
// Discipline for WMLP_HOT functions (lint rule `hot-check-msg` enforces
// the first at the source level, the gate all three on the objects):
//   * WMLP_CHECK only — never WMLP_CHECK_MSG (the message's ostringstream
//     allocates at the call site, before the noreturn helper is reached).
//   * No metric registration: write through handles resolved beforehand.
//   * Every container touched must be pre-sized via a WMLP_COLD /
//     coldpath:: helper; the steady-state body performs index writes only.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
// noinline keeps the mark real: an internal-linkage hot function inlined
// into its (allocating) caller would silently vanish from the root set.
#define WMLP_HOT __attribute__((noinline, section(".text.wmlp_hot")))
#define WMLP_COLD __attribute__((cold, noinline, section(".text.wmlp_cold")))
// Software prefetch for the batched serve fronts (engine StepBatch,
// DrainShard's remap, the kernel gather passes): hints only, never a
// fault, and a no-op where unsupported. Pass the address of the row the
// loop will touch kBatchPrefetchDistance iterations from now.
#define WMLP_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 3)
#define WMLP_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 3)
#else
#define WMLP_HOT
#define WMLP_COLD
#define WMLP_PREFETCH_READ(addr) ((void)0)
#define WMLP_PREFETCH_WRITE(addr) ((void)0)
#endif

#include <cstddef>
#include <vector>

namespace wmlp::coldpath {

// Grows `v`'s capacity geometrically to fit at least `need` elements.
// Out-of-line so a hot function's growth branch compiles to one call into
// a gate-recognized sink; the hot body then appends with plain index
// writes against the reserved storage.
template <typename T>
[[gnu::cold, gnu::noinline]] void GrowTo(std::vector<T>& v,
                                         std::size_t need) {
  std::size_t cap = v.empty() ? std::size_t{16} : v.size();
  while (cap < need) cap *= 2;
  v.resize(cap);
}

}  // namespace wmlp::coldpath
