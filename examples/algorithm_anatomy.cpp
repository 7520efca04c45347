// Anatomy of the O(log^2 k) algorithm on a tiny instance: prints the
// fractional state u(p, i) after every request alongside the rounded
// integral cache, so you can watch the multiplicative update spread
// eviction mass and the distribution-free rounding track it.
//
//   ./algorithm_anatomy [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/fractional.h"
#include "core/rounding_multilevel.h"
#include "sim/simulator.h"
#include "trace/generators.h"

int main(int argc, char** argv) {
  using namespace wmlp;
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  // 5 pages, cache of 2, weights 1..8: small enough to read every number.
  Instance inst(5, 2, 1, {{8.0}, {4.0}, {2.0}, {1.0}, {1.0}});
  Trace trace{inst, {{0, 1}, {1, 1}, {2, 1}, {0, 1}, {3, 1},
                     {4, 1}, {0, 1}, {2, 1}, {1, 1}, {0, 1}}};

  auto frac_owner = std::make_unique<FractionalMlp>();
  FractionalMlp* frac = frac_owner.get();
  RoundedMultiLevel policy(std::move(frac_owner), seed);

  CacheState cache(inst);
  CacheOps ops(inst, cache);
  policy.Attach(inst);

  std::cout << "pages p0..p4 with eviction weights {8, 4, 2, 1, 1}, "
               "cache k = 2\n"
            << "u(p) = fraction of p MISSING from the fractional cache; "
               "beta = " << policy.beta() << "\n\n";
  std::cout << " t req |   u(p0)  u(p1)  u(p2)  u(p3)  u(p4) | cache "
               "(integral)\n";
  std::cout << "-------+--------------------------------------+------------"
               "----\n";
  for (Time t = 0; t < trace.length(); ++t) {
    ops.set_time(t);
    policy.Serve(t, trace.requests[static_cast<size_t>(t)], ops);
    std::cout << std::setw(2) << t << "  p"
              << trace.requests[static_cast<size_t>(t)].page << "  |  ";
    for (PageId p = 0; p < 5; ++p) {
      std::cout << std::fixed << std::setprecision(3) << frac->U(p, 1)
                << "  ";
    }
    std::cout << "| {";
    bool first = true;
    for (PageId p = 0; p < 5; ++p) {
      if (cache.contains(p)) {
        std::cout << (first ? "" : ", ") << "p" << p;
        first = false;
      }
    }
    std::cout << "}\n";
  }
  std::cout << "\nfractional LP cost: " << frac->lp_cost()
            << ", integral eviction cost: " << ops.eviction_cost()
            << ", reset evictions: " << policy.reset_evictions() << "\n\n"
            << "Things to notice:\n"
            << " * serving a request drives its u to 0; eviction mass then\n"
            << "   leaks from OTHER pages at rate (u + 1/k) / w — cheap\n"
            << "   pages (p3, p4) absorb it fastest;\n"
            << " * the integral cache only holds pages with y = beta*u < 1:\n"
            << "   a fetched page draws a threshold uniform in [y, 1) and\n"
            << "   leaves when y rises past it — the rounding never needs\n"
            << "   the distribution over cache states that previous\n"
            << "   approaches maintained.\n";
  return 0;
}
