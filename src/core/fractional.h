// Deterministic fractional O(log k)-competitive algorithm (Section 4.2),
// output-sensitive implementation.
//
// State: prefix variables u(p, i) = 1 - sum_{j <= i} y(p, j), where y(p, j)
// is the cached fraction of copy (p, j); u(p, i) = 1 means no mass in the
// prefix 1..i.
//
// On a request (p_t, i_t):
//   step 1: set u(p_t, j) = 0 for j >= i_t (serve the request; no eviction
//           cost: all u of p_t only decrease);
//   step 2: while sum_q u(q, ell) < n - k, continuously raise u of every
//           other fractionally-present page q at its deepest non-empty
//           level i_q, at rate (u(q, i_q) + eta) / w(q, i_q) per unit of
//           shared clock, with eta = 1/k.
//
// The continuous process integrates in closed form between events:
// u(s) = (u0 + eta) e^{s/w} - eta. Instead of rescanning all n pages per
// eviction segment (see FractionalMlpReference), this implementation keeps
// the water-raising machinery persistent across requests:
//
//   - a global water clock S; each active page stores (u0, s0) — its value
//     at its last materialization — and its live value is the lazy
//     exponential (u0 + eta) e^{(S - s0)/w} - eta, computed on demand;
//   - a per-page deepest-non-empty-level cursor; levels >= cursor all share
//     the cursor's (dynamic) value, levels < cursor are frozen in u_;
//   - segment boundaries are a min-heap of absolute event times
//     s = s0 + w log((cap + eta)/(u0 + eta)) with lazy deletion, popped in
//     O(log n) instead of a full-array min-scan;
//   - pages are grouped by their cursor weight w; each group maintains
//     aggregate sums A = sum (u0 + eta) e^{-s0/w} (mass) and
//     B = sum c_q (u0 + eta) e^{-s0/w} (LP cost, c_q = suffix weight sum),
//     held against a periodically rebased group exponent origin so the
//     absent-mass total, the stopping-clock Newton solve, and both cost
//     meters evaluate in O(#distinct weights) per segment with no per-page
//     work;
//   - each segment is solved in its own time ds = s - S: Newton starts at
//     the root of the gain's second-order Taylor bound (no exponential)
//     when that already meets the need, else at the event horizon, and
//     the cost accrual reuses the increments of the last gain evaluation,
//     so the expm1 passes per segment are the gain evaluations alone.
//
// Per-request work is O((ell + E) (G + log n)) where E is the number of
// cap events fired (amortized: each request adds at most ell future
// events) and G the number of distinct w(p, cursor) weights in the active
// set — instead of O(n ell) per segment. Each segment pays one exp-free
// O(G) pass for the Taylor start and a few O(G) gain evaluations, one
// expm1 per group each (gain_evaluations() counts them). Hierarchies
// with shared level weights (the common case: level costs are device
// properties) have G <= ell. Fully per-page weight models degrade
// gracefully to the reference's per-segment cost. The randomized policy
// does not meet that regime: it attaches this solver to class-ceiling
// weights (G <= number of weight classes; ClassCeilingInstance in
// core/weight_classes.h), so the degradation applies to direct callers on
// per-page weights.
//
// The trajectory matches FractionalMlpReference to fp accuracy
// (cross-checked to 1e-9 by tests/fractional_fast_test.cpp over randomized
// instances).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lp/paging_lp.h"
#include "trace/instance.h"
#include "util/bitkey_index.h"
#include "util/dheap.h"

namespace wmlp {

// Interface shared by the fractional engines and the Lemma 4.5
// discretization; the §4.3 rounding consumes it.
//
// The rounding never walks the pages whose u moved. It talks to the
// fractional layer through two output-sensitive channels instead:
//
//   - threshold watches: a cached copy (p, i) leaves the integral cache
//     exactly when u(p, i) rises past a threshold drawn when the copy was
//     placed, so the rounding arms one watch per cached page and the
//     fractional layer reports the pages whose watch fired;
//   - class-suffix masses for the reset pass, bounded from aggregates.
class FractionalPolicy {
 public:
  virtual ~FractionalPolicy() = default;

  virtual void Attach(const Instance& instance) = 0;
  // Serves r. Clears the watch on r.page, if any (the caller re-arms it).
  virtual void Serve(Time t, const Request& r) = 0;

  // Current prefix variable u(p, i) in [0, 1].
  virtual double U(PageId p, Level i) const = 0;

  // Hint that `p` is about to be served: implementations may prefetch the
  // per-page rows the next Serve will touch. Never required for
  // correctness; the default is a no-op. Batched fronts (engine
  // StepBatch, the server drain) call this a few requests ahead.
  virtual void PrefetchPage(PageId /*p*/) const {}

  // Cumulative LP-objective eviction cost: sum over steps, p, i of
  // w(p, i) * (Delta u(p, i))_+ .
  virtual Cost lp_cost() const = 0;

  virtual std::string name() const = 0;

  // Arms a watch on (p, i) with threshold x: it fires at the end of the
  // first Serve that raises u(p, i) above x. A page carries at most one
  // watch; arming replaces it.
  virtual void ArmWatch(PageId p, Level i, double x) = 0;
  virtual void DisarmWatch(PageId p) = 0;
  // Pages whose watch fired during the last Serve, in ascending page
  // order. A watch is cleared when it fires.
  virtual std::span<const PageId> fired() const = 0;
  // The watch armed on p, if any (audits and tests).
  virtual bool watch(PageId p, Level* i, double* x) const = 0;

  // Class-suffix cached mass, for every weight class c < lo.size()
  // (WeightClasses::ClassOf of the copy weights):
  //   S(c) = sum_p (1 - u(p, j_p(c))),
  // where j_p(c) is p's deepest level whose class is >= c (u(p, 0) = 1).
  // Writes bounds lo[c] <= S(c) <= hi[c]; exact engines write lo == hi.
  // `instance` is the attached one. The default is exact: an
  // O(n * ell) scan of U.
  virtual void ClassSuffixMass(const Instance& instance, std::span<double> lo,
                               std::span<double> hi) const;
  // Pages with u(p, ell) < 1: only these carry cached mass. The default
  // scans U.
  virtual int64_t present_pages(const Instance& instance) const;
};

using FractionalPolicyPtr = std::unique_ptr<FractionalPolicy>;

struct FractionalOptions {
  // eta in the update rate; 0 selects the paper's 1/k.
  double eta = 0.0;
  // If true, record a FracSchedule snapshot after every step (tests).
  bool record_schedule = false;
};

class FractionalMlp final : public FractionalPolicy {
 public:
  explicit FractionalMlp(const FractionalOptions& options = {});

  void Attach(const Instance& instance) override;
  void Serve(Time t, const Request& r) override;
  double U(PageId p, Level i) const override;
  void PrefetchPage(PageId p) const override;
  Cost lp_cost() const override { return lp_cost_; }
  std::string name() const override { return "fractional-mlp"; }

  // Watches live in the solver's clock coordinates: a watch on (p, i)
  // with i at or below p's cursor is due at
  //   s = s0 + w log((x + eta) / (u0 + eta)),
  // pushed into a lazy-deletion heap next to the cap events; one above
  // the cursor is dormant (u(p, i) is frozen) until a cap event moves the
  // cursor up to it. Cap events and requests re-time the watch of the page
  // they touch, so the work is O(log n) per watch event, never a walk of
  // the active set. Only step 2 moves the clock, so a newly armed watch is
  // timed at the start of the next Serve that evicts: while the cache is
  // filling, arming costs no log and no heap push.
  void ArmWatch(PageId p, Level i, double x) override;
  void DisarmWatch(PageId p) override;
  std::span<const PageId> fired() const override { return fired_; }
  bool watch(PageId p, Level* i, double* x) const override;

  // O(G + C) from the weight-group aggregates plus per-class sums of the
  // frozen marginals, which change only when a page's cursor moves.
  void ClassSuffixMass(const Instance& instance, std::span<double> lo,
                       std::span<double> hi) const override;
  int64_t present_pages(const Instance& /*instance*/) const override {
    return active_count_;
  }

  // Recorded schedule (only if options.record_schedule).
  const FracSchedule& schedule() const { return schedule_; }
  double eta() const { return eta_; }

  // The Section 4.2 analysis quantity: cumulative y-movement cost
  // sum w(q, i_q) * |dy(q, i_q)| over step-2 evictions (the LP cost above
  // additionally charges the suffix levels; it is within 2x of this under
  // 2-separated weights).
  Cost movement_cost() const { return movement_cost_; }

  // Introspection for tests and the perf suite.
  int64_t events_processed() const { return events_processed_; }
  int64_t segments_solved() const { return segments_solved_; }
  int64_t newton_iterations() const { return newton_iterations_; }
  int64_t bisection_fallbacks() const { return bisection_fallbacks_; }
  // GainRateBatch passes, the solver's only expm1 work per segment.
  int64_t gain_evaluations() const { return gain_evaluations_; }
  int32_t num_weight_groups() const {
    return static_cast<int32_t>(groups_.size());
  }

 private:
  // Active pages sharing one cursor weight w. The group's numeric
  // aggregates — with term_q = (u0_q + eta) e^{(base_s - s0_q)/w}, the
  // mass sum A = sum term_q, the LP sum B = sum c_q term_q, and the shared
  // factor e1 = e^{(S - base_s)/w} — live in the parallel act_* SoA arrays
  // at index active_pos while the group is non-empty (see the act_*
  // comment below); the struct itself keeps only membership and the base
  // clock. The sums are rebuilt from members before exponents can overflow
  // and periodically to shed removal cancellation error.
  struct Group {
    double w = 0.0;
    double base_s = 0.0;
    int32_t cls = 0;  // WeightClasses::ClassOf(w)
    std::vector<PageId> members;
    int64_t removals = 0;   // since last rebuild
    int32_t active_pos = -1;  // index in active_groups_ / act_*, -1 if empty
  };

  struct Event {
    double s;
    PageId page;
    uint32_t gen;  // must match gen_[page] or the entry is stale
  };
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const {
      return a.s < b.s;
    }
  };

  enum class PageState : uint8_t { kAbsent, kActive, kDetached };
  // A page's watch this Attach epoch: kNever leaves its WatchRec
  // unwritten, kClear means its gen is valid but nothing is armed.
  enum class WatchState : uint8_t { kNever, kClear, kArmed };

  // Hot per-page solver state packed into one cache line (64 bytes). The
  // serve path touches u0/s0/cursor/state/gen for every page it visits;
  // keeping them in parallel arrays cost ~10 scattered cache misses per
  // page, one per array. Aligned to the line, so the array's placement in
  // the heap cannot split a record across two. No default member
  // initializers: the backing array is allocated uninitialized
  // (make_unique_for_overwrite) and records are materialized lazily by
  // Rec() on first touch per Attach epoch.
  struct alignas(64) PageRec {
    double u0;       // value at cursor at materialization
    double s0;       // materialization clock
    double csum;     // sum_{j >= cursor} w(p, j)
    double event_s;  // current cap-event time (heap rebuilds)
    double term;     // cached group term (u0 + eta) e^{(base_s - s0)/w};
                     // exactly what GroupInsert / RebuildGroup added, so
                     // GroupRemove subtracts it back out bit-exactly.
    uint32_t gen;    // event staleness generation
    int32_t group_of;
    int32_t pos_in_group;
    Level cursor;
    PageState state;
    WatchState watch;
    bool untimed;  // listed in untimed_
  };
  static_assert(sizeof(PageRec) == 64, "PageRec must fill one cache line");

  // A page's threshold watch, read only once PageRec::watch left kNever —
  // so a run without watches never touches this array, which is allocated
  // uninitialized. gen invalidates the page's earlier watch-heap entries
  // (the heap reuses Event); it starts at 0 on a page's first arm in an
  // epoch, when the heap holds no entry for the page.
  struct WatchRec {
    double x;
    uint32_t gen;
    Level level;
  };

  size_t Idx(PageId p, Level i) const {
    return static_cast<size_t>(p) * static_cast<size_t>(ell_) +
           static_cast<size_t>(i - 1);
  }
  // A page's record (and its u_ row) is live only for the current Attach
  // epoch; everything older reads as the default absent state with
  // u = 1.0 everywhere. This makes Attach O(1) in the number of pages —
  // it bumps the epoch instead of zeroing ~70 bytes per page — which is
  // what keeps re-attach (and the first requests after it) off the memory
  // bus. Rec() materializes the default on first touch.
  bool Fresh(PageId p) const {
    return epoch_of_[static_cast<size_t>(p)] == epoch_;
  }
  PageRec& Rec(PageId p) {
    const size_t sp = static_cast<size_t>(p);
    PageRec& rec = rec_[sp];
    if (epoch_of_[sp] != epoch_) {
      epoch_of_[sp] = epoch_;
      rec.u0 = 0.0;
      rec.s0 = 0.0;
      rec.csum = 0.0;
      rec.event_s = 0.0;
      rec.term = 0.0;
      rec.gen = 0;
      rec.group_of = -1;
      rec.pos_in_group = -1;
      rec.cursor = 0;
      rec.state = PageState::kAbsent;
      rec.watch = WatchState::kNever;
      rec.untimed = false;
      double* u = u_.get() + sp * static_cast<size_t>(ell_);
      std::fill(u, u + ell_, 1.0);
    }
    return rec;
  }
  double CapOf(const PageRec& rec, PageId p) const {
    return rec.cursor == 1 ? 1.0 : u_[Idx(p, rec.cursor - 1)];
  }
  // Live value of u(p, cursor..ell) for an active page, clamped to its cap.
  double DynamicU(PageId p) const;
  double SuffixWeight(PageId p, Level from) const;

  int32_t GroupIndexFor(double w);
  void GroupInsert(PageId p);
  void GroupRemove(PageId p);
  void RebuildGroup(Group& g);
  void RebaseGroupsTo(double s_horizon);

  // Recomputes every active group's e1 = e^{(clock_ - base_s)/w} exactly
  // (one ExpBatch over the active set). Steady-state accrual advances e1
  // incrementally (e1 += e1 * expm1(ds/w), from the gain evaluation's
  // increments), which drifts by ~1 ulp per accrual; this periodic
  // refresh bounds the accumulated drift far below the kEps decision
  // tolerance.
  void RefreshE1();

  void PushEvent(PageId p);
  // Drops stale heap entries; returns false if no live event remains.
  bool PeekEvent(Event* out);
  void CompactHeapIfNeeded();
  // Shifts every s-coordinate down by clock_ and resets clock_ to 0. The
  // clock is monotone, and once it grows large its ulp exceeds the 1e-12
  // resolution the light-weight pages need (after a heavy-weight event the
  // clock can sit at ~w_max * log(1/eta)). Quantities near the clock shift
  // exactly (Sterbenz); far ones belong to proportionally heavy weights,
  // which absorb the O(ulp(clock)) shift error as O(ulp(clock)/w) in the
  // exponent.
  void RenormalizeClock();

  // Total absent mass sum_p u(p, ell) at the current clock, evaluated
  // from the persistent SoA aggregates.
  double TotalAbsentMass() const;
  // The segment gain g(ds) = sum over groups of mass * e1 * expm1(ds/w)
  // for a raise of ds past clock_ (one GainRateBatch pass), with g'(ds)
  // in *rate if non-null. Leaves each group's increment e1 * expm1(ds/w)
  // in act_d_, keyed by ds's bit pattern in d_key_.
  double SegmentGain(double ds, double* rate);
  // The root of g's second-order Taylor bound, at or right of g's root:
  // a Newton start that needs no exponential (see the definition).
  double TaylorStart(double need) const;
  // Raises the water by ds: advances lp_cost_/movement_cost_ and the e1
  // factors from the increments of the last SegmentGain (evaluating them
  // again only if that was not at ds), then sets clock_ = to — clock_ + ds,
  // or an event's exact time.
  void AdvanceClock(double ds, double to);

  // Moves p's cursor up after its cap event (or absorbs it at u = 1).
  void ProcessEvent(PageId p);
  // Detaches the requested page from the active machinery, writing its
  // live values into u_.
  void DetachAndMaterialize(PageId p);
  // (Re)computes p's cursor from u_ and re-enters it into the active set.
  void Activate(PageId p);

  // Adds (sign = +1) or removes (-1) an active page's fixed marginals in
  // the per-class sums: its frozen levels above the cursor, and the
  // cursor's cap (in its group's class). Needs p's group membership.
  void AddClassMass(PageId p, double sign);

  // Re-times p's watch after its cursor or values changed: at a cap event
  // fires it if u(p, i) now exceeds x, pushes its due time if i is at or
  // below the cursor, leaves it dormant otherwise.
  void RetimeWatch(PageId p, bool at_event);
  void FireWatch(PageId p);
  void ClearWatch(PageId p);
  // Times the watches armed since the clock last moved (see ArmWatch).
  void TimeArmedWatches();
  // Fires every watch due strictly before the clock.
  void DrainWatches();
  bool WatchEntryLive(const Event& e) const;
  void CompactWatchHeapIfNeeded();

  FractionalOptions options_;
  const Instance* instance_ = nullptr;
  int32_t n_ = 0;
  int32_t ell_ = 0;
  double eta_ = 0.0;
  double clock_ = 0.0;  // global water clock S
  Cost lp_cost_ = 0.0;
  Cost movement_cost_ = 0.0;
  FracSchedule schedule_;

  // Frozen prefix variables, flattened [p * ell + (i-1)]; rows are valid
  // only for pages whose epoch is current (see Rec), so the backing array
  // is allocated uninitialized and never bulk-filled.
  std::unique_ptr<double[]> u_;
  std::unique_ptr<PageRec[]> rec_;
  size_t page_cap_ = 0;  // allocated extent of rec_ / epoch_of_
  size_t u_cap_ = 0;     // allocated extent of u_
  std::vector<uint32_t> epoch_of_;
  uint32_t epoch_ = 0;

  std::vector<Group> groups_;
  std::vector<int32_t> active_groups_;  // indices of non-empty groups
  // Group lookup keyed on the weight's bit pattern
  // (std::bit_cast<uint64_t>(w)): exact, allocation-free, and immune to
  // float-hashing hazards (-0.0, denormals, truncating hashers).
  BitKeyIndex group_index_;
  // Cap events, min-s first, with lazy deletion via gen_; the arena is
  // reused across compactions and clock renormalizations.
  DHeap<Event, EventBefore> heap_;
  int64_t absent_count_ = 0;
  int64_t active_count_ = 0;

  // Persistent SoA aggregates of the active groups, parallel to
  // active_groups_ (slot j belongs to groups_[active_groups_[j]]): cursor
  // weight, mass sum A, LP sum B, the shared factor
  // e1 = e^{(clock_ - base_s)/w}, the member count (as double — it
  // feeds the absent-mass kernel directly) and 1 / w (TaylorStart's pass
  // then needs no division). This is the source of truth for a non-empty
  // group's aggregates; it is maintained incrementally by
  // GroupInsert / GroupRemove / RebuildGroup / AdvanceClock, so the
  // absent-mass total, the segment Newton solve, and the cost meters run
  // the src/kernels batch kernels over contiguous memory with no
  // per-segment re-gather and no libm exp on the serve path (e1 advances
  // by the gain evaluation's expm1 increments and is refreshed exactly by
  // RefreshE1).
  std::vector<double> act_w_;
  std::vector<double> act_mass_;
  std::vector<double> act_lp_;
  std::vector<double> act_e1_;
  std::vector<double> act_cnt_;
  std::vector<double> act_iw_;
  // The last SegmentGain's per-group increments e1 * expm1(ds/w), valid
  // while d_key_ holds that ds's bit pattern. Any change to the group
  // arrays sets d_key_ to kNoIncrements (a NaN pattern no ds carries).
  std::vector<double> act_d_;
  static constexpr uint64_t kNoIncrements = ~uint64_t{0};
  uint64_t d_key_ = kNoIncrements;
  // RebuildGroup / RefreshE1 scratch (exponent args and results).
  std::vector<double> rebuild_x_;
  std::vector<double> rebuild_e_;
  int64_t accrue_count_ = 0;

  // The request being served; it is detached for the whole of step 2.
  PageId req_page_ = -1;

  // Threshold watches: per-page records, the pages armed but not yet
  // timed, their due times, the armed count (heap compaction), and the
  // last Serve's fired pages.
  std::unique_ptr<WatchRec[]> watch_;
  std::vector<PageId> untimed_;
  DHeap<Event, EventBefore> watch_heap_;
  int64_t armed_watches_ = 0;
  std::vector<PageId> fired_;

  // Per weight class, the active pages' fixed marginals: frozen
  // u(p, i-1) - u(p, i) above the cursor, plus the cap u(p, cursor-1) of
  // the cursor copy, whose live value ClassSuffixMass subtracts from the
  // group aggregates.
  int32_t num_classes_ = 0;
  std::vector<double> fixed_mass_;
  mutable std::vector<double> class_scratch_;

  int64_t events_processed_ = 0;
  int64_t segments_solved_ = 0;
  int64_t newton_iterations_ = 0;
  int64_t bisection_fallbacks_ = 0;
  int64_t gain_evaluations_ = 0;
};

}  // namespace wmlp
