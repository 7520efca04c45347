#include "core/fractional.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

#include "core/core_audit.h"
#include "core/stopping_clock.h"
#include "core/weight_classes.h"
#include "kernels/kernels.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace wmlp {

namespace {
// Tolerance for cap comparisons and near-equal level snapping; matches the
// reference solver so both trajectories make the same discrete decisions.
constexpr double kEps = 1e-12;
// Rebuild a group's aggregates once (s_horizon - base_s)/w exceeds this:
// it bounds both the exponent magnitude at evaluation time and — more
// importantly — the e^{(S - base_s)/w} amplification of rounding residuals
// accumulated in the sums since the last rebuild (see RebaseGroupsTo).
constexpr double kMaxGroupExp = 8.0;
// Renormalize the clock once it exceeds this (see RenormalizeClock): the
// ulp at 256 is ~5.7e-14, keeping clock quantization well below the kEps
// decision tolerance for the lightest admissible weight (w >= 1, which the
// Instance validates).
constexpr double kClockRenormThreshold = 256.0;

}  // namespace

void FractionalMlp::KeyLists::Reset(double eta) {
  // Sixteen lists per octave of [1, e^kMaxGroupExp (1 + eta) / eta], one
  // for the keys past it, rounded up to whole words of bits.
  const int32_t octaves = static_cast<int32_t>(
      std::ceil((kMaxGroupExp + std::log1p(eta) - std::log(eta)) /
                std::numbers::ln2));
  buckets_ = (16 * octaves + 64) / 64 * 64;
  head_.clear();
  used_.clear();
}

int32_t FractionalMlp::KeyLists::Bucket(double key) const {
  // The biased exponent and the top four mantissa bits, counted from 1.0.
  const int64_t b = static_cast<int64_t>(std::bit_cast<uint64_t>(key) >> 48) -
                    (int64_t{1023} << 4);
  return static_cast<int32_t>(std::clamp<int64_t>(b, 0, buckets_ - 1));
}

int32_t FractionalMlp::KeyLists::FirstUsed(int32_t from, int32_t end) const {
  if (from >= end) return end;
  size_t at = static_cast<size_t>(from) / 64;
  uint64_t bits = used_[at] & (~uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++at * 64 >= static_cast<size_t>(end)) return end;
    bits = used_[at];
  }
  return std::min(end,
                  static_cast<int32_t>(at * 64) + std::countr_zero(bits));
}

template <typename Node>
void FractionalMlp::KeyLists::Append(Node* nodes, int32_t list, PageId p) {
  PageId& first = head(list);
  if (first < 0) {
    nodes[static_cast<size_t>(p)].next = first = p;
    nodes[static_cast<size_t>(p)].prev = p;
    word(list) |= bit(list);
    return;
  }
  LinkBefore(nodes, first, p);
}

template <typename Node>
void FractionalMlp::KeyLists::Insert(Node* nodes, int32_t list, PageId p) {
  const auto at = [nodes](PageId q) -> Node& {
    return nodes[static_cast<size_t>(q)];
  };
  PageId& first = head(list);
  const double key = at(p).key;
  // The last node is the head's prev.
  if (first < 0 || key >= at(at(first).prev).key) {
    Append(nodes, list, p);
    return;
  }
  // p goes before the first node keyed above it.
  PageId next = first;
  if (key < at(first).key) {
    first = p;
  } else {
    do next = at(next).next;
    while (at(next).key <= key);
  }
  LinkBefore(nodes, next, p);
}

template <typename Node>
void FractionalMlp::KeyLists::LinkBefore(Node* nodes, PageId next, PageId p) {
  const auto at = [nodes](PageId q) -> Node& {
    return nodes[static_cast<size_t>(q)];
  };
  at(p).next = next;
  at(p).prev = at(next).prev;
  at(at(p).prev).next = p;
  at(next).prev = p;
}

template <typename Node>
void FractionalMlp::KeyLists::Unlink(Node* nodes, int32_t list, PageId p) {
  const auto at = [nodes](PageId q) -> Node& {
    return nodes[static_cast<size_t>(q)];
  };
  PageId& first = head(list);
  if (at(p).next == p) {
    first = -1;
    word(list) &= ~bit(list);
    return;
  }
  at(at(p).prev).next = at(p).next;
  at(at(p).next).prev = at(p).prev;
  if (first == p) first = at(p).next;
}

void FractionalPolicy::ClassSuffixMass(const Instance& instance,
                                       std::span<double> lo,
                                       std::span<double> hi) const {
  ScanClassSuffixMass(
      instance, [this](PageId p, Level i) { return U(p, i); }, lo);
  std::copy(lo.begin(), lo.end(), hi.begin());
}

int64_t FractionalPolicy::present_pages(const Instance& instance) const {
  int64_t present = 0;
  for (PageId p = 0; p < instance.num_pages(); ++p) {
    present += U(p, instance.num_levels()) < 1.0 ? 1 : 0;
  }
  return present;
}

FractionalMlp::FractionalMlp(const FractionalOptions& options)
    : options_(options) {
  WMLP_CHECK(options.eta >= 0.0);
}

FractionalMlp::~FractionalMlp() { PublishCounts(); }

void FractionalMlp::PublishCounts() {
  telemetry::AddCount("wmlp_fractional_serve_total", std::exchange(serves_, 0));
  telemetry::AddCount("wmlp_fractional_events_total",
                      std::exchange(events_processed_, 0));
  telemetry::AddCount("wmlp_fractional_segments_total",
                      std::exchange(segments_solved_, 0));
  telemetry::AddCount("wmlp_fractional_newton_iterations_total",
                      std::exchange(newton_iterations_, 0));
  telemetry::AddCount("wmlp_fractional_bisection_fallback_total",
                      std::exchange(bisection_fallbacks_, 0));
  telemetry::AddCount("wmlp_fractional_empty_group_rebase_total",
                      std::exchange(empty_group_rebases_, 0));
  telemetry::AddCount("wmlp_fractional_group_rebuild_total",
                      std::exchange(group_rebuilds_, 0));
}

void FractionalMlp::Attach(const Instance& instance) {
  PublishCounts();
  instance_ = &instance;
  n_ = instance.num_pages();
  ell_ = instance.num_levels();
  eta_ = options_.eta > 0.0
             ? options_.eta
             : 1.0 / static_cast<double>(instance.cache_size());
  clock_ = 0.0;
  lp_cost_ = 0.0;
  movement_cost_ = 0.0;

  // Per-page state is epoch-stamped and materialized lazily (see Rec), so
  // attaching costs O(1) in the number of pages once the backing arrays
  // have grown to size: no 70-bytes-per-page zeroing pass, which would
  // dominate short runs over large universes. The arrays are allocated
  // uninitialized — a stale record is never read, only its epoch stamp.
  const size_t n = static_cast<size_t>(n_);
  const size_t un = n * static_cast<size_t>(ell_);
  if (un > u_cap_) {
    u_ = std::make_unique_for_overwrite<double[]>(un);
    u_cap_ = un;
  }
  if (n > page_cap_) {
    rec_ = std::make_unique_for_overwrite<PageRec[]>(n);
    watch_ = std::make_unique_for_overwrite<WatchRec[]>(n);
    epoch_of_.assign(n, 0);
    page_cap_ = n;
    epoch_ = 0;
  }
  // Bumping the epoch invalidates every record; on wraparound all stamps
  // are cleared so an ancient stamp can never alias the new epoch.
  if (++epoch_ == 0) {
    std::fill(epoch_of_.begin(), epoch_of_.end(), 0u);
    epoch_ = 1;
  }

  groups_.clear();
  group_index_.Reset();
  active_groups_.clear();
  absent_count_ = n_;
  active_count_ = 0;
  act_w_.clear();
  act_mass_.clear();
  act_lp_.clear();
  act_e1_.clear();
  act_cnt_.clear();
  act_d_.clear();
  act_iw_.clear();
  act_next_.clear();
  d_key_ = kNoIncrements;
  accrue_count_ = 0;

  req_page_ = -1;
  lists_.Reset(eta_);
  fired_.clear();
  num_classes_ = WeightClasses(instance).num_classes();
  fixed_mass_.assign(static_cast<size_t>(num_classes_), 0.0);
  class_scratch_.assign(static_cast<size_t>(num_classes_), 0.0);

  gain_evaluations_ = 0;
  schedule_.u.clear();
  if (options_.record_schedule) schedule_.u.emplace_back(un, 1.0);
}

double FractionalMlp::DynamicU(PageId p) const {
  const PageRec& rec = rec_[static_cast<size_t>(p)];
  // rec.term is the page's contribution against its group's base_s, and
  // the group's SoA slot holds e1 = e^{(clock_ - base_s)/w}, so the live
  // value telescopes to (u0 + eta) e^{(clock_ - s0)/w} with no exp and no
  // weight-table lookup on this read path.
  const Group& g = groups_[static_cast<size_t>(rec.group_of)];
  const double val = rec.term * act_e1_[static_cast<size_t>(g.active_pos)] -
                     eta_;
  const double cap = CapOf(rec, p);
  return val < cap ? val : cap;
}

void FractionalMlp::PrefetchPage(PageId p) const {
  if (p < 0 || p >= n_) return;
  const size_t sp = static_cast<size_t>(p);
  WMLP_PREFETCH_READ(epoch_of_.data() + sp);
  WMLP_PREFETCH_WRITE(rec_.get() + sp);
  WMLP_PREFETCH_WRITE(u_.get() + sp * static_cast<size_t>(ell_));
}

double FractionalMlp::U(PageId p, Level i) const {
  if (!Fresh(p)) return 1.0;  // untouched this epoch: fully absent
  const PageRec& rec = rec_[static_cast<size_t>(p)];
  if (rec.state != PageState::kActive || i < rec.cursor) {
    return u_[Idx(p, i)];
  }
  return DynamicU(p);
}

double FractionalMlp::SuffixWeight(PageId p, Level from) const {
  double c = 0.0;
  for (Level j = from; j <= ell_; ++j) c += instance_->weight(p, j);
  return c;
}

int32_t FractionalMlp::GroupIndexFor(double w) {
  const uint64_t key = std::bit_cast<uint64_t>(w);
  const int32_t found = group_index_.Find(key);
  if (found >= 0) return found;
  const int32_t gi = static_cast<int32_t>(groups_.size());
  groups_.emplace_back();
  groups_.back().w = w;
  groups_.back().base_s = clock_;
  groups_.back().cls = WeightClasses::ClassOf(w);
  groups_.back().event_lists = lists_.AddGroup();
  group_index_.Insert(key, gi);
  return gi;
}

void FractionalMlp::GroupInsert(PageId p) {
  PageRec& rec = rec_[static_cast<size_t>(p)];
  const double w = instance_->weight(p, rec.cursor);
  const int32_t gi = GroupIndexFor(w);
  Group& g = groups_[static_cast<size_t>(gi)];
  d_key_ = kNoIncrements;
  if (g.members.empty()) {
    // A group that sat empty keeps a stale base; the clock may have jumped
    // arbitrarily far past it (a heavy-weight event), and a term computed
    // against the old base underflows to 0 while evaluation multiplies by
    // e^{(clock - base)/w} = inf, poisoning the sums with 0 * inf. An
    // empty group carries no mass, so rebasing it to the clock is exact —
    // its fresh SoA slot starts at mass 0 with e1 = 1 exactly.
    g.base_s = clock_;
    g.removals = 0;
    g.active_pos = static_cast<int32_t>(active_groups_.size());
    active_groups_.push_back(gi);
    act_w_.push_back(g.w);
    act_mass_.push_back(0.0);
    act_lp_.push_back(0.0);
    act_e1_.push_back(1.0);
    act_cnt_.push_back(0.0);
    act_d_.push_back(0.0);
    act_iw_.push_back(1.0 / g.w);
    act_next_.emplace_back();
    ++empty_group_rebases_;
  } else if ((clock_ - g.base_s) *
                 act_iw_[static_cast<size_t>(g.active_pos)] >
             kMaxGroupExp) {
    RebuildGroup(gi);
  }
  // Both call sites (ProcessEvent, Activate) materialize the page at the
  // current clock just before inserting, so s0 == clock_ and the term
  // against base_s is (u0 + eta) e^{(base_s - clock_)/w} = (u0 + eta)/e1 —
  // one division off the SoA slot instead of a libm exp.
  WMLP_CHECK(rec.s0 == clock_);
  const size_t ap = static_cast<size_t>(g.active_pos);
  const double term = (rec.u0 + eta_) / act_e1_[ap];
  rec.term = term;
  act_mass_[ap] += term;
  act_lp_[ap] += rec.csum * term;
  act_cnt_[ap] += 1.0;
  rec.group_of = gi;
  rec.pos_in_group = static_cast<int32_t>(g.members.size());
  g.members.push_back(p);
  ++active_count_;
  // The page reaches its cap when e1 reaches its key.
  rec.key = (CapOf(rec, p) + eta_) / term;
  lists_.Insert(rec_.get(), EventList(rec), p);
  if (g.members.size() == 1 || rec.key < act_next_[ap].key) {
    SetNextEvent(ap, p, rec.key);
  }
}

void FractionalMlp::GroupRemove(PageId p) {
  PageRec& rec = rec_[static_cast<size_t>(p)];
  // A watch is listed only while its page is a member (the caller re-keys
  // it against the page's next group, if any).
  if (rec.watched) UnlistWatch(p, watch_[static_cast<size_t>(p)]);
  lists_.Unlink(rec_.get(), EventList(rec), p);
  const int32_t gi = rec.group_of;
  Group& g = groups_[static_cast<size_t>(gi)];
  // Subtract the cached term — the exact double GroupInsert/RebuildGroup
  // added against the current base_s — instead of re-deriving it through
  // exp: bit-identical removal with no exponential on this path, and the
  // sums carry no insert/remove round-trip residue.
  const double term = rec.term;
  const size_t ap = static_cast<size_t>(g.active_pos);
  d_key_ = kNoIncrements;
  act_mass_[ap] -= term;
  act_lp_[ap] -= rec.csum * term;
  act_cnt_[ap] -= 1.0;
  const int32_t pos = rec.pos_in_group;
  const PageId back = g.members.back();
  g.members[static_cast<size_t>(pos)] = back;
  rec_[static_cast<size_t>(back)].pos_in_group = pos;
  g.members.pop_back();
  rec.group_of = -1;
  rec.pos_in_group = -1;
  --active_count_;
  if (g.members.empty()) {
    // Swap-pop the group's SoA slot in lockstep with active_groups_; its
    // residual mass dies with the slot, so reactivation starts exact.
    // act_d_ only shrinks: its values died with d_key_ above.
    const size_t last = active_groups_.size() - 1;
    const int32_t moved = active_groups_[last];
    active_groups_[ap] = moved;
    act_w_[ap] = act_w_[last];
    act_mass_[ap] = act_mass_[last];
    act_lp_[ap] = act_lp_[last];
    act_e1_[ap] = act_e1_[last];
    act_cnt_[ap] = act_cnt_[last];
    act_iw_[ap] = act_iw_[last];
    act_next_[ap] = act_next_[last];
    groups_[static_cast<size_t>(moved)].active_pos = static_cast<int32_t>(ap);
    active_groups_.pop_back();
    act_w_.pop_back();
    act_mass_.pop_back();
    act_lp_.pop_back();
    act_e1_.pop_back();
    act_cnt_.pop_back();
    act_d_.pop_back();
    act_iw_.pop_back();
    act_next_.pop_back();
    g.base_s = clock_;
    g.removals = 0;
    g.active_pos = -1;
    return;
  }
  if (++g.removals > 32 + 2 * static_cast<int64_t>(g.members.size())) {
    RebuildGroup(gi);
  } else if (act_next_[ap].page == p) {
    // Every other key is at least p's.
    FindNextEvent(ap, lists_.Bucket(rec.key));
  }
}

void FractionalMlp::RebuildGroup(int32_t gi) {
  Group& g = groups_[static_cast<size_t>(gi)];
  ++group_rebuilds_;
  const size_t m = g.members.size();
  if (rebuild_x_.size() < m) {
    rebuild_x_.resize(m);
    rebuild_e_.resize(m);
  }
  for (size_t j = 0; j < m; ++j) {
    const PageRec& rq = rec_[static_cast<size_t>(g.members[j])];
    rebuild_x_[j] = (clock_ - rq.s0) / g.w;
  }
  // One batched exp pass over the membership; the multiply-accumulate
  // below is cheap next to the transcendentals.
  kernels::ExpBatch(rebuild_x_.data(), rebuild_e_.data(), m);
  // The members' events and watches are re-keyed against the new terms,
  // as e1 restarts at 1.
  lists_.ClearGroup(g.event_lists);
  if (g.watch_lists >= 0) {
    lists_.ClearGroup(g.watch_lists);
    g.watch_floor = lists_.buckets() - 1;
  }
  double mass = 0.0;
  double lp = 0.0;
  for (size_t j = 0; j < m; ++j) {
    const PageId q = g.members[j];
    PageRec& rq = rec_[static_cast<size_t>(q)];
    const double term = (rq.u0 + eta_) * rebuild_e_[j];
    rq.term = term;
    mass += term;
    lp += rq.csum * term;
    rq.key = (CapOf(rq, q) + eta_) / term;
    lists_.Insert(rec_.get(), EventList(rq), q);
    if (rq.watched) {
      WatchRec& w = watch_[static_cast<size_t>(q)];
      if (w.list >= 0) ListWatch(q, w);
    }
  }
  g.base_s = clock_;
  g.removals = 0;
  const size_t ap = static_cast<size_t>(g.active_pos);
  act_mass_[ap] = mass;
  act_lp_[ap] = lp;
  act_e1_[ap] = 1.0;  // base_s == clock_ now, exactly
  d_key_ = kNoIncrements;
  FindNextEvent(ap, 0);
}

void FractionalMlp::RebaseGroupsTo(double s_horizon) {
  for (size_t j = 0; j < active_groups_.size(); ++j) {
    const int32_t gi = active_groups_[j];
    if ((s_horizon - groups_[static_cast<size_t>(gi)].base_s) * act_iw_[j] <=
        kMaxGroupExp) {
      continue;
    }
    // A full rebuild, not a factor multiplication: rounding residuals left
    // in the sums by earlier inserts/removals are amplified by
    // e^{(S - base_s)/w} at evaluation time, so merely folding the factor
    // into the sums would amplify the accumulated error without bound.
    // Rebuilding recomputes every term at the current clock, resetting all
    // residuals to the scale of the live values. Amortized O(1) per
    // request: the clock advances ~w/|active| per request in steady state,
    // so a group is rebuilt about once per kMaxGroupExp * |active|
    // requests.
    RebuildGroup(gi);
  }
}

void FractionalMlp::RefreshE1() {
  const size_t m = active_groups_.size();
  if (rebuild_x_.size() < m) {
    rebuild_x_.resize(m);
    rebuild_e_.resize(m);
  }
  for (size_t j = 0; j < m; ++j) {
    const Group& g = groups_[static_cast<size_t>(active_groups_[j])];
    rebuild_x_[j] = (clock_ - g.base_s) / act_w_[j];
  }
  kernels::ExpBatch(rebuild_x_.data(), act_e1_.data(), m);
  d_key_ = kNoIncrements;
}

void FractionalMlp::FindNextEvent(size_t j, int32_t from) {
  const int32_t lists =
      groups_[static_cast<size_t>(active_groups_[j])].event_lists;
  // The group is not empty, and its lowest key heads its first non-empty
  // list from `from` up.
  const PageId first =
      lists_.head(lists_.FirstUsed(lists + from, lists + lists_.buckets()));
  SetNextEvent(j, first, rec_[static_cast<size_t>(first)].key);
}

void FractionalMlp::SetNextEvent(size_t j, PageId p, double key) {
  // e1 = e^{(S - base_s)/w} reaches key at S = base_s + w log key.
  act_next_[j] = NextEvent{
      groups_[static_cast<size_t>(active_groups_[j])].base_s +
          act_w_[j] * std::log(key),
      key, p};
}

size_t FractionalMlp::NextEventSlot() const {
  size_t first = 0;
  NextEvent best = act_next_[0];
  for (size_t j = 1; j < act_next_.size(); ++j) {
    const NextEvent& e = act_next_[j];
    if (e.s < best.s || (e.s == best.s && e.page < best.page)) {
      first = j;
      best = e;
    }
  }
  return first;
}

void FractionalMlp::RenormalizeClock() {
  WMLP_TELEMETRY_COUNTER(renorms, "wmlp_fractional_clock_renorm_total");
  renorms.Inc();
  const double c = clock_;
  for (size_t j = 0; j < active_groups_.size(); ++j) {
    Group& g = groups_[static_cast<size_t>(active_groups_[j])];
    g.base_s -= c;
    act_next_[j].s -= c;
    for (const PageId q : g.members) rec_[static_cast<size_t>(q)].s0 -= c;
  }
  // Empty groups keep a base in old coordinates; GroupInsert rebases them
  // before use.
  clock_ = 0.0;
}

double FractionalMlp::TotalAbsentMass() const {
  double total = static_cast<double>(absent_count_);
  if (req_page_ >= 0 &&
      rec_[static_cast<size_t>(req_page_)].state == PageState::kDetached) {
    total += u_[Idx(req_page_, ell_)];
  }
  total += kernels::AbsentMassBatch(act_mass_.data(), act_e1_.data(),
                                    act_cnt_.data(), act_mass_.size(), eta_);
  return total;
}

double FractionalMlp::SegmentGain(double ds, double* rate) {
  // One fused 4-wide pass over the persistent SoA: per group
  // d = e1 * expm1(ds / w), with e1 = e^{(clock_ - base_s)/w} already live
  // in act_e1_. expm1 keeps the exponential difference accurate when the
  // advance is a tiny fraction of w; the direct e2 - e1 would cancel
  // catastrophically, and the error is amplified by w in the cost meters.
  ++gain_evaluations_;
  const kernels::GainRate gr = kernels::GainRateBatch(
      act_w_.data(), act_mass_.data(), act_e1_.data(), act_w_.size(), ds,
      act_d_.data());
  d_key_ = std::bit_cast<uint64_t>(ds);
  if (rate != nullptr) *rate = gr.rate;
  return gr.gain;
}

double FractionalMlp::TaylorStart(double need) const {
  // Every Taylor coefficient of g(ds) = sum_j mass_j e1_j expm1(ds / w_j)
  // is non-negative, so g(ds) >= a1 ds + a2 ds^2 / 2 with
  // a1 = sum_j mass_j e1_j / w_j and a2 = sum_j mass_j e1_j / w_j^2. The
  // bound's root, written without cancellation, lies at or right of g's.
  double a1 = 0.0;
  double a2 = 0.0;
  for (size_t j = 0; j < act_w_.size(); ++j) {
    const double c = act_mass_[j] * act_e1_[j] * act_iw_[j];
    a1 += c;
    a2 += c * act_iw_[j];
  }
  return 2.0 * need / (a1 + std::sqrt(a1 * a1 + 2.0 * a2 * need));
}

void FractionalMlp::AdvanceClock(double ds, double to) {
  // The meters advance by w * mass * d / lp * d and e1 += d folds the
  // clock advance into the SoA, from the increments the last gain
  // evaluation wrote. That evaluation used this ds unless the solve
  // returned a clock it evaluated earlier (bisection's upper end); only
  // then are the increments computed again.
  if (d_key_ != std::bit_cast<uint64_t>(ds)) SegmentGain(ds, nullptr);
  const kernels::AccrueDelta delta = kernels::AccrueAdvanceBatch(
      act_w_.data(), act_mass_.data(), act_lp_.data(), act_d_.data(),
      act_e1_.data(), act_w_.size());
  d_key_ = kNoIncrements;  // they describe the old e1
  movement_cost_ += delta.movement;
  lp_cost_ += delta.lp;
  clock_ = to;
  if (++accrue_count_ % kE1RefreshInterval == 0) RefreshE1();
}

void FractionalMlp::ProcessEvent(PageId p) {
  PageRec& rec = rec_[static_cast<size_t>(p)];
  AddClassMass(p, -1.0);
  GroupRemove(p);
  const Level oldc = rec.cursor;
  const double cap = oldc == 1 ? 1.0 : u_[Idx(p, oldc - 1)];
  for (Level j = oldc; j <= ell_; ++j) u_[Idx(p, j)] = cap;
  ++events_processed_;

  Level newc = 0;
  if (cap < 1.0) {
    // Deepest non-empty level moved above oldc; rescan with the same
    // snapping rule as the reference's per-segment scan.
    for (Level i = oldc - 1; i >= 1; --i) {
      const double ci = i == 1 ? 1.0 : u_[Idx(p, i - 1)];
      if (u_[Idx(p, i)] < ci - kEps) {
        newc = i;
        break;
      }
      if (u_[Idx(p, i)] != ci) {
        const double d = ci - u_[Idx(p, i)];
        if (d > 0.0) {
          lp_cost_ += instance_->weight(p, i) * d;
          movement_cost_ += instance_->weight(p, i) * d;
        }
        u_[Idx(p, i)] = ci;
      }
    }
  }
  if (newc == 0) {
    // All levels within kEps of 1: the page is (numerically) fully absent.
    // The residual rises are charged like any other move.
    for (Level j = 1; j <= ell_; ++j) {
      const double d = 1.0 - u_[Idx(p, j)];
      if (d > 0.0) {
        lp_cost_ += instance_->weight(p, j) * d;
        movement_cost_ += instance_->weight(p, j) * d;
      }
      u_[Idx(p, j)] = 1.0;
    }
    rec.state = PageState::kAbsent;
    ++absent_count_;
    RetimeWatch(p);
    return;
  }
  rec.cursor = newc;
  rec.u0 = u_[Idx(p, newc)];
  rec.s0 = clock_;
  rec.csum = SuffixWeight(p, newc);
  GroupInsert(p);
  AddClassMass(p, +1.0);
  RetimeWatch(p);
}

void FractionalMlp::DetachAndMaterialize(PageId p) {
  PageRec& rec = Rec(p);  // first touch of the requested page this epoch
  WMLP_CHECK(rec.state != PageState::kDetached);
  ClearWatch(p);  // the caller re-arms the served page
  if (rec.state == PageState::kAbsent) {
    --absent_count_;  // u_ row is already all 1.0
  } else {
    const double val = DynamicU(p);
    AddClassMass(p, -1.0);
    GroupRemove(p);
    for (Level j = rec.cursor; j <= ell_; ++j) u_[Idx(p, j)] = val;
  }
  rec.state = PageState::kDetached;
}

void FractionalMlp::Activate(PageId p) {
  PageRec& rec = rec_[static_cast<size_t>(p)];
  Level newc = 0;
  for (Level i = ell_; i >= 1; --i) {
    const double ci = i == 1 ? 1.0 : u_[Idx(p, i - 1)];
    if (u_[Idx(p, i)] < ci - kEps) {
      newc = i;
      break;
    }
    if (u_[Idx(p, i)] != ci) {
      const double d = ci - u_[Idx(p, i)];
      if (d > 0.0) {
        lp_cost_ += instance_->weight(p, i) * d;
        movement_cost_ += instance_->weight(p, i) * d;
      }
      u_[Idx(p, i)] = ci;
    }
  }
  WMLP_CHECK_MSG(newc >= 1, "served page has no non-empty level");
  rec.state = PageState::kActive;
  rec.cursor = newc;
  rec.u0 = u_[Idx(p, newc)];
  rec.s0 = clock_;
  rec.csum = SuffixWeight(p, newc);
  GroupInsert(p);
  AddClassMass(p, +1.0);
}

void FractionalMlp::Serve(Time /*t*/, const Request& r) {
  WMLP_CHECK(instance_ != nullptr);
  const Instance& inst = *instance_;
  ++serves_;

  req_page_ = r.page;
  fired_.clear();

  if (clock_ > kClockRenormThreshold) RenormalizeClock();

  // ---- Step 1: serve the request (u of p_t only decreases; no cost). ----
  DetachAndMaterialize(r.page);
  // Conditional so GCC does not turn the loop into a memset call.
  for (Level j = r.level; j <= ell_; ++j) {
    double& u = u_[Idx(r.page, j)];
    if (u > 0.0) u = 0.0;
  }

  // ---- Step 2: evict continuously until the cache fits. -----------------
  const double target = static_cast<double>(n_ - inst.cache_size());
  double need = target - TotalAbsentMass();
  bool rose = false;  // whether the water (every group's e1) rose
  if (need > kEps) {
    while (need > kEps) {
      WMLP_CHECK_MSG(!act_next_.empty(), "no page available for eviction");
      const size_t slot = NextEventSlot();
      const NextEvent ev = act_next_[slot];
      {
        // A page whose remaining rise to its cap is within kEps is due:
        // advance its cursor without moving the clock. This mirrors the
        // reference's segment-start scan, which snaps u >= cap - kEps
        // levels to the cap for free, so both solvers make the same
        // discrete decisions at segment boundaries.
        // The gap is cap minus the unclamped live value term * e1 - eta,
        // which equals (cap + eta)(1 - e^{(clock - s_ev)/w}) with no exp.
        const PageRec& rec = rec_[static_cast<size_t>(ev.page)];
        const double remaining =
            CapOf(rec, ev.page) + eta_ - rec.term * act_e1_[slot];
        if (remaining <= kEps) {
          // The gap to the cap is still real movement and must be charged:
          // on heavy pages even a kEps-sized rise carries O(w * kEps) cost,
          // and the meters must integrate every move no matter which
          // mechanism (snap or charged clock advance) performs it.
          const double rise = std::max(0.0, remaining);
          lp_cost_ += rec.csum * rise;
          movement_cost_ += act_w_[slot] * rise;
          ProcessEvent(ev.page);
          need = target - TotalAbsentMass();
          continue;
        }
      }
      ++segments_solved_;
      RebaseGroupsTo(ev.s);

      // Within the segment no caps bind, so the total gain over the active
      // set is a sum of one exponential per weight group (SegmentGain),
      // solved in segment-relative time ds = s - clock_: an absolute clock
      // up to kClockRenormThreshold would quantize Newton's iterates to
      // ulp(clock_) and let rounding push them below the root.
      const auto gain_and_rate = [this](double ds, double* rate) {
        return SegmentGain(ds, rate);
      };
      const double ds_ev = ev.s - clock_;
      // Newton from the right starts at the root of g's Taylor bound when
      // that lies inside the segment and meets the need there; otherwise
      // at the event horizon, which also decides whether the segment ends
      // before the cache fits.
      const double ds_q = TaylorStart(need);
      double rate_hi = 0.0;
      double g_hi = 0.0;
      bool taylor_start = false;
      if (ds_q < ds_ev) {
        g_hi = SegmentGain(ds_q, &rate_hi);
        taylor_start = g_hi >= need;
      }
      if (!taylor_start) g_hi = SegmentGain(ds_ev, &rate_hi);
      if (taylor_start || g_hi >= need - kEps) {
        // Stopping clock inside this segment.
        StoppingClockStats sc_stats;
        const double ds = SolveStoppingClock(
            gain_and_rate, need, taylor_start ? ds_q : ds_ev, g_hi, rate_hi,
            &sc_stats);
        newton_iterations_ += sc_stats.newton_iterations;
        if (sc_stats.used_bisection) ++bisection_fallbacks_;
        AdvanceClock(ds, clock_ + ds);
        rose = true;
        break;
      }
      AdvanceClock(ds_ev, ev.s);
      rose = true;
      ProcessEvent(ev.page);
      need = target - TotalAbsentMass();
    }
  }

  // The clock's advance is final: fire the watches it passed, in page
  // order so consumers act on them deterministically.
  if (rose) DrainWatches();
  std::sort(fired_.begin(), fired_.end());

  // Re-enter the requested page into the active machinery.
  Activate(r.page);

  if (options_.record_schedule) {
    std::vector<double> snap(static_cast<size_t>(n_) *
                             static_cast<size_t>(ell_));
    for (PageId p = 0; p < n_; ++p) {
      for (Level i = 1; i <= ell_; ++i) snap[Idx(p, i)] = U(p, i);
    }
    schedule_.u.push_back(std::move(snap));
  }

  if constexpr (audit::kEnabled) {
    AuditEventLists();
    audit::AuditFractionalState(inst, *this);
    audit::AuditFractionalServed(inst, *this, r);
  }
}

void FractionalMlp::AuditEventLists() const {
  std::vector<int32_t> listed(static_cast<size_t>(n_), 0);
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const Group& g = groups_[gi];
    PageId lowest = -1;  // the head of the group's first non-empty list
    double min_key = 0.0;
    for (int32_t list = g.event_lists;
         list < g.event_lists + lists_.buckets(); ++list) {
      const PageId first = lists_.head(list);
      WMLP_AUDIT_CHECK((lists_.FirstUsed(list, list + 1) == list) ==
                           (first >= 0),
                       "event list " << list << " is marked wrongly");
      if (first < 0) continue;
      if (lowest < 0) {
        lowest = first;
        min_key = rec_[static_cast<size_t>(first)].key;
      }
      PageId q = first;
      do {
        const PageRec& rq = rec_[static_cast<size_t>(q)];
        const PageId next = rq.next;
        const PageRec* rn = next >= 0 ? &rec_[static_cast<size_t>(next)] : &rq;
        WMLP_AUDIT_CHECK(
            Fresh(q) && rq.state == PageState::kActive &&
                rq.group_of == static_cast<int32_t>(gi) &&
                ++listed[static_cast<size_t>(q)] == 1 &&
                rq.key == (CapOf(rq, q) + eta_) / rq.term &&
                EventList(rq) == list && next >= 0 && rn->prev == q &&
                (next == first || rq.key <= rn->key),
            "page " << q << " in event list " << list << " of group " << gi
                    << " is not an active member listed once, in order, "
                       "under its key");
        min_key = std::min(min_key, rq.key);
        q = next;
      } while (q != first);
    }
    if (g.active_pos < 0) continue;
    const NextEvent& cached = act_next_[static_cast<size_t>(g.active_pos)];
    WMLP_AUDIT_CHECK(cached.key == min_key && cached.page == lowest,
                     "group " << gi << " caches event (" << cached.page << ", "
                              << cached.key << "), its lists start at ("
                              << lowest << ", " << min_key << ")");
  }
  for (PageId p = 0; p < n_; ++p) {
    const bool active =
        Fresh(p) && rec_[static_cast<size_t>(p)].state == PageState::kActive;
    WMLP_AUDIT_CHECK(listed[static_cast<size_t>(p)] == (active ? 1 : 0),
                     "page " << p << " is listed "
                             << listed[static_cast<size_t>(p)] << " times");
  }
}

void FractionalMlp::AddClassMass(PageId p, double sign) {
  const PageRec& rec = rec_[static_cast<size_t>(p)];
  double above = 1.0;
  for (Level i = 1; i < rec.cursor; ++i) {
    const double ui = u_[Idx(p, i)];
    // Most frozen levels hold no mass (u = 1 above everything the page
    // was requested at); skipping them skips the class lookup.
    if (ui != above) {
      fixed_mass_[static_cast<size_t>(
          WeightClasses::ClassOf(instance_->weight(p, i)))] +=
          sign * (above - ui);
    }
    above = ui;
  }
  fixed_mass_[static_cast<size_t>(
      groups_[static_cast<size_t>(rec.group_of)].cls)] += sign * above;
}

void FractionalMlp::ClassSuffixMass(const Instance& /*instance*/,
                                    std::span<double> lo,
                                    std::span<double> hi) const {
  WMLP_CHECK(lo.size() == hi.size());
  // Per class: the fixed marginals minus the live values of the cursor
  // copies, sum_q u(q, cursor) = A e1 - eta * count per weight group.
  std::vector<double>& mass = class_scratch_;
  std::copy(fixed_mass_.begin(), fixed_mass_.end(), mass.begin());
  for (size_t j = 0; j < active_groups_.size(); ++j) {
    const Group& g = groups_[static_cast<size_t>(active_groups_[j])];
    mass[static_cast<size_t>(g.cls)] -=
        act_mass_[j] * act_e1_[j] - eta_ * act_cnt_[j];
  }
  double suffix = 0.0;
  for (size_t c = lo.size(); c-- > 0;) {
    if (c < mass.size()) suffix += mass[c];
    lo[c] = suffix;
    hi[c] = suffix;
  }
}

void FractionalMlp::ArmWatch(PageId p, Level i, double x) {
  WMLP_CHECK(p >= 0 && p < n_ && i >= 1 && i <= ell_);
  PageRec& rec = Rec(p);  // materializes an untouched page as absent
  WatchRec& w = watch_[static_cast<size_t>(p)];
  if (rec.watched) {
    UnlistWatch(p, w);
  } else {
    rec.watched = true;
  }
  w.x = x;
  w.level = i;
  w.list = -1;
  // An absent page's values are 1 and never rise; a level above the
  // cursor is frozen. Either waits, unlisted, for a cap event or a request.
  if (rec.state == PageState::kActive && i >= rec.cursor) ListWatch(p, w);
}

void FractionalMlp::DisarmWatch(PageId p) {
  if (p >= 0 && p < n_ && Fresh(p)) ClearWatch(p);
}

bool FractionalMlp::watch(PageId p, Level* i, double* x) const {
  if (p < 0 || p >= n_ || !Fresh(p)) return false;
  if (!rec_[static_cast<size_t>(p)].watched) return false;
  const WatchRec& w = watch_[static_cast<size_t>(p)];
  if (i != nullptr) *i = w.level;
  if (x != nullptr) *x = w.x;
  return true;
}

void FractionalMlp::ListWatch(PageId p, WatchRec& w) {
  const PageRec& rec = rec_[static_cast<size_t>(p)];
  Group& g = groups_[static_cast<size_t>(rec.group_of)];
  if (g.watch_lists < 0) {
    g.watch_lists = lists_.AddGroup();
    g.watch_floor = lists_.buckets() - 1;
  }
  w.key = (w.x + eta_) / rec.term;
  const int32_t bucket = lists_.Bucket(w.key);
  w.list = g.watch_lists + bucket;
  lists_.Append(watch_.get(), w.list, p);
  g.watch_floor = std::min(g.watch_floor, bucket);
}

void FractionalMlp::UnlistWatch(PageId p, WatchRec& w) {
  if (w.list < 0) return;
  lists_.Unlink(watch_.get(), w.list, p);
  w.list = -1;
}

void FractionalMlp::ClearWatch(PageId p) {
  PageRec& rec = rec_[static_cast<size_t>(p)];
  if (!rec.watched) return;
  UnlistWatch(p, watch_[static_cast<size_t>(p)]);
  rec.watched = false;
}

void FractionalMlp::FireWatch(PageId p) {
  ClearWatch(p);
  fired_.push_back(p);
}

void FractionalMlp::RetimeWatch(PageId p) {
  const PageRec& rec = rec_[static_cast<size_t>(p)];
  if (!rec.watched) return;
  WatchRec& w = watch_[static_cast<size_t>(p)];
  if (rec.state != PageState::kActive) {
    // A cap event that departs the page raises u(p, i) to 1, past any
    // threshold below 1 (one at or above 1 can never be crossed).
    if (w.x < 1.0) FireWatch(p);
    return;
  }
  if (w.level < rec.cursor) return;  // frozen: dormant
  // u(p, i) shares the cursor's value u0, which got there in this Serve
  // (the rise to the cap, or a snap of a level within kEps of it): a
  // value already past x fires.
  if (rec.u0 > w.x) {
    FireWatch(p);
    return;
  }
  ListWatch(p, w);
}

void FractionalMlp::DrainWatches() {
  for (size_t j = 0; j < active_groups_.size(); ++j) {
    Group& g = groups_[static_cast<size_t>(active_groups_[j])];
    if (g.watch_lists < 0) continue;
    const double e1 = act_e1_[j];
    const int32_t top = lists_.Bucket(e1);
    const int32_t top_list = g.watch_lists + top;
    // Every key in a list below e1's is below e1: those lists fire whole.
    for (int32_t list = lists_.FirstUsed(g.watch_lists + g.watch_floor,
                                         top_list);
         list < top_list; list = lists_.FirstUsed(list + 1, top_list)) {
      const PageId first = lists_.head(list);
      PageId p = first;
      do {
        rec_[static_cast<size_t>(p)].watched = false;
        fired_.push_back(p);
        p = watch_[static_cast<size_t>(p)].next;
      } while (p != first);
      lists_.Drop(list);
    }
    // e1's own list fires its keys below e1, walked from its head to its
    // last node (the head's prev), as firing unlinks.
    if (PageId p = lists_.head(top_list); p >= 0) {
      const PageId last = watch_[static_cast<size_t>(p)].prev;
      for (PageId next = p; next != last;) {
        p = next;
        next = watch_[static_cast<size_t>(p)].next;
        if (watch_[static_cast<size_t>(p)].key < e1) FireWatch(p);
      }
      if (watch_[static_cast<size_t>(last)].key < e1) FireWatch(last);
    }
    g.watch_floor = top;
  }
}

}  // namespace wmlp
