#include "predict/predictive_policy.h"

#include <cmath>
#include <limits>
#include <utility>

#include "baselines/serve_util.h"
#include "core/waterfill.h"
#include "telemetry/telemetry.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/rng.h"

namespace wmlp::predict {

void FollowPredictionPolicy::Attach(const Instance& instance) {
  (void)instance;
  now_ = 0;
}

void FollowPredictionPolicy::Serve(Time t, const Request& r, CacheOps& ops) {
  now_ = t;
  ServeWithVictim(
      r, ops,
      [this](const Request& req, CacheOps& o) {
        // Victim = argmax predicted-gap / weight. Compared by cross-
        // multiplication (gap_a * w_b vs gap_b * w_a): exact under dyadic
        // weight scaling, well-defined on the +infinity "never again"
        // sentinel, ties broken toward the smaller page id.
        PageId victim = -1;
        double best_gap = 0.0;
        double best_w = 1.0;
        for (PageId q : o.cache().pages()) {
          if (q == req.page) continue;
          const double gap =
              predictor_->PredictNext(now_, q) - static_cast<double>(now_);
          const double w = o.instance().weight(q, o.cache().level_of(q));
          bool better = false;
          if (victim < 0) {
            better = true;
          } else {
            const double lhs = gap * best_w;
            const double rhs = best_gap * w;
            better = lhs > rhs || (lhs >= rhs && q < victim);
          }
          if (better) {
            victim = q;
            best_gap = gap;
            best_w = w;
          }
        }
        return victim;
      },
      [](PageId) {});
}

namespace {

class PredictivePolicy final : public Policy {
 public:
  PredictivePolicy(uint64_t seed, const PredictiveOptions& options,
                   PredictorPtr predictor)
      : options_(options), predictor_(std::move(predictor)) {
    (void)seed;
    if (options_.lambda < 1.0) {
      theta_ = (1.0 + options_.lambda) / (1.0 - options_.lambda);
    } else {
      theta_ = std::numeric_limits<double>::infinity();
    }
    ftp_ = std::make_unique<FollowPredictionPolicy>(predictor_.get());
    wf_ = std::make_unique<WaterfillPolicy>();
  }

  void Attach(const Instance& instance) override {
    instance_ = &instance;
    predictor_->Attach(instance);
    ftp_->Attach(instance);
    wf_->Attach(instance);
    ftp_state_ = std::make_unique<CacheState>(instance);
    wf_state_ = std::make_unique<CacheState>(instance);
    ftp_ops_ = std::make_unique<CacheOps>(instance, *ftp_state_);
    wf_ops_ = std::make_unique<CacheOps>(instance, *wf_state_);
    active_ = options_.lambda <= 0.0 ? 1 : 0;
    scratch_.reserve(static_cast<size_t>(instance.cache_size()));
  }

  void Serve(Time t, const Request& r, CacheOps& ops) override {
    predictor_->Observe(t, r);
    ftp_ops_->set_time(t);
    ftp_->Serve(t, r, *ftp_ops_);
    wf_ops_->set_time(t);
    wf_->Serve(t, r, *wf_ops_);
    if constexpr (audit::kEnabled) {
      WMLP_CHECK_MSG(ftp_state_->serves(r) && wf_state_->serves(r),
                     "predictive: expert failed to serve page " << r.page);
    }
    if (options_.lambda >= 1.0) {
      active_ = 0;
    } else if (options_.lambda <= 0.0) {
      active_ = 1;
    } else {
      const double cost_ftp = ftp_ops_->eviction_cost();
      const double cost_wf = wf_ops_->eviction_cost();
      const double active_cost = active_ == 0 ? cost_ftp : cost_wf;
      const double other_cost = active_ == 0 ? cost_wf : cost_ftp;
      if (active_cost > theta_ * other_cost) {
        active_ = 1 - active_;
        WMLP_TELEMETRY_COUNTER(switches, "wmlp_predictive_switch_total");
        switches.Inc();
      }
    }
    SyncTo(active_ == 0 ? *ftp_state_ : *wf_state_, ops);
  }

  std::string name() const override { return "predictive"; }

 private:
  // Makes the real cache mirror the active expert's virtual cache, paying
  // the reconfiguration through the real CacheOps meters. Off the switching
  // step this is a no-op diff (the real cache already mirrors the active
  // expert before its serve, so only this step's own changes replay).
  void SyncTo(const CacheState& target, CacheOps& ops) {
    scratch_.clear();
    for (PageId q : ops.cache().pages()) scratch_.push_back(q);
    for (PageId q : scratch_) {
      const Level want = target.level_of(q);
      if (want == 0) {
        ops.Evict(q);
      } else if (want != ops.cache().level_of(q)) {
        ops.Replace(q, want);
      }
    }
    for (PageId q : target.pages()) {
      if (!ops.cache().contains(q)) ops.Fetch(q, target.level_of(q));
    }
  }

  PredictiveOptions options_;
  PredictorPtr predictor_;
  std::unique_ptr<FollowPredictionPolicy> ftp_;
  std::unique_ptr<WaterfillPolicy> wf_;
  const Instance* instance_ = nullptr;
  std::unique_ptr<CacheState> ftp_state_;
  std::unique_ptr<CacheState> wf_state_;
  std::unique_ptr<CacheOps> ftp_ops_;
  std::unique_ptr<CacheOps> wf_ops_;
  std::vector<PageId> scratch_;
  double theta_ = 1.0;
  int active_ = 0;
};

}  // namespace

PolicyPtr MakePredictivePolicy(uint64_t seed, const PredictiveOptions& options,
                               PredictorPtr predictor, std::string* error) {
  auto fail = [error](const char* why) -> PolicyPtr {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (std::isnan(options.lambda) || !std::isfinite(options.lambda) ||
      options.lambda < 0.0 || options.lambda > 1.0) {
    return fail("predictive: lambda out of [0, 1]");
  }
  if (std::isnan(options.ewma_alpha) || options.ewma_alpha <= 0.0 ||
      options.ewma_alpha > 1.0) {
    return fail("predictive: ewma_alpha out of (0, 1]");
  }
  if (options.horizon < 0) {
    return fail("predictive: negative horizon");
  }
  if (predictor == nullptr) {
    predictor =
        std::make_unique<EwmaPredictor>(options.ewma_alpha, options.horizon);
  }
  NoiseOptions noise;
  noise.kind = options.noise;
  noise.eta = options.eta;
  noise.seed = DeriveSeed(seed, 1);
  predictor = MakeNoisyPredictor(std::move(predictor), noise, error);
  if (predictor == nullptr) return nullptr;
  return std::make_unique<PredictivePolicy>(seed, options,
                                            std::move(predictor));
}

}  // namespace wmlp::predict
