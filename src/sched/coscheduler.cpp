#include "sched/coscheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace migopt::sched {

CoScheduler::CoScheduler(core::ResourcePowerAllocator& allocator,
                         core::Policy policy, SchedulerTuning tuning)
    : allocator_(&allocator), policy_(policy), tuning_(tuning),
      decision_cache_(tuning.decision_cache_capacity),
      cached_profile_revision_(allocator.profiles().revision()) {
  MIGOPT_REQUIRE(tuning_.pairing_window >= 1, "pairing window must be >= 1");
  MIGOPT_REQUIRE(tuning_.min_pair_speedup >= 0.0,
                 "negative pairing speedup threshold");
  MIGOPT_REQUIRE(tuning_.duration_benefit_margin >= 0.0 &&
                     tuning_.duration_benefit_margin < 1.0,
                 "duration benefit margin out of [0,1)");
}

bool CoScheduler::pair_acceptable(const Job& pivot, const Job& candidate,
                                  const core::Decision& decision) const noexcept {
  if (!decision.feasible) return false;
  if (decision.predicted.throughput < tuning_.min_pair_speedup) return false;
  if (tuning_.require_duration_benefit && pivot.solo_seconds_per_wu > 0.0 &&
      candidate.solo_seconds_per_wu > 0.0) {
    const double t1 = pivot.work_units * pivot.solo_seconds_per_wu;
    const double t2 = candidate.work_units * candidate.solo_seconds_per_wu;
    const double r1 = std::max(decision.predicted.relperf_app1, 1e-6);
    const double r2 = std::max(decision.predicted.relperf_app2, 1e-6);
    // Paired completion estimate: the longer member keeps running at its
    // partition rate after the shorter one exits (no instance migration).
    const double paired = std::max(t1 / r1, t2 / r2);
    if (paired >= (t1 + t2) * (1.0 - tuning_.duration_benefit_margin))
      return false;
  }
  return true;
}

double CoScheduler::default_cap(double max_cap_watts) const {
  // Exclusive runs execute under Problem 1's fixed cap when one is set;
  // otherwise at the highest cap the optimizer may choose — in both cases
  // clamped into the budget ceiling via the trained grid.
  if (policy_.fixed_power_cap.has_value() &&
      *policy_.fixed_power_cap <= max_cap_watts)
    return *policy_.fixed_power_cap;
  const core::Optimizer& optimizer = allocator_->optimizer();
  MIGOPT_REQUIRE(!optimizer.ceiling_levels().empty(),
                 "optimizer cap grid is empty — cannot pick a dispatch cap");
  // Largest trained cap <= the ceiling (identical to a max over the grid
  // filtered by the ceiling), -1 when nothing fits.
  const std::ptrdiff_t level = optimizer.ceiling_level(max_cap_watts);
  return level < 0 ? -1.0
                   : optimizer.ceiling_levels()[static_cast<std::size_t>(level)];
}

double CoScheduler::min_cap() const {
  // An empty grid would make the +inf seed escape as a "real" cap and
  // silently starve dispatch forever; fail loudly instead. (The Optimizer
  // constructor rejects empty grids, so this guards future regressions of
  // that contract.)
  const std::vector<double>& levels = allocator_->optimizer().ceiling_levels();
  MIGOPT_REQUIRE(!levels.empty(),
                 "optimizer cap grid is empty — no dispatch can be afforded");
  return levels.front();
}

void CoScheduler::sync_cache_with_profiles() {
  if (allocator_->profiles().revision() != cached_profile_revision_)
    invalidate_decisions();
}

void CoScheduler::invalidate_decisions() {
  decision_cache_.invalidate();
  if (cap_curves_ > 0) {
    for (std::vector<core::Decision>& curve : curves_) curve.clear();
    cap_curves_ = 0;
  }
  cached_profile_revision_ = allocator_->profiles().revision();
}

const core::Decision& CoScheduler::cap_curve_entry(AppId pivot, AppId candidate,
                                                   std::size_t level) {
  const std::size_t needed = std::size_t{std::max(pivot, candidate)} + 1;
  if (needed > curve_stride_) {
    // Re-lay the table out for the wider id space (new apps intern rarely).
    const std::size_t stride = std::max(needed, 2 * curve_stride_);
    std::vector<std::vector<core::Decision>> grown(stride * stride);
    for (std::size_t a = 0; a < curve_stride_; ++a)
      for (std::size_t b = 0; b < curve_stride_; ++b)
        grown[a * stride + b] = std::move(curves_[a * curve_stride_ + b]);
    curves_ = std::move(grown);
    curve_stride_ = stride;
  }
  std::vector<core::Decision>& curve = curves_[pivot * curve_stride_ + candidate];
  if (curve.empty()) {
    curve = allocator_->allocate_all_ceilings(pivot, candidate, policy_);
    ++cap_curves_;
  }
  return curve[level];
}

void CoScheduler::set_profiling_in_flight(AppId app, bool value) {
  MIGOPT_REQUIRE(app != kNoSymbol, "profiling flag for an uninterned app");
  if (profiling_in_flight_.size() <= app)
    profiling_in_flight_.resize(static_cast<std::size_t>(app) + 1, 0);
  profiling_in_flight_[app] = value ? 1 : 0;
}

CoScheduler::BatchContext CoScheduler::begin_batch(double now) {
  sync_cache_with_profiles();
  return BatchContext(now);
}

std::optional<DispatchPlan> CoScheduler::next(JobQueue& queue, double now,
                                              double max_cap_watts) {
  BatchContext batch = begin_batch(now);
  return next_in_batch(batch, queue, max_cap_watts);
}

std::optional<DispatchPlan> CoScheduler::next_in_batch(BatchContext& batch,
                                                       JobQueue& queue,
                                                       double max_cap_watts) {
  const double now = batch.now_;
  const std::size_t ready = queue.ready_count(now);
  if (ready == 0) return std::nullopt;
  if (max_cap_watts < min_cap()) return std::nullopt;  // budget exhausted

  // The dispatch cap doubles as the canonical cache ceiling (both are
  // default_cap of the budget headroom), so resolve it once up front.
  const double dispatch_cap = default_cap(max_cap_watts);

  // Pivot: the first ready job not waiting on an in-flight profile run of its
  // own application (only one profile run per app may be outstanding).
  std::optional<std::size_t> pivot;
  AppId pivot_app = kNoSymbol;
  for (std::size_t i = 0; i < ready; ++i) {
    const AppId app = queue.peek(i).app_id;
    if (!profiling_in_flight(app)) {
      pivot = i;
      pivot_app = app;
      break;
    }
  }
  if (!pivot.has_value()) return std::nullopt;

  DispatchPlan plan;
  plan.power_cap_watts = dispatch_cap;

  // Unprofiled pivot -> exclusive profile run.
  if (!allocator_->can_coschedule(pivot_app)) {
    set_profiling_in_flight(pivot_app, true);
    plan.job1 = queue.pop_at(*pivot);
    plan.profile_run = true;
    return plan;
  }

  // Scan the window beyond the pivot for the best acceptable partner. The
  // ceiling-stamped policy copies are built only now — the profile-run and
  // budget-starved exits above never read them — and cached in the batch
  // context keyed by the headroom they were stamped for: an unconstrained
  // batch (the common case) never stamps at all, and a budgeted batch
  // restamps only when a dispatch actually moved the headroom.
  const bool ceiled = std::isfinite(max_cap_watts);
  if (ceiled && (!batch.has_stamp_ || batch.stamped_for_ != max_cap_watts)) {
    batch.policy_ = policy_.with_ceiling(max_cap_watts);
    // Decisions are computed under the exact policy but cached under the
    // canonical ceiling, so budget headroom wobble still hits the cache.
    batch.cache_policy_ = policy_.with_ceiling(dispatch_cap);
    batch.ceiling_level_ = static_cast<std::size_t>(
        allocator_->optimizer().ceiling_level(max_cap_watts));
    batch.stamped_for_ = max_cap_watts;
    batch.has_stamp_ = true;
  }
  const core::Policy& policy = ceiled ? batch.policy_ : policy_;
  const core::Policy& cache_policy = ceiled ? batch.cache_policy_ : policy_;
  // A ceiled free-cap miss reads the pair's cap curve instead of searching:
  // the curve entry at the ceiling's level is bit-equal to the search.
  const bool from_curve = ceiled && !policy_.fixed_power_cap.has_value();
  const std::size_t window = std::min(ready, *pivot + tuning_.pairing_window + 1);
  std::optional<std::size_t> best_index;
  core::Decision best_decision;
  for (std::size_t i = *pivot + 1; i < window; ++i) {
    const Job& candidate = queue.peek(i);
    const AppId candidate_app = candidate.app_id;
    if (profiling_in_flight(candidate_app)) continue;
    if (!allocator_->can_coschedule(candidate_app)) continue;
    const core::Decision& decision = decision_cache_.get_or_compute(
        pivot_app, candidate_app, cache_policy, [&] {
          return from_curve ? cap_curve_entry(pivot_app, candidate_app,
                                              batch.ceiling_level_)
                            : allocator_->allocate(pivot_app, candidate_app, policy);
        });
    if (!pair_acceptable(queue.peek(*pivot), candidate, decision)) continue;
    if (!best_index.has_value() ||
        decision.objective_value > best_decision.objective_value) {
      best_index = i;
      best_decision = decision;
    }
  }

  if (!best_index.has_value()) {
    plan.job1 = queue.pop_at(*pivot);
    return plan;  // exclusive, no feasible partner in the window
  }

  // Pop the partner first (higher index) so the pivot index stays valid.
  plan.job2 = queue.pop_at(*best_index);
  plan.job1 = queue.pop_at(*pivot);
  plan.allocation = best_decision;
  plan.power_cap_watts = best_decision.power_cap_watts;
  return plan;
}

void CoScheduler::record_profile(AppId app, const prof::CounterSet& counters) {
  set_profiling_in_flight(app, false);
  allocator_->record_profile(allocator_->profiles().app_name(app), counters);
  // A new/updated profile changes what the allocator may answer; drop every
  // memoized decision and resync with the store's revision.
  invalidate_decisions();
}

void CoScheduler::abort_profile(const Job& job) {
  set_profiling_in_flight(job.app_id, false);
}

}  // namespace migopt::sched
