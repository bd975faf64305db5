#include "sched/coscheduler.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/assert.hpp"

namespace migopt::sched {

CoScheduler::CoScheduler(core::ResourcePowerAllocator& allocator,
                         core::Policy policy, SchedulerTuning tuning)
    : allocator_(&allocator), policy_(policy), tuning_(tuning),
      cached_profile_revision_(allocator.profiles().revision()),
      planes_(allocator.optimizer().ceiling_levels().size() + 1 +
              (policy.fixed_power_cap.has_value() ? 1 : 0)) {
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

void CoScheduler::invalidate_decisions() {
  // Stale decisions stay in place: `served` and curve_built_ gate reads.
  for (std::vector<Cell>& plane : planes_)
    for (Cell& cell : plane) cell.served = false;
  std::fill(curve_built_.begin(), curve_built_.end(), std::uint8_t{0});
  cached_profile_revision_ = allocator_->profiles().revision();
}

std::size_t CoScheduler::decision_cells() const {
  std::size_t served = 0;
  for (const std::vector<Cell>& plane : planes_)
    for (const Cell& cell : plane) served += cell.served ? 1 : 0;
  return served;
}

std::size_t CoScheduler::cap_curves() const {
  return static_cast<std::size_t>(
      std::count(curve_built_.begin(), curve_built_.end(), std::uint8_t{1}));
}

std::vector<CoScheduler::Cell>& CoScheduler::plane(std::size_t slot) {
  std::vector<Cell>& cells = planes_[slot];
  if (cells.empty()) cells.resize(stride_ * stride_);
  return cells;
}

void CoScheduler::grow_table(std::size_t needed) {
  // New apps intern rarely; round up so a registry's worth of ids re-lays
  // the table out only a few times.
  const std::size_t stride = (needed + 7) / 8 * 8;
  const auto relayout = [&](auto& table) {
    if (table.empty()) return;  // allocated on first use, at the new stride
    std::remove_reference_t<decltype(table)> grown(stride * stride);
    for (std::size_t row = 0; row < stride_; ++row)
      std::copy_n(table.begin() + row * stride_, stride_,
                  grown.begin() + row * stride);
    table = std::move(grown);
  };
  for (std::vector<Cell>& cells : planes_) relayout(cells);
  relayout(curve_built_);
  stride_ = stride;
}

const core::Decision& CoScheduler::decision(std::size_t slot, AppId pivot,
                                            AppId candidate) {
  const std::size_t needed = std::size_t{std::max(pivot, candidate)} + 1;
  if (needed > stride_) grow_table(needed);
  const std::size_t pair = pivot * stride_ + candidate;
  Cell& cell = plane(slot)[pair];
  if (cell.served) {
    ++stats_.hits;
    return cell.decision;
  }
  ++stats_.misses;
  const std::vector<double>& levels = allocator_->optimizer().ceiling_levels();
  if (slot < levels.size() && !policy_.fixed_power_cap.has_value()) {
    // Free cap under a ceiling: one curve fills every level cell of the
    // pair, each bit-equal to a search under any ceiling of its level.
    if (curve_built_.empty()) curve_built_.resize(stride_ * stride_, 0);
    if (curve_built_[pair] == 0) {
      const std::vector<core::Decision> curve =
          allocator_->allocate_all_ceilings(pivot, candidate, policy_);
      for (std::size_t level = 0; level < curve.size(); ++level)
        plane(level)[pair].decision = curve[level];
      curve_built_[pair] = 1;
    }
  } else {
    // Any headroom of the slot answers alike; search under its lowest one.
    core::Policy policy = policy_;  // unceiled slot: levels.size()
    if (slot < levels.size()) policy.power_cap_ceiling = levels[slot];
    if (slot > levels.size()) policy.power_cap_ceiling = policy_.fixed_power_cap;
    cell.decision = allocator_->allocate(pivot, candidate, policy);
  }
  cell.served = true;
  return cell.decision;
}

void CoScheduler::set_profiling_in_flight(AppId app, bool value) {
  MIGOPT_REQUIRE(app != kNoSymbol, "profiling flag for an uninterned app");
  if (profiling_in_flight_.size() <= app)
    profiling_in_flight_.resize(static_cast<std::size_t>(app) + 1, 0);
  profiling_in_flight_[app] = value ? 1 : 0;
}

void CoScheduler::begin_batch() {
  // A profile recorded through the allocator directly bumps its revision.
  if (allocator_->profiles().revision() != cached_profile_revision_)
    invalidate_decisions();
}

std::optional<DispatchPlan> CoScheduler::next(JobQueue& queue, double now,
                                              double max_cap_watts) {
  begin_batch();
  return next_in_batch(queue, now, max_cap_watts);
}

std::optional<DispatchPlan> CoScheduler::next_in_batch(JobQueue& queue,
                                                       double now,
                                                       double max_cap_watts) {
  const std::size_t ready = queue.ready_count(now);
  if (ready == 0) return std::nullopt;
  if (max_cap_watts < min_cap()) return std::nullopt;  // budget exhausted

  // The headroom picks the exclusive dispatch cap and the decision-table
  // slot. Exclusive runs execute under Problem 1's fixed cap when it fits,
  // otherwise at the largest trained cap within the headroom (one fits, see
  // above). Every headroom of one slot gets the same pairing answer: under
  // a ceiling only which grid caps fit matters, and a fixed cap that fits
  // ignores the headroom.
  const core::Optimizer& optimizer = allocator_->optimizer();
  const std::vector<double>& levels = optimizer.ceiling_levels();
  const bool fixed_fits = policy_.fixed_power_cap.has_value() &&
                          *policy_.fixed_power_cap <= max_cap_watts;
  const auto level =
      static_cast<std::size_t>(optimizer.ceiling_level(max_cap_watts));
  const std::size_t slot = !std::isfinite(max_cap_watts) ? levels.size()
                           : fixed_fits                  ? levels.size() + 1
                                                         : level;

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
  plan.power_cap_watts = fixed_fits ? *policy_.fixed_power_cap : levels[level];

  // Unprofiled pivot -> exclusive profile run.
  if (!allocator_->can_coschedule(pivot_app)) {
    set_profiling_in_flight(pivot_app, true);
    plan.job1 = queue.pop_at(*pivot);
    plan.profile_run = true;
    return plan;
  }

  // Scan the window beyond the pivot for the best acceptable partner.
  const std::size_t window = std::min(ready, *pivot + tuning_.pairing_window + 1);
  std::optional<std::size_t> best_index;
  core::Decision best_decision;
  for (std::size_t i = *pivot + 1; i < window; ++i) {
    const Job& candidate = queue.peek(i);
    const AppId candidate_app = candidate.app_id;
    if (profiling_in_flight(candidate_app)) continue;
    if (!allocator_->can_coschedule(candidate_app)) continue;
    const core::Decision& answer = decision(slot, pivot_app, candidate_app);
    if (!pair_acceptable(queue.peek(*pivot), candidate, answer)) continue;
    if (!best_index.has_value() ||
        answer.objective_value > best_decision.objective_value) {
      best_index = i;
      best_decision = answer;
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
  // served cell and resync with the store's revision.
  invalidate_decisions();
}

void CoScheduler::abort_profile(const Job& job) {
  set_profiling_in_flight(job.app_id, false);
}

}  // namespace migopt::sched
