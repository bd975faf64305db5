// CoScheduler's decision table: hit counting, clearing, and bit-equality of
// every served cell with a fresh search under the probe's exact policy. The
// DecisionCache suite shares its name with the decision_cache_* counters.
#include "sched/coscheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "profiling/profiler.hpp"
#include "test_util.hpp"
#include "trace/presets.hpp"

namespace migopt::sched {
namespace {

using test::expect_bit_equal;

constexpr double kInf = std::numeric_limits<double>::infinity();

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

Job make_job(CoScheduler& scheduler, int id, const std::string& app) {
  Job job;
  job.id = id;
  job.app_id = scheduler.intern_app(app);
  job.kernel = &test::shared_registry().by_name(app).kernel;
  job.work_units = 100.0;
  return job;
}

prof::CounterSet profile_of(const std::string& app) {
  return prof::profile_run(test::shared_chip(),
                           test::shared_registry().by_name(app).kernel);
}

/// Dispatch (app1, app2) from a fresh two-job queue under `headroom`.
std::optional<DispatchPlan> dispatch_pair(CoScheduler& scheduler,
                                          const std::string& app1,
                                          const std::string& app2,
                                          double headroom = kInf) {
  JobQueue queue;
  queue.push(make_job(scheduler, 0, app1));
  queue.push(make_job(scheduler, 1, app2));
  return scheduler.next(queue, 0.0, headroom);
}

SchedulerTuning pair_everything() {
  SchedulerTuning tuning;
  tuning.min_pair_speedup = 0.0;  // every feasible decision pairs
  return tuning;
}

void expect_counts(const CoScheduler& scheduler, std::size_t hits,
                   std::size_t misses) {
  EXPECT_EQ(scheduler.decision_stats().hits, hits);
  EXPECT_EQ(scheduler.decision_stats().misses, misses);
}

}  // namespace

TEST(DecisionCache, HitReturnsTheMemoizedDecisionUnchanged) {
  auto allocator = make_allocator();
  const core::Policy policy = core::Policy::problem2(0.2);
  CoScheduler scheduler(allocator, policy, pair_everything());
  const auto first = dispatch_pair(scheduler, "igemm4", "stream");
  const auto second = dispatch_pair(scheduler, "igemm4", "stream");
  ASSERT_TRUE(first.has_value() && first->job2.has_value());
  ASSERT_TRUE(second.has_value() && second->job2.has_value());
  expect_counts(scheduler, 1, 1);
  EXPECT_EQ(scheduler.decision_cells(), 1u);
  expect_bit_equal(second->allocation,
                   allocator.allocate("igemm4", "stream", policy));
  expect_bit_equal(first->allocation, second->allocation);
}

TEST(DecisionCache, KeyIsOrderAndPolicySensitive) {
  // A cell is (pivot, candidate, slot): member order and the headroom's
  // slot are part of its identity, headroom wobble within a slot is not.
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2),
                        pair_everything());
  dispatch_pair(scheduler, "igemm4", "stream", kInf);
  dispatch_pair(scheduler, "stream", "igemm4", kInf);
  dispatch_pair(scheduler, "igemm4", "stream", 251.0);
  dispatch_pair(scheduler, "igemm4", "stream", 211.0);
  dispatch_pair(scheduler, "igemm4", "stream", 259.0);  // 251 W's level
  dispatch_pair(scheduler, "stream", "igemm4", 1.0e9);  // ceiled, not inf
  expect_counts(scheduler, 1, 5);
  EXPECT_EQ(scheduler.decision_cells(), 5u);

  // A fixed-cap policy has one more slot, "the fixed cap fits the
  // headroom": inf | {230, 245, 1e9} | {229, 215} (the 210 W level).
  CoScheduler fixed(allocator, core::Policy::problem1(230.0, 0.2),
                    pair_everything());
  for (const double headroom : {kInf, 230.0, 245.0, 1.0e9, 229.0, 215.0})
    dispatch_pair(fixed, "igemm4", "stream", headroom);
  expect_counts(fixed, 3, 3);
}

TEST(DecisionCache, InternedKeysMatchStringIdentityExactly) {
  // Interning is injective, so two distinct names never share a cell — and
  // re-interning the same name always lands on the same one.
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2),
                        pair_everything());
  for (const char* a : {"igemm4", "stream", "igemm4"})
    for (const char* b : {"stream", "kmeans"}) dispatch_pair(scheduler, a, b);
  expect_counts(scheduler, 2, 4);  // 6 probes over 4 distinct pairs
  EXPECT_EQ(scheduler.decision_cells(), 4u);
}

TEST(DecisionCache, InvalidateDropsEntriesAndCounts) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2),
                        pair_everything());
  dispatch_pair(scheduler, "igemm4", "stream");
  dispatch_pair(scheduler, "igemm4", "stream", 251.0);
  EXPECT_EQ(scheduler.decision_cells(), 2u);
  scheduler.record_profile(scheduler.intern_app("fresh-app"),
                           profile_of("lud"));
  EXPECT_EQ(scheduler.decision_cells(), 0u);
  EXPECT_EQ(scheduler.cap_curves(), 0u);
  dispatch_pair(scheduler, "igemm4", "stream", 251.0);  // served, then cleared
  expect_counts(scheduler, 0, 3);
}

TEST(DecisionCache, HitsAndMissesMatchAnUnboundedSetOverTheOldKey) {
  // Hits and misses must be those of a std::set over the retired cache's
  // key (pivot, candidate, ceiling rounded down to the dispatch cap). A
  // budget-walk trace keeps the queue deeper than the window; the headroom,
  // a node's share of the budget (25 W steps) plus a [-9, +12] W wobble,
  // crosses levels and both sides of the fixed cap and of 250 W.
  const int nodes = 4;
  const std::size_t window = SchedulerTuning{}.pairing_window;
  const trace::Trace job_trace = trace::make_regime_trace(
      trace::ReplayRegime::BudgetWalk, 3000, nodes, 7,
      test::shared_registry().names());
  for (const core::Policy& policy :
       {trace::regime_policy(trace::ReplayRegime::BudgetWalk),
        core::Policy::problem1(230.0, 0.2)}) {
    auto allocator = make_allocator();
    const std::vector<double>& levels = allocator.optimizer().ceiling_levels();
    CoScheduler scheduler(allocator, policy);
    std::set<std::tuple<AppId, AppId, double>> served;  // inf = unceiled
    std::set<double> ceilings;
    std::size_t hits = 0;
    std::size_t misses = 0;
    double headroom = kInf;
    JobQueue queue;
    int id = 0;
    for (const trace::TraceEvent& event : job_trace.events) {
      if (event.kind == trace::EventKind::PowerBudget) {
        headroom = event.budget_watts > 0.0 ? event.budget_watts / nodes : kInf;
        continue;
      }
      queue.push(make_job(scheduler, id++, event.app));
      while (queue.size() > 2 * window) {
        const double room = headroom + 3.0 * (id % 8) - 9.0;
        if (room < levels.front()) break;
        const AppId pivot = queue.peek(0).app_id;
        const double ceiling =
            !std::isfinite(room) ? kInf
            : policy.fixed_power_cap.value_or(kInf) <= room
                ? *policy.fixed_power_cap
                : levels[static_cast<std::size_t>(
                      allocator.optimizer().ceiling_level(room))];
        for (std::size_t i = 1; i <= window; ++i) {
          const AppId candidate = queue.peek(i).app_id;
          if (!allocator.can_coschedule(pivot) ||
              !allocator.can_coschedule(candidate))
            continue;
          ceilings.insert(ceiling);
          ++(served.insert({pivot, candidate, ceiling}).second ? misses : hits);
        }
        const auto plan = scheduler.next(queue, 0.0, room);
        ASSERT_TRUE(plan.has_value());
        if (!plan->profile_run) continue;
        const AppId app = plan->job1.app_id;
        scheduler.record_profile(app, profile_of(scheduler.app_name(app)));
        served.clear();
      }
    }
    expect_counts(scheduler, hits, misses);
    EXPECT_EQ(scheduler.decision_cells(), served.size());
    EXPECT_GT(hits, misses);
    EXPECT_GE(ceilings.size(), 5u);  // the walk crossed ceiling levels
  }
}

TEST(CoSchedulerCache, RepeatedDispatchHitsTheCache) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  const auto first = dispatch_pair(scheduler, "igemm4", "stream");
  const auto second = dispatch_pair(scheduler, "igemm4", "stream");
  ASSERT_TRUE(first.has_value() && first->job2.has_value());
  ASSERT_TRUE(second.has_value() && second->job2.has_value());
  expect_counts(scheduler, 1, 1);
  expect_bit_equal(second->allocation, first->allocation);
}

TEST(CoSchedulerCache, RecordProfileInvalidates) {
  auto allocator = make_allocator();
  const core::Policy policy = core::Policy::problem1(230.0, 0.2);
  CoScheduler scheduler(allocator, policy);
  ASSERT_TRUE(dispatch_pair(scheduler, "igemm4", "stream").has_value());
  EXPECT_EQ(scheduler.decision_cells(), 1u);
  scheduler.record_profile(scheduler.intern_app("fresh-app"),
                           profile_of("lud"));
  EXPECT_EQ(scheduler.decision_cells(), 0u);

  // Post-invalidation decisions still equal a fresh allocator search.
  const auto plan = dispatch_pair(scheduler, "igemm4", "stream");
  ASSERT_TRUE(plan.has_value() && plan->job2.has_value());
  EXPECT_EQ(scheduler.decision_cells(), 1u);
  expect_counts(scheduler, 0, 2);
  expect_bit_equal(plan->allocation,
                   allocator.allocate("igemm4", "stream", policy));
}

TEST(CoSchedulerCache, BudgetCeilingWobbleStillHitsTheCache) {
  // Under a cluster power budget the headroom ceiling varies continuously;
  // ceilings admitting the same trained caps must share one cell, while the
  // dispatched decision stays identical to an exact fresh search.
  auto allocator = make_allocator();
  const core::Policy policy = core::Policy::problem2(0.2);
  CoScheduler scheduler(allocator, policy, pair_everything());
  const auto first = dispatch_pair(scheduler, "igemm4", "stream", 251.3);
  ASSERT_TRUE(first.has_value() && first->job2.has_value());
  const auto plan = dispatch_pair(scheduler, "igemm4", "stream", 260.7);
  ASSERT_TRUE(plan.has_value() && plan->job2.has_value());
  expect_counts(scheduler, 1, 1);
  expect_bit_equal(plan->allocation,
                   allocator.allocate("igemm4", "stream",
                                      policy.with_ceiling(260.7)));
}

TEST(CoSchedulerCache, DirectAllocatorMutationIsDetectedByRevision) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  dispatch_pair(scheduler, "igemm4", "stream");
  dispatch_pair(scheduler, "kmeans", "stream");
  EXPECT_EQ(scheduler.decision_cells(), 2u);

  // Recording through the allocator (bypassing the scheduler) bumps the
  // profile store's revision; the next dispatch must clear the table first.
  allocator.record_profile("side-channel-app", profile_of("lud"));
  dispatch_pair(scheduler, "igemm4", "stream");
  EXPECT_EQ(scheduler.decision_cells(), 1u);
  expect_counts(scheduler, 0, 3);
}

TEST(CoSchedulerCapCurves, MemoPathMatchesAFreshSearchForEveryRegistryPair) {
  // Every served cell must equal a fresh search under the probe's exact
  // policy, for every ordered registry pair and every kind of slot. Free-cap
  // policies (both objectives, a fairness margin) fill their ceiled cells
  // from the pair's cap curve; fixed caps (trained grid caps) have a "fits"
  // cell for headrooms at or above the cap and degrade to the best trained
  // cap below it. Headrooms lie on, between, below and above the levels,
  // plus unceiled; each is probed twice, so the second probe reads the
  // served cell back. A feasible decision pairs bit-equal to the fresh
  // one; an infeasible one leaves the pivot exclusive.
  auto allocator = make_allocator();
  const std::vector<double>& levels = allocator.optimizer().ceiling_levels();
  std::vector<double> headrooms = {levels.front() - 1.0, kInf,
                                   levels.back() + 40.0};
  for (std::size_t k = 0; k < levels.size(); ++k) {
    headrooms.push_back(levels[k]);
    if (k + 1 < levels.size())
      headrooms.push_back(0.5 * (levels[k] + levels[k + 1]));
  }
  std::vector<core::Policy> policies = {core::Policy::problem2(0.2),
                                        core::Policy::problem2(0.2),
                                        core::Policy::problem1(230.0, 0.2),
                                        core::Policy::problem1(170.0, 0.2)};
  policies[0].objective = core::PolicyObjective::Throughput;
  policies[0].fairness_margin = policies[1].fairness_margin = 0.05;

  std::size_t paired = 0;
  std::size_t exclusive = 0;
  for (const core::Policy& policy : policies) {
    CoScheduler scheduler(allocator, policy, pair_everything());
    std::size_t probes = 0;
    for (const auto& pivot : test::shared_registry().all()) {
      for (const auto& partner : test::shared_registry().all()) {
        const std::string& app1 = pivot.kernel.name;
        const std::string& app2 = partner.kernel.name;
        for (int round = 0; round < 2; ++round) {
          for (const double headroom : headrooms) {
            SCOPED_TRACE(app1 + "+" + app2 + " @ " + std::to_string(headroom) +
                         " fixed " +
                         std::to_string(policy.fixed_power_cap.value_or(0.0)));
            const auto plan = dispatch_pair(scheduler, app1, app2, headroom);
            if (headroom < levels.front()) {
              EXPECT_FALSE(plan.has_value());  // budget below every cap
              continue;
            }
            ++probes;
            ASSERT_TRUE(plan.has_value());
            const core::Decision fresh = allocator.allocate(
                app1, app2,
                std::isfinite(headroom) ? policy.with_ceiling(headroom)
                                        : policy);
            ASSERT_EQ(plan->job2.has_value(), fresh.feasible);
            ++(fresh.feasible ? paired : exclusive);
            if (!fresh.feasible) continue;
            expect_bit_equal(plan->allocation, fresh);
            EXPECT_EQ(plan->power_cap_watts, fresh.power_cap_watts);
          }
        }
      }
    }
    // Each cell missed once, when first served; the second round all hits.
    EXPECT_EQ(scheduler.decision_stats().misses, scheduler.decision_cells());
    EXPECT_EQ(scheduler.decision_stats().hits +
                  scheduler.decision_stats().misses,
              probes);
    EXPECT_GE(scheduler.decision_stats().hits, probes / 2);
    // Only free-cap policies build curves.
    EXPECT_EQ(scheduler.cap_curves() > 0, !policy.fixed_power_cap.has_value());
  }
  EXPECT_GT(paired, 0u);
  EXPECT_GT(exclusive, 0u);
}

TEST(CoSchedulerCapCurves, RecordProfileAndRevisionBumpDropTheCurves) {
  auto allocator = make_allocator();
  const core::Policy policy = core::Policy::problem2(0.2);
  CoScheduler scheduler(allocator, policy, pair_everything());
  const auto dispatch = [&](double ceiling) {
    return dispatch_pair(scheduler, "igemm4", "stream", ceiling);
  };

  ASSERT_TRUE(dispatch(251.0).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);
  // Unconstrained probes search directly and build no curve.
  ASSERT_TRUE(dispatch(kInf).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);

  scheduler.record_profile(scheduler.intern_app("fresh-app"),
                           profile_of("lud"));
  EXPECT_EQ(scheduler.cap_curves(), 0u);

  // Rebuild the curve, then re-profile a pair member behind the scheduler's
  // back. The 211 W cell was filled by the curve but never served, so only
  // a dropped curve makes the probe match a fresh search.
  ASSERT_TRUE(dispatch(251.0).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);
  const core::Decision before =
      allocator.allocate("igemm4", "stream", policy.with_ceiling(211.0));
  allocator.record_profile("igemm4", profile_of("sgemm"));
  const core::Decision after =
      allocator.allocate("igemm4", "stream", policy.with_ceiling(211.0));
  ASSERT_NE(before.predicted.relperf_app1, after.predicted.relperf_app1);
  ASSERT_TRUE(after.feasible);
  const auto plan = dispatch(211.0);
  ASSERT_TRUE(plan.has_value() && plan->job2.has_value());
  expect_bit_equal(plan->allocation, after);
  EXPECT_EQ(scheduler.cap_curves(), 1u);  // dropped, then rebuilt once
}

}  // namespace migopt::sched
