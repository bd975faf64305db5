#include "trace/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "report_equality.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"

namespace migopt::trace {
namespace {

Trace fleet_trace(std::size_t jobs, std::uint64_t seed, int tenants = 6) {
  ArrivalConfig config;
  config.jobs = jobs;
  config.arrival_rate_hz = 0.5;
  config.tenant_count = tenants;
  return make_arrival_trace(config, test::shared_registry().names(), seed);
}

FleetConfig small_fleet(int clusters, int nodes) {
  FleetConfig config;
  config.cluster_count = clusters;
  config.cluster.node_count = nodes;
  return config;
}

/// A RoutePlan materialized into standalone per-cluster shard traces (event
/// copies). Replay iterates the plan in place; the materialized shards are
/// the oracle the zero-copy replay is held against, and the plain Traces
/// they produce make the routing tests easy to state.
struct ShardedTrace {
  std::vector<Trace> shards;  ///< one per cluster, time order preserved
  RouterStats router;
};

ShardedTrace route(const FleetEngine& engine, const Trace& fleet_trace) {
  const RoutePlan plan = engine.plan(fleet_trace);
  ShardedTrace sharded;
  sharded.router = plan.router;
  sharded.shards.resize(plan.steps.size());
  for (std::size_t c = 0; c < plan.steps.size(); ++c) {
    Trace& shard = sharded.shards[c];
    shard.events.reserve(plan.steps[c].size());
    for (const std::uint32_t step : plan.steps[c]) {
      if (step & RoutedShard::kShareBit) {
        const BudgetShare& share = plan.shares[step & ~RoutedShard::kShareBit];
        shard.events.push_back(
            TraceEvent::budget(share.time_seconds, share.watts));
      } else {
        shard.events.push_back(fleet_trace.events[step]);
      }
    }
  }
  return sharded;
}

// ---------------------------------------------------------------------------
// FleetRouter unit tests — the load model and each placement policy, driven
// directly so the expectations are exact.
// ---------------------------------------------------------------------------

TEST(FleetRouter, RoundRobinCyclesClusters) {
  RouterConfig config;
  config.policy = RouterPolicy::RoundRobin;
  FleetRouter router(config, 4, 2);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(router.route(/*tenant_key=*/99, /*now=*/0.0, 1.0), i % 4);
  EXPECT_EQ(router.stats().decisions, 8u);
  for (std::size_t jobs : router.stats().jobs_per_cluster)
    EXPECT_EQ(jobs, 2u);
}

TEST(FleetRouter, AffinityIsStablePerTenantKey) {
  RouterConfig config;
  config.policy = RouterPolicy::TenantAffinity;
  config.affinity_salt = 7;
  FleetRouter router(config, 8, 2);
  for (std::uint64_t key : {1ull, 42ull, 0xdeadbeefull}) {
    const int home = router.route(key, 0.0, 1.0);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(router.route(key, 0.0, 1.0), home);
  }
  EXPECT_EQ(router.stats().spills, 0u);
}

TEST(FleetRouter, AffinitySpillsWhenHomeDelayExceedsThreshold) {
  RouterConfig config;
  config.policy = RouterPolicy::TenantAffinity;
  config.affinity_salt = 7;
  config.spill_delay_seconds = 10.0;
  FleetRouter router(config, 4, 1);
  const int home = router.route(5, 0.0, 20.0);  // backlog was 0 → no spill
  EXPECT_EQ(router.stats().spills, 0u);
  // Home now carries 20 s of backlog on 1 node: 20 s delay > 10 s threshold,
  // so the same tenant spills to the least-loaded cluster.
  const int spilled = router.route(5, 0.0, 20.0);
  EXPECT_NE(spilled, home);
  EXPECT_EQ(router.stats().spills, 1u);
}

TEST(FleetRouter, LeastLoadedPicksSmallestBacklog) {
  RouterConfig config;
  config.policy = RouterPolicy::LeastLoaded;
  FleetRouter router(config, 3, 1);
  // Each decision lands on the emptiest cluster; ties break to lowest index.
  EXPECT_EQ(router.route(0, 0.0, 5.0), 0);
  EXPECT_EQ(router.route(0, 0.0, 5.0), 1);
  EXPECT_EQ(router.route(0, 0.0, 5.0), 2);
  EXPECT_EQ(router.route(0, 0.0, 5.0), 0);
}

TEST(FleetRouter, BacklogDrainsAtNodeCapacity) {
  RouterConfig config;
  config.policy = RouterPolicy::LeastLoaded;
  FleetRouter router(config, 2, 2);
  router.route(0, 0.0, 12.0);  // cluster 0: 12 s of work on 2 nodes
  EXPECT_DOUBLE_EQ(router.estimated_delay_seconds(0, 0.0), 6.0);
  // After 3 s the 2 nodes have retired 6 s of the work: 6 s left, 3 s delay.
  EXPECT_DOUBLE_EQ(router.estimated_delay_seconds(0, 3.0), 3.0);
  // Far in the future the backlog is fully drained, never negative.
  EXPECT_DOUBLE_EQ(router.estimated_delay_seconds(0, 100.0), 0.0);
}

TEST(FleetRouter, UniformSplitSharesEqually) {
  RouterConfig config;
  FleetRouter router(config, 4, 2);
  const auto shares = router.split_budget(1000.0, PowerSplit::Uniform, 0.0);
  ASSERT_EQ(shares.size(), 4u);
  for (double share : shares) EXPECT_DOUBLE_EQ(share, 250.0);
  EXPECT_EQ(router.stats().budget_splits, 1u);
}

TEST(FleetRouter, DemandSplitFollowsBacklogAndSumsToBudget) {
  RouterConfig config;
  config.policy = RouterPolicy::LeastLoaded;
  FleetRouter router(config, 4, 1);
  router.route(0, 0.0, 100.0);  // all demand on cluster 0
  const auto shares =
      router.split_budget(1000.0, PowerSplit::DemandProportional, 0.0);
  ASSERT_EQ(shares.size(), 4u);
  // Idle clusters keep the floor — a quarter of the uniform share — and the
  // loaded cluster absorbs everything else.
  const double floor = 0.25 * 1000.0 / 4.0;
  EXPECT_DOUBLE_EQ(shares[1], floor);
  EXPECT_DOUBLE_EQ(shares[2], floor);
  EXPECT_DOUBLE_EQ(shares[3], floor);
  EXPECT_GT(shares[0], shares[1]);
  EXPECT_DOUBLE_EQ(std::accumulate(shares.begin(), shares.end(), 0.0), 1000.0);
}

TEST(FleetRouter, DemandSplitOfIdleFleetIsUniform) {
  RouterConfig config;
  FleetRouter router(config, 5, 2);
  const auto shares =
      router.split_budget(500.0, PowerSplit::DemandProportional, 0.0);
  for (double share : shares) EXPECT_DOUBLE_EQ(share, 100.0);
}

TEST(FleetRouter, PolicyAndSplitNamesRoundTrip) {
  for (RouterPolicy policy : {RouterPolicy::RoundRobin,
                              RouterPolicy::TenantAffinity,
                              RouterPolicy::LeastLoaded})
    EXPECT_EQ(parse_router_policy(router_policy_name(policy)), policy);
  for (PowerSplit split :
       {PowerSplit::Uniform, PowerSplit::DemandProportional})
    EXPECT_EQ(parse_power_split(power_split_name(split)), split);
  EXPECT_FALSE(parse_router_policy("banana").has_value());
  EXPECT_FALSE(parse_power_split("banana").has_value());
}

// ---------------------------------------------------------------------------
// FleetEngine::plan — the admission pre-pass as pure data.
// ---------------------------------------------------------------------------

TEST(FleetEngine, RoutePartitionsEveryArrivalExactlyOnce) {
  const Trace trace = fleet_trace(300, 21);
  FleetEngine engine(small_fleet(4, 2));
  const auto sharded = route(engine, trace);
  ASSERT_EQ(sharded.shards.size(), 4u);
  std::size_t routed = 0;
  for (const Trace& shard : sharded.shards) {
    shard.validate();  // still time-ordered per shard
    routed += shard.job_count();
  }
  EXPECT_EQ(routed, trace.job_count());
  EXPECT_EQ(sharded.router.decisions, trace.job_count());
  EXPECT_EQ(std::accumulate(sharded.router.jobs_per_cluster.begin(),
                            sharded.router.jobs_per_cluster.end(),
                            std::size_t{0}),
            trace.job_count());
}

TEST(FleetEngine, FleetBudgetEventsFanOutToEveryShard) {
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 400.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "t0", "sgemm", 10.0));
  trace.events.push_back(TraceEvent::arrival(2.0, "t1", "stream", 10.0));
  trace.events.push_back(TraceEvent::budget(5.0, 0.0));  // lift

  FleetConfig config = small_fleet(2, 1);
  config.router.policy = RouterPolicy::RoundRobin;
  FleetEngine engine(config);
  const auto sharded = route(engine, trace);
  // Only the 400 W contract is *split*; the lift is a passthrough, not a
  // fan-out of shares.
  EXPECT_EQ(sharded.router.budget_splits, 1u);
  for (const Trace& shard : sharded.shards) {
    ASSERT_EQ(shard.budget_event_count(), 2u);
    // The 400 W contract splits uniformly (the fleet is idle at t=0)...
    EXPECT_DOUBLE_EQ(shard.events.front().budget_watts, 200.0);
    // ...and the lift passes through to every cluster untouched.
    EXPECT_LE(shard.events.back().budget_watts, 0.0);
    EXPECT_DOUBLE_EQ(shard.events.back().time_seconds, 5.0);
  }
}

TEST(FleetEngine, ConfiguredFleetBudgetIsPrependedAtTimeZero) {
  const Trace trace = fleet_trace(40, 3);
  FleetConfig config = small_fleet(4, 1);
  config.fleet_power_budget_watts = 800.0;
  FleetEngine engine(config);
  const auto sharded = route(engine, trace);
  for (const Trace& shard : sharded.shards) {
    ASSERT_FALSE(shard.events.empty());
    EXPECT_EQ(shard.events.front().kind, EventKind::PowerBudget);
    EXPECT_DOUBLE_EQ(shard.events.front().time_seconds, 0.0);
    EXPECT_DOUBLE_EQ(shard.events.front().budget_watts, 200.0);
  }
}

// ---------------------------------------------------------------------------
// The pipelined pre-pass: plan() validates, interns and compacts the trace in
// FleetEngine::kPlanChunkEvents chunks on helper threads while the caller
// routes. Its output and its errors must not depend on the thread count.
// ---------------------------------------------------------------------------

constexpr std::size_t kChunk = FleetEngine::kPlanChunkEvents;

/// Several plan chunks of arrivals with fleet budget events (split and
/// lifted) mixed in, and a tenant that first appears in the third chunk.
Trace multi_chunk_trace() {
  Trace arrivals = fleet_trace(3 * kChunk + 700, 21);
  for (std::size_t i = 2 * kChunk + 100; i < arrivals.events.size(); i += 97)
    arrivals.events[i].tenant = "late-tenant";
  Trace budgets;
  const double horizon = arrivals.horizon_seconds();
  for (int k = 0; k < 24; ++k)
    budgets.events.push_back(TraceEvent::budget(
        horizon * k / 24.0, k % 5 == 4 ? 0.0 : 1500.0 + 40.0 * k));
  return Trace::merge(arrivals, budgets);
}

TEST(FleetEngine, PlanIsIdenticalAcrossThreadCounts) {
  const Trace trace = multi_chunk_trace();
  ASSERT_GT(trace.events.size(), 3 * kChunk);
  FleetConfig config = small_fleet(4, 2);
  config.router.spill_delay_seconds = 120.0;
  config.power_split = PowerSplit::DemandProportional;
  config.seed = 5;
  config.threads = 1;
  const RoutePlan serial = FleetEngine(config).plan(trace);

  // Fleet tenant ids are first-appearance ids over the whole trace.
  SymbolTable expected;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    const Symbol id = event.kind == EventKind::JobArrival
                          ? expected.intern(event.tenant)
                          : kNoSymbol;
    ASSERT_EQ(serial.event_tenants[i], id) << "event " << i;
  }
  ASSERT_EQ(serial.tenant_names.size(), expected.size());
  EXPECT_EQ(serial.tenant_names.back(), "late-tenant");
  EXPECT_GT(serial.router.budget_splits, 0u);

  for (const std::size_t threads : {2u, 4u, 16u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    const RoutePlan plan = FleetEngine(config).plan(trace);
    EXPECT_EQ(plan.steps, serial.steps);
    ASSERT_EQ(plan.shares.size(), serial.shares.size());
    for (std::size_t i = 0; i < plan.shares.size(); ++i) {
      EXPECT_EQ(plan.shares[i].time_seconds, serial.shares[i].time_seconds);
      EXPECT_EQ(plan.shares[i].watts, serial.shares[i].watts);
    }
    EXPECT_EQ(plan.event_tenants, serial.event_tenants);
    EXPECT_EQ(plan.tenant_names, serial.tenant_names);
    EXPECT_EQ(plan.shard_jobs, serial.shard_jobs);
    EXPECT_EQ(plan.router.decisions, serial.router.decisions);
    EXPECT_EQ(plan.router.spills, serial.router.spills);
    EXPECT_EQ(plan.router.jobs_per_cluster, serial.router.jobs_per_cluster);
    EXPECT_EQ(plan.router.budget_splits, serial.router.budget_splits);
    EXPECT_EQ(plan.router.outage_readmissions,
              serial.router.outage_readmissions);
  }
}

std::string validate_error(const Trace& trace) {
  try {
    trace.validate();
  } catch (const ContractViolation& error) {
    return error.what();
  }
  return "";
}

std::string plan_error(const Trace& trace, std::size_t threads) {
  FleetConfig config = small_fleet(3, 2);
  config.threads = threads;
  try {
    FleetEngine(config).plan(trace);
  } catch (const ContractViolation& error) {
    return error.what();
  }
  return "";
}

TEST(FleetEngine, PlanThrowsTheFirstInvalidEventLikeTraceValidate) {
  const Trace valid = fleet_trace(3 * kChunk + 10, 8);
  // An unsorted pair straddling the first chunk boundary.
  Trace unsorted = valid;
  unsorted.events[kChunk].time_seconds =
      unsorted.events[kChunk - 1].time_seconds - 0.5;
  // An arrival without an app in the third chunk.
  Trace no_app = valid;
  no_app.events[2 * kChunk + 5].app.clear();
  // Both: the earlier event (by index) is the one reported.
  Trace both = unsorted;
  both.events[2 * kChunk + 5].app.clear();

  for (const Trace* trace : {&unsorted, &no_app, &both}) {
    const std::string expected = validate_error(*trace);
    ASSERT_FALSE(expected.empty());
    for (const std::size_t threads : {1u, 2u, 4u})
      EXPECT_EQ(plan_error(*trace, threads), expected)
          << "threads " << threads;
  }
  EXPECT_NE(validate_error(unsorted).find("sorted by time"),
            std::string::npos);
  EXPECT_NE(validate_error(no_app).find("without an app name"),
            std::string::npos);
  EXPECT_EQ(validate_error(both), validate_error(unsorted));
  EXPECT_EQ(plan_error(valid, 2), "");

  // replay() routes first, so it fails the same way before any shard runs.
  FleetConfig config = small_fleet(3, 2);
  config.threads = 2;
  try {
    FleetEngine(config).replay(no_app);
    FAIL() << "replay accepted an arrival without an app";
  } catch (const ContractViolation& error) {
    EXPECT_EQ(std::string(error.what()), validate_error(no_app));
  }
}

TEST(FleetEngine, ConfigContracts) {
  EXPECT_THROW(FleetEngine{small_fleet(0, 2)}, ContractViolation);
  FleetConfig no_threads = small_fleet(2, 2);
  no_threads.threads = 0;
  EXPECT_THROW(FleetEngine{no_threads}, ContractViolation);
  FleetConfig bad_budget = small_fleet(2, 2);
  bad_budget.fleet_power_budget_watts = -5.0;
  EXPECT_THROW(FleetEngine{bad_budget}, ContractViolation);
}

// ---------------------------------------------------------------------------
// FleetEngine::replay — determinism is the contract: any thread count is
// bit-identical to serial, and a 1-cluster fleet is bit-identical to a
// standalone SimEngine replay.
// ---------------------------------------------------------------------------

void expect_reports_identical(const FleetReport& a, const FleetReport& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.pair_dispatches, b.pair_dispatches);
  EXPECT_EQ(a.exclusive_dispatches, b.exclusive_dispatches);
  EXPECT_EQ(a.profile_runs, b.profile_runs);
  EXPECT_EQ(a.decision_cache_hits, b.decision_cache_hits);
  EXPECT_EQ(a.decision_cache_misses, b.decision_cache_misses);
  EXPECT_EQ(a.run_memo_hits, b.run_memo_hits);
  EXPECT_EQ(a.run_memo_misses, b.run_memo_misses);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  // Bit-exact doubles — the merge folds in cluster-index order regardless of
  // which worker finished first, so == is the right comparison.
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.peak_cap_sum_watts, b.peak_cap_sum_watts);
  EXPECT_EQ(a.mean_queue_wait_seconds, b.mean_queue_wait_seconds);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.aggregate_jobs_per_hour, b.aggregate_jobs_per_hour);
  EXPECT_EQ(a.shard_seeds, b.shard_seeds);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].jobs_submitted, b.clusters[c].jobs_submitted);
    EXPECT_EQ(a.clusters[c].cluster.makespan_seconds,
              b.clusters[c].cluster.makespan_seconds);
    EXPECT_EQ(a.clusters[c].cluster.total_energy_joules,
              b.clusters[c].cluster.total_energy_joules);
    EXPECT_EQ(a.clusters[c].mean_slowdown, b.clusters[c].mean_slowdown);
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_EQ(a.tenants[i].jobs_completed, b.tenants[i].jobs_completed);
    EXPECT_EQ(a.tenants[i].mean_queue_wait_seconds,
              b.tenants[i].mean_queue_wait_seconds);
    EXPECT_EQ(a.tenants[i].mean_slowdown, b.tenants[i].mean_slowdown);
  }
}

TEST(FleetEngine, ReplayIsBitIdenticalAcrossThreadCounts) {
  const Trace trace = fleet_trace(240, 13);
  FleetConfig config = small_fleet(4, 2);
  config.router.policy = RouterPolicy::TenantAffinity;
  config.router.spill_delay_seconds = 120.0;
  config.fleet_power_budget_watts = 2000.0;
  config.power_split = PowerSplit::DemandProportional;
  config.seed = 77;

  config.threads = 1;
  const FleetReport serial = FleetEngine(config).replay(trace);
  EXPECT_EQ(serial.jobs_completed, trace.job_count());

  for (std::size_t threads : {4u, 16u}) {
    config.threads = threads;
    expect_reports_identical(serial, FleetEngine(config).replay(trace));
  }
}

TEST(FleetEngine, SkewedAffinityFleetReplaysIdenticallyAcrossThreadCounts) {
  // Three tenants pinned to their home clusters (no spillover) leave the
  // shards uneven, so the longest-first fan-out order differs from index
  // order; results must still land and merge by cluster index.
  const Trace trace = fleet_trace(300, 31, /*tenants=*/3);
  FleetConfig config = small_fleet(5, 2);
  config.router.policy = RouterPolicy::TenantAffinity;
  config.router.spill_delay_seconds = 0.0;
  config.seed = 9;
  config.threads = 1;

  const RoutePlan plan = FleetEngine(config).plan(trace);
  std::vector<std::size_t> order(plan.shard_jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.shard_jobs[a] > plan.shard_jobs[b];
                   });
  ASSERT_NE(order.front(), 0u) << "the test needs a reordering fleet";

  const FleetReport serial = FleetEngine(config).replay(trace);
  EXPECT_EQ(serial.jobs_completed, trace.job_count());
  for (const std::size_t threads : {2u, 4u}) {
    config.threads = threads;
    expect_reports_identical(serial, FleetEngine(config).replay(trace));
  }
}

TEST(FleetEngine, OneClusterFleetMatchesStandaloneReplay) {
  const Trace trace = fleet_trace(150, 5);
  FleetConfig config = small_fleet(1, 4);
  const FleetReport fleet = FleetEngine(config).replay(trace);

  // The standalone side rebuilds exactly the environment each shard gets:
  // a default chip, its registry, a table-8-trained allocator, and the
  // fleet's policy/tuning.
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, config.policy, config.tuning);
  sched::Cluster cluster(config.cluster);
  const SimReport solo =
      SimEngine(config.sim).replay(trace, registry, cluster, scheduler);

  ASSERT_EQ(fleet.clusters.size(), 1u);
  EXPECT_EQ(fleet.jobs_completed, solo.cluster.jobs_completed);
  EXPECT_EQ(fleet.makespan_seconds, solo.cluster.makespan_seconds);
  EXPECT_EQ(fleet.total_energy_joules, solo.cluster.total_energy_joules);
  EXPECT_EQ(fleet.pair_dispatches, solo.cluster.pair_dispatches);
  EXPECT_EQ(fleet.mean_queue_wait_seconds, solo.mean_queue_wait_seconds);
  EXPECT_EQ(fleet.mean_slowdown, solo.mean_slowdown);
  EXPECT_EQ(fleet.aggregate_jobs_per_hour, solo.jobs_per_hour);
  ASSERT_EQ(fleet.tenants.size(), solo.tenants.size());
  for (std::size_t i = 0; i < solo.tenants.size(); ++i) {
    EXPECT_EQ(fleet.tenants[i].tenant, solo.tenants[i].tenant);
    EXPECT_EQ(fleet.tenants[i].mean_slowdown, solo.tenants[i].mean_slowdown);
  }
}

TEST(FleetEngine, EmptyShardsAreHarmless) {
  // One tenant under affinity: every job lands on one home cluster and the
  // other shards replay empty traces.
  const Trace trace = fleet_trace(60, 2, /*tenants=*/1);
  FleetConfig config = small_fleet(4, 2);
  config.router.policy = RouterPolicy::TenantAffinity;
  config.router.affinity_salt = 3;
  const FleetReport report = FleetEngine(config).replay(trace);
  EXPECT_EQ(report.jobs_completed, trace.job_count());
  std::size_t busy = 0;
  for (const SimReport& shard : report.clusters)
    busy += shard.jobs_submitted > 0 ? 1 : 0;
  EXPECT_EQ(busy, 1u);
}

TEST(FleetEngine, ShardSeedsAreDistinctDerivedStreams) {
  const Trace trace = fleet_trace(40, 4);
  FleetConfig config = small_fleet(4, 2);
  config.seed = 123;
  const FleetReport report = FleetEngine(config).replay(trace);
  ASSERT_EQ(report.shard_seeds.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_EQ(report.shard_seeds[c], stream_seed(123, c));
}

TEST(FleetEngine, RunMemoCountersSurfaceInTheMergedReport) {
  const Trace trace = fleet_trace(120, 8);
  const FleetReport report = FleetEngine(small_fleet(2, 2)).replay(trace);
  // Every dispatch solves (or memo-hits) the partition physics at least
  // once, so a nontrivial replay must touch the memo.
  EXPECT_GT(report.run_memo_hits + report.run_memo_misses, 0u);
  std::size_t hits = 0, misses = 0;
  for (const SimReport& shard : report.clusters) {
    hits += shard.cluster.run_memo_hits;
    misses += shard.cluster.run_memo_misses;
  }
  EXPECT_EQ(report.run_memo_hits, hits);
  EXPECT_EQ(report.run_memo_misses, misses);
}

// ---------------------------------------------------------------------------
// Zero-copy routed replay — iterating the RoutePlan's index spans over the
// shared fleet trace must be bit-identical to replaying the materialized
// per-shard traces route() builds from the same routing walk.
// ---------------------------------------------------------------------------

TEST(FleetEngine, ZeroCopyPlanReplaysIdenticalToMaterializedShards) {
  const Trace trace = fleet_trace(300, 17);
  // Two routing shapes: plain affinity, and spillover + a demand-split fleet
  // budget (so split-budget share steps are exercised, not just arrivals).
  for (const bool with_budget : {false, true}) {
    FleetConfig config = small_fleet(4, 2);
    config.router.policy = RouterPolicy::TenantAffinity;
    config.router.spill_delay_seconds = 90.0;
    if (with_budget) {
      config.fleet_power_budget_watts = 1600.0;
      config.power_split = PowerSplit::DemandProportional;
    }
    const FleetEngine engine(config);
    const RoutePlan plan = engine.plan(trace);
    const auto sharded = route(engine, trace);
    ASSERT_EQ(sharded.shards.size(), plan.steps.size());

    // Rebuild exactly the per-shard session FleetEngine::replay constructs:
    // a fresh allocator copy, scheduler, and cluster per replay (profile
    // runs mutate the allocator, so the sides must not share one).
    gpusim::GpuChip chip;
    const wl::WorkloadRegistry registry(chip.arch());
    const auto trained = core::ResourcePowerAllocator::train(
        chip, registry, wl::table8_pairs());
    const auto replay = [&](const auto& source) {
      core::ResourcePowerAllocator allocator(trained.model(),
                                             trained.profiles(), {});
      sched::CoScheduler scheduler(allocator, config.policy, config.tuning);
      sched::Cluster cluster(config.cluster);
      return SimEngine(config.sim).replay(source, registry, cluster,
                                          scheduler);
    };
    std::size_t replayed_jobs = 0;
    for (std::size_t c = 0; c < sharded.shards.size(); ++c) {
      const SimReport zero_copy = replay(plan.shard(c));
      const SimReport materialized = replay(sharded.shards[c]);
      test::expect_sim_reports_bit_identical(zero_copy, materialized);
      replayed_jobs += zero_copy.jobs_submitted;
    }
    EXPECT_EQ(replayed_jobs, trace.job_count());
  }
}

TEST(FleetEngine, StallDiagnosticsSurviveTheRoutedPath) {
  // A wedged shard must fail as loudly through the zero-copy routed replay
  // as through a plain trace — with the same operator-facing diagnostics
  // (app and tenant *names*, standing budget), even though routed arrivals
  // travel as interned symbols and never carry their strings.
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 50.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "acme-ml", "sgemm", 10.0));
  FleetConfig config = small_fleet(1, 2);
  try {
    FleetEngine(config).replay(trace);
    FAIL() << "stalled routed replay did not throw";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("app 'sgemm'"), std::string::npos) << message;
    EXPECT_NE(message.find("tenant 'acme-ml'"), std::string::npos) << message;
    EXPECT_NE(message.find("power budget"), std::string::npos) << message;
    EXPECT_NE(message.find("50.0"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace migopt::trace
