#include "trace/sim_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "fault/fault.hpp"
#include "report_equality.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"
#include "trace/presets.hpp"

namespace migopt::trace {
namespace {

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

Trace poisson_trace(std::size_t jobs, std::uint64_t seed) {
  ArrivalConfig config;
  config.jobs = jobs;
  config.arrival_rate_hz = 0.2;
  config.tenant_count = 3;
  return make_arrival_trace(config, test::shared_registry().names(), seed);
}

SimReport replay(const Trace& trace, int nodes,
                 core::Policy policy = core::Policy::problem1(250.0, 0.2),
                 SimConfig sim_config = {}) {
  auto allocator = make_allocator();
  sched::CoScheduler scheduler(allocator, policy);
  sched::ClusterConfig config;
  config.node_count = nodes;
  sched::Cluster cluster(config);
  return SimEngine(sim_config).replay(trace, test::shared_registry(), cluster,
                                      scheduler);
}

TEST(SimEngine, ReplayCompletesEveryJobAndConserves) {
  const Trace trace = poisson_trace(120, 11);
  const SimReport report = replay(trace, 4);
  // Conservation held at every event-loop step (engine ENSUREs it); at the
  // end everything submitted must have completed.
  EXPECT_EQ(report.jobs_submitted, trace.job_count());
  EXPECT_EQ(report.cluster.jobs_completed, trace.job_count());
  EXPECT_EQ(report.cluster.jobs.size(), trace.job_count());
  EXPECT_GT(report.cluster.makespan_seconds, 0.0);
  EXPECT_GT(report.jobs_per_hour, 0.0);
  EXPECT_GE(report.max_queue_wait_seconds, report.mean_queue_wait_seconds);
  // Slowdown is turnaround over solo time, so it can never beat 1 by much
  // (co-located partitions only slow a single job down).
  EXPECT_GE(report.mean_slowdown, 1.0);
  // Tenants partition the jobs.
  std::size_t submitted = 0;
  std::size_t completed = 0;
  for (const TenantStats& tenant : report.tenants) {
    submitted += tenant.jobs_submitted;
    completed += tenant.jobs_completed;
  }
  EXPECT_EQ(submitted, trace.job_count());
  EXPECT_EQ(completed, trace.job_count());
}

TEST(SimEngine, ReplayIsDeterministic) {
  const Trace trace = poisson_trace(100, 21);
  const SimReport a = replay(trace, 3);
  const SimReport b = replay(trace, 3);
  EXPECT_EQ(a.cluster.makespan_seconds, b.cluster.makespan_seconds);
  EXPECT_EQ(a.cluster.total_energy_joules, b.cluster.total_energy_joules);
  EXPECT_EQ(a.cluster.pair_dispatches, b.cluster.pair_dispatches);
  EXPECT_EQ(a.cluster.decision_cache_hits, b.cluster.decision_cache_hits);
  EXPECT_EQ(a.mean_queue_wait_seconds, b.mean_queue_wait_seconds);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  ASSERT_EQ(a.cluster.jobs.size(), b.cluster.jobs.size());
  for (std::size_t i = 0; i < a.cluster.jobs.size(); ++i) {
    EXPECT_EQ(a.cluster.jobs[i].id, b.cluster.jobs[i].id);
    EXPECT_EQ(a.cluster.jobs[i].turnaround, b.cluster.jobs[i].turnaround);
  }
}

TEST(SimEngine, MatchesBatchClusterRunOnArrivalOnlyTraces) {
  // An arrival-only trace replayed online must schedule exactly like the
  // batch loop fed the same jobs up front: the scheduler only ever sees the
  // ready prefix either way.
  const Trace trace = poisson_trace(60, 31);
  const SimReport online = replay(trace, 2);

  auto allocator = make_allocator();
  sched::CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  sched::ClusterConfig config;
  config.node_count = 2;
  sched::Cluster cluster(config);
  std::vector<sched::Job> jobs;
  int id = 0;
  for (const TraceEvent& event : trace.events) {
    sched::Job job;
    job.id = id++;
    job.app_id = scheduler.intern_app(event.app);
    job.kernel = &test::shared_registry().by_name(event.app).kernel;
    job.solo_seconds_per_wu =
        test::shared_chip().baseline_seconds(*job.kernel);
    job.work_units = std::max(1.0, event.work_seconds / job.solo_seconds_per_wu);
    job.submit_time = event.time_seconds;
    jobs.push_back(job);
  }
  const sched::ClusterReport batch = cluster.run(std::move(jobs), scheduler);

  EXPECT_EQ(online.cluster.makespan_seconds, batch.makespan_seconds);
  EXPECT_EQ(online.cluster.total_energy_joules, batch.total_energy_joules);
  EXPECT_EQ(online.cluster.pair_dispatches, batch.pair_dispatches);
  EXPECT_EQ(online.cluster.exclusive_dispatches, batch.exclusive_dispatches);
  EXPECT_EQ(online.cluster.profile_runs, batch.profile_runs);
  EXPECT_EQ(online.cluster.mean_turnaround, batch.mean_turnaround);
}

TEST(SimEngine, BudgetEventsCapConcurrentDispatch) {
  // 4 nodes but only 450 W of contract from t=0: with a 150 W grid floor at
  // most 3 caps fit concurrently, and the observed peak proves the broker
  // honored the moving contract.
  Trace trace = poisson_trace(40, 41);
  Trace budget;
  budget.events.push_back(TraceEvent::budget(0.0, 450.0));
  trace = Trace::merge(budget, trace);
  const SimReport report =
      replay(trace, 4, core::Policy::problem2(0.2));
  EXPECT_EQ(report.budget_events_applied, 1u);
  EXPECT_EQ(report.cluster.jobs_completed, 40u);
  EXPECT_LE(report.cluster.peak_cap_sum_watts, 450.0);
  EXPECT_GT(report.cluster.peak_cap_sum_watts, 0.0);
}

TEST(SimEngine, StalledReplayFailsLoudly) {
  // A budget below the cheapest cap with nothing running and no later event
  // to lift it can never dispatch the queued job — the engine must throw,
  // not spin or exit silently.
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 50.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "t0", "sgemm", 10.0));
  EXPECT_THROW(replay(trace, 2), ContractViolation);
}

TEST(SimEngine, StallDiagnosticsNameTheWedgedJob) {
  // The stall message must speak in trace terms — app and tenant names and
  // the standing budget — not interned ids, so the operator can find the
  // offending trace line without a symbol table.
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 50.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "acme-ml", "sgemm", 10.0));
  try {
    replay(trace, 2);
    FAIL() << "stalled replay did not throw";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("app 'sgemm'"), std::string::npos) << message;
    EXPECT_NE(message.find("tenant 'acme-ml'"), std::string::npos) << message;
    EXPECT_NE(message.find("power budget"), std::string::npos) << message;
    EXPECT_NE(message.find("50.0"), std::string::npos) << message;
  }
}

TEST(SimEngine, DeadlinesAreAccounted) {
  Trace trace;
  // Impossible 1 s deadline on a ~10 s job, then a comfortable one.
  trace.events.push_back(
      TraceEvent::arrival(0.0, "t0", "sgemm", 10.0, 0, 1.0));
  trace.events.push_back(
      TraceEvent::arrival(0.0, "t1", "stream", 5.0, 0, 1.0e6));
  const SimReport report = replay(trace, 2);
  EXPECT_EQ(report.deadline_misses, 1u);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].tenant, "t0");
  EXPECT_EQ(report.tenants[0].deadline_misses, 1u);
  EXPECT_EQ(report.tenants[1].deadline_misses, 0u);
}

TEST(SimEngine, HighPriorityOvertakesAtEqualArrival) {
  // Exclusive-FIFO cluster, one node: a long job occupies the node, then a
  // priority-0 and a priority-1 job arrive together. The priority-1 job
  // must start first; without priorities queue order would win.
  Trace trace;
  trace.events.push_back(TraceEvent::arrival(0.0, "t0", "sgemm", 20.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "t0", "stream", 5.0, 0));
  trace.events.push_back(TraceEvent::arrival(1.0, "t1", "kmeans", 5.0, 1));
  auto allocator = make_allocator();
  sched::CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  sched::ClusterConfig config;
  config.node_count = 1;
  config.enable_coscheduling = false;
  sched::Cluster cluster(config);
  const SimReport report = SimEngine().replay(trace, test::shared_registry(),
                                              cluster, scheduler);
  ASSERT_EQ(report.cluster.jobs.size(), 3u);
  double kmeans_start = -1.0;
  double stream_start = -1.0;
  for (const sched::JobStat& stat : report.cluster.jobs) {
    const double start = stat.turnaround - stat.runtime;  // wait
    if (stat.app == "kmeans") kmeans_start = start;
    if (stat.app == "stream") stream_start = start;
  }
  EXPECT_LT(kmeans_start, stream_start);
}

TEST(SimEngine, SampleSeriesRecordsQueueAndCacheOverTime) {
  SimConfig config;
  config.telemetry.interval_seconds = 50.0;
  const Trace trace = poisson_trace(80, 51);
  const SimReport report =
      replay(trace, 2, core::Policy::problem1(250.0, 0.2), config);
  ASSERT_GT(report.telemetry.rows.size(), 2u);
  double previous = -1.0;
  for (const obs::SampleRow& sample : report.telemetry.rows) {
    EXPECT_GT(sample.time_seconds, previous);
    previous = sample.time_seconds;
    EXPECT_GE(sample.cache_hit_rate, 0.0);
    EXPECT_LE(sample.cache_hit_rate, 1.0);
  }
  // The cache warms up as the replay progresses.
  EXPECT_GT(report.telemetry.rows.back().cache_hit_rate, 0.0);
}

TEST(SimEngine, NanosecondSampleIntervalIsBoundedByTheStepCount) {
  // The row reservation used to be horizon / interval: a 1e-9 s interval
  // asked for ~1e14 rows and died in bad_alloc. At most one row lands per
  // event-loop step, so the series stays within the step count.
  const Trace trace = poisson_trace(60, 53);
  SimConfig plain;
  plain.collect_phase_counters = true;
  SimConfig sampled = plain;
  sampled.telemetry.interval_seconds = 1e-9;
  const SimReport base =
      replay(trace, 2, core::Policy::problem1(250.0, 0.2), plain);
  const SimReport fine =
      replay(trace, 2, core::Policy::problem1(250.0, 0.2), sampled);
  ASSERT_GT(fine.telemetry.rows.size(), 2u);
  EXPECT_LE(fine.telemetry.rows.size(), fine.phases.steps);
  EXPECT_EQ(fine.phases.steps, base.phases.steps);
  EXPECT_EQ(fine.jobs_submitted, base.jobs_submitted);
  EXPECT_EQ(fine.cluster.jobs_completed, base.cluster.jobs_completed);
  EXPECT_EQ(fine.cluster.makespan_seconds, base.cluster.makespan_seconds);
  EXPECT_EQ(fine.cluster.total_energy_joules,
            base.cluster.total_energy_joules);
  EXPECT_EQ(fine.mean_queue_wait_seconds, base.mean_queue_wait_seconds);
  EXPECT_EQ(fine.mean_slowdown, base.mean_slowdown);
  EXPECT_EQ(fine.peak_queue_depth, base.peak_queue_depth);
  ASSERT_EQ(fine.tenants.size(), base.tenants.size());
  for (std::size_t i = 0; i < fine.tenants.size(); ++i) {
    EXPECT_EQ(fine.tenants[i].tenant, base.tenants[i].tenant);
    EXPECT_EQ(fine.tenants[i].jobs_completed, base.tenants[i].jobs_completed);
    EXPECT_EQ(fine.tenants[i].mean_slowdown, base.tenants[i].mean_slowdown);
  }
}

TEST(SimEngine, UnknownAppThrows) {
  Trace trace;
  trace.events.push_back(TraceEvent::arrival(0.0, "t0", "no-such-app", 5.0));
  EXPECT_THROW(replay(trace, 1), ContractViolation);
}

TEST(SimEngine, GuardsRejectBadConfig) {
  SimConfig bad;
  bad.max_sim_seconds = 0.0;
  EXPECT_THROW(SimEngine{bad}, ContractViolation);
}

// Sessions replaying one registry share its solve store: the second replay
// of a trace pays no solve at all, yet every report field, and the
// per-session RunMemo counters, equal both the first replay's and a replay
// against a fresh registry (an empty store) to the bit.
TEST(SimEngine, SharedSolveStoreReplaysBitIdentically) {
  constexpr std::size_t kJobs = 2000;
  constexpr int kNodes = 8;
  const auto trained = make_allocator();
  const wl::WorkloadRegistry registry(test::shared_chip().arch());
  const auto replay_on = [&](const wl::WorkloadRegistry& on,
                             const Trace& trace, ReplayRegime regime,
                             const fault::FaultPlan* faults) {
    core::ResourcePowerAllocator::Config session_config;
    core::ResourcePowerAllocator allocator(trained.model(), trained.profiles(),
                                           std::move(session_config));
    sched::CoScheduler scheduler(allocator, regime_policy(regime));
    sched::ClusterConfig config;
    config.node_count = kNodes;
    config.max_sim_seconds = 1.0e8;
    sched::Cluster cluster(config);
    SimConfig sim;
    sim.max_sim_seconds = 1.0e8;
    sim.faults = faults;
    return SimEngine(sim).replay(trace, on, cluster, scheduler);
  };

  const Trace poisson = make_regime_trace(ReplayRegime::Poisson, kJobs, kNodes,
                                          7, registry.names());
  fault::FaultConfig fault_config;
  fault_config.transient_failure_rate = 0.05;
  fault_config.node_mtbf_seconds = 20000.0;
  const fault::FaultPlan plan = fault::make_fault_plan(
      fault_config, kNodes, poisson.horizon_seconds(), 7);
  struct Case {
    ReplayRegime regime;
    const fault::FaultPlan* faults;
  };
  for (const Case& c : {Case{ReplayRegime::Poisson, nullptr},
                        Case{ReplayRegime::Bursty, nullptr},
                        Case{ReplayRegime::BudgetWalk, nullptr},
                        Case{ReplayRegime::Poisson, &plan}}) {
    SCOPED_TRACE(std::string(regime_name(c.regime)) +
                 (c.faults != nullptr ? " with faults" : ""));
    const Trace trace = make_regime_trace(c.regime, kJobs, kNodes, 7,
                                          registry.names());
    const SimReport first = replay_on(registry, trace, c.regime, c.faults);
    const std::size_t paid = registry.solves().solves();
    EXPECT_GT(paid, 0u);
    const SimReport second = replay_on(registry, trace, c.regime, c.faults);
    EXPECT_EQ(registry.solves().solves(), paid);

    const wl::WorkloadRegistry fresh_registry(test::shared_chip().arch());
    const SimReport fresh =
        replay_on(fresh_registry, trace, c.regime, c.faults);
    EXPECT_GT(fresh_registry.solves().solves(), 0u);

    for (const SimReport* other : {&second, &fresh}) {
      test::expect_sim_reports_bit_identical(first, *other);
      EXPECT_EQ(first.cluster.run_memo_hits, other->cluster.run_memo_hits);
      EXPECT_EQ(first.cluster.run_memo_misses, other->cluster.run_memo_misses);
    }
    EXPECT_GT(first.cluster.run_memo_misses, 0u);
    if (c.faults != nullptr) {
      EXPECT_GT(first.faults.failures_injected + first.faults.node_failures,
                0u);
    }
  }
}

}  // namespace
}  // namespace migopt::trace
