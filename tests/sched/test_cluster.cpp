#include "sched/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

std::vector<Job> mixed_job_set(CoScheduler& scheduler) {
  // One job from each class family, sized so every job runs ~12 s solo on
  // the full chip. Comparable durations are the pairing-friendly case: the
  // co-location overlap covers the whole runtime instead of stranding a long
  // job on a small partition after a short partner exits.
  const std::vector<std::string> apps = {"igemm4", "stream", "dgemm",  "dwt2d",
                                         "kmeans", "sgemm",  "needle", "hgemm"};
  std::vector<Job> jobs;
  int id = 0;
  for (const auto& app : apps) {
    Job job;
    job.id = id++;
    job.app_id = scheduler.intern_app(app);
    job.kernel = &test::shared_registry().by_name(app).kernel;
    job.solo_seconds_per_wu = test::shared_chip().baseline_seconds(*job.kernel);
    job.work_units = std::max(1.0, std::round(12.0 / job.solo_seconds_per_wu));
    job.submit_time = 0.0;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(Cluster, AllJobsComplete) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_GT(report.total_energy_joules, 0.0);
  // Every job id present exactly once.
  std::set<JobId> ids;
  for (const auto& stat : report.jobs) ids.insert(stat.id);
  EXPECT_EQ(ids.size(), 8u);
}

TEST(Cluster, CoschedulingPairsJobs) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 1;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_GT(report.pair_dispatches, 0u);
}

TEST(Cluster, ExclusiveBaselineNeverPairs) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.enable_coscheduling = false;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.pair_dispatches, 0u);
  EXPECT_EQ(report.exclusive_dispatches, 8u);
  EXPECT_EQ(report.jobs_completed, 8u);
}

TEST(Cluster, CoschedulingBeatsExclusiveMakespan) {
  // The paper's premise: co-locating complementary jobs raises system
  // throughput. With pairing-friendly jobs, makespan must shrink.
  auto allocator_a = make_allocator();
  CoScheduler cosched(allocator_a, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster co_cluster(config);
  const ClusterReport with_pairs = co_cluster.run(mixed_job_set(cosched), cosched);

  auto allocator_b = make_allocator();
  CoScheduler excl_sched(allocator_b, core::Policy::problem1(250.0, 0.2));
  config.enable_coscheduling = false;
  Cluster excl_cluster(config);
  const ClusterReport exclusive = excl_cluster.run(mixed_job_set(excl_sched), excl_sched);

  EXPECT_LT(with_pairs.makespan_seconds, exclusive.makespan_seconds);
}

TEST(Cluster, UnprofiledJobTriggersProfileRunThenPairs) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));

  std::vector<Job> jobs = mixed_job_set(scheduler);
  // Two instances of an app the allocator has never profiled.
  for (int i = 0; i < 2; ++i) {
    Job job;
    job.id = 100 + i;
    job.app_id = scheduler.intern_app("unseen-app");
    job.kernel = &test::shared_registry().by_name("lavaMD").kernel;
    job.work_units = 150.0;
    job.submit_time = 0.0;
    jobs.push_back(job);
  }

  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(jobs, scheduler);
  EXPECT_EQ(report.jobs_completed, 10u);
  // Exactly one exclusive profile run for the unseen app; the second instance
  // can already be co-scheduled (or at least no second profile run happens).
  EXPECT_EQ(report.profile_runs, 1u);
  EXPECT_TRUE(allocator.can_coschedule("unseen-app"));
}

TEST(Cluster, StaggeredSubmitTimesRespected) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  std::vector<Job> jobs = mixed_job_set(scheduler);
  jobs[3].submit_time = 1000.0;  // far in the future
  ClusterConfig config;
  config.node_count = 4;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(jobs, scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  for (const auto& stat : report.jobs) {
    if (stat.id == 3) {
      // turnaround measured from its late submit time, so it stays modest.
      EXPECT_LT(stat.turnaround, 1000.0);
    }
  }
  EXPECT_GE(report.makespan_seconds, 1000.0);
}

TEST(Cluster, EnergyAccountingSumsNodes) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  double sum = 0.0;
  for (const auto& node : cluster.nodes()) sum += node->energy_joules();
  EXPECT_NEAR(report.total_energy_joules, sum, 1e-9);
}

TEST(Cluster, ConfigContracts) {
  ClusterConfig config;
  config.node_count = 0;
  EXPECT_THROW(Cluster{config}, ContractViolation);
}

TEST(Cluster, PowerBudgetCapsConcurrentDispatches) {
  // Two nodes but only 1.5x the 250 W default cap of budget: concurrent caps
  // must never sum above it, and all jobs still finish.
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.total_power_budget_watts = 375.0;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_LE(report.peak_cap_sum_watts, 375.0 + 1e-9);
  EXPECT_GT(report.peak_cap_sum_watts, 0.0);
}

TEST(Cluster, TightBudgetSerializesNodes) {
  // Budget for one full-cap dispatch only: the second node can still run,
  // but only at caps that fit the remainder; with 250 W total and a 150 W
  // minimum grid cap, two full-cap dispatches can never overlap.
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.total_power_budget_watts = 250.0;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_LE(report.peak_cap_sum_watts, 250.0 + 1e-9);
}

TEST(Cluster, BudgetAppliesToExclusiveBaselineToo) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.enable_coscheduling = false;
  config.total_power_budget_watts = 300.0;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_EQ(report.pair_dispatches, 0u);
  EXPECT_LE(report.peak_cap_sum_watts, 300.0 + 1e-9);
}

TEST(Cluster, LargerBudgetNeverSlowsTheQueue) {
  auto allocator_small = make_allocator();
  CoScheduler sched_small(allocator_small, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.total_power_budget_watts = 300.0;
  Cluster small(config);
  const double t_small =
      small.run(mixed_job_set(sched_small), sched_small).makespan_seconds;

  auto allocator_big = make_allocator();
  CoScheduler sched_big(allocator_big, core::Policy::problem1(250.0, 0.2));
  config.total_power_budget_watts = 500.0;
  Cluster big(config);
  const double t_big = big.run(mixed_job_set(sched_big), sched_big).makespan_seconds;
  EXPECT_LE(t_big, t_small * 1.001);
}

TEST(Cluster, IndexedCoreMatchesExactCoreSchedule) {
  // The Indexed event core must make the same dispatch decisions as the
  // Exact core — every count and every per-job identity identical; only the
  // continuous outputs may differ by floating-point step partitioning.
  auto allocator_exact = make_allocator();
  CoScheduler sched_exact(allocator_exact, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 3;
  Cluster exact(config);
  const ClusterReport a = exact.run(mixed_job_set(sched_exact), sched_exact);

  auto allocator_indexed = make_allocator();
  CoScheduler sched_indexed(allocator_indexed,
                            core::Policy::problem1(250.0, 0.2));
  config.event_core = EventCore::Indexed;
  Cluster indexed(config);
  const ClusterReport b = indexed.run(mixed_job_set(sched_indexed), sched_indexed);

  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.pair_dispatches, b.pair_dispatches);
  EXPECT_EQ(a.exclusive_dispatches, b.exclusive_dispatches);
  EXPECT_EQ(a.profile_runs, b.profile_runs);
  EXPECT_EQ(a.decision_cache_hits, b.decision_cache_hits);
  EXPECT_EQ(a.decision_cache_misses, b.decision_cache_misses);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);  // same completion order
    EXPECT_NEAR(a.jobs[i].turnaround, b.jobs[i].turnaround,
                1e-6 * (1.0 + a.jobs[i].turnaround));
  }
  EXPECT_NEAR(a.makespan_seconds, b.makespan_seconds,
              1e-9 * a.makespan_seconds);
  EXPECT_NEAR(a.total_energy_joules, b.total_energy_joules,
              1e-9 * a.total_energy_joules);
  EXPECT_EQ(a.peak_cap_sum_watts, b.peak_cap_sum_watts);
}

TEST(Cluster, IndexedCoreEnergyAccountsIdleDrawToSessionEnd) {
  // One staggered late job keeps the cluster's clock running long past the
  // early jobs; idle nodes must accrue idle power up to the session end even
  // though the Indexed core never touches them in between (report catches
  // them up).
  auto allocator_exact = make_allocator();
  CoScheduler sched_exact(allocator_exact, core::Policy::problem1(250.0, 0.2));
  const auto late_job_set = [](CoScheduler& scheduler) {
    std::vector<Job> jobs = mixed_job_set(scheduler);
    jobs[5].submit_time = 2000.0;
    return jobs;
  };
  ClusterConfig config;
  config.node_count = 4;
  Cluster exact(config);
  const ClusterReport a = exact.run(late_job_set(sched_exact), sched_exact);

  auto allocator_indexed = make_allocator();
  CoScheduler sched_indexed(allocator_indexed,
                            core::Policy::problem1(250.0, 0.2));
  config.event_core = EventCore::Indexed;
  Cluster indexed(config);
  const ClusterReport b =
      indexed.run(late_job_set(sched_indexed), sched_indexed);

  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_NEAR(a.total_energy_joules, b.total_energy_joules,
              1e-9 * a.total_energy_joules);
  // And the report total still equals the sum over the caught-up nodes.
  double sum = 0.0;
  for (const auto& node : indexed.nodes()) sum += node->energy_joules();
  EXPECT_NEAR(b.total_energy_joules, sum, 1e-9);
}

TEST(Cluster, IndexedCoreMidSessionReportMatchesExact) {
  // report() in the middle of a session — running jobs still on the nodes —
  // must account energy and makespan up to the session clock even though
  // the Indexed core has not touched the busy nodes since dispatch (their
  // draw is constant over the gap, so the report adds it analytically).
  const auto run_half = [](EventCore core) {
    auto allocator = make_allocator();
    CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
    ClusterConfig config;
    config.node_count = 2;
    config.event_core = core;
    Cluster cluster(config);
    cluster.begin_session(scheduler);
    for (Job& job : mixed_job_set(scheduler)) cluster.submit(std::move(job));
    cluster.dispatch(scheduler, 0.0);
    cluster.advance_to(5.0, scheduler);  // before the first completion
    return cluster.report(scheduler);
  };
  const ClusterReport exact = run_half(EventCore::Exact);
  const ClusterReport indexed = run_half(EventCore::Indexed);
  EXPECT_GT(exact.total_energy_joules, 0.0);
  EXPECT_NEAR(indexed.total_energy_joules, exact.total_energy_joules,
              1e-9 * exact.total_energy_joules);
  EXPECT_DOUBLE_EQ(exact.makespan_seconds, 5.0);
  EXPECT_DOUBLE_EQ(indexed.makespan_seconds, 5.0);
}

TEST(Cluster, JobStatCollectionCanBeDisabled) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.collect_job_stats = false;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(mixed_job_set(scheduler), scheduler);
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_TRUE(report.jobs.empty());
  // Aggregates still accumulate without the per-job vector.
  EXPECT_GT(report.mean_turnaround, 0.0);
}

TEST(Cluster, RunMemoCountersAreSessionDeltas) {
  auto allocator = make_allocator();
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);

  CoScheduler first_scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  const ClusterReport first = cluster.run(mixed_job_set(first_scheduler), first_scheduler);
  // A nontrivial session pays its first physics solves into the memo and
  // serves the repeats from it.
  EXPECT_GT(first.run_memo_misses, 0u);

  // Replay the identical batch in a second session (submit times pushed past
  // the node clocks, fresh scheduler so the decision trajectory repeats).
  // begin_session cleared the memo, so the schedule re-pays the same solves
  // — and because the counters are session deltas, not lifetime totals, the
  // second report matches the first instead of doubling.
  CoScheduler second_scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  std::vector<Job> shifted = mixed_job_set(second_scheduler);
  for (Job& job : shifted) job.submit_time = first.makespan_seconds + 1.0;
  const ClusterReport second = cluster.run(std::move(shifted), second_scheduler);
  EXPECT_EQ(second.run_memo_misses, first.run_memo_misses);
  EXPECT_EQ(second.run_memo_hits, first.run_memo_hits);
}

TEST(Cluster, FailNodeKillsResidentsAndRecoverAccruesDowntime) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  cluster.begin_session(scheduler);
  for (Job& job : mixed_job_set(scheduler)) cluster.submit(std::move(job));
  cluster.dispatch(scheduler, 0.0);

  // Crash node 0 at t=5 s: every job runs ~12 s, so nothing has completed
  // yet — the residents are killed with their in-flight work lost.
  std::vector<Job> completed;
  std::vector<Job> killed;
  cluster.fail_node(0, 5.0, scheduler, completed, killed);
  EXPECT_TRUE(completed.empty());
  ASSERT_FALSE(killed.empty());
  for (const Job& job : killed) EXPECT_FALSE(job.finished());
  EXPECT_TRUE(cluster.node_down(0));
  EXPECT_FALSE(cluster.node_down(1));
  EXPECT_EQ(cluster.down_node_count(), 1u);
  // Double-crash and double-recover are protocol violations.
  EXPECT_THROW(cluster.fail_node(0, 6.0, scheduler, completed, killed),
               ContractViolation);
  EXPECT_THROW(cluster.recover_node(1, 6.0), ContractViolation);

  cluster.recover_node(0, 105.0);
  EXPECT_FALSE(cluster.node_down(0));
  EXPECT_EQ(cluster.down_node_count(), 0u);

  const ClusterReport report = cluster.report(scheduler);
  EXPECT_EQ(report.node_failures, 1u);
  EXPECT_EQ(report.node_recoveries, 1u);
  EXPECT_EQ(report.jobs_killed, killed.size());
  EXPECT_DOUBLE_EQ(report.node_downtime_seconds, 100.0);
}

TEST(Cluster, DownNodeIsSkippedByDispatchAndStillDownAtReport) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  cluster.begin_session(scheduler);
  // Crash node 1 while idle, before any dispatch: it must leave the idle
  // set (dispatch never probes a down node) and kill nothing.
  std::vector<Job> completed;
  std::vector<Job> killed;
  cluster.fail_node(1, 0.0, scheduler, completed, killed);
  EXPECT_TRUE(killed.empty());

  for (Job& job : mixed_job_set(scheduler)) cluster.submit(std::move(job));
  cluster.dispatch(scheduler, 0.0);
  double now = 0.0;
  for (int step = 1;
       step <= 400 && cluster.queued_count() + cluster.running_count() > 0;
       ++step) {
    now = step * 2.0;
    cluster.advance_to(now, scheduler);
    cluster.dispatch(scheduler, now);
  }
  const ClusterReport report = cluster.report(scheduler);
  // The whole batch completed on node 0 alone.
  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_EQ(report.jobs_killed, 0u);
  // A node still down at report time accrues downtime up to the session
  // clock even without a recovery event.
  EXPECT_EQ(report.node_recoveries, 0u);
  EXPECT_GT(report.node_downtime_seconds, 0.0);
}

TEST(Cluster, ShedToBudgetPicksLowestPriorityNode) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  config.enable_coscheduling = false;  // one job per node, order by priority
  Cluster cluster(config);
  cluster.begin_session(scheduler);
  std::vector<Job> jobs = mixed_job_set(scheduler);
  jobs.resize(2);
  jobs[0].priority = 5;  // dispatches first -> node 0
  jobs[1].priority = 1;  // -> node 1, the graceful-degradation victim
  const JobId victim_id = jobs[1].id;
  for (Job& job : jobs) cluster.submit(std::move(job));
  cluster.dispatch(scheduler, 0.0);

  // An emergency budget at 75% of the running cap sum fits after shedding
  // exactly one node; the victim is the lowest-priority resident.
  const double cap_sum = cluster.report(scheduler).peak_cap_sum_watts;
  ASSERT_GT(cap_sum, 0.0);
  std::vector<Job> completed;
  std::vector<Job> shed;
  const std::size_t shed_nodes =
      cluster.shed_to_budget(0.75 * cap_sum, 1.0, scheduler, completed, shed);
  EXPECT_EQ(shed_nodes, 1u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, victim_id);
  EXPECT_EQ(shed[0].priority, 1);
  // Unlike a crash the shed node stays in service and dispatchable.
  EXPECT_FALSE(cluster.node_down(1));
  EXPECT_EQ(cluster.report(scheduler).jobs_shed, 1u);
}

TEST(Cluster, BudgetBelowCheapestDispatchRejected) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 1;
  config.total_power_budget_watts = 100.0;  // grid floor is 150 W
  Cluster cluster(config);
  EXPECT_THROW(cluster.run(mixed_job_set(scheduler), scheduler), ContractViolation);
}

}  // namespace
}  // namespace migopt::sched
