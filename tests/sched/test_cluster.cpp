#include "sched/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

TEST(Cluster, IndexedCoreEnergyAccountsIdleDrawToSessionEnd) {
  // One staggered late job keeps the cluster's clock running long past the
  // early jobs; idle nodes must accrue idle power up to the session end even
  // though the event core never touches them in between (report catches
  // them up).
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  std::vector<Job> jobs = mixed_job_set(scheduler);
  jobs[5].submit_time = 2000.0;
  ClusterConfig config;
  config.node_count = 4;
  Cluster cluster(config);
  const ClusterReport report = cluster.run(std::move(jobs), scheduler);

  EXPECT_EQ(report.jobs_completed, 8u);
  EXPECT_GT(report.makespan_seconds, 2000.0);
  // Every node was caught up to the session end, and at session end all
  // nodes idle, so the report total is exactly the sum over the nodes.
  double sum = 0.0;
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->now(), report.makespan_seconds);
    sum += node->energy_joules();
  }
  EXPECT_EQ(report.total_energy_joules, sum);
}

TEST(Cluster, MidSessionReportAccountsBusyDrawToSessionClock) {
  // report() in the middle of a session — running jobs still on the nodes —
  // must account energy and makespan up to the session clock even though
  // the event core has not touched the busy nodes since dispatch (their
  // draw is constant over the gap, so the report adds it analytically).
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster(config);
  cluster.begin_session(scheduler);
  for (Job& job : mixed_job_set(scheduler)) cluster.submit(std::move(job));
  cluster.dispatch(scheduler, 0.0);
  cluster.advance_to(5.0, scheduler);  // before the first completion
  const ClusterReport report = cluster.report(scheduler);

  EXPECT_EQ(report.makespan_seconds, 5.0);
  double node_sum = 0.0;
  double busy_draw = 0.0;
  for (const auto& node : cluster.nodes()) {
    node_sum += node->energy_joules();
    if (!node->idle()) busy_draw += node->power_watts() * (5.0 - node->now());
  }
  EXPECT_GT(busy_draw, 0.0);  // the busy nodes do lag the session clock
  EXPECT_DOUBLE_EQ(report.total_energy_joules, node_sum + busy_draw);
}

TEST(Cluster, NextCompletionMatchesNodeScanOracle) {
  // The completion heap against the plainest possible answer: after every
  // session call, Cluster::next_completion_time() must equal the minimum
  // next completion over the nodes that are up. Randomized bursty arrivals
  // with crashes, recoveries and power sheds leave stale heap entries
  // behind (a killed node's pending completion), which the heap must skip.
  const std::vector<std::string> apps = {"igemm4", "stream", "dgemm",
                                         "dwt2d",  "kmeans", "needle"};
  auto allocator = make_allocator();
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    SCOPED_TRACE(seed);
    CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
    ClusterConfig config;
    config.node_count = 4;
    Cluster cluster(config);
    Rng rng(seed);

    // Bursts of 2-6 near-simultaneous arrivals separated by quiet gaps.
    std::vector<Job> jobs;
    double t = 0.0;
    while (jobs.size() < 48) {
      t += rng.uniform(5.0, 40.0);
      const std::size_t burst = 2 + rng.bounded(5);
      for (std::size_t b = 0; b < burst; ++b) {
        const std::string& app = apps[rng.bounded(apps.size())];
        Job job;
        job.id = static_cast<JobId>(jobs.size());
        job.app_id = scheduler.intern_app(app);
        job.kernel = &test::shared_registry().by_name(app).kernel;
        job.solo_seconds_per_wu =
            test::shared_chip().baseline_seconds(*job.kernel);
        job.work_units = std::max(
            1.0, std::round(rng.uniform(3.0, 25.0) / job.solo_seconds_per_wu));
        job.priority = static_cast<int>(rng.bounded(3));
        job.submit_time = t + rng.uniform(0.0, 0.5);
        jobs.push_back(job);
      }
    }

    const auto expect_oracle = [&](const char* after) {
      double oracle = std::numeric_limits<double>::infinity();
      for (std::size_t n = 0; n < cluster.nodes().size(); ++n)
        if (!cluster.node_down(static_cast<int>(n)))
          oracle = std::min(oracle, cluster.nodes()[n]->next_completion_time());
      ASSERT_EQ(cluster.next_completion_time(), oracle) << "after " << after;
    };

    cluster.begin_session(scheduler);
    std::vector<Job> completed;
    std::vector<Job> killed;
    std::size_t next = 0;
    double now = 0.0;
    for (int step = 0; step < 5000; ++step) {
      if (next == jobs.size() && cluster.queued_count() == 0 &&
          cluster.running_count() == 0)
        break;
      double event = cluster.next_completion_time();
      if (next < jobs.size())
        event = std::min(event, jobs[next].submit_time);
      if (!std::isfinite(event)) event = now + 10.0;  // all up nodes down
      now = std::max(now, event);
      cluster.advance_to(now, scheduler);
      ASSERT_NO_FATAL_FAILURE(expect_oracle("advance_to"));
      while (next < jobs.size() && jobs[next].submit_time <= now) {
        cluster.submit(jobs[next++]);
        ASSERT_NO_FATAL_FAILURE(expect_oracle("submit"));
      }
      // One random fault action in roughly a third of the steps.
      const int n = static_cast<int>(rng.bounded(4));
      switch (rng.bounded(9)) {
        case 0:
          if (!cluster.node_down(n) && cluster.down_node_count() < 3) {
            cluster.fail_node(n, now, scheduler, completed, killed);
            ASSERT_NO_FATAL_FAILURE(expect_oracle("fail_node"));
          }
          break;
        case 1:
          if (cluster.node_down(n)) {
            cluster.recover_node(n, now);
            ASSERT_NO_FATAL_FAILURE(expect_oracle("recover_node"));
          }
          break;
        case 2:
          cluster.shed_to_budget(rng.uniform(150.0, 700.0), now, scheduler,
                                 completed, killed);
          ASSERT_NO_FATAL_FAILURE(expect_oracle("shed_to_budget"));
          break;
        default:
          break;
      }
      // Killed and shed work re-enters the queue, like trace replay retries.
      for (Job& job : killed) cluster.submit(job);
      killed.clear();
      cluster.dispatch(scheduler, now);
      ASSERT_NO_FATAL_FAILURE(expect_oracle("dispatch"));
    }
    EXPECT_EQ(next, jobs.size());
    EXPECT_EQ(cluster.queued_count() + cluster.running_count(), 0u);
    const ClusterReport report = cluster.report(scheduler);
    EXPECT_GT(report.node_failures + report.jobs_shed, 0u);
  }
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
