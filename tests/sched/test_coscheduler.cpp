#include "sched/coscheduler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "profiling/profiler.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

Job make_job(CoScheduler& scheduler, int id, const std::string& app,
             double submit = 0.0) {
  Job job;
  job.id = id;
  job.app_id = scheduler.intern_app(app);
  job.kernel = &test::shared_registry().by_name(app).kernel;
  job.work_units = 100.0;
  job.submit_time = submit;
  return job;
}

TEST(CoScheduler, EmptyQueueYieldsNothing) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  EXPECT_FALSE(scheduler.next(queue, 0.0).has_value());
}

TEST(CoScheduler, RejectsFixedCapOffTheTrainedGrid) {
  auto allocator = make_allocator();
  // The paper grid is 150-250 W in 20 W steps: 200 W has no coefficients.
  try {
    CoScheduler scheduler(allocator, core::Policy::problem1(200.0, 0.2));
    FAIL() << "an off-grid fixed cap was accepted";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("not a trained grid cap"),
              std::string::npos)
        << error.what();
  }
}

TEST(CoScheduler, AcceptsFixedCapOnTheTrainedGrid) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(190.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "sgemm"));
  queue.push(make_job(scheduler, 1, "kmeans"));
  // The first pairing probe runs at the fixed cap without throwing.
  EXPECT_TRUE(scheduler.next(queue, 0.0).has_value());
}

// The queue holds only arrived jobs: a job queued before its submit time is
// a producer bug, rejected loudly instead of dispatched early. The
// rejection leaves the queue untouched, so the job dispatches on time.
TEST(CoScheduler, FutureJobsNotDispatchedEarly) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "sgemm", /*submit=*/100.0));
  EXPECT_THROW(scheduler.next(queue, 0.0), ContractViolation);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(scheduler.next(queue, 100.0).has_value());

  // The same holds for a window partner behind an arrived pivot
  // (igemm4 + stream is an accepted pair, see the test below).
  queue.push(make_job(scheduler, 1, "igemm4"));
  queue.push(make_job(scheduler, 2, "stream", /*submit=*/100.0));
  EXPECT_THROW(scheduler.next(queue, 0.0), ContractViolation);
  EXPECT_EQ(queue.size(), 2u);
  const auto plan = scheduler.next(queue, 100.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->job2.has_value());
}

TEST(CoScheduler, PairsHeadWithBestWindowPartner) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  // igemm4 (TI) pairs much better with stream (MI) than with another GEMM.
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "tdgemm"));
  queue.push(make_job(scheduler, 2, "stream"));

  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->job2.has_value());
  EXPECT_EQ(scheduler.app_name(plan->job1.app_id), "igemm4");
  EXPECT_EQ(scheduler.app_name(plan->job2->app_id), "stream");
  EXPECT_TRUE(plan->allocation.feasible);
  EXPECT_EQ(queue.size(), 1u);  // tdgemm left behind
  EXPECT_EQ(scheduler.app_name(queue.front().app_id), "tdgemm");
}

TEST(CoScheduler, UnprofiledHeadGetsExclusiveProfileRun) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  Job mystery = make_job(scheduler, 0, "sgemm");
  // No profile recorded under this name.
  mystery.app_id = scheduler.intern_app("mystery-app");
  queue.push(mystery);
  queue.push(make_job(scheduler, 1, "stream"));

  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->job2.has_value());
  EXPECT_TRUE(plan->profile_run);
  EXPECT_EQ(scheduler.app_name(plan->job1.app_id), "mystery-app");
}

TEST(CoScheduler, RecordedProfileEnablesPairingNextTime) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  // Profile of a Tensor-intensive kernel: pairs comfortably above the
  // pairing threshold with a memory-intensive partner (the paper's TI-MI).
  const auto counters = prof::profile_run(
      test::shared_chip(), test::shared_registry().by_name("igemm4").kernel);
  scheduler.record_profile(scheduler.intern_app("mystery-app"), counters);

  JobQueue queue;
  Job mystery = make_job(scheduler, 0, "igemm4");
  mystery.app_id = scheduler.intern_app("mystery-app");
  queue.push(mystery);
  queue.push(make_job(scheduler, 1, "stream"));
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->job2.has_value());
}

TEST(CoScheduler, SingleReadyJobRunsExclusively) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "sgemm"));
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->job2.has_value());
  EXPECT_FALSE(plan->profile_run);
  EXPECT_DOUBLE_EQ(plan->power_cap_watts, 230.0);  // problem 1's fixed cap
}

TEST(CoScheduler, WindowLimitsPartnerSearch) {
  auto allocator = make_allocator();
  SchedulerTuning tuning;
  tuning.pairing_window = 1;
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2), tuning);
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "tdgemm"));
  queue.push(make_job(scheduler, 2, "stream"));  // out of the window
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  if (plan->job2.has_value()) {
    EXPECT_EQ(scheduler.app_name(plan->job2->app_id), "tdgemm");
  }
}

TEST(CoScheduler, SpeedupThresholdForcesExclusive) {
  // With an unreachable pairing threshold every job runs exclusively.
  auto allocator = make_allocator();
  SchedulerTuning tuning;
  tuning.min_pair_speedup = 10.0;
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2), tuning);
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "stream"));
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->job2.has_value());
}

TEST(CoScheduler, DurationMismatchBlocksPairing) {
  // A short partner for a long pivot would strand the pivot on its partition
  // for almost its whole runtime: serial is faster, so the pair is rejected.
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  Job lhs = make_job(scheduler, 0, "igemm4");
  lhs.solo_seconds_per_wu =
      test::shared_chip().baseline_seconds(*lhs.kernel);
  lhs.work_units = 2000.0;  // long
  Job rhs = make_job(scheduler, 1, "stream");
  rhs.solo_seconds_per_wu =
      test::shared_chip().baseline_seconds(*rhs.kernel);
  rhs.work_units = 10.0;  // very short
  queue.push(lhs);
  queue.push(rhs);
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->job2.has_value()) << "duration-mismatched pair accepted";

  // The same pair with matched durations is accepted.
  SchedulerTuning permissive;
  permissive.require_duration_benefit = false;
  CoScheduler relaxed(allocator, core::Policy::problem1(230.0, 0.2), permissive);
  JobQueue queue2;
  queue2.push(lhs);
  queue2.push(rhs);
  const auto plan2 = relaxed.next(queue2, 0.0);
  ASSERT_TRUE(plan2.has_value());
  EXPECT_TRUE(plan2->job2.has_value());
}

TEST(CoScheduler, InFlightProfileBlocksSecondInstance) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  Job first = make_job(scheduler, 0, "sgemm");
  first.app_id = scheduler.intern_app("mystery-app");
  Job second = make_job(scheduler, 1, "sgemm");
  second.app_id = first.app_id;
  queue.push(first);
  queue.push(second);

  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->profile_run);
  // Second instance must wait for the in-flight profile, not start another.
  EXPECT_FALSE(scheduler.next(queue, 0.0).has_value());

  const auto counters = prof::profile_run(
      test::shared_chip(), test::shared_registry().by_name("sgemm").kernel);
  scheduler.record_profile(first.app_id, counters);
  const auto after = scheduler.next(queue, 0.0);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->profile_run);
}

TEST(CoScheduler, Problem2PlanCarriesChosenCap) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "kmeans"));
  queue.push(make_job(scheduler, 1, "needle"));
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->job2.has_value());
  // Problem 2 should pick a low cap for a US-US pair (energy efficiency).
  EXPECT_LE(plan->power_cap_watts, 190.0);
}

TEST(CoScheduler, EmptyCapGridFailsLoudly) {
  // min_cap() MIGOPT_REQUIREs a non-empty cap grid instead of returning
  // +inf (which silently starved dispatch). The contract is
  // enforced at the earliest layer: an allocator cannot even be assembled
  // over an empty grid.
  auto trained = make_allocator();
  core::ResourcePowerAllocator::Config config;
  config.caps.clear();
  EXPECT_THROW(core::ResourcePowerAllocator(
                   core::PerfModel(trained.model()),
                   prof::ProfileDb(trained.profiles()), config),
               ContractViolation);
}

TEST(CoScheduler, ZeroWindowRejected) {
  auto allocator = make_allocator();
  SchedulerTuning tuning;
  tuning.pairing_window = 0;
  EXPECT_THROW(
      CoScheduler(allocator, core::Policy::problem1(230.0, 0.2), tuning),
      ContractViolation);
}

}  // namespace
}  // namespace migopt::sched
