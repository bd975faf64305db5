#include "sched/node.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "common/interner.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

using gpusim::MemOption;

/// Nodes never resolve app ids, so the fixtures intern against a table of
/// their own.
AppId app_id_of(const std::string& app) {
  static SymbolTable apps;
  return apps.intern(app);
}

Job make_job(int id, const std::string& app, double work_units) {
  Job job;
  job.id = id;
  job.app_id = app_id_of(app);
  job.kernel = &test::shared_registry().by_name(app).kernel;
  job.work_units = work_units;
  return job;
}

TEST(Node, StartsIdle) {
  Node node(0);
  EXPECT_TRUE(node.idle());
  EXPECT_DOUBLE_EQ(node.now(), 0.0);
  EXPECT_TRUE(std::isinf(node.next_completion_time()));
}

TEST(Node, ExclusiveRunFinishesAtAnalyticalTime) {
  Node node(0);
  const Job job = make_job(1, "sgemm", 100.0);
  const double expected_spw =
      node.chip().run_full_chip(*job.kernel, 250.0).apps[0].seconds_per_wu;
  node.dispatch_exclusive(job, 250.0);
  EXPECT_FALSE(node.idle());
  EXPECT_NEAR(node.next_completion_time(), 100.0 * expected_spw, 1e-9);

  const auto finished = node.advance_to(node.next_completion_time() + 1e-9);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].id, 1);
  EXPECT_NEAR(finished[0].finish_time, 100.0 * expected_spw, 1e-9);
  EXPECT_TRUE(node.idle());
}

TEST(Node, PartialAdvanceKeepsJobRunning) {
  Node node(0);
  node.dispatch_exclusive(make_job(1, "sgemm", 100.0), 250.0);
  const double completion = node.next_completion_time();
  const auto finished = node.advance_to(completion / 2.0);
  EXPECT_TRUE(finished.empty());
  EXPECT_FALSE(node.idle());
  EXPECT_NEAR(node.next_completion_time(), completion, 1e-9);
}

TEST(Node, PairCompletionOrderFollowsRates) {
  Node node(0);
  // Same kernel both slots, different work: the smaller job finishes first.
  node.dispatch_pair(make_job(1, "sgemm", 50.0), make_job(2, "sgemm", 500.0),
                     core::PartitionState{4, 3, MemOption::Private}, 250.0);
  const auto first = node.advance_to(node.next_completion_time() + 1e-9);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 1);
  EXPECT_FALSE(node.idle());
  const auto second = node.advance_to(1e6);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 2);
  EXPECT_TRUE(node.idle());
}

TEST(Node, SurvivorSpeedsUpAfterCorunnerFinishes) {
  // A US job sharing with a heavy kernel runs slower than after the heavy
  // kernel leaves.
  Node node(0);
  node.dispatch_pair(make_job(1, "stream", 10.0), make_job(2, "dwt2d", 20000.0),
                     core::PartitionState{4, 3, MemOption::Shared}, 250.0);
  const double t_first = node.next_completion_time();
  const auto first = node.advance_to(t_first + 1e-12);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 1);  // stream's small job finishes first

  // dwt2d's remaining time should now reflect the interference-free rate.
  const auto& dwt2d = test::shared_registry().by_name("dwt2d").kernel;
  const double solo_spw =
      node.chip().run_solo(dwt2d, 3, MemOption::Shared, 250.0).apps[0].seconds_per_wu;
  const double remaining_time = node.next_completion_time() - node.now();
  EXPECT_GT(remaining_time, 0.0);
  // Remaining work * solo rate should match the predicted completion.
  const double remaining_work = remaining_time / solo_spw;
  EXPECT_LT(remaining_work, 20000.0);
}

TEST(Node, EnergyIntegratesPowerOverTime) {
  Node node(0);
  const auto& kmeans = test::shared_registry().by_name("kmeans").kernel;
  node.dispatch_exclusive(make_job(1, "kmeans", 100.0), 250.0);
  const auto run = node.chip().run_full_chip(kmeans, 250.0);
  const double duration = node.next_completion_time();
  node.advance_to(duration + 1e-12);
  EXPECT_NEAR(node.energy_joules(), run.power_watts * duration,
              run.power_watts * duration * 1e-6);
}

TEST(Node, IdleTimeAccruesIdlePower) {
  Node node(0);
  node.advance_to(10.0);
  EXPECT_NEAR(node.energy_joules(), node.chip().arch().idle_power_watts * 10.0, 1e-6);
}

TEST(Node, DispatchContracts) {
  Node node(0);
  node.dispatch_exclusive(make_job(1, "sgemm", 10.0), 250.0);
  EXPECT_THROW(node.dispatch_exclusive(make_job(2, "stream", 10.0), 250.0),
               ContractViolation);
  EXPECT_THROW(node.dispatch_pair(make_job(3, "sgemm", 1.0), make_job(4, "stream", 1.0),
                                  core::PartitionState{4, 3, MemOption::Shared}, 250.0),
               ContractViolation);
  EXPECT_THROW(node.advance_to(-1.0), ContractViolation);
}

}  // namespace
}  // namespace migopt::sched
