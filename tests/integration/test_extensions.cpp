// Cross-module integration tests for the extension features: persistence
// round-trips through the allocator, budget-constrained cluster runs, and
// N-way decisions measured end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/evaluator.hpp"
#include "core/workflow.hpp"
#include "sched/cluster.hpp"
#include "sched/power_broker.hpp"
#include "test_util.hpp"

namespace migopt {
namespace {

using test::shared_artifacts;
using test::shared_chip;
using test::shared_pairs;
using test::shared_registry;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(ExtensionIntegration, PersistedArtifactsReproduceDecisions) {
  // Train -> save -> load -> the reloaded allocator makes identical
  // decisions (the CLI's deployment path).
  const auto& artifacts = shared_artifacts();
  const std::string model_path = temp_path("model_roundtrip.csv");
  const std::string profiles_path = temp_path("profiles_roundtrip.csv");
  artifacts.model.save(model_path);
  artifacts.profiles.save(profiles_path);

  const core::ResourcePowerAllocator reloaded(
      core::PerfModel::load(model_path),
      prof::ProfileDb::load(profiles_path),
      core::ResourcePowerAllocator::Config{});
  const core::ResourcePowerAllocator fresh(
      artifacts.model, artifacts.profiles,
      core::ResourcePowerAllocator::Config{});

  for (const auto& pair : shared_pairs()) {
    for (const auto policy :
         {core::Policy::problem1(230.0, 0.2), core::Policy::problem2(0.2)}) {
      const auto a = fresh.allocate(pair.app1, pair.app2, policy);
      const auto b = reloaded.allocate(pair.app1, pair.app2, policy);
      EXPECT_EQ(a.feasible, b.feasible) << pair.name;
      EXPECT_EQ(a.state, b.state) << pair.name;
      EXPECT_DOUBLE_EQ(a.power_cap_watts, b.power_cap_watts) << pair.name;
      EXPECT_NEAR(a.objective_value, b.objective_value,
                  1e-9 * std::max(1.0, a.objective_value))
          << pair.name;
    }
  }
  std::remove(model_path.c_str());
  std::remove(profiles_path.c_str());
}

TEST(ExtensionIntegration, BrokerPlanRunsWithinClusterBudget) {
  // The broker's per-node caps, executed on real Node objects under the
  // cluster's budget accounting, complete the workload without ever
  // exceeding the budgeted cap sum.
  auto allocator = core::ResourcePowerAllocator::train(
      shared_chip(), shared_registry(), shared_pairs());
  const sched::PowerBroker broker(allocator, 0.2);
  const std::vector<sched::NodePairWorkload> workloads = {
      {"tdgemm", "tf32gemm"}, {"kmeans", "needle"}};
  const double budget = 420.0;
  const auto plan = broker.allocate(workloads, budget);
  ASSERT_EQ(plan.nodes.size(), 2u);
  EXPECT_LE(plan.total_cap_watts, budget + 1e-9);

  // Execute each node's pair at its brokered cap and state.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& decision = plan.nodes[i].decision;
    ASSERT_TRUE(decision.feasible) << i;
    sched::Node node(static_cast<int>(i));
    sched::Job a;
    a.id = static_cast<int>(2 * i);
    a.app_id = allocator.intern_app(workloads[i].app1);
    a.kernel = &shared_registry().by_name(workloads[i].app1).kernel;
    a.work_units = 50.0;
    sched::Job b = a;
    b.id = a.id + 1;
    b.app_id = allocator.intern_app(workloads[i].app2);
    b.kernel = &shared_registry().by_name(workloads[i].app2).kernel;
    node.dispatch_pair(a, b, decision.state, plan.nodes[i].cap_watts);
    EXPECT_LE(node.cap_watts(), plan.nodes[i].cap_watts + 1e-9);
    const auto finished = node.advance_to(1e6);
    EXPECT_EQ(finished.size(), 2u);
  }
}

TEST(ExtensionIntegration, GroupDecisionSurvivesMeasurement) {
  // The N-way optimizer's predicted winner, when actually measured, must be
  // a reasonable configuration: feasible fairness and throughput within the
  // model's error band of the prediction.
  const auto& artifacts = test::shared_flexible_artifacts();
  const core::Optimizer optimizer(artifacts.model, core::paper_states(),
                                  core::paper_power_caps());
  const auto states = core::group_states(shared_chip().arch(), 3);
  const std::vector<prof::CounterSet> profiles = {
      artifacts.profiles.at("igemm4"), artifacts.profiles.at("stream"),
      artifacts.profiles.at("needle")};
  const auto decision = optimizer.decide_group(profiles, states,
                                               core::Policy::problem1(230.0, 0.2));
  ASSERT_TRUE(decision.feasible);

  const std::vector<const gpusim::KernelDescriptor*> kernels = {
      &shared_registry().by_name("igemm4").kernel,
      &shared_registry().by_name("stream").kernel,
      &shared_registry().by_name("needle").kernel};
  const auto measured = core::measure_group(shared_chip(), kernels,
                                            decision.state, 230.0);
  EXPECT_GT(measured.throughput, 1.0);  // beats time sharing
  EXPECT_NEAR(measured.throughput, decision.predicted.throughput,
              decision.predicted.throughput * 0.35);
}

TEST(ExtensionIntegration, BudgetedClusterMatchesUnbudgetedWhenLoose) {
  // A budget that can never bind must not change the schedule.
  const auto jobs = [](sched::CoScheduler& scheduler) {
    std::vector<sched::Job> out;
    int id = 0;
    for (const char* app : {"igemm4", "stream", "sgemm", "needle"}) {
      sched::Job job;
      job.id = id++;
      job.app_id = scheduler.intern_app(app);
      job.kernel = &shared_registry().by_name(app).kernel;
      job.work_units = 100.0;
      out.push_back(job);
    }
    return out;
  };

  auto allocator_a = core::ResourcePowerAllocator::train(
      shared_chip(), shared_registry(), shared_pairs());
  sched::CoScheduler sched_a(allocator_a, core::Policy::problem1(250.0, 0.2));
  sched::ClusterConfig config;
  config.node_count = 2;
  sched::Cluster unbudgeted(config);
  const auto base = unbudgeted.run(jobs(sched_a), sched_a);

  auto allocator_b = core::ResourcePowerAllocator::train(
      shared_chip(), shared_registry(), shared_pairs());
  sched::CoScheduler sched_b(allocator_b, core::Policy::problem1(250.0, 0.2));
  config.total_power_budget_watts = 10000.0;  // never binds
  sched::Cluster budgeted(config);
  const auto loose = budgeted.run(jobs(sched_b), sched_b);

  EXPECT_DOUBLE_EQ(base.makespan_seconds, loose.makespan_seconds);
  EXPECT_EQ(base.pair_dispatches, loose.pair_dispatches);
}

}  // namespace
}  // namespace migopt
