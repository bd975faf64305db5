#include "sched/power_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/assert.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

core::ResourcePowerAllocator& broker_allocator() {
  static core::ResourcePowerAllocator allocator =
      core::ResourcePowerAllocator::train(test::shared_chip(),
                                          test::shared_registry(),
                                          test::shared_pairs());
  return allocator;
}

// Power-hungry Tensor pair, a balanced mix, and a power-insensitive
// unscalable pair — the setting where shifting budget pays.
std::vector<NodePairWorkload> mixed_cluster() {
  return {{"tdgemm", "tf32gemm"}, {"igemm4", "stream"}, {"kmeans", "needle"}};
}

TEST(PowerBroker, AbundantBudgetMaxesEveryNode) {
  const PowerBroker broker(broker_allocator(), 0.2);
  const auto plan = broker.allocate(mixed_cluster(), 3 * 250.0);
  ASSERT_EQ(plan.nodes.size(), 3u);
  // Power-sensitive nodes are driven to the top cap; the US pair gains
  // nothing from more power, so its cap stays wherever gains stopped.
  EXPECT_DOUBLE_EQ(plan.nodes[0].cap_watts, 250.0);
  EXPECT_DOUBLE_EQ(plan.nodes[1].cap_watts, 250.0);
  EXPECT_LE(plan.total_cap_watts, 3 * 250.0 + 1e-9);
}

TEST(PowerBroker, FloorBudgetPinsEveryNodeToLowestCap) {
  const PowerBroker broker(broker_allocator(), 0.2);
  const auto plan = broker.allocate(mixed_cluster(), 3 * 150.0);
  for (const auto& node : plan.nodes) EXPECT_DOUBLE_EQ(node.cap_watts, 150.0);
}

TEST(PowerBroker, ShiftsBudgetTowardPowerSensitiveNodes) {
  // One 20 W step above the floor: it must go to a compute pair, not the
  // unscalable pair (which cannot convert power into throughput).
  const PowerBroker broker(broker_allocator(), 0.2);
  const auto plan = broker.allocate(mixed_cluster(), 3 * 150.0 + 20.0);
  EXPECT_DOUBLE_EQ(plan.nodes[2].cap_watts, 150.0);  // US-US stays at floor
  EXPECT_DOUBLE_EQ(plan.nodes[0].cap_watts + plan.nodes[1].cap_watts,
                   150.0 + 170.0);
}

TEST(PowerBroker, TotalNeverExceedsBudget) {
  const PowerBroker broker(broker_allocator(), 0.2);
  for (const double budget : {450.0, 510.0, 570.0, 630.0, 750.0}) {
    const auto plan = broker.allocate(mixed_cluster(), budget);
    EXPECT_LE(plan.total_cap_watts, budget + 1e-9) << budget;
  }
}

TEST(PowerBroker, ThroughputMonotoneInBudget) {
  const PowerBroker broker(broker_allocator(), 0.2);
  double previous = 0.0;
  for (const double budget : {450.0, 490.0, 530.0, 570.0, 650.0, 750.0}) {
    const auto plan = broker.allocate(mixed_cluster(), budget);
    EXPECT_GE(plan.predicted_total_throughput, previous - 1e-12) << budget;
    previous = plan.predicted_total_throughput;
  }
}

TEST(PowerBroker, GreedyMatchesExhaustiveOracle) {
  const PowerBroker broker(broker_allocator(), 0.2);
  for (const double budget : {450.0, 530.0, 610.0, 690.0}) {
    const auto greedy = broker.allocate(mixed_cluster(), budget);
    const auto oracle = broker.allocate_exhaustive(mixed_cluster(), budget);
    // Greedy is optimal for concave utilities; allow a whisker of slack in
    // case a utility step is locally non-concave.
    EXPECT_GE(greedy.predicted_total_throughput,
              oracle.predicted_total_throughput * 0.995)
        << budget;
  }
}

TEST(PowerBroker, PlansCarryDecisions) {
  const PowerBroker broker(broker_allocator(), 0.2);
  const auto plan = broker.allocate(mixed_cluster(), 600.0);
  for (const auto& node : plan.nodes) {
    EXPECT_TRUE(node.decision.feasible);
    EXPECT_DOUBLE_EQ(node.decision.power_cap_watts, node.cap_watts);
    EXPECT_GT(node.decision.predicted.throughput, 0.0);
  }
}

TEST(PowerBroker, Contracts) {
  EXPECT_THROW(PowerBroker(broker_allocator(), -0.1), ContractViolation);
  const PowerBroker broker(broker_allocator(), 0.2);
  EXPECT_THROW(broker.allocate({}, 500.0), ContractViolation);
  // Budget below the floor (3 nodes x 150 W).
  EXPECT_THROW(broker.allocate(mixed_cluster(), 400.0), ContractViolation);
  // Oracle is capped at bench-sized clusters.
  const std::vector<NodePairWorkload> big(7, {"kmeans", "needle"});
  EXPECT_THROW(broker.allocate_exhaustive(big, 7 * 250.0), ContractViolation);
}

TEST(PowerBroker, CustomCapGridIsRespected) {
  const PowerBroker broker(broker_allocator(), 0.2, {150.0, 250.0});
  const auto plan = broker.allocate(mixed_cluster(), 3 * 150.0 + 100.0);
  for (const auto& node : plan.nodes) {
    EXPECT_TRUE(node.cap_watts == 150.0 || node.cap_watts == 250.0)
        << node.cap_watts;
  }
}

TEST(PowerBroker, ShedVictimOrderIsPriorityThenCapThenIndex) {
  // Lowest resident priority loses first.
  EXPECT_EQ(PowerBroker::pick_shed_victim({{0, 250.0, 5},
                                           {1, 150.0, 1},
                                           {2, 250.0, 3}}),
            1u);
  // Priority tie: the larger cap sheds (frees the most budget per kill).
  EXPECT_EQ(PowerBroker::pick_shed_victim({{0, 150.0, 2},
                                           {1, 250.0, 2},
                                           {2, 200.0, 2}}),
            1u);
  // Full tie: lowest node index — the order must be total so faulted
  // replays stay bit-identical across thread counts.
  EXPECT_EQ(PowerBroker::pick_shed_victim({{3, 250.0, 0},
                                           {1, 250.0, 0},
                                           {2, 250.0, 0}}),
            1u);
  EXPECT_THROW(PowerBroker::pick_shed_victim({}), ContractViolation);
}

}  // namespace
}  // namespace migopt::sched
