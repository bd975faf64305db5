// Shared fixtures: a process-wide simulated device, workload registry, and
// (lazily) trained artifacts, so the many tests that need them do not redo
// the expensive setup; plus a bit-equality check for optimizer decisions.
#pragma once

#include <gtest/gtest.h>

#include "core/optimizer.hpp"
#include "core/trainer.hpp"
#include "gpusim/gpu.hpp"
#include "workloads/corun_pairs.hpp"
#include "workloads/registry.hpp"

namespace migopt::test {

inline gpusim::GpuChip& shared_chip() {
  static gpusim::GpuChip chip;
  return chip;
}

inline const wl::WorkloadRegistry& shared_registry() {
  static wl::WorkloadRegistry registry(shared_chip().arch());
  return registry;
}

inline const std::vector<wl::CorunPair>& shared_pairs() {
  static std::vector<wl::CorunPair> pairs = wl::table8_pairs();
  return pairs;
}

/// Full paper-grid training, done once per test binary.
inline const core::TrainedArtifacts& shared_artifacts() {
  static core::TrainedArtifacts artifacts = core::train_offline(
      shared_chip(), shared_registry(), shared_pairs(), core::TrainingConfig{});
  return artifacts;
}

/// Training over the flexible pair grid: interference coefficients cover
/// every GI size 1-4 in both options, which group (N-way) predictions need.
inline const core::TrainedArtifacts& shared_flexible_artifacts() {
  static core::TrainedArtifacts artifacts = [] {
    core::TrainingConfig config;
    config.corun_states = core::flexible_states(shared_chip().arch());
    return core::train_offline(shared_chip(), shared_registry(), shared_pairs(),
                               config);
  }();
  return artifacts;
}

/// Every field of two optimizer decisions is bit-equal.
inline void expect_bit_equal(const core::Decision& a, const core::Decision& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_TRUE(a.state == b.state);
  EXPECT_EQ(a.power_cap_watts, b.power_cap_watts);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.predicted.relperf_app1, b.predicted.relperf_app1);
  EXPECT_EQ(a.predicted.relperf_app2, b.predicted.relperf_app2);
  EXPECT_EQ(a.predicted.throughput, b.predicted.throughput);
  EXPECT_EQ(a.predicted.fairness, b.predicted.fairness);
  EXPECT_EQ(a.predicted.power_cap_watts, b.predicted.power_cap_watts);
  EXPECT_EQ(a.predicted.energy_efficiency, b.predicted.energy_efficiency);
}

}  // namespace migopt::test
