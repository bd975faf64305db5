#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/features.hpp"
#include "test_util.hpp"

namespace migopt::core {
namespace {

using gpusim::MemOption;
using test::shared_artifacts;
using test::shared_chip;
using test::shared_pairs;
using test::shared_registry;

TEST(Trainer, ProfilesEveryBenchmark) {
  const auto& artifacts = shared_artifacts();
  EXPECT_EQ(artifacts.profiles.size(), shared_registry().size());
  EXPECT_EQ(artifacts.report.profile_runs, shared_registry().size());
}

TEST(Trainer, ScalabilityKeysCoverFullGrid) {
  // 5 sizes x 2 options x 6 caps = 60 C-keys.
  const auto& artifacts = shared_artifacts();
  EXPECT_EQ(artifacts.model.scalability_entries(), 60u);
  for (int gpcs : {1, 2, 3, 4, 7})
    for (const auto option : {MemOption::Private, MemOption::Shared})
      for (double cap : paper_power_caps())
        EXPECT_TRUE(artifacts.model.has_scalability(
            ModelKey::make(gpcs, option, cap)))
            << gpcs << "/" << gpusim::to_string(option) << "/" << cap;
}

TEST(Trainer, InterferenceKeysCoverCorunSizes) {
  // Sizes 3 and 4 (the paper's states) x 2 options x 6 caps = 24 D-keys.
  const auto& artifacts = shared_artifacts();
  EXPECT_EQ(artifacts.model.interference_entries(), 24u);
  for (int gpcs : {3, 4})
    for (const auto option : {MemOption::Private, MemOption::Shared})
      for (double cap : paper_power_caps())
        EXPECT_TRUE(artifacts.model.has_interference(
            ModelKey::make(gpcs, option, cap)));
}

TEST(Trainer, RunCountsMatchGrid) {
  const auto& artifacts = shared_artifacts();
  EXPECT_EQ(artifacts.report.solo_runs, 60u * 24u);
  EXPECT_EQ(artifacts.report.corun_runs, 18u * 4u * 6u);
}

TEST(Trainer, FitResidualsAreSmall) {
  const auto& artifacts = shared_artifacts();
  EXPECT_GT(artifacts.report.solo_fit_rmse, 0.0);
  EXPECT_LT(artifacts.report.solo_fit_rmse, 0.12);
  EXPECT_GT(artifacts.report.corun_fit_rmse, 0.0);
  EXPECT_LT(artifacts.report.corun_fit_rmse, 0.15);
}

TEST(Trainer, SoloPredictionsTrackMeasurements) {
  // Across the full grid, predicted solo RPerf should correlate strongly
  // with measurement (in-sample fit).
  const auto& artifacts = shared_artifacts();
  std::vector<double> measured;
  std::vector<double> predicted;
  for (const auto& spec : shared_registry().all()) {
    const auto& profile = artifacts.profiles.at(spec.kernel.name);
    for (int gpcs : {1, 4, 7}) {
      for (double cap : {150.0, 250.0}) {
        const auto run =
            shared_chip().run_solo(spec.kernel, gpcs, MemOption::Shared, cap);
        measured.push_back(
            shared_chip().relative_performance(spec.kernel, run.apps[0]));
        predicted.push_back(artifacts.model.predict_solo(
            ModelKey::make(gpcs, MemOption::Shared, cap), profile));
      }
    }
  }
  EXPECT_GT(stats::pearson(measured, predicted), 0.97);
  EXPECT_GT(stats::r_squared(measured, predicted), 0.93);
}

TEST(Trainer, SequentialMatchesParallel) {
  TrainingConfig config;
  config.power_caps = {250.0};
  config.solo_gpc_sizes = {3, 4};
  config.parallel = false;
  const auto sequential = train_offline(shared_chip(), shared_registry(),
                                        shared_pairs(), config);
  config.parallel = true;
  const auto parallel = train_offline(shared_chip(), shared_registry(),
                                      shared_pairs(), config);
  for (const auto& key : sequential.model.scalability_keys()) {
    for (std::size_t i = 0; i < kHBasisCount; ++i)
      EXPECT_NEAR(sequential.model.scalability(key)[i],
                  parallel.model.scalability(key)[i], 1e-10)
          << key.to_string();
  }
}

TEST(Trainer, ParallelIsBitIdenticalToSequentialOnABusyMachine) {
  // Co-run samples are folded in task-index order, so the ridge row order —
  // and every coefficient, to the last bit — must not depend on how the
  // pool schedules tasks. A second pool spins on every hardware thread so
  // the trainer's workers are preempted and finish out of order.
  TrainingConfig config;  // the full paper grid: enough tasks to interleave
  config.parallel = false;
  const auto sequential = train_offline(shared_chip(), shared_registry(),
                                        shared_pairs(), config);

  std::atomic<bool> stop{false};
  ThreadPool load;
  for (std::size_t i = 0; i < load.thread_count(); ++i)
    load.submit([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  config.parallel = true;
  std::vector<TrainedArtifacts> parallel;
  for (int repeat = 0; repeat < 4; ++repeat)
    parallel.push_back(train_offline(shared_chip(), shared_registry(),
                                     shared_pairs(), config));
  stop = true;

  for (const TrainedArtifacts& run : parallel) {
    ASSERT_EQ(run.model.scalability_keys(), sequential.model.scalability_keys());
    ASSERT_EQ(run.model.interference_entries(),
              sequential.model.interference_entries());
    for (const auto& key : sequential.model.scalability_keys()) {
      for (std::size_t i = 0; i < kHBasisCount; ++i)
        EXPECT_EQ(run.model.scalability(key)[i], sequential.model.scalability(key)[i])
            << key.to_string();
      // Interference keys are a subset of the solo grid.
      ASSERT_EQ(run.model.has_interference(key),
                sequential.model.has_interference(key));
      if (!sequential.model.has_interference(key)) continue;
      for (std::size_t i = 0; i < kJBasisCount; ++i)
        EXPECT_EQ(run.model.interference(key)[i],
                  sequential.model.interference(key)[i])
            << key.to_string();
    }
    EXPECT_EQ(run.report.solo_fit_rmse, sequential.report.solo_fit_rmse);
    EXPECT_EQ(run.report.corun_fit_rmse, sequential.report.corun_fit_rmse);
  }
}

TEST(Trainer, CustomGridShrinksModel) {
  TrainingConfig config;
  // The solo grid must still cover the GPC sizes the co-run states use
  // (3 and 4 for the paper's S1-S4), but dropping sizes 1/2/7 and all caps
  // but one shrinks the model accordingly.
  config.solo_gpc_sizes = {3, 4};
  config.power_caps = {250.0};
  const auto artifacts = train_offline(shared_chip(), shared_registry(),
                                       shared_pairs(), config);
  EXPECT_EQ(artifacts.model.scalability_entries(), 4u);  // 2 sizes x 2 options
}

TEST(Trainer, SoloGridMustCoverCorunSizes) {
  // Training data for the interference term is the residual against the solo
  // prediction; a solo grid missing a co-run partition size cannot train.
  TrainingConfig config;
  config.solo_gpc_sizes = {4};  // S1-S4 also need 3-GPC coefficients
  config.power_caps = {250.0};
  EXPECT_THROW(
      train_offline(shared_chip(), shared_registry(), shared_pairs(), config),
      ContractViolation);
}

TEST(Trainer, RejectsBadConfigs) {
  TrainingConfig config;
  config.solo_gpc_sizes = {};
  EXPECT_THROW(train_offline(shared_chip(), shared_registry(), shared_pairs(), config),
               ContractViolation);
  config = TrainingConfig{};
  config.power_caps = {};
  EXPECT_THROW(train_offline(shared_chip(), shared_registry(), shared_pairs(), config),
               ContractViolation);
  config = TrainingConfig{};
  config.solo_gpc_sizes = {5};  // invalid MIG size
  EXPECT_THROW(train_offline(shared_chip(), shared_registry(), shared_pairs(), config),
               ContractViolation);
}

TEST(Trainer, InterferenceTermIsNegativeOnAverageForSharedVictims) {
  // Co-runners hurt, so the D-part (with a bandwidth-heavy partner's J) should
  // reduce predicted performance for shared-memory victims.
  const auto& artifacts = shared_artifacts();
  const auto& stream_profile = artifacts.profiles.at("stream");
  const ModelKey key = ModelKey::make(3, MemOption::Shared, 250.0);
  const auto& d = artifacts.model.interference(key);
  const auto j = basis_j(stream_profile);
  double interference = 0.0;
  for (std::size_t i = 0; i < kJBasisCount; ++i) interference += d[i] * j[i];
  EXPECT_LT(interference, 0.0);
}

}  // namespace
}  // namespace migopt::core
