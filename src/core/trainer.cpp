#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/linalg.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/features.hpp"
#include "profiling/profiler.hpp"

namespace migopt::core {

namespace {

/// One (gpcs, option, cap) combination of the solo grid.
struct SoloKeyTask {
  ModelKey key;
  gpusim::MemOption option;
  int gpcs;
  double cap;
};

void run_indexed(bool parallel, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  if (parallel) {
    ThreadPool::shared().parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace

TrainedArtifacts train_offline(const gpusim::GpuChip& chip,
                               const wl::WorkloadRegistry& registry,
                               const std::vector<wl::CorunPair>& training_pairs,
                               const TrainingConfig& config) {
  MIGOPT_REQUIRE(!config.solo_gpc_sizes.empty(), "empty solo grid");
  MIGOPT_REQUIRE(!config.power_caps.empty(), "empty power cap grid");
  MIGOPT_REQUIRE(registry.size() >= kHBasisCount,
                 "need at least as many benchmarks as H-basis terms");
  // Co-run residuals subtract the solo prediction, so every partition size
  // used by a co-run state must be part of the solo grid.
  for (const auto& state : config.corun_states)
    for (const int gpcs : {state.gpcs_app1, state.gpcs_app2})
      MIGOPT_REQUIRE(std::find(config.solo_gpc_sizes.begin(),
                               config.solo_gpc_sizes.end(),
                               gpcs) != config.solo_gpc_sizes.end(),
                     "co-run state uses GPC size " + std::to_string(gpcs) +
                         " missing from the solo grid");

  TrainedArtifacts artifacts;

  // Warm the baseline cache serially: every later measurement divides by it,
  // and populating it up front keeps the parallel phases contention-free.
  for (const auto& spec : registry.all()) chip.baseline_seconds(spec.kernel);

  // ---- step 1: profile runs ------------------------------------------------
  {
    std::vector<prof::CounterSet> counters(registry.size());
    run_indexed(config.parallel, registry.size(), [&](std::size_t i) {
      counters[i] = prof::profile_run(chip, registry.all()[i].kernel);
    });
    for (std::size_t i = 0; i < registry.size(); ++i)
      artifacts.profiles.put(registry.all()[i].kernel.name, counters[i]);
    artifacts.report.profile_runs = registry.size();
  }

  // Precompute the basis vectors once.
  std::vector<std::array<double, kHBasisCount>> h_of(registry.size());
  std::vector<std::array<double, kJBasisCount>> j_of(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& profile = artifacts.profiles.at(registry.all()[i].kernel.name);
    h_of[i] = basis_h(profile);
    j_of[i] = basis_j(profile);
  }

  // ---- step 2: solo scaling grid -> C ---------------------------------------
  std::vector<SoloKeyTask> solo_tasks;
  for (const int gpcs : config.solo_gpc_sizes) {
    MIGOPT_REQUIRE(chip.arch().valid_gi_size(gpcs),
                   "invalid MIG size in solo grid: " + std::to_string(gpcs));
    for (const auto option :
         {gpusim::MemOption::Private, gpusim::MemOption::Shared}) {
      for (const double cap : config.power_caps) {
        SoloKeyTask task;
        task.key = ModelKey::make(gpcs, option, cap);
        task.option = option;
        task.gpcs = gpcs;
        task.cap = cap;
        solo_tasks.push_back(task);
      }
    }
  }

  std::vector<PerfModel::CVector> c_results(solo_tasks.size());
  std::vector<double> solo_sq_residual(solo_tasks.size(), 0.0);
  run_indexed(config.parallel, solo_tasks.size(), [&](std::size_t task_index) {
    const SoloKeyTask& task = solo_tasks[task_index];
    Matrix design(registry.size(), kHBasisCount);
    std::vector<double> rhs(registry.size(), 0.0);
    for (std::size_t b = 0; b < registry.size(); ++b) {
      const auto& kernel = registry.all()[b].kernel;
      const gpusim::RunResult run =
          chip.run_solo(kernel, task.gpcs, task.option, task.cap);
      rhs[b] = chip.relative_performance(kernel, run.apps.front());
      for (std::size_t col = 0; col < kHBasisCount; ++col)
        design(b, col) = h_of[b][col];
    }
    const auto fit = linalg::ridge(design, rhs, config.ridge_lambda,
                                   /*penalize_last_column=*/false);
    PerfModel::CVector c{};
    for (std::size_t col = 0; col < kHBasisCount; ++col) c[col] = fit.coefficients[col];
    c_results[task_index] = c;
    solo_sq_residual[task_index] = fit.residual_norm * fit.residual_norm;
  });

  double solo_sq_sum = 0.0;
  for (std::size_t i = 0; i < solo_tasks.size(); ++i) {
    artifacts.model.set_scalability(solo_tasks[i].key, c_results[i]);
    solo_sq_sum += solo_sq_residual[i];
  }
  artifacts.report.solo_runs = solo_tasks.size() * registry.size();
  artifacts.report.solo_fit_rmse = std::sqrt(
      solo_sq_sum / static_cast<double>(artifacts.report.solo_runs));

  // ---- step 3: co-run residuals -> D ----------------------------------------
  struct CorunSample {
    std::array<double, kJBasisCount> j;
    double residual;
  };

  struct CorunTask {
    const wl::CorunPair* pair;
    PartitionState state;
    double cap;
  };
  std::vector<CorunTask> corun_tasks;
  for (const auto& pair : training_pairs)
    for (const auto& state : config.corun_states)
      for (const double cap : config.power_caps)
        corun_tasks.push_back({&pair, state, cap});

  // Each task writes its two samples into its own slot; they are grouped by
  // key in task-index order below, so every ridge design matrix has the same
  // row order (and the same coefficients, to the last bit) however the pool
  // schedules the tasks.
  struct CorunResult {
    ModelKey key1;
    ModelKey key2;
    CorunSample sample1;
    CorunSample sample2;
  };
  std::vector<CorunResult> corun_results(corun_tasks.size());

  run_indexed(config.parallel, corun_tasks.size(), [&](std::size_t task_index) {
    const CorunTask& task = corun_tasks[task_index];
    const auto resolved = wl::resolve(registry, *task.pair);
    const gpusim::RunResult run = chip.run_pair(
        resolved.app1->kernel, task.state.gpcs_app1, resolved.app2->kernel,
        task.state.gpcs_app2, task.state.option, task.cap);

    const double rel1 =
        chip.relative_performance(resolved.app1->kernel, run.apps[0]);
    const double rel2 =
        chip.relative_performance(resolved.app2->kernel, run.apps[1]);

    const ModelKey key1 =
        ModelKey::make(task.state.gpcs_app1, task.state.option, task.cap);
    const ModelKey key2 =
        ModelKey::make(task.state.gpcs_app2, task.state.option, task.cap);
    const auto& prof1 = artifacts.profiles.at(resolved.app1->kernel.name);
    const auto& prof2 = artifacts.profiles.at(resolved.app2->kernel.name);

    corun_results[task_index] = {
        key1, key2,
        CorunSample{basis_j(prof2), rel1 - artifacts.model.predict_solo(key1, prof1)},
        CorunSample{basis_j(prof1), rel2 - artifacts.model.predict_solo(key2, prof2)}};
  });
  // Group the samples by key: a stable sort keeps task-index order within
  // each key.
  std::vector<std::pair<ModelKey, CorunSample>> samples;
  samples.reserve(2 * corun_results.size());
  for (const CorunResult& result : corun_results) {
    samples.emplace_back(result.key1, result.sample1);
    samples.emplace_back(result.key2, result.sample2);
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  artifacts.report.corun_runs = corun_tasks.size();

  double corun_sq_sum = 0.0;
  for (std::size_t first = 0; first < samples.size();) {
    const ModelKey& key = samples[first].first;
    std::size_t last = first;
    while (last < samples.size() && samples[last].first == key) ++last;
    const std::size_t count = last - first;
    MIGOPT_ENSURE(count >= kJBasisCount,
                  "too few co-run samples for " + key.to_string());
    Matrix design(count, kJBasisCount);
    std::vector<double> rhs(count, 0.0);
    for (std::size_t s = 0; s < count; ++s) {
      for (std::size_t col = 0; col < kJBasisCount; ++col)
        design(s, col) = samples[first + s].second.j[col];
      rhs[s] = samples[first + s].second.residual;
    }
    const auto fit = linalg::ridge(design, rhs, config.ridge_lambda,
                                   /*penalize_last_column=*/false);
    PerfModel::DVector d{};
    for (std::size_t col = 0; col < kJBasisCount; ++col)
      d[col] = fit.coefficients[col];
    artifacts.model.set_interference(key, d);
    corun_sq_sum += fit.residual_norm * fit.residual_norm;
    first = last;
  }
  if (!samples.empty())
    artifacts.report.corun_fit_rmse =
        std::sqrt(corun_sq_sum / static_cast<double>(samples.size()));

  return artifacts;
}

}  // namespace migopt::core
