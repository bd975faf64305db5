#include "core/evaluator.hpp"

#include <array>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/metrics.hpp"

namespace migopt::core {

namespace detail {

void throw_missing_pair_coeffs(const PerfModel& model,
                               const PartitionState& state,
                               double power_cap_watts) {
  // Reproduce the exact failure predict_pair's slow path raises, in the same
  // order: key construction contracts first, then key1's C/D, then key2's.
  const ModelKey key1 =
      ModelKey::make(state.gpcs_app1, state.option, power_cap_watts);
  const ModelKey key2 =
      ModelKey::make(state.gpcs_app2, state.option, power_cap_watts);
  model.scalability(key1);
  model.interference(key1);
  model.scalability(key2);
  model.interference(key2);
  MIGOPT_REQUIRE(false, "dense keys were not interned against this model's "
                        "current revision");
}

}  // namespace detail

namespace {

PairMetrics finish(double r1, double r2, double cap) {
  const PairMetrics m = make_pair_metrics(r1, r2, cap);
  // The span-based helpers define (and validate) the metrics; the inline
  // assembly must agree exactly, or predicted and measured pair metrics
  // would silently diverge.
  const std::array<double, 2> rels = {r1, r2};
  MIGOPT_ENSURE(m.throughput == weighted_speedup(rels) &&
                    m.fairness == fairness(rels) &&
                    m.energy_efficiency == energy_efficiency(m.throughput, cap),
                "make_pair_metrics diverged from the core metric helpers");
  return m;
}

}  // namespace

PairMetrics measure_pair(const gpusim::GpuChip& chip,
                         const gpusim::KernelDescriptor& app1,
                         const gpusim::KernelDescriptor& app2,
                         const PartitionState& state, double power_cap_watts) {
  const gpusim::RunResult run =
      chip.run_pair(app1, state.gpcs_app1, app2, state.gpcs_app2, state.option,
                    power_cap_watts);
  const double r1 = chip.relative_performance(app1, run.apps[0]);
  const double r2 = chip.relative_performance(app2, run.apps[1]);
  return finish(r1, r2, power_cap_watts);
}

PairMetrics predict_pair_prepared(const PerfModel& model,
                                  const PreparedPair& prepared,
                                  const PartitionState& state,
                                  double power_cap_watts) {
  const int watts = cap_grid_watts(power_cap_watts);
  PerfModel::DenseKey key1 = PerfModel::kNoKey;
  PerfModel::DenseKey key2 = PerfModel::kNoKey;
  if (watts > 0) {
    key1 = model.dense_key(state.gpcs_app1, state.option, watts);
    key2 = model.dense_key(state.gpcs_app2, state.option, watts);
  }
  return predict_pair_prepared(model, prepared, key1, key2, state,
                               power_cap_watts);
}

PairMetrics predict_pair(const PerfModel& model, const prof::CounterSet& profile1,
                         const prof::CounterSet& profile2,
                         const PartitionState& state, double power_cap_watts) {
  return predict_pair_prepared(model, prepare_pair(profile1, profile2), state,
                               power_cap_watts);
}

namespace {

GroupMetrics finish_group(std::vector<double> relperf, double cap) {
  GroupMetrics m;
  m.relperf = std::move(relperf);
  m.throughput = weighted_speedup(m.relperf);
  m.fairness = fairness(m.relperf);
  m.power_cap_watts = cap;
  m.energy_efficiency = energy_efficiency(m.throughput, cap);
  return m;
}

}  // namespace

GroupMetrics measure_group(const gpusim::GpuChip& chip,
                           std::span<const gpusim::KernelDescriptor* const> kernels,
                           const GroupState& state, double power_cap_watts) {
  MIGOPT_REQUIRE(kernels.size() == state.size(),
                 "kernel count does not match the group state");
  std::vector<gpusim::GpuChip::GroupMember> members(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    MIGOPT_REQUIRE(kernels[i] != nullptr, "null kernel in group");
    members[i].kernel = kernels[i];
    members[i].gpcs = state.gpcs_of(i);
  }
  const gpusim::RunResult run =
      chip.run_group(members, state.option, power_cap_watts);
  std::vector<double> relperf(kernels.size(), 0.0);
  for (std::size_t i = 0; i < kernels.size(); ++i)
    relperf[i] = chip.relative_performance(*kernels[i], run.apps[i]);
  return finish_group(std::move(relperf), power_cap_watts);
}

PreparedGroup prepare_group(std::span<const prof::CounterSet> profiles) {
  PreparedGroup prepared;
  prepared.h.reserve(profiles.size());
  prepared.j.reserve(profiles.size());
  for (const auto& profile : profiles) {
    prepared.h.push_back(basis_h(profile));
    prepared.j.push_back(basis_j(profile));
  }
  return prepared;
}

GroupMetrics predict_group_prepared(const PerfModel& model,
                                    const PreparedGroup& prepared,
                                    const GroupState& state,
                                    double power_cap_watts) {
  MIGOPT_REQUIRE(prepared.size() == state.size(),
                 "profile count does not match the group state");
  const std::size_t n = prepared.size();
  const bool need_interference = n > 1;
  std::vector<double> relperf(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const ModelKey key =
        ModelKey::make(state.gpcs_of(i), state.option, power_cap_watts);
    const PerfModel::CVector& c = model.scalability(key);
    double acc = 0.0;
    for (std::size_t b = 0; b < kHBasisCount; ++b)
      acc += c[b] * prepared.h[i][b];
    if (need_interference) {
      const PerfModel::DVector& d = model.interference(key);
      for (std::size_t other = 0; other < n; ++other) {
        if (other == i) continue;
        for (std::size_t b = 0; b < kJBasisCount; ++b)
          acc += d[b] * prepared.j[other][b];
      }
    }
    relperf[i] = PerfModel::clamp_relperf(acc);
  }
  return finish_group(std::move(relperf), power_cap_watts);
}

GroupMetrics predict_group(const PerfModel& model,
                           std::span<const prof::CounterSet> profiles,
                           const GroupState& state, double power_cap_watts) {
  MIGOPT_REQUIRE(profiles.size() == state.size(),
                 "profile count does not match the group state");
  return predict_group_prepared(model, prepare_group(profiles), state,
                                power_cap_watts);
}

}  // namespace migopt::core
