// Pair evaluation: compute (RPerf1, RPerf2, Throughput, Fairness) for one
// (state, cap) either *measured* on the device/simulator or *predicted* by
// the trained model. The optimizer consumes predictions; the benches use
// measurements for the paper's best/worst comparisons and Figure 8.
//
// The prediction side is layered for the search hot path: `prepare_pair` /
// `prepare_group` compute the H/J basis vectors once per profile, and the
// `*_prepared` scoring kernels sweep (state, cap) candidates against the
// model's dense coefficient rows without recomputing features or
// allocating. `predict_pair` / `predict_group` remain the
// convenience wrappers and produce bit-identical numbers.
#pragma once

#include <span>
#include <vector>

#include "core/hw_state.hpp"
#include "core/perf_model.hpp"
#include "gpusim/gpu.hpp"
#include "profiling/counters.hpp"

namespace migopt::core {

struct PairMetrics {
  double relperf_app1 = 0.0;
  double relperf_app2 = 0.0;
  double throughput = 0.0;        ///< weighted speedup
  double fairness = 0.0;          ///< min relative performance
  double power_cap_watts = 0.0;   ///< the cap this was evaluated under
  double energy_efficiency = 0.0; ///< throughput / cap
};

/// Assemble PairMetrics from two relative performances. The single
/// definition of the pair metrics, shared by the measured path and the
/// prepared prediction kernel; inline because the kernel is the innermost
/// search loop. The measured path cross-checks this against the span-based
/// metric helpers (core/metrics.hpp) so the two can never silently diverge.
inline PairMetrics make_pair_metrics(double relperf1, double relperf2,
                                     double power_cap_watts) noexcept {
  PairMetrics m;
  m.relperf_app1 = relperf1;
  m.relperf_app2 = relperf2;
  m.throughput = relperf1 + relperf2;
  m.fairness = relperf1 < relperf2 ? relperf1 : relperf2;
  m.power_cap_watts = power_cap_watts;
  m.energy_efficiency = m.throughput / power_cap_watts;
  return m;
}

/// Run the pair on the device and measure.
PairMetrics measure_pair(const gpusim::GpuChip& chip,
                         const gpusim::KernelDescriptor& app1,
                         const gpusim::KernelDescriptor& app2,
                         const PartitionState& state, double power_cap_watts);

/// Predict from profiles with the trained model (clamped at the RelPerf floor).
PairMetrics predict_pair(const PerfModel& model, const prof::CounterSet& profile1,
                         const prof::CounterSet& profile2,
                         const PartitionState& state, double power_cap_watts);

/// Basis features of a co-run pair, computed once per decision and reused
/// across every (state, cap) candidate the search scores.
struct PreparedPair {
  HBasis h1;
  HBasis h2;
  JBasis j1;
  JBasis j2;
};

inline PreparedPair prepare_pair(const prof::CounterSet& profile1,
                                 const prof::CounterSet& profile2) noexcept {
  return {basis_h(profile1), basis_h(profile2), basis_j(profile1),
          basis_j(profile2)};
}

namespace detail {

/// Cold path of predict_pair_prepared: reconstruct the ModelKeys for
/// (state, cap) and throw the same ContractViolation `predict` would.
[[noreturn]] void throw_missing_pair_coeffs(const PerfModel& model,
                                            const PartitionState& state,
                                            double power_cap_watts);

/// One member's prediction: C·H(self) then the co-runner D·J terms, in the
/// exact accumulation order of PerfModel::predict.
inline double predict_one(const double* c, const HBasis& h, const double* d,
                          const JBasis& j) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < kHBasisCount; ++i) acc += c[i] * h[i];
  for (std::size_t i = 0; i < kJBasisCount; ++i) acc += d[i] * j[i];
  return acc;
}

}  // namespace detail

/// Score one (state, cap) candidate from precomputed bases and pre-interned
/// dense keys — the batched-scoring building block the optimizer sweeps over
/// its candidate grid. `key1`/`key2` must be `model.dense_key(...)` for
/// (state.gpcs_appN, state.option, cap); missing coefficients throw exactly
/// like `predict_pair`. Header-inline: this is the innermost search loop.
inline PairMetrics predict_pair_prepared(const PerfModel& model,
                                         const PreparedPair& prepared,
                                         PerfModel::DenseKey key1,
                                         PerfModel::DenseKey key2,
                                         const PartitionState& state,
                                         double power_cap_watts) {
  if (!model.dense_has_scalability(key1) || !model.dense_has_interference(key1) ||
      !model.dense_has_scalability(key2) || !model.dense_has_interference(key2))
      [[unlikely]]
    detail::throw_missing_pair_coeffs(model, state, power_cap_watts);
  const double r1 = PerfModel::clamp_relperf(
      detail::predict_one(model.scalability_row(key1), prepared.h1,
                          model.interference_row(key1), prepared.j2));
  const double r2 = PerfModel::clamp_relperf(
      detail::predict_one(model.scalability_row(key2), prepared.h2,
                          model.interference_row(key2), prepared.j1));
  return make_pair_metrics(r1, r2, power_cap_watts);
}

/// Same kernel, interning the keys itself (one grid-rounding + two dense
/// lookups). For repeated sweeps, pre-intern the keys and use the overload.
PairMetrics predict_pair_prepared(const PerfModel& model,
                                  const PreparedPair& prepared,
                                  const PartitionState& state,
                                  double power_cap_watts);

/// Metrics of an N-way co-location (the paper's formulation; fairness and
/// weighted speedup are defined for any member count).
struct GroupMetrics {
  std::vector<double> relperf;    ///< per member, member order
  double throughput = 0.0;        ///< weighted speedup (sum of relperf)
  double fairness = 0.0;          ///< min relperf
  double power_cap_watts = 0.0;
  double energy_efficiency = 0.0; ///< throughput / cap
};

/// Run the group on the device and measure. `kernels` in member order must
/// match `state.size()`.
GroupMetrics measure_group(const gpusim::GpuChip& chip,
                           std::span<const gpusim::KernelDescriptor* const> kernels,
                           const GroupState& state, double power_cap_watts);

/// Predict an N-way co-location: every member's RPerf is C·H(self) plus the
/// sum of D·J(other) over its co-runners, exactly the paper's equation.
GroupMetrics predict_group(const PerfModel& model,
                           std::span<const prof::CounterSet> profiles,
                           const GroupState& state, double power_cap_watts);

/// Basis features of an N-way group, computed once per decision.
struct PreparedGroup {
  std::vector<HBasis> h;
  std::vector<JBasis> j;

  std::size_t size() const noexcept { return h.size(); }
};

PreparedGroup prepare_group(std::span<const prof::CounterSet> profiles);

/// Group scoring kernel over precomputed bases; numbers are bit-identical to
/// `predict_group` on the same inputs.
GroupMetrics predict_group_prepared(const PerfModel& model,
                                    const PreparedGroup& prepared,
                                    const GroupState& state,
                                    double power_cap_watts);

}  // namespace migopt::core
