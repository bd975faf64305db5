// Architecture description for the simulated GPU.
//
// The default configuration models an NVIDIA A100 40GB PCIe — the platform of
// the reproduced paper (Table 2) — at the level of detail the paper's
// methodology observes: GPC-granularity compute, per-precision pipe
// throughputs (including the three Tensor Core operand classes the profiler
// distinguishes), LLC/HBM modules whose count scales with MIG instance size,
// a per-component power model, and a chip-global DVFS clock domain.
//
// All rates are peak values at `max_clock_ghz`; pipe throughput scales
// linearly with clock, dynamic compute power scales cubically (V ~ f).
#pragma once

#include <array>
#include <cstddef>

namespace migopt::gpusim {

/// Compute pipe classes distinguished by the profiler (Table 3 of the paper:
/// Tensor MIXED / DOUBLE / INTEGER are separate counters F6..F8).
enum class Pipe : std::size_t {
  Fp32 = 0,          ///< CUDA-core single precision
  Fp64 = 1,          ///< CUDA-core double precision
  Int = 2,           ///< CUDA-core integer
  TensorMixed = 3,   ///< Tensor Core FP16/BF16/TF32 paths
  TensorDouble = 4,  ///< Tensor Core FP64 path
  TensorInteger = 5, ///< Tensor Core INT8/INT4 paths
};
inline constexpr std::size_t kPipeCount = 6;

inline constexpr std::array<const char*, kPipeCount> kPipeNames = {
    "fp32", "fp64", "int", "tensor_mixed", "tensor_double", "tensor_integer"};

/// Full architecture parameter set. Defaults model the A100 40GB PCIe.
struct ArchConfig {
  // --- topology -----------------------------------------------------------
  int total_gpcs = 8;        ///< physical GPCs on the die
  int mig_usable_gpcs = 7;   ///< one GPC is disabled when MIG is enabled (A100)
  int sms_per_gpc = 14;      ///< streaming multiprocessors per GPC
  int memory_modules = 8;    ///< LLC+HBM module pairs (MIG memory slices)

  // --- clocks -------------------------------------------------------------
  double max_clock_ghz = 1.41;
  double min_clock_ghz = 0.21;

  // --- per-GPC peak compute throughput at max clock, FLOP/s or OP/s --------
  // A100 whole-chip peaks divided by 8 GPCs:
  //   FP32 19.5 TF, FP64 9.7 TF, INT32 ~19.5 TOP,
  //   FP16 tensor 312 TF, FP64 tensor 19.5 TF, INT8 tensor 624 TOP.
  std::array<double, kPipeCount> pipe_peak_per_gpc = {
      2.44e12,   // Fp32
      1.21e12,   // Fp64
      2.44e12,   // Int
      39.0e12,   // TensorMixed
      2.44e12,   // TensorDouble
      78.0e12};  // TensorInteger

  // --- memory system -------------------------------------------------------
  double hbm_bandwidth_total = 1555.0e9;  ///< bytes/s across all modules
  double l2_bandwidth_total = 4500.0e9;   ///< bytes/s LLC aggregate
  double l2_capacity_mb = 40.0;
  /// Fraction of total HBM bandwidth one GPC can request at max clock. A
  /// small compute instance cannot saturate the whole chip's HBM even with
  /// the shared memory option (observed on real MIG; drives the shared-option
  /// scalability curves of Fig. 4).
  double per_gpc_bw_issue_fraction = 0.30;
  /// Scaling of the L2 hit rate loss caused by a co-runner's LLC pressure in
  /// the shared option: h_eff = h * (1 - kappa * util_l2_other).
  double l2_interference_kappa = 0.30;
  /// Queueing inflation of latency-bound kernels under shared-domain memory
  /// congestion: lat_eff = lat * (1 + sens * min(max, scale * congestion^exp)).
  /// Convex in congestion — light co-runners cost almost nothing, saturating
  /// ones force real queueing delays.
  double congestion_latency_scale = 2.5;
  double congestion_latency_exponent = 2.0;
  double congestion_latency_max = 0.6;
  /// Small MIG partitions slightly overperform their GPC share (more LLC and
  /// scheduler headroom per SM): efficiency multiplier
  /// 1 + boost * (1 - gpcs/total_gpcs).
  double small_partition_efficiency_boost = 0.12;
  /// Compute-pipe efficiency multiplier under MPS (time-sliced SM sharing
  /// without hardware partitioning): context interleaving and L1/L2 thrash
  /// cost a few percent versus a dedicated MIG slice.
  double mps_compute_efficiency = 0.95;

  // --- power model ----------------------------------------------------------
  double tdp_watts = 250.0;            ///< default board power limit
  double min_power_cap_watts = 100.0;  ///< lowest settable cap
  double idle_power_watts = 52.0;      ///< leakage + board + HBM standby
  double gpc_base_power_watts = 6.0;   ///< active-GPC clock-tree power at fmax
  /// Per-GPC dynamic pipe power at 100% utilization and max clock. Sized so
  /// that full-chip compute-saturating kernels throttle mildly at TDP (as the
  /// A100 does) and Tensor-Core kernels throttle hardest — the behaviour
  /// behind the paper's Figure 5.
  std::array<double, kPipeCount> pipe_power_per_gpc = {
      18.0,   // Fp32
      22.0,   // Fp64
      10.0,   // Int
      34.0,   // TensorMixed
      28.0,   // TensorDouble
      28.0};  // TensorInteger
  /// Exponent of the clock-dependence of dynamic compute power,
  /// P_dyn ∝ phi^e. Pure capacitive switching with V tracking f gives e = 3;
  /// measured perf-vs-cap curves on datacenter GPUs are steeper near TDP
  /// (voltage floors, leakage recovery), which an effective e ≈ 2.2 captures.
  double dynamic_power_exponent = 2.2;
  double hbm_power_max_watts = 70.0;  ///< at 100% DRAM bandwidth utilization
  double l2_power_max_watts = 15.0;   ///< at 100% LLC bandwidth utilization

  /// Peak FLOP/s (or OP/s) of one pipe for `gpcs` GPCs at relative clock phi.
  double pipe_rate(Pipe pipe, int gpcs, double phi) const noexcept {
    return pipe_peak_per_gpc[static_cast<std::size_t>(pipe)] *
           static_cast<double>(gpcs) * phi;
  }

  /// MIG memory-module count for a compute-slice count (A100 rule: GPC counts
  /// 1,2,3,4,7 map to 1,2,4,4,8 LLC/HBM modules; Section 3 of the paper).
  int modules_for_gpcs(int gpcs) const noexcept;

  /// True if `gpcs` is a valid MIG GPU-instance size on this architecture.
  bool valid_gi_size(int gpcs) const noexcept;

  /// Sanity-check invariants (positive rates, topology consistency).
  void validate() const;

  /// Field-wise: two configs are equal when every parameter is, so chips
  /// built from them solve every shape identically.
  bool operator==(const ArchConfig&) const = default;
};

/// The default simulated device.
ArchConfig a100_sxm_like();

}  // namespace migopt::gpusim
