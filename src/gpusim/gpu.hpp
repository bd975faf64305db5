// GpuChip — the device facade.
//
// Owns the architecture description, the MIG partitioning state, the power
// limit (what `nvidia-smi -pl` sets on real hardware), and the execution
// engine. Offers two usage styles:
//
//  * the *system path*: mutate MIG state / power limit (via the NVML facade
//    or directly) and launch kernels onto compute instances by id — this is
//    what `nvmlsim` (and through it `mig_inspector`) drives;
//  * the *experiment path*: stateless `run_solo` / `run_pair` /
//    `run_full_chip` helpers that evaluate a hypothetical configuration
//    without touching the persistent MIG state — this is what profiling,
//    model training, the benches, and replay's cluster nodes use
//    (`sched::Node`, whose solves `sched::RunMemo` memoizes per session in
//    front of the registry-owned `gpusim::SolveStore`).
//
// Relative performance follows the paper's normalization: solo run on the
// full chip (no MIG, no cap beyond TDP).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "gpusim/arch_config.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/mig.hpp"

namespace migopt::gpusim {

class GpuChip {
 public:
  explicit GpuChip(ArchConfig arch = a100_sxm_like());

  const ArchConfig& arch() const noexcept { return arch_; }
  MigManager& mig() noexcept { return mig_; }
  const MigManager& mig() const noexcept { return mig_; }
  const ExecEngine& engine() const noexcept { return engine_; }

  /// Board power limit; clamped domain is checked, not silently clamped.
  void set_power_limit_watts(double watts);
  double power_limit_watts() const noexcept { return power_limit_watts_; }

  // --- system path ---------------------------------------------------------

  struct InstanceLaunch {
    CiId ci = -1;
    const KernelDescriptor* kernel = nullptr;
  };

  /// Run one kernel per listed compute instance under the current power
  /// limit. Results are in launch order.
  RunResult run_on_instances(std::span<const InstanceLaunch> launches) const;

  // --- experiment path -----------------------------------------------------

  /// Solo on the full chip (no MIG) under `power_cap_watts`.
  RunResult run_full_chip(const KernelDescriptor& kernel, double power_cap_watts) const;

  /// Solo on a MIG slice: private -> GI of `gpcs` GPCs with its module share;
  /// shared -> CI of `gpcs` GPCs inside a full-size GI (all modules visible).
  RunResult run_solo(const KernelDescriptor& kernel, int gpcs, MemOption option,
                     double power_cap_watts) const;

  /// Co-run a pair under a partitioning state.
  RunResult run_pair(const KernelDescriptor& app1, int gpcs1,
                     const KernelDescriptor& app2, int gpcs2, MemOption option,
                     double power_cap_watts) const;

  /// One member of an N-way co-location (the paper's formulation admits any
  /// number of co-located applications; the evaluation uses two).
  struct GroupMember {
    const KernelDescriptor* kernel = nullptr;
    int gpcs = 0;
  };

  /// Co-run N applications under one LLC/HBM option: private gives every
  /// member its own GI (memory modules scale with its size); shared places
  /// all members as CIs of one full-size GI. Results are in member order.
  RunResult run_group(std::span<const GroupMember> members, MemOption option,
                      double power_cap_watts) const;

  /// Co-run with one power budget per instance instead of a chip-global cap
  /// (the paper's Section 6 "finer-grained power capping" direction). Each
  /// budget bounds the member's attributed dynamic power
  /// (AppResult::instance_power_watts); board idle power is outside them.
  RunResult run_group_instance_caps(std::span<const GroupMember> members,
                                    MemOption option,
                                    std::span<const double> instance_caps_watts) const;

  /// Co-run under MPS (Multi-Process Service, the paper's Section 2/7.1
  /// software alternative to MIG): no GPC is fused off (all `total_gpcs`
  /// SM groups are usable), memory is fully shared with no isolation, and
  /// compute pipes pay the arch's MPS interleaving penalty. `member.gpcs`
  /// is the active-thread-percentage quantized to GPC units; the sum may use
  /// the whole die (8 on the A100, vs 7 under MIG).
  RunResult run_mps(std::span<const GroupMember> members,
                    double power_cap_watts) const;

  /// Cached baseline: seconds/work-unit of an exclusive solo run on the full
  /// chip at TDP — the paper's normalization denominator.
  double baseline_seconds(const KernelDescriptor& kernel) const;

  /// RelPerf of an app result against the kernel's baseline.
  double relative_performance(const KernelDescriptor& kernel,
                              const AppResult& result) const;

 private:
  std::vector<AppPlacement> group_placements(
      std::span<const GroupMember> members, MemOption option) const;

  ArchConfig arch_;
  MigManager mig_;
  ExecEngine engine_;
  double power_limit_watts_;

  mutable std::mutex baseline_mutex_;
  mutable std::map<std::string, double> baseline_cache_;
};

}  // namespace migopt::gpusim
