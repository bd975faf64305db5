// A compute node: one simulated GPU executing one job or a co-located pair
// (as in the paper's evaluation).
//
// The node is driven by the cluster event loop: jobs are dispatched with a
// partitioning state and power cap (as decided by the Resource & Power
// Allocator), progress at the rates the execution engine computes, and the
// node integrates energy over time. When a co-runner finishes early, the
// survivors' rates are re-solved on their partitions — exactly what happens
// on real MIG when a neighbouring instance goes idle (a running CUDA context
// cannot migrate to a different instance).
#pragma once

#include <optional>
#include <vector>

#include "core/hw_state.hpp"
#include "gpusim/gpu.hpp"
#include "sched/job.hpp"
#include "sched/run_memo.hpp"

namespace migopt::sched {

class Node {
 public:
  explicit Node(int id, gpusim::ArchConfig arch = gpusim::a100_sxm_like());

  /// Install a shared physics memo (see sched/run_memo.hpp). The owner
  /// guarantees it outlives the node and that every node sharing it runs an
  /// identical architecture (the memo key carries no arch identity). Null
  /// detaches — every rate recompute solves fresh.
  void set_run_memo(RunMemo* memo) noexcept { run_memo_ = memo; }

  int id() const noexcept { return id_; }
  gpusim::GpuChip& chip() noexcept { return chip_; }
  const gpusim::GpuChip& chip() const noexcept { return chip_; }

  bool idle() const noexcept { return slots_.empty(); }
  /// Jobs currently resident (co-located slots still executing).
  std::size_t running_jobs() const noexcept { return slots_.size(); }
  double now() const noexcept { return now_; }
  double energy_joules() const noexcept { return energy_joules_; }
  /// Cap of the current dispatch (meaningful only while busy).
  double cap_watts() const noexcept { return cap_watts_; }
  /// Instantaneous draw at the node clock (run power while busy, idle power
  /// otherwise) — what the next advance step integrates.
  double power_watts() const noexcept { return current_power(); }

  /// Next time a running job completes; infinity when idle.
  double next_completion_time() const noexcept;

  /// Dispatch a pair under a partition state + cap. Node must be idle.
  void dispatch_pair(Job job1, Job job2, const core::PartitionState& state,
                     double power_cap_watts);

  /// Dispatch one job exclusively (full chip) under a cap. Node must be idle.
  void dispatch_exclusive(Job job, double power_cap_watts);

  /// Advance the node clock to `t` (>= now), finishing any jobs whose work
  /// completes by then; returns them with finish_time set. `t` beyond the
  /// last completion leaves the node idle at its final completion time and
  /// idles forward (idle power accrues).
  std::vector<Job> advance_to(double t);

  /// Appending variant of advance_to: completions are pushed onto
  /// `finished` (which is not cleared). The replay hot loop passes a reused
  /// scratch buffer here so the common no-completion step allocates nothing.
  void advance_to(double t, std::vector<Job>& finished);

  /// Finish the slot closest to completion at the current clock. The
  /// indexed event core calls this when its completion heap says a job is
  /// due at the node clock but floating-point residue left the slot with a
  /// sliver of work whose remaining time rounds below one ulp of the clock
  /// — without it the due completion could never fire and the event loop
  /// would spin. Node must be busy.
  Job finish_head_slot();

  /// Kill every resident job (a node crash or a power-emergency shed): the
  /// jobs are appended to `out` with no finish_time — their in-flight work
  /// is lost, a retry restarts from zero. The node ends idle at its current
  /// clock with rates recomputed (idle power).
  void kill_all(std::vector<Job>& out);

  /// Jump an *idle* node's clock forward without integrating energy — a
  /// crashed node draws nothing while it is down, so recovery lands it at
  /// the recovery instant with its downtime unpowered.
  void skip_to(double t);

  /// Smallest Job::priority among resident jobs (the graceful-degradation
  /// shed order ranks nodes by their least-important job). Node must be
  /// busy.
  int min_priority() const noexcept;

 private:
  struct Slot {
    Job job;
    double remaining_work = 0.0;
    double seconds_per_wu = 0.0;
    int gpcs = 0;
  };

  /// Validate `job`, stamp its start at the node clock and append its slot
  /// on `gpcs` GPCs with all of its work remaining.
  void place(Job job, int gpcs);
  void recompute_rates();
  double current_power() const noexcept;

  int id_;
  gpusim::GpuChip chip_;
  double now_ = 0.0;
  double energy_joules_ = 0.0;
  std::vector<Slot> slots_;
  /// LLC/HBM option of the current group; empty for exclusive (full-chip)
  /// runs. Slot GPC counts carry the rest of the partition state.
  std::optional<gpusim::MemOption> option_;
  double cap_watts_;
  double run_power_watts_ = 0.0;
  RunMemo* run_memo_ = nullptr;  ///< optional, owned by the cluster
};

}  // namespace migopt::sched
