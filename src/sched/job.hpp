// Jobs as the cluster-level scheduler sees them: an application, identified
// by its interned id (whose kernel characteristics the node will execute),
// plus total work and bookkeeping timestamps.
#pragma once

#include <type_traits>

#include "common/interner.hpp"
#include "gpusim/kernel.hpp"

namespace migopt::sched {

using JobId = int;
/// Interned application name against the scheduling allocator's profile
/// store (CoScheduler::intern_app / app_name).
using AppId = Symbol;
/// Interned tenant name (trace::SimEngine's accounting table).
using TenantId = Symbol;

/// A plain value: no owned heap state, so queue and node bookkeeping move it
/// as a field copy. Name-keyed consumers (JobStat, error messages) resolve
/// app_id back through the scheduler's symbol table.
struct Job {
  JobId id = -1;
  /// The application (profile-database key). Only meaningful against the
  /// allocator/scheduler the job is dispatched through; required.
  AppId app_id = kNoSymbol;
  /// Interned tenant for engine-side accounting (kNoSymbol outside traces).
  TenantId tenant_id = kNoSymbol;
  const gpusim::KernelDescriptor* kernel = nullptr;
  double work_units = 0.0;   ///< total work to execute
  double submit_time = 0.0;  ///< seconds, simulation clock
  /// Scheduling priority: higher dispatches first; equal priorities keep
  /// strict FIFO arrival order (deterministic trace replay relies on the
  /// tie-break being stable).
  int priority = 0;
  /// Expected solo full-chip seconds per work unit (the walltime estimate a
  /// user or history database supplies to an HPC scheduler). 0 = unknown;
  /// when both jobs of a candidate pair carry hints, the co-scheduler uses
  /// them to reject duration-mismatched pairings whose tail would waste the
  /// partition (a running CUDA context cannot migrate between MIG instances).
  double solo_seconds_per_wu = 0.0;

  // Filled by the simulation:
  double start_time = -1.0;
  double finish_time = -1.0;

  bool started() const noexcept { return start_time >= 0.0; }
  bool finished() const noexcept { return finish_time >= 0.0; }
  void validate() const;
  /// Throws ContractViolation when the job has not arrived by `now`: the
  /// dispatch-time face of JobQueue's arrival contract.
  void require_arrived(double now) const;
};

static_assert(std::is_trivially_copyable_v<Job>,
              "Job must stay a plain value (JobQueue and nodes copy it by field)");
static_assert(sizeof(Job) <= 72, "Job is copied on every queue and node move");

}  // namespace migopt::sched
