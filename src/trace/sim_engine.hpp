// Deterministic discrete-event replay of a Trace through the scheduler
// stack (sched::Cluster driven incrementally + sched::CoScheduler).
//
// The engine owns the event loop only; all scheduling/execution semantics
// stay in sched. Per step it (1) applies every trace event due at the
// clock — arrivals enqueue, budget events re-broker the cluster power
// contract for future dispatches — (2) lets the cluster dispatch onto idle
// nodes, then (3) advances to the earliest of {next trace event, next
// completion}, collecting finished jobs. Completions at time T are
// processed before arrivals at T.
//
// Two event sources drive the same loop:
//   - a plain Trace (replay(const Trace&, ...)) — the single-cluster entry;
//   - a RoutedShard — one cluster's slice of a *fleet* trace described as a
//     span of event indices over the fleet's event array plus the budget
//     shares the admission router synthesized. The zero-copy fleet path:
//     the router never materializes per-shard Trace copies, each shard
//     session iterates its index span straight over the shared immutable
//     fleet trace. Bit-identical to replaying the materialized shard trace.
//
// On top of the cluster report it accumulates the online-serving metrics a
// batch run cannot see: queue waits, slowdowns, per-tenant accounting,
// deadline misses, and peak queue depth. The obs sinks (SimConfig::
// telemetry/metrics/tracer) optionally add a sim-time sample series, a
// deterministic metrics registry harvest, and Chrome-trace session spans.
// A conservation invariant — submitted == completed + queued + running +
// awaiting-retry + abandoned (the last two terms are zero without a fault
// plan) — is checked at every step.
//
// With SimConfig::faults set, the loop also injects the plan's node
// crash/recover windows and power emergencies, fails completions per its
// transient draw, and re-submits victims after exponential backoff (see
// fault/fault.hpp for the determinism contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/interner.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span_tracer.hpp"
#include "sched/cluster.hpp"
#include "trace/trace.hpp"
#include "workloads/registry.hpp"

namespace migopt::trace {

struct SimConfig {
  /// Hard guard on the simulated clock (a runaway trace fails loudly).
  double max_sim_seconds = 1.0e7;
  /// Sim-time telemetry sampler (obs/sampler.hpp): interval_seconds > 0
  /// samples queue depth, node occupancy, standing budget, dispatch and
  /// completion counts, cache/memo hit rates, and per-tenant backlog at
  /// event-loop steps (sample times land on event times). The series lands
  /// in SimReport::telemetry.
  obs::SamplerConfig telemetry;
  /// Optional deterministic metrics sink (non-owning; null = disabled, the
  /// no-op fast path). The engine records queue-wait/slowdown histograms on
  /// the hot path and harvests its session counters (dispatches, cache and
  /// memo hits, budget events, peaks) into it at report time. Everything
  /// recorded is simulation-derived, so reports and metrics stay
  /// byte-identical for any thread count — and identical with the sink on
  /// or off.
  obs::Registry* metrics = nullptr;
  /// Optional host-time span sink (non-owning; null or disabled = off):
  /// emits a replay session span and a re-broker span per budget event onto
  /// `trace_track`, plus per-phase sub-spans when collect_phase_counters is
  /// also on (the tracer never turns it on). Host-time diagnostics only —
  /// never feeds reports.
  obs::SpanTracer* tracer = nullptr;
  /// Chrome-trace track (tid) this replay's spans land on (the fleet engine
  /// gives each shard its own lane).
  std::uint32_t trace_track = 0;
  /// Optional fault plan (non-owning; null or empty = fault-free, the
  /// unchanged hot path — reports are byte-identical to a build without
  /// the fault layer). When set, the event loop injects the plan's node
  /// crash/recover windows and power emergencies at their scheduled times,
  /// fails job completions per the plan's transient draw, and re-submits
  /// victims after exponential backoff until the retry budget runs out.
  /// Everything is derived from the plan and the simulation clock, so
  /// faulted fleet replays stay bit-identical across shard thread counts.
  /// The plan must outlive the replay.
  const fault::FaultPlan* faults = nullptr;
  /// Collect wall-clock tallies of the event loop's phases (SimReport::
  /// phases) — where a replay's real time goes: applying trace events,
  /// re-brokering budgets, dispatching, accounting, or draining
  /// completions. Off by default: the tallies read a monotonic clock per
  /// loop phase, and they measure the *host*, so they are diagnostics, not
  /// simulation output (reports stay bit-identical either way).
  bool collect_phase_counters = false;
};

/// Host-time profile of replay_impl's phases (SimConfig::
/// collect_phase_counters). All figures are wall-clock seconds of the
/// replaying thread; budget_rebroker_seconds is the slice of
/// event_apply_seconds spent applying budget events (a subset, not a fifth
/// disjoint phase).
struct PhaseCounters {
  bool collected = false;
  std::size_t steps = 0;                ///< event-loop iterations
  double event_apply_seconds = 0.0;     ///< phase 1: due trace events
  double budget_rebroker_seconds = 0.0; ///< ... of which budget re-brokering
  double dispatch_seconds = 0.0;        ///< phase 2: Cluster::dispatch
  double accounting_seconds = 0.0;      ///< conservation check + sampling
  double completion_seconds = 0.0;      ///< phase 3: advance + completions
};

/// One per-cluster share of a split fleet budget event (see RoutedShard).
struct BudgetShare {
  double time_seconds = 0.0;
  double watts = 0.0;  ///< always > 0 (lifted budgets pass through unsplit)
};

/// A cluster's slice of a fleet trace, by reference: event *indices* over
/// the fleet's event array instead of copied events. Produced by
/// trace::FleetEngine's routing pre-pass; the fleet trace and the index/
/// share storage must outlive the replay (the engine reads, never copies).
/// A shard reads every Nth event of the shared array, a stride no hardware
/// prefetcher follows, so the replay prefetches the fleet event and its
/// tenant a fixed number of steps ahead of the one it applies.
struct RoutedShard {
  /// Steps with this bit set index `shares` (a budget share synthesized by
  /// the router); steps without it index `fleet->events` directly (an
  /// arrival routed to this cluster, or a lifted fleet budget passed
  /// through to every cluster).
  static constexpr std::uint32_t kShareBit = 0x80000000u;

  const Trace* fleet = nullptr;
  /// This shard's event stream, in fleet time order.
  std::span<const std::uint32_t> steps;
  /// Budget-share pool (fleet-wide; steps select this shard's entries).
  std::span<const BudgetShare> shares;
  /// Fleet-wide interned tenant of each fleet event (kNoSymbol for budget
  /// events) — arrivals reuse the router's interning pass instead of
  /// re-hashing tenant names per shard.
  std::span<const Symbol> event_tenants;
  /// Tenant names by fleet tenant symbol (for the per-tenant report).
  std::span<const std::string> tenant_names;
  /// Arrivals in `steps` (known from routing — pre-sizes the bookkeeping).
  std::size_t job_count = 0;
};

struct TenantStats {
  std::string tenant;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  std::size_t deadline_misses = 0;
  double work_seconds_submitted = 0.0;
  double mean_queue_wait_seconds = 0.0;  ///< start - submit, over completions
  double mean_slowdown = 0.0;            ///< turnaround / modeled solo time
};

/// Fault-injection outcome of one replay (all zero without a fault plan).
/// Conservation under faults: jobs_submitted == jobs completed + queued +
/// awaiting retry + running + jobs_abandoned, checked every event step.
struct FaultStats {
  std::size_t failures_injected = 0;  ///< transient completion failures
  std::size_t retries = 0;            ///< re-submissions after backoff
  std::size_t jobs_killed = 0;        ///< in-flight work lost to node crashes
  std::size_t jobs_shed = 0;          ///< killed by graceful power degradation
  std::size_t jobs_abandoned = 0;     ///< retry budget exhausted
  std::size_t node_failures = 0;
  std::size_t node_recoveries = 0;
  std::size_t power_emergencies = 0;
  double node_downtime_seconds = 0.0;
  double backoff_delay_seconds = 0.0;  ///< total backoff scheduled
};

struct SimReport {
  sched::ClusterReport cluster;  ///< makespan/energy/dispatch/cache counters
  std::size_t jobs_submitted = 0;
  std::size_t budget_events_applied = 0;
  std::size_t deadline_misses = 0;
  std::size_t peak_queue_depth = 0;
  double mean_queue_wait_seconds = 0.0;
  double max_queue_wait_seconds = 0.0;
  double mean_slowdown = 0.0;
  double jobs_per_hour = 0.0;  ///< completed jobs over the makespan
  std::vector<TenantStats> tenants;  ///< sorted by tenant name
  /// Sim-time telemetry series (empty unless SimConfig::telemetry enabled).
  obs::SampleSeries telemetry;
  /// Host-time phase profile (zeros unless collect_phase_counters was set).
  PhaseCounters phases;
  /// Fault-injection outcome (zeros unless SimConfig::faults was set).
  FaultStats faults;
};

class SimEngine {
 public:
  explicit SimEngine(SimConfig config = {});

  /// Replay `trace` through `cluster`+`scheduler` to completion. The
  /// cluster is reset via begin_session (its configured power budget is the
  /// starting contract; trace budget events override it from their
  /// timestamp on). Apps must exist in `registry`. Throws ContractViolation
  /// on unsorted traces, unknown apps, a violated conservation invariant,
  /// or a stalled replay (queued jobs left but no event can ever release
  /// them).
  SimReport replay(const Trace& trace, const wl::WorkloadRegistry& registry,
                   sched::Cluster& cluster,
                   sched::CoScheduler& scheduler) const;

  /// Same loop over a routed fleet shard: events come from index spans over
  /// the (already validated) fleet trace, tenants from the fleet-wide
  /// interning pass. No per-shard trace copy, validation walk, or tenant
  /// re-hashing. Bit-identical to replaying the materialized shard trace.
  SimReport replay(const RoutedShard& shard,
                   const wl::WorkloadRegistry& registry,
                   sched::Cluster& cluster,
                   sched::CoScheduler& scheduler) const;

 private:
  SimConfig config_;
};

}  // namespace migopt::trace
