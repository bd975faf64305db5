// migopt::trace fleet layer — N independent cluster sessions behind a
// global admission router, replayed as data-parallel shards.
//
// A fleet trace is an ordinary Trace read at datacenter scope: arrivals are
// jobs entering the *fleet*, budget events are the datacenter handing the
// whole fleet a new power contract. The FleetRouter walks that stream once,
// in time order, and turns it into a RoutePlan: per-cluster vectors of
// event *indices* over the single fleet trace — every arrival assigned to
// exactly one cluster by a pluggable placement policy (tenant→cluster
// affinity hashing with optional least-loaded spillover, pure least-loaded,
// round-robin baseline), every fleet budget event split into per-cluster
// budget shares (uniform or demand-proportional against the router's load
// model). Routing output is O(events × sizeof(u32)) regardless of event
// payload size: no per-shard Trace copies, no duplicated strings. Shard
// sessions then iterate their index spans straight over the shared
// immutable fleet trace (SimEngine's RoutedShard overload).
//
// Routing runs before replay on purpose: placement decisions depend only on
// the arrival stream and the router's deterministic open-loop load model
// (per-cluster backlog of assigned solo work, drained at node capacity), so
// the plan is fixed *data* once routing ends. The routing pass itself is a
// two-stage pipeline: helper threads validate the trace, intern tenants and
// compact events chunk by chunk into a small ring of 24-byte records while
// the calling thread routes the chunk before; only the load model stays
// serial. FleetEngine then replays the shards as truly independent
// SimEngine sessions — each shard owns its scheduler, allocator state, and
// cluster; the trained model is built once and copied per shard (training
// is deterministic, so this is bit-identical to training per shard);
// nothing mutable is shared — fanned out over a ThreadPool, longest shard
// (most routed jobs) first. Per-shard results land in pre-sized slots and
// merge in cluster-index order, so any thread count is bit-identical to
// serial. Per-shard seeds are derived SplitMix64 streams of the fleet seed
// (common/rng stream_seed), recorded in the report so shard-local
// stochastic components stay reproducible.
//
// The router is also where the fleet meets "millions of users": one
// admission decision per arriving job, on the serving hot path. plan() is
// allocation-free per decision after construction, and the engine can time
// every decision (CLOCK_MONOTONIC) to report p50/p99 admission latency — a
// wall-clock measurement that rides the warn-only timing band of
// tools/bench_diff.py, never the exact gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/interner.hpp"
#include "common/small_vector.hpp"
#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "sched/cluster.hpp"
#include "trace/sim_engine.hpp"
#include "trace/trace.hpp"

namespace migopt::trace {

enum class RouterPolicy {
  RoundRobin,      ///< arrival order modulo cluster count (the baseline)
  TenantAffinity,  ///< hash(tenant) → home cluster, optional spillover
  LeastLoaded,     ///< smallest estimated backlog (ties → lowest index)
};

/// Parse "round-robin" / "affinity" / "least-loaded"; nullopt otherwise.
std::optional<RouterPolicy> parse_router_policy(const std::string& name);
const char* router_policy_name(RouterPolicy policy) noexcept;

enum class PowerSplit {
  Uniform,             ///< every cluster gets budget / cluster_count
  DemandProportional,  ///< weighted by the router's backlog estimates
};

std::optional<PowerSplit> parse_power_split(const std::string& name);
const char* power_split_name(PowerSplit split) noexcept;

struct RouterConfig {
  RouterPolicy policy = RouterPolicy::TenantAffinity;
  /// TenantAffinity only: when the home cluster's estimated queueing delay
  /// (backlog seconds per node) exceeds this, the job spills to the
  /// least-loaded cluster instead. <= 0 disables spillover.
  double spill_delay_seconds = 0.0;
  /// Salt of the tenant→cluster hash. 0 lets FleetEngine derive one from
  /// the fleet seed, so re-seeding a fleet reshuffles tenant homes.
  std::uint64_t affinity_salt = 0;
};

struct RouterStats {
  std::size_t decisions = 0;
  std::size_t spills = 0;  ///< affinity decisions diverted by spillover
  std::vector<std::size_t> jobs_per_cluster;
  std::size_t budget_splits = 0;  ///< fleet budget events fanned out
  /// Arrivals whose routed cluster was inside a whole-cluster outage window
  /// and were re-admitted to the next surviving cluster (index order scan).
  std::size_t outage_readmissions = 0;

  // Admission-decision latency (nanoseconds of wall clock), filled only
  // when FleetConfig::measure_decision_latency is on. Never compared by
  // the determinism suite or the exact bench gate.
  std::size_t latency_samples = 0;
  double decision_p50_ns = 0.0;
  double decision_p99_ns = 0.0;
  double decision_mean_ns = 0.0;
};

/// The admission layer: assigns arriving jobs to clusters and splits fleet
/// power budgets, against an open-loop load model — per-cluster backlog of
/// assigned solo work-seconds, drained at `nodes_per_cluster` seconds of
/// work per second of trace time (each node retires about one second of
/// solo work per second). The model is deliberately replay-free: it makes
/// routing a pure function of the arrival stream, which is what lets the
/// shards replay in parallel afterwards.
class FleetRouter {
 public:
  /// Inline lane count for the per-cluster load model and budget shares.
  /// Fleets this size or smaller never touch the heap on the admission
  /// path; larger fleets spill transparently.
  static constexpr std::size_t kInlineClusters = 16;

  FleetRouter(const RouterConfig& config, int cluster_count,
              int nodes_per_cluster);

  int cluster_count() const noexcept {
    return static_cast<int>(backlog_.size());
  }

  /// Route one arriving job; `tenant_key` is a stable hash of the tenant
  /// name (FleetEngine computes it once per distinct tenant). Advances the
  /// load model: the chosen cluster's backlog grows by `work_seconds`.
  /// Deterministic and allocation-free.
  int route(std::uint64_t tenant_key, double now_seconds, double work_seconds);

  /// The tenant-affinity home cluster of `tenant_key` (salted hash).
  int home_cluster(std::uint64_t tenant_key) const noexcept;

  /// route() with the home cluster already known (home_cluster(key); only
  /// TenantAffinity reads it): a caller that routes many jobs per tenant
  /// hashes each tenant once.
  int route_home(int home, double now_seconds, double work_seconds);

  /// Split a fleet-level budget across clusters at `now`. Uniform gives
  /// every cluster an equal share; DemandProportional floors every cluster
  /// at a quarter of the uniform share (so an idle cluster can still afford
  /// its cheapest dispatch when work arrives later) and splits the rest by
  /// backlog weight — falling back to uniform when the fleet is idle.
  /// Shares always sum to `watts`.
  ///
  /// The share column (like the load model below) lives in SmallVector
  /// inline storage: fleets up to kInlineClusters clusters — every checked
  /// in bench configuration — split budgets with zero heap traffic.
  SmallVector<double, kInlineClusters> split_budget(double watts,
                                                    PowerSplit split,
                                                    double now_seconds);

  /// Estimated queueing delay of `cluster` at `now`: backlog seconds of
  /// solo work per node. The signal spillover and demand splitting consult.
  double estimated_delay_seconds(int cluster, double now_seconds) const;

  const RouterStats& stats() const noexcept { return stats_; }
  RouterStats& mutable_stats() noexcept { return stats_; }

 private:
  /// Drain `cluster`'s backlog for the time elapsed since its last touch.
  void decay(std::size_t cluster, double now_seconds);
  /// Cluster with the smallest decayed backlog (ties → lowest index).
  int least_loaded(double now_seconds);

  RouterConfig config_;
  double nodes_per_cluster_ = 1.0;
  std::size_t round_robin_next_ = 0;
  /// Outstanding solo work-seconds per cluster (inline for small fleets).
  SmallVector<double, kInlineClusters> backlog_;
  /// Last decay clock per cluster.
  SmallVector<double, kInlineClusters> last_time_;
  RouterStats stats_;
};

/// The routing pre-pass's output: every admission decision, as indices over
/// the fleet trace it was computed from. `steps[c]` is cluster c's event
/// stream in fleet time order — entries without RoutedShard::kShareBit
/// index `fleet->events` (arrivals routed to c, or lifted budgets passed to
/// every cluster), entries with it index `shares` (c's slice of a split
/// budget event). Holds a pointer to the routed trace: the plan is a *view*
/// and must not outlive it.
struct RoutePlan {
  const Trace* fleet = nullptr;
  std::vector<std::vector<std::uint32_t>> steps;  ///< per cluster
  std::vector<BudgetShare> shares;  ///< split-budget pool (all clusters)
  std::vector<Symbol> event_tenants;  ///< per fleet event; kNoSymbol = budget
  std::vector<std::string> tenant_names;  ///< by tenant symbol
  std::vector<std::size_t> shard_jobs;    ///< arrivals routed per cluster
  RouterStats router;

  /// Zero-copy view of cluster `c`'s slice (spans into this plan — the
  /// plan and the fleet trace must outlive the returned shard).
  RoutedShard shard(std::size_t c) const {
    RoutedShard view;
    view.fleet = fleet;
    view.steps = steps[c];
    view.shares = shares;
    view.event_tenants = event_tenants;
    view.tenant_names = tenant_names;
    view.job_count = shard_jobs[c];
    return view;
  }
};

struct FleetConfig {
  int cluster_count = 4;
  /// Per-cluster shape: node count, job-stats collection, and a
  /// per-cluster starting power budget all pass through unchanged.
  sched::ClusterConfig cluster;
  RouterConfig router;
  PowerSplit power_split = PowerSplit::Uniform;
  /// Fleet-level starting power contract: split across clusters at t=0 (by
  /// `power_split`; backlogs are empty, so the t=0 split is uniform) and
  /// prepended to every shard as a budget event. Empty = per-cluster
  /// configs stand alone.
  std::optional<double> fleet_power_budget_watts;
  /// Per-shard engine knobs (sim-time guard, telemetry sampling).
  SimConfig sim;
  /// Scheduling policy and tuning every cluster runs (clusters are
  /// homogeneous; heterogeneous fleets would lift these per-cluster).
  core::Policy policy = core::Policy::problem1(250.0, 0.2);
  sched::SchedulerTuning tuning;
  /// Base of the per-shard SplitMix64 seed streams (and, when
  /// router.affinity_salt is 0, of the affinity salt).
  std::uint64_t seed = 0;
  /// Per-cluster fault injection: each shard builds its own FaultPlan from
  /// this config with the shard's derived seed stream (stream_seed(seed, c))
  /// over the fleet trace horizon. Disabled by default (the fault-free path
  /// is byte-identical to a fleet without the fault layer).
  fault::FaultConfig fault;
  /// Whole-cluster outage process: > 0 draws exponential outage windows per
  /// cluster (independent seed streams). During a window every node of the
  /// cluster is down (in-flight work killed into the retry path) and the
  /// admission router re-admits arrivals routed there to the next surviving
  /// cluster in index order. 0 disables cluster outages.
  double cluster_outage_mtbf_seconds = 0.0;
  double cluster_outage_duration_seconds = 600.0;
  /// Shard-replay fan-out width; 1 replays serially. Any value produces
  /// bit-identical reports.
  std::size_t threads = 1;
  /// Time every admission decision and report p50/p99 in RouterStats.
  bool measure_decision_latency = false;
  /// Optional deterministic metrics sink (non-owning; null = off). Each
  /// shard records into its own private Registry; after the join they merge
  /// into this one in cluster-index order, after the fleet-level router
  /// counters — so the document is byte-identical for any `threads` value.
  /// Overrides SimConfig::metrics inside `sim` (shards never share a
  /// registry).
  obs::Registry* metrics = nullptr;
  /// Optional Chrome-trace sink (non-owning; null or disabled = off): the
  /// routing pre-pass and merge phases land on track 0, each shard's replay
  /// session (with phase sub-spans) on track 1 + cluster index. Shard
  /// tracers share this tracer's epoch and merge in cluster-index order.
  /// Overrides SimConfig::tracer inside `sim`.
  obs::SpanTracer* tracer = nullptr;
};

/// Merged fleet outcome: per-cluster SimReports plus aggregates folded in
/// cluster-index order (so they are reproducible bit-for-bit for any thread
/// count). Tenant statistics are re-merged across clusters by name.
struct FleetReport {
  std::vector<SimReport> clusters;
  std::vector<std::uint64_t> shard_seeds;
  RouterStats router;

  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  std::size_t deadline_misses = 0;
  std::size_t pair_dispatches = 0;
  std::size_t exclusive_dispatches = 0;
  std::size_t profile_runs = 0;
  std::size_t decision_cache_hits = 0;
  std::size_t decision_cache_misses = 0;
  std::size_t decision_cache_evictions = 0;  ///< always 0 (nothing evicts)
  /// Summed sched::RunMemo counters — fleet-wide physics-memo efficacy.
  std::size_t run_memo_hits = 0;
  std::size_t run_memo_misses = 0;
  double makespan_seconds = 0.0;       ///< max over clusters
  double total_energy_joules = 0.0;    ///< sum
  double peak_cap_sum_watts = 0.0;     ///< sum of per-cluster peaks
  std::size_t peak_queue_depth = 0;    ///< max over clusters
  double mean_queue_wait_seconds = 0.0;  ///< completion-weighted
  double mean_slowdown = 0.0;            ///< completion-weighted
  /// Completed jobs over the fleet makespan — the aggregate serving rate.
  double aggregate_jobs_per_hour = 0.0;
  std::vector<TenantStats> tenants;  ///< merged across clusters, by name
  /// Fleet-wide fault outcome: per-shard FaultStats summed in cluster-index
  /// order (all zeros when fault injection and cluster outages are off).
  FaultStats faults;
};

class FleetEngine {
 public:
  /// Fleet events per chunk of plan()'s pipelined pre-pass: the unit a
  /// helper validates, interns and compacts while the router works on the
  /// chunk before it.
  static constexpr std::size_t kPlanChunkEvents = 4096;

  explicit FleetEngine(FleetConfig config);

  const FleetConfig& config() const noexcept { return config_; }

  /// The admission pre-pass alone: validate the trace, route every
  /// arrival, split every budget event, return the index-based plan plus
  /// router statistics (with decision latency when configured). Pipelined:
  /// up to two helper threads (within `config.threads`) validate, intern
  /// and compact kPlanChunkEvents-event chunks a few chunks ahead while
  /// this thread routes; `threads == 1` runs the same stages chunk by chunk
  /// on this thread. The plan is identical for any thread count, and an
  /// invalid trace throws exactly Trace::validate's error for its first
  /// invalid event. The plan views `fleet_trace` and must not outlive it.
  RoutePlan plan(const Trace& fleet_trace) const;

  /// plan() + replay every shard through its own SimEngine session over
  /// `config.threads` workers (shards with the most routed jobs start
  /// first), then merge in cluster-index order. Shards iterate the plan's
  /// index spans over the shared fleet trace (no per-shard copies); the
  /// allocator is trained once and copied per shard (deterministic
  /// training makes that bit-identical to training per shard).
  /// Bit-identical for any thread count. Throws ContractViolation wherever
  /// a single-cluster replay would (unsorted trace, unknown app, stalled
  /// shard, ...).
  FleetReport replay(const Trace& fleet_trace) const;

 private:
  FleetConfig config_;
};

}  // namespace migopt::trace
