// Deterministic fault injection for trace replay (migopt::fault).
//
// Production GPU fleets lose nodes, kill jobs, and take emergency power
// cuts mid-run; the paper's scheduler has only ever been evaluated on a
// healthy cluster. This layer turns failure into *data*: a FaultPlan is a
// time-sorted event list (node crash/recover windows, power emergencies)
// plus a per-attempt transient-failure model, generated from common/rng
// seed streams exactly the way trace generators are — so a fault scenario
// is reproducible from (config, seed) and independent of replay order or
// thread count. trace::SimEngine injects the plan into its event loop;
// sched::Cluster supplies the fail/recover/shed mechanics.
//
// Determinism contracts:
//   - make_fault_plan is a pure function of (config, node_count, horizon,
//     seed): per-node outage streams and the emergency stream are
//     independent SplitMix64-derived streams, so adding nodes never
//     perturbs another node's windows.
//   - Transient failures are decided by attempts_to_fail(job_index): a pure
//     hash-seeded draw per *arrival index*, evaluated independently of when
//     (or on which node) the attempt runs. The first k completions of job i
//     fail, for the k the stream drew — bit-identical across fleet thread
//     counts.
//   - An empty plan (no events, zero rate) must leave the replay
//     byte-identical to a fault-free engine; SimEngine gates every fault
//     code path on FaultPlan::empty().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace migopt::fault {

enum class FaultKind {
  NodeFail,        ///< node crashes: in-flight work lost, slot powered off
  NodeRecover,     ///< node rejoins the idle set
  EmergencyBegin,  ///< budget slashed to `watts` (min with the trace budget)
  EmergencyEnd,    ///< standing trace budget restored
};

const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultEvent {
  double time_seconds = 0.0;
  FaultKind kind = FaultKind::NodeFail;
  int node = -1;       ///< NodeFail / NodeRecover
  double watts = 0.0;  ///< EmergencyBegin: the emergency budget
};

/// Retry semantics of failed jobs (transient failures, node kills, sheds):
/// attempt k's re-enqueue is delayed by base * multiplier^(k-1), clamped to
/// the cap; a job that has already used max_retries is abandoned instead.
struct RetryPolicy {
  std::size_t max_retries = 3;
  double backoff_base_seconds = 30.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_seconds = 3600.0;

  /// Backoff before retry number `retry` (1-based).
  double delay_seconds(std::size_t retry) const noexcept;
  void validate() const;
};

/// The fault scenario knobs — what make_fault_plan expands into a plan.
/// All means are of exponential distributions; 0 disables that channel.
struct FaultConfig {
  /// Mean up-time between crashes per node (seconds); 0 = no node outages.
  double node_mtbf_seconds = 0.0;
  /// Mean repair time of a crashed node.
  double node_mttr_seconds = 900.0;
  /// Probability that any single attempt of a job fails at completion.
  double transient_failure_rate = 0.0;
  /// Mean time between power emergencies; 0 = none.
  double power_emergency_mtbf_seconds = 0.0;
  /// Fixed emergency duration.
  double power_emergency_duration_seconds = 600.0;
  /// The slashed budget during an emergency (applied as min with the
  /// standing trace budget). Must be > 0 when emergencies are enabled.
  double power_emergency_watts = 0.0;
  RetryPolicy retry;

  /// Any fault channel active? A disabled config yields an empty plan.
  bool enabled() const noexcept {
    return node_mtbf_seconds > 0.0 || transient_failure_rate > 0.0 ||
           power_emergency_mtbf_seconds > 0.0;
  }
  void validate() const;
};

/// A fully expanded, replay-ready fault scenario.
struct FaultPlan {
  /// Sorted by (time, kind, node) — recoveries and emergency ends apply
  /// before new failures at the same instant, so a zero-length window can
  /// never leave a node wedged down.
  std::vector<FaultEvent> events;
  double transient_failure_rate = 0.0;
  RetryPolicy retry;
  std::uint64_t seed = 0;

  /// True when the plan injects nothing — the engine's byte-identity gate.
  bool empty() const noexcept {
    return events.empty() && transient_failure_rate <= 0.0;
  }
  /// How many leading attempts of the job with dense arrival index
  /// `job_index` fail transiently (geometric in the failure rate, capped at
  /// max_retries + 1 — past that the job is abandoned anyway). Pure: the
  /// draw streams from stream_seed(seed, job_index), so the answer is
  /// independent of replay interleaving.
  std::size_t attempts_to_fail(std::uint64_t job_index) const noexcept;
  void validate() const;
};

/// Expand `config` into the deterministic plan for a `node_count`-node
/// cluster over `horizon_seconds` of trace time (windows starting past the
/// horizon are dropped; recoveries of started windows are kept even beyond
/// it so every failed node eventually rejoins).
FaultPlan make_fault_plan(const FaultConfig& config, int node_count,
                          double horizon_seconds, std::uint64_t seed);

/// One whole-cluster outage window of a fleet (fault::make_outage_windows).
struct OutageWindow {
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Per-cluster outage windows over the fleet horizon: independent seed
/// streams per cluster, exponential time-between-outages around
/// `mtbf_seconds`, fixed `duration_seconds` windows. Empty when mtbf <= 0.
std::vector<std::vector<OutageWindow>> make_outage_windows(
    int cluster_count, double horizon_seconds, double mtbf_seconds,
    double duration_seconds, std::uint64_t seed);

/// Is `time` inside any of the (sorted, disjoint) windows?
bool in_outage(const std::vector<OutageWindow>& windows,
               double time) noexcept;

/// Fold whole-cluster outage windows into `plan` as all-node fail/recover
/// events (the shard-level realization of a fleet outage) and re-sort.
void apply_outages(FaultPlan& plan, const std::vector<OutageWindow>& windows,
                   int node_count);

}  // namespace migopt::fault
