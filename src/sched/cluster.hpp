// Multi-node cluster simulation — the paper's future-work direction
// ("selecting an optimal combination of co-locating jobs from a job queue at
// cluster scale"), built on the Node and CoScheduler pieces.
//
// Two ways to drive it:
//   - run(): the batch event loop — all jobs known up front, dispatched from
//     a shared queue onto idle nodes, profiles collected from exclusive first
//     runs; reports makespan, energy, and per-job statistics. A plain
//     exclusive-FIFO mode provides the baseline.
//   - the incremental session API (begin_session / submit / dispatch /
//     advance_to / set_power_budget / report): the same machinery exposed
//     step by step, so an external discrete-event engine (migopt::trace's
//     SimEngine) can interleave online arrivals and power-budget changes
//     with completions. run() is itself implemented on these hooks.
//
// Per-node bookkeeping — the idle set dispatch probes, queued/running
// counts, the in-flight profile run per node, the busy-cap sum of the
// budget check — is maintained incrementally: a dense occupancy bitmap, a
// sorted idle list, an exact fixed-point busy-cap total (see
// busy_cap_watts()), counters, one profile slot per node. Only the physics
// integration itself touches nodes, and only when it must: a lazy min-heap
// over per-node next-completion times names the nodes whose completions are
// due, equal-time completions drain in node-index order, and idle nodes
// catch up (idle power accrues) when next dispatched or at report().
// Per-event cost is O(log nodes), independent of the node count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sched/coscheduler.hpp"
#include "sched/node.hpp"
#include "sched/run_memo.hpp"

namespace migopt::sched {

/// The one event core (completion heap + lazy idle catch-up). Single-valued
/// and read by nothing: kept, with ClusterConfig::event_core, only for
/// configuration writers (the perfbench harness) until the next revision of
/// the benchmark.
enum class EventCore { Indexed };

struct ClusterConfig {
  int node_count = 4;
  /// When false, every job runs exclusively (FIFO) — the comparison baseline.
  bool enable_coscheduling = true;
  /// Wall-clock guard for the event loop.
  double max_sim_seconds = 1.0e7;
  /// Cluster-wide GPU power budget in watts of *cap* (the provisioning
  /// contract, not instantaneous draw): the caps of concurrently running
  /// nodes never sum above it. A node that cannot afford the cheapest cap
  /// waits for running work to release budget — the paper's Section 5.2.3
  /// budget shifting applied to the dispatch loop. Empty = unconstrained.
  std::optional<double> total_power_budget_watts;
  /// Read by nothing; see EventCore.
  EventCore event_core = EventCore::Indexed;
  /// Collect the per-job JobStat vector in the report. Million-job replays
  /// turn this off; aggregate statistics (mean turnaround, counts) are
  /// accumulated either way.
  bool collect_job_stats = true;
};

struct JobStat {
  JobId id = -1;
  std::string app;
  double turnaround = 0.0;  ///< finish - submit
  double runtime = 0.0;     ///< finish - start
};

struct ClusterReport {
  double makespan_seconds = 0.0;
  double total_energy_joules = 0.0;
  std::size_t jobs_completed = 0;
  std::size_t pair_dispatches = 0;
  std::size_t exclusive_dispatches = 0;
  std::size_t profile_runs = 0;
  /// Pairing probes the scheduler's decision table answered from a served
  /// cell / had to fill over this run (deltas of the scheduler's counters).
  std::size_t decision_cache_hits = 0;
  std::size_t decision_cache_misses = 0;
  /// Always 0: the decision table never evicts. Kept for report readers
  /// (the perfbench harness) until the next revision of the benchmark.
  std::size_t decision_cache_evictions = 0;
  /// Physics solves served from / paid into the session's RunMemo (deltas
  /// of its monotonic counters) — how much of the execution-engine work the
  /// memo absorbed. hits / (hits + misses) is the memoization efficacy the
  /// fleet benches surface.
  std::size_t run_memo_hits = 0;
  std::size_t run_memo_misses = 0;
  double mean_turnaround = 0.0;
  /// Highest sum of concurrently active node caps observed (<= the budget
  /// whenever one is configured).
  double peak_cap_sum_watts = 0.0;
  /// Fault-session counters (all zero in a fault-free session): node
  /// crash/recovery events, jobs killed by crashes, jobs shed by graceful
  /// power degradation, and total node-down seconds (nodes still down at
  /// report time accrue up to the session clock).
  std::size_t node_failures = 0;
  std::size_t node_recoveries = 0;
  std::size_t jobs_killed = 0;
  std::size_t jobs_shed = 0;
  double node_downtime_seconds = 0.0;
  /// Per-job statistics (empty when ClusterConfig::collect_job_stats is off).
  std::vector<JobStat> jobs;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  /// Run all jobs to completion through the scheduler; returns the report.
  /// Jobs may have staggered submit times.
  ClusterReport run(std::vector<Job> jobs, CoScheduler& scheduler);

  // --- Incremental session API (what run() is built on) -------------------
  //
  // Protocol: begin_session once, then any interleaving of submit /
  // set_power_budget / dispatch / advance_to with a non-decreasing clock
  // supplied by the caller, then report() to assemble the statistics.

  /// Start a fresh accounting session: clears the queue, per-job statistics,
  /// and dispatch counters, and snapshots the scheduler's decision-table
  /// counters plus node energy so report() returns session deltas. Detaches
  /// any shared solve store (see share_solves).
  void begin_session(const CoScheduler& scheduler);

  /// Serve this session's RunMemo misses from `store` — the solve store of
  /// the registry whose kernels the session will dispatch — until the next
  /// begin_session. Attaches only when the nodes' architecture equals the
  /// store's (stored solves are then bit-identical to the nodes' own);
  /// returns whether it attached. `store` must outlive the session.
  bool share_solves(gpusim::SolveStore& store) noexcept;

  /// Seconds per work unit of `kernel` running exclusively on a full node
  /// chip at TDP (GpuChip::baseline_seconds, to the bit): served from the
  /// attached solve store when there is one, else from node 0's chip.
  double baseline_seconds(const gpusim::KernelDescriptor& kernel) const;

  /// Enqueue a job that has arrived: its submit_time must not be later than
  /// the `now` of the next dispatch call (see JobQueue).
  void submit(const Job& job);

  /// Replace the cluster power budget for all *future* dispatches (running
  /// jobs keep their caps — a cap is a provisioning contract). Empty lifts
  /// the constraint.
  void set_power_budget(std::optional<double> watts);
  const std::optional<double>& power_budget() const noexcept { return budget_; }

  /// Dispatch onto idle nodes until no further plan fits the queue/budget at
  /// `now`; returns the number of dispatches made. Drains the queue as one
  /// batch: the scheduler's per-batch context (profile-revision sync,
  /// ceiling-stamped policy copies) is prepared once up front instead of
  /// once per idle-node probe. Probe order, budget arithmetic, and every
  /// resulting plan are identical to probing CoScheduler::next per node —
  /// the checked-in replay baselines pin that equivalence bit-for-bit.
  /// Throws ContractViolation when a job it would dispatch has not arrived
  /// by `now`.
  std::size_t dispatch(CoScheduler& scheduler, double now);

  /// Earliest completion across nodes; +infinity when every node idles.
  double next_completion_time() const noexcept;

  /// Advance the simulation to `t` (>= all prior clocks), returning finished
  /// jobs with their finish_time set. Profile runs are recorded with the
  /// scheduler (releasing held-back jobs of the same application) and all
  /// per-job statistics are accumulated for report(). Only nodes with due
  /// completions are touched; equal-time completions drain in node-index
  /// order.
  /// The returned reference aliases an internal scratch buffer reused by
  /// the next advance_to call — consume (or copy) it before advancing again.
  const std::vector<Job>& advance_to(double t, CoScheduler& scheduler);

  // --- Fault session calls (trace replay's fault injection) ---------------

  /// Crash node `n` at `now`. Completions due by `now` drain normally first
  /// (appended to `completed` — a job finishing at the crash instant still
  /// counts as completed, a deterministic tie order), then every
  /// still-resident job is killed and appended to `killed` with no
  /// finish_time: its in-flight work is lost and the caller decides
  /// retry/abandon. A killed profile run clears the scheduler's in-flight
  /// flag (CoScheduler::abort_profile) so held-back jobs release and a later
  /// exclusive run re-attempts the profile. The node leaves the
  /// dispatchable set until recover_node and draws no power while down.
  void fail_node(int n, double now, CoScheduler& scheduler,
                 std::vector<Job>& completed, std::vector<Job>& killed);

  /// Return a down node to service at `now`: it re-enters the idle set with
  /// its clock jumped forward (downtime is unpowered — a crashed node draws
  /// nothing) and its downtime accrued to the session report.
  void recover_node(int n, double now);

  /// Graceful power degradation: while busy nodes exist and their cap sum
  /// exceeds `budget_watts`, shed whole nodes in
  /// PowerBroker::pick_shed_victim order (lowest resident priority, then
  /// larger cap, then lower node index), appending the killed jobs to
  /// `shed`; completions due by `now` drain into `completed` first. Shed
  /// nodes stay up and immediately dispatchable — only their in-flight work
  /// is lost. Returns the number of nodes shed.
  std::size_t shed_to_budget(double budget_watts, double now,
                             CoScheduler& scheduler,
                             std::vector<Job>& completed,
                             std::vector<Job>& shed);

  bool node_down(int n) const noexcept {
    return node_down_[static_cast<std::size_t>(n)] != 0;
  }
  std::size_t down_node_count() const noexcept { return down_nodes_; }

  std::size_t queued_count() const noexcept { return queue_.size(); }
  /// Jobs resident on nodes right now (maintained incrementally — O(1)).
  std::size_t running_count() const noexcept { return running_jobs_; }
  const JobQueue& queue() const noexcept { return queue_; }

  // --- Telemetry accessors (obs sampler reads; all O(1)) ------------------

  /// Nodes hosting at least one job right now.
  std::size_t busy_node_count() const noexcept { return busy_nodes_; }
  std::size_t idle_node_count() const noexcept {
    return nodes_.size() - busy_nodes_ - down_nodes_;
  }
  /// Sum of the standing caps of busy nodes — the quantity the power budget
  /// bounds and peak_cap_sum_watts tracks. Bit-identical to adding the caps
  /// in node-index order: every cap on the 2^-16 W lattice (every grid cap
  /// is) is kept as an integer count of lattice units, and while all busy
  /// caps are such counts and their total stays below 2^53 units, each
  /// partial sum of the index-order chain is exact, so the chain equals the
  /// integer total to the last bit. O(1) then; a cap off the lattice (the
  /// plain-FIFO headroom cap min(tdp, budget - busy)) makes it walk the busy
  /// nodes in index order while that cap is resident.
  double busy_cap_watts() const noexcept;
  /// Dispatch events since begin_session (pairs + exclusives; profile runs
  /// are counted separately in the session report).
  std::size_t session_dispatches() const noexcept {
    return session_.pair_dispatches + session_.exclusive_dispatches;
  }
  /// The session RunMemo's monotonic hit/miss counters (report() exposes
  /// the session deltas; mid-replay samplers difference these themselves
  /// against their begin-of-session snapshot).
  const RunMemo::Stats& run_memo_stats() const noexcept {
    return run_memo_.stats();
  }

  /// Statistics accumulated since begin_session (makespan from node clocks,
  /// energy and decision-table counters as deltas against the session start).
  /// This first catches idle nodes up to the session clock so idle power
  /// accrues to the end of the session.
  ClusterReport report(const CoScheduler& scheduler) const;

  /// Nodes are heap-held because a Node embeds a GpuChip (non-movable).
  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept { return nodes_; }

 private:
  /// Advance node `n` to `t`, folding its completions into the session
  /// statistics and updating the occupancy/event-core bookkeeping. With
  /// `expect_completion` (a due completion was popped or advertised) a node
  /// that yields no completion force-finishes its due slot — see
  /// Node::finish_head_slot.
  void drain_node(int n, double t, bool expect_completion,
                  CoScheduler& scheduler, std::vector<Job>& finished);
  /// Record node `n`'s next completion (+inf when idle) and push a finite
  /// one onto the completion heap.
  void set_node_next(int n, double next);

  /// Sorted-insert `ni` into idle_nodes_ on a busy→idle transition.
  void mark_idle(std::size_t ni);

  /// Kill every job resident on node `ni` (crash or shed), appending them
  /// to `out` and fixing the running/profiling/occupancy bookkeeping. The
  /// node ends idle but is left *out* of idle_nodes_ — callers decide
  /// whether it is down (fail_node) or dispatchable again (shed_to_budget).
  /// Returns the number of jobs killed.
  std::size_t kill_node(std::size_t ni, CoScheduler& scheduler,
                        std::vector<Job>& out);

  /// Node `ni` joined the busy set at `cap` (its standing cap): record the
  /// cap and fold it into the busy-cap total.
  void add_busy_cap(std::size_t ni, double cap) noexcept;
  /// Node `ni` left the busy set: take its cap out of the busy-cap total.
  void remove_busy_cap(std::size_t ni) noexcept;

  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;

  // Session state (reset by begin_session).
  JobQueue queue_;
  std::optional<double> budget_;
  ClusterReport session_;
  CoScheduler::DecisionStats decisions_at_session_start_;
  RunMemo::Stats memo_at_session_start_;
  double energy_at_session_start_ = 0.0;
  double clock_at_session_start_ = 0.0;
  double turnaround_sum_ = 0.0;  ///< accumulated in completion order
  /// Latest clock any session call has reached (idle catch-up target).
  double session_now_ = 0.0;
  std::size_t running_jobs_ = 0;
  /// Dense occupancy bitmap (1 = busy), in node-index order.
  std::vector<std::uint8_t> node_busy_;
  /// Count of set bits in node_busy_: dispatch runs once per event-loop
  /// step, and with a standing backlog every node is busy almost every
  /// step, so the all-busy case must exit on one compare instead of a
  /// bitmap scan.
  std::size_t busy_nodes_ = 0;
  /// Idle node indices, ascending — dispatch's probe order. A saturated
  /// replay step frees one node per completion, so dispatch probes one
  /// entry here instead of walking all N bitmap slots per pass. Invariant:
  /// holds exactly the indices with node_busy_[i] == 0, sorted.
  std::vector<std::uint32_t> idle_nodes_;
  /// Down bitmap + count + down-since clocks of the fault session calls
  /// (fail_node / recover_node): a down node is in neither idle_nodes_ nor
  /// the busy set, publishes +inf as its next completion, and draws no
  /// power — its clock jumps forward at recovery.
  std::vector<std::uint8_t> node_down_;
  std::size_t down_nodes_ = 0;
  std::vector<double> down_since_;
  /// Standing cap per busy node (meaningful only where node_busy_ is set):
  /// the shed candidates and the off-lattice index-order walk read it.
  std::vector<double> node_cap_;
  /// node_cap_ in 2^-16 W lattice units, or -1 for a cap off the lattice
  /// (see busy_cap_watts()).
  std::vector<std::int64_t> node_cap_units_;
  /// Sum of node_cap_units_ over busy nodes with a lattice cap.
  std::int64_t busy_cap_units_ = 0;
  /// Busy nodes whose cap is off the lattice; nonzero forces the walk.
  std::size_t off_lattice_caps_ = 0;
  /// Id of the in-flight profile run per node (-1 = none). A node runs at
  /// most one profile job at a time (profile runs are exclusive), so one
  /// slot per node suffices.
  std::vector<JobId> profiling_job_;
  /// Authoritative per-node next-completion time (+inf when idle).
  std::vector<double> node_next_;
  /// Lazy min-heap of (next completion, node): entries whose time no longer
  /// matches node_next_ are skipped on pop. Ties pop in node-index order.
  mutable std::vector<std::pair<double, int>> completion_heap_;
  /// Reused buffers of the advance_to → drain_node hot path: the common
  /// no-completion step allocates nothing (capacity persists across steps).
  std::vector<Job> finished_scratch_;
  std::vector<Job> drain_scratch_;
  /// Shared physics memo for the homogeneous nodes (sched/run_memo.hpp):
  /// each (kernels, split, option, cap) steady-state shape is looked up once
  /// per session and replays bit-identically from then on. Cleared, and its
  /// solve store detached, by begin_session (kernel pointers must not
  /// outlive their session).
  RunMemo run_memo_;
};

}  // namespace migopt::sched
