// Pair selection (the "(Co-)Scheduler" box of the paper's Figure 1).
//
// Dispatch rule: take the queue head; scan a lookahead window for the partner
// whose allocator decision maximizes the policy objective among feasible
// candidates. Jobs without a recorded profile must run exclusively first
// (Figure 7: "if no profile is recorded... must be executed exclusively for
// the profile run").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/workflow.hpp"
#include "sched/decision_cache.hpp"
#include "sched/job_queue.hpp"

namespace migopt::sched {

struct DispatchPlan {
  Job job1;
  std::optional<Job> job2;        ///< empty -> exclusive run
  core::Decision allocation;      ///< valid when job2 is set
  double power_cap_watts = 0.0;   ///< cap for the dispatch (pair or exclusive)
  bool profile_run = false;       ///< exclusive because the profile is missing
};

/// Knobs controlling when a candidate pair is worth dispatching together.
struct SchedulerTuning {
  /// How many ready jobs beyond the pivot are scanned for a partner.
  std::size_t pairing_window = 8;
  /// Minimum *predicted* weighted speedup to co-schedule. 1.0 is the
  /// break-even against time sharing; the margin absorbs model error (the
  /// paper reports ~10% mean throughput error), so marginal pairs run
  /// exclusively instead of gambling on a losing co-location.
  double min_pair_speedup = 1.1;
  /// With duration hints on both jobs, require the estimated paired
  /// completion time to beat serial execution. Protects against pairing a
  /// long job with a short one: once the short partner exits, the survivor
  /// is pinned to its partition for its whole tail.
  bool require_duration_benefit = true;
  /// Minimum estimated saving of the pair versus serial execution, as a
  /// fraction of the serial time (only with duration hints). Thin-margin
  /// pairs sit inside the model's error band, so they run serially instead.
  double duration_benefit_margin = 0.1;
  /// Bound on the memoized allocator decisions (LRU-evicted beyond it). The
  /// default is generous for the 24-workload registry; long multi-tenant
  /// traces may size it down to study thrashing (evictions are reported).
  std::size_t decision_cache_capacity = DecisionCache::kDefaultCapacity;
};

class CoScheduler {
 public:
  /// `allocator` must outlive the scheduler; it is mutated when profile runs
  /// complete (record_profile).
  CoScheduler(core::ResourcePowerAllocator& allocator, core::Policy policy,
              SchedulerTuning tuning = {});

  const core::Policy& policy() const noexcept { return policy_; }
  const SchedulerTuning& tuning() const noexcept { return tuning_; }

  /// Per-batch dispatch context (see begin_batch). Holds work that is
  /// invariant across the probes of one dispatch batch: the batch clock and
  /// the ceiling-stamped policy copies, cached by the budget headroom they
  /// were stamped for. Opaque to callers; create via begin_batch.
  class BatchContext {
   public:
    double now() const noexcept { return now_; }

   private:
    friend class CoScheduler;
    explicit BatchContext(double now) : now_(now) {}

    double now_;
    /// Headroom the stamped copies below were built for. Unconstrained
    /// probes (+inf headroom) bypass the stamp entirely and use the base
    /// policy, so a finite key is always meaningful.
    double stamped_for_ = 0.0;
    bool has_stamp_ = false;
    core::Policy policy_;        ///< policy_.with_ceiling(headroom)
    core::Policy cache_policy_;  ///< policy_.with_ceiling(default_cap(headroom))
    std::size_t ceiling_level_ = 0;  ///< cap-curve level of the headroom
  };

  /// Open a dispatch batch at `now`: reconciles the decision cache with the
  /// profile store once for the whole batch. Safe because nothing inside a
  /// batch can change the store's revision — profiles are recorded at job
  /// *completion* (between batches) and interning never bumps the revision.
  /// Feed the returned context to next_in_batch for every probe of the
  /// batch; contexts are cheap, stack-held, and must not outlive the batch.
  BatchContext begin_batch(double now);

  /// Plan the next dispatch from the queue (jobs ready at the batch clock);
  /// nullopt when no job is ready, every ready job is waiting for an
  /// in-flight profile run of its application, or `max_cap_watts` (what
  /// remains of a cluster power budget) is below every cap the optimizer
  /// may choose. Produces exactly the plan next() produces — the batch
  /// context only hoists per-batch invariants out of the probe.
  std::optional<DispatchPlan> next_in_batch(
      BatchContext& batch, JobQueue& queue,
      double max_cap_watts = std::numeric_limits<double>::infinity());

  /// Single-probe convenience: a batch of one (begin_batch + next_in_batch).
  std::optional<DispatchPlan> next(JobQueue& queue, double now,
                                   double max_cap_watts =
                                       std::numeric_limits<double>::infinity());

  /// The smallest cap in the optimizer's grid — the cheapest dispatch the
  /// cluster's budget accounting must be able to afford. Throws
  /// ContractViolation when the grid is empty instead of returning +inf.
  double min_cap() const;

  /// Record a profile measured during an exclusive first run of `app` (an
  /// id from intern_app). Releases any queued jobs of the same application
  /// held back while it was in flight and invalidates the decision cache
  /// (the allocator's answers may change).
  void record_profile(AppId app, const prof::CounterSet& counters);

  /// A dispatched profile run died without producing a profile (its node
  /// crashed, or a power emergency shed it): clear the in-flight flag so
  /// queued jobs of the application are released and the *next* exclusive
  /// run re-attempts the profile. Nothing was recorded, so the decision
  /// cache stays valid.
  void abort_profile(const Job& job);

  /// Name of an interned app id (the allocator's symbol table). Throws on
  /// ids this allocator never assigned, including kNoSymbol.
  const std::string& app_name(AppId app) const {
    return allocator_->profiles().app_name(app);
  }

  /// Intern an app name against the allocator's profile store (the id space
  /// Job::app_id, the in-flight bitmap, and DecisionCache keys live in).
  /// Every job producer stamps Job::app_id through this; producers of many
  /// jobs (trace::SimEngine) intern once per distinct app.
  AppId intern_app(const std::string& app) { return allocator_->intern_app(app); }

  /// Memoized allocator decisions for the pairing window; hits/misses expose
  /// how much search the cache saved across dispatches.
  const DecisionCache& decision_cache() const noexcept { return decision_cache_; }

  /// Pair cap curves currently memoized. Under a budget ceiling with a
  /// free-cap policy, a DecisionCache miss is answered from the (pivot,
  /// candidate) curve — built once per pair by
  /// ResourcePowerAllocator::allocate_all_ceilings — instead of a fresh
  /// search. Curves are dropped whenever the decision cache is invalidated.
  std::size_t cap_curves() const noexcept { return cap_curves_; }

 private:
  /// Cap for exclusive dispatches, honouring `max_cap_watts`; negative when
  /// nothing in the grid fits. Throws ContractViolation when the grid is
  /// empty instead of returning -1.0.
  double default_cap(double max_cap_watts) const;
  /// Apply the tuning gates to a candidate decision for (pivot, candidate).
  bool pair_acceptable(const Job& pivot, const Job& candidate,
                       const core::Decision& decision) const noexcept;

  /// Drop cached decisions when the allocator's profile store changed under
  /// us (e.g. record_profile called on the allocator directly).
  void sync_cache_with_profiles();
  /// Drop the decision cache and every cap curve; resync the revision.
  void invalidate_decisions();
  /// Entry `level` of the (pivot, candidate) cap curve, built on first use.
  const core::Decision& cap_curve_entry(AppId pivot, AppId candidate,
                                        std::size_t level);

  bool profiling_in_flight(AppId app) const noexcept {
    return app < profiling_in_flight_.size() && profiling_in_flight_[app] != 0;
  }
  void set_profiling_in_flight(AppId app, bool value);

  core::ResourcePowerAllocator* allocator_;
  core::Policy policy_;
  SchedulerTuning tuning_;
  /// Applications whose first (profiling) run has been dispatched but has not
  /// completed yet; further instances wait so only one profile run happens.
  /// Dense bitmap indexed by AppId — an O(1) load per window candidate where
  /// a std::set<std::string> paid a string-compare tree walk.
  std::vector<std::uint8_t> profiling_in_flight_;
  DecisionCache decision_cache_;
  std::uint64_t cached_profile_revision_ = 0;
  /// Cap curves by app ids: curves_[pivot * curve_stride_ + candidate], empty
  /// until built. Dense like the in-flight bitmap; grown when ids outgrow it.
  std::vector<std::vector<core::Decision>> curves_;
  std::size_t curve_stride_ = 0;
  std::size_t cap_curves_ = 0;  ///< non-empty entries of curves_
};

}  // namespace migopt::sched
