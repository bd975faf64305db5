// Pair selection (the "(Co-)Scheduler" box of the paper's Figure 1).
//
// Dispatch rule: take the queue head; scan a lookahead window for the partner
// whose allocator decision maximizes the policy objective among feasible
// candidates. Jobs without a recorded profile must run exclusively first
// (Figure 7: "if no profile is recorded... must be executed exclusively for
// the profile run").
//
// Decision memo: while the profile store is unchanged, a pairing probe's
// answer depends only on (pivot app, candidate app, slot), the slot being the
// headroom's ceiling level (Optimizer::ceiling_levels()), "unceiled", or, for
// fixed-cap policies, "the fixed cap fits the headroom". One dense table of
// those cells is the memo. A probe is a hit exactly when its cell was served
// since the last clear, which is what an unbounded cache keyed by
// (app1, app2, policy with its ceiling rounded down to the dispatch cap)
// counts.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/workflow.hpp"
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
  /// How many queued jobs beyond the pivot are scanned for a partner.
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
  /// Not read: the dense decision table has no capacity and never evicts.
  /// Kept only because the perfbench harness still sets it; the next
  /// revision of the benchmark deletes it.
  std::size_t decision_cache_capacity = 0;
};

class CoScheduler {
 public:
  /// `allocator` must outlive the scheduler; it is mutated when profile runs
  /// complete (record_profile). A fixed-cap policy must name one of the
  /// optimizer's trained caps (ContractViolation otherwise).
  CoScheduler(core::ResourcePowerAllocator& allocator, core::Policy policy,
              SchedulerTuning tuning = {});

  const core::Policy& policy() const noexcept { return policy_; }
  const SchedulerTuning& tuning() const noexcept { return tuning_; }

  /// Hit/miss counts of the decision table (cumulative; reports take
  /// deltas). Nothing is ever evicted.
  struct DecisionStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  /// Open a dispatch batch: reconciles the decision table with the profile
  /// store once for the whole batch. Safe because nothing inside a batch can
  /// change the store's revision — profiles are recorded at job
  /// *completion* (between batches) and interning never bumps the revision.
  void begin_batch();

  /// Plan the next dispatch from the queue at `now` inside a batch opened by
  /// begin_batch; nullopt when the queue is empty, every queued job is
  /// waiting for an in-flight profile run of its application, or
  /// `max_cap_watts` (what remains of a cluster power budget) is below every
  /// cap the optimizer may choose. Throws ContractViolation when a job it
  /// would dispatch has not arrived (submit_time > now; see JobQueue).
  std::optional<DispatchPlan> next_in_batch(
      JobQueue& queue, double now,
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
  /// held back while it was in flight and clears the decision table (the
  /// allocator's answers may change).
  void record_profile(AppId app, const prof::CounterSet& counters);

  /// A dispatched profile run died without producing a profile (its node
  /// crashed, or a power emergency shed it): clear the in-flight flag so
  /// queued jobs of the application are released and the *next* exclusive
  /// run re-attempts the profile. Nothing was recorded, so the decision
  /// table stays valid.
  void abort_profile(const Job& job);

  /// Name of an interned app id (the allocator's symbol table). Throws on
  /// ids this allocator never assigned, including kNoSymbol.
  const std::string& app_name(AppId app) const {
    return allocator_->profiles().app_name(app);
  }

  /// Intern an app name against the allocator's profile store (the id space
  /// Job::app_id, the in-flight bitmap, and the decision table live in).
  /// Every job producer stamps Job::app_id through this; producers of many
  /// jobs (trace::SimEngine) intern once per distinct app.
  AppId intern_app(const std::string& app) { return allocator_->intern_app(app); }

  /// Decision-table probes of the pairing window: a hit is a probe whose
  /// cell was already served since the last clear.
  const DecisionStats& decision_stats() const noexcept { return stats_; }

  /// Cells served since the last clear (the memoized decisions).
  std::size_t decision_cells() const;

  /// Pair cap curves currently memoized. Under a budget ceiling with a
  /// free-cap policy, every ceiling-level cell of a (pivot, candidate) pair
  /// is filled at once by ResourcePowerAllocator::allocate_all_ceilings
  /// instead of one search per level. Curves are dropped with the table.
  std::size_t cap_curves() const;

 private:
  struct Cell {
    core::Decision decision;
    bool served = false;  ///< served since the last clear
  };

  /// Apply the tuning gates to a candidate decision for (pivot, candidate).
  bool pair_acceptable(const Job& pivot, const Job& candidate,
                       const core::Decision& decision) const noexcept;

  /// Clear every served cell and cap curve; resync the revision.
  void invalidate_decisions();
  /// Re-lay the table out so app ids below `needed` index it.
  void grow_table(std::size_t needed);
  /// The cells of `slot`, allocated on first use.
  std::vector<Cell>& plane(std::size_t slot);
  /// The (pivot, candidate) decision in `slot`, counted as a hit when the
  /// cell was served since the last clear, filled otherwise.
  const core::Decision& decision(std::size_t slot, AppId pivot,
                                 AppId candidate);

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
  std::uint64_t cached_profile_revision_ = 0;
  /// One plane per slot (the ceiling levels, unceiled, then "fits"): cell
  /// (pivot, candidate, slot) is planes_[slot][pivot * stride_ + candidate].
  /// A plane is allocated on its slot's first probe (an unbudgeted replay
  /// touches one); all grow when ids outgrow stride_.
  std::vector<std::vector<Cell>> planes_;
  /// Per pair: the level cells were filled from the pair's cap curve.
  std::vector<std::uint8_t> curve_built_;
  std::size_t stride_ = 0;
  DecisionStats stats_;
};

}  // namespace migopt::sched
