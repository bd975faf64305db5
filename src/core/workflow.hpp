// The "Resource and Power Allocator" facade (the paper's Figure 1 component
// and Figure 7 workflow): owns the trained model + profile database and
// answers allocation queries from the scheduler.
#pragma once

#include <string>
#include <string_view>

#include "common/interner.hpp"
#include "core/optimizer.hpp"
#include "core/trainer.hpp"

namespace migopt::core {

class ResourcePowerAllocator {
 public:
  struct Config {
    TrainingConfig training;
    /// Search space for decisions (defaults to the paper's Table 5).
    std::vector<PartitionState> states = paper_states();
    std::vector<double> caps = paper_power_caps();
  };

  /// Run the offline phase against a device and benchmark set.
  static ResourcePowerAllocator train(const gpusim::GpuChip& chip,
                                      const wl::WorkloadRegistry& registry,
                                      const std::vector<wl::CorunPair>& pairs,
                                      Config config);
  static ResourcePowerAllocator train(const gpusim::GpuChip& chip,
                                      const wl::WorkloadRegistry& registry,
                                      const std::vector<wl::CorunPair>& pairs);

  /// Assemble from pre-trained artifacts (e.g. loaded from disk).
  ResourcePowerAllocator(PerfModel model, prof::ProfileDb profiles, Config config);

  const PerfModel& model() const noexcept { return model_; }
  const prof::ProfileDb& profiles() const noexcept { return profiles_; }
  const TrainingReport& report() const noexcept { return report_; }
  const Optimizer& optimizer() const noexcept { return optimizer_; }

  /// An app can be co-scheduled only once a profile exists (Fig. 7: the first
  /// run must be exclusive to collect one).
  bool can_coschedule(const std::string& app) const noexcept;

  /// O(1) interned-id form of can_coschedule (ids from intern_app).
  bool can_coschedule(Symbol app) const noexcept {
    return profiles_.contains(app);
  }

  /// Get-or-assign the dense profile-database id of `app`. Ids are only
  /// meaningful against this allocator's profile store; the scheduler uses
  /// them to index its in-flight bitmap and decision table.
  Symbol intern_app(std::string_view app) { return profiles_.intern_app(app); }

  /// Record a profile collected during an exclusive first run.
  void record_profile(const std::string& app, const prof::CounterSet& counters);

  /// Decide (S) or (S, P) for a named pair under a policy.
  Decision allocate(const std::string& app1, const std::string& app2,
                    const Policy& policy) const;

  /// Same, keyed by interned ids (from intern_app) — skips the string-keyed
  /// profile lookups on the scheduler's decision path.
  Decision allocate(Symbol app1, Symbol app2, const Policy& policy) const;

  /// Problem 2 for an interned pair under every cap ceiling at once (see
  /// Optimizer::decide_all_ceilings): entry k answers any ceiling at or above
  /// optimizer().ceiling_levels()[k] and below the next level.
  std::vector<Decision> allocate_all_ceilings(Symbol app1, Symbol app2,
                                              const Policy& policy) const;

  /// Same, with explicit profiles (apps not in the database).
  Decision allocate_profiles(const prof::CounterSet& profile1,
                             const prof::CounterSet& profile2,
                             const Policy& policy) const;

 private:
  /// Profile of an interned app; throws naming the id when none is recorded.
  const prof::CounterSet& profile_by_id(Symbol app) const;

  PerfModel model_;
  prof::ProfileDb profiles_;
  TrainingReport report_;
  Optimizer optimizer_;
};

}  // namespace migopt::core
