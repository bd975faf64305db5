// Decision making (the right half of the paper's Figure 7): search the
// hardware-state space for the best (S) or (S, P) under a policy, scoring
// candidates with the trained model.
//
// The paper uses exhaustive search ("the number of selections here is very
// small... 4 x 6 = 24") and points at hill climbing for larger future spaces
// (Section 6); both are provided.
//
// Hot-path layout: the constructor pre-interns the whole (state × cap)
// candidate grid into dense PerfModel keys, so a decide() computes the basis
// features once per profile, selects admissible caps as an index range over
// the grid (no allocation), and sweeps candidates through the prepared
// scoring kernel — two array reads and a handful of FMAs each. The grid is
// tied to the model's revision(): mutating the model afterwards makes
// decisions throw instead of silently using stale coefficients.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "core/hw_state.hpp"
#include "core/perf_model.hpp"
#include "core/policy.hpp"
#include "profiling/counters.hpp"

namespace migopt::core {

struct Decision {
  /// True when at least one candidate met the fairness constraint. When
  /// false, `state`/`power_cap_watts` hold the fairness-maximizing fallback
  /// and the caller should consider running the jobs exclusively instead.
  bool feasible = false;
  PartitionState state;
  double power_cap_watts = 0.0;
  PairMetrics predicted;      ///< model-estimated metrics of the choice
  double objective_value = 0.0;
  std::size_t evaluations = 0;  ///< candidate states scored by the search
};

/// Decision over an N-way group (same lexicographic semantics as Decision).
struct GroupDecision {
  bool feasible = false;
  GroupState state;
  double power_cap_watts = 0.0;
  GroupMetrics predicted;
  double objective_value = 0.0;
  std::size_t evaluations = 0;
};

class Optimizer {
 public:
  /// The optimizer searches over `states` x `caps`; all combinations must be
  /// covered by the model's trained keys. The model must outlive the
  /// optimizer and must not be mutated afterwards (decisions check the
  /// model's revision and throw on staleness).
  Optimizer(const PerfModel& model, std::vector<PartitionState> states,
            std::vector<double> caps);

  /// Paper default: Table 5 state space.
  static Optimizer paper_default(const PerfModel& model);

  const std::vector<PartitionState>& states() const noexcept { return states_; }
  const std::vector<double>& caps() const noexcept { return caps_; }

  /// Exhaustive search (the paper's method).
  Decision decide(const prof::CounterSet& profile1, const prof::CounterSet& profile2,
                  const Policy& policy) const;

  /// Problem 2 under every cap ceiling at once: the pair's throughput-vs-cap
  /// curve. Scores the (state × cap) grid once, then runs decide()'s
  /// selection per ceiling level, so entry k is bit-equal to decide() under
  /// any ceiling in [ceiling_levels()[k], ceiling_levels()[k+1]) — including
  /// `evaluations`. `policy` must leave the cap free; its own
  /// power_cap_ceiling is ignored. Unlike decide(), this scores caps above
  /// any ceiling, so every grid cap must have trained coefficients.
  std::vector<Decision> decide_all_ceilings(const prof::CounterSet& profile1,
                                            const prof::CounterSet& profile2,
                                            const Policy& policy) const;

  /// The distinct grid caps in ascending order: the ceiling levels at which
  /// a free-cap decision can change.
  const std::vector<double>& ceiling_levels() const noexcept {
    return ceiling_levels_;
  }
  /// Index into ceiling_levels() of the largest level <= `ceiling` (a
  /// decide_all_ceilings entry), or -1 when `ceiling` is below every cap.
  /// `ceiling` must not be NaN. Inline: the scheduler asks on every probe.
  std::ptrdiff_t ceiling_level(double ceiling) const noexcept {
    const auto it =
        std::upper_bound(ceiling_levels_.begin(), ceiling_levels_.end(), ceiling);
    return (it - ceiling_levels_.begin()) - 1;
  }

  /// Random-restart hill climbing for large state spaces. Moves along the
  /// partition-split / option / cap axes; quality is validated against the
  /// exhaustive oracle in the test suite. Deterministic for a fixed seed.
  Decision decide_hill_climb(const prof::CounterSet& profile1,
                             const prof::CounterSet& profile2, const Policy& policy,
                             Rng& rng, int restarts = 4) const;

  /// Exhaustive search over an explicit N-way state space (e.g. from
  /// core::group_states). The model must cover every (size, option, cap)
  /// combination the states use; train with a matching co-run grid.
  GroupDecision decide_group(std::span<const prof::CounterSet> profiles,
                             std::span<const GroupState> group_states,
                             const Policy& policy) const;

 private:
  /// Pre-interned dense keys of one (state, cap) candidate.
  struct KeyPair {
    PerfModel::DenseKey key1 = PerfModel::kNoKey;
    PerfModel::DenseKey key2 = PerfModel::kNoKey;
  };

  /// Lexicographic score: any feasible beats all infeasible; feasible ranks by
  /// objective; infeasible ranks by fairness (to drive toward feasibility).
  struct Scored {
    bool feasible = false;
    double score = 0.0;
    PairMetrics metrics;
  };

  /// Which caps a policy admits, resolved once per decision without
  /// materializing a vector: either one explicit cap (Problem 1 / ceiling
  /// fallback) or the grid filtered by a ceiling.
  struct CapSelection {
    bool none = false;     ///< ceiling below every admissible cap
    bool single = false;   ///< exactly one cap (fixed or ceiling fallback)
    double value = 0.0;    ///< single-cap value
    int index = -1;        ///< its caps_ index, or -1 when off the grid
    int watts = -1;        ///< its integer-watt grid value, or -1
    double ceiling = 0.0;  ///< range mode: admit caps_[i] <= ceiling
  };
  CapSelection select_caps(const Policy& policy) const;

  struct Pick;
  /// decide()'s selection over the grid candidates with cap <= `ceiling`, in
  /// state-major, cap-index order; score_at(s, c) yields each Scored.
  template <typename ScoreAt>
  Decision select_under(double ceiling, ScoreAt&& score_at) const;

  Scored score_prepared(const PreparedPair& prepared, const PartitionState& state,
                        KeyPair keys, double cap, const Policy& policy) const;
  static bool better(const Scored& a, const Scored& b) noexcept;

  KeyPair keys_for(const PartitionState& state, int watts) const noexcept;
  void check_model_unchanged() const;

  const PerfModel* model_;
  std::vector<PartitionState> states_;
  std::vector<double> caps_;

  // Candidate grid: grid_[s * caps_.size() + c] holds the dense keys of
  // (states_[s], caps_[c]). cap_watts_ is the grid-rounded value per cap
  // (-1 when off the integer-watt grid — scoring such a cap throws, as
  // before). caps_sorted_ orders cap indices by value for the ceiling
  // fallback; min_cap_value_ answers "is any cap admissible" in O(1).
  std::vector<KeyPair> grid_;
  std::vector<int> cap_watts_;
  std::vector<std::size_t> caps_sorted_;
  std::vector<double> ceiling_levels_;
  double min_cap_value_ = 0.0;
  std::uint64_t model_revision_ = 0;
};

}  // namespace migopt::core
