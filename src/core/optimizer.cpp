#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/small_vector.hpp"

namespace migopt::core {

Optimizer::Optimizer(const PerfModel& model, std::vector<PartitionState> states,
                     std::vector<double> caps)
    : model_(&model), states_(std::move(states)), caps_(std::move(caps)) {
  MIGOPT_REQUIRE(!states_.empty(), "optimizer needs at least one state");
  MIGOPT_REQUIRE(!caps_.empty(), "optimizer needs at least one power cap");
  model_revision_ = model.revision();

  cap_watts_.resize(caps_.size());
  for (std::size_t c = 0; c < caps_.size(); ++c)
    cap_watts_[c] = cap_grid_watts(caps_[c]);

  caps_sorted_.resize(caps_.size());
  for (std::size_t c = 0; c < caps_.size(); ++c) caps_sorted_[c] = c;
  std::sort(caps_sorted_.begin(), caps_sorted_.end(),
            [this](std::size_t a, std::size_t b) { return caps_[a] < caps_[b]; });
  min_cap_value_ = caps_[caps_sorted_.front()];
  for (const std::size_t c : caps_sorted_)
    if (ceiling_levels_.empty() || ceiling_levels_.back() != caps_[c])
      ceiling_levels_.push_back(caps_[c]);

  grid_.resize(states_.size() * caps_.size());
  for (std::size_t s = 0; s < states_.size(); ++s)
    for (std::size_t c = 0; c < caps_.size(); ++c)
      grid_[s * caps_.size() + c] = keys_for(states_[s], cap_watts_[c]);
}

Optimizer Optimizer::paper_default(const PerfModel& model) {
  return Optimizer(model, paper_states(), paper_power_caps());
}

Optimizer::KeyPair Optimizer::keys_for(const PartitionState& state,
                                       int watts) const noexcept {
  if (watts < 0) return {};
  return {model_->dense_key(state.gpcs_app1, state.option, watts),
          model_->dense_key(state.gpcs_app2, state.option, watts)};
}

void Optimizer::check_model_unchanged() const {
  MIGOPT_REQUIRE(model_->revision() == model_revision_,
                 "PerfModel was mutated after this Optimizer pre-interned its "
                 "candidate grid — rebuild the Optimizer");
}

Optimizer::CapSelection Optimizer::select_caps(const Policy& policy) const {
  CapSelection sel;
  const double ceiling = policy.power_cap_ceiling.value_or(
      std::numeric_limits<double>::infinity());
  if (policy.fixed_power_cap.has_value()) {
    sel.single = true;
    if (*policy.fixed_power_cap <= ceiling) {
      sel.value = *policy.fixed_power_cap;
      sel.watts = cap_grid_watts(sel.value);
      for (std::size_t c = 0; c < caps_.size(); ++c) {
        if (caps_[c] == sel.value) {
          sel.index = static_cast<int>(c);
          break;
        }
      }
      return sel;
    }
    // Fixed cap above the ceiling: degrade to the best trained cap that
    // still fits (may be none).
    for (std::size_t i = caps_sorted_.size(); i-- > 0;) {
      const std::size_t c = caps_sorted_[i];
      if (caps_[c] <= ceiling) {
        sel.value = caps_[c];
        sel.index = static_cast<int>(c);
        sel.watts = cap_watts_[c];
        return sel;
      }
    }
    sel.none = true;
    return sel;
  }
  if (min_cap_value_ > ceiling) {
    sel.none = true;
    return sel;
  }
  sel.ceiling = ceiling;
  return sel;
}

Optimizer::Scored Optimizer::score_prepared(const PreparedPair& prepared,
                                            const PartitionState& state,
                                            KeyPair keys, double cap,
                                            const Policy& policy) const {
  Scored scored;
  scored.metrics =
      predict_pair_prepared(*model_, prepared, keys.key1, keys.key2, state, cap);
  scored.feasible =
      scored.metrics.fairness > policy.alpha + policy.fairness_margin;
  if (scored.feasible) {
    scored.score = policy.objective == PolicyObjective::Throughput
                       ? scored.metrics.throughput
                       : scored.metrics.energy_efficiency;
  } else {
    scored.score = scored.metrics.fairness;
  }
  return scored;
}

bool Optimizer::better(const Scored& a, const Scored& b) noexcept {
  if (a.feasible != b.feasible) return a.feasible;
  return a.score > b.score;
}

/// The selection rule every pair search shares: keep the first candidate,
/// then any strictly better one, in the search's iteration order.
struct Optimizer::Pick {
  Decision decision;
  Scored best;
  bool first = true;

  void offer(const Scored& candidate, const PartitionState& state, double cap) {
    ++decision.evaluations;
    if (first || better(candidate, best)) {
      first = false;
      best = candidate;
      decision.state = state;
      decision.power_cap_watts = cap;
    }
  }

  Decision finish() {
    decision.feasible = best.feasible;
    decision.predicted = best.metrics;
    decision.objective_value = best.feasible ? best.score : 0.0;
    return decision;
  }
};

template <typename ScoreAt>
Decision Optimizer::select_under(double ceiling, ScoreAt&& score_at) const {
  Pick pick;
  const std::size_t cap_count = caps_.size();
  for (std::size_t s = 0; s < states_.size(); ++s)
    for (std::size_t c = 0; c < cap_count; ++c)
      if (caps_[c] <= ceiling)
        pick.offer(score_at(s, c), states_[s], caps_[c]);
  return pick.finish();
}

Decision Optimizer::decide(const prof::CounterSet& profile1,
                           const prof::CounterSet& profile2,
                           const Policy& policy) const {
  check_model_unchanged();
  const CapSelection sel = select_caps(policy);
  if (sel.none) return Decision{};  // ceiling below every trained cap

  const PreparedPair prepared = prepare_pair(profile1, profile2);
  const std::size_t cap_count = caps_.size();
  if (!sel.single) {
    // Batched sweep: every admissible cap of every state against the
    // pre-interned coefficient rows.
    return select_under(sel.ceiling, [&](std::size_t s, std::size_t c) {
      return score_prepared(prepared, states_[s], grid_[s * cap_count + c],
                            caps_[c], policy);
    });
  }
  // Problem 1 (or a fixed cap degraded under a ceiling): one cap per state.
  Pick pick;
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const PartitionState& state = states_[s];
    const KeyPair keys =
        sel.index >= 0 ? grid_[s * cap_count + static_cast<std::size_t>(sel.index)]
                       : keys_for(state, sel.watts);
    pick.offer(score_prepared(prepared, state, keys, sel.value, policy), state,
               sel.value);
  }
  return pick.finish();
}

std::vector<Decision> Optimizer::decide_all_ceilings(
    const prof::CounterSet& profile1, const prof::CounterSet& profile2,
    const Policy& policy) const {
  MIGOPT_REQUIRE(!policy.fixed_power_cap.has_value(),
                 "decide_all_ceilings needs a free-cap policy (Problem 2)");
  check_model_unchanged();
  // Score the whole grid once; every ceiling level then re-runs only the
  // selection over the candidates it admits, in decide()'s order.
  const PreparedPair prepared = prepare_pair(profile1, profile2);
  const std::size_t cap_count = caps_.size();
  SmallVector<Scored, 32> scored;
  scored.reserve(grid_.size());
  for (std::size_t s = 0; s < states_.size(); ++s)
    for (std::size_t c = 0; c < cap_count; ++c)
      scored.push_back(score_prepared(prepared, states_[s],
                                      grid_[s * cap_count + c], caps_[c], policy));

  std::vector<Decision> curve;
  curve.reserve(ceiling_levels_.size());
  for (const double level : ceiling_levels_)
    curve.push_back(select_under(level, [&](std::size_t s, std::size_t c) {
      return scored[s * cap_count + c];
    }));
  return curve;
}

GroupDecision Optimizer::decide_group(std::span<const prof::CounterSet> profiles,
                                      std::span<const GroupState> group_states,
                                      const Policy& policy) const {
  MIGOPT_REQUIRE(!profiles.empty(), "decide_group needs at least one profile");
  MIGOPT_REQUIRE(!group_states.empty(), "decide_group needs at least one state");
  check_model_unchanged();

  GroupDecision decision;
  const CapSelection sel = select_caps(policy);
  if (sel.none) return decision;  // ceiling below every trained cap

  const PreparedGroup prepared = prepare_group(profiles);
  bool first = true;
  bool best_feasible = false;
  double best_score = 0.0;
  const auto consider = [&](const GroupState& state, double cap) {
    const GroupMetrics metrics =
        predict_group_prepared(*model_, prepared, state, cap);
    ++decision.evaluations;
    const bool feasible =
        metrics.fairness > policy.alpha + policy.fairness_margin;
    const double score =
        feasible ? (policy.objective == PolicyObjective::Throughput
                        ? metrics.throughput
                        : metrics.energy_efficiency)
                 : metrics.fairness;
    const bool take = first || (feasible != best_feasible ? feasible
                                                          : score > best_score);
    if (take) {
      first = false;
      best_feasible = feasible;
      best_score = score;
      decision.state = state;
      decision.power_cap_watts = cap;
      decision.predicted = metrics;
    }
  };

  for (const GroupState& state : group_states) {
    MIGOPT_REQUIRE(state.size() == profiles.size(),
                   "group state size does not match the profile count");
    if (sel.single) {
      consider(state, sel.value);
    } else {
      for (std::size_t c = 0; c < caps_.size(); ++c)
        if (caps_[c] <= sel.ceiling) consider(state, caps_[c]);
    }
  }
  decision.feasible = best_feasible;
  decision.objective_value = best_feasible ? best_score : 0.0;
  return decision;
}

Decision Optimizer::decide_hill_climb(const prof::CounterSet& profile1,
                                      const prof::CounterSet& profile2,
                                      const Policy& policy, Rng& rng,
                                      int restarts) const {
  MIGOPT_REQUIRE(restarts >= 1, "need at least one restart");
  check_model_unchanged();
  const CapSelection sel = select_caps(policy);
  if (sel.none) return Decision{};  // ceiling below every trained cap

  // The climb moves along the cap axis by adjacent indices, so it needs the
  // admissible caps materialized once per call (grid indices + values; -1
  // index for an off-grid fixed cap).
  struct CapRef {
    double value;
    int index;
    int watts;
  };
  std::vector<CapRef> caps;
  if (sel.single) {
    caps.push_back({sel.value, sel.index, sel.watts});
  } else {
    caps.reserve(caps_.size());
    for (std::size_t c = 0; c < caps_.size(); ++c)
      if (caps_[c] <= sel.ceiling)
        caps.push_back({caps_[c], static_cast<int>(c), cap_watts_[c]});
  }

  const PreparedPair prepared = prepare_pair(profile1, profile2);
  const std::size_t cap_count = caps_.size();
  const auto score_at = [&](std::size_t state_idx, const CapRef& cap) {
    const KeyPair keys =
        cap.index >= 0
            ? grid_[state_idx * cap_count + static_cast<std::size_t>(cap.index)]
            : keys_for(states_[state_idx], cap.watts);
    return score_prepared(prepared, states_[state_idx], keys, cap.value, policy);
  };

  // Neighborhood: states whose split differs by at most one GPC on each side
  // with the same option, or the same split with the other option; plus
  // adjacent caps.
  auto state_neighbors = [this](std::size_t idx) {
    std::vector<std::size_t> out;
    const PartitionState& s = states_[idx];
    for (std::size_t j = 0; j < states_.size(); ++j) {
      if (j == idx) continue;
      const PartitionState& t = states_[j];
      const bool split_move = t.option == s.option &&
                              std::abs(t.gpcs_app1 - s.gpcs_app1) <= 1 &&
                              std::abs(t.gpcs_app2 - s.gpcs_app2) <= 1;
      const bool option_move = t.option != s.option &&
                               t.gpcs_app1 == s.gpcs_app1 &&
                               t.gpcs_app2 == s.gpcs_app2;
      if (split_move || option_move) out.push_back(j);
    }
    return out;
  };

  Decision decision;
  bool have_best = false;
  Scored best;

  for (int restart = 0; restart < restarts; ++restart) {
    std::size_t state_idx = static_cast<std::size_t>(rng.bounded(states_.size()));
    std::size_t cap_idx = static_cast<std::size_t>(rng.bounded(caps.size()));
    Scored current = score_at(state_idx, caps[cap_idx]);
    ++decision.evaluations;

    bool improved = true;
    while (improved) {
      improved = false;
      // State moves.
      for (const std::size_t j : state_neighbors(state_idx)) {
        const Scored candidate = score_at(j, caps[cap_idx]);
        ++decision.evaluations;
        if (better(candidate, current)) {
          current = candidate;
          state_idx = j;
          improved = true;
        }
      }
      // Cap moves.
      for (const std::size_t delta : {std::size_t{0}, std::size_t{1}}) {
        const bool down = delta == 0;
        if (down && cap_idx == 0) continue;
        if (!down && cap_idx + 1 >= caps.size()) continue;
        const std::size_t j = down ? cap_idx - 1 : cap_idx + 1;
        const Scored candidate = score_at(state_idx, caps[j]);
        ++decision.evaluations;
        if (better(candidate, current)) {
          current = candidate;
          cap_idx = j;
          improved = true;
        }
      }
    }

    if (!have_best || better(current, best)) {
      have_best = true;
      best = current;
      decision.state = states_[state_idx];
      decision.power_cap_watts = caps[cap_idx].value;
    }
  }

  decision.feasible = best.feasible;
  decision.predicted = best.metrics;
  decision.objective_value = best.feasible ? best.score : 0.0;
  return decision;
}

}  // namespace migopt::core
