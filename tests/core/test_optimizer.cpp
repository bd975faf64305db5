#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace migopt::core {
namespace {

using test::shared_artifacts;
using test::shared_pairs;

const prof::CounterSet& profile_of(const std::string& app) {
  return shared_artifacts().profiles.at(app);
}

Optimizer make_optimizer() {
  return Optimizer::paper_default(shared_artifacts().model);
}

TEST(Optimizer, ConstructionContracts) {
  const auto& model = shared_artifacts().model;
  EXPECT_THROW(Optimizer(model, {}, paper_power_caps()), ContractViolation);
  EXPECT_THROW(Optimizer(model, paper_states(), {}), ContractViolation);
}

TEST(Optimizer, Problem1EvaluatesOnlyFixedCap) {
  const Optimizer opt = make_optimizer();
  const Decision d = opt.decide(profile_of("sgemm"), profile_of("stream"),
                                Policy::problem1(230.0, 0.2));
  EXPECT_EQ(d.evaluations, 4u);  // 4 states, 1 cap
  EXPECT_DOUBLE_EQ(d.power_cap_watts, 230.0);
}

TEST(Optimizer, Problem2SearchesFullGrid) {
  const Optimizer opt = make_optimizer();
  const Decision d = opt.decide(profile_of("sgemm"), profile_of("stream"),
                                Policy::problem2(0.2));
  EXPECT_EQ(d.evaluations, 24u);  // 4 states x 6 caps
}

TEST(Optimizer, ExhaustiveMatchesBruteForceOracle) {
  // The decision must equal an independent argmax over predicted metrics.
  const Optimizer opt = make_optimizer();
  for (const char* pair_name : {"TI-MI2", "CI-US2", "US-US1", "MI-MI2"}) {
    const auto& pair = wl::pair_by_name(shared_pairs(), pair_name);
    const auto& f1 = profile_of(pair.app1);
    const auto& f2 = profile_of(pair.app2);
    const Policy policy = Policy::problem2(0.2);

    double best_objective = -1.0;
    bool any_feasible = false;
    for (const auto& state : paper_states()) {
      for (const double cap : paper_power_caps()) {
        const PairMetrics m =
            predict_pair(shared_artifacts().model, f1, f2, state, cap);
        if (m.fairness > policy.alpha) {
          any_feasible = true;
          best_objective = std::max(best_objective, m.energy_efficiency);
        }
      }
    }

    const Decision d = opt.decide(f1, f2, policy);
    EXPECT_EQ(d.feasible, any_feasible) << pair_name;
    if (any_feasible) {
      EXPECT_NEAR(d.objective_value, best_objective, 1e-12) << pair_name;
    }
  }
}

TEST(Optimizer, FairnessConstraintRespectedInPrediction) {
  const Optimizer opt = make_optimizer();
  for (const auto& pair : shared_pairs()) {
    const Decision d = opt.decide(profile_of(pair.app1), profile_of(pair.app2),
                                  Policy::problem1(230.0, 0.2));
    if (d.feasible) {
      EXPECT_GT(d.predicted.fairness, 0.2) << pair.name;
    }
  }
}

TEST(Optimizer, InfeasibleAlphaFallsBackToMaxFairness) {
  const Optimizer opt = make_optimizer();
  // alpha = 0.99 is unattainable: no co-run keeps both apps above 0.99.
  const Decision d = opt.decide(profile_of("sgemm"), profile_of("lavaMD"),
                                Policy::problem1(250.0, 0.99));
  EXPECT_FALSE(d.feasible);
  EXPECT_DOUBLE_EQ(d.objective_value, 0.0);
  // The fallback should still carry the fairest prediction found.
  double best_fairness = -1.0;
  for (const auto& state : paper_states()) {
    const PairMetrics m = predict_pair(shared_artifacts().model,
                                       profile_of("sgemm"), profile_of("lavaMD"),
                                       state, 250.0);
    best_fairness = std::max(best_fairness, m.fairness);
  }
  EXPECT_NEAR(d.predicted.fairness, best_fairness, 1e-12);
}

TEST(Optimizer, HigherAlphaNeverImprovesObjective) {
  const Optimizer opt = make_optimizer();
  for (const char* pair_name : {"TI-MI2", "MI-US1", "CI-CI1"}) {
    const auto& pair = wl::pair_by_name(shared_pairs(), pair_name);
    double previous = 1e18;
    for (const double alpha : {0.1, 0.2, 0.3, 0.4}) {
      const Decision d = opt.decide(profile_of(pair.app1), profile_of(pair.app2),
                                    Policy::problem2(alpha));
      if (!d.feasible) break;
      EXPECT_LE(d.objective_value, previous + 1e-12) << pair_name << " " << alpha;
      previous = d.objective_value;
    }
  }
}

TEST(Optimizer, FairnessMarginTightensChoice) {
  const Optimizer opt = make_optimizer();
  Policy relaxed = Policy::problem2(0.35);
  Policy strict = relaxed;
  strict.fairness_margin = 0.05;
  const Decision d_relaxed =
      opt.decide(profile_of("dgemm"), profile_of("hotspot"), relaxed);
  const Decision d_strict =
      opt.decide(profile_of("dgemm"), profile_of("hotspot"), strict);
  if (d_relaxed.feasible && d_strict.feasible) {
    EXPECT_GE(d_strict.predicted.fairness, d_relaxed.predicted.fairness - 1e-12);
    EXPECT_LE(d_strict.objective_value, d_relaxed.objective_value + 1e-12);
  }
}

class HillClimbQuality : public ::testing::TestWithParam<std::string> {};

TEST_P(HillClimbQuality, ReachesNearExhaustiveObjective) {
  const Optimizer opt = make_optimizer();
  const auto& pair = wl::pair_by_name(shared_pairs(), GetParam());
  const auto& f1 = profile_of(pair.app1);
  const auto& f2 = profile_of(pair.app2);
  const Policy policy = Policy::problem2(0.2);

  const Decision exhaustive = opt.decide(f1, f2, policy);
  Rng rng(2024);
  const Decision climbed = opt.decide_hill_climb(f1, f2, policy, rng, 6);

  ASSERT_EQ(climbed.feasible, exhaustive.feasible);
  if (exhaustive.feasible) {
    // Random-restart hill climbing over this small space should land within
    // 2% of the optimum.
    EXPECT_GE(climbed.objective_value, exhaustive.objective_value * 0.98)
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, HillClimbQuality,
                         ::testing::Values("TI-TI1", "CI-CI2", "MI-MI2", "US-US2",
                                           "TI-MI2", "CI-US1", "MI-US1", "TI-US2"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Optimizer, HillClimbOnFlexibleSpace) {
  // The extension space (~30 states x 6 caps); hill climbing must stay close
  // to exhaustive while evaluating fewer candidates per restart.
  const auto arch = gpusim::a100_sxm_like();
  const std::vector<PartitionState> states = flexible_states(arch);
  TrainingConfig config;
  config.solo_gpc_sizes = {1, 2, 3, 4, 7};
  // The flexible space allocates 1g/2g slices too, so the interference term
  // must be trained over those states as well.
  config.corun_states = states;
  config.power_caps = {150.0, 250.0};  // keep the test quick
  const auto artifacts = core::train_offline(test::shared_chip(),
                                             test::shared_registry(),
                                             test::shared_pairs(), config);
  const Optimizer opt(artifacts.model, states, {150.0, 250.0});

  const auto& f1 = artifacts.profiles.at("igemm4");
  const auto& f2 = artifacts.profiles.at("stream");
  const Policy policy = Policy::problem2(0.1);
  const Decision exhaustive = opt.decide(f1, f2, policy);
  Rng rng(7);
  const Decision climbed = opt.decide_hill_climb(f1, f2, policy, rng, 8);
  ASSERT_TRUE(exhaustive.feasible);
  EXPECT_TRUE(climbed.feasible);
  EXPECT_GE(climbed.objective_value, exhaustive.objective_value * 0.95);
}

TEST(Optimizer, HillClimbIsDeterministicForAFixedSeed) {
  // Same seed -> byte-identical decision, metrics, and evaluation count, no
  // matter how often the climb is repeated.
  const Optimizer opt = make_optimizer();
  const auto& f1 = profile_of("igemm4");
  const auto& f2 = profile_of("stream");
  const Policy policy = Policy::problem2(0.2);
  Rng rng_a(99);
  const Decision first = opt.decide_hill_climb(f1, f2, policy, rng_a, 6);
  for (int repeat = 0; repeat < 3; ++repeat) {
    Rng rng_b(99);
    const Decision again = opt.decide_hill_climb(f1, f2, policy, rng_b, 6);
    EXPECT_EQ(again.feasible, first.feasible);
    EXPECT_TRUE(again.state == first.state);
    EXPECT_EQ(again.power_cap_watts, first.power_cap_watts);
    EXPECT_EQ(again.objective_value, first.objective_value);
    EXPECT_EQ(again.evaluations, first.evaluations);
    EXPECT_EQ(again.predicted.throughput, first.predicted.throughput);
    EXPECT_EQ(again.predicted.fairness, first.predicted.fairness);
  }
}

TEST(Optimizer, MutatingTheModelAfterConstructionIsRejected) {
  // The optimizer pre-interns dense keys at construction; a model mutated
  // afterwards would silently serve stale coefficients, so decide() must
  // refuse instead.
  PerfModel model = shared_artifacts().model;
  const Optimizer opt(model, paper_states(), paper_power_caps());
  const Decision before =
      opt.decide(profile_of("sgemm"), profile_of("stream"), Policy::problem2(0.2));
  EXPECT_GT(before.evaluations, 0u);

  model.set_scalability(ModelKey::make(4, gpusim::MemOption::Shared, 230.0),
                        {0, 0, 0, 0, 0, 1.0});
  EXPECT_THROW(opt.decide(profile_of("sgemm"), profile_of("stream"),
                          Policy::problem2(0.2)),
               ContractViolation);
  Rng rng(5);
  EXPECT_THROW(opt.decide_hill_climb(profile_of("sgemm"), profile_of("stream"),
                                     Policy::problem2(0.2), rng),
               ContractViolation);
}

void expect_bit_equal(const Decision& a, const Decision& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_TRUE(a.state == b.state);
  EXPECT_EQ(a.power_cap_watts, b.power_cap_watts);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.predicted.relperf_app1, b.predicted.relperf_app1);
  EXPECT_EQ(a.predicted.relperf_app2, b.predicted.relperf_app2);
  EXPECT_EQ(a.predicted.throughput, b.predicted.throughput);
  EXPECT_EQ(a.predicted.fairness, b.predicted.fairness);
  EXPECT_EQ(a.predicted.power_cap_watts, b.predicted.power_cap_watts);
  EXPECT_EQ(a.predicted.energy_efficiency, b.predicted.energy_efficiency);
}

/// Every ceiling shape a budget can produce: each grid cap, halfway between
/// neighbours, below the smallest cap, and unbounded.
std::vector<double> probe_ceilings(const Optimizer& opt) {
  const std::vector<double>& levels = opt.ceiling_levels();
  std::vector<double> out = {levels.front() - 1.0,
                             std::numeric_limits<double>::infinity()};
  for (std::size_t k = 0; k < levels.size(); ++k) {
    out.push_back(levels[k]);
    if (k + 1 < levels.size()) out.push_back(0.5 * (levels[k] + levels[k + 1]));
  }
  return out;
}

TEST(OptimizerCurve, LevelsAreTheDistinctCapsAscending) {
  const Optimizer opt(shared_artifacts().model, paper_states(),
                      {250.0, 150.0, 250.0, 210.0});
  EXPECT_EQ(opt.ceiling_levels(), (std::vector<double>{150.0, 210.0, 250.0}));
  EXPECT_EQ(opt.ceiling_level(149.0), -1);
  EXPECT_EQ(opt.ceiling_level(150.0), 0);
  EXPECT_EQ(opt.ceiling_level(249.9), 1);
  EXPECT_EQ(opt.ceiling_level(std::numeric_limits<double>::infinity()), 2);
  // Duplicate caps still yield one curve entry per level, each equal to a
  // fresh search (which scores the duplicate twice).
  const Policy policy = Policy::problem2(0.2);
  const auto curve =
      opt.decide_all_ceilings(profile_of("sgemm"), profile_of("stream"), policy);
  ASSERT_EQ(curve.size(), 3u);
  for (std::size_t k = 0; k < curve.size(); ++k)
    expect_bit_equal(curve[k], opt.decide(profile_of("sgemm"), profile_of("stream"),
                                          policy.with_ceiling(opt.ceiling_levels()[k])));
}

TEST(OptimizerCurve, EveryCeilingMatchesAFreshSearchForEveryRegistryPair) {
  // The cap curve must answer every ceiling exactly as a fresh decide()
  // would — state, cap, predicted metrics, objective, feasibility and the
  // evaluation count — for both objectives under a fairness margin.
  const Optimizer opt = make_optimizer();
  const std::vector<double> ceilings = probe_ceilings(opt);
  const auto& specs = test::shared_registry().all();
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const auto objective :
       {PolicyObjective::Throughput, PolicyObjective::EnergyEfficiency}) {
    Policy policy = Policy::problem2(0.2);
    policy.objective = objective;
    policy.fairness_margin = 0.05;
    for (const auto& first : specs) {
      for (const auto& second : specs) {
        const auto& p1 = profile_of(first.kernel.name);
        const auto& p2 = profile_of(second.kernel.name);
        const std::vector<Decision> curve = opt.decide_all_ceilings(p1, p2, policy);
        ASSERT_EQ(curve.size(), opt.ceiling_levels().size());
        for (const double ceiling : ceilings) {
          SCOPED_TRACE(first.kernel.name + "+" + second.kernel.name + " @ " +
                       std::to_string(ceiling));
          const Decision fresh = opt.decide(p1, p2, policy.with_ceiling(ceiling));
          const std::ptrdiff_t level = opt.ceiling_level(ceiling);
          if (level < 0) {
            EXPECT_EQ(fresh.evaluations, 0u);  // nothing admissible
            continue;
          }
          expect_bit_equal(curve[static_cast<std::size_t>(level)], fresh);
          (fresh.feasible ? feasible : infeasible) += 1;
        }
      }
    }
  }
  // Both branches of the lexicographic selection were exercised.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(OptimizerCurve, FixedCapPolicyRejected) {
  const Optimizer opt = make_optimizer();
  EXPECT_THROW(opt.decide_all_ceilings(profile_of("sgemm"), profile_of("stream"),
                                       Policy::problem1(230.0, 0.2)),
               ContractViolation);
}

TEST(Optimizer, HillClimbContract) {
  const Optimizer opt = make_optimizer();
  Rng rng(1);
  EXPECT_THROW(opt.decide_hill_climb(profile_of("sgemm"), profile_of("stream"),
                                     Policy::problem2(0.2), rng, 0),
               ContractViolation);
}

TEST(OptimizerGroup, DecisionEqualsManualExhaustiveMax) {
  const auto& artifacts = test::shared_flexible_artifacts();
  const Optimizer opt(artifacts.model, paper_states(), paper_power_caps());
  const std::vector<prof::CounterSet> profiles = {
      artifacts.profiles.at("igemm4"), artifacts.profiles.at("stream"),
      artifacts.profiles.at("needle")};
  const auto states = group_states(test::shared_chip().arch(), 3);
  const Policy policy = Policy::problem2(0.2);
  const GroupDecision decision = opt.decide_group(profiles, states, policy);
  ASSERT_TRUE(decision.feasible);

  // The decision must match a brute-force scan of the same space.
  double best = 0.0;
  for (const auto& state : states) {
    for (const double cap : paper_power_caps()) {
      const GroupMetrics m = predict_group(artifacts.model, profiles, state, cap);
      if (m.fairness > policy.alpha)
        best = std::max(best, m.energy_efficiency);
    }
  }
  EXPECT_NEAR(decision.objective_value, best, 1e-12);
  EXPECT_EQ(decision.evaluations, states.size() * paper_power_caps().size());
}

TEST(OptimizerGroup, TwoWayGroupSearchMatchesPairSearch) {
  const auto& artifacts = test::shared_flexible_artifacts();
  const auto flexible = flexible_states(test::shared_chip().arch());
  const Optimizer opt(artifacts.model, flexible, paper_power_caps());
  const auto& f1 = artifacts.profiles.at("hgemm");
  const auto& f2 = artifacts.profiles.at("lud");
  const Policy policy = Policy::problem1(230.0, 0.2);
  const Decision pair_decision = opt.decide(f1, f2, policy);

  const std::vector<prof::CounterSet> profiles = {f1, f2};
  const auto groups = group_states(test::shared_chip().arch(), 2);
  const GroupDecision group_decision = opt.decide_group(profiles, groups, policy);
  ASSERT_TRUE(pair_decision.feasible);
  ASSERT_TRUE(group_decision.feasible);
  EXPECT_NEAR(group_decision.objective_value, pair_decision.objective_value, 1e-12);
}

TEST(OptimizerGroup, FixedCapRestrictsEvaluations) {
  const auto& artifacts = test::shared_flexible_artifacts();
  const Optimizer opt(artifacts.model, paper_states(), paper_power_caps());
  const std::vector<prof::CounterSet> profiles = {
      artifacts.profiles.at("sgemm"), artifacts.profiles.at("stream"),
      artifacts.profiles.at("kmeans")};
  const auto states = group_states(test::shared_chip().arch(), 3);
  const GroupDecision decision =
      opt.decide_group(profiles, states, Policy::problem1(230.0, 0.1));
  EXPECT_EQ(decision.evaluations, states.size());
  if (decision.feasible) {
    EXPECT_DOUBLE_EQ(decision.power_cap_watts, 230.0);
  }
}

TEST(OptimizerGroup, Contracts) {
  const auto& artifacts = test::shared_flexible_artifacts();
  const Optimizer opt(artifacts.model, paper_states(), paper_power_caps());
  const auto states = group_states(test::shared_chip().arch(), 3);
  const std::vector<prof::CounterSet> none;
  EXPECT_THROW(opt.decide_group(none, states, Policy::problem2(0.2)),
               ContractViolation);
  const std::vector<prof::CounterSet> two = {artifacts.profiles.at("sgemm"),
                                             artifacts.profiles.at("stream")};
  // Three-member states with two profiles: size mismatch.
  EXPECT_THROW(opt.decide_group(two, states, Policy::problem2(0.2)),
               ContractViolation);
}

}  // namespace
}  // namespace migopt::core
