// The scaling refactor's regression pins, in two layers:
//
//  1. Baseline pin — replaying the PR 4 bench regimes (10k jobs, 8 nodes,
//     seed 7) through the default configuration must reproduce the
//     checked-in BENCH_ext_trace_replay.json summaries EXACTLY, down to the
//     last bit of every double: the Exact event core keeps the original
//     floating-point step partitioning and interning must not perturb a
//     single scheduling decision.
//  2. Exact ↔ Indexed event core — the Indexed core must make the same
//     schedule (all counts identical); its continuous outputs agree to
//     rounding (different step partitioning of the same integral).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"

namespace migopt::trace {
namespace {

constexpr std::size_t kJobs = 10000;
constexpr int kNodes = 8;
constexpr std::uint64_t kSeed = 7;

/// Mirror of the ext_trace_replay bench environment for one regime.
SimReport run_regime(ReplayRegime regime, sched::EventCore core,
                     std::uint64_t seed = kSeed, std::size_t jobs = kJobs) {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, regime_policy(regime));

  sched::ClusterConfig cluster_config;
  cluster_config.node_count = kNodes;
  cluster_config.max_sim_seconds = 1.0e8;
  cluster_config.event_core = core;
  sched::Cluster cluster(cluster_config);

  SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  return SimEngine(sim_config)
      .replay(make_regime_trace(regime, jobs, kNodes, seed, registry.names()),
              registry, cluster, scheduler);
}

void expect_same_schedule(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.cluster.jobs_completed, b.cluster.jobs_completed);
  EXPECT_EQ(a.cluster.pair_dispatches, b.cluster.pair_dispatches);
  EXPECT_EQ(a.cluster.exclusive_dispatches, b.cluster.exclusive_dispatches);
  EXPECT_EQ(a.cluster.profile_runs, b.cluster.profile_runs);
  EXPECT_EQ(a.cluster.decision_cache_hits, b.cluster.decision_cache_hits);
  EXPECT_EQ(a.cluster.decision_cache_misses, b.cluster.decision_cache_misses);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.cluster.peak_cap_sum_watts, b.cluster.peak_cap_sum_watts);
  const auto near = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * (1.0 + std::max(std::abs(x), std::abs(y)));
  };
  EXPECT_PRED2(near, a.cluster.makespan_seconds, b.cluster.makespan_seconds);
  EXPECT_PRED2(near, a.cluster.total_energy_joules,
               b.cluster.total_energy_joules);
  EXPECT_PRED2(near, a.mean_queue_wait_seconds, b.mean_queue_wait_seconds);
  EXPECT_PRED2(near, a.mean_slowdown, b.mean_slowdown);
}

/// Load the checked-in baseline document once.
const json::Value& baseline_document() {
  static const json::Value document = [] {
    const std::string path =
        std::string(MIGOPT_SOURCE_DIR) + "/BENCH_ext_trace_replay.json";
    std::ifstream in(path);
    MIGOPT_REQUIRE(in.good(), "cannot open baseline: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return json::parse(buffer.str());
  }();
  return document;
}

/// Section of the baseline by title.
const json::Value& baseline_section(const std::string& title) {
  const json::Value* scenarios = baseline_document().find("scenarios");
  MIGOPT_REQUIRE(scenarios != nullptr, "baseline without scenarios");
  for (const json::Value& scenario : scenarios->elements()) {
    const json::Value* sections = scenario.find("sections");
    if (sections == nullptr) continue;
    for (const json::Value& section : sections->elements()) {
      const json::Value* section_title = section.find("title");
      if (section_title != nullptr && section_title->as_string() == title)
        return section;
    }
  }
  MIGOPT_REQUIRE(false, "baseline has no section titled: " + title);
  throw ContractViolation("unreachable");
}

double number_of(const json::Value& value) {
  return value.kind() == json::Value::Kind::Int
             ? static_cast<double>(value.as_int())
             : value.as_double();
}

double summary_of(const json::Value& section, const char* key) {
  const json::Value* summary = section.find("summary");
  MIGOPT_REQUIRE(summary != nullptr, "section without summary");
  const json::Value* value = summary->find(key);
  MIGOPT_REQUIRE(value != nullptr, std::string("summary without key: ") + key);
  return number_of(*value);
}

/// Exact (bit-level) comparison of a replay against a baseline section: the
/// JSON stores raw full-precision doubles (shortest round-trip form), so ==
/// here means the regenerated document would be byte-identical.
void expect_matches_baseline(const SimReport& sim, const std::string& title) {
  const json::Value& section = baseline_section(title);
  const auto& cluster = sim.cluster;
  EXPECT_EQ(static_cast<double>(cluster.jobs_completed),
            summary_of(section, "jobs_completed"));
  EXPECT_EQ(cluster.makespan_seconds, summary_of(section, "makespan_s"));
  EXPECT_EQ(sim.jobs_per_hour, summary_of(section, "jobs_per_hour"));
  EXPECT_EQ(sim.mean_queue_wait_seconds, summary_of(section, "mean_wait_s"));
  EXPECT_EQ(sim.mean_slowdown, summary_of(section, "mean_slowdown"));
  EXPECT_EQ(static_cast<double>(sim.peak_queue_depth),
            summary_of(section, "peak_queue_depth"));
  const double probes = static_cast<double>(cluster.decision_cache_hits +
                                            cluster.decision_cache_misses);
  EXPECT_EQ(cluster.jobs_completed == 0
                ? 0.0
                : 2.0 * static_cast<double>(cluster.pair_dispatches) /
                      static_cast<double>(cluster.jobs_completed),
            summary_of(section, "pair_dispatch_fraction"));
  EXPECT_EQ(probes == 0.0 ? 0.0
                          : static_cast<double>(cluster.decision_cache_hits) /
                                probes,
            summary_of(section, "cache_hit_rate"));
  EXPECT_EQ(cluster.peak_cap_sum_watts, summary_of(section, "peak_cap_sum_w"));
  EXPECT_EQ(cluster.total_energy_joules / 1.0e6,
            summary_of(section, "energy_MJ"));

  // Tenant rows: submitted/completed counts and the full-precision means.
  const json::Value* rows = section.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->elements().size(), sim.tenants.size());
  for (std::size_t i = 0; i < sim.tenants.size(); ++i) {
    const json::Value& row = rows->elements()[i];
    const json::Value* label = row.find("tenant");
    ASSERT_NE(label, nullptr);
    EXPECT_EQ(label->as_string(), sim.tenants[i].tenant);
    const json::Value* values = row.find("values");
    ASSERT_NE(values, nullptr);
    EXPECT_EQ(static_cast<double>(sim.tenants[i].jobs_submitted),
              number_of(*values->find("submitted")));
    EXPECT_EQ(static_cast<double>(sim.tenants[i].jobs_completed),
              number_of(*values->find("completed")));
    EXPECT_EQ(sim.tenants[i].mean_queue_wait_seconds,
              number_of(*values->find("mean wait [s]")));
    EXPECT_EQ(sim.tenants[i].mean_slowdown,
              number_of(*values->find("mean slowdown")));
  }
}

TEST(ReplayEquivalence, PoissonRegimePinsBaselineAndBothPaths) {
  const SimReport exact =
      run_regime(ReplayRegime::Poisson, sched::EventCore::Exact);
  expect_matches_baseline(exact, "poisson 10k jobs");

  const SimReport indexed =
      run_regime(ReplayRegime::Poisson, sched::EventCore::Indexed);
  expect_same_schedule(exact, indexed);
}

TEST(ReplayEquivalence, BudgetWalkRegimePinsBaselineAndIndexedCore) {
  // The budget walk exercises the incremental busy-cap accounting: the
  // index-ordered busy-set sum must reproduce the all-node scan bit-exactly.
  const SimReport exact =
      run_regime(ReplayRegime::BudgetWalk, sched::EventCore::Exact);
  expect_matches_baseline(exact, "budget-walk 10k jobs");

  const SimReport indexed =
      run_regime(ReplayRegime::BudgetWalk, sched::EventCore::Indexed);
  expect_same_schedule(exact, indexed);
}

TEST(ReplayEquivalence, BurstyRegimeIndexedCoreMatchesExact) {
  // Bursts pile completions onto shared instants: equal-time completions
  // must drain in node-index order under the heap exactly as the node scan
  // drains them.
  const SimReport exact =
      run_regime(ReplayRegime::Bursty, sched::EventCore::Exact);
  const SimReport indexed =
      run_regime(ReplayRegime::Bursty, sched::EventCore::Indexed);
  expect_same_schedule(exact, indexed);
}

TEST(ReplayEquivalence, IndexedCoreHoldsOverRandomizedTraces) {
  // Randomized arrival patterns (fresh seed per round, smaller traces so the
  // sweep stays fast): stale heap entries and idle catch-up must never
  // change a decision.
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    SCOPED_TRACE(seed);
    const SimReport exact = run_regime(
        ReplayRegime::Bursty, sched::EventCore::Exact, seed, /*jobs=*/2000);
    const SimReport indexed = run_regime(
        ReplayRegime::Bursty, sched::EventCore::Indexed, seed, /*jobs=*/2000);
    expect_same_schedule(exact, indexed);
  }
}

}  // namespace
}  // namespace migopt::trace
