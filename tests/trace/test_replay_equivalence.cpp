// The scaling refactor's regression pins: replaying the bench regimes
// (10k jobs, 8 nodes, seed 7 — poisson, bursty, and budget-walk) must
// reproduce the checked-in BENCH_ext_trace_replay.json summaries and tenant
// rows EXACTLY, down to the last bit of every double. The event core's
// floating-point step partitioning, the incremental busy-cap accounting and
// symbol interning must not perturb a single scheduling decision or sum.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

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
SimReport run_regime(ReplayRegime regime) {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, regime_policy(regime));

  sched::ClusterConfig cluster_config;
  cluster_config.node_count = kNodes;
  cluster_config.max_sim_seconds = 1.0e8;
  sched::Cluster cluster(cluster_config);

  SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  return SimEngine(sim_config)
      .replay(make_regime_trace(regime, kJobs, kNodes, kSeed, registry.names()),
              registry, cluster, scheduler);
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
  expect_matches_baseline(run_regime(ReplayRegime::Poisson),
                          "poisson 10k jobs");
}

TEST(ReplayEquivalence, BudgetWalkRegimePinsBaselineAndIndexedCore) {
  // The budget walk exercises the incremental busy-cap accounting: the
  // index-ordered busy-set sum must reproduce the all-node scan bit-exactly.
  expect_matches_baseline(run_regime(ReplayRegime::BudgetWalk),
                          "budget-walk 10k jobs");
}

TEST(ReplayEquivalence, BurstyRegimePinsBaseline) {
  // Bursts pile completions onto shared instants: equal-time completions
  // must keep draining in node-index order.
  expect_matches_baseline(run_regime(ReplayRegime::Bursty), "bursty 10k jobs");
}

}  // namespace
}  // namespace migopt::trace
