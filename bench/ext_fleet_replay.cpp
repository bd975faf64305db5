// Extension bench: fleet-scale sharded replay behind the admission router
// (migopt::trace FleetEngine / FleetRouter).
//
// The trace engine replays one cluster; this bench measures what happens
// when a *fleet* of independent clusters serves the same arrival stream
// behind an admission layer: each regime routes a datacenter-scope trace
// through a placement policy (round-robin baseline, tenant-affinity
// hashing, affinity with least-loaded spillover, pure least-loaded) and
// replays the resulting shards as share-nothing SimEngine sessions. A
// budget-walk regime additionally splits a moving fleet power contract
// across clusters demand-proportionally. The mega regime is the serving
// headline: 16 clusters x 8 nodes x ~65k jobs each — a million-job fleet.
//
// Everything the router and the shards *decide* is deterministic (one
// seed, open-loop load model, index-ordered merge), so every summary is an
// exact regression gate and any --threads value is byte-identical to
// serial. This bench times nothing: fleet replay throughput and the
// per-decision routing cost are perfbench's (fleet_affinity, route.*).
#include <algorithm>
#include <string>
#include <vector>

#include "report/harness.hpp"
#include "trace/fleet.hpp"
#include "trace/presets.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

constexpr std::uint64_t kSeed = 17;
/// Policy-comparison regimes: 8 clusters of 4 nodes sharing one 64k-job
/// arrival stream (~8k jobs per cluster when balanced).
constexpr std::size_t kJobs = 65536;
constexpr int kClusters = 8;
constexpr int kNodes = 4;
/// The mega regime: a million-job fleet — 16 clusters x 8 nodes, ~65k jobs
/// per cluster — without per-job stats.
constexpr std::size_t kMegaJobs = 1048576;
constexpr int kMegaClusters = 16;
constexpr int kMegaNodes = 8;

struct FleetRegime {
  const char* name;
  trace::ReplayRegime preset = trace::ReplayRegime::Poisson;
  trace::RouterPolicy policy = trace::RouterPolicy::RoundRobin;
  double spill_delay_seconds = 0.0;
  trace::PowerSplit power_split = trace::PowerSplit::Uniform;
  std::size_t jobs = kJobs;
  int clusters = kClusters;
  int nodes = kNodes;
  bool collect_job_stats = true;
};

trace::FleetReport run_regime(const FleetRegime& regime, std::size_t threads) {
  // The fleet trace is the arrival stream at datacenter scope: the regime
  // presets scale their arrival rate by the node count, so hand them the
  // whole fleet's nodes. FleetEngine builds its own per-shard registries;
  // this one only names the apps for the generator.
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const trace::Trace fleet_trace =
      trace::make_regime_trace(regime.preset, regime.jobs,
                               regime.clusters * regime.nodes, kSeed,
                               registry.names());

  trace::FleetConfig config;
  config.cluster_count = regime.clusters;
  config.cluster.node_count = regime.nodes;
  config.cluster.max_sim_seconds = 1.0e8;
  config.cluster.collect_job_stats = regime.collect_job_stats;
  config.router.policy = regime.policy;
  config.router.spill_delay_seconds = regime.spill_delay_seconds;
  config.power_split = regime.power_split;
  config.sim.max_sim_seconds = 1.0e8;
  config.policy = trace::regime_policy(regime.preset);
  config.seed = kSeed;
  config.threads = std::max<std::size_t>(1, threads);
  return trace::FleetEngine(config).replay(fleet_trace);
}

report::Section render(const FleetRegime& regime,
                       const trace::FleetReport& fleet) {
  report::Section section;
  section.title = regime.name;
  section.label_header = "cluster";
  section.columns = {"routed", "completed", "mean wait [s]", "mean slowdown",
                     "energy [MJ]"};
  for (std::size_t c = 0; c < fleet.clusters.size(); ++c) {
    const trace::SimReport& sim = fleet.clusters[c];
    section.add_row(
        "cluster " + std::to_string(c),
        {MetricValue::of_count(
             static_cast<long long>(fleet.router.jobs_per_cluster[c])),
         MetricValue::of_count(
             static_cast<long long>(sim.cluster.jobs_completed)),
         MetricValue::num(sim.mean_queue_wait_seconds, 1),
         MetricValue::num(sim.mean_slowdown, 2),
         MetricValue::num(sim.cluster.total_energy_joules / 1.0e6, 2)});
  }

  const auto jobs_minmax = std::minmax_element(
      fleet.router.jobs_per_cluster.begin(),
      fleet.router.jobs_per_cluster.end());
  const double cache_probes = static_cast<double>(fleet.decision_cache_hits +
                                                  fleet.decision_cache_misses);
  const double memo_probes =
      static_cast<double>(fleet.run_memo_hits + fleet.run_memo_misses);
  section.add_summary("jobs_completed",
                      MetricValue::of_count(
                          static_cast<long long>(fleet.jobs_completed)));
  section.add_summary("makespan_s", MetricValue::num(fleet.makespan_seconds, 1));
  section.add_summary("agg_jobs_per_hour",
                      MetricValue::num(fleet.aggregate_jobs_per_hour, 1));
  section.add_summary("mean_wait_s",
                      MetricValue::num(fleet.mean_queue_wait_seconds, 1));
  section.add_summary("mean_slowdown", MetricValue::num(fleet.mean_slowdown));
  section.add_summary("peak_queue_depth",
                      MetricValue::of_count(
                          static_cast<long long>(fleet.peak_queue_depth)));
  section.add_summary("cluster_jobs_min",
                      MetricValue::of_count(
                          static_cast<long long>(*jobs_minmax.first)));
  section.add_summary("cluster_jobs_max",
                      MetricValue::of_count(
                          static_cast<long long>(*jobs_minmax.second)));
  section.add_summary(
      "spill_fraction",
      MetricValue::num(fleet.router.decisions == 0
                           ? 0.0
                           : static_cast<double>(fleet.router.spills) /
                                 static_cast<double>(fleet.router.decisions)));
  section.add_summary("budget_splits",
                      MetricValue::of_count(
                          static_cast<long long>(fleet.router.budget_splits)));
  section.add_summary(
      "cache_hit_rate",
      MetricValue::num(cache_probes == 0.0
                           ? 0.0
                           : static_cast<double>(fleet.decision_cache_hits) /
                                 cache_probes));
  section.add_summary(
      "run_memo_hit_rate",
      MetricValue::num(memo_probes == 0.0
                           ? 0.0
                           : static_cast<double>(fleet.run_memo_hits) /
                                 memo_probes));
  section.add_summary("peak_cap_sum_w",
                      MetricValue::num(fleet.peak_cap_sum_watts, 0));
  section.add_summary("energy_MJ",
                      MetricValue::num(fleet.total_energy_joules / 1.0e6, 2));
  return section;
}

report::ScenarioResult run(const report::RunContext& ctx) {
  FleetRegime mega;
  mega.name = "mega fleet 1M jobs";  // 16 clusters x 8 nodes, affinity+spill
  mega.policy = trace::RouterPolicy::TenantAffinity;
  mega.spill_delay_seconds = 60.0;
  mega.jobs = kMegaJobs;
  mega.clusters = kMegaClusters;
  mega.nodes = kMegaNodes;
  mega.collect_job_stats = false;

  std::vector<FleetRegime> regimes = {
      // Arrival-order placement, the baseline.
      {"round-robin 8x4"},
      // Tenant-affinity hashing, no spillover.
      {"affinity 8x4", trace::ReplayRegime::Poisson,
       trace::RouterPolicy::TenantAffinity},
      // Affinity with 60 s least-loaded spillover.
      {"affinity+spill 8x4", trace::ReplayRegime::Bursty,
       trace::RouterPolicy::TenantAffinity, 60.0},
      // Pure least-estimated-backlog placement.
      {"least-loaded 8x4", trace::ReplayRegime::Bursty,
       trace::RouterPolicy::LeastLoaded},
      // Random-walk fleet budget, demand-proportional split.
      {"demand-split 8x4", trace::ReplayRegime::BudgetWalk,
       trace::RouterPolicy::TenantAffinity, 60.0,
       trace::PowerSplit::DemandProportional},
      mega,
  };

  // Regimes run serially on purpose: the fan-out lives *inside* the fleet
  // (FleetConfig::threads), which is the code path this bench exists to
  // exercise.
  report::ScenarioResult result;
  for (const FleetRegime& regime : regimes)
    result.add_section(render(regime, run_regime(regime, ctx.threads())));
  result.add_note(
      "Reading: round-robin balances job *counts* but ignores tenants;\n"
      "affinity keeps each tenant's stream on one home cluster (Zipf skew\n"
      "shows up as cluster_jobs_max pulling away from cluster_jobs_min)\n"
      "until spillover diverts the overflow; least-loaded flattens the\n"
      "backlog at the cost of scattering tenants. The demand-split regime\n"
      "walks a fleet-wide power contract and splits it by estimated\n"
      "backlog (floored so idle clusters can still dispatch). The mega\n"
      "regime routes a million jobs one decision at a time and replays\n"
      "16 share-nothing shards in parallel, byte-identical to serial.");
  return result;
}

[[maybe_unused]] const bool registered = report::register_scenario(
    {"fleet_replay", "Extension: fleet-sharded trace engine",
     "64k-job fleet traces routed across 8 clusters under four placement "
     "policies plus a million-job 16-cluster mega regime",
     run});

}  // namespace

int main(int argc, char** argv) {
  return migopt::report::run_main("ext_fleet_replay", argc, argv);
}
