// Extension bench: trace-driven discrete-event replay of large multi-tenant
// job streams through the scheduler stack (migopt::trace).
//
// The paper optimizes partitioning/allocation per co-run pair; this bench
// measures what those decisions add up to when an *online* cluster serves
// sustained load: 10k-job seeded synthetic traces (Poisson, bursty/diurnal,
// and Poisson under a random-walk power budget) are replayed through
// sched::Cluster + CoScheduler by trace::SimEngine, reporting queueing
// behavior, per-tenant fairness, and the scheduler's decision-table hit
// rate under load (cache_evictions stays in the summaries and reads 0: the
// table never evicts).
//
// Everything is deterministic (one seed, no wall-clock), so every summary
// is an exact regression gate; sections are assembled per-regime into
// pre-sized slots, keeping --threads N byte-identical to --threads 1. This
// bench times nothing: replay throughput, the per-phase profile and the
// observability overhead are perfbench's (cluster_poisson, engine.phase.*,
// obs.trace_overhead_pct).
#include <vector>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "report/harness.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

constexpr std::size_t kJobs = 10000;
constexpr int kNodes = 8;
constexpr std::uint64_t kSeed = 7;
/// The mega regime: a million-job Poisson/Zipf trace on a 64-node fleet,
/// replayed without the per-job stats vector (the event core's per-event
/// cost is independent of the node count).
constexpr std::size_t kMegaJobs = 1000000;
constexpr int kMegaNodes = 64;

struct Regime {
  const char* name;
  trace::ReplayRegime preset = trace::ReplayRegime::Poisson;
  std::size_t jobs = kJobs;
  int nodes = kNodes;
  bool collect_job_stats = true;
  /// Attach every obs sink (metrics registry, telemetry sampler, span
  /// tracer). The replay must stay bit-identical — enforced in run()
  /// against the plain twin regime — so the regime emits no section.
  bool observability = false;
};

trace::SimReport run_regime(const Regime& regime) {
  // Fully independent environment per regime: the allocator is mutated by
  // profile runs, and regimes run concurrently under --threads.
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, trace::regime_policy(regime.preset));

  sched::ClusterConfig cluster_config;
  cluster_config.node_count = regime.nodes;
  cluster_config.max_sim_seconds = 1.0e8;
  cluster_config.collect_job_stats = regime.collect_job_stats;
  sched::Cluster cluster(cluster_config);

  trace::SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  obs::Registry metrics;
  obs::SpanTracer tracer(regime.observability);
  if (regime.observability) {
    sim_config.metrics = &metrics;
    sim_config.tracer = &tracer;
    sim_config.telemetry.interval_seconds = 2000.0;
  }
  const trace::Trace job_trace = trace::make_regime_trace(
      regime.preset, regime.jobs, regime.nodes, kSeed, registry.names());
  return trace::SimEngine(sim_config).replay(job_trace, registry, cluster,
                                             scheduler);
}

/// The contract the obs regime exists to enforce: observability must not
/// move a single deterministic output. A violated check aborts the bench —
/// a silent drift here would poison every baseline downstream.
void require_same_replay(const trace::SimReport& plain,
                         const trace::SimReport& observed) {
  MIGOPT_ENSURE(plain.jobs_submitted == observed.jobs_submitted &&
                    plain.budget_events_applied ==
                        observed.budget_events_applied &&
                    plain.deadline_misses == observed.deadline_misses &&
                    plain.peak_queue_depth == observed.peak_queue_depth,
                "observability changed replay event counts");
  MIGOPT_ENSURE(
      plain.mean_queue_wait_seconds == observed.mean_queue_wait_seconds &&
          plain.max_queue_wait_seconds == observed.max_queue_wait_seconds &&
          plain.mean_slowdown == observed.mean_slowdown &&
          plain.jobs_per_hour == observed.jobs_per_hour,
      "observability changed replay queueing statistics");
  MIGOPT_ENSURE(
      plain.cluster.jobs_completed == observed.cluster.jobs_completed &&
          plain.cluster.pair_dispatches == observed.cluster.pair_dispatches &&
          plain.cluster.exclusive_dispatches ==
              observed.cluster.exclusive_dispatches &&
          plain.cluster.profile_runs == observed.cluster.profile_runs &&
          plain.cluster.decision_cache_hits ==
              observed.cluster.decision_cache_hits &&
          plain.cluster.decision_cache_misses ==
              observed.cluster.decision_cache_misses &&
          plain.cluster.decision_cache_evictions ==
              observed.cluster.decision_cache_evictions,
      "observability changed the schedule");
  MIGOPT_ENSURE(
      plain.cluster.makespan_seconds == observed.cluster.makespan_seconds &&
          plain.cluster.total_energy_joules ==
              observed.cluster.total_energy_joules &&
          plain.cluster.peak_cap_sum_watts ==
              observed.cluster.peak_cap_sum_watts,
      "observability changed continuous cluster outputs");
}

report::Section render(const Regime& regime, const trace::SimReport& sim) {
  report::Section section;
  section.title = regime.name;
  section.label_header = "tenant";
  section.columns = {"submitted", "completed", "mean wait [s]",
                     "mean slowdown"};
  for (const trace::TenantStats& tenant : sim.tenants) {
    section.add_row(
        tenant.tenant,
        {MetricValue::of_count(static_cast<long long>(tenant.jobs_submitted)),
         MetricValue::of_count(static_cast<long long>(tenant.jobs_completed)),
         MetricValue::num(tenant.mean_queue_wait_seconds, 1),
         MetricValue::num(tenant.mean_slowdown, 2)});
  }
  const auto& cluster = sim.cluster;
  const double probes = static_cast<double>(cluster.decision_cache_hits +
                                            cluster.decision_cache_misses);
  section.add_summary("jobs_completed",
                      MetricValue::of_count(
                          static_cast<long long>(cluster.jobs_completed)));
  section.add_summary("makespan_s",
                      MetricValue::num(cluster.makespan_seconds, 1));
  section.add_summary("jobs_per_hour", MetricValue::num(sim.jobs_per_hour, 1));
  section.add_summary("mean_wait_s",
                      MetricValue::num(sim.mean_queue_wait_seconds, 1));
  section.add_summary("mean_slowdown", MetricValue::num(sim.mean_slowdown));
  section.add_summary("peak_queue_depth",
                      MetricValue::of_count(
                          static_cast<long long>(sim.peak_queue_depth)));
  section.add_summary(
      "pair_dispatch_fraction",
      MetricValue::num(cluster.jobs_completed == 0
                           ? 0.0
                           : 2.0 * static_cast<double>(cluster.pair_dispatches) /
                                 static_cast<double>(cluster.jobs_completed)));
  section.add_summary(
      "cache_hit_rate",
      MetricValue::num(probes == 0.0 ? 0.0
                                     : static_cast<double>(
                                           cluster.decision_cache_hits) /
                                           probes));
  section.add_summary("cache_evictions",
                      MetricValue::of_count(static_cast<long long>(
                          cluster.decision_cache_evictions)));
  section.add_summary("peak_cap_sum_w",
                      MetricValue::num(cluster.peak_cap_sum_watts, 0));
  section.add_summary("energy_MJ",
                      MetricValue::num(cluster.total_energy_joules / 1.0e6, 2));
  return section;
}

report::ScenarioResult run(const report::RunContext& ctx) {
  Regime mega;
  mega.name = "mega 1M jobs";  // million-job Poisson/Zipf trace, 64 nodes
  mega.jobs = kMegaJobs;
  mega.nodes = kMegaNodes;
  mega.collect_job_stats = false;
  // Same mega replay again, with every obs sink attached (metrics registry,
  // telemetry sampler, Chrome-trace spans). run() checks its report against
  // the plain mega run bit-for-bit.
  Regime mega_obs = mega;
  mega_obs.observability = true;
  const std::vector<Regime> regimes = {
      // Steady arrivals, unconstrained budget.
      {"poisson 10k jobs", trace::ReplayRegime::Poisson},
      // Diurnal swing, crest ~2x trough.
      {"bursty 10k jobs", trace::ReplayRegime::Bursty},
      // Random-walk cluster power budget.
      {"budget-walk 10k jobs", trace::ReplayRegime::BudgetWalk},
      mega,
      mega_obs,
  };
  const std::size_t mega_index = 3;
  const std::size_t mega_obs_index = 4;

  std::vector<trace::SimReport> outcomes(regimes.size());
  ctx.parallel_for(regimes.size(),
                   [&](std::size_t i) { outcomes[i] = run_regime(regimes[i]); });

  require_same_replay(outcomes[mega_index], outcomes[mega_obs_index]);

  report::ScenarioResult result;
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    // The obs twin's section would be bit-identical to the plain mega run's.
    if (!regimes[i].observability)
      result.add_section(render(regimes[i], outcomes[i]));
  }
  result.add_note(
      "Reading: poisson holds ~85% utilization with single-digit waits; the\n"
      "bursty crest saturates the cluster and the trough drains it; the\n"
      "budget walk throttles dispatch whenever the contract dips (Problem 2\n"
      "re-picks caps under the moving ceiling). cache_hit_rate is the share\n"
      "of pairing probes the scheduler's decision table answered from a cell\n"
      "served since the last profile change; the table never evicts, so\n"
      "cache_evictions reads 0. The mega\n"
      "regime replays a million-job trace on 64 nodes (interned symbols,\n"
      "completion heap, O(1) bookkeeping), then once more with every obs\n"
      "sink attached (metrics registry, telemetry sampler, Chrome-trace\n"
      "spans); the bench aborts if any deterministic output moves. Replay\n"
      "wall-clock is measured by perfbench, not here.");
  return result;
}

[[maybe_unused]] const bool registered = report::register_scenario(
    {"trace_replay", "Extension: trace-driven cluster engine",
     "10k-job multi-tenant traces (poisson/bursty/budget-walk) plus a "
     "million-job mega regime replayed through Cluster+CoScheduler by "
     "trace::SimEngine",
     run});

}  // namespace

int main(int argc, char** argv) {
  return migopt::report::run_main("ext_trace_replay", argc, argv);
}
