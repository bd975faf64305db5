// Trace-driven cluster replay — the migopt::trace subsystem end to end: a
// seeded synthetic multi-tenant trace (Poisson or bursty/diurnal arrivals,
// Zipf-skewed job mix over the 24-workload registry, optional random-walk
// cluster power budget) is replayed deterministically through
// sched::Cluster + CoScheduler by the discrete-event SimEngine, reporting
// per-tenant queueing metrics and the scheduler's decision-table hit rate
// under sustained load.
//
// Regimes:
//   poisson        — steady memoryless arrivals, unconstrained budget;
//   bursty         — diurnally modulated arrivals (crest ~2x the trough);
//   budget-walk    — poisson arrivals under a random-walk power budget
//                    (caps re-brokered by Problem 2 as the contract moves).
//
// The replay is a report scenario, so the tool speaks the shared bench CLI
// (--json writes a schema-v1 BENCH document). When a trace path is given,
// the generated trace is saved there and re-loaded before replaying — the
// CSV/JSON round-trip is part of the demonstrated recipe.
//
// Usage: ./examples/trace_replay [num_jobs] [num_nodes] [seed] [regime]
//            [trace_path(.csv|.json)] [--json PATH] [--filter REGEX] ...
//
// Named flags (preferred; override the positionals) make large runs
// reproducible from the CLI:
//   --jobs N / --nodes N / --seed N    trace shape and its RNG seed
//   --regime poisson|bursty|budget-walk
//   --trace PATH                       save + re-load round-trip
//   --profile                          collect SimEngine's per-phase host
//                                      time tallies and print them to stderr
//                                      after the replay (where the wall
//                                      clock went: event apply, dispatch,
//                                      accounting, completions). Simulation
//                                      output is bit-identical either way.
//
// Fleet flags (see README "Fleet-scale replay"): --clusters N > 1 reads the
// trace at datacenter scope and replays it through trace::FleetEngine — N
// independent cluster sessions of --nodes nodes each behind the admission
// router, sharded over --threads workers (bit-identical for any count):
//   --clusters N                       cluster count (1 = single-cluster path)
//   --router round-robin|affinity|least-loaded
//   --spill-delay S                    affinity spillover threshold [s]
//   --power-split uniform|demand       fleet budget split policy
//   --fleet-budget W                   fleet-level power contract [W]
//
// Fault-injection flags (see README "Failure model & graceful degradation")
// — all default off; with every fault flag at its default the replay is
// byte-identical to a build without the fault layer:
//   --fault-rate R                     per-attempt transient failure
//                                      probability in [0, 1): each completion
//                                      fails per a seeded per-job draw, then
//                                      retries after exponential backoff
//   --node-mtbf S                      mean seconds between node crashes
//                                      (> 0 enables node outages; repair time
//                                      is exponential with mean 900 s)
//   --max-retries N                    retry budget before a job is abandoned
//                                      (default 3)
//   --power-emergency W                emergency budget [W] (> 0 enables
//                                      power emergencies: mean 3600 s between
//                                      events, each slashing the standing
//                                      budget to min(standing, W) for 600 s;
//                                      lowest-priority nodes shed first)
//
// Observability flags (see README "Observability") — none of them change
// the replay's report by a byte:
//   --metrics PATH                     write the schema-v1 metrics document
//                                      (counters/gauges/histograms + the
//                                      telemetry series); a .csv suffix
//                                      writes the series as CSV instead
//   --chrome-trace PATH                write Chrome trace-event JSON (load
//                                      in ui.perfetto.dev): session spans,
//                                      re-broker spans, one track per fleet
//                                      cluster; per-phase sub-spans only
//                                      with --profile
//   --sample-interval S                sim-time telemetry sample period [s]
//   --log-level LVL                    shared harness flag (trace..off)
//
// The replay never collects per-job statistics (the report reads only
// aggregates), so million-job traces replay in seconds (see README
// "Scaling the trace engine").
//
// The 1M reproduction: trace_replay --jobs 1000000 --nodes 64 --seed 7
// A 16-cluster fleet:   trace_replay --jobs 200000 --clusters 16 --nodes 8
//                          --router affinity --spill-delay 60
//                          --fleet-budget 20000 --power-split demand
//                          --threads 16
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/string_util.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span_tracer.hpp"
#include "report/harness.hpp"
#include "report/reporter.hpp"
#include "trace/fleet.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

/// Input footprint bound: a replay's memory grows with the simulated node
/// count and the trace length, so sizes whose footprint would exceed this
/// are rejected with a named error up front instead of dying in
/// std::bad_alloc mid-setup.
constexpr double kMaxFootprintBytes = 4.0 * 1024 * 1024 * 1024;
/// Peak RSS per simulated node, rounded up: release builds measured ~640 B
/// per node on one cluster (--nodes 131072 -> 262144) and ~860 B per
/// one-node cluster in fleet mode (--clusters 65536 -> 131072).
constexpr double kBytesPerNode = 1024.0;
/// Peak RSS per trace event, rounded up: release builds measured ~150 B per
/// job between --jobs 1000000 and 2000000, single-cluster and fleet alike.
constexpr double kBytesPerTraceEvent = 160.0;

/// Print one replay's per-phase host-time profile to stderr (--profile).
/// stderr so the schema-v1 --json stream stays untouched.
void print_phase_profile(const char* label, const trace::PhaseCounters& phases) {
  if (!phases.collected) return;
  std::fprintf(stderr,
               "%s phase profile (%zu event-loop steps):\n"
               "  event apply     %8.1f ms (budget re-broker %.1f ms)\n"
               "  dispatch        %8.1f ms\n"
               "  accounting      %8.1f ms\n"
               "  completions     %8.1f ms\n",
               label, phases.steps, phases.event_apply_seconds * 1e3,
               phases.budget_rebroker_seconds * 1e3,
               phases.dispatch_seconds * 1e3,
               phases.accounting_seconds * 1e3,
               phases.completion_seconds * 1e3);
}

struct ReplayConfig {
  std::size_t num_jobs = 10000;
  int num_nodes = 8;
  std::uint64_t seed = 7;
  trace::ReplayRegime regime = trace::ReplayRegime::Poisson;
  std::string trace_path;  ///< optional save/re-load round-trip
  /// Collect and print SimEngine's per-phase host-time tallies (--profile).
  bool profile_phases = false;

  // Fleet mode (clusters > 1): the trace becomes a fleet trace routed
  // across `clusters` sessions of `num_nodes` nodes each.
  int clusters = 1;
  trace::RouterPolicy router = trace::RouterPolicy::TenantAffinity;
  double spill_delay_seconds = 0.0;
  trace::PowerSplit power_split = trace::PowerSplit::Uniform;
  double fleet_budget_watts = 0.0;  ///< <= 0: no fleet-level contract

  // Fault injection (README "Failure model & graceful degradation"): all
  // off by default — the fault-free replay is byte-identical to a build
  // without the fault layer.
  double fault_rate = 0.0;          ///< --fault-rate: transient P(fail) [0,1)
  double node_mtbf_seconds = 0.0;   ///< --node-mtbf: > 0 enables crashes
  std::size_t max_retries = 3;      ///< --max-retries: then abandoned
  double power_emergency_watts = 0.0;  ///< --power-emergency: > 0 enables

  // Observability (README "Observability"): all three knobs leave the
  // replay's report byte-identical — the sinks only *add* outputs.
  std::string metrics_path;       ///< --metrics: schema-v1 doc (.json or .csv)
  std::string chrome_trace_path;  ///< --chrome-trace: Perfetto-loadable spans
  double sample_interval_seconds = 0.0;  ///< --sample-interval [sim s]
};

/// Any fault flag active? Gates the fault plan and the report's fault rows,
/// so a fault-free invocation stays byte-identical to earlier builds.
bool fault_injection_on(const ReplayConfig& config) {
  return config.fault_rate > 0.0 || config.node_mtbf_seconds > 0.0 ||
         config.power_emergency_watts > 0.0;
}

/// The CLI flags as a fault::FaultConfig (the documented defaults: MTTR
/// 900 s, emergency MTBF 3600 s / duration 600 s).
fault::FaultConfig make_fault_config(const ReplayConfig& config) {
  fault::FaultConfig fault;
  fault.transient_failure_rate = config.fault_rate;
  fault.node_mtbf_seconds = config.node_mtbf_seconds;
  if (config.power_emergency_watts > 0.0) {
    fault.power_emergency_mtbf_seconds = 3600.0;
    fault.power_emergency_watts = config.power_emergency_watts;
  }
  fault.retry.max_retries = config.max_retries;
  return fault;
}

/// Append the fault-outcome summary rows (shared by both paths; only called
/// when fault injection is on).
void add_fault_summaries(report::Section& section,
                         const trace::FaultStats& faults) {
  section.add_summary("failures_injected",
                      MetricValue::of_count(static_cast<long long>(
                          faults.failures_injected)));
  section.add_summary(
      "retries", MetricValue::of_count(static_cast<long long>(faults.retries)));
  section.add_summary("jobs_killed",
                      MetricValue::of_count(
                          static_cast<long long>(faults.jobs_killed)));
  section.add_summary(
      "jobs_shed",
      MetricValue::of_count(static_cast<long long>(faults.jobs_shed)));
  section.add_summary("jobs_abandoned",
                      MetricValue::of_count(
                          static_cast<long long>(faults.jobs_abandoned)));
  section.add_summary("node_failures",
                      MetricValue::of_count(
                          static_cast<long long>(faults.node_failures)));
  section.add_summary("node_downtime_s",
                      MetricValue::num(faults.node_downtime_seconds, 1));
}

/// Emit the --metrics document (telemetry series only in CSV mode) and the
/// --chrome-trace span file. Shared by the single-cluster and fleet paths.
void write_obs_outputs(const ReplayConfig& config,
                       const obs::Registry& registry,
                       const std::vector<obs::SampleSeries>& series,
                       const obs::SpanTracer& tracer) {
  if (!config.metrics_path.empty()) {
    const bool csv = config.metrics_path.size() > 4 &&
                     config.metrics_path.rfind(".csv") ==
                         config.metrics_path.size() - 4;
    if (csv) {
      std::ofstream out(config.metrics_path);
      bool header_done = false;
      for (std::size_t c = 0; c < series.size(); ++c) {
        std::string block = series[c].to_csv("c" + std::to_string(c));
        if (header_done) {
          // Drop the repeated header of every series after the first.
          const std::size_t eol = block.find('\n');
          block.erase(0, eol == std::string::npos ? block.size() : eol + 1);
        }
        out << block;
        header_done = true;
      }
    } else {
      json::Value telemetry = json::Value::array();
      for (std::size_t c = 0; c < series.size(); ++c)
        telemetry.push_back(series[c].to_json("c" + std::to_string(c)));
      report::write_json_file(
          config.metrics_path,
          obs::metrics_document(registry, "trace_replay",
                                std::move(telemetry)));
    }
    std::fprintf(stderr, "metrics written to %s\n",
                 config.metrics_path.c_str());
  }
  if (!config.chrome_trace_path.empty()) {
    report::write_json_file(config.chrome_trace_path,
                            tracer.to_chrome_json());
    std::fprintf(stderr,
                 "chrome trace written to %s (load in ui.perfetto.dev)\n",
                 config.chrome_trace_path.c_str());
  }
}

/// A router can leave whole clusters without work (tenant affinity with
/// fewer hot tenants than clusters and no spillover): the fleet then runs on
/// part of its nodes and nothing in the report says so. Name them on stderr.
void warn_empty_clusters(const std::vector<std::size_t>& jobs_per_cluster) {
  std::string empty;
  std::size_t count = 0;
  for (std::size_t c = 0; c < jobs_per_cluster.size(); ++c) {
    if (jobs_per_cluster[c] != 0) continue;
    empty.append(count++ == 0 ? "c" : ", c").append(std::to_string(c));
  }
  if (count == 0) return;
  std::fprintf(stderr,
               "warning: the router sent no jobs to %zu of %zu clusters (%s); "
               "they idle for the whole replay. Set --spill-delay S to let "
               "affinity spill over, or use --router least-loaded.\n",
               count, jobs_per_cluster.size(), empty.c_str());
}

/// Fleet mode: the same regime trace, sized for the whole fleet, routed by
/// trace::FleetEngine across `clusters` independent sessions and replayed
/// shard-parallel over the harness's --threads workers.
report::ScenarioResult run_fleet_replay(const ReplayConfig& config,
                                        const report::RunContext& ctx) {
  gpusim::GpuChip reference_chip;
  const wl::WorkloadRegistry registry(reference_chip.arch());
  const trace::Trace fleet_trace = trace::make_regime_trace(
      config.regime, config.num_jobs, config.clusters * config.num_nodes,
      config.seed, registry.names());

  trace::FleetConfig fleet;
  fleet.cluster_count = config.clusters;
  fleet.cluster.node_count = config.num_nodes;
  fleet.cluster.max_sim_seconds = 1.0e8;
  fleet.cluster.collect_job_stats = false;
  fleet.router.policy = config.router;
  fleet.router.spill_delay_seconds = config.spill_delay_seconds;
  fleet.power_split = config.power_split;
  if (config.fleet_budget_watts > 0.0)
    fleet.fleet_power_budget_watts = config.fleet_budget_watts;
  fleet.sim.max_sim_seconds = 1.0e8;
  fleet.sim.collect_phase_counters = config.profile_phases;
  fleet.sim.telemetry.interval_seconds = config.sample_interval_seconds;
  fleet.policy = trace::regime_policy(config.regime);
  fleet.seed = config.seed;
  fleet.threads = std::max<std::size_t>(1, ctx.threads());
  if (fault_injection_on(config)) fleet.fault = make_fault_config(config);

  obs::Registry registry_sink;
  obs::SpanTracer tracer(!config.chrome_trace_path.empty());
  if (!config.metrics_path.empty()) fleet.metrics = &registry_sink;
  fleet.tracer = &tracer;

  const trace::FleetReport report =
      trace::FleetEngine(fleet).replay(fleet_trace);
  warn_empty_clusters(report.router.jobs_per_cluster);
  if (!config.metrics_path.empty() || !config.chrome_trace_path.empty()) {
    std::vector<obs::SampleSeries> series;
    for (const trace::SimReport& shard : report.clusters)
      if (!shard.telemetry.empty()) series.push_back(shard.telemetry);
    write_obs_outputs(config, registry_sink, series, tracer);
  }
  if (config.profile_phases) {
    // Sum the per-shard tallies: with --threads > 1 the shards overlap, so
    // this is aggregate CPU-side phase time, not wall clock.
    trace::PhaseCounters total;
    total.collected = true;
    for (const trace::SimReport& shard : report.clusters) {
      total.steps += shard.phases.steps;
      total.event_apply_seconds += shard.phases.event_apply_seconds;
      total.budget_rebroker_seconds += shard.phases.budget_rebroker_seconds;
      total.dispatch_seconds += shard.phases.dispatch_seconds;
      total.accounting_seconds += shard.phases.accounting_seconds;
      total.completion_seconds += shard.phases.completion_seconds;
    }
    print_phase_profile("fleet replay (summed over shards)", total);
  }

  report::ScenarioResult result;
  report::Section section;
  section.title = std::to_string(config.num_jobs) + " jobs, " +
                  std::to_string(config.clusters) + " clusters x " +
                  std::to_string(config.num_nodes) + " nodes, " +
                  trace::router_policy_name(config.router) + " router, " +
                  trace::regime_name(config.regime) + ", seed " +
                  std::to_string(config.seed);
  section.label_header = "cluster";
  section.columns = {"routed", "completed", "mean wait [s]", "mean slowdown",
                     "energy [MJ]"};
  for (std::size_t c = 0; c < report.clusters.size(); ++c) {
    const trace::SimReport& shard = report.clusters[c];
    section.add_row(
        "c" + std::to_string(c),
        {MetricValue::of_count(static_cast<long long>(shard.jobs_submitted)),
         MetricValue::of_count(
             static_cast<long long>(shard.cluster.jobs_completed)),
         MetricValue::num(shard.mean_queue_wait_seconds, 1),
         MetricValue::num(shard.mean_slowdown, 2),
         MetricValue::num(shard.cluster.total_energy_joules / 1.0e6, 2)});
  }
  const double decisions = static_cast<double>(report.router.decisions);
  const double memo_probes =
      static_cast<double>(report.run_memo_hits + report.run_memo_misses);
  section.add_summary("jobs_completed",
                      MetricValue::of_count(
                          static_cast<long long>(report.jobs_completed)));
  section.add_summary("makespan_s",
                      MetricValue::num(report.makespan_seconds, 1));
  section.add_summary("agg_jobs_per_hour",
                      MetricValue::num(report.aggregate_jobs_per_hour, 1));
  section.add_summary("mean_wait_s",
                      MetricValue::num(report.mean_queue_wait_seconds, 1));
  section.add_summary("mean_slowdown", MetricValue::num(report.mean_slowdown));
  section.add_summary(
      "spill_fraction",
      MetricValue::num(decisions == 0.0
                           ? 0.0
                           : static_cast<double>(report.router.spills) /
                                 decisions));
  section.add_summary("budget_splits",
                      MetricValue::of_count(static_cast<long long>(
                          report.router.budget_splits)));
  section.add_summary(
      "run_memo_hit_rate",
      MetricValue::num(memo_probes == 0.0
                           ? 0.0
                           : static_cast<double>(report.run_memo_hits) /
                                 memo_probes));
  section.add_summary("energy_MJ",
                      MetricValue::num(report.total_energy_joules / 1.0e6, 2));
  if (fault_injection_on(config)) add_fault_summaries(section, report.faults);
  result.add_section(std::move(section));
  result.add_note(
      "each cluster is its own SimEngine session (own nodes, allocator "
      "copy, scheduler,\nrun memo); all clusters share one workload "
      "registry and its solve store, whose\nentries equal fresh solves to "
      "the bit. The router pre-assigned every arrival\nbefore replay, so "
      "the merged report is bit-identical for any --threads value.");
  return result;
}

report::ScenarioResult run_replay(const ReplayConfig& config,
                                  const report::RunContext& ctx) {
  if (config.clusters > 1) return run_fleet_replay(config, ctx);
  gpusim::GpuChip reference_chip;
  const wl::WorkloadRegistry registry(reference_chip.arch());
  const auto pairs = wl::table8_pairs();

  trace::Trace job_trace = trace::make_regime_trace(
      config.regime, config.num_jobs, config.num_nodes, config.seed,
      registry.names());
  if (!config.trace_path.empty()) {
    // Save + re-load so the replayed trace went through serialization.
    const bool json = config.trace_path.size() > 5 &&
                      config.trace_path.rfind(".json") ==
                          config.trace_path.size() - 5;
    if (json) {
      job_trace.save_json(config.trace_path);
      job_trace = trace::Trace::load_json(config.trace_path);
    } else {
      job_trace.save_csv(config.trace_path);
      job_trace = trace::Trace::load_csv(config.trace_path);
    }
    std::fprintf(stderr, "trace saved to and re-loaded from %s\n",
                 config.trace_path.c_str());
  }

  auto allocator =
      core::ResourcePowerAllocator::train(reference_chip, registry, pairs);
  sched::CoScheduler scheduler(allocator, trace::regime_policy(config.regime));
  sched::ClusterConfig cluster_config;
  cluster_config.node_count = config.num_nodes;
  cluster_config.max_sim_seconds = 1.0e8;
  cluster_config.collect_job_stats = false;
  sched::Cluster cluster(cluster_config);

  trace::SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  sim_config.collect_phase_counters = config.profile_phases;
  sim_config.telemetry.interval_seconds = config.sample_interval_seconds;
  obs::Registry registry_sink;
  obs::SpanTracer tracer(!config.chrome_trace_path.empty());
  if (!config.metrics_path.empty()) sim_config.metrics = &registry_sink;
  sim_config.tracer = &tracer;
  // Fault plan over the trace horizon, seeded like the trace itself — the
  // same (trace, seed, fault flags) always replays the same outages,
  // emergencies, and transient draws.
  fault::FaultPlan fault_plan;
  if (fault_injection_on(config)) {
    const double horizon = job_trace.events.empty()
                               ? 0.0
                               : job_trace.events.back().time_seconds;
    fault_plan = fault::make_fault_plan(make_fault_config(config),
                                        config.num_nodes, horizon,
                                        config.seed);
    sim_config.faults = &fault_plan;
  }
  const trace::SimEngine engine(sim_config);
  const trace::SimReport sim =
      engine.replay(job_trace, registry, cluster, scheduler);
  // Phase tallies (and the tracer's phase sub-spans) exist only under
  // --profile; the tracer never turns collection on.
  if (config.profile_phases) print_phase_profile("replay", sim.phases);
  if (!config.metrics_path.empty() || !config.chrome_trace_path.empty()) {
    tracer.set_track_name(0, "cluster");
    std::vector<obs::SampleSeries> series;
    if (!sim.telemetry.empty()) series.push_back(sim.telemetry);
    write_obs_outputs(config, registry_sink, series, tracer);
  }

  report::ScenarioResult result;
  report::Section section;
  section.title = std::to_string(config.num_jobs) + " jobs, " +
                  std::to_string(config.num_nodes) + " nodes, regime " +
                  trace::regime_name(config.regime) + ", seed " +
                  std::to_string(config.seed);
  section.label_header = "tenant";
  section.columns = {"submitted", "completed",      "work [s]",
                     "mean wait [s]", "mean slowdown", "deadline misses"};
  for (const trace::TenantStats& tenant : sim.tenants) {
    section.add_row(
        tenant.tenant,
        {MetricValue::of_count(static_cast<long long>(tenant.jobs_submitted)),
         MetricValue::of_count(static_cast<long long>(tenant.jobs_completed)),
         MetricValue::num(tenant.work_seconds_submitted, 0),
         MetricValue::num(tenant.mean_queue_wait_seconds, 1),
         MetricValue::num(tenant.mean_slowdown, 2),
         MetricValue::of_count(
             static_cast<long long>(tenant.deadline_misses))});
  }
  const auto& cluster_report = sim.cluster;
  const double probes = static_cast<double>(cluster_report.decision_cache_hits +
                                            cluster_report.decision_cache_misses);
  section.add_summary("jobs_completed",
                      MetricValue::of_count(static_cast<long long>(
                          cluster_report.jobs_completed)));
  section.add_summary("makespan_s",
                      MetricValue::num(cluster_report.makespan_seconds, 1));
  section.add_summary("jobs_per_hour", MetricValue::num(sim.jobs_per_hour, 1));
  section.add_summary("mean_wait_s",
                      MetricValue::num(sim.mean_queue_wait_seconds, 1));
  section.add_summary("mean_slowdown", MetricValue::num(sim.mean_slowdown));
  section.add_summary("peak_queue_depth",
                      MetricValue::of_count(static_cast<long long>(
                          sim.peak_queue_depth)));
  section.add_summary(
      "pair_dispatch_fraction",
      MetricValue::num(cluster_report.jobs_completed == 0
                           ? 0.0
                           : 2.0 *
                                 static_cast<double>(
                                     cluster_report.pair_dispatches) /
                                 static_cast<double>(
                                     cluster_report.jobs_completed)));
  section.add_summary(
      "cache_hit_rate",
      MetricValue::num(probes == 0.0
                           ? 0.0
                           : static_cast<double>(
                                 cluster_report.decision_cache_hits) /
                                 probes));
  section.add_summary("cache_evictions",
                      MetricValue::of_count(static_cast<long long>(
                          cluster_report.decision_cache_evictions)));
  section.add_summary("energy_MJ",
                      MetricValue::num(
                          cluster_report.total_energy_joules / 1.0e6, 2));
  section.add_summary("budget_events",
                      MetricValue::of_count(static_cast<long long>(
                          sim.budget_events_applied)));
  if (fault_injection_on(config)) add_fault_summaries(section, sim.faults);
  result.add_section(std::move(section));
  result.add_note(
      "every job arrived online (no batch queue): waits come from real "
      "contention, the\ndecision-table hit rate is what the scheduler saw "
      "under sustained multi-tenant load,\nand conservation (submitted == "
      "completed + queued + running) held at every event.");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Split this tool's named flags out before the shared parser sees (and
  // rejects) them; whatever remains (shared flags + legacy positionals) goes
  // to the report harness untouched.
  std::string jobs_flag;
  std::string nodes_flag;
  std::string seed_flag;
  std::string regime_flag;
  std::string trace_flag;
  std::string clusters_flag;
  std::string router_flag;
  std::string spill_flag;
  std::string split_flag;
  std::string fleet_budget_flag;
  std::string fault_rate_flag;
  std::string node_mtbf_flag;
  std::string max_retries_flag;
  std::string power_emergency_flag;
  std::string metrics_flag;
  std::string chrome_trace_flag;
  std::string sample_interval_flag;
  bool profile_phases = false;
  // One row per tool flag: what the split below consumes and what --help
  // prints. A null value marks the --profile switch.
  struct ToolFlag {
    const char* name;
    const char* arg;
    const char* help;
    std::string* value;
  };
  const ToolFlag tool_flags[] = {
      {"--jobs", "N", "trace job count", &jobs_flag},
      {"--nodes", "N", "nodes per cluster", &nodes_flag},
      {"--seed", "N", "trace RNG seed", &seed_flag},
      {"--regime", "R", "poisson|bursty|budget-walk", &regime_flag},
      {"--trace", "PATH", "save + re-load the trace (.csv|.json)", &trace_flag},
      {"--clusters", "N", "cluster count (> 1 replays a fleet)", &clusters_flag},
      {"--router", "P", "round-robin|affinity|least-loaded", &router_flag},
      {"--spill-delay", "S", "affinity spillover threshold [s]", &spill_flag},
      {"--power-split", "P", "uniform|demand fleet budget split", &split_flag},
      {"--fleet-budget", "W", "fleet-level power contract [W]",
       &fleet_budget_flag},
      {"--fault-rate", "R", "per-attempt transient failure probability [0, 1)",
       &fault_rate_flag},
      {"--node-mtbf", "S", "mean seconds between node crashes (> 0 enables)",
       &node_mtbf_flag},
      {"--max-retries", "N", "retry budget before a job is abandoned",
       &max_retries_flag},
      {"--power-emergency", "W", "emergency budget [W] (> 0 enables)",
       &power_emergency_flag},
      {"--metrics", "PATH", "write the metrics document (.csv: the series)",
       &metrics_flag},
      {"--chrome-trace", "PATH", "write Chrome trace-event JSON",
       &chrome_trace_flag},
      {"--sample-interval", "S", "sim-time telemetry sample period [s]",
       &sample_interval_flag},
      {"--profile", "", "print per-phase host time to stderr", nullptr},
  };
  std::vector<char*> harness_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag =
        std::find_if(std::begin(tool_flags), std::end(tool_flags),
                     [&arg](const ToolFlag& f) { return arg == f.name; });
    if (flag == std::end(tool_flags)) {
      harness_argv.push_back(argv[i]);
    } else if (flag->value == nullptr) {
      profile_phases = true;
    } else if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag->name);
      return 1;
    } else {
      *flag->value = argv[++i];
    }
  }

  const auto options = migopt::report::parse_options(
      static_cast<int>(harness_argv.size()), harness_argv.data(),
      /*allow_positionals=*/true);
  if (!options.has_value()) return 1;
  if (options->help) {
    std::printf(
        "usage: trace_replay [num_jobs] [num_nodes] [seed] [regime] "
        "[trace_path] [options]\n\ntrace_replay options:\n");
    for (const ToolFlag& flag : tool_flags) {
      const std::string head = *flag.arg == '\0'
                                   ? std::string(flag.name)
                                   : std::string(flag.name) + " " + flag.arg;
      std::printf("  %-20s %s\n", head.c_str(), flag.help);
    }
    std::printf("\nshared options:\n%s",
                migopt::report::usage_text().c_str());
    return 0;
  }

  ReplayConfig config;
  config.profile_phases = profile_phases;
  const auto parse_int = [](const std::string& text, const char* what,
                            double minimum, auto& out) {
    using Out = std::remove_reference_t<decltype(out)>;
    // 9e15 keeps the double integer-exact; the destination type bounds it
    // further so a too-large value is rejected instead of wrapping.
    const double maximum = std::min(
        9.0e15, static_cast<double>(std::numeric_limits<Out>::max()));
    const auto value = migopt::str::parse_double(text);
    if (!value.has_value() || *value < minimum ||
        *value != std::floor(*value) || *value > maximum) {
      std::fprintf(stderr,
                   "error: %s must be an integer in [%.0f, %.0f], got '%s'\n",
                   what, minimum, maximum, text.c_str());
      return false;
    }
    out = static_cast<Out>(*value);
    return true;
  };
  // Real-valued flags: std::from_chars accepts "nan" and "inf", and a NaN
  // slips past every `value < bound` check, so non-finite text is rejected
  // here as unparsable.
  const auto parse_finite = [](const std::string& text) -> std::optional<double> {
    const auto value = migopt::str::parse_double(text);
    if (!value.has_value() || !std::isfinite(*value)) return std::nullopt;
    return value;
  };
  const auto& positionals = options->positionals;
  if (positionals.size() > 0 &&
      !parse_int(positionals[0], "num_jobs", 1.0, config.num_jobs))
    return 1;
  if (positionals.size() > 1 &&
      !parse_int(positionals[1], "num_nodes", 1.0, config.num_nodes))
    return 1;
  if (positionals.size() > 2 &&
      !parse_int(positionals[2], "seed", 0.0, config.seed))
    return 1;
  if (positionals.size() > 3) {
    const auto regime = migopt::trace::parse_regime(positionals[3]);
    if (!regime.has_value()) {
      std::fprintf(stderr,
                   "error: regime must be poisson|bursty|budget-walk, got "
                   "'%s'\n",
                   positionals[3].c_str());
      return 1;
    }
    config.regime = *regime;
  }
  if (positionals.size() > 4) config.trace_path = positionals[4];

  // Named flags override the positionals.
  if (!jobs_flag.empty() &&
      !parse_int(jobs_flag, "--jobs", 1.0, config.num_jobs))
    return 1;
  if (!nodes_flag.empty() &&
      !parse_int(nodes_flag, "--nodes", 1.0, config.num_nodes))
    return 1;
  if (!seed_flag.empty() && !parse_int(seed_flag, "--seed", 0.0, config.seed))
    return 1;
  if (!regime_flag.empty()) {
    const auto regime = migopt::trace::parse_regime(regime_flag);
    if (!regime.has_value()) {
      std::fprintf(stderr,
                   "error: --regime must be poisson|bursty|budget-walk, got "
                   "'%s'\n",
                   regime_flag.c_str());
      return 1;
    }
    config.regime = *regime;
  }
  if (!trace_flag.empty()) config.trace_path = trace_flag;

  // Fleet flags.
  if (!clusters_flag.empty() &&
      !parse_int(clusters_flag, "--clusters", 1.0, config.clusters))
    return 1;
  if (!router_flag.empty()) {
    const auto policy = migopt::trace::parse_router_policy(router_flag);
    if (!policy.has_value()) {
      std::fprintf(stderr,
                   "error: --router must be round-robin|affinity|"
                   "least-loaded, got '%s'\n",
                   router_flag.c_str());
      return 1;
    }
    config.router = *policy;
  }
  if (!spill_flag.empty()) {
    const auto value = parse_finite(spill_flag);
    if (!value.has_value() || *value < 0.0) {
      std::fprintf(stderr, "error: --spill-delay must be >= 0, got '%s'\n",
                   spill_flag.c_str());
      return 1;
    }
    config.spill_delay_seconds = *value;
  }
  if (!split_flag.empty()) {
    const auto split = migopt::trace::parse_power_split(split_flag);
    if (!split.has_value()) {
      std::fprintf(stderr,
                   "error: --power-split must be uniform|demand, got '%s'\n",
                   split_flag.c_str());
      return 1;
    }
    config.power_split = *split;
  }
  if (!fleet_budget_flag.empty()) {
    const auto value = parse_finite(fleet_budget_flag);
    if (!value.has_value() || *value <= 0.0) {
      std::fprintf(stderr, "error: --fleet-budget must be > 0 W, got '%s'\n",
                   fleet_budget_flag.c_str());
      return 1;
    }
    config.fleet_budget_watts = *value;
  }

  // Fault-injection flags. Out-of-range values name the flag, the accepted
  // range, and the rejected text — and exit nonzero before any replay runs.
  if (!fault_rate_flag.empty()) {
    const auto value = parse_finite(fault_rate_flag);
    if (!value.has_value() || *value < 0.0 || *value >= 1.0) {
      std::fprintf(stderr,
                   "error: --fault-rate must be a probability in [0, 1), got "
                   "'%s'\n",
                   fault_rate_flag.c_str());
      return 1;
    }
    config.fault_rate = *value;
  }
  if (!node_mtbf_flag.empty()) {
    const auto value = parse_finite(node_mtbf_flag);
    if (!value.has_value() || *value <= 0.0) {
      std::fprintf(stderr,
                   "error: --node-mtbf must be > 0 seconds, got '%s'\n",
                   node_mtbf_flag.c_str());
      return 1;
    }
    config.node_mtbf_seconds = *value;
  }
  if (!max_retries_flag.empty() &&
      !parse_int(max_retries_flag, "--max-retries", 0.0, config.max_retries))
    return 1;
  if (!power_emergency_flag.empty()) {
    const auto value = parse_finite(power_emergency_flag);
    if (!value.has_value() || *value <= 0.0) {
      std::fprintf(stderr,
                   "error: --power-emergency must be > 0 W, got '%s'\n",
                   power_emergency_flag.c_str());
      return 1;
    }
    config.power_emergency_watts = *value;
  }

  // Observability flags.
  config.metrics_path = metrics_flag;
  config.chrome_trace_path = chrome_trace_flag;
  if (!sample_interval_flag.empty()) {
    const auto value = parse_finite(sample_interval_flag);
    if (!value.has_value() || *value < 0.0) {
      std::fprintf(stderr, "error: --sample-interval must be >= 0, got '%s'\n",
                   sample_interval_flag.c_str());
      return 1;
    }
    config.sample_interval_seconds = *value;
  }

  // Footprint guards, after every size flag and positional is known.
  const double total_nodes =
      static_cast<double>(config.num_nodes) * config.clusters;
  if (total_nodes * kBytesPerNode > kMaxFootprintBytes) {
    std::fprintf(stderr,
                 "error: --nodes x --clusters = %.0f simulated nodes exceeds "
                 "the input bound of %.0f (~%.0f B each, %.0f GiB footprint)\n",
                 total_nodes, kMaxFootprintBytes / kBytesPerNode,
                 kBytesPerNode, kMaxFootprintBytes / (1024.0 * 1024 * 1024));
    return 1;
  }
  const double total_events = static_cast<double>(config.num_jobs);
  if (total_events * kBytesPerTraceEvent > kMaxFootprintBytes) {
    std::fprintf(stderr,
                 "error: --jobs %.0f exceeds the input bound of %.0f trace "
                 "events (~%.0f B each, %.0f GiB footprint)\n",
                 total_events,
                 std::floor(kMaxFootprintBytes / kBytesPerTraceEvent),
                 kBytesPerTraceEvent,
                 kMaxFootprintBytes / (1024.0 * 1024 * 1024));
    return 1;
  }

  migopt::report::register_scenario(
      {"trace_replay", "Trace engine",
       std::string(migopt::trace::regime_name(config.regime)) + " replay of " +
           std::to_string(config.num_jobs) + " jobs on " +
           (config.clusters > 1
                ? std::to_string(config.clusters) + " clusters x " +
                      std::to_string(config.num_nodes) + " nodes"
                : std::to_string(config.num_nodes) + " nodes"),
       [config](const migopt::report::RunContext& ctx) {
         return run_replay(config, ctx);
       }});
  return migopt::report::run_scenarios("trace_replay", *options);
}
