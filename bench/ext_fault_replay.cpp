// Extension bench: deterministic fault injection and failure-aware replay
// (migopt::fault + trace::SimEngine retry path + FleetEngine outages).
//
// The other replay benches measure the cluster when nothing breaks; this
// one measures it when things break *on schedule*: seeded fault plans
// (node crash/recover windows, per-job transient failure draws, power
// emergencies) are injected into the same 10k-job regime traces, and the
// engine answers with retry-with-backoff, graceful power degradation, and
// whole-cluster outage re-admission at fleet scope. Every fault is drawn
// from the plan's own RNG streams — never from the schedule — so each
// summary (including every fault counter) is an exact regression gate, and
// the fleet regime is byte-identical for any --threads value (enforced
// in-process, not just promised).
//
// The fault-free regime doubles as the plumbing's null test: run() replays
// it twice, without a plan and with an *empty* plan attached, and aborts
// unless the two reports agree bit-for-bit — the acceptance contract that
// carrying the fault layer costs the fault-free path nothing. This bench
// times nothing: the faulted replay's throughput is perfbench's
// (budget_churn runs with faults on).
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "fault/fault.hpp"
#include "report/harness.hpp"
#include "trace/fleet.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

constexpr std::size_t kJobs = 10000;
constexpr int kNodes = 8;
constexpr std::uint64_t kSeed = 7;
/// Fleet regime: 4 clusters x 2 nodes sharing one 16k-job stream, with
/// whole-cluster outages layered over per-node faults.
constexpr std::size_t kFleetJobs = 16384;
constexpr int kFleetClusters = 4;
constexpr int kFleetNodes = 2;

struct FaultRegime {
  const char* name;
  trace::ReplayRegime preset = trace::ReplayRegime::Poisson;
  fault::FaultConfig fault;
  bool attach_empty_plan = false;  ///< fault-free twin with an empty plan
};

trace::SimReport run_regime(const FaultRegime& regime) {
  // Fully independent environment per regime: regimes run concurrently
  // under --threads, and profile runs mutate the allocator.
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, trace::regime_policy(regime.preset));

  sched::ClusterConfig cluster_config;
  cluster_config.node_count = kNodes;
  cluster_config.max_sim_seconds = 1.0e8;
  sched::Cluster cluster(cluster_config);

  trace::SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;

  const trace::Trace job_trace = trace::make_regime_trace(
      regime.preset, kJobs, kNodes, kSeed, registry.names());

  fault::FaultPlan plan;
  if (regime.fault.enabled()) {
    const double horizon =
        job_trace.events.empty() ? 0.0 : job_trace.events.back().time_seconds;
    plan = fault::make_fault_plan(regime.fault, kNodes, horizon, kSeed);
  }
  if (regime.fault.enabled() || regime.attach_empty_plan)
    sim_config.faults = &plan;

  trace::SimReport sim =
      trace::SimEngine(sim_config).replay(job_trace, registry, cluster, scheduler);

  // End-state conservation under faults, checked on every regime: the
  // cluster counts physical runs (failed attempts complete on the node),
  // the engine counts logical jobs — the books must balance exactly.
  MIGOPT_ENSURE(sim.jobs_submitted + sim.faults.failures_injected ==
                    sim.cluster.jobs_completed + sim.faults.jobs_abandoned,
                "fault replay lost or invented jobs");
  return sim;
}

/// The null contract: a fault-free replay with an empty plan attached must
/// be bit-identical to one with no plan at all. A drift here would poison
/// every fault-free baseline in the repo.
void require_same_replay(const trace::SimReport& plain,
                         const trace::SimReport& gated) {
  MIGOPT_ENSURE(plain.jobs_submitted == gated.jobs_submitted &&
                    plain.peak_queue_depth == gated.peak_queue_depth &&
                    plain.cluster.jobs_completed == gated.cluster.jobs_completed &&
                    plain.cluster.pair_dispatches ==
                        gated.cluster.pair_dispatches &&
                    plain.cluster.exclusive_dispatches ==
                        gated.cluster.exclusive_dispatches,
                "empty fault plan changed replay event counts");
  MIGOPT_ENSURE(
      plain.cluster.makespan_seconds == gated.cluster.makespan_seconds &&
          plain.cluster.total_energy_joules ==
              gated.cluster.total_energy_joules &&
          plain.mean_queue_wait_seconds == gated.mean_queue_wait_seconds &&
          plain.mean_slowdown == gated.mean_slowdown,
      "empty fault plan changed replay statistics");
  MIGOPT_ENSURE(gated.faults.failures_injected == 0 &&
                    gated.faults.node_failures == 0 &&
                    gated.faults.power_emergencies == 0,
                "empty fault plan injected faults");
}

void add_fault_summaries(report::Section& section,
                         const trace::FaultStats& faults) {
  const auto count = [](std::size_t v) {
    return MetricValue::of_count(static_cast<long long>(v));
  };
  section.add_summary("failures_injected", count(faults.failures_injected));
  section.add_summary("retries", count(faults.retries));
  section.add_summary("jobs_killed", count(faults.jobs_killed));
  section.add_summary("jobs_shed", count(faults.jobs_shed));
  section.add_summary("jobs_abandoned", count(faults.jobs_abandoned));
  section.add_summary("node_failures", count(faults.node_failures));
  section.add_summary("node_recoveries", count(faults.node_recoveries));
  section.add_summary("power_emergencies", count(faults.power_emergencies));
  section.add_summary("node_downtime_s",
                      MetricValue::num(faults.node_downtime_seconds, 1));
  section.add_summary("backoff_delay_s",
                      MetricValue::num(faults.backoff_delay_seconds, 1));
}

report::Section render(const FaultRegime& regime, const trace::SimReport& sim) {
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
  section.add_summary("jobs_completed",
                      MetricValue::of_count(static_cast<long long>(
                          sim.cluster.jobs_completed)));
  section.add_summary("makespan_s",
                      MetricValue::num(sim.cluster.makespan_seconds, 1));
  section.add_summary("mean_wait_s",
                      MetricValue::num(sim.mean_queue_wait_seconds, 1));
  section.add_summary("mean_slowdown", MetricValue::num(sim.mean_slowdown));
  section.add_summary("peak_queue_depth",
                      MetricValue::of_count(
                          static_cast<long long>(sim.peak_queue_depth)));
  section.add_summary("energy_MJ",
                      MetricValue::num(sim.cluster.total_energy_joules / 1.0e6,
                                       2));
  add_fault_summaries(section, sim.faults);
  return section;
}

/// The fleet regime: whole-cluster outages over per-node faults, replayed
/// at two thread counts — the report must be bit-identical (the tentpole
/// determinism contract), and the rendered section comes from the serial
/// run so even a missed mismatch could not drift the baseline.
trace::FleetReport run_fleet(std::size_t threads) {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const trace::Trace fleet_trace = trace::make_regime_trace(
      trace::ReplayRegime::Poisson, kFleetJobs, kFleetClusters * kFleetNodes,
      kSeed, registry.names());

  trace::FleetConfig config;
  config.cluster_count = kFleetClusters;
  config.cluster.node_count = kFleetNodes;
  config.cluster.max_sim_seconds = 1.0e8;
  config.router.policy = trace::RouterPolicy::TenantAffinity;
  config.sim.max_sim_seconds = 1.0e8;
  config.policy = trace::regime_policy(trace::ReplayRegime::Poisson);
  config.seed = kSeed;
  config.threads = std::max<std::size_t>(1, threads);
  config.fault.transient_failure_rate = 0.03;
  config.fault.node_mtbf_seconds = 20000.0;
  config.fault.node_mttr_seconds = 600.0;
  config.cluster_outage_mtbf_seconds = 8000.0;
  config.cluster_outage_duration_seconds = 1500.0;
  return trace::FleetEngine(config).replay(fleet_trace);
}

void require_same_fleet(const trace::FleetReport& a,
                        const trace::FleetReport& b) {
  MIGOPT_ENSURE(a.jobs_submitted == b.jobs_submitted &&
                    a.jobs_completed == b.jobs_completed &&
                    a.makespan_seconds == b.makespan_seconds &&
                    a.total_energy_joules == b.total_energy_joules &&
                    a.mean_queue_wait_seconds == b.mean_queue_wait_seconds &&
                    a.faults.failures_injected == b.faults.failures_injected &&
                    a.faults.retries == b.faults.retries &&
                    a.faults.jobs_killed == b.faults.jobs_killed &&
                    a.faults.jobs_abandoned == b.faults.jobs_abandoned &&
                    a.faults.node_failures == b.faults.node_failures &&
                    a.faults.node_downtime_seconds ==
                        b.faults.node_downtime_seconds &&
                    a.router.outage_readmissions == b.router.outage_readmissions,
                "faulted fleet replay is not thread-count invariant");
}

report::Section render_fleet(const trace::FleetReport& fleet) {
  report::Section section;
  section.title = "fleet outages 4x2";
  section.label_header = "cluster";
  section.columns = {"routed", "completed", "killed+shed", "abandoned"};
  for (std::size_t c = 0; c < fleet.clusters.size(); ++c) {
    const trace::SimReport& sim = fleet.clusters[c];
    section.add_row(
        "cluster " + std::to_string(c),
        {MetricValue::of_count(
             static_cast<long long>(fleet.router.jobs_per_cluster[c])),
         MetricValue::of_count(
             static_cast<long long>(sim.cluster.jobs_completed)),
         MetricValue::of_count(static_cast<long long>(
             sim.faults.jobs_killed + sim.faults.jobs_shed)),
         MetricValue::of_count(
             static_cast<long long>(sim.faults.jobs_abandoned))});
  }
  section.add_summary("jobs_completed",
                      MetricValue::of_count(
                          static_cast<long long>(fleet.jobs_completed)));
  section.add_summary("makespan_s",
                      MetricValue::num(fleet.makespan_seconds, 1));
  section.add_summary("outage_readmissions",
                      MetricValue::of_count(static_cast<long long>(
                          fleet.router.outage_readmissions)));
  add_fault_summaries(section, fleet.faults);
  return section;
}

report::ScenarioResult run(const report::RunContext& ctx) {
  FaultRegime fault_free;
  // No faults, no plan — the pre-fault baseline.
  fault_free.name = "poisson fault-free 10k jobs";
  FaultRegime empty_plan = fault_free;
  empty_plan.name = "poisson empty-plan 10k jobs";
  empty_plan.attach_empty_plan = true;

  FaultRegime transient;
  // 5% transient failure rate, retry x3 with backoff.
  transient.name = "poisson transient 10k jobs";
  transient.fault.transient_failure_rate = 0.05;

  FaultRegime outages;
  // Node crashes (MTBF 15000 s, MTTR 900 s) + 2% transients.
  outages.name = "poisson outages 10k jobs";
  outages.fault.node_mtbf_seconds = 15000.0;
  outages.fault.node_mttr_seconds = 900.0;
  outages.fault.transient_failure_rate = 0.02;

  FaultRegime emergencies;
  // Random-walk budget + 900 W power emergencies.
  emergencies.name = "budget-walk emergencies 10k jobs";
  emergencies.preset = trace::ReplayRegime::BudgetWalk;
  emergencies.fault.power_emergency_mtbf_seconds = 20000.0;
  emergencies.fault.power_emergency_duration_seconds = 600.0;
  emergencies.fault.power_emergency_watts = 900.0;
  emergencies.fault.transient_failure_rate = 0.02;

  const std::vector<FaultRegime> regimes = {fault_free, empty_plan, transient,
                                            outages, emergencies};

  std::vector<trace::SimReport> outcomes(regimes.size());
  ctx.parallel_for(regimes.size(),
                   [&](std::size_t i) { outcomes[i] = run_regime(regimes[i]); });

  require_same_replay(outcomes[0], outcomes[1]);

  const trace::FleetReport fleet_serial = run_fleet(1);
  const trace::FleetReport fleet_threaded =
      run_fleet(std::max<std::size_t>(2, ctx.threads()));
  require_same_fleet(fleet_serial, fleet_threaded);

  report::ScenarioResult result;
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    // The empty-plan twin is bit-identical to the fault-free section by
    // contract.
    if (!regimes[i].attach_empty_plan)
      result.add_section(render(regimes[i], outcomes[i]));
  }
  result.add_section(render_fleet(fleet_serial));
  result.add_note(
      "Reading: the fault-free regime is replayed twice — bare and with an\n"
      "empty fault plan attached — and the bench aborts unless the reports\n"
      "agree bit-for-bit (the null contract of the fault layer). The\n"
      "transient regime pays ~5% of completions as failed attempts and wins\n"
      "them back through capped exponential backoff (failures_injected ==\n"
      "retries + jobs_abandoned when nothing else kills work). The outage\n"
      "regime loses in-flight work to node crashes (jobs_killed) and\n"
      "re-queues it; node_downtime_s is unpowered and exact. The emergency\n"
      "regime drops the budget below the running set's caps and sheds the\n"
      "lowest-priority nodes instead of wedging (jobs_shed). The fleet\n"
      "regime layers whole-cluster outage windows on top and re-admits\n"
      "arrivals to surviving clusters (outage_readmissions); it runs at two\n"
      "thread counts and aborts on any bit drift. All counters are exact\n"
      "gates.");
  return result;
}

[[maybe_unused]] const bool registered = report::register_scenario(
    {"fault_replay", "Extension: deterministic fault injection",
     "10k-job regime traces under seeded node crashes, transient retries "
     "with backoff, and power emergencies, plus a 4-cluster fleet with "
     "whole-cluster outages — every fault counter an exact gate",
     run});

}  // namespace

int main(int argc, char** argv) {
  return migopt::report::run_main("ext_fault_replay", argc, argv);
}
