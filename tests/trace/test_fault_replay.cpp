// Failure-aware replay: SimEngine + fault::FaultPlan end to end. The two
// contracts under test are byte-identity (an empty/absent plan must not
// perturb a single bit of the fault-free replay) and determinism under
// faults (same plan → same report; fleet reports identical for any thread
// count). Scenario mechanics — kills, retries, backoff, shedding,
// abandonment — are pinned through the conservation identities they must
// satisfy.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "fault/fault.hpp"
#include "report_equality.hpp"
#include "test_util.hpp"
#include "trace/fleet.hpp"
#include "trace/generator.hpp"
#include "trace/sim_engine.hpp"

namespace migopt::trace {
namespace {

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

Trace poisson_trace(std::size_t jobs, std::uint64_t seed) {
  ArrivalConfig config;
  config.jobs = jobs;
  config.arrival_rate_hz = 0.2;
  config.tenant_count = 3;
  return make_arrival_trace(config, test::shared_registry().names(), seed);
}

SimReport replay(const Trace& trace, int nodes, SimConfig sim_config = {}) {
  auto allocator = make_allocator();
  sched::CoScheduler scheduler(allocator, core::Policy::problem1(250.0, 0.2));
  sched::ClusterConfig config;
  config.node_count = nodes;
  sched::Cluster cluster(config);
  return SimEngine(sim_config).replay(trace, test::shared_registry(), cluster,
                                      scheduler);
}

double trace_horizon(const Trace& trace) {
  return trace.events.empty() ? 0.0 : trace.events.back().time_seconds;
}

TEST(FaultReplay, EmptyPlanIsByteIdenticalToNoPlan) {
  // The byte-identity gate of the whole PR: an empty plan (and a config
  // whose channels are all off) must replay exactly like a null plan — the
  // checked-in fault-free bench baselines depend on it.
  const Trace trace = poisson_trace(150, 17);
  const SimReport bare = replay(trace, 4);

  const fault::FaultPlan empty;
  SimConfig with_empty;
  with_empty.faults = &empty;
  const SimReport gated = replay(trace, 4, with_empty);
  test::expect_sim_reports_bit_identical(bare, gated);
  EXPECT_EQ(gated.faults.failures_injected, 0u);
  EXPECT_EQ(gated.faults.retries, 0u);

  const fault::FaultPlan expanded =
      fault::make_fault_plan(fault::FaultConfig{}, 4, trace_horizon(trace), 17);
  SimConfig with_expanded;
  with_expanded.faults = &expanded;
  test::expect_sim_reports_bit_identical(bare, replay(trace, 4, with_expanded));
}

TEST(FaultReplay, TransientFailuresRetryBackoffAndConserve) {
  const Trace trace = poisson_trace(200, 23);
  fault::FaultConfig config;
  config.transient_failure_rate = 0.15;
  const fault::FaultPlan plan =
      fault::make_fault_plan(config, 4, trace_horizon(trace), 23);
  SimConfig sim;
  sim.faults = &plan;
  const SimReport report = replay(trace, 4, sim);

  EXPECT_GT(report.faults.failures_injected, 0u);
  EXPECT_GT(report.faults.retries, 0u);
  EXPECT_GT(report.faults.backoff_delay_seconds, 0.0);
  EXPECT_EQ(report.faults.jobs_killed, 0u);
  EXPECT_EQ(report.faults.node_failures, 0u);
  // Every failure (transient, kill, shed) either retried or abandoned.
  EXPECT_EQ(report.faults.retries + report.faults.jobs_abandoned,
            report.faults.failures_injected + report.faults.jobs_killed +
                report.faults.jobs_shed);
  // Conservation at the end: cluster completions count physical runs, so
  // submitted + failed attempts == physical completions + abandoned.
  EXPECT_EQ(report.jobs_submitted + report.faults.failures_injected,
            report.cluster.jobs_completed + report.faults.jobs_abandoned);
}

TEST(FaultReplay, ZeroRetryBudgetAbandonsEveryFailure) {
  const Trace trace = poisson_trace(150, 29);
  fault::FaultConfig config;
  config.transient_failure_rate = 0.2;
  config.retry.max_retries = 0;
  const fault::FaultPlan plan =
      fault::make_fault_plan(config, 4, trace_horizon(trace), 29);
  SimConfig sim;
  sim.faults = &plan;
  const SimReport report = replay(trace, 4, sim);
  EXPECT_GT(report.faults.failures_injected, 0u);
  EXPECT_EQ(report.faults.retries, 0u);
  EXPECT_DOUBLE_EQ(report.faults.backoff_delay_seconds, 0.0);
  EXPECT_EQ(report.faults.jobs_abandoned, report.faults.failures_injected);
  EXPECT_EQ(report.jobs_submitted + report.faults.failures_injected,
            report.cluster.jobs_completed + report.faults.jobs_abandoned);
}

TEST(FaultReplay, NodeOutageKillsInFlightWorkAndRecovers) {
  // A hand-written plan instead of a drawn one: node 0 crashes in the thick
  // of a saturated replay and rejoins 400 s later. The window length must
  // come back exactly as node downtime, the in-flight kill must feed the
  // retry path, and everything still finishes.
  const Trace trace = poisson_trace(120, 31);
  fault::FaultPlan plan;
  plan.events.push_back({200.0, fault::FaultKind::NodeFail, 0, 0.0});
  plan.events.push_back({600.0, fault::FaultKind::NodeRecover, 0, 0.0});
  plan.events.push_back({700.0, fault::FaultKind::NodeFail, 1, 0.0});
  plan.events.push_back({900.0, fault::FaultKind::NodeRecover, 1, 0.0});
  plan.validate();
  SimConfig sim;
  sim.faults = &plan;
  const SimReport report = replay(trace, 2, sim);

  EXPECT_EQ(report.faults.node_failures, 2u);
  EXPECT_EQ(report.faults.node_recoveries, 2u);
  EXPECT_DOUBLE_EQ(report.faults.node_downtime_seconds, 600.0);
  EXPECT_GT(report.faults.jobs_killed, 0u);
  EXPECT_EQ(report.faults.failures_injected, 0u);
  EXPECT_EQ(report.faults.retries + report.faults.jobs_abandoned,
            report.faults.jobs_killed + report.faults.jobs_shed);
  EXPECT_EQ(report.jobs_submitted,
            report.cluster.jobs_completed + report.faults.jobs_abandoned);
}

TEST(FaultReplay, PowerEmergencyShedsAndRestores) {
  // Saturate 4 nodes, then slash the budget to one node's worth mid-run:
  // graceful degradation must shed running nodes down to the emergency
  // contract instead of wedging, and the standing (absent) trace budget
  // must come back at EmergencyEnd — so the tail still completes at full
  // width and every shed job retries.
  const Trace trace = poisson_trace(150, 37);
  fault::FaultPlan plan;
  plan.events.push_back({250.0, fault::FaultKind::EmergencyBegin, -1, 260.0});
  plan.events.push_back({700.0, fault::FaultKind::EmergencyEnd, -1, 0.0});
  plan.validate();
  SimConfig sim;
  sim.faults = &plan;
  const SimReport report = replay(trace, 4, sim);

  EXPECT_EQ(report.faults.power_emergencies, 1u);
  EXPECT_GT(report.faults.jobs_shed, 0u);
  EXPECT_EQ(report.faults.node_failures, 0u);
  EXPECT_EQ(report.faults.retries + report.faults.jobs_abandoned,
            report.faults.jobs_shed);
  EXPECT_EQ(report.jobs_submitted,
            report.cluster.jobs_completed + report.faults.jobs_abandoned);
}

TEST(FaultReplay, FaultedReplayIsDeterministic) {
  const Trace trace = poisson_trace(200, 43);
  fault::FaultConfig config;
  config.transient_failure_rate = 0.1;
  config.node_mtbf_seconds = 2000.0;
  config.node_mttr_seconds = 300.0;
  config.power_emergency_mtbf_seconds = 3000.0;
  config.power_emergency_duration_seconds = 200.0;
  config.power_emergency_watts = 400.0;
  const fault::FaultPlan plan =
      fault::make_fault_plan(config, 4, trace_horizon(trace), 43);
  SimConfig sim;
  sim.faults = &plan;
  const SimReport a = replay(trace, 4, sim);
  const SimReport b = replay(trace, 4, sim);
  test::expect_sim_reports_bit_identical(a, b);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.jobs_killed, b.faults.jobs_killed);
  EXPECT_EQ(a.faults.jobs_shed, b.faults.jobs_shed);
  EXPECT_EQ(a.faults.jobs_abandoned, b.faults.jobs_abandoned);
  EXPECT_EQ(a.faults.node_downtime_seconds, b.faults.node_downtime_seconds);
  EXPECT_EQ(a.faults.backoff_delay_seconds, b.faults.backoff_delay_seconds);
  // And the faulted replay exercised something.
  EXPECT_GT(a.faults.failures_injected + a.faults.node_failures, 0u);
}

TEST(FaultReplay, GuardDiagnosticsNameJobRetriesAndDownNodes) {
  // Trip the simulated-time guard with a fault plan active: the message
  // must name the guard, the head job in trace terms, the spent retry
  // budget, and the down-node census.
  Trace trace;
  trace.events.push_back(TraceEvent::arrival(0.0, "acme-ml", "sgemm", 50.0));
  trace.events.push_back(TraceEvent::arrival(0.0, "acme-ml", "sgemm", 50.0));
  fault::FaultPlan plan;
  // Never-recovering crash parks the queue; the far-future arrival then
  // overruns the guard. (A hand-built adversarial plan — make_fault_plan
  // always pairs a recovery.)
  plan.events.push_back({1.0, fault::FaultKind::NodeFail, 0, 0.0});
  trace.events.push_back(
      TraceEvent::arrival(5.0e6, "acme-ml", "stream", 1.0));
  SimConfig sim;
  sim.faults = &plan;
  sim.max_sim_seconds = 1.0e5;
  try {
    replay(trace, 1, sim);
    FAIL() << "guard overrun did not throw";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("exceeded its simulated-time guard"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("app 'sgemm'"), std::string::npos) << message;
    EXPECT_NE(message.find("tenant 'acme-ml'"), std::string::npos) << message;
    EXPECT_NE(message.find("retries"), std::string::npos) << message;
    EXPECT_NE(message.find("1 node(s) down [0]"), std::string::npos)
        << message;
  }
}

TEST(FaultReplay, StallDiagnosticsIncludeFaultState) {
  // The classic budget wedge, now with a (harmless) fault plan active: the
  // original operator-facing fragments survive and the fault suffix
  // reports a healthy node census.
  Trace trace;
  trace.events.push_back(TraceEvent::budget(0.0, 50.0));
  trace.events.push_back(TraceEvent::arrival(1.0, "acme-ml", "sgemm", 10.0));
  fault::FaultConfig config;
  config.transient_failure_rate = 1.0e-12;  // non-empty plan, never fires
  const fault::FaultPlan plan = fault::make_fault_plan(config, 2, 10.0, 1);
  SimConfig sim;
  sim.faults = &plan;
  try {
    replay(trace, 2, sim);
    FAIL() << "stalled replay did not throw";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("app 'sgemm'"), std::string::npos) << message;
    EXPECT_NE(message.find("tenant 'acme-ml'"), std::string::npos) << message;
    EXPECT_NE(message.find("power budget"), std::string::npos) << message;
    EXPECT_NE(message.find("0/3 retries"), std::string::npos) << message;
    EXPECT_NE(message.find("no nodes down"), std::string::npos) << message;
  }
}

TEST(FaultReplay, FleetFaultsAreThreadCountInvariant) {
  // The fleet acceptance gate: per-node faults plus whole-cluster outages,
  // replayed at 1, 4, and 16 threads — reports must agree bit for bit
  // (per-shard plans derive from the recorded shard seeds, outage windows
  // from the fleet seed; nothing depends on scheduling order).
  const Trace fleet_trace = poisson_trace(400, 53);
  FleetConfig config;
  config.cluster_count = 4;
  config.cluster.node_count = 2;
  config.seed = 53;
  config.fault.transient_failure_rate = 0.08;
  config.fault.node_mtbf_seconds = 3000.0;
  config.fault.node_mttr_seconds = 400.0;
  config.cluster_outage_mtbf_seconds = 2500.0;
  config.cluster_outage_duration_seconds = 300.0;

  const auto run_with = [&](std::size_t threads) {
    FleetConfig c = config;
    c.threads = threads;
    return FleetEngine(c).replay(fleet_trace);
  };
  const FleetReport serial = run_with(1);
  const FleetReport four = run_with(4);
  const FleetReport wide = run_with(16);

  // The scenario actually exercised the fault machinery.
  EXPECT_GT(serial.faults.node_failures, 0u);
  EXPECT_GT(serial.faults.failures_injected, 0u);

  for (const FleetReport* other : {&four, &wide}) {
    EXPECT_EQ(serial.jobs_submitted, other->jobs_submitted);
    EXPECT_EQ(serial.jobs_completed, other->jobs_completed);
    EXPECT_EQ(serial.makespan_seconds, other->makespan_seconds);
    EXPECT_EQ(serial.total_energy_joules, other->total_energy_joules);
    EXPECT_EQ(serial.mean_queue_wait_seconds, other->mean_queue_wait_seconds);
    EXPECT_EQ(serial.mean_slowdown, other->mean_slowdown);
    EXPECT_EQ(serial.faults.failures_injected,
              other->faults.failures_injected);
    EXPECT_EQ(serial.faults.retries, other->faults.retries);
    EXPECT_EQ(serial.faults.jobs_killed, other->faults.jobs_killed);
    EXPECT_EQ(serial.faults.jobs_shed, other->faults.jobs_shed);
    EXPECT_EQ(serial.faults.jobs_abandoned, other->faults.jobs_abandoned);
    EXPECT_EQ(serial.faults.node_failures, other->faults.node_failures);
    EXPECT_EQ(serial.faults.node_downtime_seconds,
              other->faults.node_downtime_seconds);
    EXPECT_EQ(serial.faults.backoff_delay_seconds,
              other->faults.backoff_delay_seconds);
    EXPECT_EQ(serial.router.outage_readmissions,
              other->router.outage_readmissions);
    ASSERT_EQ(serial.clusters.size(), other->clusters.size());
    for (std::size_t c = 0; c < serial.clusters.size(); ++c) {
      EXPECT_EQ(serial.clusters[c].cluster.makespan_seconds,
                other->clusters[c].cluster.makespan_seconds);
      EXPECT_EQ(serial.clusters[c].faults.retries,
                other->clusters[c].faults.retries);
    }
  }
}

TEST(FaultReplay, FleetOutageReadmitsArrivalsToSurvivors) {
  // Cluster outages alone (no per-node faults): arrivals that would land on
  // a downed cluster re-route to the next surviving one, the router books
  // them there, and the outage realizes as whole-cluster downtime.
  const Trace fleet_trace = poisson_trace(400, 59);
  FleetConfig config;
  config.cluster_count = 4;
  config.cluster.node_count = 2;
  config.seed = 59;
  config.cluster_outage_mtbf_seconds = 1500.0;
  config.cluster_outage_duration_seconds = 400.0;
  const FleetReport report = FleetEngine(config).replay(fleet_trace);

  EXPECT_GT(report.router.outage_readmissions, 0u);
  EXPECT_GT(report.faults.node_failures, 0u);
  EXPECT_EQ(report.faults.node_failures, report.faults.node_recoveries);
  EXPECT_GT(report.faults.node_downtime_seconds, 0.0);
  EXPECT_EQ(report.faults.failures_injected, 0u);  // no transient channel
  // Router books match the re-admitted assignment.
  std::size_t routed = 0;
  for (const std::size_t n : report.router.jobs_per_cluster) routed += n;
  EXPECT_EQ(routed, report.jobs_submitted);
  std::size_t shard_submitted = 0;
  for (const SimReport& shard : report.clusters)
    shard_submitted += shard.jobs_submitted;
  EXPECT_EQ(shard_submitted, fleet_trace.job_count());
  EXPECT_EQ(report.jobs_submitted,
            report.jobs_completed + report.faults.jobs_abandoned);
}

TEST(FaultReplay, FleetWithoutFaultsMatchesPreFaultReport) {
  // Fleet byte-identity: default FleetConfig (no fault channels) produces
  // all-zero FaultStats and the replay equals one with an explicitly
  // disabled fault config (the same object the CLI builds when no fault
  // flag is passed).
  const Trace fleet_trace = poisson_trace(200, 61);
  FleetConfig bare;
  bare.cluster_count = 2;
  bare.cluster.node_count = 2;
  bare.seed = 61;
  const FleetReport a = FleetEngine(bare).replay(fleet_trace);
  FleetConfig disabled = bare;
  disabled.fault = fault::FaultConfig{};
  disabled.cluster_outage_mtbf_seconds = 0.0;
  const FleetReport b = FleetEngine(disabled).replay(fleet_trace);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.faults.failures_injected, 0u);
  EXPECT_EQ(a.faults.node_failures, 0u);
  EXPECT_EQ(a.faults.node_downtime_seconds, 0.0);
  EXPECT_EQ(a.router.outage_readmissions, 0u);
}

}  // namespace
}  // namespace migopt::trace
