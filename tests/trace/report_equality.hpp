// Exact comparison of two replay reports, shared by the trace suites whose
// contract is "this change of plumbing does not move a single bit".
#pragma once

#include <gtest/gtest.h>

#include "trace/sim_engine.hpp"

namespace migopt::test {

/// Every deterministic SimReport field (not telemetry or host-time phase
/// counters), compared with == rather than near: a bit-identity check.
inline void expect_sim_reports_bit_identical(const trace::SimReport& a,
                                             const trace::SimReport& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.budget_events_applied, b.budget_events_applied);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.mean_queue_wait_seconds, b.mean_queue_wait_seconds);
  EXPECT_EQ(a.max_queue_wait_seconds, b.max_queue_wait_seconds);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_EQ(a.jobs_per_hour, b.jobs_per_hour);
  EXPECT_EQ(a.cluster.jobs_completed, b.cluster.jobs_completed);
  EXPECT_EQ(a.cluster.makespan_seconds, b.cluster.makespan_seconds);
  EXPECT_EQ(a.cluster.total_energy_joules, b.cluster.total_energy_joules);
  EXPECT_EQ(a.cluster.pair_dispatches, b.cluster.pair_dispatches);
  EXPECT_EQ(a.cluster.exclusive_dispatches, b.cluster.exclusive_dispatches);
  EXPECT_EQ(a.cluster.profile_runs, b.cluster.profile_runs);
  EXPECT_EQ(a.cluster.decision_cache_hits, b.cluster.decision_cache_hits);
  EXPECT_EQ(a.cluster.decision_cache_misses, b.cluster.decision_cache_misses);
  EXPECT_EQ(a.cluster.mean_turnaround, b.cluster.mean_turnaround);
  EXPECT_EQ(a.cluster.peak_cap_sum_watts, b.cluster.peak_cap_sum_watts);
  EXPECT_EQ(a.faults.failures_injected, b.faults.failures_injected);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.jobs_killed, b.faults.jobs_killed);
  EXPECT_EQ(a.faults.jobs_shed, b.faults.jobs_shed);
  EXPECT_EQ(a.faults.jobs_abandoned, b.faults.jobs_abandoned);
  EXPECT_EQ(a.faults.node_failures, b.faults.node_failures);
  EXPECT_EQ(a.faults.node_recoveries, b.faults.node_recoveries);
  EXPECT_EQ(a.faults.power_emergencies, b.faults.power_emergencies);
  EXPECT_EQ(a.faults.node_downtime_seconds, b.faults.node_downtime_seconds);
  EXPECT_EQ(a.faults.backoff_delay_seconds, b.faults.backoff_delay_seconds);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_EQ(a.tenants[i].jobs_submitted, b.tenants[i].jobs_submitted);
    EXPECT_EQ(a.tenants[i].jobs_completed, b.tenants[i].jobs_completed);
    EXPECT_EQ(a.tenants[i].mean_queue_wait_seconds,
              b.tenants[i].mean_queue_wait_seconds);
    EXPECT_EQ(a.tenants[i].mean_slowdown, b.tenants[i].mean_slowdown);
  }
}

}  // namespace migopt::test
