// Observability regression pins for the replay stack (migopt::obs):
//
//  1. Legacy-series equivalence — the obs::Sampler replaced the old
//     SimConfig::sample_interval_seconds path; the shared {time, queue
//     depth, running, cache hit rate} columns must be bit-identical to the
//     series the deleted code produced on the PR 4 regimes (goldens were
//     captured from the legacy implementation before its removal).
//  2. On/off invariance — attaching every sink (metrics registry, sampler,
//     span tracer) must not perturb a single bit of the SimReport.
//  3. Thread invariance — a fleet replay's merged metrics document is
//     byte-identical for any --threads value.
//  4. Report consistency — harvested counters/gauges equal the
//     corresponding ClusterReport fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span_tracer.hpp"
#include "report_equality.hpp"
#include "test_util.hpp"
#include "trace/fleet.hpp"
#include "trace/generator.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"

namespace migopt::trace {
namespace {

constexpr std::size_t kJobs = 10000;
constexpr int kNodes = 8;
constexpr std::uint64_t kSeed = 7;

core::ResourcePowerAllocator& shared_allocator() {
  static core::ResourcePowerAllocator allocator =
      core::ResourcePowerAllocator::train(test::shared_chip(),
                                          test::shared_registry(),
                                          wl::table8_pairs());
  return allocator;
}

/// Mirror of the PR 4 bench environment (and of the legacy golden-capture
/// harness): 10k jobs, 8 nodes, seed 7, regime preset policy.
SimReport run_regime(ReplayRegime regime, const SimConfig& sim_config) {
  sched::CoScheduler scheduler(shared_allocator(), regime_policy(regime), {});
  sched::ClusterConfig cluster_config;
  cluster_config.node_count = kNodes;
  cluster_config.max_sim_seconds = 1.0e8;
  sched::Cluster cluster(cluster_config);
  const Trace job_trace = make_regime_trace(regime, kJobs, kNodes, kSeed,
                                            test::shared_registry().names());
  return SimEngine(sim_config)
      .replay(job_trace, test::shared_registry(), cluster, scheduler);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of the columns the legacy series recorded, over their exact bit
/// patterns — matches the capture harness that produced the goldens.
std::uint64_t legacy_series_hash(const obs::SampleSeries& series) {
  std::uint64_t h = 1469598103934665603ull;
  for (const obs::SampleRow& row : series.rows) {
    std::uint64_t bits;
    std::memcpy(&bits, &row.time_seconds, 8);
    h = fnv1a(h, &bits, 8);
    h = fnv1a(h, &row.queue_depth, 8);
    h = fnv1a(h, &row.running, 8);
    std::memcpy(&bits, &row.cache_hit_rate, 8);
    h = fnv1a(h, &bits, 8);
  }
  return h;
}

struct GoldenRow {
  std::size_t index;
  double time_seconds;
  std::uint64_t queue_depth;
  std::uint64_t running;
  double cache_hit_rate;
};

struct Golden {
  ReplayRegime regime;
  std::size_t count;
  std::uint64_t hash;
  std::vector<GoldenRow> rows;
};

// Captured from the legacy SimConfig::sample_interval_seconds implementation
// (interval 500 s) immediately before its removal. The bursty and
// budget-walk series were re-pinned when the completion-heap event core
// became the only one: its coarser integration steps move some sample
// times in the last bits (every integer column is unchanged). Hex float
// literals keep the values exact to the last bit.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> pins = {
      {ReplayRegime::Poisson,
       75,
       0xea2afa0bae0426b5ull,
       {{0, 0.0, 0, 0, 0.0},
        {37, 0x1.224a9abc6941dp+14, 2, 9, 0x1.e36e36e36e36ep-1},
        {74, 0x1.22171bc579a62p+15, 0, 6, 0x1.ef0faa7513fa1p-1}}},
      {ReplayRegime::Bursty,
       78,
       0x7cc471a1bb11e7ccull,
       {{39, 0x1.317739fbdad08p+14, 0, 1, 0x1.f737640da8c72p-1},
        {77, 0x1.2e0e8887927b7p+15, 45, 10, 0x1.fb2466508e6b1p-1}}},
      {ReplayRegime::BudgetWalk,
       84,
       0xc4edda13db59a770ull,
       {{42, 0x1.49246ed37e154p+14, 254, 8, 0x1.df617df3ac5c2p-1},
        {83, 0x1.457dfa31ee5dfp+15, 40, 5, 0x1.efaea028cdeffp-1}}},
  };
  return pins;
}

TEST(ObsReplay, SamplerMatchesLegacySeriesBitExactly) {
  for (const Golden& golden : goldens()) {
    SimConfig sim_config;
    sim_config.max_sim_seconds = 1.0e8;
    sim_config.telemetry.interval_seconds = 500.0;
    const SimReport report = run_regime(golden.regime, sim_config);
    const obs::SampleSeries& series = report.telemetry;
    ASSERT_EQ(series.rows.size(), golden.count)
        << regime_name(golden.regime);
    EXPECT_EQ(legacy_series_hash(series), golden.hash)
        << regime_name(golden.regime);
    for (const GoldenRow& pin : golden.rows) {
      const obs::SampleRow& row = series.rows[pin.index];
      EXPECT_EQ(row.time_seconds, pin.time_seconds);
      EXPECT_EQ(row.queue_depth, pin.queue_depth);
      EXPECT_EQ(row.running, pin.running);
      EXPECT_EQ(row.cache_hit_rate, pin.cache_hit_rate);
    }
    // The widened columns stay internally consistent.
    for (const obs::SampleRow& row : series.rows) {
      EXPECT_EQ(row.busy_nodes + row.idle_nodes,
                static_cast<std::uint64_t>(kNodes));
      EXPECT_GE(row.dispatched, 0u);
      EXPECT_LE(row.completed, report.cluster.jobs_completed);
    }
  }
}

TEST(ObsReplay, FullObservabilityDoesNotPerturbTheReport) {
  SimConfig plain;
  plain.max_sim_seconds = 1.0e8;
  const SimReport off = run_regime(ReplayRegime::Poisson, plain);

  obs::Registry registry;
  obs::SpanTracer tracer(true);
  SimConfig instrumented = plain;
  instrumented.telemetry.interval_seconds = 500.0;
  instrumented.metrics = &registry;
  instrumented.tracer = &tracer;
  const SimReport on = run_regime(ReplayRegime::Poisson, instrumented);

  test::expect_sim_reports_bit_identical(off, on);
  EXPECT_GT(registry.size(), 0u);
  EXPECT_GT(tracer.event_count(), 0u);
}

TEST(ObsReplay, FleetMetricsDocumentIsThreadCountInvariant) {
  ArrivalConfig arrivals;
  arrivals.jobs = 600;
  arrivals.arrival_rate_hz = 0.5;
  arrivals.tenant_count = 6;
  const Trace trace =
      make_arrival_trace(arrivals, test::shared_registry().names(), 11);

  std::string baseline;
  for (const std::size_t threads : {1u, 4u, 16u}) {
    FleetConfig config;
    config.cluster_count = 4;
    config.cluster.node_count = 2;
    config.threads = threads;
    config.sim.telemetry.interval_seconds = 50.0;
    obs::Registry registry;
    config.metrics = &registry;
    FleetEngine(config).replay(trace);
    const std::string dump =
        obs::metrics_document(registry, "test", json::Value()).dump();
    EXPECT_GT(registry.counter_value("fleet.router.decisions"), 0u);
    if (baseline.empty())
      baseline = dump;
    else
      EXPECT_EQ(dump, baseline) << "threads=" << threads;
  }
}

TEST(ObsReplay, HarvestedCountersMatchClusterReport) {
  obs::Registry registry;
  SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  sim_config.metrics = &registry;
  const SimReport report = run_regime(ReplayRegime::Bursty, sim_config);

  EXPECT_EQ(registry.counter_value("replay.jobs_submitted"),
            report.jobs_submitted);
  EXPECT_EQ(registry.counter_value("replay.jobs_completed"),
            report.cluster.jobs_completed);
  EXPECT_EQ(registry.counter_value("replay.budget_events"),
            report.budget_events_applied);
  EXPECT_EQ(registry.counter_value("cluster.pair_dispatches"),
            report.cluster.pair_dispatches);
  EXPECT_EQ(registry.counter_value("cluster.exclusive_dispatches"),
            report.cluster.exclusive_dispatches);
  EXPECT_EQ(registry.counter_value("cluster.profile_runs"),
            report.cluster.profile_runs);
  EXPECT_EQ(registry.counter_value("decision_cache.hits"),
            report.cluster.decision_cache_hits);
  EXPECT_EQ(registry.counter_value("decision_cache.misses"),
            report.cluster.decision_cache_misses);
  EXPECT_EQ(registry.counter_value("run_memo.hits"),
            report.cluster.run_memo_hits);
  EXPECT_EQ(registry.gauge_value("replay.peak_queue_depth"),
            static_cast<double>(report.peak_queue_depth));
  EXPECT_EQ(registry.gauge_value("replay.makespan_seconds"),
            report.cluster.makespan_seconds);
  // Every completion recorded one wait and one slowdown sample.
  const obs::Histogram* waits =
      registry.histogram_value("replay.queue_wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count, report.cluster.jobs_completed);
  const obs::Histogram* slowdowns =
      registry.histogram_value("replay.slowdown_milli");
  ASSERT_NE(slowdowns, nullptr);
  EXPECT_EQ(slowdowns->count, report.cluster.jobs_completed);
}

}  // namespace
}  // namespace migopt::trace
