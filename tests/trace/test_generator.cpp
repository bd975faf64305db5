#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>

#include "common/assert.hpp"
#include "test_util.hpp"
#include "trace/presets.hpp"

namespace migopt::trace {
namespace {

std::vector<std::string> app_names() { return test::shared_registry().names(); }

TEST(Generator, FixedSeedReproducesTheTraceExactly) {
  ArrivalConfig config;
  config.jobs = 500;
  config.high_priority_fraction = 0.2;
  config.deadline_factor = 20.0;
  config.diurnal_amplitude = 0.5;
  const Trace a = make_arrival_trace(config, app_names(), 1234);
  const Trace b = make_arrival_trace(config, app_names(), 1234);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time_seconds, b.events[i].time_seconds);
    EXPECT_EQ(a.events[i].tenant, b.events[i].tenant);
    EXPECT_EQ(a.events[i].app, b.events[i].app);
    EXPECT_EQ(a.events[i].work_seconds, b.events[i].work_seconds);
    EXPECT_EQ(a.events[i].priority, b.events[i].priority);
    EXPECT_EQ(a.events[i].deadline_seconds, b.events[i].deadline_seconds);
  }
  // A different seed must not replay the same stream.
  const Trace c = make_arrival_trace(config, app_names(), 1235);
  bool any_difference = c.events.size() != a.events.size();
  for (std::size_t i = 0; !any_difference && i < a.events.size(); ++i)
    any_difference = a.events[i].time_seconds != c.events[i].time_seconds ||
                     a.events[i].app != c.events[i].app;
  EXPECT_TRUE(any_difference);
}

/// Raw bits of a double, so pinned values compare exactly.
std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// 64-bit FNV-1a over a file's bytes.
std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c; in.get(c);) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(Generator, SeededTraceMatchesPinnedEvents) {
  // Each arrival draws its app, then its tenant. The values below were
  // generated in that order; a compiler or rewrite that draws the tenant
  // first changes every event here and every pinned replay baseline.
  struct Pinned {
    const char* app;
    const char* tenant;
    std::uint64_t time_bits;
    std::uint64_t work_bits;
  };
  const Pinned pinned[] = {
      {"lud", "t1", 0x3fd51eb9b53f24d6ULL, 0x403a70e7c7085479ULL},
      {"pathfinder", "t0", 0x3fe0bc46993e5dcfULL, 0x402a6860b39ab407ULL},
      {"gaussian", "t2", 0x3fe57420a42e6f56ULL, 0x40421dbac8f94f23ULL},
      {"bf16gemm", "t4", 0x400996ee1373c5b8ULL, 0x4031f9a94e3232f2ULL},
      {"sgemm", "t0", 0x400b8892c8278e89ULL, 0x4037d410628604f8ULL},
      {"heartwell", "t3", 0x401337f85be1a42fULL, 0x401ebfe3731ada2eULL},
      {"lud", "t5", 0x4017d4fd7cd16dfcULL, 0x403ac180b402e505ULL},
      {"heartwell", "t0", 0x401ba55762624f34ULL, 0x40464714bb4ab253ULL},
  };
  ArrivalConfig config;
  config.jobs = 8;
  config.tenant_count = 6;
  const Trace trace = make_arrival_trace(config, app_names(), 7);
  ASSERT_EQ(trace.events.size(), std::size(pinned));
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    SCOPED_TRACE(i);
    const TraceEvent& event = trace.events[i];
    EXPECT_EQ(event.app, pinned[i].app);
    EXPECT_EQ(event.tenant, pinned[i].tenant);
    EXPECT_EQ(bits_of(event.time_seconds), pinned[i].time_bits);
    EXPECT_EQ(bits_of(event.work_seconds), pinned[i].work_bits);
  }
}

TEST(Generator, ArrivalTraceIsSortedSizedAndInBounds) {
  ArrivalConfig config;
  config.jobs = 1000;
  config.tenant_count = 3;
  config.high_priority_fraction = 0.25;
  const Trace trace = make_arrival_trace(config, app_names(), 42);
  trace.validate();  // sorted + per-event sanity
  EXPECT_EQ(trace.job_count(), config.jobs);
  EXPECT_EQ(trace.budget_event_count(), 0u);
  std::set<std::string> tenants;
  std::set<std::string> apps;
  std::size_t high_priority = 0;
  for (const TraceEvent& event : trace.events) {
    tenants.insert(event.tenant);
    apps.insert(event.app);
    EXPECT_GE(event.work_seconds, config.min_work_seconds);
    EXPECT_LE(event.work_seconds, config.max_work_seconds);
    if (event.priority == 1) ++high_priority;
  }
  EXPECT_EQ(tenants.size(), 3u);
  // The Zipf mix is heavy-tailed, not degenerate: several apps appear.
  EXPECT_GT(apps.size(), 5u);
  // Priority sampling is stochastic but 1000 draws at 25% cannot miss.
  EXPECT_GT(high_priority, 100u);
  EXPECT_LT(high_priority, 500u);
}

TEST(Generator, DiurnalModulationShiftsArrivalMass) {
  // With amplitude 0.9 and a period of 1000 s, the first half-period (crest)
  // must hold clearly more arrivals than the second (trough).
  ArrivalConfig config;
  config.jobs = 2000;
  config.arrival_rate_hz = 2.0;
  config.diurnal_amplitude = 0.9;
  config.diurnal_period_seconds = 1000.0;
  const Trace trace = make_arrival_trace(config, app_names(), 99);
  std::size_t crest = 0;
  std::size_t trough = 0;
  for (const TraceEvent& event : trace.events) {
    const double phase = std::fmod(event.time_seconds, 1000.0);
    (phase < 500.0 ? crest : trough) += 1;
  }
  EXPECT_GT(crest, trough * 2);
}

TEST(Generator, BudgetWalkStaysInsideItsWalls) {
  BudgetWalkConfig config;
  config.start_watts = 1000.0;
  config.min_watts = 700.0;
  config.max_watts = 1300.0;
  config.step_watts = 150.0;
  config.interval_seconds = 10.0;
  config.horizon_seconds = 5000.0;
  const Trace walk = make_budget_walk(config, 5);
  walk.validate();
  EXPECT_EQ(walk.job_count(), 0u);
  EXPECT_EQ(walk.budget_event_count(), 501u);  // t=0 plus 500 intervals
  std::set<double> levels;
  for (const TraceEvent& event : walk.events) {
    EXPECT_GE(event.budget_watts, config.min_watts);
    EXPECT_LE(event.budget_watts, config.max_watts);
    levels.insert(event.budget_watts);
  }
  EXPECT_GT(levels.size(), 2u);  // it actually walks
  const Trace again = make_budget_walk(config, 5);
  for (std::size_t i = 0; i < walk.events.size(); ++i)
    EXPECT_EQ(walk.events[i].budget_watts, again.events[i].budget_watts);
}

TEST(Presets, SavedRegimeTracesMatchPinnedBytes) {
  // The saved CSV and JSON of each regime trace (2k jobs, 8 nodes, seed 7)
  // are pinned by a hash of their bytes: the event layout may change, the
  // files may not.
  struct Pinned {
    ReplayRegime regime;
    std::uint64_t csv_hash;
    std::uint64_t json_hash;
  };
  const Pinned pinned[] = {
      {ReplayRegime::Poisson, 0x295ae638256d3cbeULL, 0x09b017d6f65d14b2ULL},
      {ReplayRegime::Bursty, 0x535a94acd1e19e69ULL, 0x29624cd3a44f640dULL},
      {ReplayRegime::BudgetWalk, 0x3afe8bfad0e23731ULL, 0x455c88bef078d5a7ULL},
  };
  const std::string csv_path = ::testing::TempDir() + "/pinned_regime.csv";
  const std::string json_path = ::testing::TempDir() + "/pinned_regime.json";
  for (const Pinned& entry : pinned) {
    SCOPED_TRACE(regime_name(entry.regime));
    const Trace trace =
        make_regime_trace(entry.regime, 2000, 8, 7, app_names());
    trace.save_csv(csv_path);
    trace.save_json(json_path);
    EXPECT_EQ(file_hash(csv_path), entry.csv_hash);
    EXPECT_EQ(file_hash(json_path), entry.json_hash);
  }
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Presets, RegimeNamesRoundTripAndRecipesDiffer) {
  for (const auto regime :
       {ReplayRegime::Poisson, ReplayRegime::Bursty, ReplayRegime::BudgetWalk})
    EXPECT_EQ(parse_regime(regime_name(regime)), regime);
  EXPECT_FALSE(parse_regime("nonsense").has_value());

  const auto apps = app_names();
  const Trace poisson =
      make_regime_trace(ReplayRegime::Poisson, 200, 4, 7, apps);
  EXPECT_EQ(poisson.job_count(), 200u);
  EXPECT_EQ(poisson.budget_event_count(), 0u);
  const Trace walk =
      make_regime_trace(ReplayRegime::BudgetWalk, 200, 4, 7, apps);
  EXPECT_EQ(walk.job_count(), 200u);
  EXPECT_GT(walk.budget_event_count(), 0u);
  walk.validate();
  // The budget-walk regime frees the optimizer to move caps; the arrival
  // regimes pin Problem 1's fixed cap.
  EXPECT_TRUE(regime_policy(ReplayRegime::Poisson).fixed_power_cap.has_value());
  EXPECT_FALSE(
      regime_policy(ReplayRegime::BudgetWalk).fixed_power_cap.has_value());
}

TEST(Generator, ConfigValidation) {
  ArrivalConfig bad_rate;
  bad_rate.arrival_rate_hz = 0.0;
  EXPECT_THROW(make_arrival_trace(bad_rate, app_names(), 1),
               ContractViolation);
  ArrivalConfig bad_amplitude;
  bad_amplitude.diurnal_amplitude = 1.0;
  EXPECT_THROW(make_arrival_trace(bad_amplitude, app_names(), 1),
               ContractViolation);
  EXPECT_THROW(make_arrival_trace(ArrivalConfig{}, {}, 1), ContractViolation);
  BudgetWalkConfig bad_start;
  bad_start.start_watts = 100.0;  // below min_watts
  EXPECT_THROW(make_budget_walk(bad_start, 1), ContractViolation);
}

}  // namespace
}  // namespace migopt::trace
