#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace migopt::trace {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Cumulative Zipf weights over `count` ranks: weight(rank k) = 1/(k+1)^s.
std::vector<double> zipf_cdf(std::size_t count, double s) {
  std::vector<double> cdf(count);
  double total = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& value : cdf) value /= total;
  return cdf;
}

std::size_t sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

/// Exponential inter-arrival gap with mean 1/rate.
double exponential_gap(double rate, Rng& rng) {
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.uniform()) / rate;
}

}  // namespace

Trace make_arrival_trace(const ArrivalConfig& config,
                         const std::vector<std::string>& apps,
                         std::uint64_t seed) {
  MIGOPT_REQUIRE(!apps.empty(), "arrival trace needs a non-empty app list");
  MIGOPT_REQUIRE(config.arrival_rate_hz > 0.0, "arrival rate must be > 0");
  MIGOPT_REQUIRE(config.diurnal_amplitude >= 0.0 &&
                     config.diurnal_amplitude < 1.0,
                 "diurnal amplitude must lie in [0, 1)");
  MIGOPT_REQUIRE(config.diurnal_period_seconds > 0.0,
                 "diurnal period must be > 0");
  MIGOPT_REQUIRE(config.median_work_seconds > 0.0 &&
                     config.min_work_seconds > 0.0 &&
                     config.max_work_seconds >= config.min_work_seconds,
                 "work-size bounds are inconsistent");
  MIGOPT_REQUIRE(config.tenant_count >= 1, "need at least one tenant");
  MIGOPT_REQUIRE(config.zipf_s >= 0.0, "zipf skew must be >= 0");
  MIGOPT_REQUIRE(config.high_priority_fraction >= 0.0 &&
                     config.high_priority_fraction <= 1.0,
                 "high-priority fraction must lie in [0, 1]");
  MIGOPT_REQUIRE(config.deadline_factor >= 0.0,
                 "deadline factor must be >= 0");

  Rng rng(seed);

  // Seeded shuffle decides which apps take the head of the Zipf ranking
  // (Fisher-Yates over a copy; Rng::bounded keeps it unbiased).
  std::vector<std::string> ranked_apps = apps;
  for (std::size_t i = ranked_apps.size(); i > 1; --i)
    std::swap(ranked_apps[i - 1], ranked_apps[rng.bounded(i)]);
  const std::vector<double> app_cdf = zipf_cdf(ranked_apps.size(), config.zipf_s);
  const std::vector<double> tenant_cdf =
      zipf_cdf(static_cast<std::size_t>(config.tenant_count), 1.0);
  // Built with append: GCC 12 at -O3 warns -Wrestrict on "t" + to_string.
  std::vector<std::string> tenants(tenant_cdf.size());
  for (std::size_t i = 0; i < tenants.size(); ++i)
    tenants[i].append("t").append(std::to_string(i));

  // Thinning over the peak rate: candidates arrive at rate*(1+amplitude) and
  // survive with probability rate(t)/peak — exact for the sinusoidal profile.
  const double peak_rate =
      config.arrival_rate_hz * (1.0 + config.diurnal_amplitude);
  const double ln_median = std::log(config.median_work_seconds);

  Trace trace;
  trace.events.reserve(config.jobs);
  double now = 0.0;
  while (trace.events.size() < config.jobs) {
    now += exponential_gap(peak_rate, rng);
    if (config.diurnal_amplitude > 0.0) {
      const double rate =
          config.arrival_rate_hz *
          (1.0 + config.diurnal_amplitude *
                     std::sin(kTwoPi * now / config.diurnal_period_seconds));
      if (rng.uniform() * peak_rate >= rate) continue;  // thinned away
    }
    const double work = std::clamp(
        std::exp(rng.normal(ln_median, config.work_sigma)),
        config.min_work_seconds, config.max_work_seconds);
    const int priority =
        config.high_priority_fraction > 0.0 &&
                rng.uniform() < config.high_priority_fraction
            ? 1
            : 0;
    const double deadline = config.deadline_factor > 0.0
                                ? config.deadline_factor * work
                                : 0.0;
    // The app is drawn before the tenant; every pinned trace depends on it.
    const std::string& app = ranked_apps[sample_cdf(app_cdf, rng)];
    const std::string& tenant = tenants[sample_cdf(tenant_cdf, rng)];
    TraceEvent& event = trace.events.emplace_back();
    event.time_seconds = now;
    event.tenant = tenant;
    event.app = app;
    event.work_seconds = work;
    event.deadline_seconds = deadline;
    event.priority = priority;
    event.validate();
  }
  return trace;
}

Trace make_budget_walk(const BudgetWalkConfig& config, std::uint64_t seed) {
  MIGOPT_REQUIRE(config.min_watts > 0.0 &&
                     config.max_watts >= config.min_watts,
                 "budget walk bounds are inconsistent");
  MIGOPT_REQUIRE(config.start_watts >= config.min_watts &&
                     config.start_watts <= config.max_watts,
                 "budget walk must start inside its bounds");
  MIGOPT_REQUIRE(config.step_watts >= 0.0, "budget step must be >= 0");
  MIGOPT_REQUIRE(config.interval_seconds > 0.0,
                 "budget walk interval must be > 0");

  Rng rng(seed);
  Trace trace;
  double watts = config.start_watts;
  trace.events.push_back(TraceEvent::budget(0.0, watts));
  for (double t = config.interval_seconds; t <= config.horizon_seconds;
       t += config.interval_seconds) {
    const double step = rng.uniform() < 0.5 ? -config.step_watts
                                            : config.step_watts;
    // Reflect at the walls so the walk keeps moving instead of saturating.
    watts += step;
    if (watts > config.max_watts) watts = 2.0 * config.max_watts - watts;
    if (watts < config.min_watts) watts = 2.0 * config.min_watts - watts;
    watts = std::clamp(watts, config.min_watts, config.max_watts);
    trace.events.push_back(TraceEvent::budget(t, watts));
  }
  return trace;
}

}  // namespace migopt::trace
