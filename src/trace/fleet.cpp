#include "trace/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include <time.h>  // clock_gettime(CLOCK_MONOTONIC) — POSIX

#include "common/assert.hpp"
#include "common/hash_mix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "workloads/corun_pairs.hpp"

namespace migopt::trace {

namespace {

/// FNV-1a over the tenant name: the affinity hash must be stable across
/// platforms and standard libraries (std::hash is not), because the shard
/// assignment feeds exact-gated bench baselines.
std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Completion-weighted mean that degenerates to an exact copy when a single
/// source contributed: merging one cluster's mean back out of (mean * n) / n
/// is not always bit-identical to the input, and the 1-cluster fleet must
/// reproduce a standalone replay exactly.
struct WeightedMean {
  double weighted_sum = 0.0;
  std::size_t count = 0;
  std::size_t contributors = 0;
  double last_mean = 0.0;

  void add(double mean, std::size_t completions) {
    if (completions == 0) return;
    weighted_sum += mean * static_cast<double>(completions);
    count += completions;
    ++contributors;
    last_mean = mean;
  }
  double value() const {
    if (count == 0) return 0.0;
    if (contributors == 1) return last_mean;
    return weighted_sum / static_cast<double>(count);
  }
};

}  // namespace

std::optional<RouterPolicy> parse_router_policy(const std::string& name) {
  if (name == "round-robin") return RouterPolicy::RoundRobin;
  if (name == "affinity") return RouterPolicy::TenantAffinity;
  if (name == "least-loaded") return RouterPolicy::LeastLoaded;
  return std::nullopt;
}

const char* router_policy_name(RouterPolicy policy) noexcept {
  switch (policy) {
    case RouterPolicy::RoundRobin: return "round-robin";
    case RouterPolicy::TenantAffinity: return "affinity";
    case RouterPolicy::LeastLoaded: return "least-loaded";
  }
  return "?";
}

std::optional<PowerSplit> parse_power_split(const std::string& name) {
  if (name == "uniform") return PowerSplit::Uniform;
  if (name == "demand") return PowerSplit::DemandProportional;
  return std::nullopt;
}

const char* power_split_name(PowerSplit split) noexcept {
  switch (split) {
    case PowerSplit::Uniform: return "uniform";
    case PowerSplit::DemandProportional: return "demand";
  }
  return "?";
}

FleetRouter::FleetRouter(const RouterConfig& config, int cluster_count,
                         int nodes_per_cluster)
    : config_(config), nodes_per_cluster_(nodes_per_cluster) {
  MIGOPT_REQUIRE(cluster_count >= 1, "fleet router needs at least one cluster");
  MIGOPT_REQUIRE(nodes_per_cluster >= 1,
                 "fleet router needs at least one node per cluster");
  backlog_.assign(static_cast<std::size_t>(cluster_count), 0.0);
  last_time_.assign(static_cast<std::size_t>(cluster_count), 0.0);
  stats_.jobs_per_cluster.assign(static_cast<std::size_t>(cluster_count), 0);
}

void FleetRouter::decay(std::size_t cluster, double now_seconds) {
  const double elapsed = now_seconds - last_time_[cluster];
  if (elapsed > 0.0) {
    backlog_[cluster] =
        std::max(0.0, backlog_[cluster] - elapsed * nodes_per_cluster_);
    last_time_[cluster] = now_seconds;
  }
}

int FleetRouter::least_loaded(double now_seconds) {
  int best = 0;
  decay(0, now_seconds);
  double best_backlog = backlog_[0];
  for (std::size_t c = 1; c < backlog_.size(); ++c) {
    decay(c, now_seconds);
    if (backlog_[c] < best_backlog) {
      best_backlog = backlog_[c];
      best = static_cast<int>(c);
    }
  }
  return best;
}

double FleetRouter::estimated_delay_seconds(int cluster,
                                            double now_seconds) const {
  MIGOPT_REQUIRE(cluster >= 0 &&
                     static_cast<std::size_t>(cluster) < backlog_.size(),
                 "cluster index out of range");
  const std::size_t c = static_cast<std::size_t>(cluster);
  const double elapsed = std::max(0.0, now_seconds - last_time_[c]);
  const double backlog =
      std::max(0.0, backlog_[c] - elapsed * nodes_per_cluster_);
  return backlog / nodes_per_cluster_;
}

int FleetRouter::route(std::uint64_t tenant_key, double now_seconds,
                       double work_seconds) {
  int chosen = 0;
  switch (config_.policy) {
    case RouterPolicy::RoundRobin:
      chosen = static_cast<int>(round_robin_next_);
      round_robin_next_ = (round_robin_next_ + 1) % backlog_.size();
      break;
    case RouterPolicy::TenantAffinity: {
      chosen = static_cast<int>(hash_mix(config_.affinity_salt, tenant_key) %
                                backlog_.size());
      if (config_.spill_delay_seconds > 0.0) {
        const std::size_t home = static_cast<std::size_t>(chosen);
        decay(home, now_seconds);
        if (backlog_[home] / nodes_per_cluster_ > config_.spill_delay_seconds) {
          chosen = least_loaded(now_seconds);
          if (static_cast<std::size_t>(chosen) != home) ++stats_.spills;
        }
      }
      break;
    }
    case RouterPolicy::LeastLoaded:
      chosen = least_loaded(now_seconds);
      break;
  }
  const std::size_t c = static_cast<std::size_t>(chosen);
  decay(c, now_seconds);
  backlog_[c] += work_seconds;
  ++stats_.decisions;
  ++stats_.jobs_per_cluster[c];
  return chosen;
}

SmallVector<double, FleetRouter::kInlineClusters> FleetRouter::split_budget(
    double watts, PowerSplit split, double now_seconds) {
  const std::size_t n = backlog_.size();
  SmallVector<double, kInlineClusters> shares;
  shares.assign(n, watts / static_cast<double>(n));
  ++stats_.budget_splits;
  if (split == PowerSplit::Uniform) return shares;

  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    decay(c, now_seconds);
    total += backlog_[c];
  }
  if (total <= 0.0) return shares;  // idle fleet: uniform
  // Every cluster keeps a quarter of its uniform share as a floor — an idle
  // cluster must still afford its cheapest dispatch when work lands on it
  // later (a share below the optimizer's cap grid would wedge the shard,
  // which the stall detector reports loudly). The rest follows demand.
  const double floor_share = 0.25 * watts / static_cast<double>(n);
  const double distributable = watts - floor_share * static_cast<double>(n);
  for (std::size_t c = 0; c < n; ++c)
    shares[c] = floor_share + distributable * (backlog_[c] / total);
  return shares;
}

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  MIGOPT_REQUIRE(config_.cluster_count >= 1,
                 "fleet needs at least one cluster");
  MIGOPT_REQUIRE(config_.threads >= 1, "fleet needs at least one thread");
  if (config_.fleet_power_budget_watts.has_value())
    MIGOPT_REQUIRE(*config_.fleet_power_budget_watts > 0.0,
                   "fleet power budget must be positive (omit it to leave "
                   "clusters unconstrained)");
  config_.fault.validate();
  MIGOPT_REQUIRE(config_.cluster_outage_mtbf_seconds >= 0.0,
                 "cluster outage MTBF must be >= 0");
  if (config_.cluster_outage_mtbf_seconds > 0.0)
    MIGOPT_REQUIRE(config_.cluster_outage_duration_seconds > 0.0,
                   "cluster outage duration must be > 0 when outages are on");
}

namespace {

/// Fault horizon of a (validated, time-sorted) fleet trace: the last event
/// time. Fault processes draw windows up to here; recoveries past it are
/// kept so a crashed node always rejoins.
double fault_horizon(const Trace& trace) noexcept {
  return trace.events.empty() ? 0.0 : trace.events.back().time_seconds;
}

}  // namespace

RoutePlan FleetEngine::plan(const Trace& fleet_trace) const {
  fleet_trace.validate();
  // Step entries reserve the top bit to tag budget shares, so both index
  // spaces must stay below it.
  MIGOPT_REQUIRE(fleet_trace.events.size() < RoutedShard::kShareBit,
                 "fleet trace too large for 31-bit event indices");

  RouterConfig router_config = config_.router;
  if (router_config.affinity_salt == 0)
    router_config.affinity_salt = stream_seed(config_.seed, 0xF1EE7ULL);
  FleetRouter router(router_config, config_.cluster_count,
                     config_.cluster.node_count);

  const std::size_t clusters = static_cast<std::size_t>(config_.cluster_count);
  // Whole-cluster outage windows (deterministic per-cluster streams):
  // arrivals routed into an outage are re-admitted below; replay()
  // regenerates the same windows to take every node of the cluster down.
  const bool outage_active = config_.cluster_outage_mtbf_seconds > 0.0;
  const std::vector<std::vector<fault::OutageWindow>> outages =
      fault::make_outage_windows(config_.cluster_count,
                                 fault_horizon(fleet_trace),
                                 config_.cluster_outage_mtbf_seconds,
                                 config_.cluster_outage_duration_seconds,
                                 config_.seed);
  RoutePlan plan;
  plan.fleet = &fleet_trace;
  plan.steps.resize(clusters);
  for (auto& steps : plan.steps)
    steps.reserve(fleet_trace.events.size() / clusters + 4);
  plan.event_tenants.assign(fleet_trace.events.size(), kNoSymbol);
  plan.shard_jobs.assign(clusters, 0);

  // Appends one budget share per cluster and the matching tagged step.
  const auto push_shares = [&](std::span<const double> watts, double time) {
    MIGOPT_REQUIRE(plan.shares.size() + clusters <= RoutedShard::kShareBit,
                   "fleet trace too large for 31-bit share indices");
    for (std::size_t c = 0; c < clusters; ++c) {
      plan.steps[c].push_back(RoutedShard::kShareBit |
                              static_cast<std::uint32_t>(plan.shares.size()));
      plan.shares.push_back({time, watts[c]});
    }
  };

  // Starting fleet contract: split before any arrival (empty backlogs make
  // a demand split uniform) and stamped at t=0 in every shard.
  if (config_.fleet_power_budget_watts.has_value())
    push_shares(router.split_budget(*config_.fleet_power_budget_watts,
                                    config_.power_split, 0.0),
                0.0);

  // Tenant names hash once per distinct tenant (ids are dense
  // first-appearance symbols, so the key cache is a flat vector).
  SymbolTable tenant_symbols;
  std::vector<std::uint64_t> tenant_keys;

  const bool timed = config_.measure_decision_latency;
  std::vector<double> latency_ns;
  // Upper bound (arrivals + budget events) instead of Trace::job_count():
  // the exact count costs a full scan of a million-event trace inside the
  // timed admission window, the slack is a handful of budget events.
  if (timed) latency_ns.reserve(fleet_trace.events.size());

  for (std::size_t i = 0; i < fleet_trace.events.size(); ++i) {
    const TraceEvent& event = fleet_trace.events[i];
    const std::uint32_t index = static_cast<std::uint32_t>(i);
    if (event.kind == EventKind::JobArrival) {
      const Symbol tenant = tenant_symbols.intern(event.tenant);
      if (tenant >= tenant_keys.size())
        tenant_keys.push_back(fnv1a(event.tenant));
      const std::uint64_t key = tenant_keys[tenant];
      plan.event_tenants[i] = tenant;

      int cluster = 0;
      if (timed) {
        const double start = monotonic_ns();
        cluster = router.route(key, event.time_seconds, event.work_seconds);
        latency_ns.push_back(monotonic_ns() - start);
      } else {
        cluster = router.route(key, event.time_seconds, event.work_seconds);
      }
      // Re-admission: an arrival routed into a whole-cluster outage moves to
      // the next surviving cluster in index order (it keeps the original
      // assignment if every cluster is down — the shard then queues it until
      // its nodes rejoin). The router's load model deliberately keeps the
      // backlog on the original home: the open-loop model estimates demand,
      // and demand did land there.
      if (outage_active &&
          fault::in_outage(outages[static_cast<std::size_t>(cluster)],
                           event.time_seconds)) {
        const std::size_t routed = static_cast<std::size_t>(cluster);
        for (std::size_t k = 1; k < clusters; ++k) {
          const std::size_t candidate = (routed + k) % clusters;
          if (!fault::in_outage(outages[candidate], event.time_seconds)) {
            cluster = static_cast<int>(candidate);
            break;
          }
        }
        if (static_cast<std::size_t>(cluster) != routed) {
          RouterStats& stats = router.mutable_stats();
          --stats.jobs_per_cluster[routed];
          ++stats.jobs_per_cluster[static_cast<std::size_t>(cluster)];
          ++stats.outage_readmissions;
        }
      }
      plan.steps[static_cast<std::size_t>(cluster)].push_back(index);
      ++plan.shard_jobs[static_cast<std::size_t>(cluster)];
    } else if (event.budget_watts <= 0.0) {
      // A lifted fleet budget lifts every cluster: passed through by index.
      for (auto& steps : plan.steps) steps.push_back(index);
    } else {
      push_shares(router.split_budget(event.budget_watts, config_.power_split,
                                      event.time_seconds),
                  event.time_seconds);
    }
  }

  plan.tenant_names.reserve(tenant_symbols.size());
  for (std::size_t id = 0; id < tenant_symbols.size(); ++id)
    plan.tenant_names.push_back(tenant_symbols.name(static_cast<Symbol>(id)));

  plan.router = router.stats();
  if (timed && !latency_ns.empty()) {
    RouterStats& stats = plan.router;
    stats.latency_samples = latency_ns.size();
    double sum = 0.0;
    for (const double ns : latency_ns) sum += ns;
    stats.decision_mean_ns = sum / static_cast<double>(latency_ns.size());
    const auto percentile = [&](double q) {
      const std::size_t rank = std::min(
          latency_ns.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(latency_ns.size())));
      std::nth_element(latency_ns.begin(),
                       latency_ns.begin() + static_cast<std::ptrdiff_t>(rank),
                       latency_ns.end());
      return latency_ns[rank];
    };
    stats.decision_p50_ns = percentile(0.50);
    stats.decision_p99_ns = percentile(0.99);
  }
  return plan;
}

FleetReport FleetEngine::replay(const Trace& fleet_trace) const {
  obs::SpanTracer* const tracer =
      (config_.tracer != nullptr && config_.tracer->enabled()) ? config_.tracer
                                                               : nullptr;
  const double plan_start_us = tracer ? tracer->now_us() : 0.0;
  const RoutePlan plan = this->plan(fleet_trace);
  const std::size_t clusters = plan.steps.size();
  if (tracer) {
    tracer->set_track_name(0, "fleet");
    tracer->span(0, "fleet.plan", plan_start_us,
                 tracer->now_us() - plan_start_us, "decisions",
                 static_cast<double>(plan.router.decisions));
  }

  FleetReport report;
  report.router = plan.router;
  report.clusters.resize(clusters);
  report.shard_seeds.resize(clusters);
  for (std::size_t c = 0; c < clusters; ++c)
    report.shard_seeds[c] = stream_seed(config_.seed, c);

  // The offline phase is deterministic, so the model trains once and each
  // shard copies the artifacts instead of repeating the training sweep —
  // bit-identical to per-shard training, minus cluster_count-1 sweeps. The
  // copies matter: profile runs mutate the allocator and RunMemo and the
  // scheduler's decision table are session state, so sharing a mutable allocator across
  // shards would couple their schedules (and race under threads). Each
  // shard still builds its own scheduler and cluster; results land in
  // pre-sized slots and merge below in index order: any fan-out width is
  // bit-identical to serial.
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const auto trained =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  // Share-nothing observability: each shard writes a private registry and
  // tracer (same epoch as the caller's, so the lanes line up); both merge
  // below in cluster-index order — the fleet metrics/trace documents are
  // byte-identical for any `threads` value.
  std::vector<obs::Registry> shard_registries(
      config_.metrics != nullptr ? clusters : 0);
  std::vector<obs::SpanTracer> shard_tracers;
  shard_tracers.reserve(tracer ? clusters : 0);
  if (tracer)
    for (std::size_t c = 0; c < clusters; ++c)
      shard_tracers.emplace_back(true, tracer->epoch());
  // Per-shard fault injection: each shard draws node/emergency/transient
  // faults from its own derived seed stream (the recorded shard seed), then
  // overlays the fleet's cluster-outage windows — the same windows plan()
  // re-admitted arrivals around — as whole-cluster NodeFail/NodeRecover
  // events. The plan is built inside the shard task (shard-local, shares
  // nothing), so any fan-out width stays bit-identical to serial.
  const double horizon = fault_horizon(fleet_trace);
  const bool outage_active = config_.cluster_outage_mtbf_seconds > 0.0;
  const std::vector<std::vector<fault::OutageWindow>> outages =
      fault::make_outage_windows(config_.cluster_count, horizon,
                                 config_.cluster_outage_mtbf_seconds,
                                 config_.cluster_outage_duration_seconds,
                                 config_.seed);
  const auto replay_shard = [&](std::size_t c) {
    core::ResourcePowerAllocator::Config shard_config;
    core::ResourcePowerAllocator allocator(trained.model(), trained.profiles(),
                                           std::move(shard_config));
    sched::CoScheduler scheduler(allocator, config_.policy, config_.tuning);
    sched::Cluster cluster(config_.cluster);
    SimConfig sim_config = config_.sim;
    sim_config.metrics =
        shard_registries.empty() ? nullptr : &shard_registries[c];
    sim_config.tracer = shard_tracers.empty() ? nullptr : &shard_tracers[c];
    sim_config.trace_track = static_cast<std::uint32_t>(c) + 1;
    fault::FaultPlan shard_faults;
    if (config_.fault.enabled() || (outage_active && !outages[c].empty())) {
      shard_faults =
          fault::make_fault_plan(config_.fault, config_.cluster.node_count,
                                 horizon, report.shard_seeds[c]);
      if (outage_active)
        fault::apply_outages(shard_faults, outages[c],
                             config_.cluster.node_count);
      sim_config.faults = &shard_faults;
    }
    report.clusters[c] = SimEngine(sim_config).replay(plan.shard(c), registry,
                                                      cluster, scheduler);
  };
  if (config_.threads > 1 && clusters > 1) {
    ThreadPool pool(std::min(config_.threads, clusters));
    pool.parallel_for(clusters, replay_shard);
  } else {
    for (std::size_t c = 0; c < clusters; ++c) replay_shard(c);
  }
  const double merge_start_us = tracer ? tracer->now_us() : 0.0;

  // Fleet-level router counters first (stable registration order), then the
  // shard registries and tracers, both folded in cluster-index order.
  if (config_.metrics != nullptr) {
    const obs::Metrics metrics(config_.metrics);
    metrics.count("fleet.clusters", clusters);
    metrics.count("fleet.router.decisions", plan.router.decisions);
    metrics.count("fleet.router.spills", plan.router.spills);
    metrics.count("fleet.router.budget_splits", plan.router.budget_splits);
    // Gated on the outage process so fault-free fleets keep the metrics
    // document byte-identical to builds without the fault layer.
    if (outage_active)
      metrics.count("fleet.router.outage_readmissions",
                    plan.router.outage_readmissions);
    for (std::size_t c = 0; c < clusters; ++c)
      metrics.count("fleet.router.jobs_to_cluster_" + std::to_string(c),
                    plan.router.jobs_per_cluster[c]);
    for (const obs::Registry& shard : shard_registries)
      config_.metrics->merge_from(shard);
  }
  if (tracer) {
    for (std::size_t c = 0; c < clusters; ++c) {
      tracer->set_track_name(static_cast<std::uint32_t>(c) + 1,
                             "cluster " + std::to_string(c));
      tracer->merge_from(shard_tracers[c]);
    }
  }

  // Merge in cluster-index order (deterministic double addition order).
  // Tenant rows land in slots pre-sized by the plan's fleet-wide tenant
  // census — no string-keyed map grows during the merge.
  WeightedMean wait;
  WeightedMean slowdown;
  struct TenantMerge {
    TenantStats stats;
    WeightedMean wait;
    WeightedMean slowdown;
  };
  SymbolTable tenant_index;
  std::vector<TenantMerge> tenants(plan.tenant_names.size());
  for (const std::string& name : plan.tenant_names) tenant_index.intern(name);
  for (const SimReport& sim : report.clusters) {
    report.jobs_submitted += sim.jobs_submitted;
    report.jobs_completed += sim.cluster.jobs_completed;
    report.deadline_misses += sim.deadline_misses;
    report.pair_dispatches += sim.cluster.pair_dispatches;
    report.exclusive_dispatches += sim.cluster.exclusive_dispatches;
    report.profile_runs += sim.cluster.profile_runs;
    report.decision_cache_hits += sim.cluster.decision_cache_hits;
    report.decision_cache_misses += sim.cluster.decision_cache_misses;
    report.run_memo_hits += sim.cluster.run_memo_hits;
    report.run_memo_misses += sim.cluster.run_memo_misses;
    report.makespan_seconds =
        std::max(report.makespan_seconds, sim.cluster.makespan_seconds);
    report.total_energy_joules += sim.cluster.total_energy_joules;
    report.peak_cap_sum_watts += sim.cluster.peak_cap_sum_watts;
    report.peak_queue_depth =
        std::max(report.peak_queue_depth, sim.peak_queue_depth);
    report.faults.failures_injected += sim.faults.failures_injected;
    report.faults.retries += sim.faults.retries;
    report.faults.jobs_killed += sim.faults.jobs_killed;
    report.faults.jobs_shed += sim.faults.jobs_shed;
    report.faults.jobs_abandoned += sim.faults.jobs_abandoned;
    report.faults.node_failures += sim.faults.node_failures;
    report.faults.node_recoveries += sim.faults.node_recoveries;
    report.faults.power_emergencies += sim.faults.power_emergencies;
    report.faults.node_downtime_seconds += sim.faults.node_downtime_seconds;
    report.faults.backoff_delay_seconds += sim.faults.backoff_delay_seconds;
    wait.add(sim.mean_queue_wait_seconds, sim.cluster.jobs_completed);
    slowdown.add(sim.mean_slowdown, sim.cluster.jobs_completed);
    for (const TenantStats& tenant : sim.tenants) {
      TenantMerge& merged = tenants[tenant_index.intern(tenant.tenant)];
      merged.stats.tenant = tenant.tenant;
      merged.stats.jobs_submitted += tenant.jobs_submitted;
      merged.stats.jobs_completed += tenant.jobs_completed;
      merged.stats.deadline_misses += tenant.deadline_misses;
      merged.stats.work_seconds_submitted += tenant.work_seconds_submitted;
      merged.wait.add(tenant.mean_queue_wait_seconds, tenant.jobs_completed);
      merged.slowdown.add(tenant.mean_slowdown, tenant.jobs_completed);
    }
  }
  report.mean_queue_wait_seconds = wait.value();
  report.mean_slowdown = slowdown.value();
  if (report.makespan_seconds > 0.0)
    report.aggregate_jobs_per_hour =
        3600.0 * static_cast<double>(report.jobs_completed) /
        report.makespan_seconds;
  // Fleet symbols are first-appearance order; the report contract is
  // name-sorted rows (what the string-keyed merge map used to yield).
  std::vector<std::size_t> order;
  order.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i)
    if (!tenants[i].stats.tenant.empty()) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tenants[a].stats.tenant < tenants[b].stats.tenant;
  });
  report.tenants.reserve(order.size());
  for (const std::size_t i : order) {
    TenantMerge& merged = tenants[i];
    merged.stats.mean_queue_wait_seconds = merged.wait.value();
    merged.stats.mean_slowdown = merged.slowdown.value();
    report.tenants.push_back(std::move(merged.stats));
  }
  if (tracer)
    tracer->span(0, "fleet.merge", merge_start_us,
                 tracer->now_us() - merge_start_us);
  return report;
}

}  // namespace migopt::trace
