// perfbench_harness — measures one workload of the repository benchmark.
//
// Drives the public replay entry points the way a user does:
// ResourcePowerAllocator::train, trace::make_regime_trace,
// fault::make_fault_plan, trace::SimEngine::replay and
// trace::FleetEngine::plan/replay. One invocation is one workload in its
// own process:
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//
// A workload is an *ensemble* of replay inputs drawn from --seed: seeded
// traces, or seeded fault plans / fleet seeds over one pinned trace. (A
// single trace seed fixes which applications are hot, which alone moves
// simulated energy ~10% from seed to seed, so outcomes are ensemble means.)
// A run repeats sessions until S seconds are spent: each session sets up
// from scratch — registry, training, traces, fault plans, session
// construction, every stage timed — and replays every member once, each
// replay one call that the next waits for. Every replay is checked
// (conservation, bit-equal to the first session's), the fleet's merged
// report is compared at 1 and N shard workers, and last the fixed-seed
// reference configuration is replayed for perfbench/run.py to compare with
// the checked-in BENCH summary. With --trace 1 the sessions measure the
// per-layer view instead: traced-vs-plain replays, the fleet fan-out,
// isolated per-call probes of each layer, and the cost ledger.
//
// The result is one JSON object on the last line of stdout (raw samples;
// run.py reduces them). Exit status 0 means the harness ran to the end, not
// that every check passed — the checks travel in the JSON.
#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/hw_state.hpp"
#include "core/workflow.hpp"
#include "fault/fault.hpp"
#include "gpusim/gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sched/cluster.hpp"
#include "sched/coscheduler.hpp"
#include "sched/job_queue.hpp"
#include "trace/fleet.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"
#include "workloads/corun_pairs.hpp"
#include "workloads/registry.hpp"

// ---------------------------------------------------------------------------
// Heap accounting for mem.bytes_per_job: while `tracking` is on, every
// global new/delete adjusts a net byte count whose high-water is the peak
// heap growth of the measured call. Off (one relaxed load per allocation)
// everywhere else.
namespace heap {
std::atomic<bool> tracking{false};
std::atomic<std::int64_t> live{0};
std::atomic<std::int64_t> peak{0};

void on_alloc(void* p) noexcept {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now =
      live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t seen = peak.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

void on_free(void* p) noexcept {
  live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                 std::memory_order_relaxed);
}
}  // namespace heap

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (heap::tracking.load(std::memory_order_relaxed)) heap::on_alloc(p);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (heap::tracking.load(std::memory_order_relaxed)) heap::on_free(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace migopt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ratio(std::size_t num, std::size_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return 1;
}

/// This process's high-water RSS (VmHWM) in kB; 0 when unreadable.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtol(line.c_str() + 6, nullptr, 10);
  return 0;
}

// ---------------------------------------------------------------------------
// Host-speed calibration. A shared host switches between fast and slow
// stretches (other tenants' load) that slow a whole replay by up to ~1.6x
// for seconds, at times for a whole run. A fixed loop shaped
// like a replay — a binary-heap event queue, a streamed 4 MiB event array,
// dependent loads through a 1 MiB pointer cycle, an open-addressing table —
// is timed around every replay and set-up; the replay's time over the
// loop's time then cancels most of the host's speed of the moment. The
// loop lives here, not in the library, so no library change can move it.

class Calibrator {
 public:
  Calibrator() : records_(kRecords), chain_(kChain), table_(kTable) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (Record& r : records_) {
      r.key = next();
      r.time = static_cast<double>(r.key % 1000000);
      r.work = static_cast<double>(next() % 4096);
      r.app = static_cast<std::uint32_t>(r.key >> 40) & 31;
      r.tenant = static_cast<std::uint32_t>(r.key >> 20) & 7;
    }
    for (std::uint32_t i = 0; i < kChain; ++i) chain_[i] = i;
    for (std::uint32_t i = kChain - 1; i > 0; --i)
      std::swap(chain_[i], chain_[next() % i]);
    heap_.reserve(kEvents);
  }

  /// Wall seconds of one pass of the loop.
  double seconds() {
    std::fill(table_.begin(), table_.end(), 0);
    heap_.clear();
    const auto later = [](const auto& a, const auto& b) {
      return a.first > b.first;
    };
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < kEvents; ++i)
      heap_.emplace_back(records_[i].time, i);
    std::make_heap(heap_.begin(), heap_.end(), later);
    std::uint32_t cur = 0;
    double energy = 0.0;
    for (const Record& r : records_) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const auto [now, id] = heap_.back();
      for (int hop = 0; hop < 2; ++hop) cur = chain_[cur];
      const std::uint64_t key =
          r.key ^ (static_cast<std::uint64_t>(id) << 32) ^ cur;
      std::size_t slot = key & (kTable - 1);
      for (int probe = 0; probe < 4 && table_[slot] > key; ++probe)
        slot = (slot + 1) & (kTable - 1);
      table_[slot] = key;
      energy += (cur & 1) != 0 ? r.work * (r.app + 1) * 1e-3
                               : now * 1e-9 + r.tenant;
      heap_.back().first = now + 1.0 + r.work;
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    const double elapsed = seconds_since(t0);
    volatile double sink = energy;
    (void)sink;
    return elapsed;
  }

 private:
  struct Record {
    double time;
    double work;
    std::uint64_t key;
    std::uint32_t app;
    std::uint32_t tenant;
    char pad[32];
  };
  static constexpr std::size_t kRecords = 1u << 16;  // 4 MiB, streamed
  static constexpr std::uint32_t kChain = 1u << 18;  // 1 MiB, chased
  static constexpr std::size_t kTable = 1u << 17;    // 1 MiB, probed
  static constexpr std::uint32_t kEvents = 1u << 10;

  std::vector<Record> records_;
  std::vector<std::uint32_t> chain_;
  std::vector<std::uint64_t> table_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
};

/// The loop on every calibrator's thread at once (the caller runs the
/// first): the slowest thread's seconds, as the slowest shard worker sets a
/// parallel replay's wall time.
double calibration_seconds(std::vector<Calibrator>& calibrators) {
  std::vector<double> seconds(calibrators.size());
  std::vector<std::thread> helpers;
  for (std::size_t k = 1; k < calibrators.size(); ++k)
    helpers.emplace_back(
        [&calibrators, &seconds, k] { seconds[k] = calibrators[k].seconds(); });
  seconds.front() = calibrators.front().seconds();
  for (std::thread& helper : helpers) helper.join();
  return *std::max_element(seconds.begin(), seconds.end());
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  trace::ReplayRegime regime = trace::ReplayRegime::Poisson;
  int clusters = 1;
  int nodes = 64;
  /// Replay inputs per session and jobs per trace.
  std::size_t ensemble = 1;
  std::size_t jobs = 0;
  /// Nonzero pins one trace for the whole ensemble; members then differ
  /// only by the seeds of their fault plans or fleets.
  std::uint64_t pinned_trace_seed = 0;
  /// Shard workers of the fleet replay (1 for single-cluster workloads).
  std::size_t threads = 1;
  trace::RouterPolicy router = trace::RouterPolicy::TenantAffinity;
  double spill_delay_seconds = 0.0;
  /// 0 = the scheduler's default DecisionCache capacity.
  std::size_t cache_capacity = 0;
  bool faults = false;
  /// Fixed-seed reference replay (0 jobs = none): the configuration a
  /// checked-in BENCH summary pins.
  std::size_t reference_jobs = 0;
  std::uint64_t reference_seed = 0;
};

WorkloadSpec make_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "cluster_poisson") {
    // The mega reproduction's shape (BENCH_ext_trace_replay "mega 1M
    // jobs"), its million jobs split over 32 seeded traces: each trace's
    // app mix moves energy ~10%, the ensemble mean ~2%.
    spec.nodes = 64;
    spec.ensemble = 32;
    spec.jobs = 31250;
    spec.reference_jobs = 1000000;
    spec.reference_seed = 7;
  } else if (name == "fleet_affinity") {
    // The mega fleet (BENCH_ext_fleet_replay "mega fleet 1M jobs"): its
    // trace, replayed under fleet seeds drawn from --seed, which reshuffle
    // tenant homes and shard streams. A million jobs keep the training
    // every FleetEngine::replay call does to a few percent of the call.
    // Shard workers take half the CPUs (at most 4): on all of them, the
    // host's own work lands on the replay's critical path at random, and
    // repeat runs on a 4-vCPU host then spread 13% against 1.5% at two.
    spec.clusters = 16;
    spec.nodes = 8;
    spec.ensemble = 4;
    spec.jobs = 1048576;
    spec.pinned_trace_seed = 17;
    spec.threads = std::clamp<std::size_t>(usable_cpus() / 2, 1, 4);
    spec.spill_delay_seconds = 60.0;
    spec.reference_jobs = 1048576;
    spec.reference_seed = 17;
  } else if (name == "budget_churn") {
    // The budget walk keeps 16 nodes near saturation, so the trace's app
    // mix swings mean slowdown tenfold between seeds: the trace is pinned
    // to the regime seed and --seed draws the fault scenarios.
    spec.regime = trace::ReplayRegime::BudgetWalk;
    spec.nodes = 16;
    spec.ensemble = 16;
    spec.jobs = 50000;
    spec.pinned_trace_seed = 7;
    spec.cache_capacity = 48;
    spec.faults = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

/// budget_churn's fault scenario: 5% transient failures, one crash per node
/// per day on average, and hourly power emergencies down to 150 W/node.
fault::FaultConfig fault_config(const WorkloadSpec& spec) {
  fault::FaultConfig config;
  if (!spec.faults) return config;
  config.transient_failure_rate = 0.05;
  config.node_mtbf_seconds = 86400.0;
  config.power_emergency_mtbf_seconds = 3600.0;
  config.power_emergency_watts = 150.0 * spec.nodes;
  return config;
}

sched::ClusterConfig cluster_config(const WorkloadSpec& spec) {
  sched::ClusterConfig config;
  config.node_count = spec.nodes;
  config.max_sim_seconds = 1.0e8;
  config.event_core = sched::EventCore::Indexed;
  config.collect_job_stats = false;
  return config;
}

sched::SchedulerTuning tuning(const WorkloadSpec& spec) {
  sched::SchedulerTuning tuning;
  if (spec.cache_capacity > 0)
    tuning.decision_cache_capacity = spec.cache_capacity;
  return tuning;
}

/// The workload as a fleet: the real fleet for fleet_affinity; for the
/// single-cluster workloads a one-cluster fleet, which is how the traced
/// run measures the fan-out layer's fixed cost on their inputs.
trace::FleetConfig fleet_config(const WorkloadSpec& spec, std::uint64_t seed,
                                std::size_t threads) {
  trace::FleetConfig config;
  config.cluster_count = spec.clusters;
  config.cluster = cluster_config(spec);
  config.router.policy = spec.router;
  config.router.spill_delay_seconds = spec.spill_delay_seconds;
  config.sim.max_sim_seconds = 1.0e8;
  config.policy = trace::regime_policy(spec.regime);
  config.tuning = tuning(spec);
  config.seed = seed;
  config.fault = fault_config(spec);
  config.threads = threads;
  return config;
}

// ---------------------------------------------------------------------------
// One replay's outcome, shaped the same for single-cluster and fleet runs.

struct Outcome {
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< successful completions (engine view)
  std::size_t abandoned = 0;
  double makespan_s = 0.0;
  double energy_j = 0.0;
  double mean_slowdown = 0.0;
  double mean_wait_s = 0.0;
  std::size_t pair_dispatches = 0;
  std::size_t exclusive_dispatches = 0;
  std::size_t profile_runs = 0;
  std::size_t dc_hits = 0;
  std::size_t dc_misses = 0;
  std::size_t dc_evictions = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t budget_events = 0;
  trace::FaultStats faults;
  std::vector<std::size_t> jobs_per_cluster;
  // Host-side extras (never compared).
  trace::PhaseCounters phases;  ///< summed over shards
  std::size_t route_decisions = 0;

  /// Every simulation-derived field, compared exactly.
  bool same_simulation(const Outcome& o) const {
    return submitted == o.submitted && completed == o.completed &&
           abandoned == o.abandoned && makespan_s == o.makespan_s &&
           energy_j == o.energy_j && mean_slowdown == o.mean_slowdown &&
           mean_wait_s == o.mean_wait_s &&
           pair_dispatches == o.pair_dispatches &&
           exclusive_dispatches == o.exclusive_dispatches &&
           profile_runs == o.profile_runs && dc_hits == o.dc_hits &&
           dc_misses == o.dc_misses && dc_evictions == o.dc_evictions &&
           memo_hits == o.memo_hits && memo_misses == o.memo_misses &&
           peak_queue_depth == o.peak_queue_depth &&
           budget_events == o.budget_events &&
           faults.failures_injected == o.faults.failures_injected &&
           faults.retries == o.faults.retries &&
           faults.jobs_killed == o.faults.jobs_killed &&
           faults.jobs_shed == o.faults.jobs_shed &&
           faults.node_failures == o.faults.node_failures &&
           faults.power_emergencies == o.faults.power_emergencies &&
           jobs_per_cluster == o.jobs_per_cluster;
  }
};

std::size_t tenant_completions(const std::vector<trace::TenantStats>& tenants) {
  std::size_t total = 0;
  for (const trace::TenantStats& tenant : tenants)
    total += tenant.jobs_completed;
  return total;
}

void add_phases(trace::PhaseCounters& into, const trace::PhaseCounters& p) {
  into.collected = into.collected || p.collected;
  into.steps += p.steps;
  into.event_apply_seconds += p.event_apply_seconds;
  into.budget_rebroker_seconds += p.budget_rebroker_seconds;
  into.dispatch_seconds += p.dispatch_seconds;
  into.accounting_seconds += p.accounting_seconds;
  into.completion_seconds += p.completion_seconds;
}

Outcome outcome_of(const trace::SimReport& sim) {
  Outcome o;
  const sched::ClusterReport& c = sim.cluster;
  o.submitted = sim.jobs_submitted;
  o.completed = tenant_completions(sim.tenants);
  o.abandoned = sim.faults.jobs_abandoned;
  o.makespan_s = c.makespan_seconds;
  o.energy_j = c.total_energy_joules;
  o.mean_slowdown = sim.mean_slowdown;
  o.mean_wait_s = sim.mean_queue_wait_seconds;
  o.pair_dispatches = c.pair_dispatches;
  o.exclusive_dispatches = c.exclusive_dispatches;
  o.profile_runs = c.profile_runs;
  o.dc_hits = c.decision_cache_hits;
  o.dc_misses = c.decision_cache_misses;
  o.dc_evictions = c.decision_cache_evictions;
  o.memo_hits = c.run_memo_hits;
  o.memo_misses = c.run_memo_misses;
  o.peak_queue_depth = sim.peak_queue_depth;
  o.budget_events = sim.budget_events_applied;
  o.faults = sim.faults;
  o.jobs_per_cluster = {sim.jobs_submitted};
  o.phases = sim.phases;
  return o;
}

Outcome outcome_of(const trace::FleetReport& fleet) {
  Outcome o;
  o.submitted = fleet.jobs_submitted;
  o.completed = tenant_completions(fleet.tenants);
  o.abandoned = fleet.faults.jobs_abandoned;
  o.makespan_s = fleet.makespan_seconds;
  o.energy_j = fleet.total_energy_joules;
  o.mean_slowdown = fleet.mean_slowdown;
  o.mean_wait_s = fleet.mean_queue_wait_seconds;
  o.pair_dispatches = fleet.pair_dispatches;
  o.exclusive_dispatches = fleet.exclusive_dispatches;
  o.profile_runs = fleet.profile_runs;
  o.dc_hits = fleet.decision_cache_hits;
  o.dc_misses = fleet.decision_cache_misses;
  o.dc_evictions = fleet.decision_cache_evictions;
  o.memo_hits = fleet.run_memo_hits;
  o.memo_misses = fleet.run_memo_misses;
  o.peak_queue_depth = fleet.peak_queue_depth;
  o.faults = fleet.faults;
  for (const trace::SimReport& shard : fleet.clusters) {
    o.budget_events += shard.budget_events_applied;
    add_phases(o.phases, shard.phases);
  }
  o.jobs_per_cluster = fleet.router.jobs_per_cluster;
  o.route_decisions = fleet.router.decisions;
  return o;
}

/// Ensemble total of the counters (sums; the queue peak is a max) — what
/// the per-layer view reports per replay cycle.
Outcome sum_outcomes(const std::vector<Outcome>& members) {
  Outcome total;
  for (const Outcome& o : members) {
    total.submitted += o.submitted;
    total.completed += o.completed;
    total.abandoned += o.abandoned;
    total.pair_dispatches += o.pair_dispatches;
    total.exclusive_dispatches += o.exclusive_dispatches;
    total.profile_runs += o.profile_runs;
    total.dc_hits += o.dc_hits;
    total.dc_misses += o.dc_misses;
    total.dc_evictions += o.dc_evictions;
    total.memo_hits += o.memo_hits;
    total.memo_misses += o.memo_misses;
    total.peak_queue_depth =
        std::max(total.peak_queue_depth, o.peak_queue_depth);
    total.budget_events += o.budget_events;
    total.faults.failures_injected += o.faults.failures_injected;
    total.faults.retries += o.faults.retries;
    total.faults.jobs_killed += o.faults.jobs_killed;
    total.faults.jobs_shed += o.faults.jobs_shed;
    total.faults.node_failures += o.faults.node_failures;
    total.faults.power_emergencies += o.faults.power_emergencies;
    add_phases(total.phases, o.phases);
    total.route_decisions += o.route_decisions;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first replay call.

/// One replay session of a single-cluster workload: a private copy of the
/// trained allocator (profile runs mutate it), its scheduler, and a cluster.
struct Session {
  core::ResourcePowerAllocator allocator;
  sched::CoScheduler scheduler;
  sched::Cluster cluster;

  Session(const core::ResourcePowerAllocator& trained, const WorkloadSpec& spec)
      : allocator(trained.model(), trained.profiles(), {}),
        scheduler(allocator, trace::regime_policy(spec.regime), tuning(spec)),
        cluster(cluster_config(spec)) {}
};

/// One ensemble input: a trace and the seed its fault plan or fleet
/// derives from.
struct Member {
  const trace::Trace* trace = nullptr;
  std::uint64_t seed = 0;
  fault::FaultPlan faults;
};

struct Env {
  std::unique_ptr<gpusim::GpuChip> chip;
  std::unique_ptr<wl::WorkloadRegistry> registry;
  std::unique_ptr<core::ResourcePowerAllocator> trained;  ///< cluster workloads
  std::vector<trace::Trace> traces;
  std::vector<Member> members;
  /// The session the next single-cluster replay runs on (built untimed
  /// before every replay but the first).
  std::unique_ptr<Session> session;
};

struct SetupTimes {
  double registry_s = 0.0;
  double train_s = 0.0;
  double gen_s = 0.0;
  double fault_s = 0.0;
  double session_s = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<Env> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                            SetupTimes& times) {
  auto env = std::make_unique<Env>();
  const auto start = Clock::now();
  auto lap = start;
  const auto stage = [&](double& into) {
    const auto now = Clock::now();
    into = std::chrono::duration<double>(now - lap).count();
    lap = now;
  };
  env->chip = std::make_unique<gpusim::GpuChip>();
  env->registry = std::make_unique<wl::WorkloadRegistry>(env->chip->arch());
  stage(times.registry_s);
  // FleetEngine::replay trains inside every call, so only the
  // single-cluster workloads train during set-up.
  if (spec.clusters == 1)
    env->trained = std::make_unique<core::ResourcePowerAllocator>(
        core::ResourcePowerAllocator::train(*env->chip, *env->registry,
                                            wl::table8_pairs()));
  stage(times.train_s);
  env->members.resize(spec.ensemble);
  const std::size_t trace_count =
      spec.pinned_trace_seed != 0 ? 1 : spec.ensemble;
  env->traces.reserve(trace_count);
  for (std::size_t i = 0; i < spec.ensemble; ++i) {
    Member& member = env->members[i];
    member.seed = stream_seed(seed, i);
    if (i < trace_count)
      env->traces.push_back(trace::make_regime_trace(
          spec.regime, spec.jobs, spec.clusters * spec.nodes,
          spec.pinned_trace_seed != 0 ? spec.pinned_trace_seed : member.seed,
          env->registry->names()));
    member.trace = &env->traces[std::min(i, trace_count - 1)];
  }
  stage(times.gen_s);
  for (Member& member : env->members)
    member.faults =
        fault::make_fault_plan(fault_config(spec), spec.nodes,
                               member.trace->horizon_seconds(), member.seed);
  stage(times.fault_s);
  // FleetEngine::replay builds its shard sessions inside the call.
  if (spec.clusters == 1)
    env->session = std::make_unique<Session>(*env->trained, spec);
  stage(times.session_s);
  times.total_s = seconds_since(start);
  return env;
}

// ---------------------------------------------------------------------------
// Replays.

struct Timed {
  Outcome outcome;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Optional observability sinks of a traced replay.
struct Sinks {
  obs::Registry* metrics = nullptr;
  obs::SpanTracer* tracer = nullptr;
  /// SimConfig::collect_phase_counters: per-phase clock reads every step.
  bool phase_counters = false;
};

/// Time one replay call (wall and process CPU); the report is summarized
/// after the clocks stop.
template <typename Call>
Timed timed_call(Call&& call) {
  Timed timed;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const auto report = call();
  timed.wall_s = seconds_since(t0);
  timed.cpu_s = process_cpu_seconds() - cpu0;
  timed.outcome = outcome_of(report);
  return timed;
}

/// A FleetEngine replay of member `i`'s trace at `threads` shard workers.
Timed fleet_replay(const WorkloadSpec& spec, const Env& env, std::size_t i,
                   std::size_t threads, Sinks sinks = {}) {
  const Member& member = env.members[i];
  trace::FleetConfig config = fleet_config(spec, member.seed, threads);
  config.metrics = sinks.metrics;
  config.tracer = sinks.tracer;
  config.sim.collect_phase_counters = sinks.phase_counters;
  const trace::FleetEngine engine(config);
  return timed_call([&] { return engine.replay(*member.trace); });
}

/// The workload's own replay call for ensemble member `i`. Single-cluster
/// replays run on a fresh session, built before the clock starts.
Timed replay_member(const WorkloadSpec& spec, Env& env, std::size_t i,
                    Sinks sinks = {}) {
  if (spec.clusters > 1) return fleet_replay(spec, env, i, spec.threads, sinks);
  const Member& member = env.members[i];
  if (!env.session) env.session = std::make_unique<Session>(*env.trained, spec);
  trace::SimConfig config;
  config.max_sim_seconds = 1.0e8;
  if (!member.faults.empty()) config.faults = &member.faults;
  config.metrics = sinks.metrics;
  config.tracer = sinks.tracer;
  config.collect_phase_counters = sinks.phase_counters;
  const trace::SimEngine engine(config);
  Session& session = *env.session;
  const Timed timed = timed_call([&] {
    return engine.replay(*member.trace, *env.registry, session.cluster,
                         session.scheduler);
  });
  env.session.reset();
  return timed;
}

// ---------------------------------------------------------------------------
// Checks.

struct Checks {
  json::Value list = json::Value::array();

  void add(const std::string& name, bool ok, const std::string& detail) {
    json::Value check = json::Value::object();
    check.set("name", name);
    check.set("ok", ok);
    check.set("detail", detail);
    list.push_back(std::move(check));
  }
};

/// Conservation: every trace job was submitted, and each one either
/// completed or was abandoned after its retry budget.
bool conserved(const Outcome& o, const trace::Trace& job_trace) {
  return o.submitted == job_trace.job_count() &&
         o.completed + o.abandoned == o.submitted;
}

/// Counts replays and their verdicts: a replay that throws or fails any of
/// its checks counts once toward `failed`.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;

  template <typename Body>
  void replay(Body&& body) {
    ++attempted;
    try {
      if (!body()) ++failed;
    } catch (const std::exception& error) {
      ++failed;
      if (first_error.empty()) first_error = error.what();
    }
  }
};

// ---------------------------------------------------------------------------
// JSON helpers.

json::Value array_of(const std::vector<double>& values) {
  json::Value out = json::Value::array();
  for (const double v : values) out.push_back(v);
  return out;
}

/// Ensemble outcome: totals of the job counts, member means of the rest.
json::Value ensemble_json(const std::vector<Outcome>& members) {
  const Outcome total = sum_outcomes(members);
  double makespan = 0.0, energy = 0.0, slowdown = 0.0;
  for (const Outcome& o : members) {
    makespan += o.makespan_s;
    energy += o.energy_j;
    slowdown += o.mean_slowdown;
  }
  const double n = static_cast<double>(members.size());
  json::Value out = json::Value::object();
  out.set("members", members.size());
  out.set("jobs_submitted", total.submitted);
  out.set("jobs_completed", total.completed);
  out.set("jobs_abandoned", total.abandoned);
  out.set("makespan_s", makespan / n);
  out.set("energy_MJ", energy / n / 1.0e6);
  out.set("mean_slowdown", slowdown / n);
  return out;
}

// ---------------------------------------------------------------------------
// Reference replays: the exact configurations of the checked-in mega
// summaries, emitted under the BENCH summary key names (same formulas).

json::Value reference_cluster(const WorkloadSpec& spec) {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  auto allocator =
      core::ResourcePowerAllocator::train(chip, registry, wl::table8_pairs());
  sched::CoScheduler scheduler(allocator, trace::regime_policy(spec.regime));
  sched::Cluster cluster(cluster_config(spec));
  trace::SimConfig config;
  config.max_sim_seconds = 1.0e8;
  const trace::Trace job_trace =
      trace::make_regime_trace(spec.regime, spec.reference_jobs, spec.nodes,
                               spec.reference_seed, registry.names());
  const trace::SimReport sim =
      trace::SimEngine(config).replay(job_trace, registry, cluster, scheduler);
  const sched::ClusterReport& c = sim.cluster;
  json::Value out = json::Value::object();
  out.set("jobs_completed", c.jobs_completed);
  out.set("makespan_s", c.makespan_seconds);
  out.set("jobs_per_hour", sim.jobs_per_hour);
  out.set("mean_wait_s", sim.mean_queue_wait_seconds);
  out.set("mean_slowdown", sim.mean_slowdown);
  out.set("peak_queue_depth", sim.peak_queue_depth);
  out.set("pair_dispatch_fraction",
          c.jobs_completed == 0 ? 0.0
                                : 2.0 * static_cast<double>(c.pair_dispatches) /
                                      static_cast<double>(c.jobs_completed));
  out.set("cache_hit_rate",
          ratio(c.decision_cache_hits,
                c.decision_cache_hits + c.decision_cache_misses));
  out.set("cache_evictions", c.decision_cache_evictions);
  out.set("peak_cap_sum_w", c.peak_cap_sum_watts);
  out.set("energy_MJ", c.total_energy_joules / 1.0e6);
  return out;
}

json::Value reference_fleet(const WorkloadSpec& spec) {
  gpusim::GpuChip chip;
  const wl::WorkloadRegistry registry(chip.arch());
  const trace::Trace fleet_trace = trace::make_regime_trace(
      spec.regime, spec.reference_jobs, spec.clusters * spec.nodes,
      spec.reference_seed, registry.names());
  const trace::FleetReport fleet =
      trace::FleetEngine(fleet_config(spec, spec.reference_seed, spec.threads))
          .replay(fleet_trace);
  const auto& jobs = fleet.router.jobs_per_cluster;
  json::Value out = json::Value::object();
  out.set("jobs_completed", fleet.jobs_completed);
  out.set("makespan_s", fleet.makespan_seconds);
  out.set("agg_jobs_per_hour", fleet.aggregate_jobs_per_hour);
  out.set("mean_wait_s", fleet.mean_queue_wait_seconds);
  out.set("mean_slowdown", fleet.mean_slowdown);
  out.set("peak_queue_depth", fleet.peak_queue_depth);
  out.set("cluster_jobs_min", *std::min_element(jobs.begin(), jobs.end()));
  out.set("cluster_jobs_max", *std::max_element(jobs.begin(), jobs.end()));
  out.set("spill_fraction", ratio(fleet.router.spills, fleet.router.decisions));
  out.set("budget_splits", fleet.router.budget_splits);
  out.set("cache_hit_rate",
          ratio(fleet.decision_cache_hits,
                fleet.decision_cache_hits + fleet.decision_cache_misses));
  out.set("run_memo_hit_rate", ratio(fleet.run_memo_hits,
                                     fleet.run_memo_hits + fleet.run_memo_misses));
  out.set("peak_cap_sum_w", fleet.peak_cap_sum_watts);
  out.set("energy_MJ", fleet.total_energy_joules / 1.0e6);
  return out;
}

// ---------------------------------------------------------------------------
// Per-call probes: each layer's public call timed in isolation on inputs
// drawn from the workload's first trace.

/// Distinct arrival apps of the trace, in first-seen order.
std::vector<std::string> apps_seen(const trace::Trace& job_trace) {
  std::vector<std::string> apps;
  std::set<std::string> seen;
  for (const trace::TraceEvent& event : job_trace.events)
    if (event.kind == trace::EventKind::JobArrival &&
        seen.insert(event.app).second)
      apps.push_back(event.app);
  return apps;
}

/// Distinct unordered app pairs that arrive within one pairing window of
/// each other — the candidates the co-scheduler scores.
std::vector<std::pair<std::string, std::string>> pairs_seen(
    const trace::Trace& job_trace, std::size_t window) {
  std::vector<const std::string*> recent;
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const trace::TraceEvent& event : job_trace.events) {
    if (event.kind != trace::EventKind::JobArrival) continue;
    for (const std::string* other : recent) {
      if (*other == event.app) continue;
      const auto [a, b] = std::minmax(*other, event.app);
      if (seen.emplace(a, b).second) pairs.emplace_back(a, b);
    }
    recent.push_back(&event.app);
    if (recent.size() > window) recent.erase(recent.begin());
  }
  return pairs;
}

/// Mean seconds per call of `call(i)` over inputs 0..n-1, repeated until at
/// least `budget_s` of calls ran.
template <typename Call>
double per_call_seconds(std::size_t n, double budget_s, Call&& call) {
  if (n == 0) return 0.0;
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) call(i);
    calls += n;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

struct Probes {
  double allocate_ns = 0.0;
  double solve_us = 0.0;
  double queue_op_ns = 0.0;
  double route_ns = 0.0;
  std::size_t pairs = 0;
};

Probes run_probes(const WorkloadSpec& spec, const Env& env,
                  const core::ResourcePowerAllocator& trained,
                  std::size_t queue_depth) {
  Probes probes;
  const Member& first = env.members.front();
  const trace::Trace& job_trace = *first.trace;
  const wl::WorkloadRegistry& registry = *env.registry;
  const std::vector<std::string> apps = apps_seen(job_trace);
  const auto pairs = pairs_seen(job_trace, tuning(spec).pairing_window);
  probes.pairs = pairs.size();
  volatile double sink = 0.0;

  // core: ResourcePowerAllocator::allocate(Symbol, Symbol, Policy) — what a
  // DecisionCache miss pays.
  core::ResourcePowerAllocator allocator(trained.model(), trained.profiles(),
                                         {});
  std::vector<std::pair<Symbol, Symbol>> ids;
  for (const auto& [a, b] : pairs)
    ids.emplace_back(allocator.intern_app(a), allocator.intern_app(b));
  const core::Policy policy = trace::regime_policy(spec.regime);
  probes.allocate_ns =
      1e9 * per_call_seconds(ids.size(), 0.2, [&](std::size_t i) {
        sink = sink + allocator.allocate(ids[i].first, ids[i].second, policy)
                          .objective_value;
      });

  // gpusim: GpuChip::run_pair (cycling the paper states) and run_full_chip
  // at the paper's 250 W cap — the solves a RunMemo miss pays.
  const gpusim::GpuChip& chip = *env.chip;
  const auto states = core::paper_states();
  std::vector<std::function<double()>> solves;
  for (const auto& [a, b] : pairs) {
    if (solves.size() >= 64) break;
    const auto& k1 = registry.by_name(a).kernel;
    const auto& k2 = registry.by_name(b).kernel;
    const core::PartitionState state = states[solves.size() % states.size()];
    solves.push_back([&chip, &k1, &k2, state] {
      return chip
          .run_pair(k1, state.gpcs_app1, k2, state.gpcs_app2, state.option,
                    250.0)
          .power_watts;
    });
  }
  for (const std::string& app : apps) {
    const auto& kernel = registry.by_name(app).kernel;
    solves.push_back([&chip, &kernel] {
      return chip.run_full_chip(kernel, 250.0).power_watts;
    });
  }
  probes.solve_us =
      1e6 * per_call_seconds(solves.size(), 0.2,
                             [&](std::size_t i) { sink = sink + solves[i](); });

  // sched: JobQueue push + pop_front at the workload's peak queue depth.
  std::vector<sched::Job> jobs;
  std::unordered_map<std::string, Symbol> app_ids;
  for (const trace::TraceEvent& event : job_trace.events) {
    if (event.kind != trace::EventKind::JobArrival) continue;
    sched::Job job;
    job.id = static_cast<sched::JobId>(jobs.size());
    job.app_id =
        app_ids.emplace(event.app, static_cast<Symbol>(app_ids.size()))
            .first->second;
    job.kernel = &registry.by_name(event.app).kernel;
    job.work_units = event.work_seconds;
    job.submit_time = event.time_seconds;
    job.priority = event.priority;
    jobs.push_back(std::move(job));
    if (jobs.size() >= 65536) break;
  }
  {
    sched::JobQueue queue;
    const std::size_t depth =
        std::clamp<std::size_t>(queue_depth, 1, jobs.size() / 2);
    for (std::size_t i = 0; i < depth; ++i) queue.push(jobs[i]);
    probes.queue_op_ns =
        0.5e9 * per_call_seconds(jobs.size() - depth, 0.2, [&](std::size_t i) {
          queue.push(jobs[depth + i]);
          sink = sink + queue.pop_front().work_units;
        });
  }

  // trace: FleetRouter::route over the trace's arrivals.
  {
    std::vector<std::uint64_t> keys;
    std::vector<const trace::TraceEvent*> arrivals;
    std::unordered_map<std::string, std::uint64_t> tenant_keys;
    for (const trace::TraceEvent& event : job_trace.events) {
      if (event.kind != trace::EventKind::JobArrival) continue;
      keys.push_back(
          tenant_keys
              .emplace(event.tenant, std::hash<std::string>{}(event.tenant))
              .first->second);
      arrivals.push_back(&event);
    }
    trace::RouterConfig router_config = fleet_config(spec, first.seed, 1).router;
    router_config.affinity_salt = first.seed | 1;
    trace::FleetRouter router(router_config, spec.clusters, spec.nodes);
    probes.route_ns =
        1e9 * per_call_seconds(arrivals.size(), 0.1, [&](std::size_t i) {
          sink = sink + router.route(keys[i], arrivals[i]->time_seconds,
                                     arrivals[i]->work_seconds);
        });
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Span harvest of a traced fleet replay: shard session spans ("replay" on
// tracks >= 1) and the fleet merge span, in seconds.

struct FanOutSpans {
  double shard_max_s = 0.0;
  double shard_mean_s = 0.0;
  double merge_s = 0.0;

  void add(const FanOutSpans& other) {
    shard_max_s += other.shard_max_s;
    shard_mean_s += other.shard_mean_s;
    merge_s += other.merge_s;
  }
};

FanOutSpans harvest_spans(const obs::SpanTracer& tracer) {
  FanOutSpans spans;
  const json::Value doc = tracer.to_chrome_json();
  const json::Value* events = doc.find("traceEvents");
  std::vector<double> shards;
  if (events != nullptr) {
    for (const json::Value& event : events->elements()) {
      const json::Value* name = event.find("name");
      const json::Value* ph = event.find("ph");
      const json::Value* dur = event.find("dur");
      const json::Value* tid = event.find("tid");
      if (name == nullptr || ph == nullptr || dur == nullptr ||
          tid == nullptr || ph->as_string() != "X")
        continue;
      const double seconds = dur->as_double() * 1e-6;
      if (name->as_string() == "replay" && tid->as_int() >= 1)
        shards.push_back(seconds);
      else if (name->as_string() == "fleet.merge")
        spans.merge_s += seconds;
    }
  }
  if (!shards.empty()) {
    spans.shard_max_s = *std::max_element(shards.begin(), shards.end());
    double sum = 0.0;
    for (const double s : shards) sum += s;
    spans.shard_mean_s = sum / static_cast<double>(shards.size());
  }
  return spans;
}

// ---------------------------------------------------------------------------
// The two run modes. Both repeat whole sessions — set up from scratch,
// then replay every ensemble member — until the time budget is spent, so
// set-up is sampled as often as the replays and across the same stretch of
// host time.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

constexpr std::size_t kMinSessions = 3;

json::Value setup_json(const std::vector<SetupTimes>& times) {
  const auto column = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : times) values.push_back(t.*field);
    return array_of(values);
  };
  json::Value out = json::Value::object();
  out.set("total_s", column(&SetupTimes::total_s));
  out.set("registry_s", column(&SetupTimes::registry_s));
  out.set("train_s", column(&SetupTimes::train_s));
  out.set("gen_s", column(&SetupTimes::gen_s));
  out.set("fault_plan_s", column(&SetupTimes::fault_s));
  out.set("session_s", column(&SetupTimes::session_s));
  return out;
}

/// Plain mode: sessions back to back for `seconds`, then the cross-worker
/// check and the reference replay.
json::Value run_plain(const WorkloadSpec& spec, const Args& args) {
  Tally tally;
  std::vector<SetupTimes> setup_times;
  std::vector<std::vector<double>> replay_s(spec.ensemble);  // per member
  // The loop is timed around every set-up, which runs on one thread, and
  // around every replay, on as many threads as the replay runs.
  std::vector<Calibrator> calibrators(spec.threads);
  Calibrator& calibrator = calibrators.front();
  std::vector<double> setup_calibration_s;
  std::vector<std::vector<double>> calibration_s(spec.ensemble);
  std::vector<std::optional<Outcome>> first(spec.ensemble);
  bool all_conserved = true, repeat_equal = true;
  std::unique_ptr<Env> env;
  const auto loop_start = Clock::now();
  for (std::size_t session = 0;
       session < kMinSessions ||
       (seconds_since(loop_start) < args.seconds && session < 10000);
       ++session) {
    env.reset();  // one environment alive at a time: VmHWM stays per session
    const double before_setup = calibrator.seconds();
    env = set_up(spec, args.seed, setup_times.emplace_back());
    setup_calibration_s.push_back(0.5 * (before_setup + calibrator.seconds()));
    for (std::size_t i = 0; i < spec.ensemble; ++i) {
      // The loop brackets the replay: the mean of the runs just before and
      // just after it is the host's speed during it.
      const double before = calibration_seconds(calibrators);
      tally.replay([&] {
        const Timed timed = replay_member(spec, *env, i);
        calibration_s[i].push_back(
            0.5 * (before + calibration_seconds(calibrators)));
        replay_s[i].push_back(timed.wall_s);
        const bool ok_conserved = conserved(timed.outcome, *env->members[i].trace);
        const bool ok_repeat =
            !first[i] || first[i]->same_simulation(timed.outcome);
        if (!first[i]) first[i] = timed.outcome;
        all_conserved = all_conserved && ok_conserved;
        repeat_equal = repeat_equal && ok_repeat;
        return ok_conserved && ok_repeat;
      });
    }
  }
  const long rss_kb = peak_rss_kb();

  Checks checks;
  checks.add("conservation", all_conserved,
             "completed + abandoned == submitted == trace jobs, every replay");
  checks.add("repeat_bit_equal", repeat_equal,
             "every session regenerates its inputs and reproduces the first "
             "session's outcomes bit for bit");
  if (spec.clusters > 1) {
    // The merged fleet report must not depend on the shard worker count.
    bool same = true;
    for (std::size_t i = 0; i < spec.ensemble; ++i) {
      tally.replay([&] {
        const bool ok =
            first[i] &&
            fleet_replay(spec, *env, i, 1).outcome.same_simulation(*first[i]);
        same = same && ok;
        return ok;
      });
    }
    checks.add("fleet_1_vs_n_workers_bit_equal", same,
               "merged report at 1 worker vs " + std::to_string(spec.threads));
  }

  json::Value out = json::Value::object();
  out.set("setup", setup_json(setup_times));
  out.set("setup_calibration_s", array_of(setup_calibration_s));
  json::Value member_jobs = json::Value::array();
  json::Value member_replays = json::Value::array();
  json::Value member_calibration = json::Value::array();
  for (std::size_t i = 0; i < spec.ensemble; ++i) {
    member_jobs.push_back(env->members[i].trace->job_count());
    member_replays.push_back(array_of(replay_s[i]));
    member_calibration.push_back(array_of(calibration_s[i]));
  }
  out.set("member_jobs", std::move(member_jobs));
  out.set("replay_s", std::move(member_replays));
  out.set("calibration_s", std::move(member_calibration));
  out.set("peak_rss_kb", static_cast<std::int64_t>(rss_kb));
  std::vector<Outcome> outcomes;
  for (const auto& o : first)
    if (o) outcomes.push_back(*o);
  if (outcomes.size() == spec.ensemble)
    out.set("outcome", ensemble_json(outcomes));
  env.reset();
  if (spec.reference_jobs > 0) {
    tally.replay([&] {
      out.set("reference", spec.clusters > 1 ? reference_fleet(spec)
                                             : reference_cluster(spec));
      return true;
    });
  }
  if (!tally.first_error.empty())
    checks.add("replays_ran", false, tally.first_error);
  out.set("attempted", tally.attempted);
  out.set("failed", tally.failed);
  out.set("checks", std::move(checks.list));
  return out;
}

/// Traced mode: the per-layer view of the same sessions. Every figure is
/// per session (times and counts summed over the ensemble members), the
/// median over sessions where it is timed.
json::Value run_traced(const WorkloadSpec& spec, const Args& args) {
  const std::size_t members = spec.ensemble;
  const std::size_t workers = spec.threads;
  Tally tally;
  std::vector<SetupTimes> setup_times;

  // Each session replays every member four times: plain; with every obs
  // sink and the phase counters on; as a fleet at the workload's worker
  // count with the span tracer alone (the fan-out spans — a one-cluster
  // fleet for the single-cluster workloads); and as a 1-worker fleet.
  std::vector<double> plain_s, plain_cpu_s, traced_s, t1_s;
  std::vector<double> shard_max_s, shard_mean_s, merge_s;
  std::vector<Outcome> plain(members), traced(members);
  bool traced_equal = true, all_conserved = true;
  std::unique_ptr<Env> env;
  const auto loop_start = Clock::now();
  for (std::size_t session = 0;
       session < 2 || (seconds_since(loop_start) < args.seconds && session < 1000);
       ++session) {
    env.reset();
    env = set_up(spec, args.seed, setup_times.emplace_back());
    double plain_sum = 0.0, cpu_sum = 0.0, traced_sum = 0.0, t1_sum = 0.0;
    FanOutSpans spans;
    for (std::size_t i = 0; i < members; ++i) {
      const trace::Trace& job_trace = *env->members[i].trace;
      tally.replay([&] {
        const Timed p = replay_member(spec, *env, i);
        plain[i] = p.outcome;
        plain_sum += p.wall_s;
        cpu_sum += p.cpu_s;
        const bool ok = conserved(p.outcome, job_trace);
        all_conserved = all_conserved && ok;
        return ok;
      });
      tally.replay([&] {
        obs::Registry registry;
        obs::SpanTracer tracer(true);
        const Timed t =
            replay_member(spec, *env, i, {&registry, &tracer, true});
        traced[i] = t.outcome;
        traced_sum += t.wall_s;
        const bool ok = plain[i].same_simulation(t.outcome);
        traced_equal = traced_equal && ok;
        return ok;
      });
      tally.replay([&] {
        // Fan-out spans from a replay with the tracer alone: the phase
        // counters' clock reads would inflate the shard spans.
        obs::SpanTracer fan_out(true);
        const Timed f =
            fleet_replay(spec, *env, i, workers, {nullptr, &fan_out, false});
        spans.add(harvest_spans(fan_out));
        return conserved(f.outcome, job_trace);
      });
      tally.replay([&] {
        const Timed one = fleet_replay(spec, *env, i, 1);
        t1_sum += one.wall_s;
        return conserved(one.outcome, job_trace);
      });
    }
    plain_s.push_back(plain_sum);
    plain_cpu_s.push_back(cpu_sum);
    traced_s.push_back(traced_sum);
    t1_s.push_back(t1_sum);
    shard_max_s.push_back(spans.shard_max_s);
    shard_mean_s.push_back(spans.shard_mean_s);
    merge_s.push_back(spans.merge_s);
  }
  Checks checks;
  checks.add("traced_bit_equal_plain", traced_equal,
             "attaching every obs sink never moves a simulation output");
  checks.add("conservation", all_conserved,
             "completed + abandoned == submitted == trace jobs, every replay");

  // The routing pass alone (FleetEngine::plan), per session, median of three.
  std::vector<double> plan_s;
  trace::RouterStats router;
  for (int round = 0; round < 3; ++round) {
    double sum = 0.0;
    router = {};
    for (const Member& member : env->members) {
      const trace::FleetEngine planner(fleet_config(spec, member.seed, workers));
      const auto t0 = Clock::now();
      const trace::RoutePlan route_plan = planner.plan(*member.trace);
      sum += seconds_since(t0);
      const trace::RouterStats& stats = route_plan.router;
      router.decisions += stats.decisions;
      router.spills += stats.spills;
      router.jobs_per_cluster.resize(stats.jobs_per_cluster.size());
      for (std::size_t c = 0; c < stats.jobs_per_cluster.size(); ++c)
        router.jobs_per_cluster[c] += stats.jobs_per_cluster[c];
    }
    plan_s.push_back(sum);
  }

  // Peak heap growth of one replay call of the first member, per job.
  if (spec.clusters == 1)
    env->session = std::make_unique<Session>(*env->trained, spec);
  heap::live.store(0);
  heap::peak.store(0);
  heap::tracking.store(true);
  tally.replay([&] {
    return replay_member(spec, *env, 0).outcome.same_simulation(plain[0]);
  });
  heap::tracking.store(false);
  const double bytes_per_job =
      static_cast<double>(heap::peak.load()) /
      static_cast<double>(env->members.front().trace->job_count());
  if (!tally.first_error.empty())
    checks.add("replays_ran", false, tally.first_error);

  // Per-call probes need a trained allocator; the fleet workload trains one
  // here (its replay call trains internally, once per call — train.s).
  std::unique_ptr<core::ResourcePowerAllocator> trained_here;
  double fleet_train_s = 0.0;
  const core::ResourcePowerAllocator* trained = env->trained.get();
  if (trained == nullptr) {
    const auto t0 = Clock::now();
    trained_here = std::make_unique<core::ResourcePowerAllocator>(
        core::ResourcePowerAllocator::train(*env->chip, *env->registry,
                                            wl::table8_pairs()));
    fleet_train_s = seconds_since(t0);
    trained = trained_here.get();
  }
  const Outcome o = sum_outcomes(plain);
  const Probes probes = run_probes(spec, *env, *trained, o.peak_queue_depth);

  const trace::PhaseCounters ph = sum_outcomes(traced).phases;
  const double plain_wall = median(plain_s);
  const double traced_wall = median(traced_s);
  const double t1 = median(t1_s);
  // Single-cluster workloads replay on one worker: tN is t1 itself.
  const double tn = spec.clusters > 1 ? plain_wall : t1;
  double cpu_total = 0.0, wall_total = 0.0;
  for (std::size_t k = 0; k < plain_s.size(); ++k) {
    cpu_total += plain_cpu_s[k];
    wall_total += plain_s[k];
  }
  std::vector<double> train_s, gen_s, fault_s;
  for (const SetupTimes& t : setup_times) {
    train_s.push_back(t.train_s);
    gen_s.push_back(t.gen_s);
    fault_s.push_back(t.fault_s);
  }
  const double train_time = spec.clusters > 1 ? fleet_train_s : median(train_s);
  const core::TrainingReport& training = trained->report();

  const std::size_t dispatched_jobs =
      2 * o.pair_dispatches + o.exclusive_dispatches;
  const std::size_t queue_ops = o.submitted + o.faults.retries + dispatched_jobs;
  const double search_s_est =
      static_cast<double>(o.dc_misses) * probes.allocate_ns * 1e-9;
  const double solve_s_est =
      static_cast<double>(o.memo_misses) * probes.solve_us * 1e-6;
  const double queue_s_est =
      static_cast<double>(queue_ops) * probes.queue_op_ns * 1e-9;
  const double route_s_est =
      static_cast<double>(o.route_decisions) * probes.route_ns * 1e-9;
  // The ledger reconciles against one worker's wall time: the plain replays
  // for single-cluster workloads, the 1-worker fleet replays (which also
  // route, and train once per call) for the fleet.
  const double measured = spec.clusters > 1 ? t1 : plain_wall;
  const double attributed =
      search_s_est + solve_s_est + queue_s_est + route_s_est +
      (spec.clusters > 1 ? train_time * static_cast<double>(members) : 0.0);
  double max_jobs = 0.0, sum_jobs = 0.0;
  std::size_t empty_clusters = 0;
  for (const std::size_t jobs : router.jobs_per_cluster) {
    max_jobs = std::max(max_jobs, static_cast<double>(jobs));
    sum_jobs += static_cast<double>(jobs);
    if (jobs == 0) ++empty_clusters;
  }
  const double mean_jobs =
      router.jobs_per_cluster.empty()
          ? 0.0
          : sum_jobs / static_cast<double>(router.jobs_per_cluster.size());

  json::Value layers = json::Value::object();
  layers.set("gen.trace_s", median(gen_s));
  layers.set("train.s", train_time);
  layers.set("train.solo_runs", training.solo_runs);
  layers.set("train.corun_runs", training.corun_runs);
  layers.set("fault.plan_s", median(fault_s));
  layers.set("fault.failures_injected", o.faults.failures_injected);
  layers.set("fault.retries", o.faults.retries);
  layers.set("fault.jobs_killed", o.faults.jobs_killed);
  layers.set("fault.jobs_shed", o.faults.jobs_shed);
  layers.set("fault.node_failures", o.faults.node_failures);
  layers.set("fault.power_emergencies", o.faults.power_emergencies);
  layers.set("route.plan_s", median(plan_s));
  layers.set("route.decisions", router.decisions);
  layers.set("route.ns_per_decision", probes.route_ns);
  layers.set("route.spill_frac", ratio(router.spills, router.decisions));
  layers.set("route.skew", mean_jobs == 0.0 ? 0.0 : max_jobs / mean_jobs);
  layers.set("route.empty_clusters", empty_clusters);
  layers.set("fleet.t1_s", t1);
  layers.set("fleet.parallel_eff", t1 / (static_cast<double>(workers) * tn));
  layers.set("fleet.shard_s_max", median(shard_max_s));
  layers.set("fleet.shard_s_mean", median(shard_mean_s));
  layers.set("fleet.merge_s", median(merge_s));
  layers.set("fleet.cpu_per_wall", ratio(cpu_total, wall_total));
  layers.set("engine.steps", ph.steps);
  layers.set("engine.ns_per_step",
             ph.steps == 0 ? 0.0
                           : 1e9 * measured / static_cast<double>(ph.steps));
  layers.set("engine.budget_events", o.budget_events);
  layers.set("engine.peak_queue_depth", o.peak_queue_depth);
  layers.set("engine.phase.event_apply_s", ph.event_apply_seconds);
  layers.set("engine.phase.dispatch_s", ph.dispatch_seconds);
  layers.set("engine.phase.accounting_s", ph.accounting_seconds);
  layers.set("engine.phase.completion_s", ph.completion_seconds);
  layers.set("sched.dispatches", o.pair_dispatches + o.exclusive_dispatches);
  layers.set("sched.pair_frac", ratio(2 * o.pair_dispatches, dispatched_jobs));
  layers.set("sched.profile_runs", o.profile_runs);
  layers.set("sched.dc_probes", o.dc_hits + o.dc_misses);
  layers.set("sched.dc_hit_rate", ratio(o.dc_hits, o.dc_hits + o.dc_misses));
  layers.set("sched.dc_evictions", o.dc_evictions);
  layers.set("sched.memo_probes", o.memo_hits + o.memo_misses);
  layers.set("sched.memo_hit_rate",
             ratio(o.memo_hits, o.memo_hits + o.memo_misses));
  layers.set("sched.queue_op_ns", probes.queue_op_ns);
  layers.set("core.searches", o.dc_misses);
  layers.set("core.allocate_ns", probes.allocate_ns);
  layers.set("core.search_s_est", search_s_est);
  layers.set("gpusim.solves", o.memo_misses);
  layers.set("gpusim.solve_us", probes.solve_us);
  layers.set("gpusim.solve_s_est", solve_s_est);
  layers.set("mem.bytes_per_job", bytes_per_job);
  layers.set("obs.trace_overhead_pct",
             100.0 * (traced_wall - plain_wall) / plain_wall);
  layers.set("ledger.attributed_frac", ratio(attributed, measured));
  layers.set("ledger.unattributed_s", measured - attributed);

  json::Value detail = json::Value::object();
  detail.set("sessions", plain_s.size());
  detail.set("plain_session_s", array_of(plain_s));
  detail.set("traced_session_s", array_of(traced_s));
  detail.set("fleet_t1_session_s", array_of(t1_s));
  detail.set("probe_pairs", probes.pairs);
  detail.set("ledger_queue_s_est", queue_s_est);
  detail.set("ledger_route_s_est", route_s_est);

  json::Value out = json::Value::object();
  out.set("setup", setup_json(setup_times));
  out.set("attempted", tally.attempted);
  out.set("failed", tally.failed);
  out.set("outcome", ensemble_json(plain));
  out.set("traced_outcome", ensemble_json(traced));
  out.set("layers", std::move(layers));
  out.set("detail", std::move(detail));
  out.set("checks", std::move(checks.list));
  return out;
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload "
               "cluster_poisson|fleet_affinity|budget_churn --seed N "
               "--seconds S --trace 0|1\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process: every session frees and re-allocates
  // the same footprint, and returning it to the kernel in between would
  // time the kernel's page faults on every set-up and replay, not the
  // library.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) return usage("--workload is required");
  try {
    const WorkloadSpec spec = make_spec(args.workload);
    json::Value out = args.trace ? run_traced(spec, args) : run_plain(spec, args);
    json::Value host = json::Value::object();
    host.set("compiler", PERFBENCH_COMPILER);
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("shard_workers", spec.threads);
    host.set("usable_cpus", usable_cpus());
    out.set("host", std::move(host));
    out.set("workload", spec.name);
    out.set("seed", static_cast<std::int64_t>(args.seed));
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
}
