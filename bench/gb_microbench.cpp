// google-benchmark microbenchmarks for the library's hot paths: simulator
// steady-state solves, model training, prediction, and optimizer decisions.
// These quantify the cost of the online phase (the paper's workflow runs the
// decision step inside a job scheduler, so latency matters).
//
// main() speaks the shared report-harness CLI (--json/--filter/--list) and
// maps it onto Google Benchmark's flags; --json captures every run into the
// same BENCH_<name>.json schema the figure benches emit. --threads is
// accepted for CLI uniformity but ignored: each timing loop must own the
// machine. Native --benchmark_* flags (e.g. --benchmark_repetitions=5,
// --benchmark_min_time) pass through to Google Benchmark untouched.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "core/hw_state.hpp"
#include "core/optimizer.hpp"
#include "core/trainer.hpp"
#include "profiling/profiler.hpp"
#include "report/bench_env.hpp"
#include "report/harness.hpp"
#include "sched/cluster.hpp"
#include "sched/run_memo.hpp"
#include "sched/coscheduler.hpp"
#include "trace/fleet.hpp"
#include "trace/presets.hpp"
#include "trace/sim_engine.hpp"

namespace {

using namespace migopt;
using report::MetricValue;

void BM_SimulatorSoloRun(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto& kernel = env.kernel("sgemm");
  for (auto _ : state) {
    const auto run = env.chip.run_solo(kernel, 4, gpusim::MemOption::Shared, 200.0);
    benchmark::DoNotOptimize(run.apps[0].seconds_per_wu);
  }
}
BENCHMARK(BM_SimulatorSoloRun);

void BM_SimulatorPairRunCapped(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto& a = env.kernel("igemm4");
  const auto& b = env.kernel("stream");
  for (auto _ : state) {
    const auto run = env.chip.run_pair(a, 4, b, 3, gpusim::MemOption::Shared, 200.0);
    benchmark::DoNotOptimize(run.power_watts);
  }
}
BENCHMARK(BM_SimulatorPairRunCapped);

// The two ways a sched::RunMemo front miss is served, over the shapes a
// replay of four apps dispatches: exclusive full-chip runs, pairs in the
// paper's four partition states, and the slice-solo survivors of those
// pairs, each at four grid caps (272 keys, cycled in order). MissSolve pays
// the steady-state solve (no store attached); MissStoreHit finds the shape
// in a warm gpusim::SolveStore, as every session after a registry's first
// does. Both clear the front each iteration so every probe misses it.
struct MemoShape {
  sched::RunMemo::Key key;
  std::vector<gpusim::GpuChip::GroupMember> members;
};

std::vector<MemoShape> replay_memo_shapes() {
  const auto& env = report::Environment::get();
  std::vector<MemoShape> shapes;
  const char* apps[] = {"igemm4", "stream", "srad", "needle"};
  for (const double cap : {150.0, 190.0, 230.0, 250.0}) {
    for (const char* a : apps) {
      const gpusim::KernelDescriptor* k1 = &env.kernel(a);
      shapes.push_back({{k1, nullptr, env.chip.arch().total_gpcs, 0, -1, cap},
                        {{k1, env.chip.arch().total_gpcs}}});
      for (const core::PartitionState& state : core::paper_states()) {
        const int option = static_cast<int>(state.option);
        shapes.push_back({{k1, nullptr, state.gpcs_app1, 0, option, cap},
                          {{k1, state.gpcs_app1}}});
        for (const char* b : apps) {
          if (b == a) continue;
          const gpusim::KernelDescriptor* k2 = &env.kernel(b);
          shapes.push_back(
              {{k1, k2, state.gpcs_app1, state.gpcs_app2, option, cap},
               {{k1, state.gpcs_app1}, {k2, state.gpcs_app2}}});
        }
      }
    }
  }
  return shapes;
}

/// The solve sched::Node runs for `shape`.
gpusim::RunResult solve_memo_shape(const MemoShape& shape) {
  const auto& chip = report::Environment::get().chip;
  const sched::RunMemo::Key& key = shape.key;
  if (key.kernel2 != nullptr)
    return chip.run_group(shape.members,
                          static_cast<gpusim::MemOption>(key.option),
                          key.cap_watts);
  if (key.option < 0) return chip.run_full_chip(*key.kernel1, key.cap_watts);
  return chip.run_solo(*key.kernel1, key.gpcs1,
                       static_cast<gpusim::MemOption>(key.option),
                       key.cap_watts);
}

void run_memo_miss_benchmark(benchmark::State& state,
                             gpusim::SolveStore* store) {
  const std::vector<MemoShape> shapes = replay_memo_shapes();
  if (store != nullptr)
    for (const MemoShape& shape : shapes)
      store->get_or_solve(shape.key, [&] { return solve_memo_shape(shape); });
  sched::RunMemo memo;
  memo.attach(store);
  std::size_t i = 0;
  for (auto _ : state) {
    memo.clear();
    const MemoShape& shape = shapes[i];
    benchmark::DoNotOptimize(
        memo.get_or_solve(shape.key, [&] { return solve_memo_shape(shape); })
            .power_watts);
    i = (i + 1) % shapes.size();
  }
}

void BM_RunMemoMissSolve(benchmark::State& state) {
  run_memo_miss_benchmark(state, nullptr);
}
BENCHMARK(BM_RunMemoMissSolve);

void BM_RunMemoMissStoreHit(benchmark::State& state) {
  gpusim::SolveStore store(report::Environment::get().chip.arch());
  run_memo_miss_benchmark(state, &store);
}
BENCHMARK(BM_RunMemoMissStoreHit);

void BM_ProfileRun(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto& kernel = env.kernel("leukocyte");
  for (auto _ : state) {
    const auto counters = prof::profile_run(env.chip, kernel);
    benchmark::DoNotOptimize(counters.values[0]);
  }
}
BENCHMARK(BM_ProfileRun);

// Steady-state per-candidate prediction cost on the decision hot path: the
// optimizer computes the H/J bases once per decide() and pre-interns the
// dense coefficient keys of its candidate grid, so each scored (S, P) pays
// only this prepared kernel. (Before the dense-table refactor this bench
// recomputed bases and took four std::map lookups per call — that legacy
// shape is kept as BM_ModelPredictPairColdBases below.)
void BM_ModelPredictPair(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const core::PartitionState s{4, 3, gpusim::MemOption::Shared};
  const core::PreparedPair prepared =
      core::prepare_pair(env.profile("igemm4"), env.profile("stream"));
  const auto& model = env.artifacts.model;
  const auto key1 = model.dense_key(s.gpcs_app1, s.option, 230);
  const auto key2 = model.dense_key(s.gpcs_app2, s.option, 230);
  for (auto _ : state) {
    const auto m =
        core::predict_pair_prepared(model, prepared, key1, key2, s, 230.0);
    benchmark::DoNotOptimize(m.throughput);
  }
}
BENCHMARK(BM_ModelPredictPair);

// One-shot prediction from raw profiles (basis features recomputed per call)
// — what callers outside a search loop pay.
void BM_ModelPredictPairColdBases(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto& f1 = env.profile("igemm4");
  const auto& f2 = env.profile("stream");
  const core::PartitionState s{4, 3, gpusim::MemOption::Shared};
  for (auto _ : state) {
    const auto m = core::predict_pair(env.artifacts.model, f1, f2, s, 230.0);
    benchmark::DoNotOptimize(m.throughput);
  }
}
BENCHMARK(BM_ModelPredictPairColdBases);

// The batched kernel: sweep every cap of one partition state against the
// pre-interned coefficient rows — the optimizer's inner loop per state.
void BM_ModelPredictStateSweepBatched(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto& model = env.artifacts.model;
  const core::PartitionState s{4, 3, gpusim::MemOption::Shared};
  const core::PreparedPair prepared =
      core::prepare_pair(env.profile("igemm4"), env.profile("stream"));
  const auto caps = core::paper_power_caps();
  struct Candidate {
    core::PerfModel::DenseKey key1;
    core::PerfModel::DenseKey key2;
    double cap;
  };
  std::vector<Candidate> grid;
  for (const double cap : caps) {
    const int watts = core::cap_grid_watts(cap);
    grid.push_back({model.dense_key(s.gpcs_app1, s.option, watts),
                    model.dense_key(s.gpcs_app2, s.option, watts), cap});
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (const Candidate& c : grid)
      acc += core::predict_pair_prepared(model, prepared, c.key1, c.key2, s,
                                         c.cap)
                 .throughput;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ModelPredictStateSweepBatched);

void BM_OptimizerExhaustiveProblem1(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const core::Optimizer optimizer =
      core::Optimizer::paper_default(env.artifacts.model);
  const core::Policy policy = core::Policy::problem1(230.0, 0.2);
  for (auto _ : state) {
    const auto d = optimizer.decide(env.profile("srad"), env.profile("needle"), policy);
    benchmark::DoNotOptimize(d.objective_value);
  }
}
BENCHMARK(BM_OptimizerExhaustiveProblem1);

void BM_OptimizerExhaustiveProblem2(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const core::Optimizer optimizer =
      core::Optimizer::paper_default(env.artifacts.model);
  const core::Policy policy = core::Policy::problem2(0.2);
  for (auto _ : state) {
    const auto d = optimizer.decide(env.profile("srad"), env.profile("needle"), policy);
    benchmark::DoNotOptimize(d.objective_value);
  }
}
BENCHMARK(BM_OptimizerExhaustiveProblem2);

void BM_OptimizerHillClimbFlexible(benchmark::State& state) {
  const auto& env = report::Environment::get();
  // The flexible space includes 1g/2g splits, so the interference term must
  // be trained over those states too (the paper grid covers only the 4+3
  // splits).
  const core::Optimizer optimizer(report::flexible_artifacts(env).model,
                                  core::flexible_states(env.chip.arch()),
                                  core::paper_power_caps());
  const core::Policy policy = core::Policy::problem2(0.2);
  Rng rng(1234);
  for (auto _ : state) {
    const auto d = optimizer.decide_hill_climb(env.profile("srad"),
                                               env.profile("needle"), policy, rng, 4);
    benchmark::DoNotOptimize(d.objective_value);
  }
}
BENCHMARK(BM_OptimizerHillClimbFlexible);

// Exhaustive decide() over a large synthetic state space (every 2-way split
// of 1..6 GPCs in both options x a 100..400 W cap grid in 10 W steps —
// ~1300 candidates), the "far larger search spaces" direction of Section 6.
void BM_OptimizerExhaustiveLargeSynthetic(benchmark::State& state) {
  const auto& env = report::Environment::get();
  static const core::PerfModel synthetic_model = [] {
    core::PerfModel model;
    for (int gpcs = 1; gpcs <= 6; ++gpcs) {
      for (const auto option :
           {gpusim::MemOption::Shared, gpusim::MemOption::Private}) {
        for (int cap = 100; cap <= 400; cap += 10) {
          const auto key = core::ModelKey::make(gpcs, option, cap);
          const double scale =
              (0.12 + 0.11 * gpcs) * (0.6 + 0.4 * (cap - 100.0) / 300.0);
          model.set_scalability(key, {0.3 * scale, 0.5 * scale, -0.05 * scale,
                                      0.1 * scale, 0.2 * scale, 0.4 * scale});
          model.set_interference(key, {-0.08, -0.03, -0.01});
        }
      }
    }
    return model;
  }();
  static const std::vector<core::PartitionState> synthetic_states = [] {
    std::vector<core::PartitionState> states;
    for (int g1 = 1; g1 <= 6; ++g1)
      for (int g2 = 1; g2 + g1 <= 7; ++g2)
        for (const auto option :
             {gpusim::MemOption::Shared, gpusim::MemOption::Private})
          states.push_back({g1, g2, option});
    return states;
  }();
  static const std::vector<double> synthetic_caps = [] {
    std::vector<double> caps;
    for (int cap = 100; cap <= 400; cap += 10) caps.push_back(cap);
    return caps;
  }();
  const core::Optimizer optimizer(synthetic_model, synthetic_states,
                                  synthetic_caps);
  const core::Policy policy = core::Policy::problem2(0.2);
  for (auto _ : state) {
    const auto d =
        optimizer.decide(env.profile("srad"), env.profile("needle"), policy);
    benchmark::DoNotOptimize(d.objective_value);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(synthetic_states.size() * synthetic_caps.size()));
}
BENCHMARK(BM_OptimizerExhaustiveLargeSynthetic);

// A warm-table scheduler dispatch: the pairing-window search is answered by
// the scheduler's decision table instead of re-running the exhaustive search.
void BM_SchedulerCachedDispatch(benchmark::State& state) {
  const auto& env = report::Environment::get();
  static core::ResourcePowerAllocator allocator(
      env.artifacts.model, env.artifacts.profiles,
      core::ResourcePowerAllocator::Config{});
  static sched::CoScheduler scheduler(allocator,
                                      core::Policy::problem1(230.0, 0.2));
  sched::Job job1;
  job1.id = 0;
  job1.app_id = scheduler.intern_app("igemm4");
  job1.kernel = &env.kernel("igemm4");
  job1.work_units = 100.0;
  sched::Job job2 = job1;
  job2.id = 1;
  job2.app_id = scheduler.intern_app("stream");
  job2.kernel = &env.kernel("stream");
  sched::JobQueue queue;
  for (auto _ : state) {
    queue.push(job1);
    queue.push(job2);
    const auto plan = scheduler.next(queue, 0.0);
    benchmark::DoNotOptimize(plan->power_cap_watts);
  }
}
BENCHMARK(BM_SchedulerCachedDispatch);

// SymbolTable hit path: what the trace->sched boundary pays per event for
// an app/tenant identity instead of a string map walk.
void BM_SymbolTableInternHit(benchmark::State& state) {
  const auto& env = report::Environment::get();
  SymbolTable table;
  for (const auto& name : env.registry.names()) table.intern(name);
  std::size_t i = 0;
  const auto names = env.registry.names();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.intern(names[i]));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_SymbolTableInternHit);

// FlatMap vs std::unordered_map on the access shapes of the migrated
// hot-path tables (RunMemo, SymbolTable, ProfileDb; the retired LRU
// decision cache also sat on FlatMap):
// resident-key probes (hit) and erase+insert churn at a standing size (the
// miss path is covered by the FlatMap.Fuzz* tests against
// std::unordered_map; its timing row was too noisy to resolve a change). Both containers get the same trivial hash over
// pre-randomized 64-bit keys; FlatMap applies its hash_mix seeding on top,
// exactly as the hot path does.
struct U64Hash {
  std::size_t operator()(std::uint64_t v) const noexcept {
    return static_cast<std::size_t>(v);
  }
};
using BenchFlatMap =
    FlatMap<std::uint64_t, std::uint64_t, U64Hash, std::equal_to<>>;
using BenchStdMap =
    std::unordered_map<std::uint64_t, std::uint64_t, U64Hash>;

constexpr std::size_t kMapEntries = 4096;

std::vector<std::uint64_t> bench_map_keys(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.next());
  return keys;
}

const std::uint64_t* map_lookup(const BenchFlatMap& map, std::uint64_t key) {
  return map.find(key);
}
const std::uint64_t* map_lookup(const BenchStdMap& map, std::uint64_t key) {
  const auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

template <typename Map>
void map_hit_benchmark(benchmark::State& state) {
  const auto keys = bench_map_keys(11, kMapEntries);
  Map map;
  for (const auto key : keys) map.try_emplace(key, key);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*map_lookup(map, keys[i]));
    i = (i + 1) & (kMapEntries - 1);
  }
}

// Sliding window of kMapEntries resident keys over a 2x key ring: every
// iteration erases the oldest key and inserts a fresh one, so the table
// sits at a constant load while slots/buckets recycle continuously (the
// RunMemo-across-sessions shape, and that of an LRU cache at capacity).
template <typename Map>
void map_churn_benchmark(benchmark::State& state) {
  const auto keys = bench_map_keys(17, 2 * kMapEntries);
  Map map;
  for (std::size_t i = 0; i < kMapEntries; ++i)
    map.try_emplace(keys[i], keys[i]);
  std::size_t head = 0, tail = kMapEntries;
  const std::size_t mask = 2 * kMapEntries - 1;
  for (auto _ : state) {
    map.erase(keys[head & mask]);
    map.try_emplace(keys[tail & mask], tail);
    ++head;
    ++tail;
  }
}

void BM_FlatMapHit(benchmark::State& state) {
  map_hit_benchmark<BenchFlatMap>(state);
}
BENCHMARK(BM_FlatMapHit);
void BM_UnorderedMapHit(benchmark::State& state) {
  map_hit_benchmark<BenchStdMap>(state);
}
BENCHMARK(BM_UnorderedMapHit);

void BM_FlatMapChurn(benchmark::State& state) {
  map_churn_benchmark<BenchFlatMap>(state);
}
BENCHMARK(BM_FlatMapChurn);
void BM_UnorderedMapChurn(benchmark::State& state) {
  map_churn_benchmark<BenchStdMap>(state);
}
BENCHMARK(BM_UnorderedMapChurn);

// One batched dispatch of a 16-job ready burst onto an idle 8-node cluster:
// batch-context setup (one decision-table/profile sync per batch), the
// probe loop, and budget arithmetic — the per-burst cost the replay loop
// pays, with the decision table warm across iterations as it is mid-replay.
void BM_DispatchBatch(benchmark::State& state) {
  const auto& env = report::Environment::get();
  static core::ResourcePowerAllocator allocator(
      env.artifacts.model, env.artifacts.profiles,
      core::ResourcePowerAllocator::Config{});
  static sched::CoScheduler scheduler(allocator,
                                      core::Policy::problem1(230.0, 0.2));
  sched::ClusterConfig config;
  config.node_count = 8;
  config.collect_job_stats = false;
  const char* apps[] = {"igemm4", "stream", "srad", "needle"};
  constexpr std::size_t kBurst = 16;
  for (auto _ : state) {
    sched::Cluster cluster(config);
    cluster.begin_session(scheduler);
    for (std::size_t i = 0; i < kBurst; ++i) {
      sched::Job job;
      job.id = static_cast<int>(i);
      job.app_id = scheduler.intern_app(apps[i % 4]);
      job.kernel = &env.kernel(apps[i % 4]);
      job.work_units = 100.0;
      cluster.submit(job);
    }
    benchmark::DoNotOptimize(cluster.dispatch(scheduler, 0.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_DispatchBatch);

// End-to-end trace replay at a fixed job count over a widening fleet. The
// event core's per-event cost must not scale with the node count: time per
// job stays flat from 8 to 128 nodes.
void BM_TraceReplayIndexedCore(benchmark::State& state) {
  const auto& env = report::Environment::get();
  static core::ResourcePowerAllocator allocator(
      env.artifacts.model, env.artifacts.profiles,
      core::ResourcePowerAllocator::Config{});
  constexpr std::size_t kReplayJobs = 4000;
  const int nodes = static_cast<int>(state.range(0));

  sched::CoScheduler scheduler(allocator,
                               trace::regime_policy(trace::ReplayRegime::Poisson));
  sched::ClusterConfig cluster_config;
  cluster_config.node_count = nodes;
  cluster_config.max_sim_seconds = 1.0e8;
  cluster_config.collect_job_stats = false;
  trace::SimConfig sim_config;
  sim_config.max_sim_seconds = 1.0e8;
  const trace::SimEngine engine(sim_config);
  const trace::Trace job_trace = trace::make_regime_trace(
      trace::ReplayRegime::Poisson, kReplayJobs, nodes, 7, env.registry.names());

  for (auto _ : state) {
    // Fresh cluster per replay: trace timestamps are absolute, so a reused
    // cluster's advanced node clocks cannot host a t=0 session.
    sched::Cluster cluster(cluster_config);
    const auto report = engine.replay(job_trace, env.registry, cluster, scheduler);
    benchmark::DoNotOptimize(report.cluster.jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplayJobs));
}
BENCHMARK(BM_TraceReplayIndexedCore)
    ->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// obs hot-path price: one counter add through an enabled Metrics handle —
// the per-event cost an instrumented replay pays at each count site.
void BM_CounterHot(benchmark::State& state) {
  obs::Registry registry;
  const obs::Metrics metrics(&registry);
  const obs::MetricId id = metrics.counter("bench.counter");
  for (auto _ : state) {
    metrics.add(id);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterHot);

// One log2-histogram record with a varying value (SplitMix64 stream): the
// bucket index is a single bit_width, so this should stay within a few ns
// of the counter add.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  const obs::Metrics metrics(&registry);
  const obs::MetricId id = metrics.histogram("bench.histogram");
  SplitMix64 values(7);
  for (auto _ : state) {
    metrics.record(id, values.next());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// The whole-replay observability overhead at microbench scale: the
// 8-node replay of BM_TraceReplayIndexedCore with the metrics registry and
// telemetry sampler attached. Compare against BM_TraceReplayIndexedCore/8 —
// the delta is the end-to-end metrics cost (target: within noise).
void BM_ReplayMetricsOverhead(benchmark::State& state) {
  const auto& env = report::Environment::get();
  static core::ResourcePowerAllocator allocator(
      env.artifacts.model, env.artifacts.profiles,
      core::ResourcePowerAllocator::Config{});
  constexpr std::size_t kReplayJobs = 4000;
  const int nodes = static_cast<int>(state.range(0));

  sched::CoScheduler scheduler(allocator,
                               trace::regime_policy(trace::ReplayRegime::Poisson));
  sched::ClusterConfig cluster_config;
  cluster_config.node_count = nodes;
  cluster_config.max_sim_seconds = 1.0e8;
  cluster_config.collect_job_stats = false;
  const trace::Trace job_trace = trace::make_regime_trace(
      trace::ReplayRegime::Poisson, kReplayJobs, nodes, 7, env.registry.names());

  for (auto _ : state) {
    obs::Registry registry;
    trace::SimConfig sim_config;
    sim_config.max_sim_seconds = 1.0e8;
    sim_config.metrics = &registry;
    sim_config.telemetry.interval_seconds = 2000.0;
    sched::Cluster cluster(cluster_config);
    const auto report = trace::SimEngine(sim_config).replay(
        job_trace, env.registry, cluster, scheduler);
    benchmark::DoNotOptimize(report.cluster.jobs_completed);
    benchmark::DoNotOptimize(registry.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplayJobs));
}
BENCHMARK(BM_ReplayMetricsOverhead)->Arg(8)->Unit(benchmark::kMillisecond);

// The admission layer alone: FleetEngine::plan routes every arrival and
// splits every budget event against the open-loop load model, without
// replaying anything — the per-decision cost a serving frontend pays.
void BM_FleetRoute(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const int clusters = static_cast<int>(state.range(0));
  constexpr std::size_t kRouteJobs = 20000;
  trace::FleetConfig config;
  config.cluster_count = clusters;
  config.cluster.node_count = 8;
  config.router.policy = trace::RouterPolicy::TenantAffinity;
  config.router.spill_delay_seconds = 120.0;
  config.fleet_power_budget_watts = 250.0 * 8 * clusters;
  const trace::FleetEngine engine(config);
  const trace::Trace fleet_trace = trace::make_regime_trace(
      trace::ReplayRegime::Poisson, kRouteJobs, 8 * clusters, 7,
      env.registry.names());
  for (auto _ : state) {
    const trace::RoutePlan plan = engine.plan(fleet_trace);
    benchmark::DoNotOptimize(plan.router.decisions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRouteJobs));
}
BENCHMARK(BM_FleetRoute)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// JobQueue steady-state churn at a standing depth (16 / 1k / 4k): one push
// + one indexed peek + one pop per iteration, the pop landing within the
// scheduler's 8-wide pairing window of the head. Pops retire entries at a
// head offset, so the per-op cost should stay flat across depths.
// Priorities are uniform so insertion is the O(1) append and the row
// isolates the pop path.
void BM_JobQueueChurn(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const auto depth = static_cast<std::size_t>(state.range(0));
  sched::Job job;
  job.id = 0;
  job.app_id = 0;  // the queue never resolves app ids
  job.kernel = &env.kernel("sgemm");
  job.work_units = 100.0;
  sched::JobQueue queue;
  for (std::size_t i = 0; i < depth; ++i) {
    job.id = static_cast<int>(i);
    job.submit_time = static_cast<double>(i);
    queue.push(job);
  }
  double now = static_cast<double>(depth);
  for (auto _ : state) {
    job.id += 1;
    job.submit_time = now;
    queue.push(job);
    benchmark::DoNotOptimize(queue.peek(queue.size() / 2).id);
    benchmark::DoNotOptimize(queue.pop_at(static_cast<std::size_t>(job.id) % 8).id);
    now += 1.0;
  }
}
BENCHMARK(BM_JobQueueChurn)->Arg(16)->Arg(1024)->Arg(4096);

// Problem 2 under a moving budget ceiling, the two ways a decision-table
// cell could be filled: a fresh exhaustive search under the ceiling, or a
// lookup into the pair's cap curve (Optimizer::decide_all_ceilings, built
// once per pair) at the ceiling's level — the way the table fills it. The ceilings cycle through
// on-grid, between-grid and unbounded values.
constexpr double kProblem2Ceilings[] = {211.0, 189.5, 250.0, 1.0e9, 170.0, 231.7};

void BM_Problem2Search(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const core::Optimizer optimizer =
      core::Optimizer::paper_default(env.artifacts.model);
  const core::Policy policy = core::Policy::problem2(0.2);
  std::size_t i = 0;
  for (auto _ : state) {
    const double ceiling = kProblem2Ceilings[i++ % std::size(kProblem2Ceilings)];
    const auto d = optimizer.decide(env.profile("srad"), env.profile("needle"),
                                    policy.with_ceiling(ceiling));
    benchmark::DoNotOptimize(d.objective_value);
  }
}
BENCHMARK(BM_Problem2Search);

void BM_Problem2CurveLookup(benchmark::State& state) {
  const auto& env = report::Environment::get();
  const core::Optimizer optimizer =
      core::Optimizer::paper_default(env.artifacts.model);
  const std::vector<core::Decision> curve = optimizer.decide_all_ceilings(
      env.profile("srad"), env.profile("needle"), core::Policy::problem2(0.2));
  std::size_t i = 0;
  for (auto _ : state) {
    const double ceiling = kProblem2Ceilings[i++ % std::size(kProblem2Ceilings)];
    const core::Decision d =
        curve[static_cast<std::size_t>(optimizer.ceiling_level(ceiling))];
    benchmark::DoNotOptimize(d.objective_value);
  }
}
BENCHMARK(BM_Problem2CurveLookup);

void BM_OfflineTrainingFullGrid(benchmark::State& state) {
  const auto& env = report::Environment::get();
  core::TrainingConfig config;
  for (auto _ : state) {
    const auto artifacts =
        core::train_offline(env.chip, env.registry, env.pairs, config);
    benchmark::DoNotOptimize(artifacts.model.scalability_entries());
  }
}
BENCHMARK(BM_OfflineTrainingFullGrid)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally captures every run for the BENCH
/// document.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    long long iterations;
    double real_time;
    double cpu_time;
    std::string time_unit;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      captured_.push_back({run.benchmark_name(),
                           static_cast<long long>(run.iterations),
                           run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                           benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  // Split native --benchmark_* flags out before the shared parser sees (and
  // rejects) them; they are handed to benchmark::Initialize verbatim.
  std::vector<std::string> native_flags;
  std::vector<char*> harness_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_", 0) == 0)
      native_flags.push_back(argv[i]);
    else
      harness_argv.push_back(argv[i]);
  }
  const auto options =
      report::parse_options(static_cast<int>(harness_argv.size()),
                            harness_argv.data(), /*allow_positionals=*/false);
  if (!options.has_value()) return 1;
  if (options->help) {
    std::printf("gb_microbench — google-benchmark hot-path timings\n\n"
                "options (--filter maps to --benchmark_filter; any native\n"
                "--benchmark_* flag passes through; --threads is accepted\n"
                "but ignored — timing loops must own the machine):\n%s",
                report::usage_text().c_str());
    return 0;
  }

  std::vector<std::string> args = {argv[0]};
  if (options->list) args.push_back("--benchmark_list_tests=true");
  if (!options->filter.empty())
    args.push_back("--benchmark_filter=" + options->filter);
  args.insert(args.end(), native_flags.begin(), native_flags.end());
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());

  benchmark::Initialize(&argc2, argv2.data());
  CaptureReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (options->list) return 0;
  if (ran == 0 && !options->filter.empty()) {
    std::fprintf(stderr, "error: no microbenchmark matches filter '%s'\n",
                 options->filter.c_str());
    return 1;
  }

  if (options->json_path.has_value()) {
    report::Section section;
    section.label_header = "benchmark";
    section.columns = {"iterations", "real_time", "cpu_time", "time_unit"};
    for (const auto& run : reporter.captured())
      section.add_row(run.name,
                      {MetricValue::of_count(run.iterations),
                       MetricValue::num(run.real_time, 1),
                       MetricValue::num(run.cpu_time, 1),
                       MetricValue::str(run.time_unit)});
    report::ScenarioResult result;
    result.add_section(std::move(section));
    const report::Scenario scenario{
        "hot_path_latency", "Microbench",
        "google-benchmark timings of the simulator/model/optimizer hot paths",
        nullptr};
    report::CompletedScenario completed;
    completed.scenario = &scenario;
    completed.result = std::move(result);
    try {
      report::write_json_file(
          *options->json_path,
          report::to_json("gb_microbench", options->metadata, {completed}));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\nwrote %s (%zu benchmarks)\n", options->json_path->c_str(),
                reporter.captured().size());
  }
  return 0;
}
