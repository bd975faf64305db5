#include "trace/sim_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "common/prefetch.hpp"

namespace migopt::trace {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-job bookkeeping the sched::Job does not carry (indexed by JobId,
/// which the engine assigns densely in arrival order).
struct JobBook {
  std::size_t tenant_index = 0;
  double deadline_absolute = 0.0;  ///< 0 = none
  double modeled_solo_seconds = 0.0;
  // Fault-plan state (untouched on the fault-free path): how many of this
  // job's completions the plan fails (drawn once at arrival from the job's
  // own stream — order and thread-count independent), how many have failed
  // so far, and how many retries have been spent (crashes, sheds, and
  // transient failures share one budget).
  std::uint32_t attempts_to_fail = 0;
  std::uint32_t failures = 0;
  std::uint32_t retries = 0;
};

/// A killed or failed job waiting out its backoff before re-submission.
/// Ordered by (release, seq): seq is the engine's monotonically increasing
/// retry counter, so equal-release retries re-enter the queue in the order
/// their failures were processed — deterministic.
struct RetryEntry {
  double release = 0.0;
  std::uint64_t seq = 0;
  sched::Job job;
};

constexpr auto kRetryOrder = [](const RetryEntry& a, const RetryEntry& b) {
  return a.release != b.release ? a.release > b.release : a.seq > b.seq;
};

/// Memoized per-app arrival constants (indexed by the scheduler's AppId):
/// the registry walk and the baseline-seconds model run once per distinct
/// app instead of once per job.
struct AppInfo {
  const gpusim::KernelDescriptor* kernel = nullptr;
  double solo_seconds_per_wu = 0.0;
};

struct TenantAccum {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t deadline_misses = 0;
  double work_seconds = 0.0;
  double wait_sum = 0.0;
  double slowdown_sum = 0.0;
};

/// What the event loop needs of one due trace event, source-independent.
struct EventView {
  const TraceEvent* arrival = nullptr;  ///< null -> budget event
  double time = 0.0;
  double watts = 0.0;      ///< budget events only; <= 0 lifts the contract
  Symbol tenant = kNoSymbol;  ///< arrivals only
};

/// Event source over a plain Trace: walks the event array in order and
/// interns tenant names locally (first-appearance dense ids).
struct TraceSource {
  const Trace& trace;
  SymbolTable tenant_symbols;
  std::size_t next = 0;
  /// Due time of events[next], maintained across pops (see RoutedSource).
  double head_time = kInf;

  explicit TraceSource(const Trace& t) : trace(t) {
    if (!t.events.empty()) head_time = t.events.front().time_seconds;
  }

  std::size_t event_count() const { return trace.events.size(); }
  std::size_t job_count() const { return trace.job_count(); }
  std::size_t tenant_hint() const { return 16; }
  double horizon() const {
    return trace.events.empty() ? 0.0 : trace.events.back().time_seconds;
  }
  double next_time() const { return head_time; }
  EventView pop() {
    const TraceEvent& event = trace.events[next++];
    head_time = next < trace.events.size() ? trace.events[next].time_seconds
                                           : kInf;
    EventView view;
    view.time = event.time_seconds;
    if (event.kind == EventKind::JobArrival) {
      view.arrival = &event;
      view.tenant = tenant_symbols.intern(event.tenant);
    } else {
      view.watts = event.budget_watts;
    }
    return view;
  }
  std::string tenant_name(Symbol id) const {
    return std::string(tenant_symbols.name(id));
  }
};

/// Event source over a routed fleet shard: walks the shard's index span
/// over the shared fleet trace; tenants are pre-interned fleet-wide.
struct RoutedSource {
  const RoutedShard& shard;
  std::size_t next = 0;
  /// Due time of steps[next], maintained across pops: the event loop asks
  /// for the head time two or three times per iteration and the answer
  /// lives behind a step-index load plus a fleet-event pointer chase (a
  /// shard touches every Nth event of the shared array, so each chase is a
  /// fresh cache line). One load instead.
  double head_time = kInf;

  /// Steps ahead of the head that pop() prefetches. A shard reads every
  /// Nth event of the shared fleet array, so each step is a cold line the
  /// hardware prefetcher cannot predict. On a 4-vCPU Xeon VM 8 and 16
  /// steps cut fleet replay time alike (~20% at two shard workers) and
  /// 32 less so.
  static constexpr std::size_t kPrefetchDistance = 16;

  explicit RoutedSource(const RoutedShard& s) : shard(s) {
    if (!s.steps.empty()) head_time = step_time(s.steps.front());
    const std::size_t warm = std::min(kPrefetchDistance, s.steps.size());
    for (std::size_t i = 0; i < warm; ++i) prefetch_step(s.steps[i]);
  }

  std::size_t event_count() const { return shard.steps.size(); }
  std::size_t job_count() const { return shard.job_count; }
  std::size_t tenant_hint() const { return shard.tenant_names.size(); }
  double horizon() const {
    return shard.fleet->events.empty()
               ? 0.0
               : shard.fleet->events.back().time_seconds;
  }
  double step_time(std::uint32_t step) const {
    return (step & RoutedShard::kShareBit)
               ? shard.shares[step & ~RoutedShard::kShareBit].time_seconds
               : shard.fleet->events[step].time_seconds;
  }
  /// Prefetch what pop() will read of `step`: the fleet event (every line
  /// it spans; the shard's shares are a small hot array) and its tenant.
  /// Always inlined, like prefetch_read: GCC deletes a call to a function
  /// that only prefetches as dead code.
  [[gnu::always_inline]] void prefetch_step(
      std::uint32_t step) const noexcept {
    if (step & RoutedShard::kShareBit) return;
    prefetch_read(&shard.fleet->events[step], sizeof(TraceEvent));
    prefetch_read(&shard.event_tenants[step], sizeof(Symbol));
  }
  double next_time() const { return head_time; }
  EventView pop() {
    if (next + kPrefetchDistance < shard.steps.size())
      prefetch_step(shard.steps[next + kPrefetchDistance]);
    const std::uint32_t step = shard.steps[next++];
    head_time =
        next < shard.steps.size() ? step_time(shard.steps[next]) : kInf;
    EventView view;
    if (step & RoutedShard::kShareBit) {
      const BudgetShare& share = shard.shares[step & ~RoutedShard::kShareBit];
      view.time = share.time_seconds;
      view.watts = share.watts;
      return view;
    }
    const TraceEvent& event = shard.fleet->events[step];
    view.time = event.time_seconds;
    if (event.kind == EventKind::JobArrival) {
      view.arrival = &event;
      view.tenant = shard.event_tenants[step];
    } else {
      view.watts = event.budget_watts;  // lifted fleet budget, passed through
    }
    return view;
  }
  std::string tenant_name(Symbol id) const { return shard.tenant_names[id]; }
};

/// Rows to reserve for a telemetry series. Sample times land on event-loop
/// steps, at most one row per step, so the series is bounded by the trace
/// horizon over the interval (plus the t=0 and final-step samples) and by
/// the step count: about one step per trace event plus one per completion
/// (faults add steps, and the series then grows past this hint). Clamped
/// in double, so a tiny interval never becomes a huge or overflowing
/// reservation. Out of line: it runs once, and the replay loop's code
/// stays as it was.
[[gnu::noinline]] std::size_t sample_rows_hint(double horizon_seconds,
                                               double interval_seconds,
                                               std::size_t trace_events,
                                               std::size_t fault_events) {
  const double by_time = horizon_seconds / interval_seconds + 2.0;
  const double by_steps = 2.0 * static_cast<double>(trace_events) +
                          static_cast<double>(fault_events) + 2.0;
  return static_cast<std::size_t>(std::min(by_time, by_steps));
}

/// Fault-state suffix of the replay failure messages: the head job's spent
/// retry budget and which nodes are down — the two things an operator needs
/// to tell "budget wedge" from "everything crashed and nothing recovers".
/// Empty without a fault plan, so fault-free messages are unchanged.
std::string fault_diagnostics(const sched::Cluster& cluster,
                              const JobBook* head_book,
                              const fault::FaultPlan* plan) {
  if (plan == nullptr) return "";
  std::string out;
  if (head_book != nullptr)
    out += "; head job has used " + std::to_string(head_book->retries) + "/" +
           std::to_string(plan->retry.max_retries) + " retries";
  std::size_t down_count = 0;
  std::string down_list;
  for (std::size_t n = 0; n < cluster.nodes().size(); ++n) {
    if (!cluster.node_down(static_cast<int>(n))) continue;
    if (++down_count <= 8) {
      if (!down_list.empty()) down_list += ",";
      down_list += std::to_string(n);
    }
  }
  out += down_count == 0 ? "; no nodes down"
                         : "; " + std::to_string(down_count) +
                               " node(s) down [" + down_list +
                               (down_count > 8 ? ",..." : "") + "]";
  return out;
}

/// Cold failure path of a wedged replay (e.g. the final budget left the
/// cluster unable to afford any cap): kept out of the event loop so the
/// message — app and tenant in operator terms, as submitted, not the
/// interned ids — is assembled only when actually thrown.
template <typename Source>
[[noreturn]] void throw_stalled_replay(const Source& source,
                                       const sched::Cluster& cluster,
                                       const sched::CoScheduler& scheduler,
                                       const std::vector<JobBook>& books,
                                       const fault::FaultPlan* plan) {
  const sched::Job& head = cluster.queue().front();
  MIGOPT_ENSURE(head.id >= 0 &&
                    static_cast<std::size_t>(head.id) < books.size(),
                "stalled replay with a job the engine never submitted");
  const JobBook& book = books[static_cast<std::size_t>(head.id)];
  const std::string tenant =
      source.tenant_name(static_cast<Symbol>(book.tenant_index));
  const std::string& app = scheduler.app_name(head.app_id);
  throw ContractViolation(
      "trace replay stalled: " + std::to_string(cluster.queued_count()) +
      " job(s) queued but no future event can release them; head job " +
      std::to_string(head.id) + " (app '" + app + "', tenant '" + tenant +
      "', submitted t=" + std::to_string(head.submit_time) +
      "s) cannot dispatch" +
      (cluster.power_budget().has_value()
           ? " under the standing power budget of " +
                 std::to_string(*cluster.power_budget()) + " W"
           : "") +
      fault_diagnostics(cluster, &book, plan));
}

/// Cold failure path of a tripped simulated-time guard: names the next
/// event time, the guard, and — when jobs are pending — the head job in the
/// same operator terms as the stall message, plus the fault state (retries
/// spent, nodes down) when a plan is active.
template <typename Source>
[[noreturn]] void throw_guard_exceeded(double t_next, const SimConfig& config,
                                       const Source& source,
                                       const sched::Cluster& cluster,
                                       const sched::CoScheduler& scheduler,
                                       const std::vector<JobBook>& books,
                                       const fault::FaultPlan* plan) {
  std::string message =
      "trace replay exceeded its simulated-time guard: next event at t=" +
      std::to_string(t_next) + "s > max_sim_seconds=" +
      std::to_string(config.max_sim_seconds) + "s with " +
      std::to_string(cluster.queued_count()) + " job(s) queued and " +
      std::to_string(cluster.running_count()) + " running";
  const JobBook* head_book = nullptr;
  if (cluster.queued_count() > 0) {
    const sched::Job& head = cluster.queue().front();
    if (head.id >= 0 && static_cast<std::size_t>(head.id) < books.size()) {
      head_book = &books[static_cast<std::size_t>(head.id)];
      const std::string tenant =
          source.tenant_name(static_cast<Symbol>(head_book->tenant_index));
      const std::string& app = scheduler.app_name(head.app_id);
      message += "; head job " + std::to_string(head.id) + " (app '" + app +
                 "', tenant '" + tenant +
                 "', submitted t=" + std::to_string(head.submit_time) + "s)";
    }
  }
  throw ContractViolation(message + fault_diagnostics(cluster, head_book, plan));
}

template <typename Source>
SimReport replay_impl(const SimConfig& config, Source& source,
                      const wl::WorkloadRegistry& registry,
                      sched::Cluster& cluster,
                      sched::CoScheduler& scheduler) {
  const sched::CoScheduler::DecisionStats decisions_at_start =
      scheduler.decision_stats();
  cluster.begin_session(scheduler);
  const auto memo_at_start = cluster.run_memo_stats();
  const gpusim::GpuChip& chip = cluster.nodes().front()->chip();

  // Null plan = the fault-free hot path: every fault branch below is one
  // predicted-not-taken pointer compare, and reports are byte-identical to
  // a replay without the fault layer (an empty plan degrades to null too).
  const fault::FaultPlan* const plan =
      (config.faults != nullptr && !config.faults->empty()) ? config.faults
                                                            : nullptr;

  // Observability sinks. All three are inert by default: the sampler's
  // due() is one compare against +inf, the metrics handle no-ops on a null
  // registry, and the tracer early-returns when disabled — the
  // un-instrumented replay pays nothing measurable, and instrumented
  // replays record only simulation-derived values into the registry, so
  // reports stay byte-identical either way.
  const obs::Metrics metrics(config.metrics);
  obs::Sampler sampler(config.telemetry);
  obs::SpanTracer* const tracer =
      (config.tracer != nullptr && config.tracer->enabled()) ? config.tracer
                                                             : nullptr;
  const std::uint32_t track = config.trace_track;
  const double replay_start_us = tracer ? tracer->now_us() : 0.0;
  obs::MetricId wait_hist = 0;
  obs::MetricId slowdown_hist = 0;
  obs::MetricId backoff_hist = 0;
  if (metrics.enabled()) {
    wait_hist = metrics.histogram("replay.queue_wait_us");
    slowdown_hist = metrics.histogram("replay.slowdown_milli");
    // Fault instruments appear only when a plan is active, so fault-free
    // metrics documents are unchanged.
    if (plan != nullptr) backoff_hist = metrics.histogram("fault.backoff_delay_ms");
  }

  SimReport report;
  std::vector<JobBook> books;
  books.reserve(source.job_count());
  // Tenant accumulators indexed by the source's tenant ids (dense — local
  // first-appearance symbols for a plain trace, fleet-wide symbols for a
  // routed shard); names resolve and sort only at report assembly.
  std::vector<TenantAccum> tenants;
  tenants.reserve(source.tenant_hint());
  // Per-app arrival constants, memoized under the scheduler's app ids.
  std::vector<AppInfo> app_info;
  app_info.reserve(16);

  double wait_sum = 0.0;
  double slowdown_sum = 0.0;
  std::size_t completed = 0;
  double now = 0.0;

  // Fault-injection state (all idle without a plan). The retry heap holds
  // killed/failed jobs engine-side until their backoff expires — queued
  // jobs gate the whole queue behind their submit times, so a future-dated
  // re-queue would stall every job behind it.
  std::size_t next_fault = 0;
  std::vector<RetryEntry> retry_heap;
  std::uint64_t retry_seq = 0;
  std::vector<std::uint32_t> down_depth;
  std::optional<double> trace_budget = cluster.power_budget();
  double emergency_watts = 0.0;  ///< 0 = no emergency active
  std::vector<sched::Job> fault_completed;
  std::vector<sched::Job> fault_killed;
  if (plan != nullptr) down_depth.assign(cluster.nodes().size(), 0);
  if (sampler.enabled()) {
    sampler.reserve(sample_rows_hint(
        source.horizon(), config.telemetry.interval_seconds,
        source.event_count(), plan != nullptr ? plan->events.size() : 0));
  }

  const auto cache_hit_rate = [&] {
    const auto& stats = scheduler.decision_stats();
    const std::size_t hits = stats.hits - decisions_at_start.hits;
    const std::size_t probes =
        hits + (stats.misses - decisions_at_start.misses);
    return probes == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(probes);
  };
  const auto memo_hit_rate = [&] {
    const auto stats = cluster.run_memo_stats();
    const std::size_t hits = stats.hits - memo_at_start.hits;
    const std::size_t probes = hits + (stats.misses - memo_at_start.misses);
    return probes == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(probes);
  };

  // Phase profiling (SimConfig::collect_phase_counters): `mark` carries the
  // start of the phase being timed; lap() folds the elapsed slice into a
  // tally and restarts the clock. Everything is gated on one bool so the
  // unprofiled hot loop pays a predicted-not-taken branch per phase.
  using ProfileClock = std::chrono::steady_clock;
  // Deliberately NOT implied by an enabled tracer: the tallies cost ~5
  // clock reads per event step, which dwarfs every other obs sink on a
  // mega replay. The tracer's phase sub-spans appear only when the caller
  // also asks for the profile (--profile alongside --chrome-trace).
  const bool profile = config.collect_phase_counters;
  report.phases.collected = profile;
  ProfileClock::time_point mark;
  const auto lap = [&](double& tally) {
    const ProfileClock::time_point t = ProfileClock::now();
    tally += std::chrono::duration<double>(t - mark).count();
    mark = t;
  };

  /// Route a killed/failed job: back into the simulation after exponential
  /// backoff while its retry budget lasts, abandoned once it runs out.
  /// Crashes, sheds, and transient failures draw on the same budget.
  const auto retry_or_abandon = [&](sched::Job&& job, double at) {
    JobBook& book = books[static_cast<std::size_t>(job.id)];
    if (book.retries >= plan->retry.max_retries) {
      report.faults.jobs_abandoned += 1;
      return;
    }
    book.retries += 1;
    report.faults.retries += 1;
    const double delay = plan->retry.delay_seconds(book.retries);
    report.faults.backoff_delay_seconds += delay;
    metrics.record(backoff_hist, static_cast<std::uint64_t>(delay * 1e3));
    // The retry restarts from zero work at the original submit_time (waits
    // measure first submission to final start); dispatch re-stamps
    // start_time, a later completion finish_time.
    job.start_time = -1.0;
    job.finish_time = -1.0;
    retry_heap.push_back(RetryEntry{at + delay, retry_seq++, std::move(job)});
    std::push_heap(retry_heap.begin(), retry_heap.end(), kRetryOrder);
  };

  const auto handle_completion = [&](const sched::Job& job) {
    MIGOPT_ENSURE(job.id >= 0 && static_cast<std::size_t>(job.id) < books.size(),
                  "completion for a job the engine never submitted");
    if (plan != nullptr) {
      JobBook& fault_book = books[static_cast<std::size_t>(job.id)];
      if (fault_book.failures < fault_book.attempts_to_fail) {
        // The run completed physically but its result is lost (the plan's
        // transient draw fails the job's first k completions — an order- and
        // thread-independent rule): the attempt neither completes nor
        // misses a deadline; it re-enters after backoff or is abandoned.
        fault_book.failures += 1;
        report.faults.failures_injected += 1;
        retry_or_abandon(sched::Job(job), job.finish_time);
        return;
      }
    }
    const JobBook& book = books[static_cast<std::size_t>(job.id)];
    TenantAccum& tenant = tenants[book.tenant_index];
    const double wait = job.start_time - job.submit_time;
    const double turnaround = job.finish_time - job.submit_time;
    const double slowdown =
        turnaround / std::max(book.modeled_solo_seconds, 1e-9);
    ++completed;
    ++tenant.completed;
    tenant.wait_sum += wait;
    tenant.slowdown_sum += slowdown;
    wait_sum += wait;
    slowdown_sum += slowdown;
    report.max_queue_wait_seconds =
        std::max(report.max_queue_wait_seconds, wait);
    if (book.deadline_absolute > 0.0 &&
        job.finish_time > book.deadline_absolute) {
      ++report.deadline_misses;
      ++tenant.deadline_misses;
    }
    // Sim-time distributions (integer µs / milli units — pure casts of
    // simulation doubles, so the histograms are deterministic).
    metrics.record(wait_hist, static_cast<std::uint64_t>(wait * 1e6));
    metrics.record(slowdown_hist, static_cast<std::uint64_t>(slowdown * 1e3));
  };

  while (true) {
    if (profile) {
      ++report.phases.steps;
      mark = ProfileClock::now();
    }
    // 0. Apply fault events and due retries at the clock — between the
    // completions the previous step drained and this step's arrivals, a
    // fixed order (completion < fault < retry < arrival at equal times)
    // every thread count reproduces.
    if (plan != nullptr) {
      while (next_fault < plan->events.size() &&
             plan->events[next_fault].time_seconds <= now) {
        const fault::FaultEvent& event = plan->events[next_fault++];
        switch (event.kind) {
          case fault::FaultKind::NodeFail: {
            // Overlapping down-windows (a per-node outage inside a
            // fleet-wide cluster outage) nest via a depth counter: the node
            // fails on the first window and recovers when the last closes.
            std::uint32_t& depth =
                down_depth[static_cast<std::size_t>(event.node)];
            if (depth++ != 0) break;
            fault_completed.clear();
            fault_killed.clear();
            cluster.fail_node(event.node, now, scheduler, fault_completed,
                              fault_killed);
            for (const sched::Job& job : fault_completed)
              handle_completion(job);
            for (sched::Job& job : fault_killed)
              retry_or_abandon(std::move(job), now);
            break;
          }
          case fault::FaultKind::NodeRecover: {
            std::uint32_t& depth =
                down_depth[static_cast<std::size_t>(event.node)];
            MIGOPT_ENSURE(depth > 0,
                          "fault plan recovers a node that never failed");
            if (--depth == 0) cluster.recover_node(event.node, now);
            break;
          }
          case fault::FaultKind::EmergencyBegin: {
            // Facility power emergency: clamp the budget to the emergency
            // watts (never *above* the standing trace contract) and shed
            // running nodes gracefully until the cap sum fits instead of
            // wedging on an unaffordable running set.
            emergency_watts = event.watts;
            report.faults.power_emergencies += 1;
            const double effective =
                trace_budget.has_value()
                    ? std::min(*trace_budget, emergency_watts)
                    : emergency_watts;
            cluster.set_power_budget(effective);
            fault_completed.clear();
            fault_killed.clear();
            cluster.shed_to_budget(effective, now, scheduler, fault_completed,
                                   fault_killed);
            for (const sched::Job& job : fault_completed)
              handle_completion(job);
            for (sched::Job& job : fault_killed)
              retry_or_abandon(std::move(job), now);
            break;
          }
          case fault::FaultKind::EmergencyEnd: {
            emergency_watts = 0.0;
            cluster.set_power_budget(trace_budget);
            break;
          }
        }
      }
      // Due retries re-enter the queue ahead of same-instant arrivals, in
      // (release, seq) order.
      while (!retry_heap.empty() && retry_heap.front().release <= now) {
        std::pop_heap(retry_heap.begin(), retry_heap.end(), kRetryOrder);
        cluster.submit(std::move(retry_heap.back().job));
        retry_heap.pop_back();
      }
    }

    // 1. Apply every trace event due at the clock.
    while (source.next_time() <= now) {
      const EventView event = source.pop();
      if (event.arrival != nullptr) {
        const TraceEvent& arrival = *event.arrival;
        if (event.tenant >= tenants.size())
          tenants.resize(static_cast<std::size_t>(event.tenant) + 1);
        TenantAccum& tenant = tenants[event.tenant];

        sched::Job job;
        job.id = static_cast<sched::JobId>(books.size());
        // The registry walk and baseline model run once per distinct app;
        // the job carries only its interned ids (stats and profile
        // recording resolve names through the scheduler's symbol table).
        job.app_id = scheduler.intern_app(arrival.app);
        job.tenant_id = event.tenant;
        if (job.app_id >= app_info.size())
          app_info.resize(static_cast<std::size_t>(job.app_id) + 1);
        AppInfo& info = app_info[job.app_id];
        if (info.kernel == nullptr) {
          info.kernel = &registry.by_name(arrival.app).kernel;
          info.solo_seconds_per_wu = chip.baseline_seconds(*info.kernel);
        }
        job.kernel = info.kernel;
        job.solo_seconds_per_wu = info.solo_seconds_per_wu;
        job.work_units =
            std::max(1.0, arrival.work_seconds / job.solo_seconds_per_wu);
        job.submit_time = arrival.time_seconds;
        job.priority = arrival.priority;

        JobBook book;
        book.tenant_index = event.tenant;
        book.deadline_absolute =
            arrival.deadline_seconds > 0.0
                ? arrival.time_seconds + arrival.deadline_seconds
                : 0.0;
        book.modeled_solo_seconds = job.work_units * job.solo_seconds_per_wu;
        // How many of this job's completions fail, drawn once from the
        // job-indexed stream (books.size() is the dense JobId being
        // assigned) — identical whatever order completions later fire in.
        if (plan != nullptr)
          book.attempts_to_fail = static_cast<std::uint32_t>(
              plan->attempts_to_fail(static_cast<std::uint64_t>(books.size())));
        books.push_back(book);

        ++report.jobs_submitted;
        ++tenant.submitted;
        tenant.work_seconds += book.modeled_solo_seconds;
        cluster.submit(std::move(job));
      } else {
        const ProfileClock::time_point budget_start =
            profile ? ProfileClock::now() : ProfileClock::time_point{};
        const double span_start_us = tracer ? tracer->now_us() : 0.0;
        // A non-positive wattage lifts the budget.
        if (event.watts > 0.0)
          trace_budget = event.watts;
        else
          trace_budget.reset();
        // An active power emergency clamps every trace budget until it
        // ends (the standing contract is restored at EmergencyEnd).
        if (emergency_watts > 0.0)
          cluster.set_power_budget(event.watts > 0.0
                                       ? std::min(event.watts, emergency_watts)
                                       : emergency_watts);
        else
          cluster.set_power_budget(trace_budget);
        ++report.budget_events_applied;
        if (tracer)
          tracer->span(track, "rebroker", span_start_us,
                       tracer->now_us() - span_start_us, "watts", event.watts);
        if (profile)
          report.phases.budget_rebroker_seconds +=
              std::chrono::duration<double>(ProfileClock::now() - budget_start)
                  .count();
      }
    }
    if (profile) lap(report.phases.event_apply_seconds);

    // 2. Dispatch whatever fits the idle nodes and the budget headroom.
    cluster.dispatch(scheduler, now);
    if (profile) lap(report.phases.dispatch_seconds);

    report.peak_queue_depth =
        std::max(report.peak_queue_depth, cluster.queued_count());
    MIGOPT_ENSURE(report.jobs_submitted ==
                      completed + cluster.queued_count() +
                          cluster.running_count() + retry_heap.size() +
                          report.faults.jobs_abandoned,
                  "conservation violated: submitted != completed + queued + "
                  "running + awaiting-retry + abandoned");
    if (sampler.due(now)) {
      obs::SampleRow row;
      row.time_seconds = now;
      row.queue_depth = cluster.queued_count();
      row.running = cluster.running_count();
      row.busy_nodes = cluster.busy_node_count();
      row.idle_nodes = cluster.idle_node_count();
      row.budget_watts = cluster.power_budget().value_or(-1.0);
      row.dispatched = cluster.session_dispatches();
      row.completed = completed;
      row.cache_hit_rate = cache_hit_rate();
      row.memo_hit_rate = memo_hit_rate();
      row.tenant_backlog.reserve(tenants.size());
      for (const TenantAccum& tenant : tenants)
        row.tenant_backlog.push_back(tenant.submitted - tenant.completed);
      sampler.record(std::move(row));
    }
    if (profile) lap(report.phases.accounting_seconds);

    // 3. Advance to the next event: the trace/completion spines, plus the
    // fault-plan and retry-release spines when a plan is active.
    const double t_trace = source.next_time();
    const double t_done = cluster.next_completion_time();
    double t_next = std::min(t_trace, t_done);
    if (plan != nullptr) {
      if (next_fault < plan->events.size())
        t_next = std::min(t_next, plan->events[next_fault].time_seconds);
      if (!retry_heap.empty())
        t_next = std::min(t_next, retry_heap.front().release);
    }
    if (!std::isfinite(t_next)) {
      // No future event of any kind: the replay is done — unless jobs are
      // still queued, which means nothing can ever release them.
      if (cluster.queued_count() != 0)
        throw_stalled_replay(source, cluster, scheduler, books, plan);
      break;
    }
    if (t_next > config.max_sim_seconds)
      throw_guard_exceeded(t_next, config, source, cluster, scheduler, books,
                           plan);
    now = std::max(now, t_next);
    // Advance every node (idle ones accrue idle power, exactly as the batch
    // loop does); completions due at `now` come back here — before the loop
    // top applies arrivals stamped at the same instant.
    for (const sched::Job& job : cluster.advance_to(now, scheduler))
      handle_completion(job);
    if (profile) lap(report.phases.completion_seconds);
  }

  report.cluster = cluster.report(scheduler);
  if (plan != nullptr) {
    // The crash/shed/downtime half of the fault outcome is authoritative in
    // the cluster's session counters; the retry/abandon half accumulated
    // engine-side above.
    report.faults.jobs_killed = report.cluster.jobs_killed;
    report.faults.jobs_shed = report.cluster.jobs_shed;
    report.faults.node_failures = report.cluster.node_failures;
    report.faults.node_recoveries = report.cluster.node_recoveries;
    report.faults.node_downtime_seconds = report.cluster.node_downtime_seconds;
  }
  if (completed > 0) {
    report.mean_queue_wait_seconds = wait_sum / static_cast<double>(completed);
    report.mean_slowdown = slowdown_sum / static_cast<double>(completed);
  }
  if (report.cluster.makespan_seconds > 0.0)
    report.jobs_per_hour = 3600.0 * static_cast<double>(completed) /
                           report.cluster.makespan_seconds;

  // Names sorted for the report (what the string-keyed map used to yield).
  // A routed shard's accumulator is indexed by *fleet-wide* tenant ids, so
  // tenants the router sent elsewhere sit at submitted == 0 and are skipped
  // (a plain trace interns tenants only on arrival — no zero rows exist).
  std::vector<std::pair<std::string, std::size_t>> by_name;
  by_name.reserve(tenants.size());
  for (std::size_t id = 0; id < tenants.size(); ++id)
    if (tenants[id].submitted > 0)
      by_name.emplace_back(source.tenant_name(static_cast<Symbol>(id)), id);
  std::sort(by_name.begin(), by_name.end());
  report.tenants.reserve(by_name.size());
  for (const auto& [name, index] : by_name) {
    const TenantAccum& accum = tenants[index];
    TenantStats stats;
    stats.tenant = name;
    stats.jobs_submitted = accum.submitted;
    stats.jobs_completed = accum.completed;
    stats.deadline_misses = accum.deadline_misses;
    stats.work_seconds_submitted = accum.work_seconds;
    if (accum.completed > 0) {
      stats.mean_queue_wait_seconds =
          accum.wait_sum / static_cast<double>(accum.completed);
      stats.mean_slowdown =
          accum.slowdown_sum / static_cast<double>(accum.completed);
    }
    report.tenants.push_back(std::move(stats));
  }

  if (sampler.enabled()) {
    // Backlog columns in tenant-id order (a routed shard's ids are
    // fleet-wide, so tenants routed elsewhere appear as all-zero columns).
    std::vector<std::string> tenant_names;
    tenant_names.reserve(tenants.size());
    for (std::size_t id = 0; id < tenants.size(); ++id)
      tenant_names.push_back(source.tenant_name(static_cast<Symbol>(id)));
    report.telemetry = sampler.finish(std::move(tenant_names));
  }

  // Report-time harvest: the deterministic session counters the replay
  // already maintains, published under stable metric names. Counters merge
  // by sum and gauges by max across fleet shards, so the fleet document is
  // thread-count invariant.
  if (metrics.enabled()) {
    const sched::ClusterReport& c = report.cluster;
    metrics.count("replay.jobs_submitted", report.jobs_submitted);
    metrics.count("replay.jobs_completed", c.jobs_completed);
    metrics.count("replay.budget_events", report.budget_events_applied);
    metrics.count("replay.deadline_misses", report.deadline_misses);
    metrics.count("cluster.pair_dispatches", c.pair_dispatches);
    metrics.count("cluster.exclusive_dispatches", c.exclusive_dispatches);
    metrics.count("cluster.profile_runs", c.profile_runs);
    metrics.count("cluster.energy_millijoules",
                  static_cast<std::uint64_t>(c.total_energy_joules * 1e3));
    metrics.count("decision_cache.hits", c.decision_cache_hits);
    metrics.count("decision_cache.misses", c.decision_cache_misses);
    metrics.count("run_memo.hits", c.run_memo_hits);
    metrics.count("run_memo.misses", c.run_memo_misses);
    metrics.level("replay.peak_queue_depth",
                  static_cast<double>(report.peak_queue_depth));
    metrics.level("replay.makespan_seconds", c.makespan_seconds);
    metrics.level("cluster.peak_cap_sum_watts", c.peak_cap_sum_watts);
    // Fault instruments, gated on an active plan so fault-free metrics
    // documents keep their exact historical shape.
    if (plan != nullptr) {
      metrics.count("fault.failures_injected", report.faults.failures_injected);
      metrics.count("fault.retries", report.faults.retries);
      metrics.count("fault.jobs_killed", report.faults.jobs_killed);
      metrics.count("fault.jobs_shed", report.faults.jobs_shed);
      metrics.count("fault.jobs_abandoned", report.faults.jobs_abandoned);
      metrics.count("fault.node_failures", report.faults.node_failures);
      metrics.count("fault.node_recoveries", report.faults.node_recoveries);
      metrics.count("fault.power_emergencies",
                    report.faults.power_emergencies);
      metrics.count("fault.node_downtime_ms",
                    static_cast<std::uint64_t>(
                        report.faults.node_downtime_seconds * 1e3));
    }
  }

  // Session span plus, when the phase profiler ran, synthesized per-phase
  // sub-spans: the aggregate phase tallies laid out consecutively from the
  // session start (a replay interleaves phases per step; the lanes show
  // where the wall clock went, not when). Re-broker spans above sit at
  // their true host times.
  if (tracer) {
    const double end_us = tracer->now_us();
    tracer->span(track, "replay", replay_start_us, end_us - replay_start_us,
                 "jobs", static_cast<double>(report.jobs_submitted));
    if (report.phases.collected) {
      double cursor = replay_start_us;
      const auto phase_span = [&](const char* name, double seconds) {
        const double dur = seconds * 1e6;
        tracer->span(track, name, cursor, dur);
        cursor += dur;
      };
      phase_span("phase.event_apply", report.phases.event_apply_seconds);
      phase_span("phase.dispatch", report.phases.dispatch_seconds);
      phase_span("phase.accounting", report.phases.accounting_seconds);
      phase_span("phase.completion", report.phases.completion_seconds);
    }
  }
  return report;
}

}  // namespace

SimEngine::SimEngine(SimConfig config) : config_(config) {
  MIGOPT_REQUIRE(config_.max_sim_seconds > 0.0,
                 "simulation guard must be > 0 seconds");
  MIGOPT_REQUIRE(config_.telemetry.interval_seconds >= 0.0,
                 "sample interval must be >= 0");
}

SimReport SimEngine::replay(const Trace& trace,
                            const wl::WorkloadRegistry& registry,
                            sched::Cluster& cluster,
                            sched::CoScheduler& scheduler) const {
  trace.validate();
  TraceSource source{trace};
  return replay_impl(config_, source, registry, cluster, scheduler);
}

SimReport SimEngine::replay(const RoutedShard& shard,
                            const wl::WorkloadRegistry& registry,
                            sched::Cluster& cluster,
                            sched::CoScheduler& scheduler) const {
  // The fleet trace was validated once by the routing pre-pass; the shard's
  // step span preserves its time order by construction, so no per-shard
  // validation or job-count walk is repeated here.
  MIGOPT_REQUIRE(shard.fleet != nullptr, "routed shard without a fleet trace");
  RoutedSource source{shard};
  return replay_impl(config_, source, registry, cluster, scheduler);
}

}  // namespace migopt::trace
