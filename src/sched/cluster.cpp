#include "sched/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "profiling/profiler.hpp"
#include "sched/power_broker.hpp"

namespace migopt::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Min-heap comparator: std::pop_heap with greater<> surfaces the smallest
/// (time, node) pair — equal times break toward the lower node index.
constexpr auto kHeapOrder = std::greater<std::pair<double, int>>{};
}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), budget_(config.total_power_budget_watts) {
  MIGOPT_REQUIRE(config.node_count >= 1, "cluster needs at least one node");
  nodes_.reserve(static_cast<std::size_t>(config.node_count));
  for (int i = 0; i < config.node_count; ++i)
    nodes_.push_back(std::make_unique<Node>(i));
  // All nodes run the same architecture, so they share one physics memo.
  for (const auto& node : nodes_) node->set_run_memo(&run_memo_);
  profiling_job_.assign(nodes_.size(), -1);
  node_next_.assign(nodes_.size(), kInf);
  node_busy_.assign(nodes_.size(), 0);
  busy_nodes_ = 0;
  node_down_.assign(nodes_.size(), 0);
  down_nodes_ = 0;
  down_since_.assign(nodes_.size(), 0.0);
  node_cap_.assign(nodes_.size(), 0.0);
  cap_prefix_.assign(nodes_.size() + 1, 0.0);
  cap_prefix_valid_ = 0;
  idle_nodes_.reserve(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) idle_nodes_.push_back(i);
}

void Cluster::mark_idle(std::size_t ni) {
  idle_nodes_.insert(std::lower_bound(idle_nodes_.begin(), idle_nodes_.end(),
                                      static_cast<std::uint32_t>(ni)),
                     static_cast<std::uint32_t>(ni));
}

double Cluster::busy_cap_sum() const noexcept {
  // Ascending node-index walk — the same addition order as the sorted
  // idle/busy sets this bitmap replaced, hence bit-identical sums. The
  // left-to-right chain is resumed from the cached prefix: partial sums
  // below cap_prefix_valid_ cannot have changed (every busy-set mutation
  // lowers the watermark to its index), and double addition is
  // deterministic, so the resumed walk reproduces the full walk exactly.
  std::size_t n = cap_prefix_valid_;
  double sum = cap_prefix_[n];
  for (; n < node_busy_.size(); ++n) {
    if (node_busy_[n]) sum += node_cap_[n];
    cap_prefix_[n + 1] = sum;
  }
  cap_prefix_valid_ = node_busy_.size();
  return sum;
}

void Cluster::invalidate_cap_prefix(std::size_t n) noexcept {
  cap_prefix_valid_ = std::min(cap_prefix_valid_, n);
}

void Cluster::set_node_next(int n, double next) {
  node_next_[static_cast<std::size_t>(n)] = next;
  if (!std::isfinite(next)) return;
  completion_heap_.emplace_back(next, n);
  std::push_heap(completion_heap_.begin(), completion_heap_.end(), kHeapOrder);
}

void Cluster::begin_session(const CoScheduler& scheduler) {
  // clear() keeps the queue's arena chunks and index columns warm — a
  // replayed session re-enqueues without touching the heap.
  queue_.clear();
  budget_ = config_.total_power_budget_watts;
  session_ = ClusterReport{};
  decisions_at_session_start_ = scheduler.decision_stats();
  memo_at_session_start_ = run_memo_.stats();
  energy_at_session_start_ = 0.0;
  clock_at_session_start_ = 0.0;
  turnaround_sum_ = 0.0;
  running_jobs_ = 0;
  completion_heap_.clear();
  run_memo_.clear();
  profiling_job_.assign(nodes_.size(), -1);
  node_next_.assign(nodes_.size(), kInf);
  node_busy_.assign(nodes_.size(), 0);
  busy_nodes_ = 0;
  node_down_.assign(nodes_.size(), 0);
  down_nodes_ = 0;
  down_since_.assign(nodes_.size(), 0.0);
  node_cap_.assign(nodes_.size(), 0.0);
  cap_prefix_.assign(nodes_.size() + 1, 0.0);
  cap_prefix_valid_ = 0;
  idle_nodes_.clear();
  for (const auto& node : nodes_) {
    energy_at_session_start_ += node->energy_joules();
    clock_at_session_start_ = std::max(clock_at_session_start_, node->now());
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = *nodes_[n];
    if (!node.idle()) {
      node_busy_[n] = 1;
      ++busy_nodes_;
      node_cap_[n] = node.cap_watts();
      running_jobs_ += node.running_jobs();
      set_node_next(static_cast<int>(n), node.next_completion_time());
    } else {
      idle_nodes_.push_back(static_cast<std::uint32_t>(n));
    }
  }
  session_now_ = clock_at_session_start_;
}

void Cluster::submit(const Job& job) { queue_.push(job); }

void Cluster::set_power_budget(std::optional<double> watts) {
  budget_ = watts;
}

std::size_t Cluster::dispatch(CoScheduler& scheduler, double now) {
  session_now_ = std::max(session_now_, now);
  // Dispatch runs after every event-loop step; with a standing backlog the
  // nodes are all busy (or down) nearly every time, so that case exits here
  // instead of walking the occupancy bitmap.
  if (idle_nodes_.empty() || queue_.empty()) return 0;
  // Reconcile the scheduler with the profile store once for every probe.
  scheduler.begin_batch();
  std::size_t dispatches = 0;
  bool dispatched = true;
  while (dispatched && !queue_.empty()) {
    dispatched = false;
    // The busy-cap sum only changes when a dispatch lands, so it is
    // computed per pass and after each dispatch instead of per idle-node
    // probe (same index-order additions, hence bit-identical values) —
    // and only when a budget needs the headroom; the peak tracker below
    // re-sums after every dispatch regardless.
    double busy_sum = budget_.has_value() ? busy_cap_sum() : 0.0;
    // Probe the idle list in ascending node index — the identical order
    // (and therefore identical plans) of the full bitmap scan it replaces.
    // Dispatching erases the current entry, so the next candidate slides
    // into slot `i`; nothing turns idle mid-batch, so no inserts race it.
    std::size_t i = 0;
    while (i < idle_nodes_.size()) {
      // Every plan pops at least one job, so an emptied queue ends the
      // pass — the remaining idle-node probes could only return "nothing".
      if (queue_.empty()) break;
      const std::size_t ni = idle_nodes_[i];
      const int n = static_cast<int>(ni);
      Node& node = *nodes_[ni];

      // Budget headroom left for this dispatch (cap accounting).
      double max_affordable = kInf;
      if (budget_.has_value()) max_affordable = *budget_ - busy_sum;

      auto plan_opt = config_.enable_coscheduling
                          ? scheduler.next_in_batch(queue_, now, max_affordable)
                          : std::optional<DispatchPlan>{};
      if (!config_.enable_coscheduling && queue_.ready_count(now) > 0) {
        const double cap = std::min(node.chip().arch().tdp_watts, max_affordable);
        if (cap >= node.chip().arch().min_power_cap_watts) {
          DispatchPlan exclusive;
          exclusive.job1 = queue_.pop_front();
          exclusive.power_cap_watts = cap;
          exclusive.profile_run = false;
          plan_opt = std::move(exclusive);
        }
      }
      if (!plan_opt.has_value()) {
        // A "no plan" answer from the co-scheduler is node-independent (the
        // probe sees only the queue, clock, and headroom — all unchanged
        // until a dispatch lands) and side-effect-free, so every remaining
        // idle node this pass would get the identical answer: end the pass.
        // The plain-FIFO branch keeps probing — its cap test reads the
        // node's own chip limits.
        if (config_.enable_coscheduling) break;
        ++i;
        continue;
      }

      DispatchPlan& plan = *plan_opt;
      // Node clock may lag global time by many events if it has been idle
      // (the idle catch-up).
      node.advance_to(now);
      if (plan.job2.has_value()) {
        node.dispatch_pair(plan.job1, *plan.job2,
                           plan.allocation.state, plan.power_cap_watts);
        session_.pair_dispatches += 1;
        running_jobs_ += 2;
      } else {
        if (plan.profile_run) {
          MIGOPT_ENSURE(profiling_job_[ni] == -1,
                        "node already tracks an in-flight profile run — a job "
                        "id would be tracked twice");
          // The slot's -1 means "none", so a profile job must carry a real
          // id or its completion could never be told apart from the
          // sentinel.
          MIGOPT_REQUIRE(plan.job1.id >= 0,
                         "profile-run job needs a non-negative id");
          profiling_job_[ni] = plan.job1.id;
        }
        node.dispatch_exclusive(plan.job1, plan.power_cap_watts);
        session_.exclusive_dispatches += 1;
        running_jobs_ += 1;
      }
      node_busy_[ni] = 1;
      ++busy_nodes_;
      idle_nodes_.erase(idle_nodes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      node_cap_[ni] = node.cap_watts();
      invalidate_cap_prefix(ni);
      set_node_next(n, node.next_completion_time());
      busy_sum = busy_cap_sum();
      session_.peak_cap_sum_watts =
          std::max(session_.peak_cap_sum_watts, busy_sum);
      dispatched = true;
      ++dispatches;
    }
  }
  return dispatches;
}

double Cluster::next_completion_time() const noexcept {
  // Discard stale heap tops (their node's next completion moved), then the
  // top is the earliest pending completion.
  while (!completion_heap_.empty()) {
    const auto [time, n] = completion_heap_.front();
    if (time == node_next_[static_cast<std::size_t>(n)]) return time;
    std::pop_heap(completion_heap_.begin(), completion_heap_.end(), kHeapOrder);
    completion_heap_.pop_back();
  }
  return kInf;
}

void Cluster::drain_node(int n, double t, bool expect_completion,
                         CoScheduler& scheduler, std::vector<Job>& finished) {
  const std::size_t ni = static_cast<std::size_t>(n);
  Node& node = *nodes_[ni];
  drain_scratch_.clear();
  std::vector<Job>& done = drain_scratch_;
  node.advance_to(t, done);
  if (done.empty() && expect_completion && !node.idle()) {
    // A completion was advertised as due by `t`, but floating-point residue
    // left the slot with a sliver of work whose remaining time rounds below
    // the clock's resolution — the node's step loop exits at dt == 0 and
    // can never clear it, so the due slot completes at the node clock
    // (without this a sub-ulp remainder freezes the node clock and the event
    // loop spins forever; a fleet-scale overloaded shard first exposed it).
    done.push_back(node.finish_head_slot());
  }
  for (const Job& job : done) {
    // job.id >= 0 guards the sentinel: a job submitted with the default id
    // (-1) must not alias the "no profile run" slot value.
    const bool was_profile = job.id >= 0 && profiling_job_[ni] == job.id;
    if (was_profile) profiling_job_[ni] = -1;

    session_.jobs_completed += 1;
    running_jobs_ -= 1;
    turnaround_sum_ += job.finish_time - job.submit_time;
    // Jobs carry only an app id; per-job stats resolve the name through
    // the scheduler's symbol table.
    if (config_.collect_job_stats) {
      JobStat stat;
      stat.id = job.id;
      stat.app = scheduler.app_name(job.app_id);
      stat.turnaround = job.finish_time - job.submit_time;
      stat.runtime = job.finish_time - job.start_time;
      session_.jobs.push_back(std::move(stat));
    }
    if (was_profile) {
      scheduler.record_profile(job.app_id,
                               prof::profile_run(node.chip(), *job.kernel));
      session_.profile_runs += 1;
    }
    finished.push_back(job);
  }
  if (node.idle()) {
    if (node_busy_[ni]) {
      --busy_nodes_;
      node_busy_[ni] = 0;
      mark_idle(ni);
      invalidate_cap_prefix(ni);
    }
  } else {
    // Still busy, but the standing cap may have changed (a pair partner
    // finishing re-caps the survivor).
    node_cap_[ni] = node.cap_watts();
    invalidate_cap_prefix(ni);
  }
  set_node_next(n, node.next_completion_time());
}

const std::vector<Job>& Cluster::advance_to(double t, CoScheduler& scheduler) {
  session_now_ = std::max(session_now_, t);
  std::vector<Job>& finished = finished_scratch_;
  finished.clear();
  // Pop due completions in (time, node) order — equal-time completions
  // drain in node-index order.
  while (!completion_heap_.empty()) {
    const auto [time, n] = completion_heap_.front();
    if (time != node_next_[static_cast<std::size_t>(n)]) {
      std::pop_heap(completion_heap_.begin(), completion_heap_.end(), kHeapOrder);
      completion_heap_.pop_back();
      continue;  // stale entry
    }
    if (time > t) break;
    std::pop_heap(completion_heap_.begin(), completion_heap_.end(), kHeapOrder);
    completion_heap_.pop_back();
    drain_node(n, t, /*expect_completion=*/true, scheduler, finished);
  }
  return finished;
}

ClusterReport Cluster::report(const CoScheduler& scheduler) const {
  // Catch idle nodes up to the session clock so idle power accrues to the
  // end of the session. Nodes are simulation state behind const
  // unique_ptrs; no completions can fire (advance_to already drained
  // everything <= session_now_). Down nodes stay where they are — their
  // downtime is unpowered.
  for (std::size_t n = 0; n < nodes_.size(); ++n)
    if (!node_down_[n] && nodes_[n]->idle() && nodes_[n]->now() < session_now_)
      nodes_[n]->advance_to(session_now_);
  ClusterReport report = session_;
  // Session deltas: a reused cluster's node clocks/energy carry over from
  // earlier sessions, so both subtract their begin_session snapshot (a
  // fresh cluster starts at zero, making the subtraction a no-op).
  report.makespan_seconds = 0.0;
  report.total_energy_joules = -energy_at_session_start_;
  for (const auto& node : nodes_) {
    report.makespan_seconds =
        std::max(report.makespan_seconds, node->now() - clock_at_session_start_);
    report.total_energy_joules += node->energy_joules();
    // Mid-session a *busy* node may lag the session clock (its next event
    // is still ahead); its draw is constant over the gap, so the missing
    // energy is one multiply. At session end all nodes are idle and caught
    // up, so this term vanishes and the report equals the plain node sums.
    if (!node->idle() && node->now() < session_now_)
      report.total_energy_joules +=
          node->power_watts() * (session_now_ - node->now());
  }
  report.makespan_seconds = std::max(report.makespan_seconds,
                                     session_now_ - clock_at_session_start_);
  // A node still down at report time has an open downtime window that its
  // (never fired) recovery has not folded in yet.
  if (down_nodes_ > 0)
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      if (node_down_[n])
        report.node_downtime_seconds += session_now_ - down_since_[n];
  if (report.jobs_completed > 0)
    report.mean_turnaround =
        turnaround_sum_ / static_cast<double>(report.jobs_completed);
  const CoScheduler::DecisionStats decisions = scheduler.decision_stats();
  report.decision_cache_hits = decisions.hits - decisions_at_session_start_.hits;
  report.decision_cache_misses =
      decisions.misses - decisions_at_session_start_.misses;
  const RunMemo::Stats memo = run_memo_.stats();
  report.run_memo_hits = memo.hits - memo_at_session_start_.hits;
  report.run_memo_misses = memo.misses - memo_at_session_start_.misses;
  return report;
}

std::size_t Cluster::kill_node(std::size_t ni, CoScheduler& scheduler,
                               std::vector<Job>& out) {
  Node& node = *nodes_[ni];
  MIGOPT_REQUIRE(!node.idle(), "kill_node on an idle node");
  const std::size_t first = out.size();
  node.kill_all(out);
  for (std::size_t k = first; k < out.size(); ++k) {
    running_jobs_ -= 1;
    // A dying profile run must release the scheduler's in-flight hold, or
    // every queued job of the application waits forever for a profile that
    // will never be recorded.
    if (out[k].id >= 0 && profiling_job_[ni] == out[k].id) {
      profiling_job_[ni] = -1;
      scheduler.abort_profile(out[k]);
    }
  }
  --busy_nodes_;
  node_busy_[ni] = 0;
  invalidate_cap_prefix(ni);
  // Publish "no completion pending" directly: set_node_next only feeds
  // finite times to the heap, and any entry it already holds for this node
  // is stale against +inf and pruned on the next scan.
  node_next_[ni] = kInf;
  return out.size() - first;
}

void Cluster::fail_node(int n, double now, CoScheduler& scheduler,
                        std::vector<Job>& completed, std::vector<Job>& killed) {
  const std::size_t ni = static_cast<std::size_t>(n);
  MIGOPT_REQUIRE(ni < nodes_.size(), "fail_node: node index out of range");
  MIGOPT_REQUIRE(!node_down_[ni], "fail_node on a node that is already down");
  session_now_ = std::max(session_now_, now);
  // Completions due by the crash instant are real completions — drain them
  // first so a job finishing exactly when the node dies still counts
  // (deterministic tie order: completion before failure).
  drain_node(n, now, /*expect_completion=*/node_next_[ni] <= now, scheduler,
             completed);
  if (!nodes_[ni]->idle()) {
    session_.jobs_killed += kill_node(ni, scheduler, killed);
  } else {
    // The drain left the node idle and re-registered it as dispatchable;
    // a down node must not be probed by dispatch.
    const auto it = std::lower_bound(idle_nodes_.begin(), idle_nodes_.end(),
                                     static_cast<std::uint32_t>(ni));
    MIGOPT_ENSURE(it != idle_nodes_.end() && *it == ni,
                  "idle-set invariant broken at fail_node");
    idle_nodes_.erase(it);
  }
  node_down_[ni] = 1;
  ++down_nodes_;
  down_since_[ni] = now;
  session_.node_failures += 1;
}

void Cluster::recover_node(int n, double now) {
  const std::size_t ni = static_cast<std::size_t>(n);
  MIGOPT_REQUIRE(ni < nodes_.size(), "recover_node: node index out of range");
  MIGOPT_REQUIRE(node_down_[ni], "recover_node on a node that is not down");
  session_now_ = std::max(session_now_, now);
  session_.node_downtime_seconds += now - down_since_[ni];
  nodes_[ni]->skip_to(now);
  node_down_[ni] = 0;
  --down_nodes_;
  mark_idle(ni);
  session_.node_recoveries += 1;
}

std::size_t Cluster::shed_to_budget(double budget_watts, double now,
                                    CoScheduler& scheduler,
                                    std::vector<Job>& completed,
                                    std::vector<Job>& shed) {
  session_now_ = std::max(session_now_, now);
  std::size_t shed_nodes = 0;
  std::vector<ShedCandidate> candidates;
  while (busy_nodes_ > 0 && busy_cap_sum() > budget_watts) {
    candidates.clear();
    for (std::size_t ni = 0; ni < node_busy_.size(); ++ni)
      if (node_busy_[ni])
        candidates.push_back(ShedCandidate{static_cast<int>(ni), node_cap_[ni],
                                           nodes_[ni]->min_priority()});
    const std::size_t v = PowerBroker::pick_shed_victim(candidates);
    const std::size_t ni = static_cast<std::size_t>(candidates[v].node);
    // Completions due by the shed instant drain first (normally none — the
    // caller advanced the cluster to `now` before shedding).
    drain_node(candidates[v].node, now,
               /*expect_completion=*/node_next_[ni] <= now, scheduler,
               completed);
    if (nodes_[ni]->idle()) continue;  // the drain freed the budget itself
    session_.jobs_shed += kill_node(ni, scheduler, shed);
    // Unlike a crash the node stays in service: it re-enters the idle set
    // and may be re-dispatched immediately under the emergency budget.
    mark_idle(ni);
    ++shed_nodes;
  }
  return shed_nodes;
}

ClusterReport Cluster::run(std::vector<Job> jobs, CoScheduler& scheduler) {
  begin_session(scheduler);
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) {
                     return a.submit_time < b.submit_time;
                   });

  if (budget_.has_value()) {
    const double floor = config_.enable_coscheduling
                             ? scheduler.min_cap()
                             : nodes_.front()->chip().arch().min_power_cap_watts;
    MIGOPT_REQUIRE(*budget_ >= floor,
                   "power budget below the cheapest possible dispatch");
  }

  // Jobs enter the queue at their submit times (not all up front): the queue
  // orders by priority, so an early-submitted high-priority job must not
  // gate already-arrived work behind its future submit time.
  double now = 0.0;
  std::size_t next_submit = 0;
  while (true) {
    while (next_submit < jobs.size() &&
           jobs[next_submit].submit_time <= now)
      submit(jobs[next_submit++]);
    dispatch(scheduler, now);
    if (next_submit == jobs.size() && queue_.empty() && running_count() == 0)
      break;

    // Next event: earliest completion across nodes, or the next arrival. A
    // job that is already queued is not an event — it waits for a node to
    // free up, otherwise the loop would spin at the same timestamp.
    double next_event = next_completion_time();
    if (next_submit < jobs.size())
      next_event = std::min(next_event, jobs[next_submit].submit_time);
    MIGOPT_ENSURE(std::isfinite(next_event), "cluster deadlock: no next event");
    MIGOPT_ENSURE(next_event <= config_.max_sim_seconds,
                  "cluster simulation exceeded its time guard");
    now = std::max(now, next_event);
    advance_to(now, scheduler);
  }

  return report(scheduler);
}

}  // namespace migopt::sched
