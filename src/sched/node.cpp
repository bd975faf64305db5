#include "sched/node.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace migopt::sched {

namespace {
constexpr double kWorkEpsilon = 1e-9;
}

Node::Node(int id, gpusim::ArchConfig arch)
    : id_(id), chip_(arch), cap_watts_(arch.tdp_watts) {}

double Node::next_completion_time() const noexcept {
  double next = std::numeric_limits<double>::infinity();
  for (const Slot& slot : slots_)
    next = std::min(next, now_ + slot.remaining_work * slot.seconds_per_wu);
  return next;
}

void Node::dispatch_pair(Job job1, Job job2, const core::PartitionState& state,
                         double power_cap_watts) {
  MIGOPT_REQUIRE(idle(), "dispatch_pair on busy node");
  option_ = state.option;
  cap_watts_ = power_cap_watts;
  place(std::move(job1), state.gpcs_app1);
  place(std::move(job2), state.gpcs_app2);
  recompute_rates();
}

void Node::dispatch_exclusive(Job job, double power_cap_watts) {
  MIGOPT_REQUIRE(idle(), "dispatch_exclusive on busy node");
  option_.reset();
  cap_watts_ = power_cap_watts;
  place(std::move(job), chip_.arch().total_gpcs);
  recompute_rates();
}

void Node::place(Job job, int gpcs) {
  job.validate();
  job.start_time = now_;
  const double work = job.work_units;
  slots_.push_back(Slot{std::move(job), work, 0.0, gpcs});
}

void Node::recompute_rates() {
  if (slots_.empty()) {
    run_power_watts_ = chip_.arch().idle_power_watts;
    return;
  }
  if (slots_.size() == 2) {
    MIGOPT_ENSURE(option_.has_value(), "pair without an LLC/HBM option");
    const auto solve = [&] {
      std::vector<gpusim::GpuChip::GroupMember> members(slots_.size());
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        members[i].kernel = slots_[i].job.kernel;
        members[i].gpcs = slots_[i].gpcs;
      }
      return chip_.run_group(members, *option_, cap_watts_);
    };
    const auto apply = [&](const gpusim::RunResult& run) {
      for (std::size_t i = 0; i < slots_.size(); ++i)
        slots_[i].seconds_per_wu = run.apps[i].seconds_per_wu;
      run_power_watts_ = run.power_watts;
    };
    if (run_memo_ != nullptr) {
      // The memoized solve is bit-identical to a fresh one (same inputs,
      // same fixed point).
      apply(run_memo_->get_or_solve(
          RunMemo::Key{slots_[0].job.kernel, slots_[1].job.kernel,
                       slots_[0].gpcs, slots_[1].gpcs,
                       static_cast<int>(*option_), cap_watts_},
          solve));
    } else {
      apply(solve());
    }
    return;
  }
  // Single job: exclusive full chip, or solo on its partition slice when the
  // co-runners have finished (the partition is kept, as on real MIG).
  const Slot& slot = slots_.front();
  const auto solve = [&] {
    return option_.has_value()
               ? chip_.run_solo(*slot.job.kernel, slot.gpcs, *option_,
                                cap_watts_)
               : chip_.run_full_chip(*slot.job.kernel, cap_watts_);
  };
  const auto apply = [&](const gpusim::RunResult& run) {
    slots_.front().seconds_per_wu = run.apps[0].seconds_per_wu;
    run_power_watts_ = run.power_watts;
  };
  if (run_memo_ != nullptr) {
    apply(run_memo_->get_or_solve(
        RunMemo::Key{slot.job.kernel, nullptr, slot.gpcs, 0,
                     option_.has_value() ? static_cast<int>(*option_) : -1,
                     cap_watts_},
        solve));
  } else {
    apply(solve());
  }
}

double Node::current_power() const noexcept {
  return slots_.empty() ? chip_.arch().idle_power_watts : run_power_watts_;
}

Job Node::finish_head_slot() {
  MIGOPT_REQUIRE(!slots_.empty(), "finish_head_slot on an idle node");
  std::size_t head = 0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const double remaining = slots_[i].remaining_work * slots_[i].seconds_per_wu;
    if (remaining < best) {
      best = remaining;
      head = i;
    }
  }
  slots_[head].job.finish_time = now_;
  Job job = std::move(slots_[head].job);
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(head));
  if (slots_.empty()) option_.reset();
  recompute_rates();
  return job;
}

void Node::kill_all(std::vector<Job>& out) {
  for (Slot& slot : slots_) out.push_back(std::move(slot.job));
  slots_.clear();
  option_.reset();
  recompute_rates();
}

void Node::skip_to(double t) {
  MIGOPT_REQUIRE(idle(), "skip_to on a busy node would discard its work");
  MIGOPT_REQUIRE(t >= now_ - 1e-12, "cannot skip a node backwards");
  now_ = std::max(now_, t);
}

int Node::min_priority() const noexcept {
  int min = std::numeric_limits<int>::max();
  for (const Slot& slot : slots_) min = std::min(min, slot.job.priority);
  return min;
}

std::vector<Job> Node::advance_to(double t) {
  std::vector<Job> finished;
  advance_to(t, finished);
  return finished;
}

void Node::advance_to(double t, std::vector<Job>& finished) {
  MIGOPT_REQUIRE(t >= now_ - 1e-12, "cannot advance node backwards");

  while (now_ < t) {
    const double next = next_completion_time();
    const double step_end = std::min(next, t);
    const double dt = step_end - now_;
    if (dt > 0.0) {
      energy_joules_ += current_power() * dt;
      for (Slot& slot : slots_)
        slot.remaining_work -= dt / slot.seconds_per_wu;
      now_ = step_end;
    }

    // Collect completions at this instant.
    bool any_finished = false;
    for (std::size_t i = 0; i < slots_.size();) {
      if (slots_[i].remaining_work <= kWorkEpsilon) {
        slots_[i].job.finish_time = now_;
        finished.push_back(std::move(slots_[i].job));
        slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
        any_finished = true;
      } else {
        ++i;
      }
    }
    if (any_finished) {
      if (slots_.empty()) option_.reset();
      recompute_rates();
    }
    if (dt <= 0.0 && !any_finished) break;  // nothing can progress
  }
}

}  // namespace migopt::sched
