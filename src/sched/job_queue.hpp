// Priority job queue with lookahead access for pair selection.
//
// Ordering: strict priority (higher Job::priority first); within one
// priority the queue is FIFO in *push* order. The tie-break is stable on
// purpose — replaying the same trace must enqueue, pair, and dispatch
// identically every run — and is regression-tested. With every priority at
// its default of 0 the queue degenerates to a plain FIFO.
//
// Arrival contract: the queue holds only jobs that have arrived. Producers
// push a job once its submit_time is at or before the dispatch clock, and
// the dispatch paths (CoScheduler::next_in_batch, Cluster::dispatch's FIFO
// branch) throw ContractViolation for a job they would dispatch early.
//
// Storage is one vector of Jobs (a Job is a 72-byte plain value) plus a
// head offset. Pops retire entries at the head instead of shifting the
// whole vector: pop_front() advances head_, and pop_at(i) slides only the i
// entries in front of position i up by one before advancing it (a pop in
// the back half closes the gap from behind instead). The scheduler pops
// within its pairing window of the head, so a pop costs O(window) at any
// queue depth. The dead prefix [0, head_) is dropped in one pass once it is
// at least kCompactMinHead entries and at least as long as the live part,
// and the storage restarts at offset 0 whenever the queue empties. Every
// index in the public API is logical (0 == front), independent of head_.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sched/job.hpp"

namespace migopt::sched {

class JobQueue {
 public:
  JobQueue() = default;

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  /// Moves leave the source a valid, empty queue.
  JobQueue(JobQueue&& other) noexcept
      : jobs_(std::exchange(other.jobs_, {})),
        head_(std::exchange(other.head_, 0)) {}
  JobQueue& operator=(JobQueue&& other) noexcept {
    jobs_ = std::exchange(other.jobs_, {});
    head_ = std::exchange(other.head_, 0);
    return *this;
  }

  /// Insert keeping the (priority desc, push order) ordering: the job lands
  /// after every queued job of equal or higher priority.
  void push(Job job);

  bool empty() const noexcept { return jobs_.size() == head_; }
  std::size_t size() const noexcept { return jobs_.size() - head_; }

  const Job& front() const;
  /// Look at position `index` from the front (0 == front).
  const Job& peek(std::size_t index) const;

  Job pop_front();
  /// Remove and return the job at `index` (used when a partner is selected
  /// out of order).
  Job pop_at(std::size_t index);

  /// Drop every queued job but keep the vector's capacity, so the next
  /// session's steady state starts allocation-free (what
  /// Cluster::begin_session calls instead of rebuilding the queue).
  void clear() noexcept;

 private:
  /// Smallest dead prefix worth compacting (see the header comment).
  static constexpr std::size_t kCompactMinHead = 64;

  std::vector<Job> jobs_;  ///< live jobs are [head_, size), in queue order
  std::size_t head_ = 0;
};

}  // namespace migopt::sched
