// Priority job queue with lookahead access for pair selection.
//
// Ordering: strict priority (higher Job::priority first); within one
// priority the queue is FIFO in *push* order. The tie-break is stable on
// purpose — replaying the same trace must enqueue, pair, and dispatch
// identically every run — and is regression-tested. With every priority at
// its default of 0 the queue degenerates to the plain FIFO it used to be.
//
// Storage is structure-of-arrays over dense job ids: Job objects live in
// arena-backed chunks (stable addresses, recycled through a free list —
// steady-state push/pop never touches the heap), while queue order is a
// vector of 32-bit slot ids mirrored by a parallel key column holding
// exactly the two fields the scans read (priority for the stable insert,
// submit_time for the ready prefix). Reordering moves 12-byte PODs instead
// of whole Jobs, and the scans stay in two cache-dense arrays — this is the
// hot structure of million-job trace replay (see common/arena.hpp).
//
// Pops retire entries at a head offset instead of shifting the whole order
// column: pop_front() advances head_, and pop_at(i) slides only the i
// entries in front of position i up by one before advancing it (a pop in
// the back half closes the gap from behind instead). The scheduler pops
// within its pairing window of the head, so a pop costs O(window) at any
// queue depth where a vector::erase used to shift every entry behind it.
// The dead prefix [0, head_) is dropped in one pass once it is at least
// kCompactMinHead entries and at least as long as the live part, and the
// storage restarts at offset 0 whenever the queue empties. Every index in
// the public API is logical (0 == front), independent of head_.
//
// ready_count() memoizes the ready prefix: the scheduler probes it several
// times per dispatch round (once per idle node, plus once inside every
// CoScheduler::next call) at the same clock, and the answer only changes
// when the queue mutates or the clock moves. push/pop adjust or invalidate
// the cached prefix, so steady-state replay pays O(1) per probe instead of
// a linear rescan of a potentially deep queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "sched/job.hpp"

namespace migopt::sched {

class JobQueue {
 public:
  JobQueue() = default;

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  /// Moves swap contents, so a moved-from queue is always a valid queue.
  JobQueue(JobQueue&& other) noexcept { swap(other); }
  JobQueue& operator=(JobQueue&& other) noexcept {
    swap(other);
    return *this;
  }

  /// Insert keeping the (priority desc, push order) ordering: the job lands
  /// after every queued job of equal or higher priority.
  void push(Job job);

  bool empty() const noexcept { return order_.size() == head_; }
  std::size_t size() const noexcept { return order_.size() - head_; }

  const Job& front() const;
  /// Look at position `index` from the front (0 == front).
  const Job& peek(std::size_t index) const;

  Job pop_front();
  /// Remove and return the job at `index` (used when a partner is selected
  /// out of order).
  Job pop_at(std::size_t index);

  /// Drop every queued job but keep the arena chunks and vector capacity, so
  /// the next session's steady state starts allocation-free (what
  /// Cluster::begin_session calls instead of rebuilding the queue).
  void clear() noexcept;

  /// Sum of Job::work_units across queued jobs — the O(1) backlog signal an
  /// admission layer reads (see sched::Cluster::queued_work_units).
  /// Maintained as a running add/subtract, so it is a load estimate, not a
  /// bit-exact re-summation; nothing schedules off it.
  double total_work_units() const noexcept { return total_work_units_; }

  /// Length of the queue-order *prefix* of jobs submitted at or before
  /// `now` — the slots the scheduler may peek/pop this round. A queued job
  /// with a future submit time gates everything ordered behind it (strict
  /// priority semantics; in trace replay jobs are only pushed once they have
  /// arrived, so the prefix is the whole ready set). Memoized: repeated
  /// probes at the same (or a later) clock resume from the cached prefix.
  std::size_t ready_count(double now) const noexcept;

 private:
  /// The two Job fields the ordering scans read, mirrored per queue position
  /// so neither scan dereferences a Job.
  struct QueueKey {
    double submit_time = 0.0;
    int priority = 0;
  };

  /// Jobs per arena chunk. Slot id = chunk * kChunkJobs + offset.
  static constexpr std::size_t kChunkJobs = 256;
  /// Smallest dead prefix worth compacting (see the header comment).
  static constexpr std::size_t kCompactMinHead = 64;

  Job& slot(std::uint32_t id) noexcept {
    return chunks_[id / kChunkJobs][id % kChunkJobs];
  }
  const Job& slot(std::uint32_t id) const noexcept {
    return chunks_[id / kChunkJobs][id % kChunkJobs];
  }
  std::uint32_t acquire_slot(const Job& job);
  void swap(JobQueue& other) noexcept;

  /// Extend the cached prefix over jobs with submit_time <= ready_now_.
  void extend_ready_prefix() const noexcept;

  Arena arena_;
  std::vector<Job*> chunks_;         ///< arena-backed slabs of kChunkJobs
  std::vector<std::uint32_t> free_;  ///< recycled slot ids
  std::vector<std::uint32_t> order_; ///< queue order -> slot id
  std::vector<QueueKey> keys_;       ///< parallel to order_
  std::size_t head_ = 0;             ///< live entries start here
  double total_work_units_ = 0.0;

  // Cached ready prefix: valid means ready_count_ is the prefix length for
  // clock ready_now_. push/pop keep it consistent or drop it (see .cpp).
  mutable bool ready_valid_ = false;
  mutable double ready_now_ = 0.0;
  mutable std::size_t ready_count_ = 0;
};

}  // namespace migopt::sched
