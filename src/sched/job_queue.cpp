#include "sched/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace migopt::sched {

std::uint32_t JobQueue::acquire_slot(const Job& job) {
  // With the free list empty every slot handed out so far is live, so the
  // next fresh slot id is the live count.
  std::uint32_t id = static_cast<std::uint32_t>(size());
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else if (id == chunks_.size() * kChunkJobs) {
    chunks_.push_back(arena_.allocate_array<Job>(kChunkJobs));
  }
  slot(id) = job;
  return id;
}

void JobQueue::swap(JobQueue& other) noexcept {
  std::swap(arena_, other.arena_);
  std::swap(chunks_, other.chunks_);
  std::swap(free_, other.free_);
  std::swap(order_, other.order_);
  std::swap(keys_, other.keys_);
  std::swap(head_, other.head_);
  std::swap(total_work_units_, other.total_work_units_);
  std::swap(ready_valid_, other.ready_valid_);
  std::swap(ready_now_, other.ready_now_);
  std::swap(ready_count_, other.ready_count_);
}

void JobQueue::clear() noexcept {
  // Job is trivially destructible: rewinding the arena is the whole
  // teardown, and the chunks are re-carved from the same blocks.
  arena_.reset();
  chunks_.clear();
  free_.clear();
  order_.clear();
  keys_.clear();
  head_ = 0;
  total_work_units_ = 0.0;
  ready_valid_ = false;
  ready_now_ = 0.0;
  ready_count_ = 0;
}

void JobQueue::push(Job job) {
  job.validate();
  // Stable priority insertion: scan back over strictly lower priorities, so
  // equal-priority jobs keep push order (FIFO tie-break). The common case —
  // uniform priorities — appends in O(1). The scan reads the key column
  // only, stops at the live head, and inserting shifts keys and 4-byte ids,
  // never Jobs.
  const QueueKey key{job.submit_time, job.priority};
  const bool ready = job.submit_time <= ready_now_;
  total_work_units_ += job.work_units;
  const std::uint32_t id = acquire_slot(job);
  std::size_t at = order_.size();
  while (at > head_ && keys_[at - 1].priority < key.priority) --at;
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(at), id);
  keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(at), key);
  if (!ready_valid_) return;
  // Incremental prefix maintenance: an insertion inside the prefix either
  // extends it (ready job) or becomes the new gate (future job); an
  // insertion beyond the prefix cannot change it (the old gate still gates).
  const std::size_t index = at - head_;
  if (ready) {
    if (index <= ready_count_) ++ready_count_;
  } else if (index < ready_count_) {
    ready_count_ = index;
  }
}

const Job& JobQueue::front() const {
  MIGOPT_REQUIRE(!empty(), "front of empty queue");
  return slot(order_[head_]);
}

const Job& JobQueue::peek(std::size_t index) const {
  MIGOPT_REQUIRE(index < size(), "peek beyond queue size");
  return slot(order_[head_ + index]);
}

Job JobQueue::pop_front() {
  MIGOPT_REQUIRE(!empty(), "pop from empty queue");
  return pop_at(0);
}

Job JobQueue::pop_at(std::size_t index) {
  MIGOPT_REQUIRE(index < size(), "pop_at beyond queue size");
  const std::size_t at = head_ + index;
  const std::uint32_t id = order_[at];
  if (index < size() - index) {
    // Near the head (every scheduler pop: the pairing window is a few
    // slots deep): slide the `index` entries in front of it up by one and
    // retire the head slot.
    std::move_backward(order_.begin() + static_cast<std::ptrdiff_t>(head_),
                       order_.begin() + static_cast<std::ptrdiff_t>(at),
                       order_.begin() + static_cast<std::ptrdiff_t>(at + 1));
    std::move_backward(keys_.begin() + static_cast<std::ptrdiff_t>(head_),
                       keys_.begin() + static_cast<std::ptrdiff_t>(at),
                       keys_.begin() + static_cast<std::ptrdiff_t>(at + 1));
    ++head_;
  } else {
    // Nearer the tail: close the gap from behind instead.
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(at));
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  const Job job = slot(id);
  free_.push_back(id);
  total_work_units_ -= job.work_units;
  if (empty()) {
    // Reset to the start of the storage; cancel residual FP drift.
    order_.clear();
    keys_.clear();
    head_ = 0;
    total_work_units_ = 0.0;
  } else if (head_ >= kCompactMinHead && head_ >= size()) {
    // The dead prefix outgrew the live entries: drop it in one pass. Each
    // compaction moves at most as many entries as pops retired since the
    // last one, so pops stay amortized O(window).
    order_.erase(order_.begin(),
                 order_.begin() + static_cast<std::ptrdiff_t>(head_));
    keys_.erase(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (ready_valid_) {
    if (index < ready_count_)
      --ready_count_;
    else if (index == ready_count_)
      // Removed the gate job: the prefix may extend past it now.
      ready_valid_ = false;
  }
  return job;
}

void JobQueue::extend_ready_prefix() const noexcept {
  while (ready_count_ < size() &&
         keys_[head_ + ready_count_].submit_time <= ready_now_)
    ++ready_count_;
}

std::size_t JobQueue::ready_count(double now) const noexcept {
  if (ready_valid_ && now == ready_now_) return ready_count_;
  if (ready_valid_ && now > ready_now_) {
    // The clock only moved forward: the old prefix is still ready, so
    // resume the scan at the old gate instead of rescanning from the front.
    ready_now_ = now;
  } else {
    ready_now_ = now;
    ready_count_ = 0;
  }
  extend_ready_prefix();
  ready_valid_ = true;
  return ready_count_;
}

}  // namespace migopt::sched
