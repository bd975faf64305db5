#include "sched/job_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace migopt::sched {

void JobQueue::clear() noexcept {
  jobs_.clear();
  head_ = 0;
}

void JobQueue::push(Job job) {
  job.validate();
  // Stable priority insertion: scan back over strictly lower priorities, so
  // equal-priority jobs keep push order (FIFO tie-break). The common case —
  // uniform priorities — appends in O(1). The scan stops at the live head.
  std::size_t at = jobs_.size();
  while (at > head_ && jobs_[at - 1].priority < job.priority) --at;
  jobs_.insert(jobs_.begin() + static_cast<std::ptrdiff_t>(at), job);
}

const Job& JobQueue::front() const {
  MIGOPT_REQUIRE(!empty(), "front of empty queue");
  return jobs_[head_];
}

const Job& JobQueue::peek(std::size_t index) const {
  MIGOPT_REQUIRE(index < size(), "peek beyond queue size");
  return jobs_[head_ + index];
}

Job JobQueue::pop_front() {
  MIGOPT_REQUIRE(!empty(), "pop from empty queue");
  return pop_at(0);
}

Job JobQueue::pop_at(std::size_t index) {
  MIGOPT_REQUIRE(index < size(), "pop_at beyond queue size");
  const auto head = jobs_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto at = head + static_cast<std::ptrdiff_t>(index);
  const Job job = *at;
  if (index < size() - index) {
    // Near the head (every scheduler pop: the pairing window is a few
    // slots deep): slide the `index` entries in front of it up by one and
    // retire the head slot.
    std::move_backward(head, at, at + 1);
    ++head_;
  } else {
    // Nearer the tail: close the gap from behind instead.
    jobs_.erase(at);
  }
  if (empty()) {
    jobs_.clear();
    head_ = 0;
  } else if (head_ >= kCompactMinHead && head_ >= size()) {
    // The dead prefix outgrew the live entries: drop it in one pass. Each
    // compaction moves at most as many entries as pops retired since the
    // last one, so pops stay amortized O(window).
    jobs_.erase(jobs_.begin(),
                jobs_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return job;
}

}  // namespace migopt::sched
