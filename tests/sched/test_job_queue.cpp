#include "sched/job_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

/// The queue never resolves app ids, so the fixtures intern against a
/// table of their own.
AppId app_id_of(const std::string& app) {
  static SymbolTable apps;
  return apps.intern(app);
}

Job make_job(int id, const std::string& app, double submit = 0.0,
             int priority = 0) {
  Job job;
  job.id = id;
  job.app_id = app_id_of(app);
  job.kernel = &test::shared_registry().by_name(app).kernel;
  job.work_units = 100.0;
  job.submit_time = submit;
  job.priority = priority;
  return job;
}

TEST(JobQueue, FifoOrder) {
  JobQueue queue;
  queue.push(make_job(0, "sgemm"));
  queue.push(make_job(1, "stream"));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.front().id, 0);
  EXPECT_EQ(queue.pop_front().id, 0);
  EXPECT_EQ(queue.pop_front().id, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, PeekDoesNotRemove) {
  JobQueue queue;
  queue.push(make_job(0, "sgemm"));
  queue.push(make_job(1, "stream"));
  EXPECT_EQ(queue.peek(1).id, 1);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_THROW(queue.peek(2), ContractViolation);
}

TEST(JobQueue, PopAtRemovesMiddle) {
  JobQueue queue;
  queue.push(make_job(0, "sgemm"));
  queue.push(make_job(1, "stream"));
  queue.push(make_job(2, "kmeans"));
  EXPECT_EQ(queue.pop_at(1).id, 1);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop_front().id, 0);
  EXPECT_EQ(queue.pop_front().id, 2);
}

TEST(JobQueue, EmptyAccessThrows) {
  JobQueue queue;
  EXPECT_THROW(queue.front(), ContractViolation);
  EXPECT_THROW(queue.pop_front(), ContractViolation);
  EXPECT_THROW(queue.pop_at(0), ContractViolation);
}

TEST(JobQueue, InvalidJobRejected) {
  JobQueue queue;
  Job bad = make_job(0, "sgemm");
  bad.work_units = 0.0;
  EXPECT_THROW(queue.push(bad), ContractViolation);
  Job uninterned = make_job(1, "sgemm");
  uninterned.app_id = kNoSymbol;
  EXPECT_THROW(queue.push(uninterned), ContractViolation);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, HigherPriorityOvertakesLowerButNotEqual) {
  JobQueue queue;
  queue.push(make_job(0, "sgemm"));            // priority 0
  queue.push(make_job(1, "stream", 0.0, 2));   // overtakes 0
  queue.push(make_job(2, "kmeans", 0.0, 1));   // between
  queue.push(make_job(3, "needle", 0.0, 2));   // equal to 1: stays behind it
  EXPECT_EQ(queue.pop_front().id, 1);
  EXPECT_EQ(queue.pop_front().id, 3);
  EXPECT_EQ(queue.pop_front().id, 2);
  EXPECT_EQ(queue.pop_front().id, 0);
}

// Deterministic replay depends on this: many same-priority arrivals must
// drain in exactly their push order, every time (no unstable reordering).
TEST(JobQueue, EqualPriorityKeepsFifoOrderUnderInterleavedPushes) {
  JobQueue queue;
  // Interleave priorities so insertions repeatedly land mid-queue.
  const int priorities[] = {0, 1, 0, 1, 0, 1, 0, 1};
  for (int i = 0; i < 8; ++i)
    queue.push(make_job(i, "sgemm", 0.0, priorities[i]));
  // All priority-1 jobs first, in push order; then priority-0, in push order.
  const int expected[] = {1, 3, 5, 7, 0, 2, 4, 6};
  for (const int id : expected) EXPECT_EQ(queue.pop_front().id, id);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, NegativePrioritySinksBehindDefault) {
  JobQueue queue;
  queue.push(make_job(0, "sgemm", 0.0, -1));
  queue.push(make_job(1, "stream"));  // default 0 overtakes -1
  queue.push(make_job(2, "kmeans", 0.0, -1));
  EXPECT_EQ(queue.pop_front().id, 1);
  EXPECT_EQ(queue.pop_front().id, 0);
  EXPECT_EQ(queue.pop_front().id, 2);
}

// ---------------------------------------------------------------------------
// Storage ↔ reference equivalence: pops slide entries and retire them at a
// head offset, so every field must survive the trip bit-for-bit against a
// plain vector reference under the same mutation sequence — not just the
// id the ordering tests check.
// ---------------------------------------------------------------------------

void expect_jobs_identical(const Job& a, const Job& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.app_id, b.app_id);
  EXPECT_EQ(a.tenant_id, b.tenant_id);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.work_units, b.work_units);
  EXPECT_EQ(a.submit_time, b.submit_time);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.solo_seconds_per_wu, b.solo_seconds_per_wu);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(JobQueue, SoAStorageMatchesAoSReferenceUnderRandomOps) {
  Rng rng(7041);
  JobQueue queue;
  std::vector<Job> reference;  // AoS mirror in queue order
  const char* apps[] = {"sgemm", "stream", "kmeans", "needle"};

  int next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = rng.next() % 8;
    if (op < 4 || queue.empty()) {
      Job job = make_job(next_id, apps[next_id % 4],
                         static_cast<double>(rng.next() % 100),
                         static_cast<int>(rng.next() % 3));
      // Distinct values in every field the scheduler reads or writes.
      job.work_units = 1.0 + static_cast<double>(rng.next() % 1000) / 7.0;
      job.app_id = static_cast<AppId>(next_id % 4);
      job.tenant_id = static_cast<TenantId>(next_id % 3);
      job.solo_seconds_per_wu = 0.01 * static_cast<double>(1 + next_id % 9);
      ++next_id;
      queue.push(job);
      auto it = reference.end();
      while (it != reference.begin() &&
             std::prev(it)->priority < job.priority)
        --it;
      reference.insert(it, job);
    } else if (op < 6) {
      const Job popped = queue.pop_front();
      expect_jobs_identical(popped, reference.front());
      reference.erase(reference.begin());
    } else {
      const std::size_t index = rng.next() % queue.size();
      const Job popped = queue.pop_at(index);
      expect_jobs_identical(popped, reference[index]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(index));
    }
    ASSERT_EQ(queue.size(), reference.size());
    if (!queue.empty()) {
      // Peeks read at the head offset without moving anything.
      const std::size_t probe = rng.next() % queue.size();
      expect_jobs_identical(queue.peek(probe), reference[probe]);
    }
  }
  while (!queue.empty()) {
    expect_jobs_identical(queue.pop_front(), reference.front());
    reference.erase(reference.begin());
  }
}

TEST(JobQueue, ClearRecyclesStorageAndReplaysIdentically) {
  // clear() is what Cluster::begin_session calls between sessions: the
  // storage's capacity survives, and an identical push/pop sequence in the
  // next epoch must behave identically.
  JobQueue queue;
  const auto run_epoch = [&queue] {
    std::vector<int> drained;
    for (int i = 0; i < 600; ++i)
      queue.push(make_job(i, "sgemm", static_cast<double>(i % 5), i % 3));
    while (!queue.empty()) drained.push_back(queue.pop_front().id);
    return drained;
  };
  const std::vector<int> first = run_epoch();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  const std::vector<int> second = run_epoch();
  EXPECT_EQ(first, second);

  // clear() with jobs still queued empties the queue, which keeps working.
  queue.push(make_job(0, "stream"));
  queue.push(make_job(1, "kmeans"));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  queue.push(make_job(2, "needle"));
  EXPECT_EQ(queue.pop_front().id, 2);
}

// Deep-queue equivalence: pops retire entries at a head offset and the dead
// prefix is compacted once it is >= 64 entries and at least as long as the
// live part. Drive the queue past 4k entries with scheduler-shaped pops
// (within 8 of the head) and mixed priorities against a deque reference;
// then land the dead prefix exactly on the compaction boundary, and move,
// swap and clear the queue while the head is offset.
TEST(JobQueue, DeepQueueHeadOffsetMatchesReferenceUnderChurn) {
  Rng rng(4099);
  JobQueue queue;
  std::deque<Job> reference;  // AoS mirror in queue order
  const char* apps[] = {"sgemm", "stream", "kmeans", "needle"};
  int next_id = 0;

  const auto push = [&](JobQueue& q, std::deque<Job>& ref, int priority) {
    Job job = make_job(next_id, apps[next_id % 4], 0.0, priority);
    job.work_units = 1.0 + static_cast<double>(next_id % 97);
    job.app_id = static_cast<AppId>(next_id % 4);
    ++next_id;
    q.push(job);
    auto it = ref.end();
    while (it != ref.begin() && std::prev(it)->priority < job.priority) --it;
    ref.insert(it, job);
  };
  const auto expect_same = [&](const JobQueue& q, const std::deque<Job>& ref) {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(q.peek(i).id, ref[i].id) << "position " << i;
  };
  const auto pop_near_head = [&](JobQueue& q, std::deque<Job>& ref) {
    const std::size_t index = rng.next() % std::min<std::size_t>(9, ref.size());
    expect_jobs_identical(q.pop_at(index), ref[index]);
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(index));
  };

  // Fill past 4k.
  for (int i = 0; i < 4200; ++i)
    push(queue, reference, static_cast<int>(rng.next() % 3));
  expect_same(queue, reference);

  // Steady churn at depth >= 4096: every pop lands within the pairing
  // window, so the head offset (and its compactions) carries all the load.
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t op = rng.next() % 16;
    if (op < 7 || reference.size() < 4096) {
      push(queue, reference, static_cast<int>(rng.next() % 3));
    } else if (op < 14) {
      pop_near_head(queue, reference);
    } else {
      expect_jobs_identical(queue.pop_front(), reference.front());
      reference.pop_front();
    }
    ASSERT_EQ(queue.size(), reference.size());
    const std::size_t probe = rng.next() % reference.size();
    ASSERT_EQ(queue.peek(probe).id, reference[probe].id) << "step " << step;
  }
  expect_same(queue, reference);

  // Exact compaction boundary: from a freshly compacted 4096-deep queue
  // (uniform priority), 2047 front pops leave a dead prefix one short of
  // the live part; pop 2048 makes them equal and compacts.
  JobQueue fresh;
  std::deque<Job> fresh_ref;
  for (int i = 0; i < 4096; ++i) push(fresh, fresh_ref, 0);
  for (int i = 0; i < 2047; ++i) {
    expect_jobs_identical(fresh.pop_front(), fresh_ref.front());
    fresh_ref.pop_front();
  }
  expect_same(fresh, fresh_ref);
  for (int i = 0; i < 2; ++i) {  // onto and past the boundary
    pop_near_head(fresh, fresh_ref);
    expect_same(fresh, fresh_ref);
  }
  // A high-priority push after the boundary still lands at the front.
  push(fresh, fresh_ref, 9);
  expect_same(fresh, fresh_ref);
  EXPECT_EQ(fresh.front().priority, 9);

  // Leave an offset head (a few pops, no compaction), then move-assign,
  // swap and clear with the offset in place.
  for (int i = 0; i < 40; ++i) pop_near_head(queue, reference);
  for (int i = 0; i < 30; ++i) pop_near_head(fresh, fresh_ref);
  JobQueue moved;
  moved = std::move(queue);
  expect_same(moved, reference);
  // The moved-from queue is valid and empty, and keeps working.
  std::deque<Job> moved_from_ref;
  expect_same(queue, moved_from_ref);
  push(queue, moved_from_ref, 2);
  push(queue, moved_from_ref, 0);
  expect_same(queue, moved_from_ref);
  JobQueue constructed(std::move(moved));
  expect_same(constructed, reference);
  expect_same(moved, std::deque<Job>{});
  moved = std::move(constructed);
  std::swap(moved, fresh);
  std::swap(reference, fresh_ref);
  expect_same(moved, reference);
  expect_same(fresh, fresh_ref);
  for (int i = 0; i < 100; ++i) {
    pop_near_head(moved, reference);
    push(moved, reference, static_cast<int>(rng.next() % 3));
  }
  expect_same(moved, reference);

  fresh.clear();
  EXPECT_TRUE(fresh.empty());
  fresh_ref.clear();
  push(fresh, fresh_ref, 0);
  push(fresh, fresh_ref, 1);
  expect_same(fresh, fresh_ref);

  // Draining to empty resets the storage; the queue keeps working after.
  while (!moved.empty()) {
    expect_jobs_identical(moved.pop_front(), reference.front());
    reference.pop_front();
  }
  push(moved, reference, 1);
  expect_same(moved, reference);
}

}  // namespace
}  // namespace migopt::sched
