#include "sched/decision_cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <string>
#include <vector>
#include <unordered_map>
#include <utility>

#include "common/interner.hpp"
#include "common/rng.hpp"
#include "profiling/profiler.hpp"
#include "sched/coscheduler.hpp"
#include "test_util.hpp"

namespace migopt::sched {
namespace {

core::ResourcePowerAllocator make_allocator() {
  return core::ResourcePowerAllocator::train(
      test::shared_chip(), test::shared_registry(), test::shared_pairs());
}

Job make_job(CoScheduler& scheduler, int id, const std::string& app) {
  Job job;
  job.id = id;
  job.app_id = scheduler.intern_app(app);
  job.kernel = &test::shared_registry().by_name(app).kernel;
  job.work_units = 100.0;
  return job;
}

void expect_identical(const core::Decision& a, const core::Decision& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_TRUE(a.state == b.state);
  EXPECT_EQ(a.power_cap_watts, b.power_cap_watts);
  EXPECT_EQ(a.objective_value, b.objective_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.predicted.relperf_app1, b.predicted.relperf_app1);
  EXPECT_EQ(a.predicted.relperf_app2, b.predicted.relperf_app2);
  EXPECT_EQ(a.predicted.throughput, b.predicted.throughput);
  EXPECT_EQ(a.predicted.fairness, b.predicted.fairness);
  EXPECT_EQ(a.predicted.power_cap_watts, b.predicted.power_cap_watts);
  EXPECT_EQ(a.predicted.energy_efficiency, b.predicted.energy_efficiency);
}

TEST(PolicySignature, DistinguishesEveryDecisionRelevantField) {
  const core::Policy base = core::Policy::problem2(0.2);
  EXPECT_EQ(PolicySignature::of(base), PolicySignature::of(base));
  core::Policy other = base;
  other.alpha = 0.3;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(other));
  other = base;
  other.objective = core::PolicyObjective::Throughput;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(other));
  other = base;
  other.fairness_margin = 0.05;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(other));
  other = base;
  other.fixed_power_cap = 230.0;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(other));
  other = base;
  other.power_cap_ceiling = 210.0;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(other));
  // A missing optional differs from the same field at 0.0.
  core::Policy zero_cap = base;
  zero_cap.power_cap_ceiling = 0.0;
  EXPECT_NE(PolicySignature::of(base), PolicySignature::of(zero_cap));
}

TEST(DecisionCache, HitReturnsTheMemoizedDecisionUnchanged) {
  auto allocator = make_allocator();
  DecisionCache cache;
  const core::Policy policy = core::Policy::problem2(0.2);
  const Symbol igemm4 = allocator.intern_app("igemm4");
  const Symbol stream = allocator.intern_app("stream");
  int computations = 0;
  const auto compute = [&] {
    ++computations;
    return allocator.allocate("igemm4", "stream", policy);
  };
  const core::Decision& first =
      cache.get_or_compute(igemm4, stream, policy, compute);
  const core::Decision& second =
      cache.get_or_compute(igemm4, stream, policy, compute);
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The interned-key cached answer is byte-identical to a fresh string-path
  // allocator search (the interned ↔ string decision equivalence pin).
  expect_identical(second, allocator.allocate("igemm4", "stream", policy));
  expect_identical(first, second);
}

TEST(DecisionCache, KeyIsOrderAndPolicySensitive) {
  auto allocator = make_allocator();
  DecisionCache cache;
  const core::Policy p1 = core::Policy::problem1(230.0, 0.2);
  const core::Policy p2 = core::Policy::problem2(0.2);
  int computations = 0;
  const auto compute_for = [&](const std::string& a, const std::string& b,
                               const core::Policy& policy) {
    return cache.get_or_compute(allocator.intern_app(a),
                                allocator.intern_app(b), policy, [&] {
                                  ++computations;
                                  return allocator.allocate(a, b, policy);
                                });
  };
  compute_for("igemm4", "stream", p1);
  compute_for("stream", "igemm4", p1);  // member order is part of the identity
  compute_for("igemm4", "stream", p2);
  EXPECT_EQ(computations, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(DecisionCache, InternedKeysMatchStringIdentityExactly) {
  // Interning is injective, so two distinct names never share an id — and
  // re-interning the same name always lands on the same entry.
  auto allocator = make_allocator();
  DecisionCache cache;
  const core::Policy policy = core::Policy::problem2(0.2);
  int computations = 0;
  for (const char* a : {"igemm4", "stream", "igemm4"}) {
    for (const char* b : {"stream", "kmeans"}) {
      cache.get_or_compute(allocator.intern_app(a), allocator.intern_app(b),
                           policy, [&] {
                             ++computations;
                             return allocator.allocate(a, b, policy);
                           });
    }
  }
  // 6 probes over 4 distinct (a, b) string pairs -> exactly 4 computes.
  EXPECT_EQ(computations, 4);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(DecisionCache, InvalidateDropsEntriesAndCounts) {
  auto allocator = make_allocator();
  DecisionCache cache;
  const core::Policy policy = core::Policy::problem2(0.2);
  const Symbol igemm4 = allocator.intern_app("igemm4");
  const Symbol stream = allocator.intern_app("stream");
  cache.get_or_compute(igemm4, stream, policy,
                       [&] { return allocator.allocate("igemm4", "stream", policy); });
  EXPECT_EQ(cache.size(), 1u);
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.get_or_compute(igemm4, stream, policy,
                       [&] { return allocator.allocate("igemm4", "stream", policy); });
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DecisionCache, EvictsLeastRecentlyUsedAtCapacity) {
  DecisionCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  SymbolTable table;
  const core::Policy policy = core::Policy::problem2(0.2);
  int computations = 0;
  const auto fetch = [&](const std::string& a, const std::string& b) {
    cache.get_or_compute(table.intern(a), table.intern(b), policy, [&] {
      ++computations;
      return core::Decision{};
    });
  };
  fetch("a", "b");      // miss -> {ab}
  fetch("c", "d");      // miss -> {ab, cd}
  fetch("a", "b");      // hit: ab becomes most recent
  fetch("e", "f");      // miss at capacity -> evicts cd (the LRU), not ab
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  fetch("a", "b");      // still resident
  EXPECT_EQ(computations, 3);
  EXPECT_EQ(cache.stats().hits, 2u);
  fetch("c", "d");      // was evicted: recomputed, evicting ab's partner ef
  EXPECT_EQ(computations, 4);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DecisionCache, CapacityOneStillServesRepeats) {
  DecisionCache cache(1);
  SymbolTable table;
  const core::Policy policy = core::Policy::problem2(0.2);
  int computations = 0;
  const auto fetch = [&](const std::string& a) {
    cache.get_or_compute(table.intern(a), table.intern("x"), policy, [&] {
      ++computations;
      return core::Decision{};
    });
  };
  fetch("a");
  fetch("a");  // hit
  EXPECT_EQ(cache.stats().hits, 1u);
  fetch("b");  // evicts a
  fetch("a");  // recompute
  EXPECT_EQ(computations, 3);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecisionCache, InvalidateResetsRecencyBookkeeping) {
  DecisionCache cache(2);
  SymbolTable table;
  const core::Policy policy = core::Policy::problem2(0.2);
  const auto fetch = [&](const std::string& a) {
    cache.get_or_compute(table.intern(a), table.intern("x"), policy,
                         [] { return core::Decision{}; });
  };
  fetch("a");
  fetch("b");
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  // A full refill after invalidate must not evict (the list was cleared too).
  fetch("c");
  fetch("d");
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DecisionCache, ZeroCapacityRejected) {
  EXPECT_THROW(DecisionCache cache(0), ContractViolation);
}

TEST(CoSchedulerCache, RepeatedDispatchHitsTheCache) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "stream"));
  const auto first = scheduler.next(queue, 0.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->job2.has_value());
  EXPECT_EQ(scheduler.decision_cache().stats().hits, 0u);
  const std::size_t misses = scheduler.decision_cache().stats().misses;
  EXPECT_GT(misses, 0u);

  // The same pair again: the allocator search is answered from the cache and
  // the plan is identical.
  queue.push(make_job(scheduler, 2, "igemm4"));
  queue.push(make_job(scheduler, 3, "stream"));
  const auto second = scheduler.next(queue, 0.0);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->job2.has_value());
  EXPECT_GT(scheduler.decision_cache().stats().hits, 0u);
  EXPECT_EQ(scheduler.decision_cache().stats().misses, misses);
  expect_identical(second->allocation, first->allocation);
}

TEST(CoSchedulerCache, RecordProfileInvalidates) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "stream"));
  ASSERT_TRUE(scheduler.next(queue, 0.0).has_value());
  EXPECT_GT(scheduler.decision_cache().size(), 0u);

  const auto counters = prof::profile_run(
      test::shared_chip(), test::shared_registry().by_name("lud").kernel);
  scheduler.record_profile(scheduler.intern_app("fresh-app"), counters);
  EXPECT_EQ(scheduler.decision_cache().size(), 0u);
  EXPECT_GT(scheduler.decision_cache().stats().invalidations, 0u);

  // Post-invalidation decisions still equal a fresh allocator search.
  queue.push(make_job(scheduler, 2, "igemm4"));
  queue.push(make_job(scheduler, 3, "stream"));
  const auto plan = scheduler.next(queue, 0.0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->job2.has_value());
  expect_identical(plan->allocation,
                   allocator.allocate("igemm4", "stream",
                                      core::Policy::problem1(230.0, 0.2)));
}

TEST(CoSchedulerCache, BudgetCeilingWobbleStillHitsTheCache) {
  // Under a cluster power budget the headroom ceiling varies continuously;
  // ceilings admitting the same trained caps must share one cache entry,
  // while the dispatched decision stays identical to an exact fresh search.
  auto allocator = make_allocator();
  SchedulerTuning tuning;
  tuning.min_pair_speedup = 0.0;  // accept the pair so both jobs dequeue
  CoScheduler scheduler(allocator, core::Policy::problem2(0.2), tuning);
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "stream"));
  const auto first = scheduler.next(queue, 0.0, 251.3);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->job2.has_value());
  const std::size_t misses = scheduler.decision_cache().stats().misses;
  EXPECT_GT(misses, 0u);

  queue.push(make_job(scheduler, 2, "igemm4"));
  queue.push(make_job(scheduler, 3, "stream"));
  const auto plan = scheduler.next(queue, 0.0, 260.7);  // same admissible caps
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->job2.has_value());
  EXPECT_EQ(scheduler.decision_cache().stats().misses, misses);
  EXPECT_GT(scheduler.decision_cache().stats().hits, 0u);
  expect_identical(
      plan->allocation,
      allocator.allocate("igemm4", "stream",
                         core::Policy::problem2(0.2).with_ceiling(260.7)));
}

TEST(CoSchedulerCache, DirectAllocatorMutationIsDetectedByRevision) {
  auto allocator = make_allocator();
  CoScheduler scheduler(allocator, core::Policy::problem1(230.0, 0.2));
  JobQueue queue;
  queue.push(make_job(scheduler, 0, "igemm4"));
  queue.push(make_job(scheduler, 1, "stream"));
  ASSERT_TRUE(scheduler.next(queue, 0.0).has_value());
  EXPECT_GT(scheduler.decision_cache().size(), 0u);

  // Recording through the allocator (bypassing the scheduler) bumps the
  // profile store's revision; the next dispatch must notice and invalidate.
  const auto counters = prof::profile_run(
      test::shared_chip(), test::shared_registry().by_name("lud").kernel);
  allocator.record_profile("side-channel-app", counters);
  queue.push(make_job(scheduler, 2, "igemm4"));
  queue.push(make_job(scheduler, 3, "stream"));
  ASSERT_TRUE(scheduler.next(queue, 0.0).has_value());
  EXPECT_GT(scheduler.decision_cache().stats().invalidations, 0u);
}

TEST(CoSchedulerCapCurves, MemoPathMatchesAFreshSearchForEveryRegistryPair) {
  // Under a budget ceiling a free-cap DecisionCache miss reads the pair's
  // cap curve instead of searching. Every (pivot, partner) pair of the
  // registry, both objectives, a fairness margin, and ceilings on, between,
  // below and above the grid: the dispatched decision must be bit-equal to
  // a fresh search under the exact ceiling (an infeasible one must leave
  // the pivot exclusive).
  auto allocator = make_allocator();
  const std::vector<double>& levels = allocator.optimizer().ceiling_levels();
  std::vector<double> ceilings = {levels.front() - 1.0,
                                  std::numeric_limits<double>::infinity()};
  for (std::size_t k = 0; k < levels.size(); ++k) {
    ceilings.push_back(levels[k]);
    if (k + 1 < levels.size())
      ceilings.push_back(0.5 * (levels[k] + levels[k + 1]));
  }
  SchedulerTuning tuning;
  tuning.min_pair_speedup = 0.0;  // every feasible decision pairs
  std::size_t paired = 0;
  std::size_t exclusive = 0;
  for (const auto objective : {core::PolicyObjective::Throughput,
                               core::PolicyObjective::EnergyEfficiency}) {
    core::Policy policy = core::Policy::problem2(0.2);
    policy.objective = objective;
    policy.fairness_margin = 0.05;
    CoScheduler scheduler(allocator, policy, tuning);
    JobQueue queue;
    for (const auto& pivot : test::shared_registry().all()) {
      for (const auto& partner : test::shared_registry().all()) {
        const std::string& app1 = pivot.kernel.name;
        const std::string& app2 = partner.kernel.name;
        for (const double ceiling : ceilings) {
          SCOPED_TRACE(app1 + "+" + app2 + " @ " + std::to_string(ceiling));
          queue.clear();
          queue.push(make_job(scheduler, 0, app1));
          queue.push(make_job(scheduler, 1, app2));
          const auto plan = scheduler.next(queue, 0.0, ceiling);
          if (ceiling < levels.front()) {
            EXPECT_FALSE(plan.has_value());  // budget below every cap
            continue;
          }
          ASSERT_TRUE(plan.has_value());
          const core::Decision fresh =
              allocator.allocate(app1, app2, policy.with_ceiling(ceiling));
          ASSERT_EQ(plan->job2.has_value(), fresh.feasible);
          if (!fresh.feasible) {
            ++exclusive;
            continue;
          }
          ++paired;
          expect_identical(plan->allocation, fresh);
          EXPECT_EQ(plan->power_cap_watts, fresh.power_cap_watts);
        }
      }
    }
    EXPECT_GT(scheduler.cap_curves(), 0u);
  }
  EXPECT_GT(paired, 0u);
  EXPECT_GT(exclusive, 0u);
}

TEST(CoSchedulerCapCurves, RecordProfileAndRevisionBumpDropTheCurves) {
  auto allocator = make_allocator();
  SchedulerTuning tuning;
  tuning.min_pair_speedup = 0.0;
  const core::Policy policy = core::Policy::problem2(0.2);
  CoScheduler scheduler(allocator, policy, tuning);
  JobQueue queue;
  const auto dispatch = [&](double ceiling) {
    queue.clear();
    queue.push(make_job(scheduler, 0, "igemm4"));
    queue.push(make_job(scheduler, 1, "stream"));
    return scheduler.next(queue, 0.0, ceiling);
  };
  const auto profile_of = [](const char* app) {
    return prof::profile_run(test::shared_chip(),
                             test::shared_registry().by_name(app).kernel);
  };

  ASSERT_TRUE(dispatch(251.0).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);
  // Unconstrained probes search directly and build no curve.
  ASSERT_TRUE(dispatch(std::numeric_limits<double>::infinity()).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);

  scheduler.record_profile(scheduler.intern_app("fresh-app"),
                           profile_of("lud"));
  EXPECT_EQ(scheduler.cap_curves(), 0u);

  // Rebuild the curve, then re-profile a pair member behind the scheduler's
  // back. A probe at another ceiling level misses the DecisionCache either
  // way, so only a dropped curve makes it match a fresh search.
  ASSERT_TRUE(dispatch(251.0).has_value());
  EXPECT_EQ(scheduler.cap_curves(), 1u);
  const core::Decision before =
      allocator.allocate("igemm4", "stream", policy.with_ceiling(211.0));
  allocator.record_profile("igemm4", profile_of("sgemm"));
  const core::Decision after =
      allocator.allocate("igemm4", "stream", policy.with_ceiling(211.0));
  ASSERT_NE(before.predicted.relperf_app1, after.predicted.relperf_app1);
  ASSERT_TRUE(after.feasible);
  const auto plan = dispatch(211.0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->job2.has_value());
  expect_identical(plan->allocation, after);
  EXPECT_EQ(scheduler.cap_curves(), 1u);  // dropped, then rebuilt once
}

// The flat-map DecisionCache threads its LRU chain through slot ids instead
// of a std::list of heap nodes. The contract is that the hit/miss/evict
// *sequence* — and therefore every value the cache serves — is bit-identical
// to the node-based implementation it replaced. This drives both in lockstep
// over a randomized probe mix (with occasional invalidations) and checks
// every probe's outcome, not just the final counters.
TEST(DecisionCacheLru, SequenceMatchesNodeBasedReferenceBitForBit) {
  struct RefKey {
    Symbol app1 = kNoSymbol;
    Symbol app2 = kNoSymbol;
    PolicySignature policy;
    bool operator==(const RefKey&) const = default;
  };
  struct RefKeyHash {
    std::size_t operator()(const RefKey& key) const noexcept {
      // The probe set varies only apps and alpha; a weak hash is fine — the
      // reference's correctness never depends on hash quality.
      return std::hash<double>{}(key.policy.alpha) ^
             (std::size_t(key.app1) << 8) ^ std::size_t(key.app2);
    }
  };
  // Node-based LRU with the exact shape of the old implementation:
  // unordered_map for residency, std::list front=MRU, splice-to-front on
  // hit, evict the back at capacity.
  struct ReferenceLru {
    std::size_t capacity;
    std::list<RefKey> order;
    std::unordered_map<RefKey, std::pair<double, std::list<RefKey>::iterator>,
                       RefKeyHash>
        map;
    std::size_t hits = 0, misses = 0, evictions = 0;

    std::pair<double, bool> get_or_compute(const RefKey& key, double fresh) {
      if (auto it = map.find(key); it != map.end()) {
        ++hits;
        order.splice(order.begin(), order, it->second.second);
        return {it->second.first, false};
      }
      ++misses;
      if (map.size() >= capacity) {
        map.erase(order.back());
        order.pop_back();
        ++evictions;
      }
      order.push_front(key);
      map.emplace(key, std::make_pair(fresh, order.begin()));
      return {fresh, true};
    }
    void invalidate() {
      map.clear();
      order.clear();
    }
  };

  // Capacity 8 against 6 apps x 6 apps x 3 policies = 108 possible keys:
  // the cache stays saturated, so eviction-victim choice is exercised on
  // nearly every miss and any recency-order divergence surfaces within a
  // handful of probes as a hit/miss mismatch.
  constexpr std::size_t kCapacity = 8;
  DecisionCache cache(kCapacity);
  ReferenceLru ref{kCapacity, {}, {}};
  const core::Policy policies[] = {core::Policy::problem2(0.1),
                                   core::Policy::problem2(0.2),
                                   core::Policy::problem2(0.3)};
  Rng rng(2022);
  std::uint64_t stamp = 0;
  std::size_t invalidations = 0;

  for (int probe = 0; probe < 20000; ++probe) {
    if (rng.bounded(512) == 0) {
      cache.invalidate();
      ref.invalidate();
      ++invalidations;
      ASSERT_EQ(cache.size(), 0u);
    }
    const Symbol app1 = static_cast<Symbol>(rng.bounded(6));
    const Symbol app2 = static_cast<Symbol>(rng.bounded(6));
    const core::Policy& policy = policies[rng.bounded(3)];
    // Every miss stores a unique stamp, so serving a stale entry — or
    // evicting the wrong victim and recomputing where the reference hits —
    // shows up as a value mismatch, not just a counter drift.
    const double fresh = static_cast<double>(++stamp);
    bool computed = false;
    const core::Decision& got =
        cache.get_or_compute(app1, app2, policy, [&] {
          computed = true;
          core::Decision decision;
          decision.objective_value = fresh;
          return decision;
        });
    const auto [ref_value, ref_computed] = ref.get_or_compute(
        RefKey{app1, app2, PolicySignature::of(policy)}, fresh);
    ASSERT_EQ(computed, ref_computed) << "probe " << probe;
    ASSERT_EQ(got.objective_value, ref_value) << "probe " << probe;
    ASSERT_EQ(cache.stats().hits, ref.hits) << "probe " << probe;
    ASSERT_EQ(cache.stats().misses, ref.misses) << "probe " << probe;
    ASSERT_EQ(cache.stats().evictions, ref.evictions) << "probe " << probe;
    ASSERT_EQ(cache.size(), ref.map.size()) << "probe " << probe;
  }
  EXPECT_EQ(cache.stats().invalidations, invalidations);
  EXPECT_GT(ref.hits, 0u);
  EXPECT_GT(ref.evictions, 0u);
}

}  // namespace
}  // namespace migopt::sched
