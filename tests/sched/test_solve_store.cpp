// gpusim::SolveStore under concurrent use. It lives in the sched suite so
// the thread-sanitizer preset (which runs the common, sched, trace, fault
// and obs labels) checks it: fleet shards share one store across threads.
#include "gpusim/solve_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/hw_state.hpp"
#include "gpusim/gpu.hpp"
#include "test_util.hpp"

namespace migopt::gpusim {
namespace {

/// Every field of two solves is bit-equal (== on doubles; the engine never
/// produces NaN or signed zeros).
void expect_bit_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.clock_ratio, b.clock_ratio);
  EXPECT_EQ(a.power_watts, b.power_watts);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const AppResult& x = a.apps[i];
    const AppResult& y = b.apps[i];
    EXPECT_EQ(x.seconds_per_wu, y.seconds_per_wu);
    EXPECT_EQ(x.pipe_util, y.pipe_util);
    EXPECT_EQ(x.l2_util_chip, y.l2_util_chip);
    EXPECT_EQ(x.dram_util_chip, y.dram_util_chip);
    EXPECT_EQ(x.dram_util_avail, y.dram_util_avail);
    EXPECT_EQ(x.effective_l2_hit, y.effective_l2_hit);
    EXPECT_EQ(x.achieved_dram_bw, y.achieved_dram_bw);
    EXPECT_EQ(x.clock_ratio, y.clock_ratio);
    EXPECT_EQ(x.instance_power_watts, y.instance_power_watts);
    EXPECT_EQ(x.bound, y.bound);
  }
}

/// The solve a cluster node runs for `key` (sched::Node::recompute_rates).
RunResult solve_shape(const GpuChip& chip, const SolveKey& key) {
  if (key.kernel2 != nullptr) {
    const std::array<GpuChip::GroupMember, 2> members = {
        GpuChip::GroupMember{key.kernel1, key.gpcs1},
        GpuChip::GroupMember{key.kernel2, key.gpcs2}};
    return chip.run_group(members, static_cast<MemOption>(key.option),
                          key.cap_watts);
  }
  if (key.option < 0) return chip.run_full_chip(*key.kernel1, key.cap_watts);
  return chip.run_solo(*key.kernel1, key.gpcs1,
                       static_cast<MemOption>(key.option), key.cap_watts);
}

// Four threads request every exclusive, slice-solo and pair shape a replay
// of three registry apps can dispatch (both LLC/HBM options, every paper
// grid cap), each in its own shuffled order, so the same key is often
// missed by several threads at once. Whichever racer's solve is kept, every
// served result must equal a fresh solve on an independent chip to the bit,
// and the store must hold each distinct shape exactly once.
TEST(SolveStore, ConcurrentGetOrSolveMatchesFreshSolves) {
  const GpuChip chip;
  const auto& registry = test::shared_registry();
  const std::vector<const KernelDescriptor*> kernels = {
      &registry.by_name("sgemm").kernel, &registry.by_name("stream").kernel,
      &registry.by_name("kmeans").kernel};
  const std::vector<double> caps = core::paper_power_caps();

  std::vector<SolveKey> keys;
  for (const double cap : caps) {
    for (const KernelDescriptor* k1 : kernels) {
      keys.push_back({k1, nullptr, chip.arch().total_gpcs, 0, -1, cap});
      for (const core::PartitionState& state : core::paper_states()) {
        const int option = static_cast<int>(state.option);
        for (const int gpcs : {state.gpcs_app1, state.gpcs_app2}) {
          const SolveKey solo{k1, nullptr, gpcs, 0, option, cap};
          if (std::find(keys.begin(), keys.end(), solo) == keys.end())
            keys.push_back(solo);
        }
        for (const KernelDescriptor* k2 : kernels)
          keys.push_back(
              {k1, k2, state.gpcs_app1, state.gpcs_app2, option, cap});
      }
    }
  }

  SolveStore store(chip.arch());
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<RunResult>> served(
      kThreads, std::vector<RunResult>(keys.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng rng(101 + t);
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t i : order)
        served[t][i] = store.get_or_solve(
            keys[i], [&] { return solve_shape(chip, keys[i]); });
    });
  }
  for (std::thread& thread : threads) thread.join();

  const GpuChip fresh_chip;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const RunResult fresh = solve_shape(fresh_chip, keys[i]);
    for (std::size_t t = 0; t < kThreads; ++t) {
      SCOPED_TRACE("key " + std::to_string(i) + ", thread " +
                   std::to_string(t));
      expect_bit_equal(served[t][i], fresh);
    }
  }
  EXPECT_EQ(store.size(), keys.size());
  // Racers may both pay a miss, but never more than one solve per thread.
  EXPECT_GE(store.solves(), keys.size());
  EXPECT_LE(store.solves(), kThreads * keys.size());

  // A served entry is never solved again.
  const std::size_t paid = store.solves();
  for (const SolveKey& key : keys)
    store.get_or_solve(key, [&]() -> RunResult {
      ADD_FAILURE() << "stored shape solved again";
      return {};
    });
  EXPECT_EQ(store.solves(), paid);
}

// Keys differ when any field does: two shapes that share everything but
// the cap are two entries, each with its own solve.
TEST(SolveStore, KeysDistinguishCaps) {
  const GpuChip chip;
  const KernelDescriptor& kernel = test::shared_registry().by_name("dgemm").kernel;
  SolveStore store(chip.arch());
  const SolveKey at_150{&kernel, nullptr, chip.arch().total_gpcs, 0, -1, 150.0};
  SolveKey at_250 = at_150;
  at_250.cap_watts = 250.0;
  EXPECT_FALSE(at_150 == at_250);
  const RunResult low =
      store.get_or_solve(at_150, [&] { return solve_shape(chip, at_150); });
  const RunResult high =
      store.get_or_solve(at_250, [&] { return solve_shape(chip, at_250); });
  EXPECT_EQ(store.solves(), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_LT(low.power_watts, high.power_watts);
  expect_bit_equal(high, chip.run_full_chip(kernel, 250.0));
}

}  // namespace
}  // namespace migopt::gpusim
