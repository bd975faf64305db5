// Shared steady-state solves for one set of kernels.
//
// The execution engine's steady-state solve of a dispatch shape is a pure
// function of (kernels, GPC split, LLC/HBM option, cap) on a given
// architecture: the fixed-point iteration returns the same RunResult every
// time. Replay sessions and fleet shards that run the same kernels on the
// same architecture therefore need each shape solved once, not once per
// session. SolveStore is that one copy: a mutex-guarded, bounded map from
// the shape to its RunResult, owned by whoever owns the kernels the keys
// point at (wl::WorkloadRegistry), so entries never outlive their kernels.
//
// sched::RunMemo stays the per-session, lock-free front with the hit/miss
// counters reports pin; only its misses reach the store. The solve runs
// outside the lock, so two threads that miss the same key both solve it and
// the first result is kept. Both results are bit-identical (same inputs,
// same fixed point), so which one wins changes nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/flat_map.hpp"
#include "common/hash_mix.hpp"
#include "gpusim/arch_config.hpp"
#include "gpusim/exec_engine.hpp"
#include "gpusim/kernel.hpp"

namespace migopt::gpusim {

/// One steady-state shape. Keys hold kernel *pointers*: the owner of the
/// kernels is the owner of the store, so pointer identity is kernel identity
/// for the store's whole life.
struct SolveKey {
  const KernelDescriptor* kernel1 = nullptr;
  const KernelDescriptor* kernel2 = nullptr;  ///< null for solo
  int gpcs1 = 0;
  int gpcs2 = 0;
  int option = -1;  ///< MemOption, -1 = exclusive full chip
  double cap_watts = 0.0;

  bool operator==(const SolveKey&) const = default;
};

struct SolveKeyHash {
  std::size_t operator()(const SolveKey& key) const noexcept {
    std::uint64_t h = hash_mix(0x6e6f6465ULL,
                               reinterpret_cast<std::uintptr_t>(key.kernel1));
    h = hash_mix(h, reinterpret_cast<std::uintptr_t>(key.kernel2));
    h = hash_mix(h, (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(key.gpcs1))
                     << 32) |
                        static_cast<std::uint32_t>(key.gpcs2));
    h = hash_mix(h, static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(key.option)));
    h = hash_mix(h, hash_bits(key.cap_watts));
    return static_cast<std::size_t>(h);
  }
};

class SolveStore {
 public:
  /// `arch` is the architecture every stored solve ran on; users with a
  /// different chip must not attach (the key carries no arch identity).
  explicit SolveStore(const ArchConfig& arch) : arch_(arch) {}
  SolveStore(const SolveStore&) = delete;
  SolveStore& operator=(const SolveStore&) = delete;

  const ArchConfig& arch() const noexcept { return arch_; }

  /// The stored RunResult for `key`, or `solve()` (run outside the lock),
  /// stored unless another thread stored the key first. Returned by value:
  /// the map may grow or reset under other threads once the lock drops.
  template <typename Solve>
  RunResult get_or_solve(const SolveKey& key, Solve&& solve) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto id = entries_.find_id(key);
      if (id != decltype(entries_)::npos) return entries_.value_at(id);
    }
    RunResult result = solve();
    ++solves_;
    const std::lock_guard<std::mutex> lock(mutex_);
    // Epoch reset instead of LRU: a replay's key space is a few hundred
    // shapes, so the bound only guards pathological callers.
    if (entries_.size() >= kMaxEntries) entries_.clear();
    entries_.try_emplace(key, result);
    return result;
  }

  /// Solves actually paid through this store (monotonic).
  std::size_t solves() const noexcept { return solves_.load(); }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  static constexpr std::size_t kMaxEntries = 1 << 16;

  const ArchConfig arch_;
  mutable std::mutex mutex_;
  FlatMap<SolveKey, RunResult, SolveKeyHash, std::equal_to<>> entries_;
  std::atomic<std::size_t> solves_{0};
};

}  // namespace migopt::gpusim
