// Memoized node physics for cluster replay.
//
// A cluster replays the same dispatch shapes millions of times: an exclusive
// full-chip run of app A at cap P, the pair (A, B) under partition state S at
// cap P, the survivor of a pair finishing solo on its slice. The execution
// engine's steady-state solve for one of those shapes is a pure function of
// (kernels, GPC split, LLC/HBM option, cap) — the fixed-point iteration
// returns the same RunResult every time — yet a million-job replay used to
// re-run it once per dispatch and once per co-runner exit (~15 solver
// iterations each, dozens of heap allocations per iteration). The memo keys
// the solve by exactly its inputs and hands back a reference to the stored
// result, so replay pays one hash probe where it paid a physics solve; the
// values served are bit-identical to fresh solves by construction.
//
// The memo is the per-session front of a gpusim::SolveStore. The owner
// (Cluster) clears it at begin_session, so its hit/miss counters describe
// one session's dispatch shapes exactly as they did before the store
// existed. A front miss asks the attached store, which solves only shapes
// no earlier session or fleet shard on the same registry has paid for;
// without a store every miss solves. Keys hold kernel pointers (see
// gpusim/solve_store.hpp), so the owner attaches only a store owned by the
// registry whose kernels the session dispatches, and detaches it at
// begin_session. Only 1- and 2-member shapes are memoized — larger N-way
// groups fall through to a fresh solve (no cluster path dispatches them
// today).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "common/flat_map.hpp"
#include "gpusim/gpu.hpp"
#include "gpusim/solve_store.hpp"

namespace migopt::sched {

class RunMemo {
 public:
  /// Monotonic probe counters (a hit serves this session's stored solve, a
  /// miss goes to the store or pays a fresh one). Never reset — owners
  /// snapshot them at session start and report deltas, exactly like
  /// CoScheduler::DecisionStats.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  using Key = gpusim::SolveKey;
  using KeyHash = gpusim::SolveKeyHash;

  /// Return the memoized RunResult for `key`, or fetch it from the attached
  /// store (which runs `solve` only for a shape it has never seen), or run
  /// `solve` when no store is attached; keep it and return it. The
  /// reference stays valid until the next get_or_solve or clear() (the
  /// flat-map's dense storage may move on insert); the sole caller (Node)
  /// applies the result immediately.
  template <typename Solve>
  const gpusim::RunResult& get_or_solve(const Key& key, Solve&& solve) {
    const auto id = entries_.find_id(key);
    if (id != decltype(entries_)::npos) {
      ++stats_.hits;
      return entries_.value_at(id);
    }
    ++stats_.misses;
    // Epoch reset instead of LRU: the key space of a real replay is tiny
    // (apps x caps x shapes), so the bound only guards pathological drivers.
    if (entries_.size() >= kMaxEntries) entries_.clear();
    // The value is fetched before the emplace: a throwing solve stores
    // nothing.
    gpusim::RunResult run =
        store_ != nullptr ? store_->get_or_solve(key, solve) : solve();
    return entries_.value_at(entries_.try_emplace(key, std::move(run)).first);
  }

  /// Serve misses from `store` (null detaches). The caller guarantees the
  /// store's arch matches the solving chip and its kernels outlive the
  /// attachment.
  void attach(gpusim::SolveStore* store) noexcept { store_ = store; }
  gpusim::SolveStore* store() const noexcept { return store_; }

  /// Drops the entries, not the counters (they count across sessions).
  void clear() noexcept { entries_.clear(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kMaxEntries = 1 << 16;

  FlatMap<Key, gpusim::RunResult, KeyHash, std::equal_to<>> entries_;
  Stats stats_;
  gpusim::SolveStore* store_ = nullptr;
};

}  // namespace migopt::sched
