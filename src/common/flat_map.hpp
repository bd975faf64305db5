// Open-addressing hash map for the trace→sched hot path.
//
// std::unordered_map spends the replay's lookup budget on pointer-chasing:
// every probe lands in a bucket list node allocated who-knows-where, every
// insert allocates, and iteration order depends on the hash function — a
// determinism hazard for anything that reports or evicts in map order. This
// map keeps entries in two flat arrays instead:
//
//   - `slots_`: a dense vector of {hash, key, value} records in insertion
//     order, recycled through a free list and threaded onto an intrusive
//     doubly-linked list, so iteration visits entries in exact insertion
//     order (erased entries unlink; new entries append at the tail) — a
//     deterministic function of the operation sequence, never of hash
//     values or allocator state. Reports and eviction sequences built by
//     walking the map are therefore bit-stable across platforms.
//   - `buckets_`: a power-of-two open-addressing index of {hash, slot id}
//     pairs probed linearly. Deletion uses backward shifting (Knuth's
//     linear-probe deletion), so there are no tombstones and probe chains
//     never degrade with churn.
//
// User hashes are finalized through hash_mix (common/hash_mix.hpp) before
// indexing, so a weak Hash (e.g. identity on small ints) still spreads over
// the table. The mixed hash is cached per slot and per bucket: probes
// compare 8-byte hashes before touching the key, and rehash/backward-shift
// never re-hash a key (which matters for string keys).
//
// Contracts and limits:
//   - At most ~2^31 live entries (slot ids are uint32 with a spare bit).
//   - References/pointers into the map are invalidated by any insert that
//     grows the dense storage (like std::vector) and by erase of the
//     referenced entry; they are NOT invalidated by erases of other entries
//     or by lookups. Callers that need longer-lived values copy them.
//   - Heterogeneous lookup: find/erase/try_emplace accept any query type
//     the Hash and KeyEq functors accept (hash consistency is on the
//     caller, exactly as with transparent std::unordered_map functors).
//   - clear() drops entries but keeps bucket and slot capacity, so a
//     cleared map re-fills allocation-free (session-reset friendly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/hash_mix.hpp"

namespace migopt {

template <typename Key, typename T, typename Hash, typename KeyEq>
class FlatMap {
 public:
  using id_type = std::uint32_t;
  /// "No entry" sentinel for find_id (also the largest invalid slot id).
  static constexpr id_type npos = 0xFFFFFFFFu;

  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Drop every entry; bucket array and slot storage keep their capacity.
  void clear() noexcept {
    for (Bucket& bucket : buckets_) bucket.slot = kEmpty;
    slots_.clear();
    free_ = npos;
    head_ = tail_ = npos;
    size_ = 0;
  }

  /// Pre-size for `n` entries without rehashing on the way there.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    std::size_t want = kMinBuckets;
    while (want * 3 < n * 4) want <<= 1;  // keep load factor <= 3/4
    if (want > buckets_.size()) rehash(want);
  }

  /// Slot id of `key`'s entry, or npos. Ids are stable until the entry is
  /// erased or the map cleared (inserts never move live slots).
  template <typename Q>
  id_type find_id(const Q& query) const noexcept {
    if (buckets_.empty()) return npos;
    const std::uint64_t hash = mixed_hash(query);
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = static_cast<std::size_t>(hash) & mask;
    while (buckets_[b].slot != kEmpty) {
      if (buckets_[b].hash == hash &&
          KeyEq{}(slots_[buckets_[b].slot].key, query))
        return buckets_[b].slot;
      b = (b + 1) & mask;
    }
    return npos;
  }

  template <typename Q>
  T* find(const Q& query) noexcept {
    const id_type id = find_id(query);
    return id == npos ? nullptr : &slots_[id].value;
  }
  template <typename Q>
  const T* find(const Q& query) const noexcept {
    const id_type id = find_id(query);
    return id == npos ? nullptr : &slots_[id].value;
  }
  template <typename Q>
  bool contains(const Q& query) const noexcept {
    return find_id(query) != npos;
  }

  const Key& key_at(id_type id) const noexcept { return slots_[id].key; }
  T& value_at(id_type id) noexcept { return slots_[id].value; }
  const T& value_at(id_type id) const noexcept { return slots_[id].value; }

  /// Find-or-insert: returns {slot id, inserted}. On insert the key is built
  /// from `query` and the value from `args...` (or value-initialized). The
  /// new entry lands at the iteration tail, whatever slot id it recycles.
  template <typename Q, typename... Args>
  std::pair<id_type, bool> try_emplace(Q&& query, Args&&... args) {
    if (buckets_.empty()) rehash(kMinBuckets);
    const std::uint64_t hash = mixed_hash(query);
    std::size_t mask = buckets_.size() - 1;
    std::size_t b = static_cast<std::size_t>(hash) & mask;
    while (buckets_[b].slot != kEmpty) {
      if (buckets_[b].hash == hash &&
          KeyEq{}(slots_[buckets_[b].slot].key, query))
        return {buckets_[b].slot, false};
      b = (b + 1) & mask;
    }
    if ((size_ + 1) * 4 > buckets_.size() * 3) {
      rehash(buckets_.size() * 2);
      mask = buckets_.size() - 1;
      b = static_cast<std::size_t>(hash) & mask;
      while (buckets_[b].slot != kEmpty) b = (b + 1) & mask;
    }

    id_type id;
    if (free_ != npos) {
      id = free_;
      Slot& slot = slots_[id];
      free_ = slot.next;
      slot.hash = hash;
      slot.key = Key(std::forward<Q>(query));
      slot.value = T(std::forward<Args>(args)...);
    } else {
      MIGOPT_REQUIRE(slots_.size() < npos, "flat_map slot space exhausted");
      id = static_cast<id_type>(slots_.size());
      slots_.push_back(Slot{hash, Key(std::forward<Q>(query)),
                            T(std::forward<Args>(args)...), npos, npos});
    }
    link_tail(id);
    buckets_[b] = Bucket{hash, id};
    ++size_;
    return {id, true};
  }

  /// Erase by key; false when absent. Backward-shifts the probe chain (no
  /// tombstones) and unlinks the slot from the iteration order.
  template <typename Q>
  bool erase(const Q& query) noexcept {
    if (buckets_.empty()) return false;
    const std::uint64_t hash = mixed_hash(query);
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = static_cast<std::size_t>(hash) & mask;
    while (buckets_[b].slot != kEmpty) {
      if (buckets_[b].hash == hash &&
          KeyEq{}(slots_[buckets_[b].slot].key, query)) {
        erase_bucket(b);
        return true;
      }
      b = (b + 1) & mask;
    }
    return false;
  }

  /// Insertion-order iteration: first live slot id / successor of `id`
  /// (npos at the end). Erase-safe for the entry *behind* the cursor only.
  id_type first_id() const noexcept { return head_; }
  id_type next_id(id_type id) const noexcept { return slots_[id].next; }

 private:
  static constexpr id_type kEmpty = npos;
  static constexpr std::size_t kMinBuckets = 16;

  struct Bucket {
    std::uint64_t hash = 0;
    id_type slot = kEmpty;
  };
  struct Slot {
    std::uint64_t hash = 0;
    Key key{};
    T value{};
    id_type prev = npos;  ///< iteration order links (free list reuses next)
    id_type next = npos;
  };

  template <typename Q>
  static std::uint64_t mixed_hash(const Q& query) noexcept {
    return hash_mix(0x666c61746d6170ULL,
                    static_cast<std::uint64_t>(Hash{}(query)));
  }

  void link_tail(id_type id) noexcept {
    slots_[id].prev = tail_;
    slots_[id].next = npos;
    if (tail_ != npos)
      slots_[tail_].next = id;
    else
      head_ = id;
    tail_ = id;
  }

  void unlink(id_type id) noexcept {
    Slot& slot = slots_[id];
    if (slot.prev != npos)
      slots_[slot.prev].next = slot.next;
    else
      head_ = slot.next;
    if (slot.next != npos)
      slots_[slot.next].prev = slot.prev;
    else
      tail_ = slot.prev;
  }

  void erase_bucket(std::size_t b) noexcept {
    const id_type id = buckets_[b].slot;
    unlink(id);
    slots_[id].key = Key{};
    slots_[id].value = T{};
    slots_[id].next = free_;  // LIFO free list through the next link
    free_ = id;
    --size_;

    // Backward-shift deletion: pull every displaced follower of the probe
    // chain into the hole so lookups never meet a gap mid-chain.
    const std::size_t mask = buckets_.size() - 1;
    std::size_t hole = b;
    std::size_t j = (b + 1) & mask;
    while (buckets_[j].slot != kEmpty) {
      const std::size_t home = static_cast<std::size_t>(buckets_[j].hash) & mask;
      // Entry at j may move to the hole iff its home does not lie cyclically
      // after the hole (moving it would not skip past its home bucket).
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
      j = (j + 1) & mask;
    }
    buckets_[hole].slot = kEmpty;
  }

  void rehash(std::size_t bucket_count) {
    buckets_.assign(bucket_count, Bucket{});
    const std::size_t mask = bucket_count - 1;
    // Reinsert in insertion order — probe chains are then a deterministic
    // function of the entry sequence, like everything else here.
    for (id_type id = head_; id != npos; id = slots_[id].next) {
      std::size_t b = static_cast<std::size_t>(slots_[id].hash) & mask;
      while (buckets_[b].slot != kEmpty) b = (b + 1) & mask;
      buckets_[b] = Bucket{slots_[id].hash, id};
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<Slot> slots_;
  id_type free_ = npos;   ///< LIFO free list of erased slot ids
  id_type head_ = npos;   ///< first live slot in insertion order
  id_type tail_ = npos;   ///< last live slot in insertion order
  std::size_t size_ = 0;
};

}  // namespace migopt
