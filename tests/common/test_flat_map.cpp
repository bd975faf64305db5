#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace migopt {
namespace {

struct IntHash {
  std::size_t operator()(int key) const noexcept {
    return static_cast<std::size_t>(key);  // weak on purpose; hash_mix fixes it
  }
};
/// Worst-case hash: every key collides, so every operation exercises probe
/// chains, wraparound, and backward-shift deletion.
struct ConstantHash {
  std::size_t operator()(int) const noexcept { return 42; }
};
struct StrHash {
  std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string>{}(s);
  }
};

template <typename Hash>
using IntMap = FlatMap<int, std::uint64_t, Hash, std::equal_to<>>;

/// Reference model: std::unordered_map for the mapping plus a vector of keys
/// in insertion order (append on insert, remove on erase) — exactly the
/// iteration contract FlatMap promises.
struct Reference {
  std::unordered_map<int, std::uint64_t> map;
  std::vector<int> order;

  bool insert(int key, std::uint64_t value) {
    if (!map.emplace(key, value).second) return false;
    order.push_back(key);
    return true;
  }
  bool erase(int key) {
    if (map.erase(key) == 0) return false;
    order.erase(std::find(order.begin(), order.end(), key));
    return true;
  }
  void clear() {
    map.clear();
    order.clear();
  }
};

template <typename Hash>
void check_against_reference(const IntMap<Hash>& map, const Reference& ref) {
  ASSERT_EQ(map.size(), ref.map.size());
  // Iteration must replay the reference's insertion order exactly.
  std::size_t i = 0;
  for (auto id = map.first_id(); id != IntMap<Hash>::npos;
       id = map.next_id(id), ++i) {
    ASSERT_LT(i, ref.order.size());
    ASSERT_EQ(map.key_at(id), ref.order[i]);
    ASSERT_EQ(map.value_at(id), ref.map.at(ref.order[i]));
  }
  ASSERT_EQ(i, ref.order.size());
}

/// 100k+ mixed operations against the reference model, checking the full
/// mapping and the iteration order at regular intervals and at the end.
template <typename Hash>
void fuzz(std::uint64_t seed, int key_space, std::size_t operations) {
  Rng rng(seed);
  IntMap<Hash> map;
  Reference ref;
  std::uint64_t stamp = 0;

  for (std::size_t op = 0; op < operations; ++op) {
    const int key = static_cast<int>(rng.bounded(
        static_cast<std::uint64_t>(key_space)));
    switch (rng.bounded(8)) {
      case 0:
      case 1:
      case 2: {  // insert (no overwrite on duplicate — try_emplace contract)
        const auto [id, inserted] = map.try_emplace(key, ++stamp);
        ASSERT_EQ(inserted, ref.insert(key, stamp));
        ASSERT_EQ(map.key_at(id), key);
        ASSERT_EQ(map.value_at(id), ref.map.at(key));
        break;
      }
      case 3:
      case 4: {  // lookup
        const std::uint64_t* found = map.find(key);
        const auto it = ref.map.find(key);
        ASSERT_EQ(found != nullptr, it != ref.map.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(map.contains(key), it != ref.map.end());
        break;
      }
      case 5:
      case 6: {  // erase by key
        ASSERT_EQ(map.erase(key), ref.erase(key));
        ASSERT_FALSE(map.contains(key));
        break;
      }
      default: {  // erase when find_id sees the key, rare full clear
        if (rng.bounded(1024) == 0) {
          map.clear();
          ref.clear();
          ASSERT_TRUE(map.empty());
          break;
        }
        const auto id = map.find_id(key);
        if (id != IntMap<Hash>::npos) {
          ASSERT_TRUE(map.erase(key));
          ASSERT_TRUE(ref.erase(key));
        } else {
          ASSERT_EQ(ref.map.count(key), 0u);
        }
        break;
      }
    }
    if ((op & 0xFFF) == 0) check_against_reference(map, ref);
  }
  check_against_reference(map, ref);
}

TEST(FlatMap, FuzzAgainstUnorderedMapAndInsertionOrder) {
  fuzz<IntHash>(/*seed=*/1, /*key_space=*/2000, /*operations=*/120000);
}

TEST(FlatMap, FuzzSecondSeedSmallKeySpace) {
  // Tiny key space: constant churn on the same handful of buckets, so slot
  // recycling and backward shifts fire continuously.
  fuzz<IntHash>(/*seed=*/2, /*key_space=*/48, /*operations=*/120000);
}

TEST(FlatMap, FuzzAllKeysCollide) {
  // Constant hash: one probe chain holds the whole map. Correctness must
  // not depend on hash quality, only speed does.
  fuzz<ConstantHash>(/*seed=*/3, /*key_space=*/300, /*operations=*/100000);
}

TEST(FlatMap, InsertionOrderSurvivesGrowthAndRecycling) {
  IntMap<IntHash> map;
  for (int i = 0; i < 100; ++i) map.try_emplace(i, i * 10);
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(map.erase(i));
  for (int i = 100; i < 150; ++i) map.try_emplace(i, i * 10);

  std::vector<int> expected;
  for (int i = 1; i < 100; i += 2) expected.push_back(i);
  for (int i = 100; i < 150; ++i) expected.push_back(i);

  std::vector<int> got;
  for (auto id = map.first_id(); id != IntMap<IntHash>::npos;
       id = map.next_id(id))
    got.push_back(map.key_at(id));
  EXPECT_EQ(got, expected);
}

TEST(FlatMap, TryEmplaceReturnsExistingEntry) {
  IntMap<IntHash> map;
  const auto [id1, inserted1] = map.try_emplace(7, 70u);
  const auto [id2, inserted2] = map.try_emplace(7, 700u);
  EXPECT_TRUE(inserted1);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(map.value_at(id2), 70u);  // second value never constructed in
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ClearKeepsCapacityAndRefills) {
  IntMap<IntHash> map;
  map.reserve(1000);
  for (int i = 0; i < 1000; ++i) map.try_emplace(i, i);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.first_id(), IntMap<IntHash>::npos);
  for (int i = 0; i < 1000; ++i) map.try_emplace(i, i + 1);
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    const auto* v = map.find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<std::uint64_t>(i + 1));
  }
}

TEST(FlatMap, StringKeysHeterogeneousLookup) {
  struct Hash {
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };
  FlatMap<std::string, int, Hash, Eq> map;
  map.try_emplace(std::string_view("alpha"), 1);
  map.try_emplace(std::string_view("beta"), 2);
  // Probe with a string_view (no std::string constructed for the lookup).
  EXPECT_TRUE(map.contains(std::string_view("alpha")));
  const int* found = map.find(std::string_view("beta"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 2);
  EXPECT_FALSE(map.contains(std::string_view("gamma")));
  EXPECT_TRUE(map.erase(std::string_view("alpha")));
  EXPECT_FALSE(map.contains(std::string_view("alpha")));
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, FindIdStableAcrossOtherErases) {
  IntMap<IntHash> map;
  for (int i = 0; i < 32; ++i) map.try_emplace(i, i);
  const auto id = map.find_id(20);
  ASSERT_NE(id, IntMap<IntHash>::npos);
  for (int i = 0; i < 20; ++i) map.erase(i);
  // Ids are stable until *their* entry is erased — erases of other entries
  // (and the backward shifts they trigger) never move a live slot.
  EXPECT_EQ(map.find_id(20), id);
  EXPECT_EQ(map.key_at(id), 20);
}

}  // namespace
}  // namespace migopt
