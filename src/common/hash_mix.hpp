// Shared hash-combining primitives (sched::RunMemo, common::FlatMap and the
// FleetRouter's tenant-affinity hash).
#pragma once

#include <cstdint>
#include <cstring>

namespace migopt {

/// splitmix64-style combiner: cheap and well distributed for keys made of a
/// few words.
inline std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value) noexcept {
  std::uint64_t z =
      seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Bit pattern of a double for hashing, with -0.0 canonicalized to +0.0:
/// keys compare with IEEE == (where the two zeros are equal), so their
/// hashes must match too or the hash/equality contract breaks.
inline std::uint64_t hash_bits(double value) noexcept {
  if (value == 0.0) value = 0.0;  // collapses -0.0 onto +0.0
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

}  // namespace migopt
