// Software prefetch hint for the replay's strided reads.
//
// A fleet shard replays every Nth event of the shared fleet trace, so each
// event it reads sits on cache lines nothing touched recently and the
// hardware prefetcher cannot guess the stride (it is data-dependent). The
// shard already knows its next steps, though: prefetching a fixed distance
// ahead overlaps those misses with the event loop's work instead of
// stalling on each one. A hint only — it never faults, never changes a
// result, and compiles to nothing where the builtin is missing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace migopt {

/// Cache-line size assumed by prefetch_read (x86-64 and most AArch64).
inline constexpr std::size_t kCacheLineBytes = 64;

#if defined(__GNUC__) || defined(__clang__)
/// Ask for every cache line of [address, address + bytes) to be loaded for
/// reading. `bytes` must be >= 1. Always inlined: GCC 12 at -O2 found an
/// out-of-line call to a prefetch-only function free of side effects and
/// deleted it as dead code, so the builtin has to land in the caller.
[[gnu::always_inline]] inline void prefetch_read(const void* address,
                                                 std::size_t bytes) noexcept {
  const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(address);
  const std::uintptr_t last = (begin + bytes - 1) & ~(kCacheLineBytes - 1);
  for (std::uintptr_t line = begin & ~(kCacheLineBytes - 1); line <= last;
       line += kCacheLineBytes)
    __builtin_prefetch(reinterpret_cast<const void*>(line), 0, 3);
}
#else
inline void prefetch_read(const void*, std::size_t) noexcept {}
#endif

}  // namespace migopt
