// CRC-32C (Castagnoli) for on-device record integrity.
//
// The durability tier stores a checksum in every WAL record header (and over
// the record's value bytes) so recovery can tell a committed record from a
// torn or stale one (docs/DURABILITY.md). Every real value byte a KvStore
// puts or recovers is checksummed on the host side of the model, so the
// checksum runs at hardware speed where it can:
//
//  - on x86-64 hosts with SSE4.2, crc32c() uses the `crc32` instruction,
//    eight bytes per step. The instruction lives in one function compiled
//    with `target("sse4.2")` and is picked at run time, once, by a CPU
//    feature check -- no global -msse4.2, so the binary runs on any x86-64;
//  - everywhere else, and whenever crc32c() is constant-evaluated, a
//    byte-at-a-time table walk computes the same value.
//
// Both paths are bit-identical (tests/crc_test.cpp checks them against the
// RFC 3720 vectors and against each other).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace snacc {

namespace detail {

inline constexpr std::uint32_t kCrc32cPoly = 0x82F6'3B78u;  // reflected

inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// Portable table walk; the reference every other path must match.
inline constexpr std::uint32_t crc32c_table(std::span<const std::byte> data,
                                            std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^
          kCrc32cTable[(crc ^ static_cast<std::uint32_t>(b)) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` path. Call only when has_sse42() is true.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, static_cast<std::uint8_t>(*p));
  }
  return ~crc32;
}

inline bool has_sse42() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}
#endif

}  // namespace detail

/// One-shot CRC-32C over a byte span. Chains: crc32c(b, crc32c(a)) equals
/// the CRC of a followed by b.
inline constexpr std::uint32_t crc32c(std::span<const std::byte> data,
                                      std::uint32_t seed = 0) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated() && detail::has_sse42()) {
    return detail::crc32c_sse42(data, seed);
  }
#endif
  return detail::crc32c_table(data, seed);
}

}  // namespace snacc
