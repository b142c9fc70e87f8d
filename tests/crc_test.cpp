// CRC-32C known-answer tests. The KV durability tier writes and verifies its
// checksums with the same crc32c(), so a wrong but self-consistent CRC would
// pass every durability test; these pin the function to the RFC 3720
// vectors, check seed chaining, and hold the run-time path (SSE4.2 where
// the host has it) byte-identical to the portable table walk.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc.hpp"
#include "common/rng.hpp"

namespace snacc {
namespace {

constexpr std::array<std::byte, 32> pattern(int first, int step) {
  std::array<std::byte, 32> a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::byte>(first + step * static_cast<int>(i));
  }
  return a;
}

constexpr std::array<std::byte, 9> kCheckString = {
    std::byte{'1'}, std::byte{'2'}, std::byte{'3'}, std::byte{'4'},
    std::byte{'5'}, std::byte{'6'}, std::byte{'7'}, std::byte{'8'},
    std::byte{'9'}};

// RFC 3720 appendix B.4 plus the standard "123456789" check value.
struct KnownAnswer {
  std::array<std::byte, 32> data;
  std::uint32_t crc;
};
constexpr std::array<KnownAnswer, 4> kRfc3720 = {{
    {pattern(0x00, 0), 0x8A91'36AAu},   // 32 x 0x00
    {pattern(0xFF, 0), 0x62A8'AB43u},   // 32 x 0xFF
    {pattern(0, 1), 0x46DD'794Eu},      // 0x00, 0x01, ..., 0x1F
    {pattern(31, -1), 0x113F'DB5Cu},    // 0x1F, 0x1E, ..., 0x00
}};

// crc32c must stay usable in constant expressions (the table path).
static_assert(crc32c(kCheckString) == 0xE306'9283u);
static_assert(crc32c(kRfc3720[2].data) == 0x46DD'794Eu);
static_assert(crc32c(std::span<const std::byte>{}) == 0u);

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xFF);
  return v;
}

TEST(Crc32c, CheckStringMatchesStandardValue) {
  EXPECT_EQ(crc32c(kCheckString), 0xE306'9283u);
  EXPECT_EQ(detail::crc32c_table(kCheckString), 0xE306'9283u);
}

TEST(Crc32c, Rfc3720Vectors) {
  for (const KnownAnswer& ka : kRfc3720) {
    EXPECT_EQ(crc32c(ka.data), ka.crc);
    EXPECT_EQ(detail::crc32c_table(ka.data), ka.crc);
  }
}

TEST(Crc32c, ChainedSeedEqualsOneShotOfConcatenation) {
  const std::vector<std::byte> buf = random_bytes(10'000, 17);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = crc32c(all);
  for (std::size_t cut : {0u, 1u, 7u, 8u, 9u, 4096u, 9'999u, 10'000u}) {
    EXPECT_EQ(crc32c(all.subspan(cut), crc32c(all.subspan(0, cut))), whole)
        << "cut at " << cut;
  }
  // Three pieces, the header-CRC pattern of KvStore.
  EXPECT_EQ(crc32c(all.subspan(36), crc32c(all.subspan(28, 8),
                                           crc32c(all.subspan(0, 28)))),
            whole);
}

TEST(Crc32c, RunTimePathMatchesTableOnEveryOffsetAndTail) {
  // Every start offset 0-7, every length up to 4 KiB plus a byte or two
  // (all word counts and tails a short record sees), then lengths up to
  // 70 000 by an odd stride so every tail length recurs, plus the ends of
  // the range. Checking every length to 70 000 costs minutes under TSan.
  constexpr std::size_t kMaxLen = 70'000;
  constexpr std::size_t kOffsets = 8;
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 4'100; ++len) lengths.push_back(len);
  for (std::size_t len = 4'101; len < kMaxLen; len += 509) lengths.push_back(len);
  for (std::size_t len : {65'535u, 65'536u, 65'537u, 69'999u, 70'000u}) {
    lengths.push_back(len);
  }
  const std::vector<std::byte> buf = random_bytes(kMaxLen + kOffsets, 29);
  for (std::size_t off = 0; off < kOffsets; ++off) {
    const std::span<const std::byte> tail =
        std::span<const std::byte>(buf).subspan(off);
    for (const std::size_t len : lengths) {
      const std::span<const std::byte> data = tail.subspan(0, len);
      ASSERT_EQ(crc32c(data), detail::crc32c_table(data))
          << "offset " << off << " length " << len;
    }
  }
}

}  // namespace
}  // namespace snacc
