// The slicing-by-8 CRC-32 against the byte-at-a-time table walk it
// replaced. Every WAL record, snapshot file and wire frame carries this
// checksum, so the fast path must agree with the definition bit for bit
// at every length (including the < 8-byte tails the block loop leaves),
// every start alignment and every chaining seed.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/rng.h"

namespace mps {
namespace {

/// The byte-at-a-time reference (IEEE 802.3 polynomial, reflected).
std::uint32_t reference_crc32(std::string_view data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  // The catalogued check value of CRC-32/ISO-HDLC.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesByteAtATimeReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 2000;
  Rng rng(20261017);
  std::string buf(kMaxLen + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.uniform_int(0, 255));
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    // Aligned, then an unaligned start that cycles through all seven
    // misalignments as the length grows.
    for (std::size_t offset : {std::size_t{0}, 1 + len % 7}) {
      std::string_view data(buf.data() + offset, len);
      auto seed = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFll));
      ASSERT_EQ(crc32(data), reference_crc32(data, 0))
          << "len " << len << " offset " << offset;
      ASSERT_EQ(crc32(data, seed), reference_crc32(data, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
  }
}

TEST(Crc32, ChainsAcrossEverySplitPoint) {
  const std::string text = "the quick brown fox jumps over the lazy dog!";
  const std::uint32_t whole = crc32(text);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    std::string_view head = std::string_view(text).substr(0, cut);
    std::string_view tail = std::string_view(text).substr(cut);
    EXPECT_EQ(crc32(tail, crc32(head)), whole) << "cut " << cut;
  }
}

}  // namespace
}  // namespace mps
