// The project's one checksum: CRC-32 with the IEEE 802.3 polynomial
// (0xEDB88320, reflected), the variant zlib and Ethernet use. WAL
// records, snapshot files and wire frames all carry it.
//
// The implementation is slicing-by-8: eight 256-entry tables let one
// loop step fold eight input bytes, several times faster than the
// byte-at-a-time table walk while producing bit-identical output. It is
// portable C++ (no CPU-specific instructions); tests/common/crc32_test
// pins it against the byte-at-a-time reference at every length and
// alignment.
#pragma once

#include <cstdint>
#include <string_view>

namespace mps {

/// CRC-32 of `data`. Chainable: crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

}  // namespace mps
