#include "common/checksum.h"

#include <array>

#include "common/byte_codec.h"

namespace neutraj {

namespace {

// Slicing-by-8: kTables[0] is the classic bytewise table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the CRC over eight input bytes at once. Same polynomial, same
// output as the bytewise loop.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const CrcTables kTables = MakeCrcTables();
  const auto* bytes = static_cast<const char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe<uint32_t>(bytes);
    const uint32_t hi = LoadLe<uint32_t>(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ static_cast<unsigned char>(*bytes)) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace neutraj
