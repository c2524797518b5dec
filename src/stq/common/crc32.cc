#include "stq/common/crc32.h"

#include <array>

#include "stq/storage/coding.h"

namespace stq {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const char*>(data);
  crc = ~crc;
  // Words are loaded with the explicit little-endian decode, so the
  // result does not depend on the host's byte order or alignment.
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = DecodeFixed32(p) ^ crc;
    const uint32_t hi = DecodeFixed32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF] ^
          (crc >> 8);
  }
  return ~crc;
}

}  // namespace stq
