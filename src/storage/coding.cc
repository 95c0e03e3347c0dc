#include "storage/coding.h"

#include <array>
#include <bit>
#include <cstring>

namespace xontorank {

void PutFixed32(std::string* dst, uint32_t value) {
  dst->push_back(static_cast<char>(value & 0xff));
  dst->push_back(static_cast<char>((value >> 8) & 0xff));
  dst->push_back(static_cast<char>((value >> 16) & 0xff));
  dst->push_back(static_cast<char>((value >> 24) & 0xff));
}

bool Decoder::GetFixed32(uint32_t* value) {
  if (remaining() < 4) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  pos_ += 4;
  return true;
}

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is the
/// classic bytewise table, and table[k][b] is the CRC of byte b followed
/// by k zero bytes, so eight input bytes fold into the register with eight
/// independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

/// Little-endian load of four bytes at any alignment: callers pass any
/// string_view, not only the 64-byte aligned section payloads.
uint32_t LoadLe32(const unsigned char* p) {
  uint32_t value;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap32(value);
  }
  return value;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const CrcTables kTables = BuildCrcTables();
  const auto& t = kTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace xontorank
