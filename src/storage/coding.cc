#include "storage/coding.h"

#include <array>

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

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char c : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ c) & 0xff];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace xontorank
