#include "fuzz_util.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "storage/coding.h"
#include "storage/segment_format.h"

namespace xontorank::fuzz {

namespace {

uint32_t Rand(std::mt19937& rng, uint32_t bound) {
  return bound == 0 ? 0 : rng() % bound;
}

/// Values that tend to hit boundary conditions in length/count fields.
uint64_t InterestingU64(std::mt19937& rng) {
  static constexpr uint64_t kValues[] = {
      0,    1,          2,          0x7f,       0x80,
      0xff, 0x7fffffff, 0x80000000, 0xffffffff, 0x100000000ull,
      0xffffffffffffffffull};
  return kValues[Rand(rng, sizeof(kValues) / sizeof(kValues[0]))];
}

template <typename T>
T LoadAt(const uint8_t* data, size_t offset) {
  T v;
  std::memcpy(&v, data + offset, sizeof(T));
  return v;
}

template <typename T>
void StoreAt(uint8_t* data, size_t offset, T value) {
  std::memcpy(data + offset, &value, sizeof(T));
}

uint32_t CrcOver(const uint8_t* data, size_t offset, size_t bytes) {
  return Crc32(std::string_view(reinterpret_cast<const char*>(data) + offset,
                                bytes));
}

}  // namespace

size_t MutateBytes(uint8_t* data, size_t size, size_t max_size,
                   std::mt19937& rng) {
  if (max_size == 0) return 0;
  if (size == 0) {
    data[0] = static_cast<uint8_t>(rng());
    return 1;
  }
  size_t ops = 1 + Rand(rng, 4);
  for (size_t i = 0; i < ops; ++i) {
    switch (Rand(rng, 7)) {
      case 0: {  // bit flip
        data[Rand(rng, size)] ^= static_cast<uint8_t>(1u << Rand(rng, 8));
        break;
      }
      case 1: {  // random byte
        data[Rand(rng, size)] = static_cast<uint8_t>(rng());
        break;
      }
      case 2: {  // insert a byte
        if (size < max_size) {
          size_t at = Rand(rng, size + 1);
          std::memmove(data + at + 1, data + at, size - at);
          data[at] = static_cast<uint8_t>(rng());
          ++size;
        }
        break;
      }
      case 3: {  // erase a byte
        if (size > 1) {
          size_t at = Rand(rng, size);
          std::memmove(data + at, data + at + 1, size - at - 1);
          --size;
        }
        break;
      }
      case 4: {  // overwrite 8 bytes with an interesting value
        if (size >= 8) {
          StoreAt<uint64_t>(data, Rand(rng, size - 7), InterestingU64(rng));
        }
        break;
      }
      case 5: {  // duplicate a chunk toward the end
        size_t chunk = 1 + Rand(rng, 32);
        if (size >= chunk && size + chunk <= max_size) {
          size_t from = Rand(rng, size - chunk + 1);
          std::memmove(data + size, data + from, chunk);
          size += chunk;
        }
        break;
      }
      case 6: {  // truncate the tail
        if (size > 1) size -= 1 + Rand(rng, std::min<size_t>(size - 1, 64));
        break;
      }
    }
  }
  return size;
}

size_t MutateSegmentBytes(uint8_t* data, size_t size, size_t max_size,
                          std::mt19937& rng) {
  if (size < kSegmentMinBytes ||
      std::memcmp(data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return MutateBytes(data, size, max_size, rng);
  }
  size_t ops = 1 + Rand(rng, 3);
  for (size_t i = 0; i < ops; ++i) {
    switch (Rand(rng, 6)) {
      case 0: {  // bit-flip inside a section payload, maybe re-fix its CRC
        size_t s = Rand(rng, kSegmentSectionCount);
        size_t entry = kSegmentHeaderBytes + s * kSegmentTableEntryBytes;
        uint64_t off = LoadAt<uint64_t>(data, entry);
        uint64_t bytes = LoadAt<uint64_t>(data, entry + 8);
        if (bytes == 0 || off > size || bytes > size - off) break;
        data[off + Rand(rng, bytes)] ^= static_cast<uint8_t>(1u << Rand(rng, 8));
        if (Rand(rng, 2) == 0) {
          StoreAt<uint32_t>(data, entry + 16, CrcOver(data, off, bytes));
        }
        break;
      }
      case 1: {  // splice: swap two section-table entries wholesale
        size_t a = Rand(rng, kSegmentSectionCount);
        size_t b = Rand(rng, kSegmentSectionCount);
        uint8_t tmp[kSegmentTableEntryBytes];
        uint8_t* ea = data + kSegmentHeaderBytes + a * kSegmentTableEntryBytes;
        uint8_t* eb = data + kSegmentHeaderBytes + b * kSegmentTableEntryBytes;
        std::memcpy(tmp, ea, kSegmentTableEntryBytes);
        std::memcpy(ea, eb, kSegmentTableEntryBytes);
        std::memcpy(eb, tmp, kSegmentTableEntryBytes);
        break;
      }
      case 2: {  // resize a declared header count
        size_t field = 16 + 8 * Rand(rng, 3);  // keywords/postings/blocks
        uint64_t value = LoadAt<uint64_t>(data, field);
        switch (Rand(rng, 4)) {
          case 0: value += 1; break;
          case 1: value = value > 0 ? value - 1 : 0; break;
          case 2: value *= 2; break;
          default: value = InterestingU64(rng); break;
        }
        StoreAt<uint64_t>(data, field, value);
        break;
      }
      case 3: {  // tweak a table offset/length field
        size_t s = Rand(rng, kSegmentSectionCount);
        size_t entry = kSegmentHeaderBytes + s * kSegmentTableEntryBytes;
        size_t field = entry + 8 * Rand(rng, 2);
        uint64_t value = LoadAt<uint64_t>(data, field);
        switch (Rand(rng, 4)) {
          case 0: value += kSegmentAlign; break;
          case 1: value = value >= kSegmentAlign ? value - kSegmentAlign : 0; break;
          case 2: value = 0; break;
          default: value = InterestingU64(rng); break;
        }
        StoreAt<uint64_t>(data, field, value);
        break;
      }
      case 4: {  // hostile u32 in an offset-ish column, CRC re-fixed
        static constexpr size_t kU32Sections[] = {1, 2, 5, 7, 8};
        size_t s = kU32Sections[Rand(rng, 5)];
        size_t entry = kSegmentHeaderBytes + s * kSegmentTableEntryBytes;
        uint64_t off = LoadAt<uint64_t>(data, entry);
        uint64_t bytes = LoadAt<uint64_t>(data, entry + 8);
        if (bytes < 4 || off > size || bytes > size - off) break;
        size_t at = off + 4 * Rand(rng, bytes / 4);
        StoreAt<uint32_t>(data, at, static_cast<uint32_t>(InterestingU64(rng)));
        StoreAt<uint32_t>(data, entry + 16, CrcOver(data, off, bytes));
        break;
      }
      case 5: {  // truncate, keeping at least the metadata
        if (size > kSegmentMinBytes + 8) {
          size -= 1 + Rand(rng, static_cast<uint32_t>(
                                    std::min<size_t>(size - kSegmentMinBytes,
                                                     4096)));
        }
        break;
      }
    }
  }

  // Re-fix the metadata CRC most of the time so mutants survive the
  // footer gate and reach the structural validation; leave a fraction
  // broken to keep the CRC path itself exercised.
  if (size >= kSegmentMinBytes && Rand(rng, 10) != 0) {
    StoreAt<uint32_t>(data, size - 8, CrcOver(data, 0, kSegmentTableEnd));
    StoreAt<uint32_t>(data, size - 4, kSegmentFooterMagic);
  }
  return size;
}

}  // namespace xontorank::fuzz
