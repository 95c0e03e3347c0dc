#ifndef XONTORANK_STORAGE_CODING_H_
#define XONTORANK_STORAGE_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace xontorank {

/// Fixed-width little-endian primitives of the on-disk formats (MANIFEST,
/// .xoseg).

/// Appends a fixed 4-byte little-endian value.
void PutFixed32(std::string* dst, uint32_t value);

/// Cursor over encoded bytes. All Get* methods advance the cursor and
/// return false on truncation/overflow without advancing past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetFixed32(uint32_t* value);

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE polynomial) over `data`, used to detect index corruption.
/// On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes and more are folded
/// by carry-less multiplication; the slicing-by-8 table loop takes shorter
/// inputs, the tail, and every input elsewhere. Both compute the same
/// checksum.
uint32_t Crc32(std::string_view data);

/// "pclmul" or "table": the kernel Crc32 runs long inputs through in this
/// process (decided once, from CPUID) — for bench output.
std::string_view Crc32KernelName();

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_CODING_H_
