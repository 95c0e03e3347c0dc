#include "storage/coding.h"

#include "common/random.h"
#include "gtest/gtest.h"

namespace xontorank {
namespace {

// ---- Coding primitives ----

TEST(FixedTest, RoundTrips) {
  std::string buffer;
  PutFixed32(&buffer, 0xdeadbeef);
  ASSERT_EQ(buffer.size(), 4u);
  Decoder dec(buffer);
  uint32_t out = 0;
  ASSERT_TRUE(dec.GetFixed32(&out));
  EXPECT_EQ(out, 0xdeadbeef);
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

/// The definition: one bit at a time through the reflected IEEE
/// polynomial, with the standard initial value and final XOR.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..257 cover the empty input, tails of every size after the
  // eight-byte steps, and several full steps; offsets 0..7 put the first
  // byte at every alignment of a word.
  Rng rng(2009);
  std::string buffer(8 + 257, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextBelow(256));
  const std::string_view all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      std::string_view data = all.substr(offset, length);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace xontorank
