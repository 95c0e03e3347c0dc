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

}  // namespace
}  // namespace xontorank
