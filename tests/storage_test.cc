#include "storage/coding.h"

#include "common/random.h"
#include "gtest/gtest.h"

namespace xontorank {
namespace {

// ---- Coding primitives ----

class VarintTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintTest, RoundTrips64) {
  std::string buffer;
  PutVarint64(&buffer, GetParam());
  Decoder dec(buffer);
  uint64_t value = 0;
  ASSERT_TRUE(dec.GetVarint64(&value));
  EXPECT_EQ(value, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintTest,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, UINT64_MAX));

TEST(VarintTest, RoundTrips32) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 1u << 20, UINT32_MAX}) {
    std::string buffer;
    PutVarint32(&buffer, v);
    Decoder dec(buffer);
    uint32_t out = 0;
    ASSERT_TRUE(dec.GetVarint32(&out));
    EXPECT_EQ(out, v);
  }
}

TEST(VarintTest, Get32RejectsOversizedValue) {
  std::string buffer;
  PutVarint64(&buffer, static_cast<uint64_t>(UINT32_MAX) + 1);
  Decoder dec(buffer);
  uint32_t out = 0;
  EXPECT_FALSE(dec.GetVarint32(&out));
  EXPECT_EQ(dec.position(), 0u);  // cursor restored
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint64(&buffer, 1ULL << 40);
  buffer.resize(buffer.size() - 1);
  Decoder dec(buffer);
  uint64_t out = 0;
  EXPECT_FALSE(dec.GetVarint64(&out));
}

TEST(FixedTest, RoundTrips) {
  std::string buffer;
  PutFixed32(&buffer, 0xdeadbeef);
  ASSERT_EQ(buffer.size(), 4u);
  Decoder dec(buffer);
  uint32_t out = 0;
  ASSERT_TRUE(dec.GetFixed32(&out));
  EXPECT_EQ(out, 0xdeadbeef);
}

TEST(LengthPrefixedTest, RoundTrips) {
  std::string buffer;
  PutLengthPrefixed(&buffer, "hello world");
  PutLengthPrefixed(&buffer, "");
  Decoder dec(buffer);
  std::string_view a, b;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  EXPECT_EQ(a, "hello world");
  EXPECT_EQ(b, "");
}

TEST(LengthPrefixedTest, LengthBeyondBufferFails) {
  std::string buffer;
  PutVarint64(&buffer, 100);  // claims 100 bytes
  buffer += "short";
  Decoder dec(buffer);
  std::string_view out;
  EXPECT_FALSE(dec.GetLengthPrefixed(&out));
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

}  // namespace
}  // namespace xontorank
