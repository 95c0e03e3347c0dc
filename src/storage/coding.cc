#include "storage/coding.h"

#include <array>
#include <bit>
#include <cstring>

// The carry-less-multiply kernel is compiled whenever the target is
// x86-64 and SIMD is not disabled; whether it runs is decided once from
// CPUID, as for the posting kernels in core/simd_kernels.cc. The kernel
// carries a target attribute so the rest of the translation unit stays
// baseline x86-64.
#if defined(__x86_64__) && !defined(XO_DISABLE_SIMD)
#define XO_CRC_CLMUL 1
#include <immintrin.h>
#endif

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

/// Slicing-by-8 over `n` bytes: takes and returns the raw CRC register
/// (no initial value, no final XOR), so it can finish what the folding
/// kernel leaves.
uint32_t Crc32Table(uint32_t crc, const unsigned char* p, size_t n) {
  static const CrcTables kTables = BuildCrcTables();
  const auto& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return crc;
}

#ifdef XO_CRC_CLMUL

/// Inputs shorter than this go to the table loop: the folding kernel
/// needs four 16-byte lanes to start.
constexpr size_t kClmulMinBytes = 64;

// Folding constants for the reflected polynomial 0xEDB88320, from Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), all bit-reflected: k1, k2 = x^(4*128+32)
// and x^(4*128-32) mod P(x) fold a lane 64 bytes ahead; k3, k4 = the same
// for 16 bytes; k5 = x^64 mod P(x); then the Barrett pair, P(x) itself
// and u = floor(x^64 / P(x)).
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kBarrettU = 0x1f7011641;

__attribute__((target("pclmul"))) inline __m128i Fold(__m128i acc, __m128i k,
                                                      __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `n` bytes (n >= kClmulMinBytes, a multiple of 16) into the raw
/// CRC register: four 128-bit lanes advance 64 bytes per step, fold into
/// one, take the remaining 16-byte blocks, and reduce 128 -> 64 -> 32
/// bits, the last step by Barrett reduction.
__attribute__((target("pclmul"))) uint32_t Crc32Clmul(uint32_t crc,
                                                      const unsigned char* p,
                                                      size_t n) {
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load128(p));

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                                          _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction of the remaining 64 bits to the 32-bit register.
  const __m128i poly_u = _mm_set_epi64x(kBarrettU, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_u, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_u, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#endif  // XO_CRC_CLMUL

bool UseClmul() {
#ifdef XO_CRC_CLMUL
  static const bool use = __builtin_cpu_supports("pclmul");
  return use;
#else
  return false;
#endif
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
#ifdef XO_CRC_CLMUL
  if (n >= kClmulMinBytes && UseClmul()) {
    size_t folded = n & ~size_t{15};
    crc = Crc32Clmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return Crc32Table(crc, p, n) ^ 0xFFFFFFFFu;
}

std::string_view Crc32KernelName() { return UseClmul() ? "pclmul" : "table"; }

}  // namespace xontorank
