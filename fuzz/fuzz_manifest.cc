// Harness: the engine-dir MANIFEST (storage/manifest.h), the one commit
// record of every save. DecodeManifest must answer every byte string
// with a Status or a manifest upholding the invariants load depends on:
// generation >= 1, at least one ontology, enum codes in range, finite
// doubles, entries tiling [0, N) contiguously with non-empty ranges,
// segment ids unique. A successful decode must re-encode byte-identically
// (the format is canonical: fixed-width fields, raw IEEE doubles, no
// padding, one CRC).

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/check.h"
#include "fuzz_target.h"
#include "fuzz_util.h"
#include "storage/coding.h"
#include "storage/manifest.h"

namespace {

// The decoder rejects any size mismatch up front and the entry width is
// 16 bytes, so large inputs add nothing; cap well above any real
// manifest.
constexpr size_t kMaxInput = size_t{1} << 20;

void CheckInvariants(const xontorank::EngineManifest& m) {
  using xontorank::IndexBuildOptions;
  XO_CHECK(m.generation >= 1);
  XO_CHECK(m.ontology_count >= 1);
  const IndexBuildOptions& o = m.options;
  XO_CHECK(static_cast<uint32_t>(o.strategy) <
           std::size(xontorank::kAllStrategies));
  XO_CHECK(static_cast<uint32_t>(o.vocabulary_mode) <=
           static_cast<uint32_t>(IndexBuildOptions::VocabularyMode::kNone));
  for (double value : {o.score.decay, o.score.threshold,
                       o.score.ontology_weight, o.score.bm25.k1,
                       o.score.bm25.b, o.elem_rank_blend}) {
    XO_CHECK(std::isfinite(value));
  }
  std::unordered_set<uint64_t> ids;
  uint32_t expect = 0;
  for (const xontorank::ManifestSegment& s : m.segments) {
    XO_CHECK_EQ(s.first_doc, expect);
    XO_CHECK(s.end_doc > s.first_doc);
    XO_CHECK(ids.insert(s.id).second);
    expect = s.end_doc;
  }
}

}  // namespace

/// Structure-aware mutation: byte-level noise, then (usually) re-sign the
/// trailing CRC so mutants with hostile generations/counts/ranges survive
/// the integrity gate and reach the semantic validation itself.
extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size,
                                          unsigned int seed) {
  std::mt19937 rng(seed);
  size = xontorank::fuzz::MutateBytes(data, size, max_size, rng);
  if (size >= 8 && std::memcmp(data, "XOMF", 4) == 0 && rng() % 10 != 0) {
    uint32_t crc = xontorank::Crc32(std::string_view(
        reinterpret_cast<const char*>(data), size - 4));
    std::memcpy(data + size - 4, &crc, sizeof(crc));
  }
  return size;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);

  auto decoded = xontorank::DecodeManifest(input);
  if (!decoded.ok()) return 0;

  CheckInvariants(*decoded);

  // Canonical format: whatever decodes must be exactly what we would
  // write, byte for byte — there is no second representation a hostile
  // writer could smuggle through the decoder.
  std::string encoded = xontorank::EncodeManifest(*decoded);
  XO_CHECK_EQ(encoded.size(), input.size());
  XO_CHECK_EQ(std::memcmp(encoded.data(), input.data(), input.size()), 0);

  auto again = xontorank::DecodeManifest(encoded);
  XO_CHECK(again.ok());
  XO_CHECK_EQ(again->generation, decoded->generation);
  XO_CHECK_EQ(again->ontology_count, decoded->ontology_count);
  XO_CHECK_EQ(again->segments.size(), decoded->segments.size());
  return 0;
}
