#ifndef XONTORANK_STORAGE_ENGINE_STORE_H_
#define XONTORANK_STORAGE_ENGINE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/xontorank.h"
#include "onto/ontology.h"
#include "storage/segment_file.h"

namespace xontorank {

/// Whole-engine persistence: a self-contained directory holding everything
/// needed to answer queries (the paper's preprocessing/query phase split
/// made durable). Layout (DESIGN.md §15):
///
/// ```
///   <dir>/MANIFEST            # the one commit record: options, ontology
///                             # count, segment list (storage/manifest.h)
///   <dir>/ontology_<i>.tsv    # one per ontological system
///   <dir>/corpus/doc_<d>.xml  # the documents, d < last segment's end_doc
///   <dir>/seg-<id>.xoseg      # one mmap-native file per live segment
/// ```
///
/// Every file is written with WriteFileDurable (fsync, then rename), and
/// the MANIFEST is written last, after the directories are synced.
/// Loading reconstructs a fully owned engine: the corpus and ontologies are
/// parsed back and each segment file is mapped (its sections CRC-checked)
/// and served in place, so stage 2+3 — the expensive OntoScore work — is
/// never repeated for persisted keywords. Stage 1 is deferred per segment
/// to its first use (a demand-built list, explain, a merge, build stats).

/// A loaded engine owning all of its parts.
class LoadedEngine {
 public:
  XOntoRank& engine() { return *engine_; }
  const XOntoRank& engine() const { return *engine_; }

  const std::vector<std::unique_ptr<Ontology>>& ontologies() const {
    return ontologies_;
  }

 private:
  friend Result<std::unique_ptr<LoadedEngine>> LoadEngineDir(
      const std::string& dir);

  std::vector<std::unique_ptr<Ontology>> ontologies_;
  std::unique_ptr<XOntoRank> engine_;
};

/// Persists one immutable serving snapshot (its corpus, its systems, its
/// segments' lists and its options) into `dir`, creating it if needed.
/// Because a snapshot is frozen, the saved state is consistent even while
/// writers keep committing to the engine it came from.
[[nodiscard]] Status SaveSnapshot(const IndexSnapshot& snapshot,
                                  const std::string& dir);

/// Convenience: saves `engine`'s currently published snapshot.
[[nodiscard]] Status SaveEngineDir(const XOntoRank& engine,
                                   const std::string& dir);

/// Restores an engine saved with SaveEngineDir/SaveSnapshot: the corpus and
/// ontologies are parsed back, a snapshot is constructed directly around the
/// mapped segment files (so stage 2+3 — the expensive OntoScore work — is
/// never repeated for persisted keywords), and the engine adopts it as its
/// published serving state. The saved options, vocabulary mode included,
/// govern the segments later commits seal. Segment opens and document
/// parses run in one pass on ThreadPool::Shared(); a failing load still
/// returns the error a serial load would meet first (ontologies, then the
/// first failing document by index, then the first failing segment in
/// MANIFEST order). A directory in a retired layout
/// (a version-1 MANIFEST, or none beside the old text record) yields
/// Status::Corruption naming that layout.
[[nodiscard]] Result<std::unique_ptr<LoadedEngine>> LoadEngineDir(
    const std::string& dir);

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_ENGINE_STORE_H_
