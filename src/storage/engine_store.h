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
///   <dir>/manifest.tsv        # options + file inventory
///   <dir>/ontology_<i>.tsv    # one per ontological system
///   <dir>/corpus/doc_<i>.xml  # the document collection
///   <dir>/seg-<id>.xoseg      # one mmap-native file per live segment
///   <dir>/MANIFEST            # CRC'd segment list; the commit point
/// ```
///
/// Loading reconstructs a fully owned engine: the corpus and ontologies are
/// parsed back, stage 1 is rebuilt per document (cheap and in-memory) and
/// each segment file is mapped and served in place, so stage 2+3 — the
/// expensive OntoScore work — is never repeated for persisted keywords.

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
/// published serving state. A directory in the retired single-index layout
/// (index.xodl / index.xoseg) yields Status::Corruption naming that layout.
[[nodiscard]] Result<std::unique_ptr<LoadedEngine>> LoadEngineDir(
    const std::string& dir);

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_ENGINE_STORE_H_
