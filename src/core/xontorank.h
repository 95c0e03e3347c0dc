#ifndef XONTORANK_CORE_XONTORANK_H_
#define XONTORANK_CORE_XONTORANK_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/index_builder.h"
#include "core/index_snapshot.h"
#include "core/index_writer.h"
#include "core/query_processor.h"
#include "core/search_api.h"
#include "onto/ontology.h"
#include "xml/corpus.h"
#include "xml/xml_node.h"

namespace xontorank {

/// The XOntoRank system facade: ontology-aware keyword search over a corpus
/// of XML EMR documents (§V architecture: preprocessing + query phase).
///
/// Typical use:
/// ```
///   Ontology onto = BuildSnomedCardiologyFragment();
///   std::vector<XmlDocument> corpus = ...;           // parse or generate
///   XOntoRank engine(std::move(corpus), onto, {});   // preprocessing phase
///   auto response =
///       engine.Search("\"bronchial structure\" theophylline", {.top_k = 10});
///   for (const QueryResult& r : response.results)
///     std::cout << engine.ResultFragmentXml(r) << "\n";
/// ```
///
/// The facade is a thin shell over two layers:
///   - an immutable IndexSnapshot, the read-optimized serving state,
///     published to readers through an atomic shared_ptr;
///   - an IndexWriter, the write/build path that batches new documents and
///     publishes a fresh snapshot per commit.
///
/// The ontologies are borrowed and must outlive the engine. Multiple
/// ontological systems (e.g. SNOMED CT + LOINC) can be registered by
/// passing an OntologySet; a bare Ontology converts implicitly.
///
/// Thread-safety: Search (and every other const accessor) is safe from any
/// number of threads and never blocks on writers — it acquires the current
/// snapshot with one atomic load and runs entirely against that immutable
/// state. AddDocument/StageDocument/Commit may run concurrently with
/// searches; they serialize among themselves on the writer path. A search
/// overlapping a commit sees either the full pre-commit or the full
/// post-commit index, never a torn state.
class XOntoRank {
 public:
  XOntoRank(Corpus corpus, OntologySet systems,
            IndexBuildOptions options = {});

  /// Convenience: wraps a freshly built document vector.
  XOntoRank(std::vector<XmlDocument> corpus, OntologySet systems,
            IndexBuildOptions options = {})
      : XOntoRank(Corpus(std::move(corpus)), std::move(systems), options) {}

  /// Adopts an externally built snapshot (the engine store's load path).
  explicit XOntoRank(std::shared_ptr<const IndexSnapshot> snapshot)
      : writer_(std::move(snapshot)) {}

  XOntoRank(const XOntoRank&) = delete;
  XOntoRank& operator=(const XOntoRank&) = delete;

  /// The unified query entry point: executes `query` under `options`
  /// (exhaustive or ranked, serial or sharded-parallel, cached or not)
  /// against the current snapshot and returns results plus execution
  /// stats. Lock-free on the hot path: one atomic snapshot load, then
  /// immutable state only. Invalid options (rdil with top_k == 0) yield an
  /// empty response. See SearchOptions for the knobs.
  SearchResponse Search(const KeywordQuery& query,
                        const SearchOptions& options) const;

  /// Convenience: parses `query_text` (quoted phrases supported) first.
  SearchResponse Search(std::string_view query_text,
                        const SearchOptions& options) const;

  /// Appends one document to the corpus and publishes a new snapshot; its
  /// doc id is assigned (its corpus position). Subsequent queries are
  /// identical to those of an engine freshly built over the full corpus.
  /// In-flight searches keep serving from the previous snapshot. Returns
  /// the assigned doc id.
  uint32_t AddDocument(XmlDocument doc);

  /// Batch ingestion: stages a document for the next Commit without
  /// publishing (the document is not yet searchable); returns its assigned
  /// doc id.
  uint32_t StageDocument(XmlDocument doc);

  /// Publishes one snapshot covering every staged document (no-op if none
  /// are staged): the batch seals as one new segment.
  void Commit();

  /// Runs the compaction policy to a fixed point on the calling thread
  /// (see IndexWriter::CompactNow).
  void CompactNow() { writer_.CompactNow(); }

  /// Blocks until no background compaction is in flight.
  void WaitForCompactionIdle() { writer_.WaitForCompactionIdle(); }

  /// The current serving snapshot — the safe way to get a stable view for
  /// a batch of related calls (resolve + serialize + explain) while
  /// writers may be publishing.
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    return writer_.snapshot();
  }

  /// The document a result belongs to. Documents are shared across
  /// snapshots, so the reference stays valid for the life of the engine.
  const XmlDocument& document(uint32_t doc_id) const {
    return snapshot()->document(doc_id);
  }
  size_t corpus_size() const { return snapshot()->corpus_size(); }

  /// Resolves a result to its XML element (the Database Access Module of
  /// Fig. 8); nullptr if the Dewey id does not address a node.
  const XmlNode* ResolveResult(const QueryResult& result) const;

  /// Serializes the result's XML fragment (e.g. Fig. 4), pretty-printed.
  std::string ResultFragmentXml(const QueryResult& result) const;

  /// The current snapshot's build statistics. NOTE: the reference is only
  /// guaranteed stable until the next AddDocument/Commit; callers
  /// overlapping with writers should hold snapshot() instead.
  const IndexBuildStats& build_stats() const {
    return snapshot()->build_stats();
  }

 private:
  IndexWriter writer_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_XONTORANK_H_
