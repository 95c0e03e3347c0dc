#include "storage/engine_store.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <unordered_set>

#include "common/file_io.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/index_segment.h"
#include "onto/ontology_io.h"
#include "storage/manifest.h"
#include "storage/segment_writer.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xontorank {

namespace {

std::string OntologyFileName(size_t system) {
  return StringPrintf("ontology_%zu.tsv", system);
}

std::string DocumentFileName(size_t doc) {
  return StringPrintf("corpus/doc_%05zu.xml", doc);
}

/// Serializes whole-directory saves: SaveSnapshot writes many files plus a
/// manifest, and two saves racing into the same directory would interleave
/// them. One process-wide lock (saves are rare, bulk I/O bound) is simpler
/// than per-directory tracking; it is acquired BEFORE the file lock taken
/// inside WriteFileDurable — see DESIGN.md §9.
Mutex& SaveMutex() {
  // xo-lint: allow(new-delete) — leaked singleton, see above.
  static Mutex* mutex = new Mutex();
  return *mutex;
}

/// Reads and parses one committed document; the document keeps the
/// file's buffer as its source text.
Status ReadDocument(const std::string& path, XmlDocument* doc) {
  XONTO_ASSIGN_OR_RETURN(std::string xml, ReadFile(path));
  auto parsed = ParseXml(std::move(xml));
  if (!parsed.ok()) {
    return Status::Corruption(path + ": " + parsed.status().message());
  }
  *doc = std::move(parsed).value();
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const IndexSnapshot& snapshot, const std::string& dir) {
  MutexLock lock(SaveMutex());
  std::error_code ec;
  std::filesystem::create_directories(dir + "/corpus", ec);
  if (ec) return Status::IoError("cannot create " + dir);

  const OntologySet& systems = snapshot.context()->systems();
  EngineManifest manifest;
  manifest.generation = 1;
  if (Result<EngineManifest> prior = LoadManifest(dir + "/MANIFEST");
      prior.ok()) {
    manifest.generation = prior.value().generation + 1;
  }
  manifest.ontology_count = static_cast<uint32_t>(systems.size());
  manifest.options = snapshot.options();

  // Order is the crash-safety argument (DESIGN.md §15):
  //   1. every live segment file (persists exactly the segment's serving
  //      FlatDil, so a merged segment and a fresh-sealed one save
  //      byte-identically), the ontologies and the documents, each
  //      written durably under its final name;
  //   2. fsync corpus/ and the directory, so those names are durable;
  //   3. the MANIFEST LAST (generation = prior + 1), then fsync the
  //      directory again to make its rename durable.
  // A crash or failure anywhere before step 3's rename leaves the
  // previous MANIFEST — and thus the previous generation's fully
  // consistent engine — loadable: when the engine that saved it saves
  // again, every file it names is either untouched or replaced whole by
  // the same bytes (a segment id names one immutable segment; ontologies
  // and committed documents do not change). New segment files are
  // unreferenced garbage, collected on the next save.
  std::unordered_set<std::string> live_files;
  for (const auto& segment : snapshot.segments()) {
    std::string name = SegmentFileName(segment->id());
    XONTO_RETURN_IF_ERROR(
        SaveSegment(segment->index().flat_dil(), dir + "/" + name));
    live_files.insert(name);
    manifest.segments.push_back(ManifestSegment{
        segment->id(), segment->first_doc(), segment->end_doc()});
  }
  for (size_t s = 0; s < systems.size(); ++s) {
    XONTO_RETURN_IF_ERROR(
        SaveOntology(systems.system(s), dir + "/" + OntologyFileName(s)));
  }
  for (size_t d = 0; d < snapshot.corpus_size(); ++d) {
    XONTO_RETURN_IF_ERROR(WriteFileDurable(
        dir + "/" + DocumentFileName(d),
        WriteXml(snapshot.document(static_cast<uint32_t>(d)))));
  }
  XONTO_RETURN_IF_ERROR(SyncDirectory(dir + "/corpus"));
  XONTO_RETURN_IF_ERROR(SyncDirectory(dir));
  XONTO_RETURN_IF_ERROR(SaveManifest(manifest, dir + "/MANIFEST"));
  XONTO_RETURN_IF_ERROR(SyncDirectory(dir));

  // GC: segment files the new MANIFEST no longer references (compacted
  // inputs, interrupted earlier saves). Failure to unlink is harmless —
  // unreferenced files are ignored by load — so errors are not fatal.
  std::error_code gc_ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, gc_ec)) {
    std::string name = entry.path().filename().string();
    if (IsSegmentFileName(name) && live_files.count(name) == 0) {
      std::filesystem::remove(entry.path(), gc_ec);
    }
  }
  return Status::OK();
}

Status SaveEngineDir(const XOntoRank& engine, const std::string& dir) {
  return SaveSnapshot(*engine.snapshot(), dir);
}

Result<std::unique_ptr<LoadedEngine>> LoadEngineDir(const std::string& dir) {
  Result<EngineManifest> read = LoadManifest(dir + "/MANIFEST");
  if (!read.ok()) {
    // The retired layout's text record without a binary MANIFEST.
    if (read.status().code() == StatusCode::kIoError &&
        std::filesystem::exists(dir + "/manifest.tsv")) {
      return RetiredLayoutError(dir);
    }
    return read.status();
  }
  const EngineManifest& manifest = read.value();
  // The saved options, vocabulary mode included, govern the segments
  // later commits seal; the loaded segments adopt their saved lists.
  const IndexBuildOptions& options = manifest.options;

  auto loaded = std::make_unique<LoadedEngine>();
  for (uint32_t s = 0; s < manifest.ontology_count; ++s) {
    XONTO_ASSIGN_OR_RETURN(Ontology onto,
                           LoadOntology(dir + "/" + OntologyFileName(s)));
    loaded->ontologies_.push_back(std::make_unique<Ontology>(std::move(onto)));
  }

  // The MANIFEST is authoritative for how many documents are committed:
  // documents past the last segment's end are leftovers of an interrupted
  // save (the MANIFEST rename is the commit point) and are deliberately
  // ignored, restoring the previous generation's state.
  const size_t num_docs =
      manifest.segments.empty() ? 0 : manifest.segments.back().end_doc;
  const size_t num_segments = manifest.segments.size();

  // One parallel pass over the independent I/O-and-verify work: every
  // segment's open (mapping, validation, CRC pass) and every document's
  // read and parse. Segments are claimed first, those with the most
  // documents (the most bytes to verify) first, so the longest tasks do
  // not start last. Each task writes only its own slots. Documents go in
  // windows of kLoadWindow, so a MANIFEST claiming more documents than
  // the directory holds sizes nothing by its claim: the window holding
  // the first missing file ends the load.
  constexpr size_t kLoadWindow = 4096;
  std::vector<size_t> segment_order(num_segments);
  std::iota(segment_order.begin(), segment_order.end(), size_t{0});
  std::stable_sort(segment_order.begin(), segment_order.end(),
                   [&](size_t a, size_t b) {
                     const ManifestSegment& x = manifest.segments[a];
                     const ManifestSegment& y = manifest.segments[b];
                     return x.end_doc - x.first_doc > y.end_doc - y.first_doc;
                   });
  std::vector<Result<std::shared_ptr<const SegmentFile>>> files(
      num_segments, Status::Internal("segment not opened"));
  Corpus corpus;
  for (size_t begin = 0; begin < num_docs; begin += kLoadWindow) {
    const size_t count = std::min(kLoadWindow, num_docs - begin);
    const size_t opens = begin == 0 ? num_segments : 0;
    std::vector<XmlDocument> documents(count);
    std::vector<Status> document_status(count);
    ThreadPool::Shared().ParallelFor(opens + count, [&](size_t task) {
      if (task < opens) {
        const size_t s = segment_order[task];
        files[s] = SegmentFile::Open(dir + "/" +
                                     SegmentFileName(manifest.segments[s].id));
      } else {
        const size_t i = task - opens;
        document_status[i] = ReadDocument(
            dir + "/" + DocumentFileName(begin + i), &documents[i]);
      }
    });
    // A failing load reports what a serial load would meet first: the
    // first failing document in index order, then (below) the first
    // failing segment in MANIFEST order.
    for (size_t i = 0; i < count; ++i) {
      XONTO_RETURN_IF_ERROR(document_status[i]);
      documents[i].set_doc_id(static_cast<uint32_t>(corpus.size()));
      corpus.Add(std::move(documents[i]));
    }
  }
  for (const auto& file : files) XONTO_RETURN_IF_ERROR(file.status());

  OntologySet systems;
  for (const auto& onto : loaded->ontologies_) systems.Add(*onto);

  auto context = OntologyContext::Create(systems, options);
  std::vector<std::shared_ptr<const IndexSegment>> segments;
  segments.reserve(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    const ManifestSegment& entry = manifest.segments[s];
    auto docs = std::make_shared<Corpus>();
    for (uint32_t d = entry.first_doc; d < entry.end_doc; ++d) {
      docs->Add(corpus.handle(d));
    }
    segments.push_back(IndexSegment::Adopt(entry.id, std::move(docs),
                                           entry.first_doc, context, options,
                                           files[s].value()->MakeView()));
  }
  auto snapshot = std::make_shared<const IndexSnapshot>(
      std::move(corpus), std::move(context), options, std::move(segments));
  loaded->engine_ = std::make_unique<XOntoRank>(std::move(snapshot));
  return loaded;
}

}  // namespace xontorank
