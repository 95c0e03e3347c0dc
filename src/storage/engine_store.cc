#include "storage/engine_store.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"
#include "common/sync.h"
#include "core/index_segment.h"
#include "onto/ontology_io.h"
#include "storage/manifest.h"
#include "storage/segment_writer.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xontorank {

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << content;
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

/// Atomic variant (temp file + rename) for files whose partial content
/// must never be observable — the save sequence depends on manifest.tsv
/// being either the old or the new inventory, never a prefix.
Status WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp_path = path + ".tmp";
  XONTO_RETURN_IF_ERROR(WriteFile(tmp_path, content));
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path + " for reading");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a whole manifest.tsv field as a number. Malformed input is a
/// corrupt directory, reported as such rather than thrown.
template <typename T>
Status ParseField(std::string_view key, std::string_view field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::Corruption("manifest.tsv: malformed " + std::string(key) +
                              " value '" + std::string(field) + "'");
  }
  return Status::OK();
}

std::string_view VocabularyModeName(IndexBuildOptions::VocabularyMode mode) {
  switch (mode) {
    case IndexBuildOptions::VocabularyMode::kCorpusOnly:
      return "corpus";
    case IndexBuildOptions::VocabularyMode::kCorpusAndOntology:
      return "corpus+ontology";
    case IndexBuildOptions::VocabularyMode::kNone:
      return "none";
  }
  return "none";
}

/// Serializes whole-directory saves: SaveSnapshot writes many files plus a
/// manifest, and two saves racing into the same directory would interleave
/// their inventories. One process-wide lock (saves are rare, bulk I/O
/// bound) is simpler than per-directory tracking; it is acquired BEFORE
/// the segment and MANIFEST file locks taken inside SaveSegment and
/// SaveManifest — see DESIGN.md §9.
Mutex& SaveMutex() {
  // xo-lint: allow(new-delete) — leaked singleton, see above.
  static Mutex* mutex = new Mutex();
  return *mutex;
}

}  // namespace

Status SaveSnapshot(const IndexSnapshot& snapshot, const std::string& dir) {
  MutexLock lock(SaveMutex());
  std::error_code ec;
  std::filesystem::create_directories(dir + "/corpus", ec);
  if (ec) return Status::IoError("cannot create " + dir);

  const IndexBuildOptions& options = snapshot.options();
  const OntologySet& systems = snapshot.context()->systems();

  std::string manifest;
  manifest += "format\txontorank-engine\t1\n";
  manifest += StringPrintf("strategy\t%s\n",
                           std::string(StrategyName(options.strategy)).c_str());
  manifest += StringPrintf("decay\t%.17g\n", options.score.decay);
  manifest += StringPrintf("threshold\t%.17g\n", options.score.threshold);
  manifest += StringPrintf("omega\t%.17g\n", options.score.ontology_weight);
  manifest += StringPrintf("bm25_k1\t%.17g\n", options.score.bm25.k1);
  manifest += StringPrintf("bm25_b\t%.17g\n", options.score.bm25.b);
  manifest += StringPrintf("vocabulary\t%s\n",
                           std::string(VocabularyModeName(
                               options.vocabulary_mode)).c_str());
  manifest += StringPrintf("elem_rank\t%d\t%.17g\n",
                           options.use_elem_rank ? 1 : 0,
                           options.elem_rank_blend);
  // The marker names the segment-set layout (directories without it are
  // the retired single-index layout); the authoritative segment list
  // lives in the binary MANIFEST. The compaction knobs ride along so a
  // reloaded engine keeps the policy it was built with (notably
  // auto_compact, which tests disable for deterministic segment counts).
  manifest += StringPrintf("lsm\t1\t%zu\t%d\n",
                           options.lsm.compaction_fanin,
                           options.lsm.auto_compact ? 1 : 0);

  // Ontological systems.
  for (size_t s = 0; s < systems.size(); ++s) {
    std::string name = StringPrintf("ontology_%zu.tsv", s);
    XONTO_RETURN_IF_ERROR(SaveOntology(systems.system(s), dir + "/" + name));
    manifest += "ontology\t" + name + "\n";
  }

  // Corpus.
  for (size_t d = 0; d < snapshot.corpus_size(); ++d) {
    std::string name = StringPrintf("corpus/doc_%05zu.xml", d);
    XONTO_RETURN_IF_ERROR(WriteFile(
        dir + "/" + name,
        WriteXml(snapshot.document(static_cast<uint32_t>(d)))));
    manifest += "document\t" + name + "\n";
  }

  // Order is the crash-safety argument (DESIGN.md §15):
  //   1. every live segment file (atomic rename each; persists exactly the
  //      segment's serving FlatDil so a merged segment and a fresh-sealed
  //      one save byte-identically),
  //   2. manifest.tsv (atomic; the new doc inventory),
  //   3. the binary MANIFEST LAST (atomic; generation = prior + 1).
  // A crash anywhere before step 3 leaves the previous MANIFEST — and thus
  // the previous generation's fully consistent engine — loadable; the new
  // files are unreferenced garbage, collected on the next save.
  std::unordered_set<std::string> live_files;
  for (const auto& segment : snapshot.segments()) {
    std::string name = StringPrintf(
        "seg-%llu.xoseg", static_cast<unsigned long long>(segment->id()));
    XONTO_RETURN_IF_ERROR(
        SaveSegment(segment->index().flat_dil(), dir + "/" + name));
    live_files.insert(name);
  }
  XONTO_RETURN_IF_ERROR(WriteFileAtomic(dir + "/manifest.tsv", manifest));

  EngineManifest binary;
  binary.generation = 1;
  if (Result<EngineManifest> prior = LoadManifest(dir + "/MANIFEST");
      prior.ok()) {
    binary.generation = prior.value().generation + 1;
  }
  for (const auto& segment : snapshot.segments()) {
    binary.segments.push_back(ManifestSegment{
        segment->id(), segment->first_doc(), segment->end_doc()});
  }
  XONTO_RETURN_IF_ERROR(SaveManifest(binary, dir + "/MANIFEST"));

  // GC: segment files the new MANIFEST no longer references (compacted
  // inputs, interrupted earlier saves). Failure to unlink is harmless —
  // unreferenced files are ignored by load — so errors are not fatal.
  std::error_code gc_ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, gc_ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 &&
        name.size() > 6 && name.substr(name.size() - 6) == ".xoseg" &&
        live_files.count(name) == 0) {
      std::filesystem::remove(entry.path(), gc_ec);
    }
  }
  return Status::OK();
}

Status SaveEngineDir(const XOntoRank& engine, const std::string& dir) {
  return SaveSnapshot(*engine.snapshot(), dir);
}

Result<std::unique_ptr<LoadedEngine>> LoadEngineDir(const std::string& dir) {
  XONTO_ASSIGN_OR_RETURN(std::string manifest, ReadFile(dir + "/manifest.tsv"));

  auto loaded = std::make_unique<LoadedEngine>();
  IndexBuildOptions options;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  std::vector<std::string> document_files;
  // The retired single-index layout has an `index` line and no `lsm` line.
  bool single_index = false;
  bool segment_set = false;

  for (std::string_view line : SplitString(manifest, '\n')) {
    if (TrimWhitespace(line).empty()) continue;
    std::vector<std::string_view> fields = SplitString(line, '\t');
    std::string_view key = fields[0];
    if (key == "format") {
      if (fields.size() < 3 || fields[1] != "xontorank-engine") {
        return Status::Corruption("unrecognized engine manifest format");
      }
    } else if (key == "strategy" && fields.size() >= 2) {
      bool found = false;
      for (Strategy s : kAllStrategies) {
        if (fields[1] == StrategyName(s)) {
          options.strategy = s;
          found = true;
        }
      }
      if (!found) {
        return Status::Corruption("unknown strategy in manifest: " +
                                  std::string(fields[1]));
      }
    } else if (key == "decay" && fields.size() >= 2) {
      XONTO_RETURN_IF_ERROR(ParseField(key, fields[1], &options.score.decay));
    } else if (key == "threshold" && fields.size() >= 2) {
      XONTO_RETURN_IF_ERROR(
          ParseField(key, fields[1], &options.score.threshold));
    } else if (key == "omega" && fields.size() >= 2) {
      XONTO_RETURN_IF_ERROR(
          ParseField(key, fields[1], &options.score.ontology_weight));
    } else if (key == "bm25_k1" && fields.size() >= 2) {
      XONTO_RETURN_IF_ERROR(ParseField(key, fields[1], &options.score.bm25.k1));
    } else if (key == "bm25_b" && fields.size() >= 2) {
      XONTO_RETURN_IF_ERROR(ParseField(key, fields[1], &options.score.bm25.b));
    } else if (key == "elem_rank" && fields.size() >= 3) {
      options.use_elem_rank = fields[1] == "1";
      XONTO_RETURN_IF_ERROR(
          ParseField(key, fields[2], &options.elem_rank_blend));
    } else if (key == "ontology" && fields.size() >= 2) {
      XONTO_ASSIGN_OR_RETURN(Ontology onto,
                             LoadOntology(dir + "/" + std::string(fields[1])));
      loaded->ontologies_.push_back(
          std::make_unique<Ontology>(std::move(onto)));
    } else if (key == "document" && fields.size() >= 2) {
      document_files.emplace_back(fields[1]);
    } else if (key == "index") {
      single_index = true;
    } else if (key == "lsm" && fields.size() >= 2) {
      // lsm, 1, fanin, auto_compact. Older directories carry a fifth
      // field: a retired posting-tier base before auto_compact, ignored.
      segment_set = fields[1] == "1";
      if (fields.size() >= 4) {
        XONTO_RETURN_IF_ERROR(
            ParseField(key, fields[2], &options.lsm.compaction_fanin));
        options.lsm.auto_compact = fields[fields.size() >= 5 ? 4 : 3] == "1";
      }
    }
    // Unknown keys are ignored for forward compatibility.
  }

  if (loaded->ontologies_.empty()) {
    return Status::Corruption("manifest lists no ontologies");
  }
  if (document_files.empty()) {
    return Status::Corruption("manifest lists no documents");
  }
  if (single_index || !segment_set) {
    return Status::Corruption(
        "manifest.tsv describes the retired single-index layout "
        "(index.xodl / index.xoseg); rebuild the directory with "
        "save-engine");
  }

  // The binary MANIFEST is authoritative for how many of the listed
  // documents are committed — documents past the last segment's end are
  // leftovers of an interrupted save (the MANIFEST rename is the commit
  // point) and are deliberately ignored, restoring the previous
  // generation's state.
  XONTO_ASSIGN_OR_RETURN(EngineManifest binary,
                         LoadManifest(dir + "/MANIFEST"));
  size_t num_docs =
      binary.segments.empty() ? 0 : binary.segments.back().end_doc;
  if (num_docs > document_files.size()) {
    return Status::Corruption(
        "MANIFEST references more documents than the directory holds");
  }

  Corpus corpus;
  for (size_t d = 0; d < num_docs; ++d) {
    const std::string& name = document_files[d];
    XONTO_ASSIGN_OR_RETURN(std::string xml, ReadFile(dir + "/" + name));
    auto parsed = ParseXml(xml);
    if (!parsed.ok()) {
      return Status::Corruption(name + ": " + parsed.status().message());
    }
    XmlDocument doc = std::move(parsed).value();
    doc.set_doc_id(static_cast<uint32_t>(corpus.size()));
    corpus.Add(std::move(doc));
  }

  OntologySet systems;
  for (const auto& onto : loaded->ontologies_) systems.Add(*onto);

  auto context = OntologyContext::Create(systems, options);
  std::vector<std::shared_ptr<const IndexSegment>> segments;
  segments.reserve(binary.segments.size());
  for (const ManifestSegment& entry : binary.segments) {
    std::string path =
        dir + "/" +
        StringPrintf("seg-%llu.xoseg",
                     static_cast<unsigned long long>(entry.id));
    XONTO_ASSIGN_OR_RETURN(std::unique_ptr<SegmentFile> file,
                           SegmentFile::Open(path));
    FlatDil view = file->MakeView();
    std::shared_ptr<const void> backing(std::move(file));
    auto docs = std::make_shared<Corpus>();
    for (uint32_t d = entry.first_doc; d < entry.end_doc; ++d) {
      docs->Add(corpus.handle(d));
    }
    segments.push_back(IndexSegment::Adopt(entry.id, std::move(docs),
                                           entry.first_doc, context, options,
                                           std::move(view),
                                           std::move(backing)));
  }
  auto snapshot = std::make_shared<const IndexSnapshot>(
      std::move(corpus), std::move(context), options, std::move(segments));
  loaded->engine_ = std::make_unique<XOntoRank>(std::move(snapshot));
  return loaded;
}

}  // namespace xontorank
