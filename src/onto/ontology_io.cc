#include "onto/ontology_io.h"

#include "common/file_io.h"
#include "common/string_util.h"

namespace xontorank {

namespace {

Status LineError(size_t line_number, std::string_view what) {
  return Status::ParseError(StringPrintf("line %zu: %.*s", line_number,
                                         static_cast<int>(what.size()),
                                         what.data()));
}

}  // namespace

std::string WriteOntologyText(const Ontology& ontology) {
  std::string out;
  out += "#ontology\t" + ontology.system_id() + "\t" + ontology.name() + "\n";
  for (ConceptId c = 0; c < ontology.concept_count(); ++c) {
    const Concept& concept_row = ontology.GetConcept(c);
    out += "C\t" + concept_row.code + "\t" + concept_row.preferred_term;
    for (const std::string& syn : concept_row.synonyms) {
      out += "\t" + syn;
    }
    out += "\n";
  }
  for (ConceptId c = 0; c < ontology.concept_count(); ++c) {
    for (ConceptId parent : ontology.Parents(c)) {
      out += "I\t" + ontology.GetConcept(c).code + "\t" +
             ontology.GetConcept(parent).code + "\n";
    }
  }
  for (ConceptId c = 0; c < ontology.concept_count(); ++c) {
    for (const ConceptRelationship& rel : ontology.OutRelationships(c)) {
      out += "R\t" + ontology.GetConcept(rel.source).code + "\t" +
             ontology.RelationTypeName(rel.type) + "\t" +
             ontology.GetConcept(rel.target).code + "\n";
    }
  }
  return out;
}

Result<Ontology> ParseOntologyText(std::string_view text) {
  // Headerless files get a sentinel system id; a #ontology line replaces
  // the whole object before any concept can be added (it must come first to
  // matter, as in every file WriteOntologyText produces).
  Ontology onto("unknown");
  bool header_seen = false;
  bool any_concept = false;

  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw_line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    std::vector<std::string_view> fields = SplitString(raw_line, '\t');

    if (line[0] == '#') {
      if (StartsWith(line, "#ontology")) {
        if (header_seen) return LineError(line_number, "duplicate #ontology header");
        if (fields.size() < 2) {
          return LineError(line_number, "#ontology needs a system id");
        }
        if (any_concept) {
          return LineError(line_number,
                           "#ontology header must precede concepts");
        }
        onto = Ontology(
            std::string(TrimWhitespace(fields[1])),
            fields.size() > 2 ? std::string(TrimWhitespace(fields[2])) : "");
        header_seen = true;
      }
      if (pos > text.size()) break;
      continue;
    }

    std::string_view kind = TrimWhitespace(fields[0]);
    if (kind == "C") {
      if (fields.size() < 3) {
        return LineError(line_number, "concept line needs code and term");
      }
      std::string code(TrimWhitespace(fields[1]));
      std::string term(TrimWhitespace(fields[2]));
      if (code.empty() || term.empty()) {
        return LineError(line_number, "empty concept code or term");
      }
      if (onto.FindByCode(code) != kInvalidConcept) {
        return LineError(line_number, "duplicate concept code '" + code + "'");
      }
      std::vector<std::string> synonyms;
      for (size_t i = 3; i < fields.size(); ++i) {
        std::string_view syn = TrimWhitespace(fields[i]);
        if (!syn.empty()) synonyms.emplace_back(syn);
      }
      onto.AddConcept(std::move(code), std::move(term), std::move(synonyms));
      any_concept = true;
    } else if (kind == "I") {
      if (fields.size() < 3) {
        return LineError(line_number, "is-a line needs child and parent codes");
      }
      ConceptId child = onto.FindByCode(TrimWhitespace(fields[1]));
      ConceptId parent = onto.FindByCode(TrimWhitespace(fields[2]));
      if (child == kInvalidConcept || parent == kInvalidConcept) {
        return LineError(line_number, "is-a references an unknown concept");
      }
      Status st = onto.AddIsA(child, parent);
      if (!st.ok()) return LineError(line_number, st.message());
    } else if (kind == "R") {
      if (fields.size() < 4) {
        return LineError(line_number,
                         "relationship line needs source, type, target");
      }
      ConceptId source = onto.FindByCode(TrimWhitespace(fields[1]));
      ConceptId target = onto.FindByCode(TrimWhitespace(fields[3]));
      if (source == kInvalidConcept || target == kInvalidConcept) {
        return LineError(line_number,
                         "relationship references an unknown concept");
      }
      std::string_view type = TrimWhitespace(fields[2]);
      if (type.empty()) return LineError(line_number, "empty relation type");
      Status st = onto.AddRelationship(source, type, target);
      if (!st.ok()) return LineError(line_number, st.message());
    } else {
      return LineError(line_number,
                       "unknown record kind '" + std::string(kind) + "'");
    }
    if (pos > text.size()) break;
  }

  if (!any_concept) return Status::ParseError("ontology defines no concepts");
  Status valid = onto.Validate();
  if (!valid.ok()) return valid;
  return onto;
}

Status SaveOntology(const Ontology& ontology, const std::string& path) {
  return WriteFileDurable(path, WriteOntologyText(ontology));
}

Result<Ontology> LoadOntology(const std::string& path) {
  XONTO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseOntologyText(text);
}

}  // namespace xontorank
