#ifndef XONTORANK_ONTO_ONTOLOGY_IO_H_
#define XONTORANK_ONTO_ONTOLOGY_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "onto/ontology.h"

namespace xontorank {

/// Flat-file ontology interchange, replacing the paper's UMLS RRF flat
/// files with a self-describing tab-separated format:
///
/// ```
///   #ontology <system_id> <name>
///   C <code> <preferred term> [<synonym>...]      # one concept per line
///   I <child code> <parent code>                  # is-a edge
///   R <source code> <relation type> <target code> # attribute relationship
///   # comment lines and blank lines are ignored
/// ```
///
/// Fields are TAB-separated so terms may contain spaces. Loading validates
/// structure (unknown codes, duplicate concepts, is-a cycles) and reports
/// 1-based line numbers in error messages.

/// Serializes `ontology` to the flat format. Deterministic: concepts in id
/// order, edges in adjacency order.
std::string WriteOntologyText(const Ontology& ontology);

/// Parses an ontology from the flat format.
[[nodiscard]] Result<Ontology> ParseOntologyText(std::string_view text);

/// Writes the flat form to `path` with WriteFileDurable.
[[nodiscard]] Status SaveOntology(const Ontology& ontology,
                                  const std::string& path);

/// Loads an ontology previously saved with SaveOntology (or hand-written).
[[nodiscard]] Result<Ontology> LoadOntology(const std::string& path);

}  // namespace xontorank

#endif  // XONTORANK_ONTO_ONTOLOGY_IO_H_
