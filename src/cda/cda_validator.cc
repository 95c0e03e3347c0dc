#include "cda/cda_validator.h"

#include <unordered_set>

namespace xontorank {

namespace {

void Add(std::vector<CdaDiagnostic>& diagnostics,
         CdaDiagnostic::Severity severity, std::string message,
         DeweyId where) {
  diagnostics.push_back({severity, std::move(message), std::move(where)});
}

}  // namespace

std::vector<CdaDiagnostic> ValidateCda(const XmlDocument& doc) {
  std::vector<CdaDiagnostic> diagnostics;
  XmlNode root = doc.root();
  if (!root) {
    Add(diagnostics, CdaDiagnostic::Severity::kError, "document has no root",
        DeweyId());
    return diagnostics;
  }
  DeweyId root_id = doc.DeweyIdOf(root);

  if (root.tag() != "ClinicalDocument") {
    Add(diagnostics, CdaDiagnostic::Severity::kError,
        "root element is <" + std::string(root.tag()) +
            ">, expected <ClinicalDocument>",
        root_id);
    return diagnostics;  // nothing below is meaningful
  }

  // Header blocks.
  for (const char* header : {"id", "author", "recordTarget"}) {
    if (!root.FindChildElement(header)) {
      Add(diagnostics, CdaDiagnostic::Severity::kWarning,
          std::string("missing header element <") + header + ">", root_id);
    }
  }

  // Body.
  XmlNode body = root.FindDescendantElement("StructuredBody");
  if (!body) {
    Add(diagnostics, CdaDiagnostic::Severity::kError,
        "missing <component>/<StructuredBody>", root_id);
  } else if (!body.FindDescendantElement("section")) {
    Add(diagnostics, CdaDiagnostic::Severity::kError,
        "<StructuredBody> contains no <section>", doc.DeweyIdOf(body));
  }

  // Element-level checks over the whole tree.
  std::unordered_set<std::string> anchors;
  root.Visit([&](const XmlNode& node) {
    if (!node.is_element()) return;
    if (auto id = node.GetAttribute("ID"); id.has_value() && !id->empty()) {
      anchors.insert(std::string(*id));
    }
  });

  root.Visit([&](const XmlNode& node) {
    if (!node.is_element()) return;
    auto code = node.GetAttribute("code");
    auto system = node.GetAttribute("codeSystem");
    if (code.has_value() && !code->empty() &&
        (!system.has_value() || system->empty())) {
      Add(diagnostics, CdaDiagnostic::Severity::kError,
          "<" + std::string(node.tag()) + "> has code=\"" + std::string(*code) +
              "\" without codeSystem (unresolvable code node)",
          doc.DeweyIdOf(node));
    }
    if (node.tag() == "section") {
      bool has_code = static_cast<bool>(node.FindChildElement("code"));
      bool has_title = static_cast<bool>(node.FindChildElement("title"));
      if (!has_code && !has_title) {
        Add(diagnostics, CdaDiagnostic::Severity::kWarning,
            "<section> has neither <code> nor <title>", doc.DeweyIdOf(node));
      }
    }
    if (node.tag() == "reference") {
      auto value = node.GetAttribute("value");
      if (value.has_value() && !value->empty()) {
        std::string target(*value);
        if (!target.empty() && target[0] == '#') target.erase(0, 1);
        if (anchors.count(target) == 0) {
          Add(diagnostics, CdaDiagnostic::Severity::kWarning,
              "<reference value=\"" + std::string(*value) +
                  "\"> does not resolve to any ID in the document",
              doc.DeweyIdOf(node));
        }
      }
    }
  });
  return diagnostics;
}

Status CheckCda(const XmlDocument& doc) {
  for (const CdaDiagnostic& diagnostic : ValidateCda(doc)) {
    if (diagnostic.is_error()) {
      return Status::FailedPrecondition(diagnostic.message + " (at " +
                                        diagnostic.where.ToString() + ")");
    }
  }
  return Status::OK();
}

}  // namespace xontorank
