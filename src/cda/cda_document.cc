#include "cda/cda_document.h"


namespace xontorank {

namespace {

using Element = XmlBuilder::Element;

/// Emits a coded element (`<tag code=... codeSystem=... displayName=.../>`),
/// which its code and codeSystem attributes make a code node.
Element AddCodedElement(Element parent, const std::string& tag,
                         const CdaCodedValue& value,
                         const char* value_type = nullptr) {
  Element elem = parent.AddElementChild(tag);
  if (value_type != nullptr) elem.AddAttribute("xsi:type", value_type);
  elem.AddAttribute("code", value.code);
  elem.AddAttribute("codeSystem", value.code_system);
  if (!value.code_system_name.empty()) {
    elem.AddAttribute("codeSystemName", value.code_system_name);
  }
  if (!value.display_name.empty()) {
    elem.AddAttribute("displayName", value.display_name);
  }
  return elem;
}

void AddName(Element parent, const std::string& given,
             const std::string& family, const std::string& suffix) {
  Element name = parent.AddElementChild("name");
  name.AddElementChild("given").AddTextChild(given);
  name.AddElementChild("family").AddTextChild(family);
  if (!suffix.empty()) name.AddElementChild("suffix").AddTextChild(suffix);
}

void AddObservation(Element entry, const CdaObservation& obs) {
  Element observation = entry.AddElementChild("Observation");
  AddCodedElement(observation, "code", obs.code);
  if (!obs.effective_time.empty()) {
    observation.AddElementChild("effectiveTime")
        .AddAttribute("value", obs.effective_time);
  }
  Element nest_under = observation;
  for (const CdaCodedValue& value : obs.values) {
    // Values nest like Fig. 1 lines 45-46: each subsequent value goes inside
    // the previous one.
    Element value_elem = AddCodedElement(nest_under, "value", value, "CD");
    if (nest_under == observation && !obs.original_text_ref.empty()) {
      Element original = value_elem.AddElementChild("originalText");
      original.AddElementChild("reference")
          .AddAttribute("value", obs.original_text_ref);
    }
    nest_under = value_elem;
  }
}

void AddSubstanceAdministration(Element entry,
                                const CdaSubstanceAdministration& sub) {
  Element administration = entry.AddElementChild("SubstanceAdministration");
  Element text = administration.AddElementChild("text");
  Element content = text.AddElementChild("content");
  if (!sub.content_id.empty()) content.AddAttribute("ID", sub.content_id);
  content.AddTextChild(sub.drug_name);
  if (!sub.instructions.empty()) text.AddTextChild(sub.instructions);
  Element consumable = administration.AddElementChild("consumable");
  Element product = consumable.AddElementChild("manufacturedProduct");
  Element drug = product.AddElementChild("manufacturedLabeledDrug");
  AddCodedElement(drug, "code", sub.drug_code);
}

void AddSection(Element parent, const CdaSection& section) {
  Element component = parent.AddElementChild("component");
  Element sec = component.AddElementChild("section");
  if (!section.code.empty()) AddCodedElement(sec, "code", section.code);
  if (!section.title.empty()) {
    sec.AddElementChild("title").AddTextChild(section.title);
  }
  if (!section.narrative_text.empty() || !section.vitals.empty()) {
    Element text = sec.AddElementChild("text");
    if (!section.narrative_text.empty()) {
      text.AddTextChild(section.narrative_text);
    }
    if (!section.vitals.empty()) {
      Element table = text.AddElementChild("table");
      for (const CdaVitalSign& vital : section.vitals) {
        Element tr = table.AddElementChild("tr");
        tr.AddElementChild("th").AddTextChild(vital.name);
        tr.AddElementChild("td").AddTextChild(vital.value);
      }
    }
  }
  for (const CdaEntry& entry : section.entries) {
    Element entry_elem = sec.AddElementChild("entry");
    switch (entry.kind) {
      case CdaEntry::Kind::kObservation:
        AddObservation(entry_elem, entry.observation);
        break;
      case CdaEntry::Kind::kSubstanceAdministration:
        AddSubstanceAdministration(entry_elem, entry.substance_administration);
        break;
    }
  }
  for (const CdaSection& sub : section.subsections) {
    AddSection(sec, sub);
  }
}

}  // namespace

XmlDocument CdaToXml(const CdaDocument& doc, uint32_t doc_id) {
  XmlBuilder builder("ClinicalDocument");
  Element root = builder.root();
  root.AddAttribute("xmlns", "urn:hl7-org:v3");
  root.AddAttribute("xmlns:voc", "urn:hl7-org:v3/voc");
  root.AddAttribute("templateId", doc.template_id);

  Element id = root.AddElementChild("id");
  id.AddAttribute("extension", doc.id_extension);
  id.AddAttribute("root", "2.16.840.1.113883.3.933");

  // Header: author.
  Element author = root.AddElementChild("author");
  author.AddElementChild("time").AddAttribute("value", doc.author.time);
  Element assigned = author.AddElementChild("assignedAuthor");
  Element author_id = assigned.AddElementChild("id");
  author_id.AddAttribute("extension", doc.author.id_extension);
  author_id.AddAttribute("root", "2.16.840.1.113883.19.5");
  Element person = assigned.AddElementChild("assignedPerson");
  AddName(person, doc.author.given_name, doc.author.family_name,
          doc.author.suffix);

  // Header: record target (patient).
  Element record_target = root.AddElementChild("recordTarget");
  Element patient_role = record_target.AddElementChild("patientRole");
  Element patient_id = patient_role.AddElementChild("id");
  patient_id.AddAttribute("extension", doc.patient.id_extension);
  patient_id.AddAttribute("root", "2.16.840.1.113883.19.5");
  Element patient = patient_role.AddElementChild("patientPatient");
  AddName(patient, doc.patient.given_name, doc.patient.family_name,
          doc.patient.suffix);
  Element gender = patient.AddElementChild("administrativeGenderCode");
  gender.AddAttribute("code", doc.patient.gender_code);
  gender.AddAttribute("codeSystem", "2.16.840.1.113883.5.1");
  patient.AddElementChild("birthTime")
      .AddAttribute("value", doc.patient.birth_time);
  Element provider = patient_role.AddElementChild("providerOrganization");
  Element provider_id = provider.AddElementChild("id");
  provider_id.AddAttribute("extension", doc.patient.provider_org_id);
  provider_id.AddAttribute("root", "2.16.840.1.113883.19.5");

  // Body.
  Element component = root.AddElementChild("component");
  Element body = component.AddElementChild("StructuredBody");
  for (const CdaSection& section : doc.sections) {
    AddSection(body, section);
  }

  return builder.Finish(doc_id);
}

}  // namespace xontorank
