#include "core/index_builder.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cda/cda_generator.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using reference::Posting;
using testing_util::BuildTinyOntology;
using testing_util::MustParse;
using testing_util::TinyCdaXml;

class IndexBuilderFixture : public ::testing::Test {
 protected:
  IndexBuilderFixture() : onto_(BuildTinyOntology()) {
    corpus_.Add(MustParse(TinyCdaXml(), 0));
  }

  CorpusIndex Build(Strategy strategy,
                    IndexBuildOptions::VocabularyMode mode =
                        IndexBuildOptions::VocabularyMode::kCorpusAndOntology) {
    IndexBuildOptions options;
    options.strategy = strategy;
    options.vocabulary_mode = mode;
    return CorpusIndex(corpus_, onto_, options);
  }

  Ontology onto_;
  Corpus corpus_;
};

/// The list `index` serves for `keyword`, precomputed or demand-built.
std::vector<Posting> ServedPostings(const CorpusIndex& index,
                                    const Keyword& keyword) {
  DilListRef ref = index.GetListRef(keyword);
  return reference::ReadList(*ref.flat, ref.list);
}

TEST_F(IndexBuilderFixture, CountsNodesAndCodeNodes) {
  CorpusIndex index = Build(Strategy::kRelationships);
  EXPECT_EQ(index.stats().documents, 1u);
  EXPECT_GT(index.stats().indexed_nodes, 10u);
  // Two code nodes: Asthma value and Drug code.
  EXPECT_EQ(index.stats().code_nodes, 2u);
}

TEST_F(IndexBuilderFixture, UnresolvableRefsIgnored) {
  // A code node referencing an unknown system or code is not an entry point.
  corpus_.clear();
  corpus_.Add(MustParse(
      R"(<r><a code="4" codeSystem="other.sys"/><b code="999" codeSystem="test.sys"/></r>)",
      0));
  CorpusIndex index = Build(Strategy::kRelationships);
  EXPECT_EQ(index.stats().code_nodes, 0u);
}

TEST_F(IndexBuilderFixture, TextualPostingForLiteralOccurrence) {
  CorpusIndex index = Build(Strategy::kXRank);
  std::vector<Posting> postings =
      ServedPostings(index, MakeKeyword("theophylline"));
  ASSERT_FALSE(postings.empty());
  for (const Posting& p : postings) {
    EXPECT_GT(p.score, 0.0);
    EXPECT_LE(p.score, 1.0);
  }
}

TEST_F(IndexBuilderFixture, XRankHasNoOntologicalPostings) {
  // "bronchus" never occurs textually; under XRANK its list is empty.
  CorpusIndex index = Build(Strategy::kXRank);
  EXPECT_TRUE(ServedPostings(index, MakeKeyword("bronchus")).empty());
  EXPECT_TRUE(index.context()->GetRow(0, MakeKeyword("bronchus"))->empty());
}

TEST_F(IndexBuilderFixture, OntologicalPostingThroughCodeNode) {
  // Under Relationships, "bronchus" reaches the Asthma code node through
  // finding_site_of (OS(Asthma) = 0.5 → NS = ω·0.5 = 0.25). The Drug code
  // node's best route is taxonomic: up to Structure (sole child → 1/1),
  // up to Root (3 children → 1/3), down to Drug (×1): OS = 1/3 → NS = 1/6.
  CorpusIndex index = Build(Strategy::kRelationships);
  std::vector<Posting> postings =
      ServedPostings(index, MakeKeyword("bronchus"));
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_NEAR(postings[0].score, 0.25, 1e-9);       // Asthma value node
  EXPECT_NEAR(postings[1].score, 1.0 / 6.0, 1e-9);  // Drug code node
}

TEST_F(IndexBuilderFixture, NsIsMaxOfTextualAndOntological) {
  // "asthma" occurs textually on the Asthma code node (displayName) AND
  // ontologically (OS = 1 on the Asthma concept → ω·1 = 0.5). Eq. 5 takes
  // the max, which is the textual 1.0 (it is the best textual match).
  CorpusIndex index = Build(Strategy::kRelationships);
  std::vector<Posting> postings = ServedPostings(index, MakeKeyword("asthma"));
  double best = 0.0;
  for (const Posting& p : postings) best = std::max(best, p.score);
  EXPECT_NEAR(best, 1.0, 1e-9);
  // The Drug code node gets an ontological-only posting: Drug treats
  // Asthma → OS(Drug) = 0.5 under Relationships → NS = 0.25.
  bool found_quarter = false;
  for (const Posting& p : postings) {
    if (std::abs(p.score - 0.25) < 1e-9) found_quarter = true;
  }
  EXPECT_TRUE(found_quarter);
}

TEST_F(IndexBuilderFixture, VocabularyModesAgreeOnPostings) {
  CorpusIndex eager = Build(Strategy::kRelationships,
                            IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  CorpusIndex lazy =
      Build(Strategy::kRelationships, IndexBuildOptions::VocabularyMode::kNone);
  EXPECT_EQ(lazy.stats().precomputed_keywords, 0u);
  for (const char* word : {"asthma", "theophylline", "bronchus", "drug"}) {
    Keyword kw = MakeKeyword(word);
    EXPECT_EQ(ServedPostings(eager, kw), ServedPostings(lazy, kw)) << word;
  }
}

TEST_F(IndexBuilderFixture, CorpusAndOntologyModeCoversOntologyOnlyTerms) {
  CorpusIndex eager = Build(Strategy::kRelationships);
  // "bronchus" appears only in the ontology, yet is precomputed.
  EXPECT_FALSE(eager.GetListRef(MakeKeyword("bronchus")).empty());
  std::vector<std::string> vocab = eager.PrecomputedVocabulary();
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), "bronchus"), vocab.end());

  CorpusIndex corpus_only =
      Build(Strategy::kRelationships, IndexBuildOptions::VocabularyMode::kCorpusOnly);
  std::vector<std::string> corpus_vocab = corpus_only.PrecomputedVocabulary();
  EXPECT_EQ(std::find(corpus_vocab.begin(), corpus_vocab.end(), "bronchus"),
            corpus_vocab.end());
}

TEST_F(IndexBuilderFixture, DemandListCachesAndIsStable) {
  CorpusIndex index =
      Build(Strategy::kRelationships, IndexBuildOptions::VocabularyMode::kNone);
  Keyword phrase = MakeKeyword("theophylline");
  DilListRef first = index.GetListRef(phrase);
  DilListRef second = index.GetListRef(phrase);
  EXPECT_EQ(first.flat, second.flat);
  EXPECT_EQ(first.list, second.list);
  EXPECT_FALSE(first.empty());
  // The demand-built list equals the eager index's precomputed one.
  EXPECT_EQ(reference::ReadList(*first.flat, first.list),
            ServedPostings(Build(Strategy::kRelationships), phrase));
}

TEST_F(IndexBuilderFixture, UnknownKeywordYieldsEmptyEntryNotNull) {
  CorpusIndex index = Build(Strategy::kRelationships);
  DilListRef ref = index.GetListRef(MakeKeyword("zebra"));
  ASSERT_NE(ref.flat, nullptr);
  EXPECT_TRUE(ref.empty());
  EXPECT_TRUE(ref.OpenCursor().AtEnd());
}

TEST_F(IndexBuilderFixture, PostingsSortedByDewey) {
  CorpusIndex index = Build(Strategy::kRelationships);
  for (const char* word : {"asthma", "mg", "theophylline"}) {
    std::vector<Posting> postings = ServedPostings(index, MakeKeyword(word));
    for (size_t i = 1; i < postings.size(); ++i) {
      EXPECT_TRUE(postings[i - 1].dewey < postings[i].dewey) << word;
    }
  }
}

TEST_F(IndexBuilderFixture, MultiDocumentDeweysCarryDocIds) {
  corpus_.Add(MustParse(TinyCdaXml(), 1));
  CorpusIndex index = Build(Strategy::kXRank);
  std::vector<Posting> postings =
      ServedPostings(index, MakeKeyword("theophylline"));
  std::set<uint32_t> docs;
  for (const Posting& p : postings) docs.insert(p.dewey.doc_id());
  EXPECT_EQ(docs, (std::set<uint32_t>{0, 1}));
}


TEST_F(IndexBuilderFixture, ComputeNodeSupportSeparatesSources) {
  CorpusIndex index = Build(Strategy::kRelationships);
  // The Asthma value node: textual hit (displayName) AND a code node.
  std::vector<Posting> postings = ServedPostings(index, MakeKeyword("asthma"));
  ASSERT_FALSE(postings.empty());
  const DeweyId& asthma_node = postings.front().dewey;
  CorpusIndex::NodeSupport support =
      index.ComputeNodeSupport(asthma_node, MakeKeyword("asthma"));
  EXPECT_GT(support.textual_irs, 0.0);
  EXPECT_TRUE(support.is_code_node);
  EXPECT_EQ(support.concept_id, onto_.FindByPreferredTerm("Asthma"));
  EXPECT_GT(support.onto_score, 0.0);

  // For "bronchus" the same node has no textual hit, only ontological.
  CorpusIndex::NodeSupport onto_only =
      index.ComputeNodeSupport(asthma_node, MakeKeyword("bronchus"));
  EXPECT_DOUBLE_EQ(onto_only.textual_irs, 0.0);
  EXPECT_GT(onto_only.onto_score, 0.0);
}

TEST_F(IndexBuilderFixture, ComputeNodeSupportUnknownAddress) {
  CorpusIndex index = Build(Strategy::kRelationships);
  CorpusIndex::NodeSupport support =
      index.ComputeNodeSupport(DeweyId({9, 9, 9}), MakeKeyword("asthma"));
  EXPECT_DOUBLE_EQ(support.textual_irs, 0.0);
  EXPECT_FALSE(support.is_code_node);
  EXPECT_EQ(support.concept_id, kInvalidConcept);
}

// Stage-1 records keep every unit's address in one flat arena. On a
// generated multi-document corpus, unit u of each record must address the
// u-th element in preorder (exactly what XmlDocument::DeweyIdOf computes),
// the addresses must ascend, and the records must cover every indexed node.
TEST(DocumentUnitsTest, FlatAddressesMatchPreorderElements) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 6;
  gen_options.seed = 17;
  Corpus corpus = CdaGenerator(onto, gen_options).GenerateCorpus();
  IndexBuildOptions options;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  CorpusIndex index(corpus, onto, options);
  ASSERT_EQ(index.documents().size(), corpus.size());
  size_t units = 0;
  for (size_t d = 0; d < corpus.size(); ++d) {
    const XmlDocument& document = corpus[d];
    const DocumentUnits& record = *index.documents()[d];
    std::vector<XmlNode> elements;
    document.root().Visit([&elements](const XmlNode& node) {
      if (node.is_element()) elements.push_back(node);
    });
    ASSERT_EQ(record.unit_count(), elements.size()) << "document " << d;
    for (uint32_t u = 0; u < record.unit_count(); ++u) {
      DeweyId expected = document.DeweyIdOf(elements[u]);
      EXPECT_TRUE(record.dewey(u) == expected)
          << "document " << d << " unit " << u << ": "
          << record.dewey(u).ToDeweyId().ToString() << " vs "
          << expected.ToString();
      if (u > 0) {
        EXPECT_TRUE(record.dewey(u - 1) < record.dewey(u))
            << "document " << d << " unit " << u;
      }
    }
    units += record.unit_count();
  }
  EXPECT_GT(units, corpus.size());
  EXPECT_EQ(units, index.stats().indexed_nodes);
}

// Eq. 5 written out naively for one keyword: for every unit of every
// record, NS = max(IRS from the record's own TextIndex::Lookup, ω·OS from
// ComputeOntoScores' hash-map row for a code unit), kept when positive,
// then the ElemRank blend. Postings come out in document, then unit
// order, which is Dewey order.
std::vector<Posting> NaiveDemandList(const CorpusIndex& index,
                                     const Keyword& keyword) {
  const IndexBuildOptions& options = index.options();
  std::vector<OntoScoreMap> rows(index.systems().size());
  for (size_t system = 0; system < rows.size(); ++system) {
    rows[system] = ComputeOntoScores(index.ontology_index(system), keyword,
                                     options.strategy, options.score);
  }
  std::vector<Posting> postings;
  for (const auto& record : index.documents()) {
    std::vector<double> ns(record->unit_count(), 0.0);
    for (const ScoredUnit& unit : record->text().Lookup(keyword)) {
      ns[unit.unit_id] = unit.score;
    }
    for (const CodeUnit& code : record->code_units()) {
      auto it = rows[code.system].find(code.concept_id);
      if (it == rows[code.system].end()) continue;
      ns[code.unit] =
          std::max(ns[code.unit], options.score.ontology_weight * it->second);
    }
    for (uint32_t u = 0; u < record->unit_count(); ++u) {
      double score = ns[u];
      if (score <= 0.0) continue;
      if (options.use_elem_rank) {
        score *= (1.0 - options.elem_rank_blend) +
                 options.elem_rank_blend * record->elem_ranks()[u];
      }
      postings.push_back({record->dewey(u).ToDeweyId(), score});
    }
  }
  return postings;
}

// Every demand-built list equals the naive Eq. 5 list bit for bit: each
// vocabulary keyword (corpus and ontology tokens), a phrase and an
// out-of-vocabulary word, under all four strategies, with and without the
// ElemRank blend. The corpus must exercise the merge's edges: a code unit
// that also matches textually, and textual postings before the corpus's
// first code unit and after its last.
TEST(DemandListOracleTest, EveryDemandListMatchesNaiveEq5) {
  Ontology onto = BuildSnomedCardiologyFragment(false);
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 40;
  gen_options.seed = 11;
  Corpus corpus = CdaGenerator(onto, gen_options).GenerateCorpus();

  std::vector<Keyword> keywords;
  {
    IndexBuildOptions options;
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    CorpusIndex probe(corpus, onto, options);
    std::vector<std::string> vocabulary = probe.ontology_index().Vocabulary();
    for (const auto& record : probe.documents()) {
      std::vector<std::string> part = record->text().Vocabulary();
      vocabulary.insert(vocabulary.end(), part.begin(), part.end());
    }
    std::sort(vocabulary.begin(), vocabulary.end());
    vocabulary.erase(std::unique(vocabulary.begin(), vocabulary.end()),
                     vocabulary.end());
    for (const std::string& word : vocabulary) {
      Keyword keyword = MakeKeyword(word);
      if (!keyword.tokens.empty()) keywords.push_back(std::move(keyword));
    }
  }
  ASSERT_GT(keywords.size(), 200u);
  keywords.push_back(MakeKeyword("bronchial structure"));
  keywords.push_back(MakeKeyword("zyxwvutsrq"));

  bool code_unit_matches_text = false;
  bool posting_before_first_code_unit = false;
  bool posting_after_last_code_unit = false;
  for (bool elem_rank : {false, true}) {
    for (Strategy strategy : kAllStrategies) {
      IndexBuildOptions options;
      options.strategy = strategy;
      options.use_elem_rank = elem_rank;
      options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
      CorpusIndex index(corpus, onto, options);
      const auto& records = index.documents();
      const DeweyId first_code =
          records.front()->dewey(records.front()->code_units().front().unit)
              .ToDeweyId();
      const DeweyId last_code =
          records.back()->dewey(records.back()->code_units().back().unit)
              .ToDeweyId();
      size_t nonempty = 0;
      for (const Keyword& keyword : keywords) {
        const std::vector<Posting> expected = NaiveDemandList(index, keyword);
        const std::vector<Posting> served = ServedPostings(index, keyword);
        ASSERT_EQ(served.size(), expected.size())
            << StrategyName(strategy) << " elem_rank " << elem_rank << " "
            << keyword.Canonical();
        for (size_t i = 0; i < served.size(); ++i) {
          ASSERT_EQ(served[i].dewey, expected[i].dewey)
              << keyword.Canonical() << " posting " << i;
          ASSERT_EQ(std::bit_cast<uint64_t>(served[i].score),
                    std::bit_cast<uint64_t>(expected[i].score))
              << StrategyName(strategy) << " elem_rank " << elem_rank << " "
              << keyword.Canonical() << " posting " << i;
        }
        nonempty += served.empty() ? 0 : 1;
        if (served.empty()) continue;
        posting_before_first_code_unit |= served.front().dewey < first_code;
        posting_after_last_code_unit |= last_code < served.back().dewey;
        if (strategy == Strategy::kXRank) continue;
        for (const auto& record : records) {
          const std::vector<ScoredUnit> text = record->text().Lookup(keyword);
          for (const CodeUnit& code : record->code_units()) {
            code_unit_matches_text |= std::ranges::any_of(
                text, [&code](const ScoredUnit& unit) {
                  return unit.unit_id == code.unit;
                });
          }
        }
      }
      EXPECT_GT(nonempty, keywords.size() / 2) << StrategyName(strategy);
      EXPECT_TRUE(ServedPostings(index, keywords.back()).empty());
    }
  }
  EXPECT_TRUE(code_unit_matches_text);
  EXPECT_TRUE(posting_before_first_code_unit);
  EXPECT_TRUE(posting_after_last_code_unit);
}

}  // namespace
}  // namespace xontorank
