// Tests for BM25 ranking and the engine's extended options: retrieval
// model, clustering algorithm, interleaving, and parallel expansion.

#include <gtest/gtest.h>

#include "core/query_expander.h"
#include "datagen/shopping.h"
#include "datagen/wikipedia.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "server/protocol.h"

namespace qec {
namespace {

// -------------------------------------------------------------------- BM25

class Bm25Fixture : public ::testing::Test {
 protected:
  Bm25Fixture() {
    d0_ = corpus_.AddTextDocument("0", "java island");
    d1_ = corpus_.AddTextDocument(
        "1", "java java java java filler filler filler filler filler filler "
             "filler filler filler filler filler filler");
    d2_ = corpus_.AddTextDocument("2", "cooking");
    index_ = std::make_unique<index::InvertedIndex>(corpus_);
  }

  TermId T(const std::string& w) const {
    return corpus_.analyzer().vocabulary().Lookup(w);
  }

  doc::Corpus corpus_;
  DocId d0_, d1_, d2_;
  std::unique_ptr<index::InvertedIndex> index_;
};

TEST_F(Bm25Fixture, RetrievesOrSemantics) {
  auto results = index_->SearchBm25({T("java"), T("island")});
  EXPECT_EQ(results.size(), 2u);
}

TEST_F(Bm25Fixture, TermFrequencySaturates) {
  // d1 has java x4 but is long; d0 has java x1 and is short. With length
  // normalization, tf saturation keeps d1 from dominating 4:1.
  auto results = index_->SearchBm25({T("java")});
  ASSERT_EQ(results.size(), 2u);
  double hi = results[0].score, lo = results[1].score;
  EXPECT_LT(hi / lo, 3.0);
}

TEST_F(Bm25Fixture, LengthNormalizationPenalizesLongDocs) {
  // With b = 1 (full normalization), the short doc wins on the java query
  // despite lower tf.
  index::InvertedIndex::Bm25Params strong;
  strong.b = 1.0;
  auto results = index_->SearchBm25({T("java")}, 0, strong);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, d0_);
}

TEST_F(Bm25Fixture, ScoresPositiveAndSorted) {
  auto results = index_->SearchBm25({T("java"), T("island"), T("cooking")});
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].score, 0.0);
    if (i > 0) {
      EXPECT_LE(results[i].score, results[i - 1].score);
    }
  }
}

TEST_F(Bm25Fixture, TopKAndUnknownTerms) {
  EXPECT_EQ(index_->SearchBm25({T("java")}, 1).size(), 1u);
  EXPECT_TRUE(index_->SearchBm25({}).empty());
  EXPECT_TRUE(index_->SearchBm25({static_cast<TermId>(99999)}).empty());
}

// ---------------------------------------------------------- engine options

class EngineOptionsFixture : public ::testing::Test {
 protected:
  static const doc::Corpus& Corpus() {
    static doc::Corpus* corpus =
        new doc::Corpus(datagen::WikipediaGenerator(SmallOptions()).Generate());
    return *corpus;
  }
  static const index::InvertedIndex& Index() {
    static index::InvertedIndex* index =
        new index::InvertedIndex(Corpus());
    return *index;
  }
  static datagen::WikipediaOptions SmallOptions() {
    datagen::WikipediaOptions options;
    options.docs_per_sense = 8;
    options.background_docs = 30;
    return options;
  }
};

TEST_F(EngineOptionsFixture, AllRetrievalModelsWork) {
  for (auto model : {core::RetrievalModel::kTfIdfAnd,
                     core::RetrievalModel::kVsm,
                     core::RetrievalModel::kBm25}) {
    core::QueryExpanderOptions options;
    options.retrieval = model;
    core::QueryExpander expander(Index(), options);
    auto outcome = expander.ExpandText("java");
    ASSERT_TRUE(outcome.ok()) << static_cast<int>(model);
    EXPECT_GT(outcome->num_results_used, 0u);
    EXPECT_GE(outcome->set_score, 0.0);
  }
}

TEST_F(EngineOptionsFixture, AllClusteringAlgorithmsWork) {
  for (auto method : {core::ClusteringAlgorithm::kKMeans,
                      core::ClusteringAlgorithm::kHac,
                      core::ClusteringAlgorithm::kDynamic}) {
    core::QueryExpanderOptions options;
    options.clustering = method;
    core::QueryExpander expander(Index(), options);
    auto outcome = expander.ExpandText("eclipse");
    ASSERT_TRUE(outcome.ok());
    EXPECT_GE(outcome->num_clusters, 1u);
    EXPECT_LE(outcome->num_clusters, 5u);
  }
}

// Absolute pins, recorded before the clustering kernel moved onto the
// shared point set: HAC and the dynamic selector (which picks HAC here)
// must stay byte-identical, not merely agree with another path.
TEST_F(EngineOptionsFixture, ClusteringAlgorithmOutcomesArePinned) {
  const std::string hac =
      R"(,"clusters":3,"results_used":18,"set_score":0.97959183673469385,)"
      R"("queries":[{"keywords":["cell","biology","mitosis"],"cluster_size":8,)"
      R"("precision":1,"recall":1,"f_measure":1},{"keywords":["cell",)"
      R"("network","phone","signal"],"cluster_size":6,)"
      R"("precision":0.88888888888888884,"recall":1,)"
      R"("f_measure":0.94117647058823528},{"keywords":["cell","famhobhob",)"
      R"("energy"],"cluster_size":4,"precision":1,"recall":1,"f_measure":1}]})";
  const std::string kmeans =
      R"(,"clusters":2,"results_used":18,"set_score":0.92307692307692313,)"
      R"("queries":[{"keywords":["cell","biology","mitosis"],"cluster_size":8,)"
      R"("precision":1,"recall":1,"f_measure":1},{"keywords":["cell",)"
      R"("famhobhob","signal","network"],"cluster_size":10,"precision":1,)"
      R"("recall":0.75000000000000011,"f_measure":0.85714285714285732}]})";
  const std::pair<core::ClusteringAlgorithm, const std::string*> legs[] = {
      {core::ClusteringAlgorithm::kKMeans, &kmeans},
      {core::ClusteringAlgorithm::kHac, &hac},
      {core::ClusteringAlgorithm::kDynamic, &hac}};
  for (const auto& [method, pinned] : legs) {
    core::QueryExpanderOptions options;
    options.clustering = method;
    auto outcome = core::QueryExpander(Index(), options).ExpandText("cell");
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(server::RenderOutcomeTail(*outcome), *pinned)
        << static_cast<int>(method);
  }
}

TEST_F(EngineOptionsFixture, InterleavingNeverHurtsSetScore) {
  core::QueryExpanderOptions plain;
  core::QueryExpanderOptions interleaved;
  interleaved.interleave_rounds = 3;
  for (const char* q : {"java", "rockets", "mouse"}) {
    auto a = core::QueryExpander(Index(), plain).ExpandText(q);
    auto b = core::QueryExpander(Index(), interleaved).ExpandText(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GE(b->set_score, a->set_score - 1e-12) << q;
  }
}

TEST_F(EngineOptionsFixture, ParallelExpansionMatchesSerial) {
  core::QueryExpanderOptions serial;
  core::QueryExpanderOptions parallel;
  parallel.num_threads = 4;
  for (const char* q : {"java", "cell", "columbia"}) {
    auto a = core::QueryExpander(Index(), serial).ExpandText(q);
    auto b = core::QueryExpander(Index(), parallel).ExpandText(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->queries.size(), b->queries.size()) << q;
    EXPECT_DOUBLE_EQ(a->set_score, b->set_score) << q;
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].terms, b->queries[i].terms) << q;
    }
  }
}

TEST_F(EngineOptionsFixture, InterleaveIgnoredForPebc) {
  core::QueryExpanderOptions options;
  options.algorithm = core::ExpansionAlgorithm::kPebc;
  options.interleave_rounds = 3;  // documented as ISKR-only
  core::QueryExpander expander(Index(), options);
  auto outcome = expander.ExpandText("java");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->queries.empty());
}

TEST_F(EngineOptionsFixture, VsmRetrievalReturnsOrMatches) {
  // VSM retrieval can include documents that lack some query words; the
  // pipeline must still produce valid expansions.
  core::QueryExpanderOptions options;
  options.retrieval = core::RetrievalModel::kVsm;
  options.top_k_results = 20;
  core::QueryExpander expander(Index(), options);
  auto outcome = expander.ExpandText("sportsman williams");
  ASSERT_TRUE(outcome.ok());
  // OR matching retrieves at least as many results as strict AND.
  core::QueryExpanderOptions and_options;
  and_options.top_k_results = 20;
  auto and_outcome =
      core::QueryExpander(Index(), and_options).ExpandText(
          "sportsman williams");
  ASSERT_TRUE(and_outcome.ok());
  EXPECT_GE(outcome->num_results_used, and_outcome->num_results_used);
  EXPECT_LE(outcome->num_results_used, 20u);
}

}  // namespace
}  // namespace qec
