// Absolute golden pin for the expansion pipeline. Every other determinism
// suite compares two paths of the same code (snapshot vs in-memory, kernel
// tiers, thread counts), so a change that moves every path the same way
// passes them all. This one renders the outcomes of a fixed request list
// over a generated `clustered:` corpus and compares them byte for byte
// with tests/golden/clustered_expansions.golden.
//
// The file changes only deliberately. To regenerate it after an intended
// output change, run
//   QEC_UPDATE_GOLDEN=1 build/tests/golden_test
// and record the diff in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/query_expander.h"
#include "datagen/clustered.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "server/protocol.h"

#ifndef QEC_GOLDEN_DIR
#error "QEC_GOLDEN_DIR must point at tests/golden"
#endif

namespace qec {
namespace {

constexpr const char* kGoldenFile =
    QEC_GOLDEN_DIR "/clustered_expansions.golden";

/// clustered:20000:16 with a 500-term background vocabulary: a background
/// term ("wN") retrieves ~250-320 results, the deep `topk=0` size, and a
/// topic term ("cKtJ") retrieves ~750. The top-30 requests are the paper's
/// interactive setting.
datagen::ClusteredOptions CorpusOptions() {
  datagen::ClusteredOptions options;
  options.num_docs = 20000;
  options.num_clusters = 16;
  options.shared_vocab = 500;
  return options;
}

struct GoldenRequest {
  const char* query;
  size_t top_k;
  core::ExpansionAlgorithm algorithm;
  core::ClusteringAlgorithm clustering;
};

std::string Label(const GoldenRequest& r) {
  static const char* kClustering[] = {"kmeans", "hac", "dynamic"};
  return "topk=" + std::to_string(r.top_k) + " algo=" +
         std::string(core::AlgorithmName(r.algorithm)) + " cluster=" +
         kClustering[static_cast<int>(r.clustering)] + " -- " + r.query;
}

std::vector<GoldenRequest> Requests() {
  using A = core::ExpansionAlgorithm;
  using C = core::ClusteringAlgorithm;
  std::vector<GoldenRequest> requests;
  for (A algo : {A::kIskr, A::kPebc, A::kFMeasure}) {
    requests.push_back({"w17", 0, algo, C::kKMeans});
    requests.push_back({"w250", 0, algo, C::kKMeans});
    requests.push_back({"w3", 30, algo, C::kKMeans});
    requests.push_back({"c5t1 c5t2", 30, algo, C::kKMeans});
  }
  requests.push_back({"w17", 0, A::kIskr, C::kHac});
  requests.push_back({"c3t4", 30, A::kPebc, C::kHac});
  requests.push_back({"w250", 0, A::kFMeasure, C::kDynamic});
  // Seven results: the small-n end of the clustering.
  requests.push_back({"c11t9 w42", 30, A::kIskr, C::kDynamic});
  return requests;
}

std::string RenderAll() {
  const doc::Corpus corpus =
      datagen::ClusteredGenerator(CorpusOptions()).Generate();
  const index::InvertedIndex index(corpus);
  std::string out;
  for (const GoldenRequest& r : Requests()) {
    core::QueryExpanderOptions options;
    options.top_k_results = r.top_k;
    options.algorithm = r.algorithm;
    options.clustering = r.clustering;
    auto outcome = core::QueryExpander(index, options).ExpandText(r.query);
    EXPECT_TRUE(outcome.ok()) << Label(r);
    out += Label(r) + "\n";
    out += (outcome.ok() ? server::RenderOutcomeTail(*outcome)
                         : outcome.status().ToString()) +
           "\n";
  }
  return out;
}

TEST(GoldenExpansionTest, ClusteredCorpusMatchesGoldenFile) {
  const std::string actual = RenderAll();
  const char* update = std::getenv("QEC_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(kGoldenFile, std::ios::binary) << actual;
    GTEST_SKIP() << "rewrote " << kGoldenFile;
  }
  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << kGoldenFile;
  std::stringstream expected;
  expected << in.rdbuf();
  // Compare line by line so a failure names the request that moved.
  std::istringstream want(expected.str()), got(actual);
  std::string want_line, got_line;
  size_t line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line)) << "output ends at line " << line;
    EXPECT_EQ(got_line, want_line) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra output: " << got_line;
}

}  // namespace
}  // namespace qec
