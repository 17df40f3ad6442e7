// The per-request front half pinned in absolute terms: the result
// universe's term table, candidate selection and ranked top-k search, each
// against a test-local reference that builds the same answer the plain
// way (hash maps, a full sort, a full ranking), over seeded random corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dynamic_bitset.h"
#include "common/random.h"
#include "core/candidates.h"
#include "core/result_universe.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"

namespace qec {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// A corpus over terms "t0".."t<vocab-1>" (interned in that order, so
/// TermId i is "t<i>") with `docs` documents of random length and term
/// frequencies; some documents are empty. A small vocabulary and short
/// documents make equal tf, df and scores common.
doc::Corpus RandomTermCorpus(Rng& rng, size_t docs, size_t vocab) {
  doc::Corpus corpus;
  for (size_t t = 0; t < vocab; ++t) {
    corpus.analyzer().InternVerbatim("t" + std::to_string(t));
  }
  for (size_t d = 0; d < docs; ++d) {
    std::vector<TermId> terms;
    const size_t length = rng.Bernoulli(0.1) ? 0 : 1 + rng.UniformInt(10);
    for (size_t i = 0; i < length; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformInt(vocab)));
    }
    corpus.RestoreDocument(doc::DocumentKind::kText, "d" + std::to_string(d),
                           std::move(terms), {});
  }
  return corpus;
}

/// Random results over `corpus`: 0, 1 or many documents, in random order,
/// with scores that include ties, zeros and negatives (clamped by the
/// universe).
std::vector<index::RankedResult> RandomResults(Rng& rng,
                                               const doc::Corpus& corpus) {
  std::vector<DocId> ids(corpus.NumDocs());
  for (DocId d = 0; d < ids.size(); ++d) ids[d] = d;
  rng.Shuffle(ids);
  const size_t shape = rng.UniformInt(5);
  const size_t n = shape == 0   ? 0
                   : shape == 1 ? 1
                                : 1 + rng.UniformInt(ids.size());
  std::vector<index::RankedResult> results;
  for (size_t i = 0; i < n && i < ids.size(); ++i) {
    const double score = rng.Bernoulli(0.1)   ? -1.0
                         : rng.Bernoulli(0.3) ? 2.0
                                              : rng.UniformDouble() * 5.0;
    results.push_back(index::RankedResult{ids[i], score});
  }
  return results;
}

/// The universe's term data as it was built before the term table: one
/// hash-map entry per distinct term, filled document by document.
struct ReferenceUniverse {
  std::unordered_map<TermId, DynamicBitset> docs;
  std::unordered_map<TermId, int> tf;
  std::vector<TermId> distinct;
  double total_weight = 0.0;

  ReferenceUniverse(const doc::Corpus& corpus, const std::vector<DocId>& ids,
                    const std::vector<double>& weights) {
    for (double w : weights) total_weight += w;
    for (size_t i = 0; i < ids.size(); ++i) {
      const doc::Document& d = corpus.Get(ids[i]);
      for (TermId t : d.term_set()) {
        docs.try_emplace(t, ids.size()).first->second.Set(i);
        tf[t] += d.TermFrequency(t);
      }
    }
    for (const auto& [t, bits] : docs) distinct.push_back(t);
    std::sort(distinct.begin(), distinct.end());
  }
};

void ExpectUniverseMatches(const core::ResultUniverse& universe,
                           const ReferenceUniverse& want, size_t vocab) {
  ASSERT_EQ(universe.DistinctTerms(), want.distinct);
  EXPECT_TRUE(SameBits(universe.total_weight(), want.total_weight));
  const cluster::TermTable& table = universe.term_table();
  EXPECT_EQ(table.num_points, universe.size());
  EXPECT_EQ(table.terms, want.distinct);
  for (size_t local = 0; local < want.distinct.size(); ++local) {
    const TermId t = want.distinct[local];
    const DynamicBitset& bits = want.docs.at(t);
    EXPECT_EQ(universe.DocsWithTerm(t), bits) << "term " << t;
    EXPECT_EQ(universe.TotalTermFrequency(t), want.tf.at(t)) << "term " << t;
    EXPECT_EQ(universe.LocalTermFrequency(local), want.tf.at(t));
    EXPECT_EQ(universe.LocalDocumentFrequency(local), bits.Count());
  }
  // Terms no result holds: in the vocabulary, past it, and the sentinel.
  std::vector<TermId> absent = {static_cast<TermId>(vocab),
                                static_cast<TermId>(vocab + 7),
                                kInvalidTermId};
  for (TermId t = 0; t < vocab; ++t) {
    if (want.docs.count(t) == 0) absent.push_back(t);
  }
  for (TermId t : absent) {
    EXPECT_EQ(universe.DocsWithTerm(t), DynamicBitset(universe.size()))
        << "term " << t;
    EXPECT_EQ(universe.TotalTermFrequency(t), 0) << "term " << t;
  }
}

// ------------------------------------------------------- universe table

class UniverseTableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniverseTableProperty, MatchesHashMapBuild) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const size_t vocab = 1 + rng.UniformInt(rng.Bernoulli(0.5) ? 8 : 300);
    const doc::Corpus corpus =
        RandomTermCorpus(rng, 1 + rng.UniformInt(80), vocab);
    std::vector<index::RankedResult> results = RandomResults(rng, corpus);
    // Now and then a document twice, as a caller-built list may hold.
    if (!results.empty() && rng.Bernoulli(0.2)) {
      results.push_back(results[rng.UniformInt(results.size())]);
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + " results " +
                 std::to_string(results.size()));
    std::vector<DocId> ids;
    std::vector<double> clamped;
    for (const auto& r : results) {
      ids.push_back(r.doc);
      clamped.push_back(r.score > 1e-9 ? r.score : 1e-9);
    }

    // Ranked weights.
    ExpectUniverseMatches(core::ResultUniverse(corpus, results),
                          ReferenceUniverse(corpus, ids, clamped), vocab);
    // Unit weights.
    ExpectUniverseMatches(
        core::ResultUniverse(corpus, ids),
        ReferenceUniverse(corpus, ids, std::vector<double>(ids.size(), 1.0)),
        vocab);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniverseTableProperty,
                         ::testing::Range<uint64_t>(1, 21));

TEST(UniverseTableTest, EmptyAndSingleResultUniverses) {
  Rng rng(7);
  const doc::Corpus corpus = RandomTermCorpus(rng, 10, 12);
  const core::ResultUniverse empty(corpus, std::vector<DocId>{});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.DistinctTerms().empty());
  EXPECT_EQ(empty.term_table().num_entries(), 0u);
  EXPECT_EQ(empty.DocsWithTerm(0).size(), 0u);
  EXPECT_EQ(empty.total_weight(), 0.0);

  DocId nonempty = 0;
  while (corpus.Get(nonempty).term_set().empty()) ++nonempty;
  const core::ResultUniverse one(corpus, {index::RankedResult{nonempty, 3.5}});
  EXPECT_EQ(one.DistinctTerms(), corpus.Get(nonempty).term_set());
  for (size_t local = 0; local < one.DistinctTerms().size(); ++local) {
    EXPECT_EQ(one.LocalDocumentFrequency(local), 1u);
    EXPECT_EQ(one.LocalTermFrequency(local),
              corpus.Get(nonempty).term_counts()[local]);
  }
  EXPECT_EQ(one.total_weight(), 3.5);
}

// --------------------------------------------------- candidate selection

/// SelectCandidates as a full sort of every scored term.
std::vector<TermId> ReferenceCandidates(const ReferenceUniverse& universe,
                                        size_t n,
                                        const index::InvertedIndex& index,
                                        const std::vector<TermId>& user_query,
                                        const core::CandidateOptions& options,
                                        size_t* ties) {
  std::vector<std::pair<double, TermId>> scored;
  for (TermId t : universe.distinct) {
    if (std::count(user_query.begin(), user_query.end(), t) != 0) continue;
    if (options.drop_universal_terms && universe.docs.at(t).Count() == n) {
      continue;
    }
    scored.emplace_back(
        static_cast<double>(universe.tf.at(t)) * index.Idf(t), t);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (size_t i = 1; i < scored.size(); ++i) {
    if (scored[i].first == scored[i - 1].first) ++*ties;
  }
  size_t keep = static_cast<size_t>(
      std::ceil(options.fraction * static_cast<double>(scored.size())));
  keep = std::min(keep, scored.size());
  if (options.max_candidates > 0) keep = std::min(keep, options.max_candidates);
  std::vector<TermId> out;
  for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].second);
  return out;
}

class CandidateSelectionProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CandidateSelectionProperty, MatchesFullSortReference) {
  Rng rng(GetParam());
  size_t ties = 0;
  size_t universal_dropped = 0;
  size_t capped = 0;
  for (int iter = 0; iter < 25; ++iter) {
    const size_t vocab = 2 + rng.UniformInt(rng.Bernoulli(0.5) ? 10 : 120);
    const doc::Corpus corpus =
        RandomTermCorpus(rng, 1 + rng.UniformInt(60), vocab);
    const index::InvertedIndex index(corpus);
    // Half the universes are a query's results, like the served ones:
    // every result holds the query term, so it is universal.
    const std::vector<index::RankedResult> results =
        rng.Bernoulli(0.5)
            ? index.Search({static_cast<TermId>(rng.UniformInt(vocab))}, 0)
            : RandomResults(rng, corpus);
    std::vector<DocId> ids;
    for (const auto& r : results) ids.push_back(r.doc);
    const core::ResultUniverse universe(corpus, results);
    const ReferenceUniverse reference(corpus, ids,
                                      std::vector<double>(ids.size(), 1.0));

    std::vector<TermId> user_query;
    const size_t query_size = rng.UniformInt(4);
    for (size_t i = 0; i < query_size; ++i) {
      user_query.push_back(static_cast<TermId>(rng.UniformInt(vocab + 2)));
    }
    core::CandidateOptions options;
    const double fractions[] = {0.2, 0.5, 1.0, rng.UniformDouble()};
    options.fraction = fractions[rng.UniformInt(4)];
    const size_t caps[] = {0, 1, 3, 1000};
    options.max_candidates = caps[rng.UniformInt(4)];
    options.drop_universal_terms = rng.Bernoulli(0.5);
    SCOPED_TRACE("iter " + std::to_string(iter));

    const std::vector<TermId> got =
        core::SelectCandidates(universe, index, user_query, options);
    const std::vector<TermId> want = ReferenceCandidates(
        reference, ids.size(), index, user_query, options, &ties);
    ASSERT_EQ(got, want);

    // The selection's edges: keep nothing, and keep every scored term.
    for (const double fraction : {0.0, 1.0}) {
      core::CandidateOptions edge = options;
      edge.fraction = fraction;
      edge.max_candidates = 0;
      size_t edge_ties = 0;
      const std::vector<TermId> edge_got =
          core::SelectCandidates(universe, index, user_query, edge);
      ASSERT_EQ(edge_got, ReferenceCandidates(reference, ids.size(), index,
                                              user_query, edge, &edge_ties))
          << fraction;
      if (fraction == 0.0) {
        ASSERT_TRUE(edge_got.empty());
      }
    }

    core::CandidateOptions all = options;
    all.fraction = 1.0;
    all.max_candidates = 0;
    const size_t scored =
        core::SelectCandidates(universe, index, user_query, all).size();
    if (options.max_candidates > 0 && got.size() == options.max_candidates &&
        got.size() < scored) {
      ++capped;
    }
    if (options.drop_universal_terms && !ids.empty()) {
      all.drop_universal_terms = false;
      universal_dropped +=
          core::SelectCandidates(universe, index, user_query, all).size() -
          scored;
    }
  }
  // The seeds must reach the cases the reference exists for.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(universal_dropped, 0u);
  EXPECT_GT(capped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSelectionProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ------------------------------------------------------------ top-k search

class SearchTopKProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchTopKProperty, TopKIsPrefixOfFullRanking) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    // Three terms, tf 1 or 2: most matching documents tie on score.
    const doc::Corpus corpus = RandomTermCorpus(rng, 20 + rng.UniformInt(200),
                                                3);
    index::InvertedIndex index(corpus);
    std::vector<TermId> terms = {static_cast<TermId>(rng.UniformInt(3))};
    if (rng.Bernoulli(0.5)) terms.push_back(static_cast<TermId>(rng.UniformInt(3)));
    for (bool permuted : {false, true}) {
      if (permuted) {
        std::vector<DocId> ids(corpus.NumDocs());
        for (DocId d = 0; d < ids.size(); ++d) ids[d] = d;
        rng.Shuffle(ids);
        index.SetExternalIds(ids);
      }
      SCOPED_TRACE("iter " + std::to_string(iter) +
                   (permuted ? " permuted" : " identity"));
      const std::vector<index::RankedResult> full = index.Search(terms, 0);
      const size_t n = full.size();
      ASSERT_EQ(n, index.EvaluateAnd(terms).size());
      size_t ties = 0;
      for (size_t i = 0; i < n; ++i) {
        // Absolute: each score is TfIdfScore, and the order is score
        // descending, then external id ascending.
        EXPECT_TRUE(
            SameBits(full[i].score, index.TfIdfScore(terms, full[i].doc)));
        if (i == 0) continue;
        const auto& a = full[i - 1];
        const auto& b = full[i];
        ASSERT_TRUE(a.score > b.score ||
                    (a.score == b.score &&
                     index.ExternalId(a.doc) < index.ExternalId(b.doc)));
        ties += a.score == b.score ? 1 : 0;
      }
      if (n > 2) {
        EXPECT_GT(ties, 0u);
      }
      for (size_t k : {size_t{1}, size_t{30}, n, n + 1}) {
        const std::vector<index::RankedResult> top = index.Search(terms, k);
        const std::vector<index::RankedResult> want(
            full.begin(), full.begin() + static_cast<long>(std::min(k, n)));
        ASSERT_EQ(top, want) << "k " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchTopKProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace qec
