// Property-based suites: randomized invariants checked across seeds with
// parameterized gtest. Each property pins down a contract the rest of the
// library silently relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/doc_reorder.h"
#include "cluster/hac.h"
#include "cluster/kmeans.h"
#include "cluster/point_set.h"
#include "cluster/sparse_vector.h"
#include "common/dynamic_bitset.h"
#include "common/random.h"
#include "common/simd_kernels.h"
#include "core/metrics.h"
#include "core/query_expander.h"
#include "core/result_universe.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"
#include "text/tokenizer.h"
#include "xml/xml.h"

namespace qec {
namespace {

// ----------------------------------------------------------------- bitset

/// DynamicBitset against a std::vector<bool> reference model.
class BitsetModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsetModelProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  const size_t size = 1 + rng.UniformInt(300);
  DynamicBitset a(size), b(size);
  std::vector<bool> ma(size, false), mb(size, false);
  for (int op = 0; op < 200; ++op) {
    size_t i = rng.UniformInt(size);
    switch (rng.UniformInt(6)) {
      case 0:
        a.Set(i);
        ma[i] = true;
        break;
      case 1:
        a.Reset(i);
        ma[i] = false;
        break;
      case 2:
        b.Set(i);
        mb[i] = true;
        break;
      case 3: {
        DynamicBitset c = a;
        c &= b;
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] && mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        ASSERT_EQ(a.AndCount(b), expect);
        break;
      }
      case 4: {
        DynamicBitset c = a;
        c |= b;
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] || mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        break;
      }
      case 5: {
        DynamicBitset c = a;
        c.AndNot(b);
        size_t expect = 0;
        for (size_t j = 0; j < size; ++j) expect += (ma[j] && !mb[j]) ? 1 : 0;
        ASSERT_EQ(c.Count(), expect);
        break;
      }
    }
  }
  // Final full comparison.
  for (size_t j = 0; j < size; ++j) {
    ASSERT_EQ(a.Test(j), ma[j]) << j;
    ASSERT_EQ(b.Test(j), mb[j]) << j;
  }
  // Subset/intersect consistency.
  DynamicBitset inter = a;
  inter &= b;
  EXPECT_EQ(a.Intersects(b), inter.Any());
  EXPECT_EQ(inter.IsSubsetOf(a), true);
  EXPECT_EQ(inter.IsSubsetOf(b), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetModelProperty,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------- metrics

class MetricsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsProperty, FMeasureBetweenMinAndMaxOfPrecisionRecall) {
  Rng rng(GetParam());
  doc::Corpus corpus;
  std::vector<DocId> ids;
  const size_t docs = 4 + rng.UniformInt(12);
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    if (rng.Bernoulli(0.5)) body += " red";
    if (rng.Bernoulli(0.5)) body += " blue";
    ids.push_back(corpus.AddTextDocument(std::to_string(d), body));
  }
  core::ResultUniverse universe(corpus, ids);
  DynamicBitset cluster(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) cluster.Set(i);
  }
  DynamicBitset retrieved(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) retrieved.Set(i);
  }
  core::QueryQuality q = core::EvaluateQuery(universe, retrieved, cluster);
  EXPECT_GE(q.precision, 0.0);
  EXPECT_LE(q.precision, 1.0);
  EXPECT_GE(q.recall, 0.0);
  EXPECT_LE(q.recall, 1.0);
  if (q.precision > 0.0 && q.recall > 0.0) {
    EXPECT_GE(q.f_measure, std::min(q.precision, q.recall) - 1e-12);
    EXPECT_LE(q.f_measure, std::max(q.precision, q.recall) + 1e-12);
  } else {
    EXPECT_DOUBLE_EQ(q.f_measure, 0.0);
  }
}

TEST_P(MetricsProperty, WeightScaleInvariance) {
  // Multiplying every ranking score by a constant cannot change P/R/F.
  Rng rng(GetParam() + 100);
  doc::Corpus corpus;
  std::vector<index::RankedResult> r1, r2;
  const size_t docs = 4 + rng.UniformInt(10);
  const double scale = 0.5 + rng.UniformDouble() * 9.5;
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    if (rng.Bernoulli(0.6)) body += " red";
    DocId id = corpus.AddTextDocument(std::to_string(d), body);
    double w = 0.1 + rng.UniformDouble() * 5.0;
    r1.push_back({id, w});
    r2.push_back({id, w * scale});
  }
  core::ResultUniverse u1(corpus, r1), u2(corpus, r2);
  DynamicBitset cluster(docs);
  for (size_t i = 0; i < docs; ++i) {
    if (rng.Bernoulli(0.5)) cluster.Set(i);
  }
  TermId red = corpus.analyzer().vocabulary().Lookup("red");
  DynamicBitset retrieved1 = u1.Retrieve({red});
  DynamicBitset retrieved2 = u2.Retrieve({red});
  core::QueryQuality a = core::EvaluateQuery(u1, retrieved1, cluster);
  core::QueryQuality b = core::EvaluateQuery(u2, retrieved2, cluster);
  EXPECT_NEAR(a.precision, b.precision, 1e-9);
  EXPECT_NEAR(a.recall, b.recall, 1e-9);
  EXPECT_NEAR(a.f_measure, b.f_measure, 1e-9);
}

TEST_P(MetricsProperty, AndRetrievalIsAntitone) {
  // Adding a keyword never grows the AND result set; dually for OR.
  Rng rng(GetParam() + 200);
  doc::Corpus corpus;
  std::vector<DocId> ids;
  const size_t docs = 5 + rng.UniformInt(10);
  for (size_t d = 0; d < docs; ++d) {
    std::string body = "q";
    for (const char* w : {"red", "blue", "green"}) {
      if (rng.Bernoulli(0.5)) body += std::string(" ") + w;
    }
    ids.push_back(corpus.AddTextDocument(std::to_string(d), body));
  }
  core::ResultUniverse universe(corpus, ids);
  auto T = [&](const char* w) {
    return corpus.analyzer().vocabulary().Lookup(w);
  };
  std::vector<TermId> q = {T("q")};
  DynamicBitset prev = universe.Retrieve(q);
  for (const char* w : {"red", "blue", "green"}) {
    TermId t = T(w);
    if (t == kInvalidTermId) continue;
    q.push_back(t);
    DynamicBitset next = universe.Retrieve(q);
    EXPECT_TRUE(next.IsSubsetOf(prev));
    prev = next;
  }
  std::vector<TermId> oq;
  DynamicBitset oprev = universe.RetrieveOr(oq);
  for (const char* w : {"red", "blue", "green"}) {
    TermId t = T(w);
    if (t == kInvalidTermId) continue;
    oq.push_back(t);
    DynamicBitset onext = universe.RetrieveOr(oq);
    EXPECT_TRUE(oprev.IsSubsetOf(onext));
    oprev = onext;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range<uint64_t>(1, 16));

// -------------------------------------------------------------- tokenizer

class TokenizerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerProperty, TokenizingJoinedTokensIsIdempotent) {
  Rng rng(GetParam());
  // Random printable soup.
  std::string soup;
  const size_t len = 5 + rng.UniformInt(200);
  const std::string alphabet =
      "abcXYZ019 .,;!-_#()[]{}\t\n\"'/\\@$%^&*";
  for (size_t i = 0; i < len; ++i) {
    soup += alphabet[rng.UniformInt(alphabet.size())];
  }
  text::Tokenizer tokenizer;
  std::vector<std::string> once = tokenizer.Tokenize(soup);
  std::string joined;
  for (const auto& t : once) joined += t + " ";
  std::vector<std::string> twice = tokenizer.Tokenize(joined);
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerProperty,
                         ::testing::Range<uint64_t>(1, 21));

// -------------------------------------------------------------------- XML

class XmlRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<xml::XmlNode> RandomTree(Rng& rng, int depth) {
  auto node = xml::XmlNode::Element("n" + std::to_string(rng.UniformInt(5)));
  if (rng.Bernoulli(0.5)) {
    node->SetAttribute("a" + std::to_string(rng.UniformInt(3)),
                       "v<&\"'" + std::to_string(rng.UniformInt(100)));
  }
  const size_t children = depth > 0 ? rng.UniformInt(4) : 0;
  bool last_was_text = false;  // adjacent text nodes coalesce on reparse
  for (size_t c = 0; c < children; ++c) {
    if (!last_was_text && rng.Bernoulli(0.4)) {
      node->AddChild(xml::XmlNode::Text(
          "text & <stuff> #" + std::to_string(rng.UniformInt(100))));
      last_was_text = true;
    } else {
      node->AddChild(RandomTree(rng, depth - 1));
      last_was_text = false;
    }
  }
  return node;
}

void ExpectSameTree(const xml::XmlNode& a, const xml::XmlNode& b) {
  ASSERT_EQ(a.kind(), b.kind());
  if (a.is_text()) {
    EXPECT_EQ(a.text(), b.text());
    return;
  }
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.attributes(), b.attributes());
  ASSERT_EQ(a.children().size(), b.children().size());
  for (size_t i = 0; i < a.children().size(); ++i) {
    ExpectSameTree(*a.children()[i], *b.children()[i]);
  }
}

TEST_P(XmlRoundTripProperty, WriteParseRoundTrip) {
  Rng rng(GetParam());
  auto tree = RandomTree(rng, 4);
  std::string serialized = xml::WriteNode(*tree);
  auto parsed = xml::Parse(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << serialized;
  ExpectSameTree(*tree, *parsed->root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------- snapshot

/// Snapshot round-trip property over random corpora: expansion results
/// from an index-build → serialize → load pipeline are identical to the
/// purely in-memory build, on mixed text/structured documents.
class SnapshotExpansionProperty : public ::testing::TestWithParam<uint64_t> {};

doc::Corpus RandomCorpus(Rng& rng) {
  static const char* kWords[] = {"apple", "camera", "java",   "store",
                                 "island", "coffee", "screen", "lens",
                                 "zoom",  "fruit",  "cider",  "review"};
  constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  doc::Corpus corpus;
  const size_t docs = 8 + rng.UniformInt(30);
  for (size_t d = 0; d < docs; ++d) {
    if (rng.Bernoulli(0.3)) {
      std::vector<doc::Feature> features;
      const size_t n = 1 + rng.UniformInt(4);
      for (size_t f = 0; f < n; ++f) {
        features.push_back({kWords[rng.UniformInt(kNumWords)],
                            kWords[rng.UniformInt(kNumWords)],
                            kWords[rng.UniformInt(kNumWords)]});
      }
      corpus.AddStructuredDocument("doc" + std::to_string(d),
                                   std::move(features));
    } else {
      std::string body;
      const size_t words = 5 + rng.UniformInt(40);
      for (size_t w = 0; w < words; ++w) {
        body += kWords[rng.UniformInt(kNumWords)];
        body += ' ';
      }
      corpus.AddTextDocument("doc" + std::to_string(d), body);
    }
  }
  return corpus;
}

TEST_P(SnapshotExpansionProperty, LoadedExpansionEqualsInMemory) {
  Rng rng(GetParam());
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);
  auto snapshot =
      storage::DeserializeSnapshot(storage::SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  core::QueryExpanderOptions options;
  options.algorithm = rng.Bernoulli(0.5) ? core::ExpansionAlgorithm::kIskr
                                         : core::ExpansionAlgorithm::kPebc;
  core::QueryExpander in_memory(index, options);
  core::QueryExpander loaded(*snapshot->index, options);
  for (const char* query : {"apple", "camera", "java coffee"}) {
    auto a = in_memory.ExpandText(query);
    auto b = loaded.ExpandText(query);
    ASSERT_EQ(a.ok(), b.ok()) << query;
    if (!a.ok()) continue;
    EXPECT_DOUBLE_EQ(a->set_score, b->set_score) << query;
    ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
    for (size_t i = 0; i < a->queries.size(); ++i) {
      EXPECT_EQ(a->queries[i].terms, b->queries[i].terms);
      EXPECT_EQ(a->queries[i].keywords, b->queries[i].keywords);
      EXPECT_DOUBLE_EQ(a->queries[i].quality.f_measure,
                       b->queries[i].quality.f_measure);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotExpansionProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------- fused kernels

/// Every fused set-algebra kernel must be byte/sum-identical to the naive
/// materialize-then-count/weigh formulation it replaced. 40 seeds × 25
/// random universes per seed = 1000 universes, with exact (==) equality —
/// the fused weighted sums visit doc ids in the same ascending order as
/// TotalWeight over the materialized set, so even the doubles must match
/// bit for bit.
class FusedKernelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedKernelProperty, KernelsMatchNaiveFormulation) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const size_t size = 1 + rng.UniformInt(300);
    doc::Corpus corpus;
    std::vector<index::RankedResult> results;
    for (size_t d = 0; d < size; ++d) {
      DocId id = corpus.AddTextDocument(std::to_string(d), "t");
      results.push_back({id, 0.05 + rng.UniformDouble() * 4.0});
    }
    core::ResultUniverse universe(corpus, results);
    auto random_bits = [&] {
      DynamicBitset bits(size);
      for (size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(0.4)) bits.Set(i);
      }
      return bits;
    };
    const DynamicBitset a = random_bits();
    const DynamicBitset b = random_bits();
    const DynamicBitset c = random_bits();
    const DynamicBitset d = random_bits();

    // Count kernels against the materializing formulation.
    DynamicBitset a_andnot_b = a;
    a_andnot_b.AndNot(b);
    ASSERT_EQ(a.AndNotCount(b), a_andnot_b.Count());
    DynamicBitset abc = a;
    abc &= b;
    abc &= c;
    ASSERT_EQ(a.AndCount3(b, c), abc.Count());
    ASSERT_EQ(a.Intersects(b, c), abc.Any());
    DynamicBitset anb_c = a_andnot_b;
    anb_c &= c;
    ASSERT_EQ(a.AndNotAndCount(b, c), anb_c.Count());
    ASSERT_EQ(a.None(), a.Count() == 0);

    // Weighted kernels: exact equality, not EXPECT_NEAR.
    DynamicBitset ab = a;
    ab &= b;
    ASSERT_EQ(universe.WeightOfAnd(a, b), universe.TotalWeight(ab));
    ASSERT_EQ(universe.WeightOfAndNot(a, b), universe.TotalWeight(a_andnot_b));
    ASSERT_EQ(universe.WeightOfAndNotAnd(a, b, c),
              universe.TotalWeight(anb_c));
    DynamicBitset four = anb_c;
    four.AndNot(d);
    ASSERT_EQ(universe.WeightWhere(
                  [](uint64_t wa, uint64_t wb, uint64_t wc, uint64_t wd) {
                    return wa & ~wb & wc & ~wd;
                  },
                  a, b, c, d),
              universe.TotalWeight(four));
  }
}

TEST_P(FusedKernelProperty, RetrieveIntoMatchesRetrieve) {
  Rng rng(GetParam() + 1000);
  doc::Corpus corpus = RandomCorpus(rng);
  std::vector<DocId> ids;
  for (DocId d = 0; d < corpus.NumDocs(); ++d) ids.push_back(d);
  core::ResultUniverse universe(corpus, ids);
  static const char* kWords[] = {"apple", "camera", "java", "store", "coffee"};
  DynamicBitset scratch(0);  // Reused across queries: capacity must not leak.
  for (int q = 0; q < 10; ++q) {
    std::vector<TermId> query;
    const size_t len = 1 + rng.UniformInt(3);
    for (size_t i = 0; i < len; ++i) {
      TermId t = corpus.analyzer().vocabulary().Lookup(
          kWords[rng.UniformInt(sizeof(kWords) / sizeof(kWords[0]))]);
      if (t != kInvalidTermId) query.push_back(t);
    }
    universe.RetrieveInto(query, &scratch);
    ASSERT_EQ(scratch, universe.Retrieve(query));
    if (!query.empty()) {
      TermId excluded = query[rng.UniformInt(query.size())];
      universe.RetrieveWithoutInto(query, excluded, &scratch);
      std::vector<TermId> without;
      for (TermId t : query) {
        if (t != excluded) without.push_back(t);
      }
      ASSERT_EQ(scratch, universe.Retrieve(without));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedKernelProperty,
                         ::testing::Range<uint64_t>(1, 41));

// ---------------------------------------------------------- ranged kernels

/// The WordRange-restricted kernels must be EXACTLY the full kernels
/// whenever the skipped words are provably zero in the positively-ANDed
/// operands: skipping an all-zero word removes no term from the popcount
/// or weighted sum, so even the doubles match bit for bit. This is what
/// lets the sharded benefit/cost sweeps stay byte-identical to the serial
/// single-universe path.
class RangedKernelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangedKernelProperty, RangedKernelsMatchFullKernels) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const size_t size = 1 + rng.UniformInt(500);
    doc::Corpus corpus;
    std::vector<index::RankedResult> results;
    for (size_t d = 0; d < size; ++d) {
      DocId id = corpus.AddTextDocument(std::to_string(d), "t");
      results.push_back({id, 0.05 + rng.UniformDouble() * 4.0});
    }
    core::ResultUniverse universe(corpus, results);
    // Sparse operands concentrated in a sub-span, mimicking a shard-local
    // cluster; b stays dense (it plays the ~docs_k complement role, which
    // must never restrict the scan range).
    auto span_bits = [&] {
      DynamicBitset bits(size);
      const size_t lo = rng.UniformInt(size);
      const size_t hi = lo + rng.UniformInt(size - lo);
      for (size_t i = lo; i <= hi && i < size; ++i) {
        if (rng.Bernoulli(0.3)) bits.Set(i);
      }
      return bits;
    };
    const DynamicBitset a = span_bits();
    DynamicBitset b(size);
    for (size_t i = 0; i < size; ++i) {
      if (rng.Bernoulli(0.5)) b.Set(i);
    }
    const DynamicBitset c = span_bits();

    const WordRange scan =
        WordRange::Intersect(a.NonzeroWordRange(), c.NonzeroWordRange());
    ASSERT_EQ(universe.WeightOfAndNotAnd(a, b, c, scan),
              universe.WeightOfAndNotAnd(a, b, c));
    ASSERT_EQ(a.Intersects(b, c, scan), a.Intersects(b, c));
    ASSERT_EQ(a.AndNotCount(b, a.NonzeroWordRange()), a.AndNotCount(b));

    // NonzeroWordRange brackets every set bit.
    const WordRange nz = a.NonzeroWordRange();
    ASSERT_EQ(nz.empty(), a.None());
    for (size_t i = 0; i < size; ++i) {
      if (a.Test(i)) {
        ASSERT_GE(i / 64, nz.begin);
        ASSERT_LT(i / 64, nz.end);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangedKernelProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ----------------------------------------------------------- kernel tiers

/// Mirror of FusedKernelProperty across dispatch tiers: every count,
/// predicate, and weighted kernel must return EXACTLY the same value under
/// the scalar and AVX2 tables. The kernels are integer/boolean (the
/// weighted folds stay scalar; the unit-weight shortcut routes through the
/// count kernels, where an in-order sum of k ones is exactly k), so this
/// is == equality, not a tolerance.
class KernelTierProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelTierProperty, TiersAgreeExactly) {
  if (!simd::Avx2Supported()) GTEST_SKIP() << "no AVX2 on this host";
  const simd::KernelTier original = simd::ActiveTier();
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const size_t size = 1 + rng.UniformInt(700);
    doc::Corpus corpus;
    std::vector<index::RankedResult> results;
    const bool unit_weights = rng.Bernoulli(0.5);
    for (size_t d = 0; d < size; ++d) {
      DocId id = corpus.AddTextDocument(std::to_string(d), "t");
      results.push_back(
          {id, unit_weights ? 1.0 : 0.05 + rng.UniformDouble() * 4.0});
    }
    core::ResultUniverse universe(corpus, results);
    auto random_bits = [&] {
      DynamicBitset bits(size);
      for (size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(0.4)) bits.Set(i);
      }
      return bits;
    };
    const DynamicBitset a = random_bits();
    const DynamicBitset b = random_bits();
    const DynamicBitset c = random_bits();
    const WordRange nz = a.NonzeroWordRange();

    struct Probe {
      size_t count, and3, andnot, andnotand, ranged;
      bool any, i2, i3, none;
      double w_and, w_andnot, w_andnotand, w_ranged;
    };
    auto probe = [&](simd::KernelTier tier) {
      EXPECT_TRUE(simd::SetTier(tier));
      Probe p;
      p.count = a.Count();
      p.and3 = a.AndCount3(b, c);
      p.andnot = a.AndNotCount(b);
      p.andnotand = a.AndNotAndCount(b, c);
      p.ranged = a.AndNotCount(b, nz);
      p.any = a.Any();
      p.i2 = a.Intersects(b);
      p.i3 = a.Intersects(b, c);
      p.none = a.None();
      p.w_and = universe.WeightOfAnd(a, b);
      p.w_andnot = universe.WeightOfAndNot(a, b);
      p.w_andnotand = universe.WeightOfAndNotAnd(a, b, c);
      p.w_ranged = universe.WeightOfAndNotAnd(
          a, b, c, WordRange::Intersect(nz, c.NonzeroWordRange()));
      return p;
    };
    const Probe scalar = probe(simd::KernelTier::kScalar);
    const Probe avx2 = probe(simd::KernelTier::kAvx2);
    ASSERT_EQ(scalar.count, avx2.count);
    ASSERT_EQ(scalar.and3, avx2.and3);
    ASSERT_EQ(scalar.andnot, avx2.andnot);
    ASSERT_EQ(scalar.andnotand, avx2.andnotand);
    ASSERT_EQ(scalar.ranged, avx2.ranged);
    ASSERT_EQ(scalar.any, avx2.any);
    ASSERT_EQ(scalar.i2, avx2.i2);
    ASSERT_EQ(scalar.i3, avx2.i3);
    ASSERT_EQ(scalar.none, avx2.none);
    ASSERT_EQ(scalar.w_and, avx2.w_and);
    ASSERT_EQ(scalar.w_andnot, avx2.w_andnot);
    ASSERT_EQ(scalar.w_andnotand, avx2.w_andnotand);
    ASSERT_EQ(scalar.w_ranged, avx2.w_ranged);
  }
  simd::SetTier(original);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTierProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------------------ doc reorder

/// The tentpole byte-identity contract: cluster-reordering doc ids, then
/// rebuilding the index (with the permutation installed as external ids)
/// and running scatter-gather sweeps, must reproduce the seed serial
/// single-universe expansion EXACTLY — same terms, same keywords, and
/// bit-identical doubles — for every algorithm.
class ReorderExpansionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderExpansionProperty, ReorderedShardedExpansionIsByteIdentical) {
  Rng rng(GetParam());
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);

  const std::vector<DocId> order = cluster::ComputeClusterOrder(corpus);
  doc::Corpus reordered = cluster::ReorderCorpus(corpus, order);
  ASSERT_EQ(reordered.NumDocs(), corpus.NumDocs());
  // Re-interning preserved the vocabulary bit for bit.
  ASSERT_EQ(reordered.analyzer().vocabulary().size(),
            corpus.analyzer().vocabulary().size());
  index::InvertedIndex reordered_index(reordered);
  reordered_index.SetExternalIds(order);

  for (auto algorithm :
       {core::ExpansionAlgorithm::kIskr, core::ExpansionAlgorithm::kPebc,
        core::ExpansionAlgorithm::kFMeasure}) {
    core::QueryExpanderOptions serial_options;
    serial_options.algorithm = algorithm;
    core::QueryExpanderOptions sharded_options = serial_options;
    sharded_options.sweep.threads = 4;

    core::QueryExpander seed_path(index, serial_options);
    core::QueryExpander sharded_path(reordered_index, sharded_options);
    for (const char* query : {"apple", "camera", "java coffee", "store"}) {
      auto a = seed_path.ExpandText(query);
      auto b = sharded_path.ExpandText(query);
      ASSERT_EQ(a.ok(), b.ok()) << query;
      if (!a.ok()) continue;
      ASSERT_EQ(a->set_score, b->set_score) << query;  // exact, not NEAR
      ASSERT_EQ(a->num_clusters, b->num_clusters) << query;
      ASSERT_EQ(a->num_results_used, b->num_results_used) << query;
      ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
      for (size_t i = 0; i < a->queries.size(); ++i) {
        ASSERT_EQ(a->queries[i].terms, b->queries[i].terms) << query;
        ASSERT_EQ(a->queries[i].keywords, b->queries[i].keywords) << query;
        ASSERT_EQ(a->queries[i].quality.precision,
                  b->queries[i].quality.precision);
        ASSERT_EQ(a->queries[i].quality.recall, b->queries[i].quality.recall);
        ASSERT_EQ(a->queries[i].quality.f_measure,
                  b->queries[i].quality.f_measure);
        ASSERT_EQ(a->queries[i].iterations, b->queries[i].iterations);
        ASSERT_EQ(a->queries[i].value_recomputations,
                  b->queries[i].value_recomputations);
      }
    }
  }
}

TEST_P(ReorderExpansionProperty, ReorderedSnapshotRoundTripIsByteIdentical) {
  // Same contract through the full persistence pipeline: serialize the
  // reordered index with its PERM section, load it back, expand.
  Rng rng(GetParam() + 4000);
  doc::Corpus corpus = RandomCorpus(rng);
  index::InvertedIndex index(corpus);

  const std::vector<DocId> order = cluster::ComputeClusterOrder(corpus);
  doc::Corpus reordered = cluster::ReorderCorpus(corpus, order);
  index::InvertedIndex reordered_index(reordered);
  auto snapshot = storage::DeserializeSnapshot(
      storage::SerializeSnapshot(reordered_index, order));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->external_ids, order);

  core::QueryExpanderOptions options;
  options.algorithm = core::ExpansionAlgorithm::kIskr;
  options.sweep.threads = 4;
  core::QueryExpander seed_path(index, options);
  core::QueryExpander loaded_path(*snapshot->index, options);
  for (const char* query : {"apple", "camera", "java coffee"}) {
    auto a = seed_path.ExpandText(query);
    auto b = loaded_path.ExpandText(query);
    ASSERT_EQ(a.ok(), b.ok()) << query;
    if (!a.ok()) continue;
    ASSERT_EQ(a->set_score, b->set_score) << query;
    ASSERT_EQ(a->queries.size(), b->queries.size()) << query;
    for (size_t i = 0; i < a->queries.size(); ++i) {
      ASSERT_EQ(a->queries[i].terms, b->queries[i].terms) << query;
      ASSERT_EQ(a->queries[i].keywords, b->queries[i].keywords) << query;
      ASSERT_EQ(a->queries[i].quality.f_measure,
                b->queries[i].quality.f_measure);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderExpansionProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ------------------------------------------------------- clustering kernel

/// Test-local reference for the clustering kernel: the merge-walk sparse
/// arithmetic (dot, norm, cosine, AddScaled centroids) and the k-means,
/// HAC and per-clustering silhouette loops as they ran before clustering
/// moved onto cluster::PointSet. The library must match it bit for bit.
namespace ref {

using cluster::Clustering;
using cluster::SparseVector;
using Entries = std::vector<std::pair<TermId, double>>;

Entries Of(const SparseVector& v) {
  return Entries(v.entries().begin(), v.entries().end());
}

double Dot(const Entries& a, const Entries& b) {
  double sum = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      sum += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  return sum;
}

double Norm(const Entries& v) {
  double sq = 0.0;
  for (const auto& [t, w] : v) sq += w * w;
  return std::sqrt(sq);
}

double Cosine(const Entries& a, const Entries& b) {
  double na = Norm(a);
  double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

/// a += scale * b, dropping entries that cancel to zero.
void AddScaled(Entries* a, const Entries& b, double scale) {
  Entries merged;
  size_t i = 0, j = 0;
  while (i < a->size() || j < b.size()) {
    if (j >= b.size() || (i < a->size() && (*a)[i].first < b[j].first)) {
      merged.push_back((*a)[i++]);
    } else if (i >= a->size() || b[j].first < (*a)[i].first) {
      merged.emplace_back(b[j].first, scale * b[j].second);
      ++j;
    } else {
      double w = (*a)[i].second + scale * b[j].second;
      if (w != 0.0) merged.emplace_back((*a)[i].first, w);
      ++i;
      ++j;
    }
  }
  *a = std::move(merged);
}

void Normalize(Entries* v) {
  double n = Norm(*v);
  if (n > 0.0) {
    for (auto& [t, w] : *v) w *= 1.0 / n;
  }
}

double CosineDistance(const Entries& a, const Entries& b) {
  return 1.0 - Cosine(a, b);
}

std::vector<size_t> SeedPlusPlus(const std::vector<Entries>& points, size_t k,
                                 Rng& rng) {
  std::vector<size_t> seeds;
  seeds.push_back(static_cast<size_t>(rng.UniformInt(points.size())));
  std::vector<double> best_dist(points.size(),
                                std::numeric_limits<double>::infinity());
  while (seeds.size() < k) {
    const Entries& last = points[seeds.back()];
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      double d = CosineDistance(points[i], last);
      best_dist[i] = std::min(best_dist[i], d * d);
      total += best_dist[i];
    }
    if (total <= 0.0) {
      seeds.push_back(seeds.size() % points.size());
      continue;
    }
    double target = rng.UniformDouble() * total;
    size_t chosen = points.size() - 1;
    double acc = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += best_dist[i];
      if (acc >= target) {
        chosen = i;
        break;
      }
    }
    seeds.push_back(chosen);
  }
  return seeds;
}

Clustering ClusterWithK(const std::vector<Entries>& points,
                        const cluster::KMeansOptions& options, size_t k_arg,
                        size_t* iterations) {
  Clustering result;
  const size_t n = points.size();
  result.assignment.assign(n, 0);
  if (n == 0) return result;
  const size_t k = std::min(k_arg == 0 ? size_t{1} : k_arg, n);
  if (k == 1) {
    result.num_clusters = 1;
    return result;
  }
  if (k == n) {
    for (size_t i = 0; i < n; ++i) result.assignment[i] = static_cast<int>(i);
    result.num_clusters = n;
    return result;
  }
  Rng rng(options.seed);
  std::vector<Entries> centroids;
  for (size_t s : SeedPlusPlus(points, k, rng)) {
    centroids.push_back(points[s]);
    Normalize(&centroids.back());
  }
  std::vector<int> assignment(n, -1);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++*iterations;
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centroids.size(); ++c) {
        double d = CosineDistance(points[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    std::vector<Entries> next(centroids.size());
    std::vector<size_t> counts(centroids.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      size_t c = static_cast<size_t>(assignment[i]);
      AddScaled(&next[c], points[i], 1.0);
      counts[c]++;
    }
    for (size_t c = 0; c < next.size(); ++c) {
      if (counts[c] == 0) {
        next[c] = centroids[c];
      } else {
        Normalize(&next[c]);
      }
    }
    centroids = std::move(next);
  }
  std::vector<int> remap(centroids.size(), -1);
  int next_label = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t c = static_cast<size_t>(assignment[i]);
    if (remap[c] == -1) remap[c] = next_label++;
  }
  for (size_t i = 0; i < n; ++i) {
    result.assignment[i] = remap[static_cast<size_t>(assignment[i])];
  }
  result.num_clusters = static_cast<size_t>(next_label);
  return result;
}

double MeanSilhouette(const std::vector<Entries>& points,
                      const Clustering& clustering) {
  const size_t n = points.size();
  if (n == 0 || clustering.num_clusters < 2) return 0.0;
  const size_t k = clustering.num_clusters;
  std::vector<size_t> cluster_size(k, 0);
  for (int a : clustering.assignment) cluster_size[static_cast<size_t>(a)]++;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t own = static_cast<size_t>(clustering.assignment[i]);
    if (cluster_size[own] <= 1) continue;
    std::vector<double> dist_sum(k, 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dist_sum[static_cast<size_t>(clustering.assignment[j])] +=
          CosineDistance(points[i], points[j]);
    }
    const double a = dist_sum[own] / static_cast<double>(cluster_size[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (c == own || cluster_size[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(cluster_size[c]));
    }
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n);
}

Clustering KMeansCluster(const std::vector<Entries>& points,
                         const cluster::KMeansOptions& options,
                         size_t* iterations) {
  const size_t n = points.size();
  const size_t k_max = std::min(options.k == 0 ? size_t{1} : options.k, n);
  if (!options.auto_k || n <= 2 || k_max <= 1) {
    return ClusterWithK(points, options, k_max, iterations);
  }
  Clustering best = ClusterWithK(points, options, 1, iterations);
  double best_score = 0.0;
  for (size_t k = 2; k <= k_max; ++k) {
    Clustering candidate = ClusterWithK(points, options, k, iterations);
    if (candidate.num_clusters < 2) continue;
    double score = MeanSilhouette(points, candidate);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = std::move(candidate);
    }
  }
  return best;
}

/// Average-link agglomeration over the full cosine dissimilarity matrix.
class Agglomerator {
 public:
  explicit Agglomerator(const std::vector<Entries>& points)
      : n_(points.size()), active_(n_, true), size_(n_, 1),
        dist_(n_ * n_, 0.0), members_(n_) {
    for (size_t i = 0; i < n_; ++i) {
      members_[i] = {i};
      for (size_t j = i + 1; j < n_; ++j) {
        double d = 1.0 - Cosine(points[i], points[j]);
        dist_[i * n_ + j] = d;
        dist_[j * n_ + i] = d;
      }
    }
    active_count_ = n_;
  }

  size_t num_active() const { return active_count_; }

  bool MergeClosest() {
    if (active_count_ < 2) return false;
    size_t best_a = 0, best_b = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < n_; ++a) {
      if (!active_[a]) continue;
      for (size_t b = a + 1; b < n_; ++b) {
        if (!active_[b]) continue;
        if (dist_[a * n_ + b] < best_d) {
          best_d = dist_[a * n_ + b];
          best_a = a;
          best_b = b;
        }
      }
    }
    const double wa = static_cast<double>(size_[best_a]);
    const double wb = static_cast<double>(size_[best_b]);
    for (size_t c = 0; c < n_; ++c) {
      if (!active_[c] || c == best_a || c == best_b) continue;
      double d = (wa * dist_[best_a * n_ + c] + wb * dist_[best_b * n_ + c]) /
                 (wa + wb);
      dist_[best_a * n_ + c] = d;
      dist_[c * n_ + best_a] = d;
    }
    size_[best_a] += size_[best_b];
    active_[best_b] = false;
    --active_count_;
    members_[best_a].insert(members_[best_a].end(), members_[best_b].begin(),
                            members_[best_b].end());
    members_[best_b].clear();
    return true;
  }

  Clustering Snapshot() const {
    Clustering out;
    out.assignment.assign(n_, 0);
    int next = 0;
    for (size_t c = 0; c < n_; ++c) {
      if (!active_[c]) continue;
      for (size_t i : members_[c]) out.assignment[i] = next;
      ++next;
    }
    out.num_clusters = static_cast<size_t>(next);
    return out;
  }

 private:
  size_t n_;
  std::vector<bool> active_;
  size_t active_count_ = 0;
  std::vector<size_t> size_;
  std::vector<double> dist_;
  std::vector<std::vector<size_t>> members_;
};

Clustering HacCluster(const std::vector<Entries>& points,
                      const cluster::HacOptions& options) {
  const size_t n = points.size();
  const size_t k_max = std::min(options.k == 0 ? size_t{1} : options.k,
                                std::max<size_t>(n, 1));
  if (n == 0) return Clustering();
  Agglomerator agg(points);
  if (!options.auto_k || n <= 2 || k_max <= 1) {
    while (agg.num_active() > std::max<size_t>(1, k_max)) {
      if (!agg.MergeClosest()) break;
    }
    return agg.Snapshot();
  }
  while (agg.num_active() > k_max) {
    if (!agg.MergeClosest()) break;
  }
  Clustering best = agg.Snapshot();
  double best_score =
      best.num_clusters >= 2 ? MeanSilhouette(points, best) : 0.0;
  while (agg.num_active() > 2) {
    if (!agg.MergeClosest()) break;
    Clustering cut = agg.Snapshot();
    double score = MeanSilhouette(points, cut);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = std::move(cut);
    }
  }
  if (best_score <= 0.0) {
    Clustering one;
    one.assignment.assign(n, 0);
    one.num_clusters = 1;
    return one;
  }
  return best;
}

Clustering SelectBest(const std::vector<Entries>& points, size_t k_max,
                      uint64_t seed, cluster::ClusteringMethod* chosen) {
  cluster::KMeansOptions kopts;
  kopts.k = k_max;
  kopts.seed = seed;
  kopts.auto_k = true;
  size_t iterations = 0;
  Clustering kmeans = KMeansCluster(points, kopts, &iterations);
  cluster::HacOptions hopts;
  hopts.k = k_max;
  hopts.auto_k = true;
  Clustering hac = HacCluster(points, hopts);
  const double kmeans_score = MeanSilhouette(points, kmeans);
  const double hac_score = MeanSilhouette(points, hac);
  if (hac_score > kmeans_score) {
    *chosen = cluster::ClusteringMethod::kHac;
    return hac;
  }
  *chosen = cluster::ClusteringMethod::kKMeans;
  return kmeans;
}

}  // namespace ref

/// Bitwise equality of two doubles (distinguishes 0.0 from -0.0).
::testing::AssertionResult SameBits(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " != " << b << std::defaultfloat;
}

// The sparse-vector expectations below moved here from cluster_test.cc
// when the library's merge-walk arithmetic was deleted: they now pin the
// reference the exactness property trusts, and the PointSet kernel that
// replaced it.

TEST(SparseVectorTest, DotProduct) {
  ref::Entries a = {{1, 2.0}, {3, 1.0}};
  ref::Entries b = {{1, 4.0}, {2, 5.0}, {3, 3.0}};
  EXPECT_DOUBLE_EQ(ref::Dot(a, b), 2.0 * 4.0 + 1.0 * 3.0);
  EXPECT_DOUBLE_EQ(ref::Dot(a, {}), 0.0);
  // The kernel's column walk and dense gather see the same dot product.
  cluster::PointSet set({cluster::SparseVector(a), cluster::SparseVector(b)});
  std::vector<double> dots(set.size(), 0.0);
  set.AddDots(0, dots.data());
  EXPECT_EQ(dots[1], 11.0);
  std::vector<double> dense(set.dim(), 0.0);
  set.AddTo(1, dense.data());
  EXPECT_TRUE(SameBits(set.DistanceTo(0, dense.data(), set.norm(1)),
                       ref::CosineDistance(a, b)));
  EXPECT_TRUE(SameBits(set.Distance(0, 1, dots[1]), ref::CosineDistance(a, b)));
}

TEST(SparseVectorTest, NormAndNormalize) {
  ref::Entries v = {{0, 3.0}, {1, 4.0}};
  EXPECT_DOUBLE_EQ(ref::Norm(v), 5.0);
  EXPECT_DOUBLE_EQ(cluster::SparseVector(v).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(cluster::PointSet({cluster::SparseVector(v)}).norm(0), 5.0);
  ref::Normalize(&v);
  EXPECT_NEAR(ref::Norm(v), 1.0, 1e-12);
  ref::Entries zero;
  ref::Normalize(&zero);  // must not crash
  EXPECT_TRUE(zero.empty());
}

TEST(SparseVectorTest, CosineBounds) {
  ref::Entries a = {{1, 1.0}};
  ref::Entries b = {{1, 7.0}};
  ref::Entries c = {{2, 1.0}};
  EXPECT_NEAR(ref::Cosine(a, b), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(ref::Cosine(a, c), 0.0);
  EXPECT_DOUBLE_EQ(ref::Cosine(a, {}), 0.0);
  // Kernel distances: parallel ~0, disjoint and zero-vector exactly 1.
  cluster::PointSet set({cluster::SparseVector(a), cluster::SparseVector(b),
                         cluster::SparseVector(c), cluster::SparseVector()});
  std::vector<double> dense(set.dim(), 0.0);
  set.AddTo(0, dense.data());
  EXPECT_NEAR(set.DistanceTo(1, dense.data(), set.norm(0)), 0.0, 1e-12);
  EXPECT_EQ(set.DistanceTo(2, dense.data(), set.norm(0)), 1.0);
  EXPECT_EQ(set.DistanceTo(3, dense.data(), set.norm(0)), 1.0);
}

TEST(SparseVectorTest, AddScaledMergesDisjointAndOverlap) {
  ref::Entries a = {{1, 1.0}, {2, 1.0}};
  ref::AddScaled(&a, {{2, 2.0}, {3, 4.0}}, 0.5);
  EXPECT_EQ(a, (ref::Entries{{1, 1.0}, {2, 2.0}, {3, 2.0}}));
}

TEST(SparseVectorTest, AddScaledCancellationDropsEntry) {
  ref::Entries a = {{1, 1.0}};
  ref::AddScaled(&a, {{1, 1.0}}, -1.0);
  EXPECT_TRUE(a.empty());
}

/// The PointSet kernel (dense centroids, cached norms, one silhouette pass
/// for every k) against the reference, over seeded point sets that mix
/// TF-like and fractional weights and cover the edge cases: all-zero
/// vectors, duplicate points, k >= n, n <= 2 and disjoint vocabularies.
/// Assignments must be equal and silhouettes bitwise equal.
class ClusteringExactnessProperty
    : public ::testing::TestWithParam<uint64_t> {};

std::vector<cluster::SparseVector> RandomPointSet(Rng& rng) {
  const size_t shape = rng.UniformInt(6);
  const size_t n = shape == 0 ? rng.UniformInt(3)  // n <= 2
                              : 3 + rng.UniformInt(shape == 5 ? 60 : 30);
  const size_t vocab = 1 + rng.UniformInt(shape == 1 ? 6 : 80);
  const bool fractional = rng.Bernoulli(0.5);
  const size_t groups = 1 + rng.UniformInt(4);
  std::vector<cluster::SparseVector> points;
  for (size_t i = 0; i < n; ++i) {
    if (shape == 2 && rng.Bernoulli(0.25)) {
      points.emplace_back();  // all-zero vector
      continue;
    }
    if (shape == 3 && i > 0 && rng.Bernoulli(0.4)) {
      points.push_back(points[rng.UniformInt(points.size())]);  // duplicate
      continue;
    }
    // Shape 4 gives each group its own disjoint slice of the vocabulary.
    const TermId offset =
        shape == 4 ? static_cast<TermId>(rng.UniformInt(groups) * vocab) : 0;
    std::vector<std::pair<TermId, double>> entries;
    const size_t len = 1 + rng.UniformInt(12);
    for (size_t e = 0; e < len; ++e) {
      const double w = fractional ? 0.01 + rng.UniformDouble() * 3.0
                                  : static_cast<double>(1 + rng.UniformInt(4));
      entries.emplace_back(offset + static_cast<TermId>(rng.UniformInt(vocab)),
                           w);
    }
    points.emplace_back(std::move(entries));
  }
  return points;
}

TEST_P(ClusteringExactnessProperty, KernelMatchesMergeWalkReference) {
  Rng rng(GetParam());
#ifndef QEC_DISABLE_TRACING
  obs::Counter* iterations = obs::MetricsRegistry::Global().GetCounter(
      "cluster/kmeans_iterations");
#endif
  for (int iter = 0; iter < 20; ++iter) {
    const std::vector<cluster::SparseVector> points = RandomPointSet(rng);
    std::vector<ref::Entries> ref_points;
    for (const auto& p : points) ref_points.push_back(ref::Of(p));
    const size_t n = points.size();
    const size_t k = 1 + rng.UniformInt(n + 3);  // often k >= n
    const uint64_t seed = rng.Next();
    SCOPED_TRACE("iter " + std::to_string(iter) + " n " + std::to_string(n) +
                 " k " + std::to_string(k));
    const cluster::PointSet point_set(points);

    for (bool auto_k : {false, true}) {
      cluster::KMeansOptions options;
      options.k = k;
      options.seed = seed;
      options.auto_k = auto_k;
      size_t ref_iterations = 0;
      const cluster::Clustering want =
          ref::KMeansCluster(ref_points, options, &ref_iterations);
#ifndef QEC_DISABLE_TRACING
      const uint64_t before = iterations->value();
#endif
      const cluster::Clustering got = cluster::KMeans(options).Cluster(points);
#ifndef QEC_DISABLE_TRACING
      EXPECT_EQ(iterations->value() - before, ref_iterations) << auto_k;
#endif
      ASSERT_EQ(got.assignment, want.assignment) << auto_k;
      ASSERT_EQ(got.num_clusters, want.num_clusters) << auto_k;
      const double want_score = ref::MeanSilhouette(ref_points, want);
      EXPECT_TRUE(SameBits(cluster::MeanSilhouette(points, got), want_score));
      double reported = -2.0;
      cluster::KMeans(options).Cluster(point_set, &reported);
      EXPECT_TRUE(SameBits(reported, want_score)) << auto_k;

      cluster::HacOptions hac_options;
      hac_options.k = k;
      hac_options.auto_k = auto_k;
      const cluster::Clustering want_hac =
          ref::HacCluster(ref_points, hac_options);
      const cluster::Clustering got_hac =
          cluster::Hac(hac_options).Cluster(point_set, &reported);
      ASSERT_EQ(got_hac.assignment, want_hac.assignment) << auto_k;
      ASSERT_EQ(got_hac.num_clusters, want_hac.num_clusters) << auto_k;
      EXPECT_TRUE(
          SameBits(reported, ref::MeanSilhouette(ref_points, want_hac)));
    }

    cluster::ClusteringMethod want_method, got_method;
    const cluster::Clustering want_best =
        ref::SelectBest(ref_points, k, seed, &want_method);
    const cluster::Clustering got_best =
        cluster::SelectBestClustering(points, k, seed, &got_method);
    ASSERT_EQ(got_best.assignment, want_best.assignment);
    EXPECT_EQ(got_method, want_method);

    // Arbitrary labelings, scored together in one pass and one at a time.
    std::vector<cluster::Clustering> labelings(3);
    for (cluster::Clustering& c : labelings) {
      c.num_clusters = 1 + rng.UniformInt(std::max<size_t>(n, 1));
      for (size_t i = 0; i < n; ++i) {
        c.assignment.push_back(static_cast<int>(rng.UniformInt(c.num_clusters)));
      }
    }
    const std::vector<double> scores =
        cluster::MeanSilhouettes(point_set, labelings);
    for (size_t q = 0; q < labelings.size(); ++q) {
      const double want_score = ref::MeanSilhouette(ref_points, labelings[q]);
      EXPECT_TRUE(SameBits(scores[q], want_score)) << q;
      EXPECT_TRUE(
          SameBits(cluster::MeanSilhouette(points, labelings[q]), want_score));
    }
  }
}

/// The engine's PointSet comes from the result universe's term table; the
/// public SparseVector overloads build theirs from the vectors. On the same
/// documents both must hold the same points bit for bit (norms, every dot
/// product and distance, against the merge-walk reference too) and drive
/// k-means, HAC and the dynamic choice to the same outcome, iteration
/// counts included.
TEST_P(ClusteringExactnessProperty, UniverseTableMatchesVectors) {
  Rng rng(GetParam() + 1000);
#ifndef QEC_DISABLE_TRACING
  obs::Counter* iterations = obs::MetricsRegistry::Global().GetCounter(
      "cluster/kmeans_iterations");
#endif
  for (int iter = 0; iter < 20; ++iter) {
    // One document per point; a weight w becomes a term frequency of
    // ceil(w) (fractional shapes round up to whole counts).
    const std::vector<cluster::SparseVector> shapes = RandomPointSet(rng);
    doc::Corpus corpus;
    TermId max_term = 0;
    for (const auto& p : shapes) {
      for (const auto& [t, w] : p.entries()) max_term = std::max(max_term, t);
    }
    for (TermId t = 0; t <= max_term; ++t) {
      corpus.analyzer().InternVerbatim("t" + std::to_string(t));
    }
    for (const auto& p : shapes) {
      std::vector<TermId> terms;
      for (const auto& [t, w] : p.entries()) {
        terms.insert(terms.end(), static_cast<size_t>(std::ceil(w)), t);
      }
      rng.Shuffle(terms);
      corpus.RestoreDocument(doc::DocumentKind::kText, "d", std::move(terms),
                             {});
    }
    // The universe lists the documents in a random order, as a ranking does.
    std::vector<DocId> order(corpus.NumDocs());
    for (DocId d = 0; d < order.size(); ++d) order[d] = d;
    rng.Shuffle(order);
    const core::ResultUniverse universe(corpus, order);
    std::vector<cluster::SparseVector> vectors;
    std::vector<ref::Entries> ref_points;
    for (size_t i = 0; i < universe.size(); ++i) {
      vectors.push_back(
          cluster::SparseVector::FromDocument(corpus.Get(universe.doc_at(i))));
      ref_points.push_back(ref::Of(vectors.back()));
    }
    const size_t n = vectors.size();
    SCOPED_TRACE("iter " + std::to_string(iter) + " n " + std::to_string(n));
    const cluster::PointSet from_table(universe.term_table());
    const cluster::PointSet from_vectors(vectors);

    ASSERT_EQ(from_table.size(), n);
    ASSERT_EQ(from_table.dim(), from_vectors.dim());
    std::vector<double> centroid(from_table.dim(), 0.0);
    for (size_t i = 0; i < n; i += 2) from_table.AddTo(i, centroid.data());
    double centroid_sq = 0.0;
    for (double w : centroid) centroid_sq += w * w;
    const double centroid_norm = std::sqrt(centroid_sq);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(from_table.norm(i), from_vectors.norm(i)));
      EXPECT_TRUE(SameBits(from_table.norm(i), ref::Norm(ref_points[i])));
      std::vector<double> dots_table(n, 0.0), dots_vectors(n, 0.0);
      from_table.AddDots(i, dots_table.data());
      from_vectors.AddDots(i, dots_vectors.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(SameBits(dots_table[j], dots_vectors[j])) << i << "," << j;
        ASSERT_TRUE(
            SameBits(dots_table[j], ref::Dot(ref_points[i], ref_points[j])));
        ASSERT_TRUE(SameBits(from_table.Distance(i, j, dots_table[j]),
                             from_vectors.Distance(i, j, dots_vectors[j])));
      }
      EXPECT_TRUE(
          SameBits(from_table.DistanceTo(i, centroid.data(), centroid_norm),
                   from_vectors.DistanceTo(i, centroid.data(), centroid_norm)));
    }

    const size_t k = 1 + rng.UniformInt(n + 3);
    const uint64_t seed = rng.Next();
    for (bool auto_k : {false, true}) {
      cluster::KMeansOptions options;
      options.k = k;
      options.seed = seed;
      options.auto_k = auto_k;
      double table_score = -2.0, vectors_score = -3.0;
#ifndef QEC_DISABLE_TRACING
      const uint64_t before_table = iterations->value();
#endif
      const cluster::Clustering a =
          cluster::KMeans(options).Cluster(from_table, &table_score);
#ifndef QEC_DISABLE_TRACING
      const uint64_t table_iterations = iterations->value() - before_table;
      const uint64_t before_vectors = iterations->value();
#endif
      const cluster::Clustering b =
          cluster::KMeans(options).Cluster(from_vectors, &vectors_score);
#ifndef QEC_DISABLE_TRACING
      EXPECT_EQ(iterations->value() - before_vectors, table_iterations);
#endif
      ASSERT_EQ(a.assignment, b.assignment) << auto_k;
      ASSERT_EQ(a.num_clusters, b.num_clusters) << auto_k;
      EXPECT_TRUE(SameBits(table_score, vectors_score)) << auto_k;

      cluster::HacOptions hac_options;
      hac_options.k = k;
      hac_options.auto_k = auto_k;
      const cluster::Clustering ha =
          cluster::Hac(hac_options).Cluster(from_table, &table_score);
      const cluster::Clustering hb =
          cluster::Hac(hac_options).Cluster(from_vectors, &vectors_score);
      ASSERT_EQ(ha.assignment, hb.assignment) << auto_k;
      EXPECT_TRUE(SameBits(table_score, vectors_score)) << auto_k;
    }
    cluster::ClusteringMethod table_method, vectors_method;
    const cluster::Clustering best_table =
        cluster::SelectBestClustering(from_table, k, seed, &table_method);
    const cluster::Clustering best_vectors =
        cluster::SelectBestClustering(vectors, k, seed, &vectors_method);
    ASSERT_EQ(best_table.assignment, best_vectors.assignment);
    EXPECT_EQ(table_method, vectors_method);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringExactnessProperty,
                         ::testing::Range<uint64_t>(1, 26));

// ------------------------------------------------- once-per-request work

/// The silhouette pass computes each unordered pair once and adds it to
/// both rows, k-means auto-k seeds once for the largest k, and the update
/// step normalises every centroid in one pass. Each must leave exactly the
/// bits of the per-row, per-k, per-centroid code it replaced.
class OncePerRequestProperty : public ::testing::TestWithParam<uint64_t> {};

/// RandomPointSet, and now and then a tiny set (n = 0..3) that mixes
/// zero-norm and duplicate points.
std::vector<cluster::SparseVector> RandomOrTinyPointSet(Rng& rng) {
  if (!rng.Bernoulli(0.25)) return RandomPointSet(rng);
  const cluster::SparseVector x({{1, 2.0}, {4, 0.5}});
  const cluster::SparseVector y({{2, 1.5}, {4, 3.0}});
  const cluster::SparseVector pool[] = {x, y, cluster::SparseVector(), x};
  std::vector<cluster::SparseVector> points;
  const size_t n = rng.UniformInt(4);
  for (size_t i = 0; i < n; ++i) points.push_back(pool[rng.UniformInt(4)]);
  return points;
}

/// Labelings of n points, some with singletons, unused labels or a single
/// cluster.
std::vector<cluster::Clustering> RandomLabelings(Rng& rng, size_t n) {
  std::vector<cluster::Clustering> labelings(1 + rng.UniformInt(8));
  for (cluster::Clustering& c : labelings) {
    c.num_clusters = 1 + rng.UniformInt(n + 2);
    const size_t used = 1 + rng.UniformInt(c.num_clusters);
    for (size_t i = 0; i < n; ++i) {
      c.assignment.push_back(static_cast<int>(rng.UniformInt(used)));
    }
  }
  return labelings;
}

TEST_P(OncePerRequestProperty, LaterDotsAreTheUpperRowsOfAddDots) {
  Rng rng(GetParam() + 2000);
  for (int iter = 0; iter < 20; ++iter) {
    const std::vector<cluster::SparseVector> points = RandomOrTinyPointSet(rng);
    const cluster::PointSet set(points);
    const size_t n = set.size();
    SCOPED_TRACE("iter " + std::to_string(iter) + " n " + std::to_string(n));
    cluster::PointSet::LaterDots later(set);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> all(n, 0.0), upper(n, 0.0);
      set.AddDots(i, all.data());
      later.Add(i, upper.data());
      for (size_t j = 0; j < n; ++j) {
        // Points up to i are left untouched: exactly +0.0.
        ASSERT_TRUE(SameBits(upper[j], j > i ? all[j] : 0.0)) << i << "," << j;
        if (j > i) {
          ASSERT_TRUE(SameBits(set.Distance(i, j, upper[j]),
                               set.Distance(j, i, upper[j])));
        }
      }
    }
  }
}

TEST_P(OncePerRequestProperty, SilhouettesMatchSeparateCallsAndReference) {
  Rng rng(GetParam() + 3000);
  size_t scored = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const std::vector<cluster::SparseVector> points = RandomOrTinyPointSet(rng);
    std::vector<ref::Entries> ref_points;
    for (const auto& p : points) ref_points.push_back(ref::Of(p));
    const cluster::PointSet set(points);
    const size_t n = set.size();
    SCOPED_TRACE("iter " + std::to_string(iter) + " n " + std::to_string(n));
    const std::vector<cluster::Clustering> labelings = RandomLabelings(rng, n);
    const std::vector<double> together =
        cluster::MeanSilhouettes(set, labelings);
    ASSERT_EQ(together.size(), labelings.size());
    for (size_t q = 0; q < labelings.size(); ++q) {
      const double want = ref::MeanSilhouette(ref_points, labelings[q]);
      const double alone = cluster::MeanSilhouettes(set, {&labelings[q], 1})[0];
      EXPECT_TRUE(SameBits(together[q], want)) << q;
      EXPECT_TRUE(SameBits(alone, want)) << q;
      if (want != 0.0) ++scored;
    }
  }
  EXPECT_GT(scored, 0u);  // not every score is the neutral 0
}

TEST_P(OncePerRequestProperty, AutoKMatchesPerKRunsScoredTogether) {
  Rng rng(GetParam() + 4000);
#ifndef QEC_DISABLE_TRACING
  obs::Counter* iterations = obs::MetricsRegistry::Global().GetCounter(
      "cluster/kmeans_iterations");
#endif
  for (int iter = 0; iter < 20; ++iter) {
    const std::vector<cluster::SparseVector> points = RandomOrTinyPointSet(rng);
    const cluster::PointSet set(points);
    const size_t n = set.size();
    cluster::KMeansOptions options;
    options.k = 1 + rng.UniformInt(8);
    options.seed = rng.Next();
    options.auto_k = true;
    const size_t k_max = std::min(options.k, n);
    SCOPED_TRACE("iter " + std::to_string(iter) + " n " + std::to_string(n) +
                 " k " + std::to_string(options.k));

#ifndef QEC_DISABLE_TRACING
    const uint64_t before = iterations->value();
#endif
    double got_score = -2.0;
    const cluster::Clustering got =
        cluster::KMeans(options).Cluster(set, &got_score);
#ifndef QEC_DISABLE_TRACING
    const uint64_t got_iterations = iterations->value() - before;
#endif

    // One auto_k = false run per k, then one silhouette pass over them.
    cluster::KMeansOptions fixed = options;
    fixed.auto_k = false;
    std::vector<cluster::Clustering> per_k;
#ifndef QEC_DISABLE_TRACING
    const uint64_t before_per_k = iterations->value();
#endif
    if (n <= 2 || k_max <= 1) {
      fixed.k = options.k;
      per_k.push_back(cluster::KMeans(fixed).Cluster(set));
    } else {
      for (size_t k = 1; k <= k_max; ++k) {
        fixed.k = k;
        per_k.push_back(cluster::KMeans(fixed).Cluster(set));
      }
    }
#ifndef QEC_DISABLE_TRACING
    EXPECT_EQ(got_iterations, iterations->value() - before_per_k);
#endif
    const std::vector<double> scores = cluster::MeanSilhouettes(set, per_k);
    size_t best = 0;
    for (size_t c = 1; c < per_k.size(); ++c) {
      if (scores[c] > scores[best] + 1e-12) best = c;
    }
    ASSERT_EQ(got.assignment, per_k[best].assignment);
    ASSERT_EQ(got.num_clusters, per_k[best].num_clusters);
    EXPECT_TRUE(SameBits(got_score, scores[best]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OncePerRequestProperty,
                         ::testing::Range<uint64_t>(1, 13));

/// Duplicate or zero-norm seeds leave a centroid that wins no point: the
/// update step keeps it, and its norm, while the live centroids are
/// normalised around it.
TEST(OncePerRequestTest, EmptyCentroidIsKeptAsTheReferenceKeepsIt) {
  Rng rng(77);
  size_t emptied = 0;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<cluster::SparseVector> points;
    auto random_vector = [&rng] {
      std::vector<std::pair<TermId, double>> entries;
      const size_t len = 1 + rng.UniformInt(6);
      for (size_t e = 0; e < len; ++e) {
        entries.emplace_back(static_cast<TermId>(rng.UniformInt(20)),
                             0.01 + rng.UniformDouble() * 3.0);
      }
      return cluster::SparseVector(std::move(entries));
    };
    // Copies of x, one y, sometimes an all-zero point, sometimes only
    // zero points: fewer distinct points than k, so k-means++ runs out of
    // new ones and falls back to seeding a point by index, a duplicate of
    // an earlier seed, whose centroid then wins no point.
    const cluster::SparseVector x = random_vector();
    const size_t copies = 3 + rng.UniformInt(3);
    for (size_t i = 0; i < copies; ++i) points.push_back(x);
    points.push_back(random_vector());
    if (rng.Bernoulli(0.5)) points.emplace_back();
    if (rng.Bernoulli(0.25)) {
      for (auto& p : points) p = cluster::SparseVector();  // all zero-norm
    }
    std::vector<ref::Entries> ref_points;
    for (const auto& p : points) ref_points.push_back(ref::Of(p));

    cluster::KMeansOptions options;
    options.k = 3 + rng.UniformInt(points.size() - 3);  // 3 <= k < n
    options.seed = rng.Next();
    options.auto_k = rng.Bernoulli(0.5);
    SCOPED_TRACE("iter " + std::to_string(iter));
    size_t ref_iterations = 0;
    const cluster::Clustering want =
        ref::KMeansCluster(ref_points, options, &ref_iterations);
    double got_score = -2.0;
    const cluster::Clustering got =
        cluster::KMeans(options).Cluster(cluster::PointSet(points), &got_score);
    ASSERT_EQ(got.assignment, want.assignment);
    ASSERT_EQ(got.num_clusters, want.num_clusters);
    EXPECT_TRUE(SameBits(got_score, ref::MeanSilhouette(ref_points, want)));
    if (!options.auto_k && got.num_clusters < options.k) ++emptied;
  }
  EXPECT_GT(emptied, 0u);
}

/// A request's bound on k must not grow the silhouette pass's n x clusters
/// array: clusterings that together exceed kMaxSilhouetteSums are scored in
/// several passes, one that alone exceeds it in a pass of its own, and
/// every score keeps the bits of a separate call.
TEST(OncePerRequestTest, ManyClustersSplitIntoBoundedPasses) {
  Rng rng(91);
  std::vector<cluster::SparseVector> points;
  for (size_t i = 0; i < 300; ++i) {
    std::vector<std::pair<TermId, double>> entries;
    const size_t len = 1 + rng.UniformInt(8);
    for (size_t e = 0; e < len; ++e) {
      entries.emplace_back(static_cast<TermId>(rng.UniformInt(60)),
                           0.01 + rng.UniformDouble() * 3.0);
    }
    points.emplace_back(std::move(entries));
  }
  const cluster::PointSet set(points);
  const size_t n = set.size();
  const size_t max_width = cluster::kMaxSilhouetteSums / n;
  // k = 2..90 (4,094 clusters in all), one wider than a pass alone (its
  // labels mostly unused), then k = 2..30 again.
  std::vector<size_t> ks;
  for (size_t k = 2; k <= 90; ++k) ks.push_back(k);
  ks.push_back(max_width + 7);
  for (size_t k = 2; k <= 30; ++k) ks.push_back(k);
  std::vector<cluster::Clustering> labelings;
  for (size_t k : ks) {
    cluster::Clustering c;
    c.num_clusters = k;
    const size_t used = std::min(k, n / 2);
    for (size_t i = 0; i < n; ++i) {
      c.assignment.push_back(static_cast<int>(rng.UniformInt(used)));
    }
    labelings.push_back(std::move(c));
  }
  // Greedy passes: clusterings in order while their clusters fit.
  size_t passes = 0;
  for (size_t q = 0, width = 0; q < ks.size(); ++q) {
    if (q == 0 || width + ks[q] > max_width) {
      ++passes;
      width = 0;
    }
    width += ks[q];
  }
  ASSERT_GE(passes, 4u);

#ifndef QEC_DISABLE_TRACING
  obs::Counter* distances = obs::MetricsRegistry::Global().GetCounter(
      "cluster/silhouette_distances");
  const uint64_t before = distances->value();
#endif
  const std::vector<double> together = cluster::MeanSilhouettes(set, labelings);
#ifndef QEC_DISABLE_TRACING
  EXPECT_EQ(distances->value() - before, passes * (n * (n - 1) / 2));
#endif
  ASSERT_EQ(together.size(), labelings.size());
  size_t scored = 0;
  for (size_t q = 0; q < labelings.size(); ++q) {
    const double alone = cluster::MeanSilhouettes(set, {&labelings[q], 1})[0];
    EXPECT_TRUE(SameBits(together[q], alone)) << "k " << ks[q];
    if (alone != 0.0) ++scored;
  }
  EXPECT_EQ(scored, labelings.size());
}

// -------------------------------------------------------------------- idf

/// Idf() reads a table built with the index; it must hold the formula's
/// bits for every term, and ids past the table take the formula.
TEST(IdfTableTest, MatchesFormulaForEveryTermAndOutOfVocabularyIds) {
  Rng rng(5);
  doc::Corpus corpus;
  const size_t vocab = 40;
  for (size_t t = 0; t < vocab; ++t) {
    corpus.analyzer().InternVerbatim("t" + std::to_string(t));
  }
  for (size_t d = 0; d < 60; ++d) {
    std::vector<TermId> terms;
    const size_t length = 1 + rng.UniformInt(8);
    // Terms 30.. stay in the vocabulary but in no document: df = 0.
    for (size_t i = 0; i < length; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformInt(30)));
    }
    corpus.RestoreDocument(doc::DocumentKind::kText, "d", std::move(terms), {});
  }
  const index::InvertedIndex index(corpus);
  const double n = static_cast<double>(corpus.NumDocs());
  auto formula = [&](TermId t) {
    const size_t df = index.DocumentFrequency(t);
    return df == 0 ? std::log(1.0 + n)
                   : std::log(1.0 + n / static_cast<double>(df));
  };
  for (TermId t = 0; t < vocab; ++t) {
    EXPECT_TRUE(SameBits(index.Idf(t), formula(t))) << t;
  }
  EXPECT_EQ(index.DocumentFrequency(35), 0u);
  for (TermId oov : {static_cast<TermId>(vocab), TermId{99999}}) {
    EXPECT_TRUE(SameBits(index.Idf(oov), std::log(1.0 + n))) << oov;
  }
}

}  // namespace
}  // namespace qec
