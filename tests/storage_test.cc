// Tests for the versioned snapshot format (storage/snapshot.h): CRC-32,
// round-trips over text and structured corpora, the lazy section reader,
// and corruption handling. The corruption suites are exhaustive — every
// single-byte flip and every truncation of a snapshot must be rejected
// with StatusCode::kCorruption, never undefined behavior — which is what
// lets `serve --snapshot` trust a file it did not write.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/doc_reorder.h"
#include "common/crc32.h"
#include "common/random.h"
#include "core/query_expander.h"
#include "datagen/shopping.h"
#include "doc/corpus.h"
#include "index/inverted_index.h"
#include "storage/snapshot.h"

namespace qec::storage {
namespace {

// ------------------------------------------------------------------ crc32

TEST(SnapshotCrc32Test, KnownCheckValue) {
  // The standard CRC-32 check value: crc("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(SnapshotCrc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(""), 0u); }

TEST(SnapshotCrc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Update(0, std::string_view(data).substr(0, split));
    crc = Crc32Update(crc, std::string_view(data).substr(split));
    EXPECT_EQ(crc, Crc32(data)) << "split at " << split;
  }
}

TEST(SnapshotCrc32Test, DetectsSingleBitFlips) {
  std::string data = "snapshot payload bytes";
  const uint32_t good = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(data), good) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

// ------------------------------------------------------------ test corpora

doc::Corpus TextCorpus() {
  doc::Corpus corpus;
  corpus.AddTextDocument("apple store", "apple store opens with iphone");
  corpus.AddTextDocument("apple orchard", "apple orchard fruit cider apple");
  corpus.AddTextDocument("java island", "java island volcano coffee");
  return corpus;
}

doc::Corpus StructuredCorpus() {
  doc::Corpus corpus;
  corpus.AddStructuredDocument(
      "canon camera", {{"camera", "brand", "canon"},
                       {"camera", "model", "powershot 115"}});
  corpus.AddStructuredDocument(
      "nikon camera",
      {{"camera", "brand", "nikon"}, {"camera", "megapixels", "12"}});
  corpus.AddTextDocument("camera review", "camera review compares brands");
  return corpus;
}

void ExpectSameCorpus(const doc::Corpus& a, const doc::Corpus& b) {
  ASSERT_EQ(a.NumDocs(), b.NumDocs());
  const auto& va = a.analyzer().vocabulary();
  const auto& vb = b.analyzer().vocabulary();
  ASSERT_EQ(va.size(), vb.size());
  for (TermId t = 0; t < va.size(); ++t) {
    EXPECT_EQ(va.TermString(t), vb.TermString(t)) << t;
  }
  for (DocId d = 0; d < a.NumDocs(); ++d) {
    const auto& da = a.Get(d);
    const auto& db = b.Get(d);
    EXPECT_EQ(da.kind(), db.kind()) << d;
    EXPECT_EQ(da.title(), db.title()) << d;
    EXPECT_EQ(da.terms(), db.terms()) << d;
    EXPECT_EQ(da.features(), db.features()) << d;
  }
}

void ExpectSameIndex(const doc::Corpus& corpus,
                     const index::InvertedIndex& a,
                     const index::InvertedIndex& b) {
  const auto& vocab = corpus.analyzer().vocabulary();
  for (TermId t = 0; t < vocab.size(); ++t) {
    const auto& pa = a.Postings(t);
    const auto& pb = b.Postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << vocab.TermString(t);
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].doc, pb[i].doc);
      EXPECT_EQ(pa[i].tf, pb[i].tf);
    }
  }
}

// -------------------------------------------------------------- round trip

TEST(SnapshotRoundTripTest, TextCorpus) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
  EXPECT_EQ(snapshot->stats.num_docs, corpus.Stats().num_docs);
}

TEST(SnapshotRoundTripTest, StructuredCorpus) {
  doc::Corpus corpus = StructuredCorpus();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
}

TEST(SnapshotRoundTripTest, ShoppingCatalog) {
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  ExpectSameIndex(corpus, index, *snapshot->index);
  // Search through the loaded index is identical, VSM included (it ranks
  // by the document norms the loaded index recomputes).
  for (const char* q : {"canon camera", "samsung tv", "memory"}) {
    auto a = index.SearchText(q);
    auto b = snapshot->index->SearchText(q);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
    auto terms = corpus.analyzer().AnalyzeReadOnly(q);
    auto va = index.SearchVsm(terms, 5);
    auto vb = snapshot->index->SearchVsm(terms, 5);
    ASSERT_EQ(va.size(), vb.size()) << q;
    for (size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i].doc, vb[i].doc) << q;
      EXPECT_DOUBLE_EQ(va[i].score, vb[i].score) << q;
    }
  }
}

TEST(SnapshotRoundTripTest, AnalyzerOptionsSurvive) {
  text::AnalyzerOptions options;
  options.stem = true;
  options.remove_stopwords = false;
  options.tokenizer.min_token_length = 2;
  doc::Corpus corpus(options);
  corpus.AddTextDocument("t", "the running dogs");
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const text::Analyzer& loaded = snapshot->corpus->analyzer();
  EXPECT_TRUE(loaded.options().stem);
  EXPECT_FALSE(loaded.options().remove_stopwords);
  EXPECT_EQ(loaded.options().tokenizer.min_token_length, 2u);
  // New analysis behaves identically: "running" stems to "run".
  auto ids = loaded.AnalyzeReadOnly("running");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(loaded.vocabulary().TermString(ids[0]), "run");
}

TEST(SnapshotRoundTripTest, EmptyCorpus) {
  doc::Corpus corpus;
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->corpus->NumDocs(), 0u);
}

// ------------------------------------------------------------ lazy reader

TEST(SnapshotReaderTest, TocListsSectionsInWriteOrder) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->version(), kSnapshotFormatVersion);
  ASSERT_EQ(reader->sections().size(), 5u);
  const char* expected[] = {"META", "VOCA", "DOCS", "STAT", "INDX"};
  uint64_t prev_end = 12;  // header size
  for (size_t i = 0; i < 5; ++i) {
    const SectionInfo& s = reader->sections()[i];
    EXPECT_EQ(s.id, expected[i]);
    EXPECT_EQ(s.offset, prev_end) << "sections must be contiguous";
    prev_end = s.offset + s.length;
    auto payload = reader->Section(s.id);
    ASSERT_TRUE(payload.ok()) << s.id;
    EXPECT_EQ(payload->size(), s.length);
    EXPECT_EQ(Crc32(*payload), s.crc32);
  }
}

TEST(SnapshotReaderTest, ReadStatsDecodesOnlyStatSection) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  auto stats = reader->ReadStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto expected = corpus.Stats();
  EXPECT_EQ(stats->num_docs, expected.num_docs);
  EXPECT_EQ(stats->num_distinct_terms, expected.num_distinct_terms);
  EXPECT_EQ(stats->total_term_occurrences, expected.total_term_occurrences);
  EXPECT_DOUBLE_EQ(stats->avg_doc_length, expected.avg_doc_length);
}

TEST(SnapshotReaderTest, UnknownSectionIsNotFound) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->HasSection("ZZZZ"));
  auto missing = reader->Section("ZZZZ");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotReaderTest, SniffsMagic) {
  // Open() is the only magic check: a snapshot opens, anything else —
  // another magic over otherwise intact bytes, or no bytes — is Corruption.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  EXPECT_TRUE(SnapshotReader::Open(blob).ok());
  std::string other = blob;
  other.replace(0, kSnapshotMagic.size(), "NOTASNAP");
  for (std::string_view data : {std::string_view(other), std::string_view()}) {
    auto reader = SnapshotReader::Open(data);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  }
  EXPECT_NE(SnapshotReader::Open(other).status().message().find("magic"),
            std::string::npos);
}

TEST(SnapshotReaderTest, IndexSectionIsCompressed) {
  // Raw postings would be 8 bytes each (doc u32 + tf u32); the delta +
  // varbyte INDX section must be markedly smaller on the catalog.
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  auto indx = reader->Section(kSectionIndex);
  ASSERT_TRUE(indx.ok());
  size_t raw = 0;
  for (TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
    raw += index.Postings(t).size() * 8;
  }
  EXPECT_LT(indx->size(), raw / 2);
}

// -------------------------------------------------------------- corruption

void ExpectCorrupt(std::string_view blob, const std::string& what) {
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok()) << what;
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption)
      << what << ": " << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, EveryByteFlipIsRejected) {
  // A full load touches every section, so flipping any byte of the file —
  // header, payloads, TOC, footer — must surface as Corruption.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string mutated = blob;
    mutated[i] ^= 0x01;
    ExpectCorrupt(mutated, "bit 0 flip at byte " + std::to_string(i));
    mutated = blob;
    mutated[i] = static_cast<char>(~mutated[i]);
    ExpectCorrupt(mutated, "byte complement at " + std::to_string(i));
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  for (size_t len = 0; len < blob.size(); ++len) {
    ExpectCorrupt(std::string_view(blob).substr(0, len),
                  "truncated to " + std::to_string(len));
  }
}

TEST(SnapshotCorruptionTest, TrailingGarbageIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  ExpectCorrupt(blob + std::string(1, '\0'), "one appended byte");
  ExpectCorrupt(blob + "garbage", "appended garbage");
}

TEST(SnapshotCorruptionTest, SectionFlipDetectedBySectionRead) {
  // A flipped payload byte is caught by the per-section CRC even when only
  // that section is read.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  for (const SectionInfo& s : reader->sections()) {
    std::string mutated = blob;
    mutated[s.offset + s.length / 2] ^= 0x40;
    auto r = SnapshotReader::Open(mutated);
    ASSERT_TRUE(r.ok()) << "TOC itself is intact";
    auto payload = r->Section(s.id);
    ASSERT_FALSE(payload.ok()) << s.id;
    EXPECT_EQ(payload.status().code(), StatusCode::kCorruption) << s.id;
  }
}

// Little-endian patch helpers for forging snapshot bytes with valid CRCs.
void PutU32(std::string& blob, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(std::string& blob, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    blob[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint64_t GetU64(const std::string& blob, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(blob[pos + i]))
         << (8 * i);
  }
  return v;
}

// Re-checksums section `idx` and the TOC after a payload was edited, so
// validation reaches the semantic (cross-check) layer instead of stopping
// at a CRC mismatch.
void FixCrcs(std::string& blob, size_t idx, uint64_t offset, uint64_t length) {
  const size_t footer_pos = blob.size() - 20;
  const uint64_t toc_offset = GetU64(blob, footer_pos);
  // TOC entry: id[4] + offset u64 + length u64 + crc u32 = 24 bytes.
  const size_t entry_crc_pos = toc_offset + 4 + idx * 24 + 4 + 8 + 8;
  PutU32(blob, entry_crc_pos,
         Crc32(std::string_view(blob).substr(offset, length)));
  PutU32(blob, footer_pos + 8,
         Crc32(std::string_view(blob).substr(toc_offset,
                                             footer_pos - toc_offset)));
}

TEST(SnapshotCorruptionTest, StatMismatchWithValidCrcsIsRejected) {
  // Forge a snapshot whose STAT section disagrees with the documents but
  // whose checksums are all valid — the semantic cross-check must catch it.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  size_t stat_idx = 0;
  SectionInfo stat;
  for (size_t i = 0; i < reader->sections().size(); ++i) {
    if (reader->sections()[i].id == kSectionStats) {
      stat_idx = i;
      stat = reader->sections()[i];
    }
  }
  ASSERT_EQ(stat.length, 32u);  // 3 × u64 + f64
  std::string forged = blob;
  PutU64(forged, stat.offset, GetU64(blob, stat.offset) + 1);  // num_docs + 1
  FixCrcs(forged, stat_idx, stat.offset, stat.length);

  // All checksums verify...
  auto r = SnapshotReader::Open(forged);
  ASSERT_TRUE(r.ok());
  for (const auto& s : r->sections()) {
    EXPECT_TRUE(r->Section(s.id).ok()) << s.id;
  }
  // ...but the load still fails on the STAT cross-check.
  auto snapshot = DeserializeSnapshot(forged);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, UnsupportedVersionIsRejected) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  PutU32(blob, 8, kSnapshotFormatVersion + 1);  // version follows the magic
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("version"), std::string::npos);
}

TEST(SnapshotFuzzTest, RandomMutationsNeverCrash) {
  doc::Corpus corpus = StructuredCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    const size_t flips = 1 + rng.UniformInt(6);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    auto snapshot = DeserializeSnapshot(mutated);  // must not crash
    if (!snapshot.ok()) {
      EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
    }
  }
}

/// TOC position and entry of section `id` in `blob` (which must open
/// cleanly).
std::pair<size_t, SectionInfo> FindSection(std::string_view blob,
                                           std::string_view id) {
  auto reader = SnapshotReader::Open(blob);
  EXPECT_TRUE(reader.ok());
  for (size_t i = 0; i < reader->sections().size(); ++i) {
    if (reader->sections()[i].id == id) return {i, reader->sections()[i]};
  }
  ADD_FAILURE() << "no section " << id;
  return {};
}

/// What a successful load promises whatever the payload bytes were: every
/// document term id is in the vocabulary, and every posting list strictly
/// increases over ids of loaded documents.
void ExpectIdsInRange(const Snapshot& snapshot) {
  const doc::Corpus& corpus = *snapshot.corpus;
  const size_t vocab = corpus.analyzer().vocabulary().size();
  for (DocId d = 0; d < corpus.NumDocs(); ++d) {
    for (TermId t : corpus.Get(d).terms()) ASSERT_LT(t, vocab) << "doc " << d;
  }
  for (TermId t = 0; t < vocab; ++t) {
    const auto& postings = snapshot.index->Postings(t);
    for (size_t i = 0; i < postings.size(); ++i) {
      ASSERT_LT(postings[i].doc, corpus.NumDocs()) << "term " << t;
      if (i > 0) {
        ASSERT_GT(postings[i].doc, postings[i - 1].doc) << "term " << t;
      }
    }
  }
}

/// A load that succeeds also promises that INDX is DOCS inverted: the
/// postings rebuilt from the loaded documents equal the loaded ones.
void ExpectIndexMatchesDocs(const Snapshot& snapshot) {
  const index::InvertedIndex rebuilt(*snapshot.corpus);
  const size_t vocab = snapshot.corpus->analyzer().vocabulary().size();
  for (TermId t = 0; t < vocab; ++t) {
    const auto& got = snapshot.index->Postings(t);
    const auto& want = rebuilt.Postings(t);
    ASSERT_EQ(got.size(), want.size()) << "term " << t;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].doc, want[i].doc) << "term " << t;
      ASSERT_EQ(got[i].tf, want[i].tf) << "term " << t;
    }
  }
}

TEST(SnapshotFuzzTest, PayloadMutationsWithFixedCrcsNeverCrash) {
  // Random flips are almost always caught by a CRC before any decoder runs.
  // Re-checksumming after each mutation sends the bytes through the DOCS
  // and INDX decoders instead, so their range checks (term ids, counts,
  // posting gaps, doc ids) and the INDX/DOCS cross-check are what must
  // turn bad input into Corruption; whatever they accept must still have
  // every id in range and an index that agrees with its documents.
  doc::Corpus corpus = StructuredCorpus();
  index::InvertedIndex index(corpus);
  const std::string blob = SerializeSnapshot(index);
  const std::pair<size_t, SectionInfo> targets[] = {
      FindSection(blob, kSectionDocs), FindSection(blob, kSectionIndex)};
  Rng rng(2024);
  size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    const auto& [idx, info] = targets[rng.UniformInt(2)];
    const size_t flips = 1 + rng.UniformInt(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[info.offset + rng.UniformInt(info.length)] =
          static_cast<char>(rng.UniformInt(256));
    }
    FixCrcs(mutated, idx, info.offset, info.length);
    auto snapshot = DeserializeSnapshot(mutated);  // must not crash
    if (snapshot.ok()) {
      ExpectIdsInRange(*snapshot);
      ExpectIndexMatchesDocs(*snapshot);
      continue;
    }
    ++rejected;
    EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption)
        << snapshot.status().ToString();
    EXPECT_EQ(snapshot.status().message().find("checksum"), std::string::npos)
        << "CRCs were fixed, so a decoder must reject: "
        << snapshot.status().ToString();
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SnapshotCorruptionTest, ForgedFeatureCountIsCorruption) {
  // Every feature costs at least 12 encoded bytes (three length-prefixed
  // strings), so a count above remaining / 12 is rejected before anything
  // is reserved for it, even with valid CRCs.
  doc::Corpus corpus;
  corpus.AddStructuredDocument(
      "canon camera", {{"camera", "brand", "canon"},
                       {"camera", "model", "powershot 115"}});
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  const auto [idx, docs] = FindSection(blob, kSectionDocs);
  // DOCS: num_docs u32, then kind u8, title str, num_terms u32 + terms.
  const doc::Document& d = corpus.Get(0);
  const size_t count_pos = docs.offset + 4 + 1 + 4 + d.title().size() + 4 +
                           4 * d.terms().size();
  const size_t features_bytes = docs.offset + docs.length - (count_pos + 4);
  PutU32(blob, count_pos, static_cast<uint32_t>(features_bytes / 12 + 1));
  FixCrcs(blob, idx, docs.offset, docs.length);
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("feature count"),
            std::string::npos)
      << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, IndexVocabularyMismatchIsCorruption) {
  // INDX must hold one posting list per vocabulary term.
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  const auto [idx, indx] = FindSection(blob, kSectionIndex);
  const size_t vocab = corpus.analyzer().vocabulary().size();
  ASSERT_LT(vocab + 1, 0x80u);  // the term count is a one-byte varint
  blob[indx.offset] = static_cast<char>(vocab + 1);
  FixCrcs(blob, idx, indx.offset, indx.length);
  auto snapshot = DeserializeSnapshot(blob);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("vocabulary"), std::string::npos)
      << snapshot.status().ToString();
}

TEST(SnapshotCorruptionTest, IndexDisagreeingWithDocsIsCorruption) {
  // Search reads INDX while the result universe reads DOCS, so a snapshot
  // whose posting lists are not its documents inverted must not load, even
  // when every CRC and the STAT totals are valid. Each forgery below edits
  // one posting list of a correct index and lets the writer checksum it.
  doc::Corpus corpus = TextCorpus();
  const index::InvertedIndex good(corpus);
  const TermId apple = corpus.analyzer().AnalyzeReadOnly("apple").at(0);
  const TermId java = corpus.analyzer().AnalyzeReadOnly("java").at(0);
  ASSERT_EQ(good.Postings(apple).size(), 2u);
  auto postings_of = [&] {
    std::vector<std::vector<index::Posting>> postings;
    for (TermId t = 0; t < corpus.analyzer().vocabulary().size(); ++t) {
      postings.push_back(good.Postings(t));
    }
    return postings;
  };
  auto dropped = postings_of();  // doc 1 keeps "apple" in DOCS only
  dropped[apple].pop_back();
  auto retf = postings_of();  // doc 1 has "apple" twice, INDX says three
  retf[apple][1].tf += 1;
  auto swapped = postings_of();  // same df and total tf, tfs on wrong docs
  ASSERT_NE(swapped[apple][0].tf, swapped[apple][1].tf);
  std::swap(swapped[apple][0].tf, swapped[apple][1].tf);
  auto added = postings_of();  // doc 0 lacks "java"
  added[java].insert(added[java].begin(), index::Posting{0, 1});
  for (auto* forged : {&dropped, &retf, &swapped, &added}) {
    const std::string blob = SerializeSnapshot(
        index::InvertedIndex::FromPostings(corpus, *forged));
    auto reader = SnapshotReader::Open(blob);
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE(reader->LoadCorpus().ok()) << "DOCS and STAT are intact";
    auto snapshot = DeserializeSnapshot(blob);
    ASSERT_FALSE(snapshot.ok());
    EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
    EXPECT_NE(snapshot.status().message().find("disagree with DOCS"),
              std::string::npos)
        << snapshot.status().ToString();
  }
  EXPECT_TRUE(DeserializeSnapshot(SerializeSnapshot(good)).ok());
}

// -------------------------------------------------------------------- file

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  const std::string path = "/tmp/qec_storage_test.qsnap";
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  ASSERT_TRUE(WriteSnapshot(index, path).ok());
  auto snapshot = ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSameCorpus(corpus, *snapshot->corpus);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  auto snapshot = ReadSnapshot("/tmp/qec_missing_snapshot_31415.qsnap");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------- corpus half (LoadCorpus)
//
// The reader restores the corpus (META + VOCA + DOCS) on its own; a caller
// that indexes the documents itself, like bench_snapshot_io's rebuild arm,
// stops there.

doc::Corpus MakeMixedCorpus() {
  doc::Corpus corpus;
  corpus.AddTextDocument("t0", "apple store iphone apple");
  corpus.AddTextDocument("t1", "apple fruit orchard");
  corpus.AddStructuredDocument(
      "p0", {{"Canon products", "category", "camera"},
             {"camera", "shutter speed", "15 - 1/3200 sec."}});
  return corpus;
}

std::string SnapshotOf(const doc::Corpus& corpus) {
  index::InvertedIndex index(corpus);
  return SerializeSnapshot(index);
}

Result<doc::Corpus> LoadCorpusOnly(std::string_view blob) {
  auto reader = SnapshotReader::Open(blob);
  if (!reader.ok()) return reader.status();
  return reader->LoadCorpus();
}

TEST(CorpusIoTest, RoundTripPreservesEverything) {
  doc::Corpus original = MakeMixedCorpus();
  auto loaded = LoadCorpusOnly(SnapshotOf(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(original, *loaded);
  // Term strings survive with identical ids.
  TermId apple = original.analyzer().vocabulary().Lookup("apple");
  EXPECT_EQ(loaded->analyzer().vocabulary().TermString(apple), "apple");
}

TEST(CorpusIoTest, LoadedCorpusIndexesIdentically) {
  doc::Corpus original = MakeMixedCorpus();
  auto loaded = LoadCorpusOnly(SnapshotOf(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  index::InvertedIndex idx_a(original);
  index::InvertedIndex idx_b(*loaded);
  ExpectSameIndex(original, idx_a, idx_b);
  auto ra = idx_a.SearchText("apple");
  auto rb = idx_b.SearchText("apple");
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].doc, rb[i].doc);
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

TEST(CorpusIoTest, BadMagicIsCorruption) {
  std::string blob = SnapshotOf(MakeMixedCorpus());
  blob[0] = 'X';
  auto loaded = LoadCorpusOnly(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CorpusIoTest, TruncationIsCorruption) {
  std::string blob = SnapshotOf(MakeMixedCorpus());
  for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t{9}}) {
    auto loaded = LoadCorpusOnly(std::string_view(blob).substr(0, cut));
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(CorpusIoTest, TrailingBytesAreCorruption) {
  std::string blob = SnapshotOf(MakeMixedCorpus());
  blob += "junk";
  auto loaded = LoadCorpusOnly(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CorpusIoTest, OutOfRangeTermIdIsCorruption) {
  // One document holding the only vocabulary term (id 0); forge its term
  // id to 7 with valid CRCs, so the DOCS decoder's range check must fire.
  doc::Corpus corpus;
  corpus.AddTextDocument("t", "apple");
  std::string blob = SnapshotOf(corpus);
  ASSERT_EQ(corpus.analyzer().vocabulary().size(), 1u);
  const auto [idx, docs] = FindSection(blob, kSectionDocs);
  // DOCS: num_docs u32, then kind u8, title str, num_terms u32 + terms.
  const size_t term_pos =
      docs.offset + 4 + 1 + 4 + corpus.Get(0).title().size() + 4;
  PutU32(blob, term_pos, 7);
  FixCrcs(blob, idx, docs.offset, docs.length);
  auto loaded = LoadCorpusOnly(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("out of range"), std::string::npos)
      << loaded.status().ToString();
}

TEST(CorpusIoTest, SaveLoadFile) {
  const std::string path = "/tmp/qec_corpus_io_test.qsnap";
  doc::Corpus original = MakeMixedCorpus();
  index::InvertedIndex index(original);
  ASSERT_TRUE(WriteSnapshot(index, path).ok());
  auto blob = ReadSnapshotBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto loaded = LoadCorpusOnly(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(original, *loaded);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingFileIsNotFound) {
  auto blob = ReadSnapshotBlob("/tmp/qec_no_such_file_12345.qsnap");
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
}

TEST(CorpusIoTest, EmptyCorpusRoundTrips) {
  auto loaded = LoadCorpusOnly(SnapshotOf(doc::Corpus()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumDocs(), 0u);
}

// -------------------------------------------------- index half (LoadIndex)
//
// LoadIndex decodes INDX over a corpus from LoadCorpus without rescanning
// documents; these cases load the two halves separately.

/// A corpus and the index loaded over it; both heap-held so the index's
/// corpus pointer stays valid.
struct LoadedHalves {
  std::unique_ptr<doc::Corpus> corpus;
  std::unique_ptr<index::InvertedIndex> index;
};

Result<LoadedHalves> LoadHalves(std::string_view blob) {
  auto reader = SnapshotReader::Open(blob);
  if (!reader.ok()) return reader.status();
  auto corpus = reader->LoadCorpus();
  if (!corpus.ok()) return corpus.status();
  LoadedHalves halves;
  halves.corpus = std::make_unique<doc::Corpus>(std::move(*corpus));
  auto index = reader->LoadIndex(*halves.corpus);
  if (!index.ok()) return index.status();
  halves.index = std::make_unique<index::InvertedIndex>(std::move(*index));
  return halves;
}

class IndexIoFixture : public ::testing::Test {
 protected:
  IndexIoFixture()
      : corpus_(datagen::ShoppingGenerator().Generate()),
        index_(corpus_),
        blob_(SerializeSnapshot(index_)) {}

  doc::Corpus corpus_;
  index::InvertedIndex index_;
  std::string blob_;
};

TEST_F(IndexIoFixture, RoundTripMatchesRebuild) {
  auto loaded = LoadHalves(blob_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameIndex(corpus_, index_, *loaded->index);
}

TEST_F(IndexIoFixture, LoadedIndexSearchesIdentically) {
  auto loaded = LoadHalves(blob_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const char* q : {"canon products", "memory 8gb", "tv plasma"}) {
    auto a = index_.SearchText(q);
    auto b = loaded->index->SearchText(q);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
  // VSM relies on the recomputed document norms.
  auto terms = corpus_.analyzer().AnalyzeReadOnly("memory");
  auto va = index_.SearchVsm(terms, 5);
  auto vb = loaded->index->SearchVsm(terms, 5);
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].doc, vb[i].doc);
    EXPECT_DOUBLE_EQ(va[i].score, vb[i].score);
  }
}

TEST_F(IndexIoFixture, BadMagicAndTruncation) {
  std::string bad = blob_;
  bad[0] = 'Z';
  const std::string_view whole(blob_);
  const std::string appended = blob_ + "x";
  for (std::string_view data : {std::string_view(bad), whole.substr(0, 4),
                                whole.substr(0, whole.size() / 2),
                                std::string_view(appended)}) {
    auto loaded = LoadHalves(data);
    ASSERT_FALSE(loaded.ok()) << data.size() << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(IndexIoFixture, SaveLoadFile) {
  const std::string path = "/tmp/qec_index_io_test.qsnap";
  ASSERT_TRUE(WriteSnapshot(index_, path).ok());
  auto blob = ReadSnapshotBlob(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto loaded = LoadHalves(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TermId canon = corpus_.analyzer().vocabulary().Lookup("canon");
  EXPECT_EQ(loaded->index->DocumentFrequency(canon),
            index_.DocumentFrequency(canon));
  std::remove(path.c_str());
}

TEST_F(IndexIoFixture, MissingFileIsNotFound) {
  auto blob = ReadSnapshotBlob("/tmp/qec_missing_index_98765.qsnap");
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kNotFound);
}

TEST(IndexIoFuzzTest, RandomMutationsNeverCrash) {
  // Mutates INDX alone, re-checksumming after each mutation: the corpus
  // half still loads, and the index half is Ok or Corruption, never a
  // crash; an accepted index has every posting in range and sorted.
  doc::Corpus corpus;
  corpus.AddTextDocument("a", "one two three");
  corpus.AddTextDocument("b", "two three four");
  const std::string blob = SnapshotOf(corpus);
  const auto [idx, indx] = FindSection(blob, kSectionIndex);
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = blob;
    const size_t flips = 1 + rng.UniformInt(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[indx.offset + rng.UniformInt(indx.length)] =
          static_cast<char>(rng.UniformInt(256));
    }
    FixCrcs(mutated, idx, indx.offset, indx.length);
    auto reader = SnapshotReader::Open(mutated);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto loaded_corpus = reader->LoadCorpus();
    ASSERT_TRUE(loaded_corpus.ok()) << loaded_corpus.status().ToString();
    auto loaded = reader->LoadIndex(*loaded_corpus);  // must not crash
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
      continue;
    }
    const size_t vocab = loaded_corpus->analyzer().vocabulary().size();
    for (TermId t = 0; t < vocab; ++t) {
      const auto& postings = loaded->Postings(t);
      for (size_t i = 0; i < postings.size(); ++i) {
        ASSERT_LT(postings[i].doc, loaded_corpus->NumDocs()) << "term " << t;
        if (i > 0) {
          ASSERT_GT(postings[i].doc, postings[i - 1].doc) << "term " << t;
        }
      }
    }
  }
}

// ------------------------------------------------------------- determinism

std::string Fingerprint(const core::ExpansionOutcome& outcome) {
  char buf[128];
  std::string fp;
  std::snprintf(buf, sizeof(buf), "score=%.17g;k=%zu;n=%zu\n",
                outcome.set_score, outcome.num_clusters,
                outcome.num_results_used);
  fp += buf;
  for (const auto& q : outcome.queries) {
    fp += "q:";
    for (TermId t : q.terms) fp += std::to_string(t) + ",";
    for (const auto& k : q.keywords) fp += k + "|";
    std::snprintf(buf, sizeof(buf), "P=%.17g;R=%.17g;F=%.17g\n",
                  q.quality.precision, q.quality.recall,
                  q.quality.f_measure);
    fp += buf;
  }
  return fp;
}

// ----------------------------------------------------------- PERM section

/// A snapshot of a cluster-reordered corpus: documents permuted by a
/// handcrafted (non-identity) order, serialized with the PERM section.
struct ReorderedFixture {
  std::vector<DocId> order = {2, 0, 1};
  std::string blob;
  doc::Corpus original = TextCorpus();

  ReorderedFixture() {
    doc::Corpus reordered = cluster::ReorderCorpus(original, order);
    index::InvertedIndex index(reordered);
    blob = SerializeSnapshot(index, order);
  }
};

TEST(SnapshotPermTest, RoundTripInstallsExternalIds) {
  ReorderedFixture fx;
  auto snapshot = DeserializeSnapshot(fx.blob);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->external_ids, fx.order);
  EXPECT_EQ(snapshot->index->external_ids(), fx.order);
  // Document i is the original document order[i].
  for (DocId i = 0; i < snapshot->corpus->NumDocs(); ++i) {
    EXPECT_EQ(snapshot->corpus->Get(i).title(),
              fx.original.Get(fx.order[i]).title());
  }
}

TEST(SnapshotPermTest, PermIsTheLastTocSection) {
  ReorderedFixture fx;
  auto reader = SnapshotReader::Open(fx.blob);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->sections().size(), 6u);
  EXPECT_EQ(reader->sections().back().id, kSectionPerm);
  // Readers that predate PERM skip unknown sections, so the version is
  // unchanged.
  EXPECT_EQ(reader->version(), kSnapshotFormatVersion);
}

TEST(SnapshotPermTest, AbsentPermIsNotFoundAndIdentity) {
  doc::Corpus corpus = TextCorpus();
  index::InvertedIndex index(corpus);
  std::string blob = SerializeSnapshot(index);
  auto reader = SnapshotReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->HasSection(kSectionPerm));
  auto perm = reader->ReadPermutation();
  ASSERT_FALSE(perm.ok());
  EXPECT_EQ(perm.status().code(), StatusCode::kNotFound);
  auto snapshot = reader->Load();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->external_ids.empty());
  EXPECT_TRUE(snapshot->index->external_ids().empty());
}

TEST(SnapshotPermTest, EveryPermByteFlipIsRejected) {
  ReorderedFixture fx;
  auto reader = SnapshotReader::Open(fx.blob);
  ASSERT_TRUE(reader.ok());
  auto perm_info = reader->Section(kSectionPerm);
  ASSERT_TRUE(perm_info.ok());
  const SectionInfo& info = reader->sections().back();
  for (uint64_t i = 0; i < info.length; ++i) {
    std::string mutated = fx.blob;
    mutated[info.offset + i] ^= 0x01;
    ExpectCorrupt(mutated, "PERM flip at byte " + std::to_string(i));
  }
}

/// Forges the PERM payload through `edit`, re-checksums, and expects both
/// ReadPermutation and the full Load to reject with Corruption — the
/// semantic validation layer past the CRCs.
void ExpectForgedPermRejected(
    const std::function<void(std::string&, const SectionInfo&)>& edit,
    const std::string& what) {
  ReorderedFixture fx;
  auto reader = SnapshotReader::Open(fx.blob);
  ASSERT_TRUE(reader.ok());
  size_t perm_idx = 0;
  SectionInfo info;
  for (size_t i = 0; i < reader->sections().size(); ++i) {
    if (reader->sections()[i].id == kSectionPerm) {
      perm_idx = i;
      info = reader->sections()[i];
    }
  }
  ASSERT_EQ(info.id, kSectionPerm);
  std::string forged = fx.blob;
  edit(forged, info);
  FixCrcs(forged, perm_idx, info.offset, info.length);
  auto forged_reader = SnapshotReader::Open(forged);
  ASSERT_TRUE(forged_reader.ok()) << what;
  auto perm = forged_reader->ReadPermutation();
  ASSERT_FALSE(perm.ok()) << what;
  EXPECT_EQ(perm.status().code(), StatusCode::kCorruption)
      << what << ": " << perm.status().ToString();
  ExpectCorrupt(forged, what);
}

TEST(SnapshotPermTest, CountMismatchIsCorruption) {
  // The satellite contract: a PERM section whose length differs from the
  // snapshot's doc count is Corruption, even with valid CRCs.
  ExpectForgedPermRejected(
      [](std::string& blob, const SectionInfo& info) {
        PutU32(blob, info.offset, 99);  // count field: != 3 docs
      },
      "forged count");
}

TEST(SnapshotPermTest, OutOfRangeIdIsCorruption) {
  ExpectForgedPermRejected(
      [](std::string& blob, const SectionInfo& info) {
        PutU32(blob, info.offset + 4, 7);  // first id: >= doc count
      },
      "out-of-range id");
}

TEST(SnapshotPermTest, DuplicateIdIsCorruption) {
  ExpectForgedPermRejected(
      [](std::string& blob, const SectionInfo& info) {
        PutU32(blob, info.offset + 8, 2);  // second id repeats the first (2)
      },
      "duplicate id");
}

TEST(SnapshotPermTest, FileRoundTripCarriesThePermutation) {
  const std::string path = "/tmp/qec_storage_perm_test.qsnap";
  ReorderedFixture fx;
  doc::Corpus reordered = cluster::ReorderCorpus(fx.original, fx.order);
  index::InvertedIndex index(reordered);
  ASSERT_TRUE(WriteSnapshot(index, fx.order, path).ok());
  auto snapshot = ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->external_ids, fx.order);
  std::remove(path.c_str());
}

TEST(SnapshotDeterminismTest, ExpansionsMatchInMemoryBuild) {
  // The acceptance bar for the format: expansion over a snapshot-loaded
  // index is byte-identical to expansion over the in-memory build, for all
  // three algorithms.
  doc::Corpus corpus = datagen::ShoppingGenerator().Generate();
  index::InvertedIndex index(corpus);
  auto snapshot = DeserializeSnapshot(SerializeSnapshot(index));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  for (auto algorithm : {core::ExpansionAlgorithm::kIskr,
                         core::ExpansionAlgorithm::kPebc,
                         core::ExpansionAlgorithm::kFMeasure}) {
    core::QueryExpanderOptions options;
    options.algorithm = algorithm;
    core::QueryExpander in_memory(index, options);
    core::QueryExpander from_snapshot(*snapshot->index, options);
    for (const char* query : {"camera", "canon", "tv"}) {
      auto a = in_memory.ExpandText(query);
      auto b = from_snapshot.ExpandText(query);
      ASSERT_EQ(a.ok(), b.ok()) << query;
      if (!a.ok()) continue;
      EXPECT_EQ(Fingerprint(*a), Fingerprint(*b))
          << query << " algorithm "
          << std::string(core::AlgorithmName(algorithm));
    }
  }
}

}  // namespace
}  // namespace qec::storage
