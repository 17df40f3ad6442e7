#include "index/posting_codec.h"

#include <limits>

namespace qec::index {

void AppendVarint(uint64_t value, std::string& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

Result<uint64_t> ReadVarint(std::string_view data, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*pos >= data.size()) {
      return Status::Corruption("varint truncated at byte " +
                                std::to_string(*pos));
    }
    uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::Corruption("overlong varint");
}

std::string EncodePostings(const std::vector<Posting>& postings) {
  std::string out;
  AppendVarint(postings.size(), out);
  DocId prev = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    const Posting& p = postings[i];
    const uint64_t gap =
        i == 0 ? p.doc : static_cast<uint64_t>(p.doc) - prev - 1;
    AppendVarint(gap, out);
    AppendVarint(static_cast<uint64_t>(p.tf), out);
    prev = p.doc;
  }
  return out;
}

Result<std::vector<Posting>> DecodePostings(std::string_view data) {
  size_t pos = 0;
  auto count = ReadVarint(data, &pos);
  if (!count.ok()) return count.status();
  // Every posting encodes to at least 2 bytes (gap varint + tf varint), so
  // any count above half the remaining payload is corrupt. Rejecting here
  // keeps a corrupt header from over-reserving the output vector.
  if (*count > (data.size() - pos) / 2) {
    return Status::Corruption("implausible posting count");
  }
  std::vector<Posting> out;
  out.reserve(*count);
  // `next` is the smallest doc id the next posting may carry: 0 first, then
  // the previous id + 1 (at most 2^32, so the bound below never wraps). A
  // gap is valid only while next + gap fits a DocId; checking before the add
  // keeps a gap near 2^64 from wrapping back below the previous id, which
  // would break the sorted-list invariant.
  constexpr uint64_t kDocIdSpace =
      static_cast<uint64_t>(std::numeric_limits<DocId>::max()) + 1;
  uint64_t next = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto gap = ReadVarint(data, &pos);
    if (!gap.ok()) return gap.status();
    auto tf = ReadVarint(data, &pos);
    if (!tf.ok()) return tf.status();
    if (*gap >= kDocIdSpace - next) {
      return Status::Corruption("doc id overflow");
    }
    const uint64_t doc = next + *gap;
    if (*tf == 0 || *tf > std::numeric_limits<int>::max()) {
      return Status::Corruption("invalid term frequency");
    }
    out.push_back(Posting{static_cast<DocId>(doc), static_cast<int>(*tf)});
    next = doc + 1;
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes after postings");
  }
  return out;
}

}  // namespace qec::index
