#ifndef QEC_INDEX_POSTING_CODEC_H_
#define QEC_INDEX_POSTING_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/inverted_index.h"

namespace qec::index {

/// Compresses a posting list (sorted by DocId) with delta + varbyte
/// coding: doc-id gaps and term frequencies each as LEB128-style variable
/// length integers. The standard storage layout for inverted files.
std::string EncodePostings(const std::vector<Posting>& postings);

/// Decodes a blob produced by EncodePostings. Returns Corruption on
/// truncated varbytes, gaps that overflow the DocId range (so decoded ids
/// are always strictly increasing), zero term frequencies,
/// posting counts the payload cannot possibly hold (each posting costs at
/// least 2 bytes), or trailing bytes after the last posting.
Result<std::vector<Posting>> DecodePostings(std::string_view data);

/// Appends `value` to `out` as a varbyte integer (7 bits per byte, high
/// bit = continuation). Exposed for the snapshot INDX section.
void AppendVarint(uint64_t value, std::string& out);

/// Reads a varbyte integer at `*pos`, advancing it. Returns Corruption on
/// truncation or overlong (> 10 byte) encodings.
Result<uint64_t> ReadVarint(std::string_view data, size_t* pos);

}  // namespace qec::index

#endif  // QEC_INDEX_POSTING_CODEC_H_
