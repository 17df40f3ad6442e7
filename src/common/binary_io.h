#ifndef QEC_COMMON_BINARY_IO_H_
#define QEC_COMMON_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace qec {

/// Little-endian append-only writer shared by the binary formats in
/// docs/FORMATS.md (the snapshot's header, TOC and sections).
class BinaryWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  /// IEEE-754 bits as a U64.
  void F64(double v);

  /// U32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  /// Raw bytes, no length prefix.
  void Raw(std::string_view bytes) { out_.append(bytes); }

  size_t size() const { return out_.size(); }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader; every method reports truncation as
/// Status::Corruption naming `what` and the byte position.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data, std::string_view what = "blob")
      : data_(data), what_(what) {}

  Status U8(uint8_t& v);
  Status U32(uint32_t& v);
  Status U64(uint64_t& v);
  Status F64(double& v);

  /// Reads a U32 length prefix, then that many bytes.
  Status Str(std::string& s);

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Truncated() const;

  std::string_view data_;
  std::string_view what_;
  size_t pos_ = 0;
};

}  // namespace qec

#endif  // QEC_COMMON_BINARY_IO_H_
