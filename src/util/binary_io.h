// Bounds-checked little-endian binary serialization primitives for model
// files. Format discipline: every section starts with a 4-byte tag and a
// u32 version; readers fail with Status instead of reading garbage.

#ifndef TRENDSPEED_UTIL_BINARY_IO_H_
#define TRENDSPEED_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace trendspeed {

/// Append-only buffer writer.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI8(int8_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  /// 4-character section tag + version.
  void PutTag(const char tag[4], uint32_t version) {
    PutRaw(tag, 4);
    PutU32(version);
  }
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(T));
  }

  const std::string& buffer() const { return buf_; }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Cursor-based reader over an in-memory buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::string data) : data_(std::move(data)) {}

  Result<uint8_t> GetU8() { return Get<uint8_t>(); }
  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  Result<int8_t> GetI8() { return Get<int8_t>(); }
  Result<float> GetF32() { return Get<float>(); }
  Result<double> GetF64() { return Get<double>(); }

  Result<std::string> GetString() {
    TS_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (pos_ + len > data_.size()) return Truncated();
    std::string out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// Verifies a section tag; returns its version.
  Result<uint32_t> ExpectTag(const char tag[4]) {
    if (pos_ + 4 > data_.size()) return Truncated();
    if (std::memcmp(data_.data() + pos_, tag, 4) != 0) {
      return Status::InvalidArgument(
          std::string("bad section tag, expected ") + std::string(tag, 4));
    }
    pos_ += 4;
    return GetU32();
  }

  template <typename T>
  Result<std::vector<T>> GetVec(uint64_t max_elems = UINT64_MAX) {
    static_assert(std::is_trivially_copyable_v<T>);
    TS_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    // Divide, never multiply: n * sizeof(T) wraps for n >= 2^64 / sizeof(T).
    if (n > max_elems || n > remaining() / sizeof(T)) return Truncated();
    std::vector<T> out(n);
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Result<T> Get() {
    if (pos_ + sizeof(T) > data_.size()) return Truncated();
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  static Status Truncated() {
    return Status::InvalidArgument("binary input truncated or corrupt");
  }

  std::string data_;
  size_t pos_ = 0;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_BINARY_IO_H_
