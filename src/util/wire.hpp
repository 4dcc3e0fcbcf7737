// The one varint codec: the binary ("VPPB") and chunked ("VPPC") trace
// formats and every vppbd request and response are written with it.
//
// Fields are LEB128 varints, zigzag for signed values, IEEE-754 bit
// patterns (as a varint) for doubles, and length-prefixed strings.
// Fixed-width headers (the chunk header, the frame length prefix) are
// little-endian u32s.  Two readers are provided: the non-throwing
// `TryReader` that the salvaging trace loaders and the fuzz harness
// drive — every operation reports failure through its return value so
// a corrupt byte stream can be cut at the first bad field instead of
// unwinding — and the strict `Reader` built on it, which throws
// vppb::Error with the byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace vppb::wire {

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, zigzag(v));
}

inline void put_double(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  std::memcpy(&bits, &d, sizeof bits);
  put_u64(out, bits);
}

inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Bounds-checked reader that refuses to continue past a malformed
/// field: every accessor reports success, and the caller decides
/// whether that is a fatal error (strict mode) or a cut point (salvage).
class TryReader {
 public:
  TryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u64(std::uint64_t& out) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= size_ || shift >= 64) return false;
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        out = v;
        return true;
      }
      shift += 7;
    }
  }

  bool i64(std::int64_t& out) {
    std::uint64_t v;
    if (!u64(v)) return false;
    out = unzigzag(v);
    return true;
  }

  /// The length is checked against the bytes left, never added to the
  /// position first, so a length near 2^64 cannot wrap past the check.
  bool str(std::string& out) {
    std::uint64_t n;
    if (!u64(n)) return false;
    if (n > size_ - pos_) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_),
               static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  bool at_end() const { return pos_ == size_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Strict reader: same decoding, but a malformed field throws
/// vppb::Error with the byte offset.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : in_(data, size) {}

  std::uint64_t u64() {
    std::uint64_t v;
    VPPB_CHECK_MSG(in_.u64(v),
                   "data truncated or bad varint at byte " << in_.pos());
    return v;
  }

  std::int64_t i64() { return unzigzag(u64()); }

  double dbl() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

  std::string str() {
    std::string s;
    VPPB_CHECK_MSG(in_.str(s), "string overruns buffer at byte " << in_.pos());
    return s;
  }

  bool at_end() const { return in_.at_end(); }
  std::size_t remaining() const { return in_.remaining(); }

 private:
  TryReader in_;
};

}  // namespace vppb::wire
