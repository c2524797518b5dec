// Little-endian fixed-width encoding helpers for the storage layer.

#ifndef STQ_STORAGE_CODING_H_
#define STQ_STORAGE_CODING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace stq {

// Raw little-endian stores and loads. Spelled out byte by byte, so the
// layout is the same on every host; compilers fold each into one move on
// a little-endian target.
inline void EncodeFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v);
  dst[1] = static_cast<char>(v >> 8);
  dst[2] = static_cast<char>(v >> 16);
  dst[3] = static_cast<char>(v >> 24);
}

inline uint32_t DecodeFixed32(const char* src) {
  const auto* p = reinterpret_cast<const unsigned char*>(src);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

inline void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

inline void PutByte(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

// Cursor-style decoding. Each Get advances *offset and returns false on
// underflow (leaving outputs unspecified).
//
// Bounds checks are phrased as `src.size() - *offset < n` guarded by
// `*offset <= src.size()` rather than `*offset + n > src.size()`: the
// latter wraps around for offsets near SIZE_MAX and would spuriously
// accept an out-of-bounds read.

// True when `n` more bytes can be read at *offset.
inline bool DecodeRemaining(const std::string& src, size_t offset, size_t n) {
  return offset <= src.size() && src.size() - offset >= n;
}

inline bool GetFixed32(const std::string& src, size_t* offset, uint32_t* v) {
  if (!DecodeRemaining(src, *offset, 4)) return false;
  *v = DecodeFixed32(src.data() + *offset);
  *offset += 4;
  return true;
}

inline bool GetFixed64(const std::string& src, size_t* offset, uint64_t* v) {
  uint32_t lo, hi;
  if (!GetFixed32(src, offset, &lo)) return false;
  if (!GetFixed32(src, offset, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

inline bool GetDouble(const std::string& src, size_t* offset, double* v) {
  uint64_t bits;
  if (!GetFixed64(src, offset, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

inline bool GetByte(const std::string& src, size_t* offset, uint8_t* v) {
  if (!DecodeRemaining(src, *offset, 1)) return false;
  *v = static_cast<uint8_t>(src[*offset]);
  *offset += 1;
  return true;
}

}  // namespace stq

#endif  // STQ_STORAGE_CODING_H_
