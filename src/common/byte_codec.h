// The little-endian byte codec behind every binary format in the repo.
//
// Wire frame headers (common/framing), serving protocol payloads
// (serve/protocol), WAL records (store/wal) and corpus snapshots
// (core/embedding_db) all encode through these two classes, and Crc32
// loads its input words with LoadLe, so the byte order is decided here and
// nowhere else:
//
//   integers  least-significant byte first (u8/u16/u32/u64; i64 as its
//             two's-complement u64)
//   doubles   the IEEE-754 bit pattern, as a u64
//   strings   u32 length, then the bytes
//
// ByteReader is fully bounds-checked and sticky-failing: after the first
// short read every further read returns false, so parsers can chain reads
// and test once. Need() lets a parser validate an element count against
// the bytes actually remaining before it sizes any container, so a hostile
// count cannot trigger a huge allocation.

#ifndef NEUTRAJ_COMMON_BYTE_CODEC_H_
#define NEUTRAJ_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace neutraj {

/// The unsigned integer whose little-endian bytes start at `p` (unchecked;
/// the caller guarantees sizeof(T) readable bytes).
template <typename T>
T LoadLe(const char* p) {
  T out = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    const auto byte = static_cast<T>(static_cast<unsigned char>(p[i]));
    out = static_cast<T>(out | static_cast<T>(byte << (8 * i)));
  }
  return out;
}

/// Appends little-endian fields to a growing byte string.
class ByteWriter {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }

  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Le(v); }
  void U32(uint32_t v) { Le(v); }
  void U64(uint64_t v) { Le(v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  /// u32 length prefix, then the bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_ += s;
  }
  /// The bytes as they are, with no length prefix.
  void Bytes(std::string_view s) { buf_ += s; }

  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void Le(T v) {
    char b[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(b, sizeof(T));
  }

  std::string buf_;
};

/// Reads little-endian fields from a byte string it does not own; the
/// bytes must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}
  // A temporary string would be destroyed before the reads.
  explicit ByteReader(std::string&&) = delete;

  bool U8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(in_[pos_++]);
    return true;
  }
  bool U16(uint16_t* v) { return Le(v); }
  bool U32(uint32_t* v) { return Le(v); }
  bool U64(uint64_t* v) { return Le(v); }
  bool I64(int64_t* v) {
    uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool F64(double* v) {
    uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || !Need(n)) return false;
    s->assign(in_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  /// True iff at least `n` unread bytes remain; fails the reader (sticky)
  /// otherwise. Call before sizing a container from a decoded count.
  bool Need(size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// True iff every read succeeded and no bytes are left over.
  bool Done() const { return ok_ && pos_ == in_.size(); }

  /// Bytes not yet consumed; 0 once a read has failed. Lets a parser pick
  /// between layouts by length before committing to reads.
  size_t Remaining() const { return ok_ ? in_.size() - pos_ : 0; }

 private:
  template <typename T>
  bool Le(T* v) {
    if (!Need(sizeof(T))) return false;
    *v = LoadLe<T>(in_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  std::string_view in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_BYTE_CODEC_H_
