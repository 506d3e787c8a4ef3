// Byte-level binary IO primitives shared by every serialized format in the
// tree: the SNLX wire protocol (src/wire/), the engine artifact codecs
// (src/engine/artifact_codec.h) and the durable segment log
// (src/engine/durable_log.h).
//
// These used to live in wire/serialize.h, but the durable store and the
// artifact codecs sit under src/engine/, which the layering forbids from
// including wire/ (wire depends on core depends on engine). The primitives
// are layout policy, not protocol policy, so they belong here in support/;
// wire/serialize.h re-exports them under the old names so call sites did not
// move.
//
// Conventions (shared by every format built on top):
//   - all integers little-endian, written byte-by-byte (no struct memcpy:
//     layout, padding and endianness must not leak into any format);
//   - doubles travel as IEEE-754 bit patterns, so round-trips are bit-exact;
//   - every decode path is bounds-checked through a sticky-error ByteReader,
//     and hostile length fields are capped before any allocation.
#ifndef SNORLAX_SUPPORT_BINIO_H_
#define SNORLAX_SUPPORT_BINIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"

namespace snorlax::support {

// Decode-side sanity caps (hostile length fields are clamped against these
// before any allocation).
inline constexpr size_t kMaxStringBytes = 1 << 20;        // 1 MB
inline constexpr size_t kMaxByteBlob = 256u << 20;        // 256 MB per blob
inline constexpr size_t kMaxVectorElements = 1 << 20;     // any element count

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the per-frame / per-record
// checksum. `seed` chains incremental computations: pass a previous return
// value to continue.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

// --- primitive writers -------------------------------------------------------

void AppendU8(std::vector<uint8_t>* out, uint8_t v);
void AppendU16(std::vector<uint8_t>* out, uint16_t v);
void AppendU32(std::vector<uint8_t>* out, uint32_t v);
void AppendU64(std::vector<uint8_t>* out, uint64_t v);
void AppendI64(std::vector<uint8_t>* out, int64_t v);
void AppendF64(std::vector<uint8_t>* out, double v);  // IEEE-754 bits, LE
void AppendString(std::vector<uint8_t>* out, const std::string& s);  // u32 len
void AppendBytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& b);
// LEB128 varint (7 bits per byte, high bit = continue); <= 10 bytes.
void AppendVarint(std::vector<uint8_t>* out, uint64_t v);

// Zigzag mapping for signed deltas: small magnitudes (either sign) become
// small varints.
inline constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// --- bounds-checked reader ---------------------------------------------------

// Reads primitives off a byte span. The first overrun (or cap violation) sets
// a sticky kCorruptData status; every later read returns a zero value, so
// decoders can read a whole record unconditionally and test status() once.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> data)
      : ByteReader(data.data(), data.size()) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  double F64();
  uint64_t Varint();  // LEB128; overlong/overflowing encodings are corrupt
  std::string String();
  std::vector<uint8_t> Bytes();
  // Zero-copy variants: views into the underlying buffer, valid only while
  // the buffer the reader was constructed over is alive and unmodified.
  std::span<const uint8_t> View(size_t n);
  std::span<const uint8_t> BytesView();  // u32 length prefix, like Bytes()
  // Varint element count for a vector about to be decoded (pairs with
  // AppendVarint). Capped before any allocation: fails the reader when it
  // exceeds `max` (default kMaxVectorElements) or the bytes that remain,
  // since every element takes at least one byte.
  size_t Count(size_t max = kMaxVectorElements);

  bool ok() const { return status_.ok(); }
  const support::Status& status() const { return status_; }
  size_t remaining() const { return size_ - pos_; }
  // Lets a caller fail the reader on a semantic violation (value out of
  // range) so the usual sticky-error flow handles it.
  void MarkCorrupt(const char* what) { Fail(what); }
  // Decoders call this last: trailing bytes mean the sender wrote a layout
  // this build does not fully understand.
  support::Status ExpectExhausted();

 private:
  bool Take(size_t n, const uint8_t** at);
  void Fail(const char* what);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  support::Status status_;
};

}  // namespace snorlax::support

#endif  // SNORLAX_SUPPORT_BINIO_H_
