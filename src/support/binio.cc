#include "support/binio.h"

#include <cstring>

#include "support/str.h"

namespace snorlax::support {

// --- CRC32 -------------------------------------------------------------------

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  const Crc32Table& table = Table();
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c = table.entries[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// --- primitive writers -------------------------------------------------------

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendI64(std::vector<uint8_t>* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void AppendBytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& b) {
  AppendU32(out, static_cast<uint32_t>(b.size()));
  out->insert(out->end(), b.begin(), b.end());
}

void AppendVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// --- ByteReader --------------------------------------------------------------

bool ByteReader::Take(size_t n, const uint8_t** at) {
  if (!status_.ok()) {
    return false;
  }
  if (n > size_ - pos_) {
    Fail("truncated record");
    return false;
  }
  *at = data_ + pos_;
  pos_ += n;
  return true;
}

void ByteReader::Fail(const char* what) {
  if (status_.ok()) {
    status_ = Status::Error(StatusCode::kCorruptData,
                            StrFormat("%s at byte %zu of %zu", what, pos_, size_));
  }
}

uint8_t ByteReader::U8() {
  const uint8_t* at = nullptr;
  return Take(1, &at) ? at[0] : 0;
}

uint16_t ByteReader::U16() {
  const uint8_t* at = nullptr;
  if (!Take(2, &at)) {
    return 0;
  }
  return static_cast<uint16_t>(at[0] | (at[1] << 8));
}

uint32_t ByteReader::U32() {
  const uint8_t* at = nullptr;
  if (!Take(4, &at)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | at[i];
  }
  return v;
}

uint64_t ByteReader::U64() {
  const uint8_t* at = nullptr;
  if (!Take(8, &at)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | at[i];
  }
  return v;
}

int64_t ByteReader::I64() { return static_cast<int64_t>(U64()); }

double ByteReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ByteReader::Varint() {
  uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    const uint8_t b = U8();
    if (!status_.ok()) {
      return 0;
    }
    // The 10th byte can only carry bit 63: anything else overflows u64 (and
    // catches non-canonical 10-byte encodings of small values).
    if (i == 9 && b > 1) {
      Fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      return v;
    }
  }
  Fail("varint too long");
  return 0;
}

std::string ByteReader::String() {
  const uint32_t len = U32();
  if (!status_.ok()) {
    return {};
  }
  if (len > kMaxStringBytes) {
    Fail("string length over cap");
    return {};
  }
  const uint8_t* at = nullptr;
  if (!Take(len, &at)) {
    return {};
  }
  return std::string(reinterpret_cast<const char*>(at), len);
}

std::vector<uint8_t> ByteReader::Bytes() {
  const uint32_t len = U32();
  if (!status_.ok()) {
    return {};
  }
  if (len > kMaxByteBlob) {
    Fail("byte blob over cap");
    return {};
  }
  const uint8_t* at = nullptr;
  if (!Take(len, &at)) {
    return {};
  }
  return std::vector<uint8_t>(at, at + len);
}

std::span<const uint8_t> ByteReader::View(size_t n) {
  const uint8_t* at = nullptr;
  if (!Take(n, &at)) {
    return {};
  }
  return {at, n};
}

std::span<const uint8_t> ByteReader::BytesView() {
  const uint32_t len = U32();
  if (!status_.ok()) {
    return {};
  }
  if (len > kMaxByteBlob) {
    Fail("byte blob over cap");
    return {};
  }
  return View(len);
}

size_t ByteReader::Count(size_t max) {
  const uint64_t n = Varint();
  if (!status_.ok()) {
    return 0;
  }
  if (n > max) {
    Fail("element count over cap");
    return 0;
  }
  // A count can never promise more elements than bytes remain: rejecting here
  // keeps a forged count from driving a long loop of doomed reads.
  if (n > remaining()) {
    Fail("element count exceeds remaining bytes");
    return 0;
  }
  return static_cast<size_t>(n);
}

support::Status ByteReader::ExpectExhausted() {
  if (!status_.ok()) {
    return status_;
  }
  if (pos_ != size_) {
    return Status::Error(StatusCode::kCorruptData,
                         StrFormat("%zu trailing bytes after record", size_ - pos_));
  }
  return Status::Ok();
}

}  // namespace snorlax::support
