#include "wire/frame.h"

#include <cstring>

#include "support/str.h"

namespace snorlax::wire {

using support::Status;
using support::StatusCode;

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
    case FrameType::kReject:
      return "reject";
    case FrameType::kBundle:
      return "bundle";
    case FrameType::kBundleAck:
      return "bundle-ack";
    case FrameType::kDiagnose:
      return "diagnose";
    case FrameType::kReport:
      return "report";
    case FrameType::kReportEnd:
      return "report-end";
    case FrameType::kShed:
      return "shed";
    case FrameType::kTopology:
      return "topology";
    case FrameType::kHandoffBegin:
      return "handoff-begin";
    case FrameType::kHandoffRecord:
      return "handoff-record";
    case FrameType::kHandoffEnd:
      return "handoff-end";
    case FrameType::kHandoffAck:
      return "handoff-ack";
  }
  return "unknown";
}

namespace {

constexpr size_t kCrcOffset = 18;  // within the header

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kHandoffAck);
}

}  // namespace

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  out->insert(out->end(), kFrameMagic, kFrameMagic + 4);
  AppendU8(out, static_cast<uint8_t>(frame.type));
  AppendU8(out, 0);  // reserved
  AppendU64(out, frame.seq);
  AppendU32(out, static_cast<uint32_t>(frame.payload.size()));
  AppendU32(out, 0);  // CRC placeholder, zeroed for the checksum pass
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  const uint32_t crc =
      Crc32(out->data() + header_at, kFrameHeaderBytes + frame.payload.size());
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + kCrcOffset + i] = static_cast<uint8_t>((crc >> (8 * i)) & 0xff);
  }
}

// --- typed payloads ----------------------------------------------------------

void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out) {
  AppendU32(out, hello.protocol_version);
  AppendU64(out, hello.agent_id);
}

support::Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* out) {
  ByteReader r(payload);
  out->protocol_version = r.U32();
  out->agent_id = r.U64();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

void EncodeHelloAck(const HelloAckPayload& ack, std::vector<uint8_t>* out) {
  AppendU32(out, ack.protocol_version);
  AppendU64(out, ack.last_acked_seq);
  // Trailing cluster block, present only when a cluster-mode daemon set it.
  if (ack.has_topology) {
    AppendTopology(out, ack.topology);
  }
}

support::Status DecodeHelloAck(std::span<const uint8_t> payload, HelloAckPayload* out) {
  ByteReader r(payload);
  out->protocol_version = r.U32();
  out->last_acked_seq = r.U64();
  out->has_topology = false;
  if (r.ok() && r.remaining() > 0) {
    Status topo = ReadTopology(&r, &out->topology);
    if (!topo.ok()) {
      return topo;
    }
    out->has_topology = true;
  }
  return r.ok() ? r.ExpectExhausted() : r.status();
}

void EncodeStatusPayload(const support::Status& status, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(status.code()));
  AppendString(out, status.message());
}

support::Status DecodeStatusPayload(std::span<const uint8_t> payload,
                                    support::Status* out) {
  ByteReader r(payload);
  const uint8_t code = r.U8();
  const std::string message = r.String();
  if (!r.ok()) {
    return r.status();
  }
  if (code > support::kMaxStatusCode) {
    return Status::Error(StatusCode::kCorruptData, "status code out of range");
  }
  *out = code == 0 ? Status::Ok() : Status::Error(static_cast<StatusCode>(code), message);
  return r.ExpectExhausted();
}

void EncodeBundlePayload(const BundlePayload& payload, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(payload.kind));
  AppendU32(out, payload.target_site);
  AppendBytes(out, payload.bundle_bytes);
}

support::Status DecodeBundlePayload(std::span<const uint8_t> payload,
                                    BundlePayload* out) {
  ByteReader r(payload);
  const uint8_t kind = r.U8();
  out->target_site = r.U32();
  out->bundle_bytes = r.Bytes();
  if (!r.ok()) {
    return r.status();
  }
  if (kind > static_cast<uint8_t>(BundleKind::kSuccess)) {
    return Status::Error(StatusCode::kCorruptData, "bundle kind out of range");
  }
  out->kind = static_cast<BundleKind>(kind);
  return r.ExpectExhausted();
}

support::Status DecodeBundlePayload(std::span<const uint8_t> payload,
                                    BundlePayloadView* out) {
  ByteReader r(payload);
  const uint8_t kind = r.U8();
  out->target_site = r.U32();
  out->bundle_bytes = r.BytesView();
  if (!r.ok()) {
    return r.status();
  }
  if (kind > static_cast<uint8_t>(BundleKind::kSuccess)) {
    return Status::Error(StatusCode::kCorruptData, "bundle kind out of range");
  }
  out->kind = static_cast<BundleKind>(kind);
  return r.ExpectExhausted();
}

void EncodeBundleAck(const BundleAckPayload& ack, std::vector<uint8_t>* out) {
  AppendU64(out, ack.bundle_seq);
  AppendU8(out, ack.duplicate ? 1 : 0);
  EncodeStatusPayload(ack.status, out);
}

support::Status DecodeBundleAck(std::span<const uint8_t> payload,
                                BundleAckPayload* out) {
  ByteReader r(payload);
  out->bundle_seq = r.U64();
  out->duplicate = r.U8() != 0;
  const uint8_t code = r.U8();
  const std::string message = r.String();
  if (!r.ok()) {
    return r.status();
  }
  if (code > support::kMaxStatusCode) {
    return Status::Error(StatusCode::kCorruptData, "status code out of range");
  }
  out->status =
      code == 0 ? Status::Ok() : Status::Error(static_cast<StatusCode>(code), message);
  return r.ExpectExhausted();
}

void EncodeReportPayload(const ReportPayload& payload, std::vector<uint8_t>* out) {
  AppendU64(out, payload.module_fingerprint);
  AppendU32(out, payload.failing_inst);
  AppendBytes(out, payload.report_bytes);
}

support::Status DecodeReportPayload(std::span<const uint8_t> payload,
                                    ReportPayload* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  out->report_bytes = r.Bytes();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

support::Status DecodeReportPayload(std::span<const uint8_t> payload,
                                    ReportPayloadView* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  out->report_bytes = r.BytesView();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

void EncodeShed(const ShedPayload& shed, std::vector<uint8_t>* out) {
  AppendU64(out, shed.dropped_frames);
  AppendString(out, shed.note);
}

support::Status DecodeShed(std::span<const uint8_t> payload, ShedPayload* out) {
  ByteReader r(payload);
  out->dropped_frames = r.U64();
  out->note = r.String();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

// --- cluster payloads --------------------------------------------------------

void EncodeHandoffBegin(const HandoffBeginPayload& payload, std::vector<uint8_t>* out) {
  AppendU64(out, payload.module_fingerprint);
  AppendU32(out, payload.failing_inst);
  AppendU64(out, payload.epoch);
  AppendU64(out, payload.record_count);
}

support::Status DecodeHandoffBegin(std::span<const uint8_t> payload,
                                   HandoffBeginPayload* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  out->epoch = r.U64();
  out->record_count = r.U64();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

void EncodeHandoffRecord(const HandoffRecordPayload& payload, std::vector<uint8_t>* out) {
  AppendU64(out, payload.module_fingerprint);
  AppendU32(out, payload.failing_inst);
  AppendBytes(out, payload.record_bytes);
}

support::Status DecodeHandoffRecord(std::span<const uint8_t> payload,
                                    HandoffRecordPayload* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  out->record_bytes = r.Bytes();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

support::Status DecodeHandoffRecord(std::span<const uint8_t> payload,
                                    HandoffRecordPayloadView* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  out->record_bytes = r.BytesView();
  return r.ok() ? r.ExpectExhausted() : r.status();
}

void EncodeHandoffAck(const HandoffAckPayload& payload, std::vector<uint8_t>* out) {
  AppendU64(out, payload.module_fingerprint);
  AppendU32(out, payload.failing_inst);
  EncodeStatusPayload(payload.status, out);
}

support::Status DecodeHandoffAck(std::span<const uint8_t> payload,
                                 HandoffAckPayload* out) {
  ByteReader r(payload);
  out->module_fingerprint = r.U64();
  out->failing_inst = r.U32();
  const uint8_t code = r.U8();
  const std::string message = r.String();
  if (!r.ok()) {
    return r.status();
  }
  if (code > support::kMaxStatusCode) {
    return Status::Error(StatusCode::kCorruptData, "status code out of range");
  }
  out->status =
      code == 0 ? Status::Ok() : Status::Error(static_cast<StatusCode>(code), message);
  return r.ExpectExhausted();
}

// --- FrameAssembler ----------------------------------------------------------

FrameAssembler::FrameAssembler(size_t max_buffered_bytes)
    : max_buffered_bytes_(max_buffered_bytes) {}

bool FrameAssembler::Feed(const uint8_t* data, size_t size) {
  if (buffered_bytes() + size > max_buffered_bytes_) {
    return false;
  }
  // Compact once the consumed prefix dominates; amortized O(1) per byte.
  if (start_ > 0 && start_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(start_));
    start_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
  return true;
}

void FrameAssembler::Discard(size_t n, const char* why) {
  ++frames_corrupt_;
  bytes_discarded_ += n;
  corruption_log_.push_back(StrFormat("frame corrupt (%s): %zu bytes discarded", why, n));
  start_ += n;
}

bool FrameAssembler::AlignToFrame() {
  for (;;) {
    // Skip to the next plausible magic. Garbage before it is discarded in one
    // logged event (counted as a single corruption, not one per byte).
    size_t skip = 0;
    const size_t avail = buffered_bytes();
    while (skip < avail &&
           buffer_[start_ + skip] != kFrameMagic[0]) {
      ++skip;
    }
    if (skip > 0) {
      Discard(skip, "garbage before magic");
      continue;
    }
    if (avail < kFrameHeaderBytes) {
      return false;  // incomplete header; wait for more bytes
    }
    const uint8_t* h = buffer_.data() + start_;
    if (std::memcmp(h, kFrameMagic, 4) != 0) {
      // First byte matched but the rest did not: false magic start.
      Discard(1, "bad magic");
      continue;
    }
    uint32_t payload_len = 0;
    for (int i = 3; i >= 0; --i) {
      payload_len = (payload_len << 8) | h[14 + i];
    }
    if (h[5] != 0 || !ValidFrameType(h[4]) || payload_len > kMaxFramePayload) {
      // Header is unparseable, so its length cannot be trusted: drop just the
      // magic and rescan (the real next frame may start inside what this
      // header claimed to cover).
      Discard(4, h[5] != 0                 ? "reserved byte set"
                 : !ValidFrameType(h[4]) ? "unknown frame type"
                                         : "oversized payload length");
      continue;
    }
    if (buffered_bytes() < kFrameHeaderBytes + payload_len) {
      return false;  // payload still in flight
    }
    return true;
  }
}

bool FrameAssembler::Next(Frame* out) {
  FrameView view;
  if (!Next(&view)) {
    return false;
  }
  // The view stays valid until the next Feed()/Next(); copy it out now.
  out->type = view.type;
  out->seq = view.seq;
  out->payload.assign(view.payload.begin(), view.payload.end());
  return true;
}

bool FrameAssembler::Next(FrameView* out) {
  while (AlignToFrame()) {
    const uint8_t* h = buffer_.data() + start_;
    uint32_t payload_len = 0;
    for (int i = 3; i >= 0; --i) {
      payload_len = (payload_len << 8) | h[14 + i];
    }
    const size_t total = kFrameHeaderBytes + payload_len;
    uint32_t stored_crc = 0;
    for (int i = 3; i >= 0; --i) {
      stored_crc = (stored_crc << 8) | h[18 + i];
    }
    // CRC pass over header (CRC field zeroed) + payload, without mutating the
    // buffer: checksum the header prefix, four zero bytes, then the rest.
    static constexpr uint8_t kZeros[4] = {0, 0, 0, 0};
    uint32_t crc = Crc32(h, kCrcOffset);
    crc = Crc32(kZeros, 4, crc);
    crc = Crc32(h + kCrcOffset + 4, total - kCrcOffset - 4, crc);
    if (crc != stored_crc) {
      // The length field itself passed no check beyond the cap, so the safest
      // resync is to drop the magic and rescan rather than skip `total`.
      Discard(4, "crc mismatch");
      continue;
    }
    out->type = static_cast<FrameType>(h[4]);
    uint64_t seq = 0;
    for (int i = 7; i >= 0; --i) {
      seq = (seq << 8) | h[6 + i];
    }
    out->seq = seq;
    // Hand out a view into the buffer; only the cursor advances, so the bytes
    // stay put until the next Feed() compaction or buffer growth.
    out->payload = {h + kFrameHeaderBytes, payload_len};
    start_ += total;
    ++frames_ok_;
    return true;
  }
  return false;
}

std::vector<std::string> FrameAssembler::DrainCorruptionLog() {
  std::vector<std::string> out;
  out.swap(corruption_log_);
  return out;
}

}  // namespace snorlax::wire
