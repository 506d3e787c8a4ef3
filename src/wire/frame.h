// Versioned, CRC-checked, length-prefixed framing for the fleet protocol.
//
// Byte-level frame layout (all integers little-endian; full table in
// DESIGN.md section 12):
//
//   offset  size  field
//   0       4     magic "SNLX" (0x53 0x4e 0x4c 0x58)
//   4       1     frame type (FrameType)
//   5       1     reserved, must be 0
//   6       8     sequence number (bundle frames: per-agent bundle sequence,
//                 stable across reconnects -- the dedup key; other frames:
//                 sender-local counter, informational)
//   14      4     payload length N (bounded by kMaxFramePayload)
//   18      4     CRC-32 over header (with this field zeroed) + payload
//   22      N     payload
//
// The CRC covers the *header as well as* the payload: a single flipped bit
// anywhere in a frame -- including the sequence number or the length field --
// is either a CRC mismatch or an unparseable header, never a silently
// accepted frame. After a corrupt frame the assembler resynchronizes by
// scanning for the next magic, mirroring the PT decoder's PSB resync: one bad
// frame costs itself, not the connection.
//
// The protocol version rides in the Hello/HelloAck payloads (the handshake),
// not in every header: version skew is detected once per connection, before
// any bundle payload is trusted.
#ifndef SNORLAX_WIRE_FRAME_H_
#define SNORLAX_WIRE_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"
#include "wire/ring.h"
#include "wire/serialize.h"

namespace snorlax::wire {

// Protocol version exchanged in the handshake. Bump on any frame-level,
// message-flow, or payload-format change. Both sides must speak exactly this
// version; a Hello carrying any other value gets a kVersionMismatch Reject
// (DESIGN.md section 13). Version 4 means compressed bundle payloads
// (kBundleFormat), the cluster extension (ring topology in the HelloAck,
// kTopology pushes, site hand-off frames) and full typed report payloads
// (kReportFormat). Every agent and daemon is built from this repository, so
// there is no older peer to negotiate down to.
inline constexpr uint32_t kProtocolVersion = 4;

inline constexpr uint8_t kFrameMagic[4] = {0x53, 0x4e, 0x4c, 0x58};  // "SNLX"
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 1 + 8 + 4 + 4;
inline constexpr size_t kMaxFramePayload = 32u << 20;  // 32 MB

enum class FrameType : uint8_t {
  kHello = 1,      // client->server: protocol version + agent id
  kHelloAck = 2,   // server->client: accepted; carries last acked bundle seq
  kReject = 3,     // server->client: handshake refused; connection closes
  kBundle = 4,     // client->server: one serialized trace bundle
  kBundleAck = 5,  // server->client: per-bundle ingest outcome
  kDiagnose = 6,   // client->server: diagnose-everything request
  kReport = 7,     // server->client: one shard's serialized report::Report
  kReportEnd = 8,  // server->client: report stream complete
  kShed = 9,       // server->client: backpressure dropped report frames
  // -- cluster extension --
  kTopology = 10,       // server->client: ring changed; re-route future bundles
  kHandoffBegin = 11,   // daemon->daemon: site transfer starts (site + count)
  kHandoffRecord = 12,  // daemon->daemon: one serialized SiteRecord
  kHandoffEnd = 13,     // daemon->daemon: site transfer complete
  kHandoffAck = 14,     // receiver->sender: per-site hand-off verdict
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kHello;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

// Zero-copy variant: `payload` is a view into the assembler's buffer, valid
// only until the next Feed() or Next() call on that assembler. The receive
// path decodes straight out of the connection buffer through this; anything
// that must outlive the frame (a queued bundle, a report body) is copied
// explicitly at the point the lifetime actually extends.
struct FrameView {
  FrameType type = FrameType::kHello;
  uint64_t seq = 0;
  std::span<const uint8_t> payload;
};

// Appends the complete wire encoding of one frame to `out`.
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

// --- typed payloads ----------------------------------------------------------

struct HelloPayload {
  uint32_t protocol_version = kProtocolVersion;
  uint64_t agent_id = 0;
};
void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out);
support::Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* out);

struct HelloAckPayload {
  uint32_t protocol_version = kProtocolVersion;
  // Highest bundle sequence the server has already ingested for this agent;
  // the agent drops pending retransmissions at or below it.
  uint64_t last_acked_seq = 0;
  // Cluster extension, appended when `has_topology` is set (a cluster-mode
  // daemon). On decode, `has_topology` reflects whether the block was
  // present: absent means single-daemon mode, and the agent routes
  // everything to the daemon it dialed.
  bool has_topology = false;
  RingTopology topology;
};
void EncodeHelloAck(const HelloAckPayload& ack, std::vector<uint8_t>* out);
support::Status DecodeHelloAck(std::span<const uint8_t> payload, HelloAckPayload* out);

// Reject and BundleAck both carry a Status verbatim.
void EncodeStatusPayload(const support::Status& status, std::vector<uint8_t>* out);
support::Status DecodeStatusPayload(std::span<const uint8_t> payload,
                                    support::Status* out);

enum class BundleKind : uint8_t { kFailing = 0, kSuccess = 1 };

struct BundlePayload {
  BundleKind kind = BundleKind::kFailing;
  // Success bundles name the failure site they evidence (the shard router
  // needs it; the bundle itself carries no failure record).
  uint32_t target_site = 0;
  std::vector<uint8_t> bundle_bytes;  // EncodeBundle output
};
void EncodeBundlePayload(const BundlePayload& payload, std::vector<uint8_t>* out);
support::Status DecodeBundlePayload(std::span<const uint8_t> payload,
                                    BundlePayload* out);

// Zero-copy variant: `bundle_bytes` views the frame payload it was decoded
// from (same lifetime rules as FrameView). The daemon decodes the bundle out
// of this view directly -- the serialized bytes are never copied.
struct BundlePayloadView {
  BundleKind kind = BundleKind::kFailing;
  uint32_t target_site = 0;
  std::span<const uint8_t> bundle_bytes;
};
support::Status DecodeBundlePayload(std::span<const uint8_t> payload,
                                    BundlePayloadView* out);

struct BundleAckPayload {
  uint64_t bundle_seq = 0;
  bool duplicate = false;  // already ingested on a previous connection
  support::Status status;  // the pool's ingest verdict
};
void EncodeBundleAck(const BundleAckPayload& ack, std::vector<uint8_t>* out);
support::Status DecodeBundleAck(std::span<const uint8_t> payload,
                                BundleAckPayload* out);

struct ReportPayload {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  std::vector<uint8_t> report_bytes;  // EncodeFullReport output
};
void EncodeReportPayload(const ReportPayload& payload, std::vector<uint8_t>* out);
support::Status DecodeReportPayload(std::span<const uint8_t> payload,
                                    ReportPayload* out);

// Zero-copy variant (same lifetime rules as BundlePayloadView).
struct ReportPayloadView {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  std::span<const uint8_t> report_bytes;
};
support::Status DecodeReportPayload(std::span<const uint8_t> payload,
                                    ReportPayloadView* out);

struct ShedPayload {
  uint64_t dropped_frames = 0;
  std::string note;
};
void EncodeShed(const ShedPayload& shed, std::vector<uint8_t>* out);
support::Status DecodeShed(std::span<const uint8_t> payload, ShedPayload* out);

// --- cluster payloads --------------------------------------------------------
// Site hand-off: when the ring reassigns a failure site, the old owner
// streams the site's serialized state -- kHandoffBegin, then one
// kHandoffRecord per engine::SiteRecord (opaque bytes at this layer; the net
// daemon encodes/decodes them with the engine codec), then kHandoffEnd -- and
// the receiver answers one kHandoffAck. Records are content-hash keyed, so a
// transfer is verifiable by construction: re-encoding a decoded artifact
// yields the key it was shipped under.

struct HandoffBeginPayload {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  // The sender's ring epoch; the receiver rejects a hand-off for a site it
  // does not own under an epoch >= this one (stale sender).
  uint64_t epoch = 0;
  uint64_t record_count = 0;  // records that follow (receiver sanity check)
};
void EncodeHandoffBegin(const HandoffBeginPayload& payload, std::vector<uint8_t>* out);
support::Status DecodeHandoffBegin(std::span<const uint8_t> payload,
                                   HandoffBeginPayload* out);

struct HandoffRecordPayload {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  std::vector<uint8_t> record_bytes;  // engine EncodeSiteRecord output
};
void EncodeHandoffRecord(const HandoffRecordPayload& payload, std::vector<uint8_t>* out);
support::Status DecodeHandoffRecord(std::span<const uint8_t> payload,
                                    HandoffRecordPayload* out);
// Zero-copy variant (same lifetime rules as BundlePayloadView).
struct HandoffRecordPayloadView {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  std::span<const uint8_t> record_bytes;
};
support::Status DecodeHandoffRecord(std::span<const uint8_t> payload,
                                    HandoffRecordPayloadView* out);

// kHandoffEnd reuses HandoffBeginPayload (record_count = records actually
// sent); kHandoffAck carries the receiver's verdict for one site.
struct HandoffAckPayload {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;
  support::Status status;
};
void EncodeHandoffAck(const HandoffAckPayload& payload, std::vector<uint8_t>* out);
support::Status DecodeHandoffAck(std::span<const uint8_t> payload,
                                 HandoffAckPayload* out);

// --- reassembly --------------------------------------------------------------

// Incremental frame reassembly over an arbitrary-chunked byte stream (TCP
// reads). Feed() buffers bytes; Next() pops complete frames in order. Corrupt
// input (bad magic, nonzero reserved byte, oversized length, CRC mismatch,
// unknown type) is counted, logged, and skipped via magic-scan resync --
// the assembler itself never fails.
class FrameAssembler {
 public:
  // `max_buffered_bytes` bounds reassembly memory per connection (the
  // backpressure knob): Feed() returns false -- and drops the input -- once
  // the buffer would exceed it, which callers surface as a protocol error.
  explicit FrameAssembler(size_t max_buffered_bytes = kMaxFramePayload * 2);

  bool Feed(const uint8_t* data, size_t size);
  // Returns true and fills `out` when a complete valid frame is available.
  bool Next(Frame* out);
  // Zero-copy pop: `out->payload` views this assembler's buffer and is valid
  // until the next Feed() or Next() call (both may move or reuse the bytes).
  bool Next(FrameView* out);

  size_t buffered_bytes() const { return buffer_.size() - start_; }
  size_t frames_ok() const { return frames_ok_; }
  size_t frames_corrupt() const { return frames_corrupt_; }
  size_t bytes_discarded() const { return bytes_discarded_; }
  // One line per corruption event, oldest first; Drain clears.
  std::vector<std::string> DrainCorruptionLog();

 private:
  // Scans past garbage to the next possible frame start; returns whether a
  // full header+payload is buffered at the front.
  bool AlignToFrame();
  void Discard(size_t n, const char* why);

  size_t max_buffered_bytes_;
  // Flat buffer with a consumed-prefix offset (compacted as frames pop):
  // frame validation needs contiguous bytes for the CRC pass.
  std::vector<uint8_t> buffer_;
  size_t start_ = 0;
  size_t frames_ok_ = 0;
  size_t frames_corrupt_ = 0;
  size_t bytes_discarded_ = 0;
  std::vector<std::string> corruption_log_;
};

}  // namespace snorlax::wire

#endif  // SNORLAX_WIRE_FRAME_H_
