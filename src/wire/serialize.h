// Wire serialization of the diagnosis payloads (explicit little-endian).
//
// The in-process structs (PtTraceBundle, report::Report) never cross a trust
// boundary in-process; over the fleet protocol they do, so every
// field is written byte-by-byte in little-endian order (no memcpy of structs:
// layout, padding and endianness must not leak into the format) and every
// decode path is bounds-checked through a sticky-error ByteReader. Hostile
// length fields are capped before any allocation, so a forged 4 GB count is a
// clean kCorruptData rejection, never an OOM. Doubles travel as their IEEE-754
// bit pattern, so encode->decode round-trips are bit-exact -- the fleet bench
// relies on remote ingest producing digest-identical reports.
//
// Each payload leads with its own format byte, independent of the frame-level
// protocol version: a frame can be perfectly framed yet carry a payload
// encoded by a different build, and that skew must be a kVersionMismatch
// rejection, not a misdecode. One format of each kind is spoken (DESIGN.md
// section 13):
//   bundle (byte 2): LEB128 varints for integer fields (zigzag for signed),
//       and the PT packet streams transcoded into a delta-compressed token
//       stream -- timestamps and block ids are monotone/clustered (the coarse
//       interleaving regime), so deltas are small and varints short. The
//       transcoding is lossless to the byte, including streams with
//       corrupt/undecodable regions (shipped as raw escape runs).
//   report (byte 3): the typed report::Report aggregate, encoded with the
//       canonical report codec.
// Every other leading byte is a kVersionMismatch.
#ifndef SNORLAX_WIRE_SERIALIZE_H_
#define SNORLAX_WIRE_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pt/encoder.h"
#include "report/report.h"
#include "support/binio.h"
#include "support/status.h"

namespace snorlax::wire {

// Leading format byte of each payload kind. The values continue the numbering
// of retired layouts (1 was fixed-width); they are part of the wire format and
// change only with the layout they name.
inline constexpr uint8_t kBundleFormat = 2;
inline constexpr uint8_t kReportFormat = 3;

// The byte-level primitives (Crc32, Append*, Zigzag, ByteReader, decode caps)
// moved to support/binio.h so the engine-side codecs and the durable segment
// log can share them without depending on the wire layer. Re-exported here
// under the original names: wire code keeps saying wire::ByteReader.
using support::kMaxStringBytes;
using support::kMaxByteBlob;
using support::kMaxVectorElements;
using support::Crc32;
using support::AppendU8;
using support::AppendU16;
using support::AppendU32;
using support::AppendU64;
using support::AppendI64;
using support::AppendF64;
using support::AppendString;
using support::AppendBytes;
using support::AppendVarint;
using support::ZigzagEncode;
using support::ZigzagDecode;
using support::ByteReader;

// --- PT packet stream transcoding --------------------------------------------

// Re-encodes a raw PT packet stream as a delta-compressed token stream:
// packets are parsed with the canonical codec, their fields delta-encoded
// against the previous packet of the same family (PSB tsc, PSB/TIP block,
// MTC ctc, CYC delta), and undecodable byte ranges shipped verbatim as raw
// escape runs -- corruption survives transcoding byte-exactly.
void CompressPtStream(const std::vector<uint8_t>& raw, std::vector<uint8_t>* out);

// Inverse: reconstructs exactly `raw_size` original bytes from the token
// stream at `r`. Hostile tokens (bad TNT count, oversized fields, runs past
// the declared size) are a clean kCorruptData rejection.
support::Status DecompressPtStream(ByteReader* r, size_t raw_size,
                                   std::vector<uint8_t>* out);

// --- payload codecs ----------------------------------------------------------

// The client->server evidence payload.
void EncodeBundle(const pt::PtTraceBundle& bundle, std::vector<uint8_t>* out);
support::Result<pt::PtTraceBundle> DecodeBundle(std::span<const uint8_t> bytes);

// The server->client diagnosis payload: the full typed aggregate behind the
// leading format byte. `module` (optional) lets the decoder bounds-check
// repair-plan instruction anchors.
void EncodeFullReport(const report::Report& report, std::vector<uint8_t>* out);
support::Result<report::Report> DecodeFullReport(std::span<const uint8_t> bytes,
                                                 const ir::Module* module = nullptr);

}  // namespace snorlax::wire

#endif  // SNORLAX_WIRE_SERIALIZE_H_
