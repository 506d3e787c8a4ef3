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
//   bundle (byte 2): pt/bundle_codec.h, re-exported below -- the server
//       journals the same bytes as evidence, so the codec sits beside the
//       bundle type rather than in this layer.
//   report (byte 3): the typed report::Report aggregate, encoded with the
//       canonical report codec.
// Every other leading byte is a kVersionMismatch.
#ifndef SNORLAX_WIRE_SERIALIZE_H_
#define SNORLAX_WIRE_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pt/bundle_codec.h"
#include "report/report.h"
#include "support/binio.h"
#include "support/status.h"

namespace snorlax::wire {

// Leading format byte of the report payload (the bundle's, 2, is
// pt::kBundleFormat). Part of the wire format; it changes only with the
// layout it names.
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

// --- payload codecs ----------------------------------------------------------

// The client->server evidence payload (pt/bundle_codec.h), under the names
// the net layer has always used.
using pt::kBundleFormat;
using pt::CompressPtStream;
using pt::DecompressPtStream;
using pt::EncodeBundle;
using pt::DecodeBundle;

// The server->client diagnosis payload: the full typed aggregate behind the
// leading format byte. `module` (optional) lets the decoder bounds-check
// repair-plan instruction anchors.
void EncodeFullReport(const report::Report& report, std::vector<uint8_t>* out);
support::Result<report::Report> DecodeFullReport(std::span<const uint8_t> bytes,
                                                 const ir::Module* module = nullptr);

}  // namespace snorlax::wire

#endif  // SNORLAX_WIRE_SERIALIZE_H_
