// Wire encoding of a PtTraceBundle: the format the agent ships, the durable
// log journals as evidence, and a hand-off carries to a site's next owner.
//
// Layout (explicit little-endian, DESIGN.md section 13): a leading format
// byte (kBundleFormat), then LEB128 varints for integer fields (zigzag for
// signed), and each thread's PT packet stream transcoded into a
// delta-compressed token stream -- timestamps and block ids are
// monotone/clustered (the coarse interleaving regime), so deltas are small
// and varints short. The transcoding is lossless to the byte, including
// streams with corrupt/undecodable regions (shipped as raw escape runs).
//
// Decoding is hostile-input safe: every read goes through the sticky-error
// support::ByteReader, and length fields are capped before any allocation,
// so a forged count is a clean kCorruptData rejection, never an OOM. Any
// other leading byte is a kVersionMismatch.
//
// The codec lives beside the bundle type, not in wire/, so the server can
// journal and restore evidence without depending on the transport layer;
// wire/serialize.h re-exports these names for the net code.
#ifndef SNORLAX_PT_BUNDLE_CODEC_H_
#define SNORLAX_PT_BUNDLE_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pt/encoder.h"
#include "support/binio.h"
#include "support/status.h"

namespace snorlax::pt {

// Leading format byte. The value continues the numbering of retired layouts
// (1 was fixed-width); it changes only with the layout it names.
inline constexpr uint8_t kBundleFormat = 2;

// Re-encodes a raw PT packet stream as a delta-compressed token stream:
// packets are parsed with the canonical codec, their fields delta-encoded
// against the previous packet of the same family (PSB tsc, PSB/TIP block,
// MTC ctc, CYC delta), and undecodable byte ranges shipped verbatim as raw
// escape runs -- corruption survives transcoding byte-exactly.
void CompressPtStream(const std::vector<uint8_t>& raw, std::vector<uint8_t>* out);

// Inverse: reconstructs exactly `raw_size` original bytes from the token
// stream at `r`. Hostile tokens (bad TNT count, oversized fields, runs past
// the declared size) are a clean kCorruptData rejection.
support::Status DecompressPtStream(support::ByteReader* r, size_t raw_size,
                                   std::vector<uint8_t>* out);

void EncodeBundle(const PtTraceBundle& bundle, std::vector<uint8_t>* out);
support::Result<PtTraceBundle> DecodeBundle(std::span<const uint8_t> bytes);

}  // namespace snorlax::pt

#endif  // SNORLAX_PT_BUNDLE_CODEC_H_
