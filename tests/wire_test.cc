// Wire-format properties the fleet protocol depends on:
//   - encode -> decode -> re-encode is bit-for-bit stable for random bundles
//     and reports (doubles travel as IEEE-754 bits, so no precision drift),
//   - any single flipped bit or byte anywhere in a frame is caught by the
//     frame CRC (which covers the header too) or rejected by the decoder --
//     never silently accepted,
//   - the assembler resynchronizes after garbage and truncated frames, losing
//     only the corrupt frame,
//   - hostile length fields are clean rejections, not allocations.
#include <gtest/gtest.h>

#include "engine/pass.h"
#include "pt/packets.h"
#include "report/report.h"
#include "support/rng.h"
#include "wire/frame.h"
#include "wire/ring.h"
#include "wire/serialize.h"

namespace snorlax {
namespace {

rt::FailureInfo RandomFailure(Rng& rng) {
  rt::FailureInfo failure;
  failure.kind = static_cast<rt::FailureKind>(
      rng.NextBelow(static_cast<uint64_t>(rt::FailureKind::kTimeout) + 1));
  failure.failing_inst = static_cast<ir::InstId>(rng.NextU64());
  failure.thread = static_cast<rt::ThreadId>(rng.NextU64());
  failure.operand.kind =
      static_cast<rt::Value::Kind>(rng.NextBelow(static_cast<uint64_t>(rt::Value::Kind::kFunc) + 1));
  failure.operand.ival = static_cast<int64_t>(rng.NextU64());
  failure.operand.obj = static_cast<uint32_t>(rng.NextU64());
  failure.operand.off = static_cast<uint32_t>(rng.NextU64());
  failure.time_ns = rng.NextU64();
  const size_t waiters = rng.NextBelow(4);
  for (size_t i = 0; i < waiters; ++i) {
    failure.deadlock_cycle.push_back({static_cast<rt::ThreadId>(rng.NextU64()),
                                      static_cast<ir::InstId>(rng.NextU64()),
                                      rng.NextU64()});
  }
  const size_t desc = rng.NextBelow(32);
  for (size_t i = 0; i < desc; ++i) {
    failure.description.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return failure;
}

pt::PtTraceBundle RandomBundle(Rng& rng) {
  pt::PtTraceBundle bundle;
  bundle.trace_version = static_cast<uint32_t>(rng.NextU64());
  bundle.module_fingerprint = rng.NextU64();
  bundle.config.buffer_bytes = rng.NextU64();
  bundle.config.mtc_period_ns = rng.NextU64();
  bundle.config.cyc_unit_ns = rng.NextU64();
  bundle.config.psb_period_bytes = rng.NextU64();
  bundle.config.enable_timing = rng.NextBool();
  bundle.config.bytes_per_ns = rng.NextU64();
  bundle.config.work_trace_bytes_per_us = rng.NextU64();
  bundle.config.persist_to_storage = rng.NextBool();
  bundle.config.storage_flush_ns_per_kb = rng.NextU64();
  const size_t threads = rng.NextBelow(5);
  for (size_t t = 0; t < threads; ++t) {
    pt::PtTraceBundle::PerThread per;
    per.thread = static_cast<rt::ThreadId>(rng.NextU64());
    const size_t bytes = rng.NextBelow(256);
    for (size_t i = 0; i < bytes; ++i) {
      per.bytes.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    per.total_written = rng.NextU64();
    per.last_retired = static_cast<ir::InstId>(rng.NextU64());
    bundle.threads.push_back(std::move(per));
  }
  bundle.snapshot_time_ns = rng.NextU64();
  bundle.stats.total_bytes = rng.NextU64();
  bundle.stats.shadow_bytes = rng.NextU64();
  bundle.stats.timing_bytes = rng.NextU64();
  bundle.stats.control_packets = rng.NextU64();
  bundle.stats.timing_packets = rng.NextU64();
  bundle.stats.psb_packets = rng.NextU64();
  bundle.stats.branch_events = rng.NextU64();
  bundle.stats.storage_bytes = rng.NextU64();
  bundle.stats.storage_flushes = rng.NextU64();
  bundle.failure = RandomFailure(rng);
  return bundle;
}

core::DiagnosisReport RandomReport(Rng& rng) {
  core::DiagnosisReport report;
  report.failure = RandomFailure(rng);
  const size_t patterns = rng.NextBelow(4);
  for (size_t i = 0; i < patterns; ++i) {
    core::DiagnosedPattern p;
    p.pattern.kind = static_cast<core::PatternKind>(
        rng.NextBelow(static_cast<uint64_t>(core::PatternKind::kAtomicityWRW) + 1));
    p.pattern.ordered = rng.NextBool();
    const size_t events = rng.NextBelow(4);
    for (size_t e = 0; e < events; ++e) {
      core::PatternEvent event;
      event.inst = static_cast<ir::InstId>(rng.NextU64());
      event.thread_slot = static_cast<uint8_t>(rng.NextBelow(256));
      event.thread_final = rng.NextBool();
      p.pattern.events.push_back(event);
    }
    p.precision = rng.NextDouble();
    p.recall = rng.NextDouble();
    p.f1 = rng.NextDouble();
    p.counts.true_positive = rng.NextU64();
    p.counts.false_positive = rng.NextU64();
    p.counts.false_negative = rng.NextU64();
    report.patterns.push_back(std::move(p));
  }
  report.hypothesis_violated = rng.NextBool();
  report.degradation.threads_total = rng.NextU64();
  report.degradation.decode_errors = rng.NextU64();
  report.degradation.lost_prefix = rng.NextBool();
  const size_t notes = rng.NextBelow(3);
  for (size_t i = 0; i < notes; ++i) {
    report.degradation.notes.push_back("note " + std::to_string(rng.NextU64()));
  }
  report.confidence = static_cast<trace::ConfidenceTier>(rng.NextBelow(3));
  report.stages.module_instructions = rng.NextU64();
  for (engine::PassStats& pass : report.stages.passes) {
    pass.runs = rng.NextBelow(100);
    pass.cache_hits = rng.NextBelow(100);
    pass.seconds = rng.NextDouble() * 100.0;
  }
  report.failing_traces = rng.NextU64();
  report.success_traces = rng.NextU64();
  return report;
}

TEST(WireSerializeTest, BundleRoundTripIsBitStable) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const pt::PtTraceBundle bundle = RandomBundle(rng);
    std::vector<uint8_t> encoded;
    wire::EncodeBundle(bundle, &encoded);
    auto decoded = wire::DecodeBundle(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    std::vector<uint8_t> re;
    wire::EncodeBundle(decoded.value(), &re);
    ASSERT_EQ(encoded, re) << "round trip not bit-stable at iteration " << i;
  }
}

TEST(WireSerializeTest, ReportRoundTripIsBitStable) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const report::Report report =
        report::MakeReport(RandomReport(rng), rng.NextU64(), "scenario " + std::to_string(i));
    std::vector<uint8_t> encoded;
    wire::EncodeFullReport(report, &encoded);
    ASSERT_EQ(encoded[0], wire::kReportFormat);
    auto decoded = wire::DecodeFullReport(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    std::vector<uint8_t> re;
    wire::EncodeFullReport(decoded.value(), &re);
    ASSERT_EQ(encoded, re) << "round trip not bit-stable at iteration " << i;
  }
}

TEST(WireSerializeTest, PayloadFormatSkewIsVersionMismatch) {
  // Only one format of each payload kind is spoken; every other leading byte
  // -- the retired older generations and a future one alike -- is skew.
  Rng rng(3);
  std::vector<uint8_t> bundle;
  wire::EncodeBundle(RandomBundle(rng), &bundle);
  ASSERT_EQ(bundle[0], wire::kBundleFormat);
  for (const uint8_t lead : {uint8_t{1}, static_cast<uint8_t>(wire::kBundleFormat + 1)}) {
    bundle[0] = lead;
    auto decoded = wire::DecodeBundle(bundle);
    ASSERT_FALSE(decoded.ok()) << "bundle led by " << int{lead};
    EXPECT_EQ(decoded.status().code(), support::StatusCode::kVersionMismatch);
  }
  std::vector<uint8_t> report;
  wire::EncodeFullReport(report::MakeReport(RandomReport(rng), 7, ""), &report);
  for (const uint8_t lead : {uint8_t{1}, uint8_t{2}}) {
    report[0] = lead;
    auto decoded = wire::DecodeFullReport(report);
    ASSERT_FALSE(decoded.ok()) << "report led by " << int{lead};
    EXPECT_EQ(decoded.status().code(), support::StatusCode::kVersionMismatch);
  }
}

TEST(WireSerializeTest, TruncatedBundleNeverDecodes) {
  Rng rng(5);
  std::vector<uint8_t> encoded;
  wire::EncodeBundle(RandomBundle(rng), &encoded);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    const std::vector<uint8_t> cut(encoded.begin(),
                                   encoded.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_FALSE(wire::DecodeBundle(cut).ok()) << "decoded a " << keep << "-byte prefix";
  }
}

TEST(WireSerializeTest, ForgedCountIsCleanRejection) {
  // A bundle whose varint thread count claims 4 billion entries (over the
  // cap), or merely more entries than bytes remain, must be rejected before
  // any allocation happens.
  for (const uint64_t forged : {uint64_t{0xfffffff0u}, uint64_t{4000}}) {
    std::vector<uint8_t> bytes;
    wire::AppendU8(&bytes, wire::kBundleFormat);
    wire::AppendVarint(&bytes, 1);   // trace_version
    wire::AppendVarint(&bytes, 42);  // fingerprint
    for (int i = 0; i < 4; ++i) {
      wire::AppendVarint(&bytes, 0);  // buffer, mtc, cyc, psb period
    }
    wire::AppendU8(&bytes, 0);        // enable_timing
    wire::AppendVarint(&bytes, 0);    // bytes_per_ns
    wire::AppendVarint(&bytes, 0);    // work_trace_bytes_per_us
    wire::AppendU8(&bytes, 0);        // persist_to_storage
    wire::AppendVarint(&bytes, 0);    // storage_flush_ns_per_kb
    wire::AppendVarint(&bytes, forged);  // thread count
    auto decoded = wire::DecodeBundle(bytes);
    ASSERT_FALSE(decoded.ok()) << "forged count " << forged;
    EXPECT_EQ(decoded.status().code(), support::StatusCode::kCorruptData);
  }
}

// A packet stream shaped like the encoder's real output: PSB sync points
// followed by MTC/CYC timing pairs interleaved with TNT runs and occasional
// TIPs, timestamps advancing smoothly. This is the delta-friendly shape the
// token transcoder is built for.
std::vector<uint8_t> RealisticPtStream(Rng& rng, size_t target_bytes) {
  std::vector<uint8_t> raw;
  uint64_t tsc = 1000000 + rng.NextBelow(1u << 20);
  uint8_t ctc = static_cast<uint8_t>(rng.NextBelow(256));
  uint32_t block = 100;
  while (raw.size() < target_bytes) {
    pt::Packet psb;
    psb.kind = pt::PacketKind::kPsb;
    psb.block = block;
    psb.index = static_cast<uint16_t>(rng.NextBelow(48));
    psb.tsc = tsc;
    pt::EncodePacket(psb, &raw);
    for (int i = 0; i < 48 && raw.size() < target_bytes; ++i) {
      pt::Packet mtc;
      mtc.kind = pt::PacketKind::kMtc;
      mtc.ctc = ++ctc;
      pt::EncodePacket(mtc, &raw);
      pt::Packet cyc;
      cyc.kind = pt::PacketKind::kCyc;
      cyc.cyc_delta = static_cast<uint16_t>(620 + rng.NextBelow(12));
      pt::EncodePacket(cyc, &raw);
      pt::Packet tnt;
      tnt.kind = pt::PacketKind::kTnt;
      tnt.tnt_count = static_cast<uint8_t>(1 + rng.NextBelow(6));
      tnt.tnt_bits = static_cast<uint8_t>(rng.NextBelow(1ull << tnt.tnt_count));
      pt::EncodePacket(tnt, &raw);
      if (i % 5 == 0) {
        pt::Packet tip;
        tip.kind = pt::PacketKind::kTip;
        tip.block = block + static_cast<uint32_t>(rng.NextBelow(8));
        tip.index = static_cast<uint16_t>(rng.NextBelow(48));
        pt::EncodePacket(tip, &raw);
      }
      tsc += 1000 + rng.NextBelow(64);
    }
    block += static_cast<uint32_t>(1 + rng.NextBelow(16));
  }
  return raw;
}

TEST(WireSerializeTest, PtStreamTranscodeIsLossless) {
  Rng rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint8_t> raw = RealisticPtStream(rng, 512 + rng.NextBelow(2048));
    // Scatter corruption so raw escape runs are exercised alongside packets.
    const size_t flips = rng.NextBelow(8);
    for (size_t f = 0; f < flips && !raw.empty(); ++f) {
      raw[rng.NextBelow(raw.size())] ^= 0xff;
    }
    std::vector<uint8_t> compressed;
    wire::CompressPtStream(raw, &compressed);
    wire::ByteReader r(compressed);
    std::vector<uint8_t> restored;
    ASSERT_TRUE(wire::DecompressPtStream(&r, raw.size(), &restored).ok())
        << "iteration " << iter;
    ASSERT_TRUE(r.ExpectExhausted().ok());
    ASSERT_EQ(restored, raw) << "transcode not lossless at iteration " << iter;
  }
  // Pure byte soup must round-trip too (travels as raw escape runs, modulo
  // whatever accidentally decodes as packets -- still deterministic).
  std::vector<uint8_t> soup;
  for (int i = 0; i < 4096; ++i) {
    soup.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
  }
  std::vector<uint8_t> compressed;
  wire::CompressPtStream(soup, &compressed);
  wire::ByteReader r(compressed);
  std::vector<uint8_t> restored;
  ASSERT_TRUE(wire::DecompressPtStream(&r, soup.size(), &restored).ok());
  EXPECT_EQ(restored, soup);
}

TEST(WireSerializeTest, RealisticPtStreamCompressesAtLeastTwofold) {
  Rng rng(29);
  const std::vector<uint8_t> raw = RealisticPtStream(rng, 64u << 10);
  std::vector<uint8_t> compressed;
  wire::CompressPtStream(raw, &compressed);
  EXPECT_LE(compressed.size() * 2, raw.size())
      << "only " << raw.size() << " -> " << compressed.size();
}

TEST(WireSerializeTest, HostilePtTokenStreamsAreCleanRejections) {
  // Token byte = tag (low 3 bits) | arg << 3. Every forged stream below must
  // come back as a clean error -- never an abort (the decompressor validates
  // all fields before handing them to EncodePacket's invariant checks).
  const auto reject = [](std::vector<uint8_t> tokens, size_t raw_size) {
    wire::ByteReader r(tokens);
    std::vector<uint8_t> out;
    const support::Status status = wire::DecompressPtStream(&r, raw_size, &out);
    EXPECT_FALSE(status.ok());
  };
  reject({0x06}, 64);                          // unknown tag 6
  reject({0x07}, 64);                          // unknown tag 7
  reject({0x02}, 64);                          // TNT count 0
  reject({0x02 | (7u << 3), 0xff}, 64);        // TNT count 7
  reject({0x00}, 64);                          // raw run of length 0
  reject({0x00 | (8u << 3), 1, 2, 3}, 4);      // raw run past declared size
  reject({0x00 | (5u << 3), 1, 2}, 64);        // raw run truncated mid-bytes
  reject({0x01, 0x00, 0x00, 0x80, 0x80, 0x04}, 64);  // PSB index 65536
  reject({0x01, 0x00, 0x01, 0x00}, 64);        // PSB block -1 (zigzag)
  reject({0x03, 0x01, 0x00}, 64);              // TIP block -1
  reject({0x03, 0x00, 0x80, 0x80, 0x04}, 64);  // TIP index 65536
  reject({0x05 | (1u << 3)}, 64);              // CYC delta -1 (zigzag arg)
  reject({0x05 | (31u << 3), 0x80, 0x80, 0x04}, 64);  // CYC escape 65536
  reject({0x01, 0x00, 0x00, 0x00}, 4);         // PSB overruns declared size
  reject({}, 1);                               // empty stream, bytes promised
  // Ten varint continuation bytes: overlong encodings must not spin forever.
  reject({0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 64);
}

TEST(WireSerializeTest, FlippedCompressedStreamNeverAborts) {
  // Single-byte corruption of a valid compressed stream must always come back
  // as a clean status (ok or error, the frame CRC is the integrity layer) --
  // never a crash or runaway allocation.
  Rng rng(41);
  const std::vector<uint8_t> raw = RealisticPtStream(rng, 2048);
  std::vector<uint8_t> compressed;
  wire::CompressPtStream(raw, &compressed);
  for (size_t at = 0; at < compressed.size(); ++at) {
    std::vector<uint8_t> bad = compressed;
    bad[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    wire::ByteReader r(bad);
    std::vector<uint8_t> restored;
    (void)wire::DecompressPtStream(&r, raw.size(), &restored);
    EXPECT_LE(restored.size(), raw.size() + pt::kPsbBytes);
  }
}

TEST(WireSerializeTest, FlippedBundleBytesNeverAbort) {
  // Same property one layer up: DecodeBundle over every single-byte flip of an
  // encoded bundle returns cleanly. (A flip may still decode -- payload-level
  // integrity is the frame CRC's job -- but it must never trap or hang.)
  Rng rng(43);
  const pt::PtTraceBundle bundle = RandomBundle(rng);
  std::vector<uint8_t> encoded;
  wire::EncodeBundle(bundle, &encoded);
  for (size_t at = 0; at < encoded.size(); ++at) {
    std::vector<uint8_t> bad = encoded;
    bad[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    (void)wire::DecodeBundle(bad);
  }
}

TEST(WireFrameTest, FrameRoundTripThroughAssembler) {
  Rng rng(13);
  wire::FrameAssembler assembler;
  std::vector<wire::Frame> sent;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    wire::Frame frame;
    frame.type = wire::FrameType::kBundle;
    frame.seq = rng.NextU64();
    const size_t n = rng.NextBelow(300);
    for (size_t b = 0; b < n; ++b) {
      frame.payload.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    wire::EncodeFrame(frame, &stream);
    sent.push_back(std::move(frame));
  }
  // Feed in arbitrary chunk sizes to exercise reassembly.
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = std::min<size_t>(1 + rng.NextBelow(97), stream.size() - pos);
    ASSERT_TRUE(assembler.Feed(stream.data() + pos, chunk));
    pos += chunk;
  }
  for (const wire::Frame& expected : sent) {
    wire::Frame got;
    ASSERT_TRUE(assembler.Next(&got));
    EXPECT_EQ(got.type, expected.type);
    EXPECT_EQ(got.seq, expected.seq);
    EXPECT_EQ(got.payload, expected.payload);
  }
  wire::Frame extra;
  EXPECT_FALSE(assembler.Next(&extra));
  EXPECT_EQ(assembler.frames_corrupt(), 0u);
}

TEST(WireFrameTest, EverySingleByteFlipIsDetected) {
  // The CRC covers header and payload alike: flip one random bit of every
  // byte position in turn, and the corrupted frame must never surface. The
  // pristine sentinel appended after it must always survive the resync.
  Rng rng(17);
  wire::Frame frame;
  frame.type = wire::FrameType::kBundle;
  frame.seq = 0x1122334455667788ull;
  for (int i = 0; i < 64; ++i) {
    frame.payload.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
  }
  std::vector<uint8_t> clean;
  wire::EncodeFrame(frame, &clean);

  wire::Frame sentinel;
  sentinel.type = wire::FrameType::kHello;
  sentinel.seq = 0xdeadbeef;
  sentinel.payload = {1, 2, 3};
  std::vector<uint8_t> sentinel_bytes;
  wire::EncodeFrame(sentinel, &sentinel_bytes);

  for (size_t at = 0; at < clean.size(); ++at) {
    wire::FrameAssembler assembler;
    std::vector<uint8_t> corrupted = clean;
    corrupted[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    ASSERT_TRUE(assembler.Feed(corrupted.data(), corrupted.size()));
    ASSERT_TRUE(assembler.Feed(sentinel_bytes.data(), sentinel_bytes.size()));
    wire::Frame got;
    size_t delivered = 0;
    while (assembler.Next(&got)) {
      ++delivered;
      // Whatever survives must be the sentinel, bit for bit: the corrupted
      // frame is never silently accepted.
      EXPECT_EQ(got.type, sentinel.type) << "flip at byte " << at;
      EXPECT_EQ(got.seq, sentinel.seq) << "flip at byte " << at;
      EXPECT_EQ(got.payload, sentinel.payload) << "flip at byte " << at;
    }
    // A flip that enlarges the length field leaves the assembler waiting for
    // bytes that never arrive (the daemon recovers via timeout + reconnect),
    // so the sentinel may be swallowed -- but the corrupted frame itself must
    // never be delivered.
    EXPECT_LE(delivered, 1u) << "flip at byte " << at;
  }
}

TEST(WireFrameTest, EveryByteFlipIsDetectedOnCompressedBundles) {
  // Re-run of the flip sweep with a real (compressed) bundle payload: the
  // end-to-end guarantee is that a corrupted compressed bundle either fails
  // the frame CRC or is dropped -- whatever the assembler delivers must be
  // the pristine original, and must still decompress to the original bundle.
  Rng rng(19);
  pt::PtTraceBundle bundle = RandomBundle(rng);
  bundle.threads.resize(1);
  bundle.threads[0].bytes = RealisticPtStream(rng, 512);

  wire::Frame frame;
  frame.type = wire::FrameType::kBundle;
  frame.seq = 7;
  wire::BundlePayload payload;
  wire::EncodeBundle(bundle, &payload.bundle_bytes);
  wire::EncodeBundlePayload(payload, &frame.payload);
  std::vector<uint8_t> clean;
  wire::EncodeFrame(frame, &clean);

  std::vector<uint8_t> canonical;
  wire::EncodeBundle(bundle, &canonical);

  for (size_t at = 0; at < clean.size(); ++at) {
    wire::FrameAssembler assembler;
    std::vector<uint8_t> corrupted = clean;
    corrupted[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    ASSERT_TRUE(assembler.Feed(corrupted.data(), corrupted.size()));
    ASSERT_TRUE(assembler.Feed(clean.data(), clean.size()));
    wire::FrameView got;
    while (assembler.Next(&got)) {
      wire::BundlePayloadView view;
      ASSERT_TRUE(wire::DecodeBundlePayload(got.payload, &view).ok())
          << "flip at byte " << at;
      auto decoded = wire::DecodeBundle(view.bundle_bytes);
      ASSERT_TRUE(decoded.ok()) << "flip at byte " << at;
      std::vector<uint8_t> re;
      wire::EncodeBundle(decoded.value(), &re);
      EXPECT_EQ(re, canonical) << "corrupted bundle surfaced, flip at byte " << at;
    }
  }
}

TEST(WireFrameTest, ResyncAfterGarbageAndTruncation) {
  wire::Frame a;
  a.type = wire::FrameType::kBundle;
  a.seq = 1;
  a.payload = {10, 20, 30, 40, 50};
  wire::Frame b = a;
  b.seq = 2;

  std::vector<uint8_t> a_bytes, b_bytes;
  wire::EncodeFrame(a, &a_bytes);
  wire::EncodeFrame(b, &b_bytes);

  std::vector<uint8_t> stream = {0x00, 0x53, 0x4e, 0xff};  // garbage w/ fake magic start
  const size_t half = a_bytes.size() / 2;
  stream.insert(stream.end(), a_bytes.begin(), a_bytes.begin() + static_cast<ptrdiff_t>(half));
  stream.insert(stream.end(), b_bytes.begin(), b_bytes.end());

  wire::FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(stream.data(), stream.size()));
  wire::Frame got;
  ASSERT_TRUE(assembler.Next(&got));
  EXPECT_EQ(got.seq, 2u);  // the truncated frame is lost; the next survives
  EXPECT_FALSE(assembler.Next(&got));
  EXPECT_GT(assembler.bytes_discarded(), 0u);
  EXPECT_FALSE(assembler.DrainCorruptionLog().empty());
}

TEST(WireFrameTest, OversizedLengthFieldIsRejectedNotBuffered) {
  // Forge a header claiming a payload over kMaxFramePayload; the assembler
  // must reject it during header validation instead of waiting for 33 MB.
  wire::Frame frame;
  frame.type = wire::FrameType::kBundle;
  frame.seq = 9;
  frame.payload = {1, 2, 3};
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(frame, &bytes);
  // Patch payload_len (offset 14) to an absurd value; CRC now mismatches too,
  // but length validation must fire first -- no buffering for a frame that
  // can never complete.
  const uint32_t huge = static_cast<uint32_t>(wire::kMaxFramePayload + 1);
  for (int i = 0; i < 4; ++i) {
    bytes[14 + i] = static_cast<uint8_t>((huge >> (8 * i)) & 0xff);
  }
  wire::Frame sentinel;
  sentinel.type = wire::FrameType::kHello;
  sentinel.seq = 77;
  std::vector<uint8_t> sentinel_bytes;
  wire::EncodeFrame(sentinel, &sentinel_bytes);

  wire::FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(bytes.data(), bytes.size()));
  ASSERT_TRUE(assembler.Feed(sentinel_bytes.data(), sentinel_bytes.size()));
  wire::Frame got;
  ASSERT_TRUE(assembler.Next(&got));
  EXPECT_EQ(got.seq, 77u);
  EXPECT_GT(assembler.frames_corrupt(), 0u);
}

TEST(WireFrameTest, TypedPayloadsRoundTrip) {
  {
    wire::HelloPayload hello;
    hello.protocol_version = 3;
    hello.agent_id = 0xabcdef;
    std::vector<uint8_t> bytes;
    wire::EncodeHello(hello, &bytes);
    wire::HelloPayload out;
    ASSERT_TRUE(wire::DecodeHello(bytes, &out).ok());
    EXPECT_EQ(out.protocol_version, 3u);
    EXPECT_EQ(out.agent_id, 0xabcdefull);
  }
  {
    support::Status in =
        support::Status::Error(support::StatusCode::kVersionMismatch, "speak v2");
    std::vector<uint8_t> bytes;
    wire::EncodeStatusPayload(in, &bytes);
    support::Status out;
    ASSERT_TRUE(wire::DecodeStatusPayload(bytes, &out).ok());
    EXPECT_EQ(out.code(), support::StatusCode::kVersionMismatch);
    EXPECT_EQ(out.message(), "speak v2");
  }
  {
    wire::BundleAckPayload ack;
    ack.bundle_seq = 41;
    ack.duplicate = true;
    ack.status = support::Status::Error(support::StatusCode::kCorruptData, "nope");
    std::vector<uint8_t> bytes;
    wire::EncodeBundleAck(ack, &bytes);
    wire::BundleAckPayload out;
    ASSERT_TRUE(wire::DecodeBundleAck(bytes, &out).ok());
    EXPECT_EQ(out.bundle_seq, 41u);
    EXPECT_TRUE(out.duplicate);
    EXPECT_EQ(out.status.code(), support::StatusCode::kCorruptData);
  }
  {
    wire::ShedPayload shed;
    shed.dropped_frames = 12;
    shed.note = "slow reader";
    std::vector<uint8_t> bytes;
    wire::EncodeShed(shed, &bytes);
    wire::ShedPayload out;
    ASSERT_TRUE(wire::DecodeShed(bytes, &out).ok());
    EXPECT_EQ(out.dropped_frames, 12u);
    EXPECT_EQ(out.note, "slow reader");
  }
}

TEST(WireFrameTest, Crc32MatchesKnownVector) {
  // "123456789" -> 0xcbf43926 is the canonical IEEE CRC-32 check value.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(wire::Crc32(check, sizeof(check)), 0xcbf43926u);
  // Chained computation must equal one-shot.
  const uint32_t head = wire::Crc32(check, 4);
  EXPECT_EQ(wire::Crc32(check + 4, 5, head), 0xcbf43926u);
}

wire::RingTopology ThreeMemberRing() {
  wire::RingTopology topology;
  topology.epoch = 5;
  topology.members = {{1, "127.0.0.1", 9001},
                      {2, "127.0.0.1", 9002},
                      {3, "127.0.0.1", 9003}};
  return topology;
}

TEST(WireRingTest, TopologyEncodingIsCanonical) {
  wire::RingTopology a = ThreeMemberRing();
  // The same membership assembled in a different order -- with a duplicate
  // node id thrown in -- must encode byte-identically after canonicalization.
  wire::RingTopology b;
  b.epoch = 5;
  b.members = {{3, "127.0.0.1", 9003},
               {1, "127.0.0.1", 9001},
               {1, "ignored-duplicate", 1},
               {2, "127.0.0.1", 9002}};
  wire::CanonicalizeTopology(&a);
  wire::CanonicalizeTopology(&b);
  std::vector<uint8_t> bytes_a, bytes_b;
  wire::EncodeTopology(a, &bytes_a);
  wire::EncodeTopology(b, &bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);

  wire::RingTopology out;
  ASSERT_TRUE(wire::DecodeTopology(bytes_a, &out).ok());
  EXPECT_EQ(out, a);
  EXPECT_EQ(out.epoch, 5u);
  ASSERT_EQ(out.members.size(), 3u);
  EXPECT_EQ(out.members[1].port, 9002);
}

TEST(WireRingTest, HelloAckCarriesTopologyOnlyWhenAsked) {
  wire::HelloAckPayload ack;
  ack.protocol_version = 3;
  ack.last_acked_seq = 17;
  ack.has_topology = true;
  ack.topology = ThreeMemberRing();
  std::vector<uint8_t> with_block;
  wire::EncodeHelloAck(ack, &with_block);
  wire::HelloAckPayload out;
  ASSERT_TRUE(wire::DecodeHelloAck(with_block, &out).ok());
  ASSERT_TRUE(out.has_topology);
  EXPECT_EQ(out.topology, ack.topology);
  EXPECT_EQ(out.last_acked_seq, 17u);

  // A single-daemon ack (no trailing block) decodes with has_topology false:
  // the agent then routes everything to the daemon it dialed.
  ack.has_topology = false;
  std::vector<uint8_t> without_block;
  wire::EncodeHelloAck(ack, &without_block);
  EXPECT_LT(without_block.size(), with_block.size());
  wire::HelloAckPayload single;
  ASSERT_TRUE(wire::DecodeHelloAck(without_block, &single).ok());
  EXPECT_FALSE(single.has_topology);
  EXPECT_TRUE(single.topology.empty());
}

TEST(WireRingTest, OwnershipIsDeterministicBalancedAndStable) {
  const wire::RingTopology ring = ThreeMemberRing();
  constexpr size_t kSites = 3000;
  size_t owned[4] = {0, 0, 0, 0};
  std::vector<uint64_t> owners(kSites);
  for (size_t i = 0; i < kSites; ++i) {
    const uint64_t hash = wire::RingSiteHash(0x1234 + i, static_cast<uint32_t>(i * 7));
    owners[i] = wire::RingOwnerOf(ring, hash);
    ASSERT_GE(owners[i], 1u);
    ASSERT_LE(owners[i], 3u);
    // Deterministic: the same site hashes to the same owner every time.
    EXPECT_EQ(wire::RingOwnerOf(ring, hash), owners[i]);
    ++owned[owners[i]];
  }
  // With 64 virtual nodes each, no member owns less than ~1/6 of the sites.
  for (uint64_t node = 1; node <= 3; ++node) {
    EXPECT_GT(owned[node], kSites / 6) << "node " << node << " starved";
  }

  // Consistent hashing: removing node 3 moves only node 3's sites.
  wire::RingTopology smaller = ring;
  smaller.members.pop_back();
  size_t moved = 0;
  for (size_t i = 0; i < kSites; ++i) {
    const uint64_t hash = wire::RingSiteHash(0x1234 + i, static_cast<uint32_t>(i * 7));
    const uint64_t owner = wire::RingOwnerOf(smaller, hash);
    if (owners[i] == 3) {
      ++moved;
      EXPECT_NE(owner, 3u);
    } else {
      EXPECT_EQ(owner, owners[i]) << "site " << i << " moved without cause";
    }
  }
  EXPECT_GT(moved, 0u);

  EXPECT_EQ(wire::RingOwnerOf(wire::RingTopology{}, 42), 0u);
  EXPECT_EQ(wire::RingFindMember(ring, 2)->port, 9002);
  EXPECT_EQ(wire::RingFindMember(ring, 9), nullptr);
}

TEST(WireRingTest, HandoffPayloadsRoundTrip) {
  {
    wire::HandoffBeginPayload begin;
    begin.module_fingerprint = 0xfeedface;
    begin.failing_inst = 99;
    begin.epoch = 7;
    begin.record_count = 12;
    std::vector<uint8_t> bytes;
    wire::EncodeHandoffBegin(begin, &bytes);
    wire::HandoffBeginPayload out;
    ASSERT_TRUE(wire::DecodeHandoffBegin(bytes, &out).ok());
    EXPECT_EQ(out.module_fingerprint, 0xfeedfaceull);
    EXPECT_EQ(out.failing_inst, 99u);
    EXPECT_EQ(out.epoch, 7u);
    EXPECT_EQ(out.record_count, 12u);
  }
  {
    wire::HandoffRecordPayload record;
    record.module_fingerprint = 0xfeedface;
    record.failing_inst = 99;
    record.record_bytes = {1, 2, 3, 4, 5};
    std::vector<uint8_t> bytes;
    wire::EncodeHandoffRecord(record, &bytes);
    wire::HandoffRecordPayload out;
    ASSERT_TRUE(wire::DecodeHandoffRecord(bytes, &out).ok());
    EXPECT_EQ(out.record_bytes, record.record_bytes);
    // The zero-copy view sees the same bytes without owning them.
    wire::HandoffRecordPayloadView view;
    ASSERT_TRUE(wire::DecodeHandoffRecord(bytes, &view).ok());
    ASSERT_EQ(view.record_bytes.size(), 5u);
    EXPECT_EQ(view.record_bytes[4], 5u);
  }
  {
    wire::HandoffAckPayload ack;
    ack.module_fingerprint = 0xfeedface;
    ack.failing_inst = 99;
    ack.status = support::Status::Error(support::StatusCode::kWrongShard, "not mine");
    std::vector<uint8_t> bytes;
    wire::EncodeHandoffAck(ack, &bytes);
    wire::HandoffAckPayload out;
    ASSERT_TRUE(wire::DecodeHandoffAck(bytes, &out).ok());
    EXPECT_EQ(out.failing_inst, 99u);
    EXPECT_EQ(out.status.code(), support::StatusCode::kWrongShard);
    EXPECT_EQ(out.status.message(), "not mine");
  }
}

}  // namespace
}  // namespace snorlax
