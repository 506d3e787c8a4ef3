#include "pt/bundle_codec.h"

#include <optional>

#include "pt/packets.h"
#include "support/str.h"

namespace snorlax::pt {

using support::AppendU8;
using support::AppendVarint;
using support::ByteReader;
using support::Status;
using support::StatusCode;
using support::ZigzagDecode;
using support::ZigzagEncode;
using support::kMaxByteBlob;
using support::kMaxStringBytes;

// --- varint field access -----------------------------------------------------
//
// Integers travel as LEB128 varints (zigzag for signed), strings and counts
// behind a varint length. The read helpers add the range and cap checks a
// bare ByteReader::Varint() cannot know about.

namespace {

void AppendVarString(std::vector<uint8_t>* out, const std::string& s) {
  AppendVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

uint32_t ReadU32(ByteReader* r) {
  const uint64_t v = r->Varint();
  if (r->ok() && v > UINT32_MAX) {
    r->MarkCorrupt("u32 varint out of range");
    return 0;
  }
  return static_cast<uint32_t>(v);
}

std::string ReadString(ByteReader* r) {
  const uint64_t len = r->Varint();
  if (!r->ok()) {
    return {};
  }
  if (len > kMaxStringBytes) {
    r->MarkCorrupt("string length over cap");
    return {};
  }
  const std::span<const uint8_t> v = r->View(static_cast<size_t>(len));
  if (v.empty()) {
    return {};
  }
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

}  // namespace

// --- PT packet stream transcoding --------------------------------------------
//
// Token byte: low 3 bits = tag, high 5 bits = arg (31 = "escape", the real
// value follows). Delta context persists across the whole stream: PSB/TIP
// share prev_block (a TIP target is usually near the last sync point), PSB
// owns prev_tsc, MTC deltas its 8-bit ctc, and CYC is delta-of-delta -- loop
// iterations take near-identical time, so the second-order delta is ~0 and a
// 3-byte CYC becomes one byte. Undecodable bytes travel as raw escape runs.

namespace {

constexpr uint8_t kTokRaw = 0;
constexpr uint8_t kTokPsb = 1;
constexpr uint8_t kTokTnt = 2;
constexpr uint8_t kTokTip = 3;
constexpr uint8_t kTokMtc = 4;
constexpr uint8_t kTokCyc = 5;
constexpr uint8_t kArgEscape = 31;

void EmitToken(std::vector<uint8_t>* out, uint8_t tag, uint8_t arg) {
  out->push_back(static_cast<uint8_t>(tag | (arg << 3)));
}

void FlushRawRun(const std::vector<uint8_t>& raw, size_t begin, size_t end,
                 std::vector<uint8_t>* out) {
  if (begin >= end) {
    return;
  }
  const size_t len = end - begin;
  if (len <= 30) {
    EmitToken(out, kTokRaw, static_cast<uint8_t>(len));
  } else {
    EmitToken(out, kTokRaw, kArgEscape);
    AppendVarint(out, len - 31);
  }
  out->insert(out->end(), raw.begin() + static_cast<ptrdiff_t>(begin),
              raw.begin() + static_cast<ptrdiff_t>(end));
}

}  // namespace

void CompressPtStream(const std::vector<uint8_t>& raw, std::vector<uint8_t>* out) {
  uint64_t prev_tsc = 0;
  uint32_t prev_block = 0;
  uint8_t prev_ctc = 0;
  int64_t prev_cyc = 0;
  size_t pos = 0;
  size_t raw_begin = 0;  // start of the pending undecodable run
  while (pos < raw.size()) {
    size_t next = pos;
    const std::optional<Packet> p = DecodePacket(raw, &next);
    if (!p.has_value()) {
      // Not a packet here; retry one byte later (the decoder's own resync
      // discipline), accumulating the skipped bytes into a raw run.
      ++pos;
      continue;
    }
    FlushRawRun(raw, raw_begin, pos, out);
    switch (p->kind) {
      case PacketKind::kPsb:
        EmitToken(out, kTokPsb, 0);
        AppendVarint(out, ZigzagEncode(static_cast<int64_t>(p->tsc - prev_tsc)));
        AppendVarint(out, ZigzagEncode(static_cast<int64_t>(p->block) -
                                       static_cast<int64_t>(prev_block)));
        AppendVarint(out, p->index);
        prev_tsc = p->tsc;
        prev_block = p->block;
        break;
      case PacketKind::kTnt:
        EmitToken(out, kTokTnt, p->tnt_count);
        out->push_back(p->tnt_bits);
        break;
      case PacketKind::kTip:
        EmitToken(out, kTokTip, 0);
        AppendVarint(out, ZigzagEncode(static_cast<int64_t>(p->block) -
                                       static_cast<int64_t>(prev_block)));
        AppendVarint(out, p->index);
        prev_block = p->block;
        break;
      case PacketKind::kMtc: {
        const uint8_t delta = static_cast<uint8_t>(p->ctc - prev_ctc);
        if (delta < kArgEscape) {
          EmitToken(out, kTokMtc, delta);
        } else {
          EmitToken(out, kTokMtc, kArgEscape);
          out->push_back(p->ctc);
        }
        prev_ctc = p->ctc;
        break;
      }
      case PacketKind::kCyc: {
        const uint64_t zz =
            ZigzagEncode(static_cast<int64_t>(p->cyc_delta) - prev_cyc);
        if (zz < kArgEscape) {
          EmitToken(out, kTokCyc, static_cast<uint8_t>(zz));
        } else {
          EmitToken(out, kTokCyc, kArgEscape);
          AppendVarint(out, p->cyc_delta);
        }
        prev_cyc = static_cast<int64_t>(p->cyc_delta);
        break;
      }
    }
    pos = next;
    raw_begin = pos;
  }
  FlushRawRun(raw, raw_begin, raw.size(), out);
}

support::Status DecompressPtStream(ByteReader* r, size_t raw_size,
                                   std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(raw_size);
  uint64_t prev_tsc = 0;
  uint32_t prev_block = 0;
  uint8_t prev_ctc = 0;
  int64_t prev_cyc = 0;
  const auto corrupt = [](const char* what) {
    return Status::Error(StatusCode::kCorruptData, what);
  };
  while (out->size() < raw_size) {
    const uint8_t token = r->U8();
    if (!r->ok()) {
      return r->status();
    }
    const uint8_t tag = token & 0x7;
    const uint8_t arg = token >> 3;
    // Field validation happens here, before EncodePacket: its own invariant
    // checks abort the process, which a hostile token must never reach.
    switch (tag) {
      case kTokRaw: {
        uint64_t len = arg;
        if (arg == kArgEscape) {
          len = 31 + r->Varint();
          if (!r->ok()) {
            return r->status();
          }
        }
        if (len == 0 || len > raw_size - out->size()) {
          return corrupt("raw run out of bounds");
        }
        const std::span<const uint8_t> bytes = r->View(static_cast<size_t>(len));
        if (!r->ok()) {
          return r->status();
        }
        out->insert(out->end(), bytes.begin(), bytes.end());
        break;
      }
      case kTokPsb: {
        Packet p;
        p.kind = PacketKind::kPsb;
        p.tsc = prev_tsc + static_cast<uint64_t>(ZigzagDecode(r->Varint()));
        const int64_t block =
            static_cast<int64_t>(prev_block) + ZigzagDecode(r->Varint());
        const uint64_t index = r->Varint();
        if (!r->ok()) {
          return r->status();
        }
        if (block < 0 || block > 0xffffffffll || index > 0xffff) {
          return corrupt("psb fields out of range");
        }
        p.block = static_cast<uint32_t>(block);
        p.index = static_cast<uint16_t>(index);
        EncodePacket(p, out);
        prev_tsc = p.tsc;
        prev_block = p.block;
        break;
      }
      case kTokTnt: {
        if (arg < 1 || arg > 6) {
          return corrupt("tnt count out of range");
        }
        Packet p;
        p.kind = PacketKind::kTnt;
        p.tnt_count = arg;
        p.tnt_bits = r->U8();
        if (!r->ok()) {
          return r->status();
        }
        EncodePacket(p, out);
        break;
      }
      case kTokTip: {
        Packet p;
        p.kind = PacketKind::kTip;
        const int64_t block =
            static_cast<int64_t>(prev_block) + ZigzagDecode(r->Varint());
        const uint64_t index = r->Varint();
        if (!r->ok()) {
          return r->status();
        }
        if (block < 0 || block > 0xffffffffll || index > 0xffff) {
          return corrupt("tip fields out of range");
        }
        p.block = static_cast<uint32_t>(block);
        p.index = static_cast<uint16_t>(index);
        EncodePacket(p, out);
        prev_block = p.block;
        break;
      }
      case kTokMtc: {
        Packet p;
        p.kind = PacketKind::kMtc;
        if (arg == kArgEscape) {
          p.ctc = r->U8();
          if (!r->ok()) {
            return r->status();
          }
        } else {
          p.ctc = static_cast<uint8_t>(prev_ctc + arg);
        }
        EncodePacket(p, out);
        prev_ctc = p.ctc;
        break;
      }
      case kTokCyc: {
        int64_t cyc = 0;
        if (arg == kArgEscape) {
          const uint64_t v = r->Varint();
          if (!r->ok()) {
            return r->status();
          }
          if (v > 0xffff) {
            return corrupt("cyc delta out of range");
          }
          cyc = static_cast<int64_t>(v);
        } else {
          cyc = prev_cyc + ZigzagDecode(arg);
          if (cyc < 0 || cyc > 0xffff) {
            return corrupt("cyc delta out of range");
          }
        }
        Packet p;
        p.kind = PacketKind::kCyc;
        p.cyc_delta = static_cast<uint16_t>(cyc);
        EncodePacket(p, out);
        prev_cyc = cyc;
        break;
      }
      default:
        return corrupt("unknown pt stream token");
    }
    // A packet token near the declared end can overshoot (a PSB appends 22
    // bytes); the compressor never produces that, so it is hostile input.
    if (out->size() > raw_size) {
      return corrupt("pt stream overruns declared size");
    }
  }
  return Status::Ok();
}

// --- bundle sub-records ------------------------------------------------------

namespace {

void EncodeValueRec(const rt::Value& v, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(v.kind));
  AppendVarint(out, ZigzagEncode(v.ival));
  AppendVarint(out, v.obj);
  AppendVarint(out, v.off);
}

Status DecodeValueRec(ByteReader* r, rt::Value* out) {
  const uint8_t kind = r->U8();
  out->ival = ZigzagDecode(r->Varint());
  out->obj = ReadU32(r);
  out->off = ReadU32(r);
  if (!r->ok()) {
    return r->status();
  }
  if (kind > static_cast<uint8_t>(rt::Value::Kind::kFunc)) {
    return Status::Error(StatusCode::kCorruptData, "value kind out of range");
  }
  out->kind = static_cast<rt::Value::Kind>(kind);
  return Status::Ok();
}

void EncodePtConfig(const PtConfig& c, std::vector<uint8_t>* out) {
  AppendVarint(out, c.buffer_bytes);
  AppendVarint(out, c.mtc_period_ns);
  AppendVarint(out, c.cyc_unit_ns);
  AppendVarint(out, c.psb_period_bytes);
  AppendU8(out, c.enable_timing ? 1 : 0);
  AppendVarint(out, c.bytes_per_ns);
  AppendVarint(out, c.work_trace_bytes_per_us);
  AppendU8(out, c.persist_to_storage ? 1 : 0);
  AppendVarint(out, c.storage_flush_ns_per_kb);
}

void DecodePtConfig(ByteReader* r, PtConfig* c) {
  c->buffer_bytes = r->Varint();
  c->mtc_period_ns = r->Varint();
  c->cyc_unit_ns = r->Varint();
  c->psb_period_bytes = r->Varint();
  c->enable_timing = r->U8() != 0;
  c->bytes_per_ns = r->Varint();
  c->work_trace_bytes_per_us = r->Varint();
  c->persist_to_storage = r->U8() != 0;
  c->storage_flush_ns_per_kb = r->Varint();
}

void EncodePtStats(const PtStats& s, std::vector<uint8_t>* out) {
  AppendVarint(out, s.total_bytes);
  AppendVarint(out, s.shadow_bytes);
  AppendVarint(out, s.timing_bytes);
  AppendVarint(out, s.control_packets);
  AppendVarint(out, s.timing_packets);
  AppendVarint(out, s.psb_packets);
  AppendVarint(out, s.branch_events);
  AppendVarint(out, s.storage_bytes);
  AppendVarint(out, s.storage_flushes);
}

void DecodePtStats(ByteReader* r, PtStats* s) {
  s->total_bytes = r->Varint();
  s->shadow_bytes = r->Varint();
  s->timing_bytes = r->Varint();
  s->control_packets = r->Varint();
  s->timing_packets = r->Varint();
  s->psb_packets = r->Varint();
  s->branch_events = r->Varint();
  s->storage_bytes = r->Varint();
  s->storage_flushes = r->Varint();
}

void EncodeFailureInfoRec(const rt::FailureInfo& failure, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(failure.kind));
  AppendVarint(out, failure.failing_inst);
  AppendVarint(out, failure.thread);
  EncodeValueRec(failure.operand, out);
  AppendVarint(out, failure.time_ns);
  AppendVarint(out, failure.deadlock_cycle.size());
  for (const rt::FailureInfo::DeadlockWaiter& waiter : failure.deadlock_cycle) {
    AppendVarint(out, waiter.thread);
    AppendVarint(out, waiter.inst);
    AppendVarint(out, waiter.block_time_ns);
  }
  AppendVarString(out, failure.description);
}

Status DecodeFailureInfoRec(ByteReader* r, rt::FailureInfo* out) {
  const uint8_t kind = r->U8();
  out->failing_inst = ReadU32(r);
  out->thread = ReadU32(r);
  Status status = DecodeValueRec(r, &out->operand);
  if (!status.ok()) {
    return status;
  }
  out->time_ns = r->Varint();
  const size_t waiters = r->Count();
  out->deadlock_cycle.clear();
  out->deadlock_cycle.reserve(waiters);
  for (size_t i = 0; i < waiters && r->ok(); ++i) {
    rt::FailureInfo::DeadlockWaiter w;
    w.thread = ReadU32(r);
    w.inst = ReadU32(r);
    w.block_time_ns = r->Varint();
    out->deadlock_cycle.push_back(w);
  }
  out->description = ReadString(r);
  if (!r->ok()) {
    return r->status();
  }
  if (kind > static_cast<uint8_t>(rt::FailureKind::kTimeout)) {
    return Status::Error(StatusCode::kCorruptData, "failure kind out of range");
  }
  out->kind = static_cast<rt::FailureKind>(kind);
  return Status::Ok();
}

}  // namespace

// --- PtTraceBundle -----------------------------------------------------------

void EncodeBundle(const PtTraceBundle& bundle, std::vector<uint8_t>* out) {
  AppendU8(out, kBundleFormat);
  AppendVarint(out, bundle.trace_version);
  AppendVarint(out, bundle.module_fingerprint);
  EncodePtConfig(bundle.config, out);
  AppendVarint(out, bundle.threads.size());
  for (const PtTraceBundle::PerThread& per : bundle.threads) {
    AppendVarint(out, per.thread);
    AppendVarint(out, per.bytes.size());
    CompressPtStream(per.bytes, out);
    AppendVarint(out, per.total_written);
    AppendVarint(out, per.last_retired);
  }
  AppendVarint(out, bundle.snapshot_time_ns);
  EncodePtStats(bundle.stats, out);
  EncodeFailureInfoRec(bundle.failure, out);
}

support::Result<PtTraceBundle> DecodeBundle(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  const uint8_t format = r.U8();
  if (r.ok() && format != kBundleFormat) {
    return Status::Error(StatusCode::kVersionMismatch,
                         StrFormat("bundle payload format %u, this build speaks %u",
                                   format, kBundleFormat));
  }
  PtTraceBundle bundle;
  bundle.trace_version = ReadU32(&r);
  bundle.module_fingerprint = r.Varint();
  DecodePtConfig(&r, &bundle.config);
  const size_t threads = r.Count(4096);
  bundle.threads.clear();
  bundle.threads.reserve(threads);
  for (size_t i = 0; i < threads && r.ok(); ++i) {
    PtTraceBundle::PerThread per;
    per.thread = ReadU32(&r);
    const uint64_t raw_size = r.Varint();
    if (!r.ok()) {
      break;
    }
    if (raw_size > kMaxByteBlob) {
      r.MarkCorrupt("thread stream over cap");
      break;
    }
    Status status = DecompressPtStream(&r, static_cast<size_t>(raw_size), &per.bytes);
    if (!status.ok()) {
      return status;
    }
    per.total_written = r.Varint();
    per.last_retired = ReadU32(&r);
    bundle.threads.push_back(std::move(per));
  }
  bundle.snapshot_time_ns = r.Varint();
  DecodePtStats(&r, &bundle.stats);
  Status status = DecodeFailureInfoRec(&r, &bundle.failure);
  if (!status.ok()) {
    return status;
  }
  status = r.ExpectExhausted();
  if (!status.ok()) {
    return status;
  }
  return bundle;
}

}  // namespace snorlax::pt
