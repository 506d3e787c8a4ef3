#include "faults/injector.h"

#include <algorithm>
#include <stdexcept>

#include "pt/packets.h"
#include "support/str.h"

namespace snorlax::faults {

namespace {

// Walks `bytes` packet by packet. Decodable packets are reported via
// `on_packet(start, end)`; undecodable bytes are reported one at a time via
// `on_garbage(pos)`. This makes packet-granular faults composable with
// byte-granular ones already applied (garbage passes through untouched).
template <typename PacketFn, typename GarbageFn>
void ForEachPacket(const std::vector<uint8_t>& bytes, PacketFn on_packet,
                   GarbageFn on_garbage) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t next = pos;
    if (pt::DecodePacket(bytes, &next).has_value()) {
      on_packet(pos, next);
      pos = next;
    } else {
      on_garbage(pos);
      ++pos;
    }
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)), rng_(plan_.seed) {}

std::vector<std::string> FaultInjector::Apply(pt::PtTraceBundle* bundle) {
  std::vector<std::string> log;
  for (const FaultSpec& fault : plan_.faults) {
    ApplyOne(fault, bundle, &log);
  }
  return log;
}

void FaultInjector::ApplyOne(const FaultSpec& fault, pt::PtTraceBundle* bundle,
                             std::vector<std::string>* log) {
  switch (fault.kind) {
    case FaultKind::kBitFlip:
      BitFlip(fault.rate, bundle, log);
      break;
    case FaultKind::kTruncate:
      Truncate(fault.rate, bundle, log);
      break;
    case FaultKind::kDropPacket:
    case FaultKind::kDuplicatePacket:
      DropOrDup(fault.kind, fault.rate, bundle, log);
      break;
    case FaultKind::kClockRegression:
      ClockRegression(fault.rate, bundle, log);
      break;
    case FaultKind::kThreadLoss:
      ThreadLoss(fault.rate, bundle, log);
      break;
    case FaultKind::kForgeFailure:
      ForgeFailure(fault.rate, bundle, log);
      break;
    case FaultKind::kVersionSkew:
      VersionSkew(fault.rate, bundle, log);
      break;
    case FaultKind::kFrameCorrupt:
      // Wire-layer fault: meaningless against an in-memory bundle. Applied by
      // FrameFaultInjector to encoded frames instead.
      break;
    case FaultKind::kRebuildThrow:
      // Engine-side fault, applied by RebuildFaultInjector.
      break;
  }
}

void FaultInjector::BitFlip(double rate, pt::PtTraceBundle* bundle,
                            std::vector<std::string>* log) {
  // Rate is per packet, like every other packet-stream fault kind: a hit
  // packet gets one random bit flipped. Bytes that no longer parse as
  // packets (garbage from an earlier fault) take per-byte hits instead, so
  // stacked plans keep corrupting already-corrupt regions.
  for (pt::PtTraceBundle::PerThread& per : bundle->threads) {
    size_t flips = 0;
    const auto flip_in = [&](size_t start, size_t end) {
      const size_t at = start + rng_.NextBelow(end - start);
      per.bytes[at] ^= static_cast<uint8_t>(1u << rng_.NextBelow(8));
      ++flips;
    };
    ForEachPacket(
        per.bytes,
        [&](size_t start, size_t end) {
          if (rng_.NextBool(rate)) {
            flip_in(start, end);
          }
        },
        [&](size_t pos) {
          if (rng_.NextBool(rate)) {
            flip_in(pos, pos + 1);
          }
        });
    if (flips > 0) {
      log->push_back(StrFormat("bitflip: thread %u, %zu bits flipped", per.thread, flips));
    }
  }
}

void FaultInjector::Truncate(double rate, pt::PtTraceBundle* bundle,
                             std::vector<std::string>* log) {
  for (pt::PtTraceBundle::PerThread& per : bundle->threads) {
    if (per.bytes.empty() || !rng_.NextBool(rate)) {
      continue;
    }
    // Cut anywhere, including mid-packet: a wrap or a partial flush does not
    // respect packet boundaries.
    const size_t keep = rng_.NextBelow(per.bytes.size());
    per.bytes.resize(keep);
    log->push_back(StrFormat("truncate: thread %u cut to %zu bytes", per.thread, keep));
  }
}

void FaultInjector::DropOrDup(FaultKind kind, double rate, pt::PtTraceBundle* bundle,
                              std::vector<std::string>* log) {
  const bool dup = kind == FaultKind::kDuplicatePacket;
  for (pt::PtTraceBundle::PerThread& per : bundle->threads) {
    std::vector<uint8_t> out;
    out.reserve(per.bytes.size());
    size_t hits = 0;
    ForEachPacket(
        per.bytes,
        [&](size_t start, size_t end) {
          const bool hit = rng_.NextBool(rate);
          hits += hit;
          const int copies = hit ? (dup ? 2 : 0) : 1;
          for (int c = 0; c < copies; ++c) {
            out.insert(out.end(), per.bytes.begin() + start, per.bytes.begin() + end);
          }
        },
        [&](size_t pos) { out.push_back(per.bytes[pos]); });
    if (hits > 0) {
      per.bytes = std::move(out);
      log->push_back(StrFormat("%s: thread %u, %zu packets", dup ? "dup" : "drop",
                               per.thread, hits));
    }
  }
}

void FaultInjector::ClockRegression(double rate, pt::PtTraceBundle* bundle,
                                    std::vector<std::string>* log) {
  for (pt::PtTraceBundle::PerThread& per : bundle->threads) {
    size_t hits = 0;
    ForEachPacket(
        per.bytes,
        [&](size_t start, size_t end) {
          // Only PSBs carry an absolute clock; rewinding one makes the
          // decoder's timeline run backwards mid-stream. Re-decode to identify
          // the packet: a first-byte match is not enough (other packet kinds
          // share the 0x02 lead byte, and writing the tsc into one of those
          // would stomp past the packet end).
          size_t probe = start;
          const std::optional<pt::Packet> packet = pt::DecodePacket(per.bytes, &probe);
          if (!packet.has_value() || packet->kind != pt::PacketKind::kPsb ||
              !rng_.NextBool(rate)) {
            return;
          }
          const size_t tsc_off = start + pt::kPsbMagicSize + 6;
          if (tsc_off + 8 > end) {
            return;
          }
          uint64_t tsc = 0;
          for (int i = 7; i >= 0; --i) {
            tsc = (tsc << 8) | per.bytes[tsc_off + i];
          }
          if (tsc == 0) {
            return;
          }
          const uint64_t rewound = rng_.NextBelow(tsc);
          for (int i = 0; i < 8; ++i) {
            per.bytes[tsc_off + i] = static_cast<uint8_t>((rewound >> (8 * i)) & 0xff);
          }
          ++hits;
        },
        [](size_t) {});
    if (hits > 0) {
      log->push_back(
          StrFormat("clockregress: thread %u, %zu PSB clocks rewound", per.thread, hits));
    }
  }
}

void FaultInjector::ThreadLoss(double rate, pt::PtTraceBundle* bundle,
                               std::vector<std::string>* log) {
  // Drop whole per-thread buffers (the kernel lost the mapping, or the dump
  // raced thread teardown). At rate 1.0 keep one survivor: total bundle loss
  // is the kTruncate/empty case, not what this fault models.
  std::vector<pt::PtTraceBundle::PerThread> kept;
  const size_t total = bundle->threads.size();
  for (size_t i = 0; i < total; ++i) {
    pt::PtTraceBundle::PerThread& per = bundle->threads[i];
    const size_t would_remain = kept.size() + (total - i - 1);
    if (rng_.NextBool(rate) && would_remain > 0) {
      log->push_back(StrFormat("threadloss: thread %u buffer dropped", per.thread));
    } else {
      kept.push_back(std::move(per));
    }
  }
  bundle->threads = std::move(kept);
}

void FaultInjector::ForgeFailure(double rate, pt::PtTraceBundle* bundle,
                                 std::vector<std::string>* log) {
  if (!rng_.NextBool(rate)) {
    return;
  }
  switch (rng_.NextBelow(4)) {
    case 0:
      // PC points outside the module (stripped-binary mapping gone wrong).
      bundle->failure.failing_inst = 0x7fffffffu - static_cast<uint32_t>(rng_.NextBelow(1024));
      log->push_back("forgefailure: failing_inst forged out of range");
      break;
    case 1:
      // The failure record was zeroed in transit.
      bundle->failure.kind = rt::FailureKind::kNone;
      log->push_back("forgefailure: failure kind cleared");
      break;
    case 2:
      // Deadlock report names an instruction that does not exist.
      bundle->failure.deadlock_cycle.push_back(
          {static_cast<rt::ThreadId>(rng_.NextBelow(64)),
           0x7fffffffu - static_cast<uint32_t>(rng_.NextBelow(1024)),
           bundle->failure.time_ns});
      log->push_back("forgefailure: bogus deadlock waiter appended");
      break;
    default:
      // Failure time jumps far into the future (clock skew at crash time).
      bundle->failure.time_ns += 1ull << 40;
      log->push_back("forgefailure: failure time skewed forward");
      break;
  }
}

void FaultInjector::VersionSkew(double rate, pt::PtTraceBundle* bundle,
                                std::vector<std::string>* log) {
  if (!rng_.NextBool(rate)) {
    return;
  }
  if (rng_.NextBool(0.5)) {
    bundle->trace_version = pt::kPtTraceVersion + 1 + static_cast<uint32_t>(rng_.NextBelow(8));
    log->push_back(StrFormat("versionskew: trace_version -> %u", bundle->trace_version));
  } else {
    bundle->module_fingerprint ^= 0x5a5a5a5a5a5a5a5aULL;
    log->push_back("versionskew: module fingerprint perturbed");
  }
}

FrameFaultInjector::FrameFaultInjector(const FaultPlan& plan) : rng_(plan.seed) {
  // Several kFrameCorrupt specs compose by probability: a frame is hit when
  // any of them fires, so 0.01 + 0.01 composes to 1-(0.99^2).
  double miss = 1.0;
  for (const FaultSpec& fault : plan.faults) {
    if (fault.kind == FaultKind::kFrameCorrupt) {
      miss *= 1.0 - fault.rate;
    }
  }
  rate_ = 1.0 - miss;
}

std::vector<std::string> FrameFaultInjector::Apply(std::vector<uint8_t>* frame,
                                                   bool* send_twice) {
  *send_twice = false;
  std::vector<std::string> log;
  if (frame->empty() || !rng_.NextBool(rate_)) {
    return log;
  }
  switch (rng_.NextBelow(3)) {
    case 0: {
      // Truncation: the tail never makes it onto the wire (connection died
      // mid-send, or a proxy cut the stream). Keep at least one byte so the
      // reassembler sees garbage rather than nothing.
      const size_t keep = 1 + rng_.NextBelow(frame->size());
      if (keep < frame->size()) {
        frame->resize(keep);
        log.push_back(StrFormat("frame: truncated to %zu bytes", keep));
      }
      break;
    }
    case 1: {
      const size_t at = rng_.NextBelow(frame->size());
      (*frame)[at] ^= static_cast<uint8_t>(1u << rng_.NextBelow(8));
      log.push_back(StrFormat("frame: bit flipped at byte %zu", at));
      break;
    }
    default:
      *send_twice = true;
      log.push_back("frame: duplicated");
      break;
  }
  return log;
}

RebuildFaultInjector::RebuildFaultInjector(const FaultPlan& plan) : rng_(plan.seed) {
  double miss = 1.0;
  for (const FaultSpec& fault : plan.faults) {
    if (fault.kind == FaultKind::kRebuildThrow) {
      miss *= 1.0 - std::clamp(fault.rate, 0.0, 1.0);
    }
  }
  rate_ = 1.0 - miss;
}

void RebuildFaultInjector::MaybeThrow() {
  if (rate_ > 0.0 && rng_.NextBool(rate_)) {
    throw std::runtime_error("injected rebuild fault");
  }
}

}  // namespace snorlax::faults
