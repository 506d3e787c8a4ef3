// Fault taxonomy and composable fault plans for trace-bundle corruption.
//
// In-production failure reports are lossy by nature: ring buffers truncate,
// DMA and disk flips corrupt packet bytes, per-thread buffers go missing,
// clocks misbehave, and module updates race in-flight traces. The faults
// library reproduces that hostility deterministically (seeded xoshiro RNG) so
// the server's degradation ladder can be exercised, regression-tested, and
// swept by the chaos bench. A FaultPlan composes any number of fault kinds,
// each with its own rate; the same (plan, bundle) pair always yields the same
// corruption.
#ifndef SNORLAX_FAULTS_FAULT_PLAN_H_
#define SNORLAX_FAULTS_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "support/status.h"

namespace snorlax::faults {

enum class FaultKind : uint8_t {
  kBitFlip,          // flip random bits in raw packet bytes
  kTruncate,         // cut a thread's byte stream mid-packet
  kDropPacket,       // remove whole packets from the stream
  kDuplicatePacket,  // duplicate whole packets in place
  kClockRegression,  // rewrite PSB timestamps to run backwards
  kThreadLoss,       // lose entire per-thread buffers
  kForgeFailure,     // corrupt the failure record (bogus or cleared fields)
  kVersionSkew,      // trace version / module fingerprint mismatch
  kFrameCorrupt,     // wire-layer fault: truncate / bit-flip / duplicate a
                     // protocol frame in flight (applied to encoded frames by
                     // FrameFaultInjector, not to in-memory bundles)
  kRebuildThrow,     // engine-side fault: a re-projection of held evidence
                     // throws (RebuildFaultInjector); no bundle changes
};

inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kBitFlip,        FaultKind::kTruncate,
    FaultKind::kDropPacket,     FaultKind::kDuplicatePacket,
    FaultKind::kClockRegression, FaultKind::kThreadLoss,
    FaultKind::kForgeFailure,   FaultKind::kVersionSkew,
    FaultKind::kFrameCorrupt,
};

// kRebuildThrow is left out of kAllFaultKinds: it corrupts no bundle or
// frame, so the sweeps over the list would only add clean rows. Parse()
// accepts it by name all the same.

// Stable spelling used by plan specs, the CLI, and bench tables.
const char* FaultKindName(FaultKind kind);

// One fault dimension: `rate` is the per-site corruption probability (per
// byte for bit flips, per packet for drop/dup/clock, per thread buffer for
// truncate/loss, per bundle for forge/skew). Clamped to [0, 1].
struct FaultSpec {
  FaultKind kind = FaultKind::kBitFlip;
  double rate = 0.0;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  // Parses "kind@rate[,kind@rate...]", e.g. "bitflip@0.05,threadloss@0.25".
  // Kind names are those of FaultKindName. Whitespace is not tolerated: the
  // spec travels through CLI flags and bench ids verbatim.
  static support::Result<FaultPlan> Parse(const std::string& spec, uint64_t seed = 1);

  // Round-trips through Parse (without the seed).
  std::string ToString() const;
};

}  // namespace snorlax::faults

#endif  // SNORLAX_FAULTS_FAULT_PLAN_H_
