// FaultInjector: applies a FaultPlan to a captured PtTraceBundle, mutating
// raw PT bytes and bundle metadata the way field corruption does. All
// mutations are driven by one seeded Rng, so a (plan, bundle) pair is fully
// reproducible -- the chaos bench and the CLI `fuzz-trace` subcommand rely on
// replaying the exact same corruption.
#ifndef SNORLAX_FAULTS_INJECTOR_H_
#define SNORLAX_FAULTS_INJECTOR_H_

#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "pt/encoder.h"
#include "support/rng.h"

namespace snorlax::faults {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Applies every fault of the plan, in order, to `bundle`. Returns a log of
  // the mutations performed (one line each), for diagnostics and tests.
  std::vector<std::string> Apply(pt::PtTraceBundle* bundle);

 private:
  void ApplyOne(const FaultSpec& fault, pt::PtTraceBundle* bundle,
                std::vector<std::string>* log);

  void BitFlip(double rate, pt::PtTraceBundle* bundle, std::vector<std::string>* log);
  void Truncate(double rate, pt::PtTraceBundle* bundle, std::vector<std::string>* log);
  void DropOrDup(FaultKind kind, double rate, pt::PtTraceBundle* bundle,
                 std::vector<std::string>* log);
  void ClockRegression(double rate, pt::PtTraceBundle* bundle,
                       std::vector<std::string>* log);
  void ThreadLoss(double rate, pt::PtTraceBundle* bundle, std::vector<std::string>* log);
  void ForgeFailure(double rate, pt::PtTraceBundle* bundle, std::vector<std::string>* log);
  void VersionSkew(double rate, pt::PtTraceBundle* bundle, std::vector<std::string>* log);

  FaultPlan plan_;
  Rng rng_;
};

// FrameFaultInjector: the wire-layer sibling of FaultInjector. Applies the
// plan's kFrameCorrupt specs to encoded protocol frames on their way onto the
// socket: a hit frame is truncated mid-byte, gets one bit flipped, or is
// transmitted twice (link-level retransmit duplicating an already-delivered
// frame). The same seeded-Rng determinism contract holds: a (plan, frame
// sequence) pair always produces the same corruption.
class FrameFaultInjector {
 public:
  explicit FrameFaultInjector(const FaultPlan& plan);

  // True when the plan carries at least one kFrameCorrupt spec.
  bool enabled() const { return rate_ > 0.0; }

  // Mutates `frame` (one encoded wire frame) in place. Sets *send_twice when
  // the duplicate-frame fault fired. Returns a log line per mutation.
  std::vector<std::string> Apply(std::vector<uint8_t>* frame, bool* send_twice);

 private:
  double rate_ = 0.0;
  Rng rng_;
};

// RebuildFaultInjector: the engine-side sibling. At the plan's kRebuildThrow
// rate it makes a re-projection of evidence the engine already holds throw,
// so tests reach the crash barrier around that rebuild, which no valid
// bundle triggers. Same seeded-Rng determinism contract.
class RebuildFaultInjector {
 public:
  explicit RebuildFaultInjector(const FaultPlan& plan);

  // Throws std::runtime_error when the fault fires for this rebuild.
  void MaybeThrow();

 private:
  double rate_ = 0.0;
  Rng rng_;
};

}  // namespace snorlax::faults

#endif  // SNORLAX_FAULTS_INJECTOR_H_
