// Per-layer attribution of the work a DiagnosisServer does inside one call,
// which the benchmark cannot time from outside the server:
//
//  - the server's own per-pass seconds (pass_stats(), recorded by SiteEngine
//    inside the real call) become duration-only children of the call's span;
//  - what those counters do not split is replayed once per bundle after the
//    timed rounds, on the same inputs: pt decode (inside the trace-process
//    pass), the durable-log evidence append, and the client side of shipping
//    a bundle (payload encode, frame encode + reassembly);
//  - the repair layers, which both workloads leave off, are replayed on each
//    site's diagnosis.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/server.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {

// Per-call samples (nanoseconds, or plain counts for the *_count names),
// keyed by span name.
using Samples = std::map<std::string, std::vector<double>>;

// Adds the passes that ran between `before` and `after` (two pass_stats()
// snapshots around one call) as duration-only children of `span`, and their
// durations as samples. Passes served from a cache record no time and are
// left out. Returns the trace.process child's id (0 when that pass did not
// run or nothing records).
uint32_t AttachPassDeltas(const snorlax::engine::PassStatsTable& before,
                          const snorlax::engine::PassStatsTable& after, uint32_t span,
                          uint64_t request, SpanRecorder* spans, Samples* samples);

// A trace.process span of a timed round that waits for its bundle's replayed
// pt decode: the replay runs after the rounds, in a warmed-up process.
struct DecodeAttachment {
  uint32_t span = 0;
  size_t site = 0;
  bool failing = false;
  size_t index = 0;
};

// Replayed cost of one bundle, nanoseconds (median of a few repetitions).
struct BundleCost {
  int64_t pt_decode = 0;
  int64_t durable_append = 0;  // EncodeProcessedTrace + DurableLog::Append
  int64_t wire_encode = 0;     // EncodeBundle
  int64_t wire_frame = 0;      // EncodeFrame + FrameAssembler::Next
};

struct SiteCost {
  std::vector<BundleCost> failing;
  std::vector<BundleCost> successes;
  const BundleCost& of(bool is_failing, size_t index) const {
    return is_failing ? failing[index] : successes[index];
  }
};

// Replays every bundle of `site`, with `durable_dir` as the scratch log, and
// adds per-call samples (pt.decode and the pt/trace size counts too).
SiteCost ReplayBundles(const Site& site, const DecodedSite& decoded,
                       const std::string& durable_dir, Samples* samples);

// Attaches each replayed pt decode under its trace.process span, and samples
// trace.build as the pass's time minus that decode.
void AttachDecodes(const std::vector<DecodeAttachment>& attachments,
                   const std::vector<SiteCost>& costs, SpanRecorder* spans, Samples* samples);

// The repair layers on each site's diagnosis from a fresh server:
// BuildRepairPlan (validate=false) for every site, and rt::ValidateRepair of
// the best candidate for the first `validate_sites` sites of the cohort.
void ReplayRepair(const std::vector<Site>& sites, const std::vector<DecodedSite>& decoded,
                  size_t validate_sites, Samples* samples);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
