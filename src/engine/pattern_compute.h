// Bug pattern computation (paper section 4.4, step 6 of Figure 2).
//
// Takes the type-ranked candidate target instructions and the partially
// ordered dynamic trace of the failing execution, and generates the potential
// deadlock / order-violation / atomicity-violation patterns that may explain
// the failure. Partial flow sensitivity: "executes-before" edges between the
// candidates' dynamic instances come from the coarse timestamps; thread
// identity comes from the per-thread traces.
//
// The paper's assumption that the failing instruction is part of the pattern
// (section 7) is implemented here: every generated crash pattern ends at the
// failing access. When the coarse interleaving hypothesis does not hold (the
// candidate events are closer than the timing granularity), patterns are
// still emitted but flagged unordered -- Lazy Diagnosis degrades gracefully
// instead of fabricating an order.
//
// Every hypothesis is answered as an existence query over the trace's
// timestamp index: interval summaries reject most pairs without touching an
// instance, per-thread spans with prefix/suffix ts_lo extrema answer the rest
// in O(log span), and span lists merge-join by thread id. Sound because every
// emitted crash pattern names static instructions only -- whether SOME
// instance pair satisfies the executes-before chain is all that determines
// the output (DESIGN.md section 18 has the full argument). The golden digests
// under tests/golden/ freeze the output on every generated, catalogue and
// micro_patterns workload.
#ifndef SNORLAX_ENGINE_PATTERN_COMPUTE_H_
#define SNORLAX_ENGINE_PATTERN_COMPUTE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/type_rank.h"
#include "engine/pattern.h"
#include "runtime/failure.h"

namespace snorlax::analysis {
class PointsToResult;
}  // namespace snorlax::analysis

namespace snorlax::engine {

struct PatternComputeOptions {
  // Generation caps; candidates are consumed in rank order, so these bound
  // diagnosis latency exactly the way the paper's ranking intends.
  size_t max_patterns = 96;
  size_t max_candidates = 512;
  // AccessorsOf-driven candidate prefilter: crash patterns relate candidates
  // to the memory the failure chain touches, so candidates whose
  // pointer-operand points-to sets are provably disjoint from every chain
  // access's set are masked before any instance is inspected. For candidates
  // the pipeline derived via AccessorsOf over that same union the mask
  // provably keeps everything (it mirrors the admission criterion); it does
  // real pruning for direct callers with arbitrary candidate lists.
  // Conservative on unknown sets; part of the step-6 semantics, not an index
  // shortcut. No effect when no points-to result is supplied.
  bool pair_alias_filter = true;
};

// Cross-run memo of hypothesis verdicts, keyed by (question, anchor
// instance, instruction / instruction pair) -- all positions/ids within one
// processed trace, so a cache is only valid for the trace (content key) it
// was built against; the engine keys its registry accordingly and hands the
// cache to incremental re-diagnosis of the same failure. Stored inside the
// PatternSetArtifact as derived state (never serialized). Values are a small
// tagged word: per-question the tag is either the verdict bits or a
// found/none state whose payload is a timestamp aggregate.
class PatternVerdictCache {
 public:
  struct Verdict {
    uint8_t tag = 0;
    uint64_t value = 0;
  };

  // Entries are exact 128-bit keys (no lossy folding): a collision would
  // silently corrupt a verdict and break the digest-identity guarantee.
  bool Lookup(uint64_t hi, uint64_t lo, Verdict* verdict) const {
    const auto it = map_.find(std::make_pair(hi, lo));
    if (it == map_.end()) {
      return false;
    }
    *verdict = it->second;
    return true;
  }
  void Store(uint64_t hi, uint64_t lo, Verdict verdict) {
    if (map_.size() >= kMaxEntries) {
      return;  // full: stop growing, existing verdicts stay valid
    }
    map_.emplace(std::make_pair(hi, lo), verdict);
  }
  size_t size() const { return map_.size(); }

 private:
  static constexpr size_t kMaxEntries = 1u << 20;
  struct KeyHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
      uint64_t x = k.first ^ (k.second * 0x9e3779b97f4a7c15ull);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
      return static_cast<size_t>(x);
    }
  };
  std::unordered_map<std::pair<uint64_t, uint64_t>, Verdict, KeyHash> map_;
};

// Optional cross-stage inputs. Both are observability/performance features:
// a null points_to disables the alias prefilter, a null verdicts disables
// the cross-run memo; the emitted pattern set for a given options struct is
// the same either way (the memo) or changes only with pair_alias_filter.
struct PatternComputeContext {
  const analysis::PointsToResult* points_to = nullptr;
  PatternVerdictCache* verdicts = nullptr;
};

struct PatternComputeResult {
  std::vector<BugPattern> patterns;
  // True when at least one pattern had to be emitted unordered because the
  // events were interleaved finer than the timing granularity.
  bool hypothesis_violated = false;
  // Candidates actually inspected (for the stage-contribution metrics).
  size_t candidates_considered = 0;
  // --- Hot-path counters (not serialized; --explain and the benches) -------
  // Hypothesis pairs actually evaluated against the trace.
  size_t pair_tests = 0;
  // Candidates dropped by the alias prefilter before any pair formed (each
  // skip removes a whole row/column of pair tests for every anchor).
  size_t alias_skips = 0;
  // Verdicts served from the cross-run memo without touching the index.
  size_t verdict_hits = 0;
};

// `failure_chain` is the RETracer-style access chain from
// analysis::FailureAccessChain: the accesses that produced the faulting
// value. Patterns are anchored at these accesses' dynamic instances in the
// failing thread (the paper's "failing instruction is part of the pattern").
PatternComputeResult ComputePatterns(const ir::Module& module,
                                     const trace::ProcessedTrace& failing_trace,
                                     const std::vector<analysis::RankedInstruction>& ranked,
                                     const rt::FailureInfo& failure,
                                     const std::vector<const ir::Instruction*>& failure_chain,
                                     const PatternComputeOptions& options = {},
                                     const PatternComputeContext& context = {});

}  // namespace snorlax::engine

namespace snorlax::core {
using engine::ComputePatterns;
using engine::PatternComputeContext;
using engine::PatternComputeOptions;
using engine::PatternComputeResult;
using engine::PatternVerdictCache;
}  // namespace snorlax::core

#endif  // SNORLAX_ENGINE_PATTERN_COMPUTE_H_
