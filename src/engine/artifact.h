// Typed artifacts flowing between the diagnosis passes.
//
// Every pass declares what it consumes and produces as one of these types;
// the ArtifactStore keeps the produced values keyed by a content hash of the
// declared inputs. Two properties follow:
//   - incrementality: when new evidence arrives, only the passes whose input
//     hash changed re-run (e.g. a fresh success trace dirties kScore but not
//     kPointsTo unless the executed set grew), and
//   - equivalence: a cache hit is *definitionally* identical to a recompute,
//     because the key covers every input the pass reads.
// This store replaces and generalizes the PR 2 two-level analysis cache
// (site-keyed steps 4-5 + trace-keyed step 6) with one mechanism.
#ifndef SNORLAX_ENGINE_ARTIFACT_H_
#define SNORLAX_ENGINE_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/points_to.h"
#include "analysis/type_rank.h"
#include "engine/statistical.h"
#include "support/hash.h"
#include "trace/processed_trace.h"

namespace snorlax::engine {

class PatternVerdictCache;

enum class ArtifactKind : uint8_t {
  kExecutedSet = 0,     // steps 2-3 output identity (the set lives in the trace)
  kDerefChains,         // failure access chain (RETracer-style walk)
  kPointsTo,            // step 4 output + the failing operand's seed set
  kRankedCandidates,    // step 5 output
  kPatternSet,          // step 6 output for one failing trace
  kF1Scores,            // step 7 output over the full evidence set
  kProcessedTrace,      // steps 2-3: decoded bundle, keyed by raw content
  kRepairPlan,          // kRepair output: patches + validation verdicts
};
inline constexpr size_t kNumArtifactKinds = 8;

const char* ArtifactKindName(ArtifactKind kind);

// The content-hash primitives every artifact key is built from.
using support::HashCombine;
using support::Mix64;

// The executed set recovered from a failing trace's control flow. The set
// itself stays inside the ProcessedTrace; the artifact records its identity
// (a commutative content hash -- set iteration order is not deterministic
// across processes, the key must be).
struct ExecutedSetArtifact {
  uint64_t content_hash = 0;
  size_t size = 0;
};

struct DerefChainsArtifact {
  std::vector<const ir::Instruction*> chain;
};

struct PointsToArtifact {
  std::shared_ptr<const analysis::PointsToResult> result;
  // The failing operand's may-point-to set, seeded from the access chain
  // (plus every blocked acquisition of a deadlock cycle).
  analysis::ObjectSet seed;
};

struct RankedCandidatesArtifact {
  std::vector<analysis::RankedInstruction> ranked;
  size_t candidate_instructions = 0;
  size_t rank1_candidates = 0;
};

struct PatternSetArtifact {
  std::vector<BugPattern> patterns;
  bool hypothesis_violated = false;
  bool used_slice_fallback = false;
  // The slice fallback re-derives candidates and re-ranks; the stage counts
  // the report shows come from the ranking that actually produced patterns.
  RankedCandidatesArtifact effective_ranked;
  // Derived state, never serialized: the hypothesis-verdict memo built while
  // computing this set (valid only for the trace content it was keyed by --
  // the engine owns a registry keyed the same way) plus the hot-path counters
  // surfaced through --explain. A decoded artifact has a null cache and zero
  // counters; both are observability-only, the pattern set itself is
  // byte-identical either way.
  std::shared_ptr<PatternVerdictCache> verdicts;
  size_t pair_tests = 0;
  size_t alias_skips = 0;
  size_t verdict_hits = 0;
};

struct F1ScoresArtifact {
  std::vector<DiagnosedPattern> scored;  // sorted best-first, total order
  size_t top_f1_patterns = 0;
};

// A decoded bundle in the server's decode memo, keyed by trace::TraceKey. A
// fleet replaying the same interleaving -- retransmissions, crash loops, the
// steady state of a widespread bug -- skips packet decoding entirely. The
// trace is immutable, so each submission appends the same shared object as
// its evidence. Never persisted: durable and hand-off evidence is the bundle.
struct ProcessedTraceArtifact {
  std::shared_ptr<const trace::ProcessedTrace> trace;
};

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_ARTIFACT_H_
