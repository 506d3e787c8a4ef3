// DiagnosisServer: the server side of Lazy Diagnosis (steps 2-7 of Figure 2).
//
// Lazy: the expensive interprocedural analysis runs only when a control-flow
// trace arrives, and only over the code that trace proves executed. On the
// first failing trace the server runs:
//   step 2-3  trace processing,
//   step 4    hybrid points-to analysis restricted to the executed set,
//   step 5    type-based ranking against the failing operand's type,
//   step 6    bug pattern computation under partial flow sensitivity,
// and records the dump points (failing PC, then its predecessors) it wants
// clients to trace successful executions at (step 8). Diagnose() finally runs
// step 7, statistical diagnosis, over everything received.
//
// Layering: this class is *policy* -- bundle validation, the success-trace
// cap, degradation bookkeeping, deadlines. The analysis mechanism (the pass
// pipeline, typed artifacts, the incremental scorer) lives in
// engine::SiteEngine; the server never calls into analysis/ directly.
//
// Concurrency: thread-compatible, like a standard container, with one
// difference: every call needs exclusive access, const ones included, since
// Diagnose() advances the engine's memoizing scorer. One failure site's
// diagnosis is a sequence over its traces, so a server has one owner at a
// time; ServerPool is that owner for a fleet and holds one lock per shard.
#ifndef SNORLAX_CORE_SERVER_H_
#define SNORLAX_CORE_SERVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/durable_log.h"
#include "engine/site_engine.h"
#include "support/status.h"
#include "trace/degradation.h"
#include "trace/processed_trace.h"

namespace snorlax::core {

// Per-stage footprint of the pipeline, powering the Figure 7 reproduction.
struct StageStats {
  size_t module_instructions = 0;    // whole-program instruction count
  size_t executed_instructions = 0;  // after trace processing (step 2)
  size_t candidate_instructions = 0; // after hybrid points-to (step 4)
  size_t rank1_candidates = 0;       // top band after type ranking (step 5)
  size_t patterns_generated = 0;     // after pattern computation (step 6)
  size_t top_f1_patterns = 0;        // patterns sharing the best F1 (step 7)

  // Cumulative wall time per stage, summed over every accepted bundle (the
  // old per-trace analysis_seconds under-reported once a server ingested more
  // than one trace). score_seconds covers the Diagnose() call that produced
  // the report carrying these stats.
  double trace_seconds = 0.0;      // steps 2-3: decode + trace processing
  double points_to_seconds = 0.0;  // step 4 (solver runs only; cache hits add 0)
  double rank_seconds = 0.0;       // step 5: chain walk + candidates + ranking
  double pattern_seconds = 0.0;    // step 6 (including the slice fallback retry)
  double score_seconds = 0.0;      // step 7

  // Node-local pass telemetry: per-pass run / cache-hit / seconds counters
  // and the artifact-store population behind them. NOT serialized by the wire
  // codec (the fields above keep their exact encoding); a decoded report
  // carries zeroes here.
  engine::PassStatsTable passes{};
  engine::ArtifactStore::Stats artifacts;

  double TraceReduction() const {
    return executed_instructions == 0
               ? 1.0
               : static_cast<double>(module_instructions) /
                     static_cast<double>(executed_instructions);
  }
  double RankReduction() const {
    return rank1_candidates == 0 ? 1.0
                                 : static_cast<double>(candidate_instructions) /
                                       static_cast<double>(rank1_candidates);
  }
};

struct DiagnosisReport {
  rt::FailureInfo failure;
  // All scored patterns, best (highest F1) first.
  std::vector<DiagnosedPattern> patterns;
  // True when pattern computation had to emit unordered events (coarse
  // interleaving hypothesis violated; paper section 7 degradation).
  bool hypothesis_violated = false;
  // Everything the ingest path lost to corruption plus the fallbacks that
  // fired, accumulated over every submitted bundle. `confidence` is its tier:
  // full (clean evidence), degraded (lossy but localized), low (diagnosis is
  // a guess -- e.g. the failure record itself was unusable).
  trace::DegradationReport degradation;
  trace::ConfidenceTier confidence = trace::ConfidenceTier::kFull;
  StageStats stages;
  // Server-side analysis wall time for the most recent trace (steps 2-7).
  double analysis_seconds = 0.0;
  // Cumulative server-side analysis wall time over every accepted bundle plus
  // this report's scoring -- the number the latency benches should charge.
  double total_analysis_seconds = 0.0;
  size_t failing_traces = 0;
  size_t success_traces = 0;
  // kRepair output: set only when Options::repair.enabled (the plan requires
  // running the interpreter, so it is opt-in per server).
  std::shared_ptr<const engine::RepairPlan> repair;

  const DiagnosedPattern* best() const { return patterns.empty() ? nullptr : &patterns[0]; }
};

class DiagnosisServer {
 public:
  struct Options {
    trace::TraceOptions trace;
    PatternComputeOptions patterns;
    // Paper: at most 10x as many successful traces as failing ones.
    size_t success_trace_multiplier = 10;
    // Ablation knobs (all on = Lazy Diagnosis as published).
    bool use_scope_restriction = true;  // off: whole-program points-to
    bool use_type_ranking = true;       // off: all candidates rank 1 in id order
    // Paper section 7 extension: when the failing operand's alias set yields
    // no pattern (the corrupt value flowed through memory the pointer walk
    // cannot follow, or the failing instruction is not part of the pattern),
    // retry with candidates drawn from the backward slice of the failure.
    bool use_slice_fallback = true;
    // Step-4 solver tier (engine/site_engine.h): exhaustive Andersen, the
    // demand-driven CFL-reachability solver, or auto (demand with a
    // graph-scaled node budget, falling back to exhaustive on exhaustion).
    analysis::PointsToOptions::Tier pta_tier = analysis::PointsToOptions::Tier::kExhaustive;
    size_t pta_node_budget = 0;  // demand tiers: 0 = tier default
    // Reuse pass artifacts across repeated failures at the same site via the
    // content-hash keyed artifact store: a pass whose declared inputs are
    // unchanged takes a cache hit instead of re-running (points-to re-runs
    // only when the executed set changes; pattern computation only when the
    // dynamic trace content changes; byte-identical bundle repeats skip
    // decoding via the decode memo). Off for benches that time the analysis
    // itself by resubmitting one bundle.
    bool use_analysis_cache = true;
    // Per-failing-bundle analysis budget, measured from SubmitFailingTrace
    // entry and checked at pass boundaries. On expiry the remaining passes
    // are skipped, the bundle still counts as scoring evidence, and the
    // submit returns kDeadlineExceeded with a degradation note. 0 = off.
    double analysis_deadline_seconds = 0.0;
    // Cluster durability: when set, accepted evidence, rejections, and every
    // newly computed engine artifact are appended to this log under
    // `durable_site`, and RestoreSiteRecords() rebuilds the server from a
    // replay of those records. Not owned; shared by every shard of a daemon.
    engine::DurableLog* durable_log = nullptr;
    engine::DurableSiteKey durable_site{};
    // kRepair: when enabled, Diagnose() maps each confirmed pattern to a
    // candidate patch (validated in the interpreter per these options) and
    // attaches the plan to the report. Off by default -- validation
    // re-executes the failing scenario, which only explicit diagnose paths
    // (CLI --suggest-fix, bench_repair) should pay.
    engine::RepairOptions repair;
  };

  explicit DiagnosisServer(const ir::Module* module);
  DiagnosisServer(const ir::Module* module, Options options);

  // A client hit a fail-stop event and shipped its trace. Runs steps 2-6.
  // Field bundles are hostile input: malformed ones are rejected with an
  // error (version skew, no failure record, nothing decodable) or accepted
  // with degradation recorded -- the server never aborts on bad data.
  support::Status SubmitFailingTrace(const pt::PtTraceBundle& bundle);
  // A client's dump point fired during a successful execution (step 8).
  // Ignored beyond the 10x cap (returns OK); corrupt bundles are rejected.
  support::Status SubmitSuccessTrace(const pt::PtTraceBundle& bundle);

  // Where clients should dump successful-execution traces: (pc, rank) with
  // rank 0 = the failing PC, 1+ = first instructions of predecessor blocks.
  std::vector<std::pair<ir::InstId, int>> RequestedDumpPoints() const;

  bool HasFailure() const { return !engine_.failing_traces().empty(); }
  size_t NumSuccessTraces() const { return engine_.success_traces().size(); }
  size_t SuccessTraceCap() const {
    return options_.success_trace_multiplier * engine_.failing_traces().size();
  }

  // Step 7: scores the computed patterns over all received traces. The
  // scorer is incremental -- repeated calls with unchanged evidence are a
  // kScore cache hit, and new evidence costs only its own folds -- with a
  // report digest-identical to recomputing from scratch.
  DiagnosisReport Diagnose() const;

  // -- Cluster durability and hand-off --
  // Rebuilds a freshly constructed server from `records` in original write
  // order: artifacts re-populate the store (subsequent passes cache-hit),
  // evidence re-enters through the normal add paths (each counted as a
  // kTraceProcess cache hit -- it was served from disk, not re-decoded), and
  // rejection records restore the degradation ledger, so the next Diagnose()
  // is digest-identical to the pre-restart server's. Nothing is re-appended
  // to the durable log except artifacts the replay was missing (healing a
  // salvaged prefix). Undecodable records are skipped and counted.
  void RestoreSiteRecords(std::vector<engine::SiteRecord>&& records);
  // Applies hand-off records from this site's previous owner, appending each
  // accepted record to this daemon's own durable log first so the new owner
  // can itself restart. Same application semantics as RestoreSiteRecords.
  support::Status ImportSiteRecords(std::vector<engine::SiteRecord>&& records);
  // Streams this site's full state for hand-off: every resident artifact,
  // then evidence and rejections in original arrival order (the order is
  // load-bearing -- the success-trace cap decisions replay identically).
  void ExportSiteRecords(const std::function<void(engine::SiteRecord&&)>& fn) const;
  // Records that failed to persist or restore (encode/decode errors, log
  // I/O); nonzero means a restart would recover this site incompletely.
  uint64_t durable_failures() const;

  // -- Pass telemetry (the one counter interface) --
  // Per-pass run / cache-hit / seconds counters.
  engine::PassStatsTable pass_stats() const { return engine_.pass_stats(); }
  engine::PassStats pass_stats(engine::PassId id) const { return engine_.pass_stats(id); }
  // Engine artifact store + the server's decode memo, summed.
  engine::ArtifactStore::Stats artifact_stats() const;
  // Pass-boundary log of the most recent pipeline run + scoring, for
  // `snorlax_cli diagnose --explain`: ran vs cache hit, duration, artifact
  // key, and why the pass was dirty.
  std::vector<engine::PassTrace> explain() const { return engine_.last_run(); }
  // Residency verdict for the artifact a pass produced under `key`
  // (--explain's "artifact" column: resident / pinned / evicted / absent).
  engine::ResidencyState artifact_state(engine::PassId id, uint64_t key) const {
    return engine_.ArtifactState(id, key);
  }

  // Introspection for tests and benches.
  const analysis::PointsToResult* points_to() const { return engine_.points_to(); }
  const std::vector<analysis::RankedInstruction>& ranked_candidates() const {
    return engine_.ranked_candidates();
  }
  const std::vector<const ir::Instruction*>& failure_chain() const {
    return engine_.failure_chain();
  }
  // True when the last pipeline run needed the backward-slice fallback.
  bool used_slice_fallback() const { return engine_.used_slice_fallback(); }
  // Degradation accumulated across every submitted bundle so far.
  const trace::DegradationReport& degradation() const { return degradation_; }

 private:
  // Structural screening before any decoding work is spent on a bundle.
  support::Status ValidateBundle(const pt::PtTraceBundle& bundle, bool failing) const;
  // The paper's 10x cap: success traces beyond it add nothing to step 7.
  bool SuccessCapReached() const {
    return HasFailure() && NumSuccessTraces() >= SuccessTraceCap();
  }
  void RecordRejection(const char* what, const support::Status& status);
  // Maps engine stage counts + the pass table into the wire-stable StageStats.
  StageStats BuildStageStats() const;
  static engine::EngineOptions MakeEngineOptions(const Options& options);
  // Content hash of the raw bundle (thread byte streams + failure record):
  // the decode-memo key. Two bundles with equal keys decode to equal traces.
  static uint64_t BundleContentKey(const pt::PtTraceBundle& bundle);
  // Returns the decoded trace for `bundle`, serving byte-identical repeats
  // from the decode memo (a kTraceProcess cache hit) when caching is on. A
  // hit hands out the memoized trace itself: traces are immutable, so the
  // memo and every submission of the bundle share one object. Decoding runs
  // behind a crash barrier: any exception a hardening gap lets through
  // becomes a rejected bundle, never a server crash.
  // Sets *decode_seconds to the wall time spent and *cache_hit accordingly.
  support::Result<std::shared_ptr<const trace::ProcessedTrace>> DecodeBundle(
      const pt::PtTraceBundle& bundle, double* decode_seconds, bool* cache_hit,
      uint64_t* content_key);
  // Appends one piece of accepted evidence to the durable log (and the
  // in-memory site log that preserves arrival order for export).
  void PersistEvidence(engine::SiteRecord::Type type, uint64_t key,
                       const trace::ProcessedTrace& t);
  // Applies one restored/imported record; when `persist` is set the record is
  // appended to this server's own durable log on acceptance (hand-off).
  void ApplyRecord(engine::SiteRecord&& record, bool persist);

  const ir::Module* module_;
  uint64_t module_fingerprint_ = 0;
  Options options_;

  // Mutable because Diagnose() is conceptually const but drives the engine's
  // incremental scorer, which memoizes.
  mutable engine::SiteEngine engine_;
  // Decode memo (kProcessedTrace only): a fleet replaying the same
  // interleaving skips packet decoding, the dominant per-bundle cost in the
  // steady state.
  engine::ArtifactStore decode_cache_;
  trace::DegradationReport degradation_;
  double last_analysis_seconds_ = 0.0;
  double total_analysis_seconds_ = 0.0;

  // Arrival-order ledger of durable records (evidence keys + rejections),
  // walked by ExportSiteRecords; evidence bytes live in the engine's trace
  // vectors, rejection notes in rejection_notes_.
  struct EvidenceRef {
    engine::SiteRecord::Type type;
    uint64_t key;
  };
  std::vector<EvidenceRef> site_log_;
  std::vector<std::string> rejection_notes_;
  bool restoring_ = false;  // suppresses re-persistence during replay
  uint64_t persist_failures_ = 0;
};

}  // namespace snorlax::core

#endif  // SNORLAX_CORE_SERVER_H_
