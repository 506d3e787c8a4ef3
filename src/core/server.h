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
#include <unordered_set>
#include <vector>

#include "engine/durable_log.h"
#include "engine/site_engine.h"
#include "support/status.h"
#include "trace/degradation.h"
#include "trace/processed_trace.h"

namespace snorlax::core {

// Paper: at most 10x as many successful traces as failing ones.
inline constexpr size_t kSuccessTraceMultiplier = 10;

// Per-stage footprint of the pipeline, powering the Figure 7 reproduction.
struct StageStats {
  size_t module_instructions = 0;    // whole-program instruction count
  size_t executed_instructions = 0;  // after trace processing (step 2)
  size_t candidate_instructions = 0; // after hybrid points-to (step 4)
  size_t rank1_candidates = 0;       // top band after type ranking (step 5)
  size_t patterns_generated = 0;     // after pattern computation (step 6)
  size_t top_f1_patterns = 0;        // patterns sharing the best F1 (step 7)

  // Per-pass run / cache-hit / seconds counters, cumulative over every
  // bundle the server built a trace for and every Diagnose() up to this
  // report: the one timing record. The report codec carries it, so a decoded report reads the
  // sender's table. `artifacts` is the store population behind the hits.
  engine::PassStatsTable passes{};
  engine::ArtifactStore::Stats artifacts;

  // Analysis wall time, steps 2-7: the pass seconds from kTraceProcess
  // through kScore, failing and success bundles alike. kRepair is left out;
  // it suggests a fix after the diagnosis is made.
  double AnalysisSeconds() const {
    double seconds = 0.0;
    for (size_t i = static_cast<size_t>(engine::PassId::kTraceProcess);
         i <= static_cast<size_t>(engine::PassId::kScore); ++i) {
      seconds += passes[i].seconds;
    }
    return seconds;
  }

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
    // Ablation knobs (all on = Lazy Diagnosis as published).
    bool use_scope_restriction = true;  // off: whole-program points-to
    bool use_type_ranking = true;       // off: all candidates rank 1 in id order
    // Paper section 7 extension: when the failing operand's alias set yields
    // no pattern (the corrupt value flowed through memory the pointer walk
    // cannot follow, or the failing instruction is not part of the pattern),
    // retry with candidates drawn from the backward slice of the failure.
    bool use_slice_fallback = true;
    // Reuse pass artifacts across repeated failures at the same site via the
    // content-hash keyed artifact store: a pass whose declared inputs are
    // unchanged takes a cache hit instead of re-running (points-to re-runs
    // only when the executed set changes; pattern computation only when the
    // dynamic trace content changes; a byte-identical bundle repeat skips
    // decoding, served the trace the engine's evidence table holds). Off for
    // benches that time the analysis itself by resubmitting one bundle.
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
  // The trace is built as a projection onto the site's pattern instructions
  // (engine::SiteEngine), the only part step 7 reads.
  support::Status SubmitSuccessTrace(const pt::PtTraceBundle& bundle);

  // Where clients should dump successful-execution traces: (pc, rank) with
  // rank 0 = the failing PC, 1+ = first instructions of predecessor blocks.
  std::vector<std::pair<ir::InstId, int>> RequestedDumpPoints() const;

  bool HasFailure() const { return !engine_.failing_traces().empty(); }
  size_t NumSuccessTraces() const { return engine_.num_success_traces(); }
  size_t SuccessTraceCap() const {
    return kSuccessTraceMultiplier * engine_.failing_traces().size();
  }

  // Step 7: scores the computed patterns over all received traces. The
  // scorer is incremental -- repeated calls with unchanged evidence are a
  // kScore cache hit, and new evidence costs only its own folds -- with a
  // report digest-identical to recomputing from scratch.
  DiagnosisReport Diagnose() const;

  // -- Cluster durability and hand-off --
  // Evidence travels as its bundle (engine/artifact_codec.h, SiteRecord):
  // the first record of a key carries the bundle's wire encoding, a repeat
  // is a key-only reference.
  //
  // Rebuilds a freshly constructed server from `records` in original write
  // order: artifacts re-populate the store, so every analysis pass is a cache
  // hit; each full evidence record is decoded, validated and rebuilt into its
  // trace behind the same crash barrier as live ingest (a success bundle
  // into its projection onto the site's pattern instructions as replay has
  // rebuilt them so far) -- the trace-process pass runs once per unique
  // bundle -- and a reference record resolves to the trace the engine
  // already holds under its key (a cache hit). The next Diagnose()
  // re-projects, once per bundle, each success projection that replay left
  // behind a grown pattern set.
  // Rejection records restore the degradation ledger, so the next Diagnose()
  // is digest-identical to the pre-restart server's. Nothing is re-appended
  // to the durable log except artifacts the replay was missing (healing a
  // salvaged prefix). An evidence record that does not restore -- not a
  // bundle, a bundle this server would reject, a key that does not match its
  // bundle, or a reference whose full record was lost -- is skipped and
  // counted, as a rejection and in durable_failures().
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
  // The engine's artifact store counters.
  const engine::ArtifactStore::Stats& artifact_stats() const { return engine_.store_stats(); }
  // Pass-boundary log of the most recent pipeline run + scoring, for
  // `snorlax_cli diagnose --explain`: ran vs cache hit, duration, artifact
  // key, and why the pass was dirty.
  std::vector<engine::PassTrace> explain() const { return engine_.last_run(); }
  // Residency verdict for the artifact a pass produced under `key`
  // (--explain's "artifact" column: resident / evicted / absent).
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
  // Maps engine stage counts + the pass table into StageStats.
  StageStats BuildStageStats() const;
  static engine::EngineOptions MakeEngineOptions(const Options& options);
  // Steps 2-3 for one bundle: validation, then the trace -- full for a
  // failing bundle, a projection onto the engine's pattern instructions for
  // a success bundle. When caching is on, a byte-identical repeat is served
  // the trace the engine already holds for the bundle's key and kind (a
  // kTraceProcess cache hit; traces are immutable, so every submission of
  // the bundle shares one object). Otherwise the trace is built behind a
  // crash barrier, so any exception a hardening gap lets through costs one
  // bundle, never the server. Merges the trace's degradation, and rejects a
  // trace with no usable events. Every failure is recorded as a rejection
  // under `what`.
  support::Result<std::shared_ptr<const trace::ProcessedTrace>> Ingest(
      const pt::PtTraceBundle& bundle, bool failing, const char* what);
  // Hands a failing trace and its bundle to the engine's pipeline, which
  // files them, behind the crash barrier: a crash is recorded as a rejection
  // under `what` and returns kInternal with nothing filed. Folds the
  // pipeline's fallbacks into the degradation ledger.
  support::Status RunFailingPipeline(const pt::PtTraceBundle& bundle,
                                     std::shared_ptr<const trace::ProcessedTrace> trace,
                                     const engine::CancelToken& cancel, const char* what);
  // Appends one evidence record to the durable log, if one is set: the wire
  // encoding of the bundle the engine holds under `key` the first time `key`
  // reaches the log, a key-only reference after that.
  void PersistEvidence(engine::SiteRecord::Type type, uint64_t key);
  // Restores one evidence record into the engine: a full record is decoded
  // and ingested like a live bundle; a reference resolves to the engine's
  // trace of its key, whatever use_analysis_cache says, and is ingested
  // from the engine's copy of its bundle only when the engine holds no trace
  // of its kind. Failures are recorded rejections.
  support::Status RestoreEvidence(const engine::SiteRecord& record, bool failing);
  // Applies one restored/imported record; when `persist` is set the record is
  // appended to this server's own durable log on acceptance (hand-off).
  void ApplyRecord(engine::SiteRecord&& record, bool persist);

  const ir::Module* module_;
  uint64_t module_fingerprint_ = 0;
  Options options_;

  // Mutable because Diagnose() is conceptually const but drives the engine's
  // incremental scorer, which memoizes. It holds every accepted bundle and
  // its traces, keyed by trace::TraceKey, as is logged_keys_ below.
  mutable engine::SiteEngine engine_;
  trace::DegradationReport degradation_;

  // Keys whose full record is in the durable log: later records of the key
  // are references. Rebuilt from the records on restore.
  std::unordered_set<uint64_t> logged_keys_;
  // Arrival-order ledger of durable records (evidence keys + rejections),
  // walked by ExportSiteRecords; rejection notes live in rejection_notes_.
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
