// SiteEngine: the pass pipeline of Lazy Diagnosis for one failure site.
//
// Mechanism layer. Each paper step runs as a Pass over typed artifacts
// (engine/artifact.h) stored in a content-hash keyed ArtifactStore:
//
//   kTraceProcess -> ExecutedSet        (steps 2-3, executed by the ingest
//                                        layer; counted here)
//   kDerefChains  -> DerefChains        (RETracer-style failing-operand walk)
//   kPointsTo     -> PointsTo           (step 4, scoped to the executed set)
//   kTypeRank     -> RankedCandidates   (step 5)
//   kPatterns     -> PatternSet         (step 6, keyed by the trace's bundle)
//   kScore        -> F1Scores           (step 7, incremental)
//
// Invalidation is implicit in the keys: a pass whose declared inputs changed
// hashes to a new key, misses, and re-runs; everything downstream follows.
// New success traces therefore dirty only kScore -- points-to re-runs only
// when a failing trace arrives with a different executed set. Scoring itself
// is incremental: per-pattern confusion counts commute over traces, so only
// evidence added since the last Score() call is folded in, and the rebuilt
// report is digest-identical to a recompute from scratch.
//
// Evidence lives in one table keyed by trace::TraceKey: each accepted
// bundle once, with its full failing trace and/or its success projection. A
// byte-identical repeat is served the trace the table holds, and the durable
// log and hand-off stream read the bundle from it.
//
// Success evidence is lazy: step 7 only asks whether a success trace embeds
// a pattern, so a success trace is a projection onto U, the union of every
// merged pattern's instructions (trace::ProcessedTrace's projecting
// constructor). When a failing trace adds patterns with new instructions,
// U's key changes, and Score() re-projects each stale success bundle once
// before folding it.
//
// Thread-compatibility: not internally synchronized. Its owner
// (core::DiagnosisServer, itself single-owner) makes every call.
#ifndef SNORLAX_ENGINE_SITE_ENGINE_H_
#define SNORLAX_ENGINE_SITE_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/deref_chain.h"
#include "analysis/points_to.h"
#include "analysis/type_rank.h"
#include "engine/artifact.h"
#include "engine/artifact_codec.h"
#include "engine/artifact_store.h"
#include "engine/durable_log.h"
#include "engine/pass.h"
#include "engine/pattern_compute.h"
#include "engine/repair.h"
#include "engine/statistical.h"
#include "support/status.h"
#include "trace/degradation.h"
#include "trace/processed_trace.h"

namespace snorlax::engine {

struct EngineOptions {
  PatternComputeOptions patterns;
  // Ablation knobs (all on = Lazy Diagnosis as published).
  bool use_scope_restriction = true;  // off: whole-program points-to
  bool use_type_ranking = true;       // off: all candidates rank 1 in id order
  bool use_slice_fallback = true;     // paper section 7 backward-slice retry
  // Off: every pass recomputes on every failing trace (benches that time the
  // analysis itself by resubmitting one bundle). Scoring stays incremental
  // either way -- it is an algorithm, not a cache.
  bool use_artifact_store = true;
  // kRepair (the closing-the-loop pass): off by default -- patch synthesis is
  // cheap but interpreter validation re-executes the failing scenario across
  // timing bands, which only the diagnose-with---suggest-fix path should pay.
  RepairOptions repair;
  // Durability: when set (and the artifact store is on), every newly computed
  // artifact is appended to this log under `durable_site` the moment the
  // store accepts it, so a restarted daemon replays it instead of recomputing.
  // Shared by every site of a daemon (the log is internally synchronized);
  // not owned, must outlive the engine. Imported artifacts (ImportArtifact)
  // are treated as already persisted and never re-appended.
  DurableLog* durable_log = nullptr;
  DurableSiteKey durable_site{};
};

// Aggregate sizes of the last pipeline run, for core::StageStats / Figure 7.
struct StageCounts {
  size_t executed_instructions = 0;
  size_t candidate_instructions = 0;
  size_t rank1_candidates = 0;
  size_t patterns_generated = 0;
};

class SiteEngine {
 public:
  SiteEngine(const ir::Module* module, EngineOptions options);

  // Runs kDerefChains -> kPointsTo -> kTypeRank -> kPatterns for one failing
  // trace, `failing`, built in full from `bundle`, consulting the artifact
  // store before each pass. `cancel` is checked at every pass boundary; on
  // expiry the remaining passes are skipped and kDeadlineExceeded returned --
  // the trace is still retained as scoring evidence and every artifact
  // already produced stays valid. An exception from a pass propagates and
  // leaves the evidence as it was. The evidence table copies the bundle the
  // first time its key is filed and keeps the first full trace of a key;
  // repeats share it.
  support::Status AddFailingTrace(const pt::PtTraceBundle& bundle,
                                  std::shared_ptr<const trace::ProcessedTrace> failing,
                                  const CancelToken& cancel);
  // One success submission: `projection` is `bundle` projected onto
  // pattern_instructions() as they stood when it was built. Filed like a
  // failing trace; repeats of one bundle share one projection.
  void AddSuccessTrace(const pt::PtTraceBundle& bundle,
                       std::shared_ptr<const trace::ProcessedTrace> projection);
  // U: every instruction of every merged pattern. A success trace is
  // projected onto it.
  const trace::InstSet& pattern_instructions() const { return pattern_insts_; }
  // The projection held for the success bundle with trace::TraceKey `key`,
  // or null. It may predate the current U; Score() re-projects it then.
  std::shared_ptr<const trace::ProcessedTrace> SuccessProjection(uint64_t key) const;
  // The full trace held for the failing bundle with trace::TraceKey `key`,
  // or null.
  std::shared_ptr<const trace::ProcessedTrace> FailingTrace(uint64_t key) const;
  // The accepted bundle with trace::TraceKey `key`, or null. A success
  // bundle whose re-projection failed keeps its entry here.
  const pt::PtTraceBundle* EvidenceBundle(uint64_t key) const;
  // Steps 2-3 run in the ingest layer, which reports its time here so the
  // whole pipeline reads off one table. `cache_hit` marks a bundle whose
  // trace was already built (the raw content was seen before) rather than
  // decoded afresh.
  void RecordTraceProcess(double seconds, bool cache_hit = false);

  // Step 7. Re-projects every success bundle whose projection predates the
  // current pattern_instructions() (once per bundle, each a kTraceProcess
  // run; a rebuild that throws drops that bundle's submissions and is
  // recorded in score_degradation()), then folds evidence added since the last call into the
  // per-pattern confusion counts and rebuilds the ranked report (best-first,
  // DiagnosedPatternBetter order); returns the cached report (kScore cache
  // hit) when nothing changed. The reference stays valid until the next
  // Score() that finds new evidence.
  const F1ScoresArtifact& Score();

  // kRepair: maps each confirmed pattern of the current report (the top-F1
  // tier, see ConfirmedPatternIndices) to a candidate patch and validates it
  // in the interpreter per RepairOptions. Calls Score() first so the plan is
  // always built against current evidence; the plan is a store artifact keyed
  // by (scores content, module, options), so re-diagnosing unchanged evidence
  // is a kRepair cache hit. Returns nullptr when options_.repair.enabled is
  // false or there is no failing evidence yet.
  std::shared_ptr<const RepairPlan> Repair();
  // The most recent plan (nullptr before the first Repair() call).
  std::shared_ptr<const RepairPlan> repair_plan() const { return repair_plan_; }

  // -- Cluster durability (durable-log replay and site hand-off) --
  // Decodes one serialized artifact and inserts it into the store so the
  // pipeline cache-hits instead of recomputing it. Marked as persisted: it
  // will not be re-appended to the durable log.
  support::Status ImportArtifact(ArtifactKind kind, uint64_t key,
                                 std::span<const uint8_t> bytes);
  // Streams every resident artifact, encoded, for hand-off to a new owner.
  void ExportArtifacts(const std::function<void(ArtifactKind, uint64_t,
                                                std::vector<uint8_t>&&)>& fn) const;
  // Durable-log appends that failed (encode error or I/O); nonzero means the
  // site would recover incompletely and recompute the missing passes.
  uint64_t durable_append_failures() const { return durable_append_failures_; }

  // -- Introspection (same serialization caveats as the calls above) --
  const std::vector<std::shared_ptr<const trace::ProcessedTrace>>& failing_traces() const {
    return failing_traces_;
  }
  // Success submissions, repeats included.
  size_t num_success_traces() const { return success_traces_.size(); }
  const analysis::PointsToResult* points_to() const { return points_to_.get(); }
  const std::vector<const ir::Instruction*>& failure_chain() const { return failure_chain_; }
  const std::vector<analysis::RankedInstruction>& ranked_candidates() const { return ranked_; }
  const std::vector<BugPattern>& patterns() const { return patterns_; }
  bool used_slice_fallback() const { return used_slice_fallback_; }
  // Success evidence Score() dropped because its re-projection threw.
  const trace::DegradationReport& score_degradation() const { return score_degradation_; }
  bool hypothesis_violated() const { return hypothesis_violated_; }
  const StageCounts& stage_counts() const { return stage_counts_; }

  // The single per-pass counter interface (satellite: replaces solver_runs()
  // and the PR 2 cache bookkeeping).
  const PassStatsTable& pass_stats() const { return pass_stats_; }
  const PassStats& pass_stats(PassId id) const { return StatsFor(pass_stats_, id); }
  const ArtifactStore::Stats& store_stats() const { return store_.stats(); }
  // Pass-boundary log of the most recent AddFailingTrace + Score, for
  // `snorlax_cli diagnose --explain`.
  const std::vector<PassTrace>& last_run() const { return last_run_; }
  // Residency of the artifact a pass produced under `key` (--explain's
  // "artifact" column): resident, evicted by the per-kind FIFO cap, or never
  // stored. A pure probe -- does not touch the store's hit/miss counters.
  ResidencyState ArtifactState(PassId id, uint64_t key) const;

 private:
  // Content-hash keys: each covers every input its pass reads, so equal key
  // implies equal output (the correctness argument for reuse).
  uint64_t ExecutedSetKey(const trace::ProcessedTrace& failing) const;
  uint64_t DerefChainsKey(const rt::FailureInfo& failure) const;
  uint64_t PointsToKey(uint64_t chain_key, uint64_t executed_key) const;
  uint64_t TypeRankKey(uint64_t points_to_key) const;
  uint64_t PatternsKey(uint64_t rank_key, uint64_t trace_key) const;
  uint64_t RepairKey(const F1ScoresArtifact& scores) const;

  DerefChainsArtifact RunDerefChains(const rt::FailureInfo& failure);
  PointsToArtifact RunPointsTo(const trace::ProcessedTrace& failing,
                               const DerefChainsArtifact& chains);
  RankedCandidatesArtifact RunTypeRank(const trace::ProcessedTrace& failing,
                                       const DerefChainsArtifact& chains,
                                       const PointsToArtifact& points_to);
  // `trace_key` is the failing trace's ContentKey() (trace::TraceKey of its
  // bundle): it selects the verdict cache (memoized hypothesis answers are
  // only valid against the trace they were computed over).
  PatternSetArtifact RunPatterns(const trace::ProcessedTrace& failing,
                                 const DerefChainsArtifact& chains,
                                 const PointsToArtifact& points_to,
                                 const RankedCandidatesArtifact& ranked, uint64_t trace_key);
  const ir::Type* RankType(const DerefChainsArtifact& chains) const;
  // Appends the computed patterns not yet merged and grows U with their
  // instructions.
  void MergePatterns(const PatternSetArtifact& computed);
  // Re-projects every success bundle whose projection is not onto the
  // current U behind a crash barrier; returns how many rebuilds it ran.
  size_t RefreshProjections();
  // Appends `value` to the durable log, encoded, unless the log already
  // holds its (kind, key): a key is written at most once per engine
  // lifetime, and a key the log holds is never encoded.
  void PersistArtifact(ArtifactKind kind, uint64_t key, const void* value);

  const ir::Module* module_;
  uint64_t module_fingerprint_ = 0;
  EngineOptions options_;
  ArtifactStore store_;

  // The evidence table, once per trace::TraceKey: the accepted bundle, its
  // full failing trace if it was submitted as a failure, and its current
  // success projection if it was submitted as a success (null after a
  // re-projection that threw).
  struct Evidence {
    pt::PtTraceBundle bundle;
    std::shared_ptr<const trace::ProcessedTrace> failing;
    std::shared_ptr<const trace::ProcessedTrace> projection;
  };
  std::unordered_map<uint64_t, Evidence> evidence_;
  // One entry per submission in arrival order, repeats included: the failing
  // traces, and node pointers into evidence_ (which stay valid) for the
  // successes.
  std::vector<std::shared_ptr<const trace::ProcessedTrace>> failing_traces_;
  std::vector<const Evidence*> success_traces_;
  trace::DegradationReport score_degradation_;

  // Module pre-processing shared across traces (built on first use).
  std::unique_ptr<analysis::FailureChainIndex> chain_index_;

  // Current view: the artifacts of the most recent failing-trace run.
  std::shared_ptr<const analysis::PointsToResult> points_to_;
  std::vector<const ir::Instruction*> failure_chain_;
  std::vector<analysis::RankedInstruction> ranked_;
  bool used_slice_fallback_ = false;
  bool hypothesis_violated_ = false;  // sticky across traces
  StageCounts stage_counts_;

  // Merged pattern set (append-only, deduped by Key) and the incremental
  // per-pattern scoring state aligned with it: cumulative confusion counts
  // plus how many failing/success traces each pattern has already consumed.
  // pattern_keys_ holds every merged Key(); pattern_insts_ is U.
  std::vector<BugPattern> patterns_;
  std::unordered_set<std::string> pattern_keys_;
  trace::InstSet pattern_insts_;
  struct ScoreState {
    ConfusionCounts counts;
    size_t failing_seen = 0;
    size_t success_seen = 0;
  };
  std::vector<ScoreState> score_states_;
  bool scores_dirty_ = true;
  F1ScoresArtifact last_scores_;
  std::shared_ptr<const RepairPlan> repair_plan_;

  // Dirty-reason bookkeeping for --explain (what changed since the last run).
  uint64_t last_executed_key_ = 0;
  size_t last_executed_size_ = 0;
  double last_trace_process_seconds_ = 0.0;
  bool last_trace_process_hit_ = false;

  // (kind, key) pairs already appended to the durable log (or imported from
  // it): the write-once guard that keeps the unconditional executed-set Put
  // from duplicating records on every bundle.
  std::unordered_set<uint64_t> logged_artifacts_;
  uint64_t durable_append_failures_ = 0;

  // Hypothesis-verdict memos, one per distinct failing-trace content key:
  // re-diagnosis of the same interleaving (slice-fallback retries,
  // resubmitted bundles with the store off upstream) reuses the verdicts
  // instead of re-querying the index. Bounded: cleared wholesale when the
  // registry would exceed kMaxVerdictCaches distinct traces.
  static constexpr size_t kMaxVerdictCaches = 32;
  std::unordered_map<uint64_t, std::shared_ptr<PatternVerdictCache>> verdict_caches_;

  PassStatsTable pass_stats_{};
  std::vector<PassTrace> last_run_;
};

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_SITE_ENGINE_H_
