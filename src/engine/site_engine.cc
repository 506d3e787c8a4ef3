#include "engine/site_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "analysis/slicer.h"
#include "pt/encoder.h"
#include "support/check.h"
#include "support/str.h"

namespace snorlax::engine {

using support::Status;
using support::StatusCode;

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

SiteEngine::SiteEngine(const ir::Module* module, EngineOptions options)
    : module_(module), options_(options) {
  SNORLAX_CHECK(module != nullptr);
  module_fingerprint_ = pt::ModuleFingerprint(*module);
  for (ir::InstId id = 0; id < module->NumInstructions(); ++id) {
    const ir::Opcode op = module->instruction(id)->opcode();
    if (op == ir::Opcode::kLockAcquire || op == ir::Opcode::kLockRelease) {
      lock_ops_.push_back(id);
    }
  }
}

uint64_t SiteEngine::ExecutedSetKey(const trace::InstSet& executed) const {
  // Commutative (sum of mixes), so the key does not depend on how the set
  // was built.
  return Mix64(executed.size()) + executed.member_hash_sum();
}

uint64_t SiteEngine::DerefChainsKey(const rt::FailureInfo& failure) const {
  uint64_t h = Mix64(module_fingerprint_);
  h = HashCombine(h, failure.failing_inst);
  h = HashCombine(h, static_cast<uint64_t>(failure.kind));
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    h = HashCombine(h, (static_cast<uint64_t>(w.thread) << 32) | w.inst);
  }
  return h;
}

uint64_t SiteEngine::PointsToKey(uint64_t chain_key, uint64_t executed_key) const {
  // The seed reads the failure chain and the deadlock cycle, both covered by
  // chain_key; the solver reads the executed set and the scope knob.
  const uint64_t h = HashCombine(chain_key, executed_key);
  return HashCombine(h, options_.use_scope_restriction ? 1 : 0);
}

uint64_t SiteEngine::TypeRankKey(uint64_t points_to_key) const {
  return HashCombine(points_to_key, options_.use_type_ranking ? 1 : 0);
}

uint64_t SiteEngine::PatternsKey(uint64_t rank_key, uint64_t trace_key) const {
  uint64_t h = HashCombine(rank_key, trace_key);
  h = HashCombine(h, options_.use_slice_fallback ? 1 : 0);
  return HashCombine(h, options_.patterns.pair_alias_filter ? 1 : 0);
}

void SiteEngine::RecordTraceProcess(double seconds, bool cache_hit) {
  PassStats& stats = StatsFor(pass_stats_, PassId::kTraceProcess);
  if (cache_hit) {
    ++stats.cache_hits;
  } else {
    ++stats.runs;
    stats.seconds += seconds;
  }
}

const trace::TraceDecode& SiteEngine::Decode(const pt::PtTraceBundle& bundle,
                                             const trace::TraceOptions& options) {
  decode_.Decode(module_, bundle, options);
  return decode_;
}

void SiteEngine::AddSuccessTrace(const pt::PtTraceBundle& bundle,
                                 std::shared_ptr<const trace::ProcessedTrace> projection) {
  SNORLAX_CHECK(projection->projected());
  auto [it, inserted] = evidence_.try_emplace(projection->ContentKey());
  Evidence& evidence = it->second;
  if (inserted) {
    evidence.bundle = bundle;
  }
  // A repeat keeps the bundle's projection unless it is stale and this one
  // is not.
  if (evidence.projection == nullptr ||
      (evidence.projection->projection_key() != pattern_insts_.key() &&
       projection->projection_key() == pattern_insts_.key())) {
    evidence.projection = std::move(projection);
  }
  success_traces_.push_back(&evidence);
  // Statistical confirmation is now stale; nothing upstream of kScore reads
  // success traces, so no other artifact is dirtied.
  scores_dirty_ = true;
}

std::shared_ptr<const trace::ProcessedTrace> SiteEngine::SuccessProjection(uint64_t key) const {
  auto it = evidence_.find(key);
  return it == evidence_.end() ? nullptr : it->second.projection;
}

std::shared_ptr<const trace::ProcessedTrace> SiteEngine::FailingTrace(uint64_t key) const {
  auto it = evidence_.find(key);
  return it == evidence_.end() ? nullptr : it->second.failing;
}

const pt::PtTraceBundle* SiteEngine::EvidenceBundle(uint64_t key) const {
  auto it = evidence_.find(key);
  return it == evidence_.end() ? nullptr : &it->second.bundle;
}

size_t SiteEngine::RefreshProjections() {
  PassStats& stats = StatsFor(pass_stats_, PassId::kTraceProcess);
  const uint64_t current = pattern_insts_.key();
  size_t rebuilt = 0;
  bool dropped = false;
  // One rebuild behind the crash barrier of ingest: a rebuild that throws
  // costs this bundle's submissions of that kind their score, never the
  // service. The bundle stays filed, so the durable log and hand-off keep
  // it.
  const auto rebuild = [&](Evidence& evidence, bool failing) {
    const auto start = std::chrono::steady_clock::now();
    try {
      rebuild_faults_.MaybeThrow();
      const trace::ProcessedTrace& stale = failing ? *evidence.failing : *evidence.projection;
      Decode(evidence.bundle, stale.options());
      if (failing) {
        trace::InstSet keep = *stale.kept();
        keep.InsertAll(pattern_insts_);
        evidence.failing = std::make_shared<const trace::ProcessedTrace>(decode_, &keep);
      } else {
        evidence.projection = std::make_shared<const trace::ProcessedTrace>(decode_,
                                                                            &pattern_insts_);
      }
    } catch (const std::exception& e) {
      ++score_degradation_.rejected_bundles;
      score_degradation_.notes.push_back(
          StrFormat("%s evidence dropped: re-projection failed: %s",
                    failing ? "failing" : "success", e.what()));
      if (failing) {
        std::erase(failing_traces_, &evidence);
        evidence.failing = nullptr;
      } else {
        std::erase(success_traces_, &evidence);
        evidence.projection = nullptr;
      }
      dropped = true;
    }
    ++stats.runs;
    stats.seconds += SecondsSince(start);
    ++rebuilt;
  };
  for (auto& [key, evidence] : evidence_) {
    if (evidence.failing != nullptr && !evidence.failing->kept()->ContainsAll(pattern_insts_)) {
      rebuild(evidence, /*failing=*/true);
    }
    if (evidence.projection != nullptr && evidence.projection->projection_key() != current) {
      rebuild(evidence, /*failing=*/false);
    }
  }
  if (dropped) {
    // Patterns already folded the dropped submissions: recount from scratch.
    score_states_.clear();
  }
  return rebuilt;
}

const ir::Type* SiteEngine::RankType(const DerefChainsArtifact& chains) const {
  // The reference type is the type of the value involved in the corruption:
  // the type produced by the load that fed the faulting dereference (Figure
  // 4's Queue*), falling back to the failing instruction's own operated type.
  if (chains.chain.size() >= 2) {
    return chains.chain[1]->type();
  }
  if (!chains.chain.empty()) {
    return chains.chain[0]->type();
  }
  return nullptr;
}

DerefChainsArtifact SiteEngine::RunDerefChains(const rt::FailureInfo& failure) {
  // Module pre-processing shared across traces; the paper excludes binary
  // pre-processing from the per-trace analysis cost.
  if (chain_index_ == nullptr) {
    chain_index_ = std::make_unique<analysis::FailureChainIndex>(*module_);
  }
  DerefChainsArtifact out;
  out.chain = analysis::FailureAccessChain(*chain_index_, *module_, failure.failing_inst);
  return out;
}

PointsToArtifact SiteEngine::RunPointsTo(const trace::InstSet& executed,
                                         const rt::FailureInfo& failure,
                                         const DerefChainsArtifact& chains) {
  // Step 4: hybrid points-to analysis, scoped to the executed set.
  analysis::PointsToOptions pto;
  if (options_.use_scope_restriction) {
    pto.scope = analysis::PointsToOptions::Scope::kExecutedOnly;
    pto.executed = &executed;
  } else {
    pto.scope = analysis::PointsToOptions::Scope::kWholeProgram;
  }
  PointsToArtifact out;
  out.result =
      std::make_shared<const analysis::PointsToResult>(analysis::RunPointsTo(*module_, pto));
  // The failing operand's may-point-to set, seeded from the RETracer-style
  // access chain. For a deadlock, union over every blocked acquisition in the
  // cycle (each holds a different lock).
  for (const ir::Instruction* access : chains.chain) {
    out.seed.UnionWith(out.result->PointerOperandPointsTo(*access));
  }
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    if (w.inst != ir::kInvalidInstId) {
      out.seed.UnionWith(out.result->PointerOperandPointsTo(*module_->instruction(w.inst)));
    }
  }
  return out;
}

RankedCandidatesArtifact SiteEngine::RunTypeRank(const trace::InstSet& executed,
                                                 const DerefChainsArtifact& chains,
                                                 const PointsToArtifact& points_to) {
  // Candidate target events: executed instructions whose pointer operand may
  // alias the failing operand. AccessorsOf already respects points-to scope,
  // but whole-program mode needs the executed filter.
  std::vector<const ir::Instruction*> candidates = points_to.result->AccessorsOf(points_to.seed);
  std::vector<const ir::Instruction*> executed_candidates;
  executed_candidates.reserve(candidates.size());
  for (const ir::Instruction* c : candidates) {
    if (executed.Contains(c->id())) {
      executed_candidates.push_back(c);
    }
  }
  RankedCandidatesArtifact out;
  out.candidate_instructions = executed_candidates.size();
  // Step 5: type-based ranking against the corruption's reference type.
  const ir::Type* rank_type = RankType(chains);
  analysis::TypeRankStats rank_stats;
  if (options_.use_type_ranking && rank_type != nullptr) {
    out.ranked = analysis::RankByType(rank_type, executed_candidates, &rank_stats);
    out.rank1_candidates = rank_stats.rank1;
  } else {
    for (const ir::Instruction* c : executed_candidates) {
      out.ranked.push_back(analysis::RankedInstruction{c, 1});
    }
    out.rank1_candidates = out.ranked.size();
  }
  return out;
}

PatternSetArtifact SiteEngine::RunPatterns(const trace::InstSet& executed,
                                           const rt::FailureInfo& failure,
                                           const DerefChainsArtifact& chains,
                                           const PointsToArtifact& points_to,
                                           const RankedCandidatesArtifact& ranked,
                                           uint64_t trace_key, const ProjectFn& project) {
  PatternSetArtifact out;
  out.effective_ranked = ranked;
  // The verdict memo rides the artifact-store knob: with the store off the
  // caller asked every pass to recompute from scratch (the benches time the
  // engine itself), and a memo would quietly turn the second run into a
  // table lookup.
  if (options_.use_artifact_store) {
    if (verdict_caches_.size() >= kMaxVerdictCaches &&
        verdict_caches_.find(trace_key) == verdict_caches_.end()) {
      verdict_caches_.clear();
    }
    std::shared_ptr<PatternVerdictCache>& slot = verdict_caches_[trace_key];
    if (slot == nullptr) {
      slot = std::make_shared<PatternVerdictCache>();
    }
    out.verdicts = slot;
  }
  PatternComputeContext context;
  context.points_to = points_to.result.get();
  context.verdicts = out.verdicts.get();
  PatternComputeResult computed = ComputePatterns(*module_, project(ranked), ranked.ranked,
                                                  failure, chains.chain, options_.patterns,
                                                  context);

  // Fallback (paper section 7): if the alias-derived candidates yielded no
  // pattern, widen to the instructions with control/data dependences to the
  // failing instruction -- the backward slice -- and retry. This recovers
  // bugs where the corrupt value flowed through memory the operand walk
  // cannot follow (e.g. a stale pointer cached in a private cell).
  if (computed.patterns.empty() && options_.use_slice_fallback &&
      failure.failing_inst != ir::kInvalidInstId &&
      failure.kind != rt::FailureKind::kDeadlock) {
    out.used_slice_fallback = true;
    const std::unordered_set<ir::InstId> slice =
        analysis::BackwardSlice(*module_, *points_to.result, failure.failing_inst);
    analysis::ObjectSet widened = points_to.seed;
    std::vector<const ir::Instruction*> slice_candidates;
    for (ir::InstId id : slice) {
      const ir::Instruction* inst = module_->instruction(id);
      if (inst->IsMemoryAccess() && executed.Contains(id)) {
        slice_candidates.push_back(inst);
        widened.UnionWith(points_to.result->PointerOperandPointsTo(*inst));
      }
    }
    // Also admit every executed access aliasing the widened set (the racing
    // write shares cells with the sliced loads, not with the failing operand).
    for (const ir::Instruction* inst : points_to.result->AccessorsOf(widened)) {
      if (executed.Contains(inst->id())) {
        slice_candidates.push_back(inst);
      }
    }
    std::sort(slice_candidates.begin(), slice_candidates.end(),
              [](const ir::Instruction* a, const ir::Instruction* b) {
                return a->id() < b->id();
              });
    slice_candidates.erase(std::unique(slice_candidates.begin(), slice_candidates.end()),
                           slice_candidates.end());
    const ir::Type* rank_type = RankType(chains);
    analysis::TypeRankStats fallback_stats;
    if (options_.use_type_ranking && rank_type != nullptr) {
      out.effective_ranked.ranked =
          analysis::RankByType(rank_type, slice_candidates, &fallback_stats);
      out.effective_ranked.rank1_candidates = fallback_stats.rank1;
    } else {
      out.effective_ranked.ranked.clear();
      for (const ir::Instruction* c : slice_candidates) {
        out.effective_ranked.ranked.push_back(analysis::RankedInstruction{c, 1});
      }
      out.effective_ranked.rank1_candidates = slice_candidates.size();
    }
    out.effective_ranked.candidate_instructions = slice_candidates.size();
    // No points-to for the retry: the slice fallback exists precisely to
    // admit candidates beyond alias reach of the failure chain (the corrupt
    // value flowed through memory the operand walk cannot follow), so the
    // alias prefilter would undo the widening it just performed.
    // The widened R is re-projected once before the retry reads it.
    PatternComputeContext fallback_context;
    fallback_context.verdicts = out.verdicts.get();
    PatternComputeResult retry =
        ComputePatterns(*module_, project(out.effective_ranked), out.effective_ranked.ranked,
                        failure, chains.chain, options_.patterns, fallback_context);
    retry.pair_tests += computed.pair_tests;
    retry.alias_skips += computed.alias_skips;
    retry.verdict_hits += computed.verdict_hits;
    computed = std::move(retry);
  }
  out.patterns = std::move(computed.patterns);
  out.hypothesis_violated = computed.hypothesis_violated;
  out.pair_tests = computed.pair_tests;
  out.alias_skips = computed.alias_skips;
  out.verdict_hits = computed.verdict_hits;
  return out;
}

void SiteEngine::MergePatterns(const PatternSetArtifact& computed) {
  // Merge with patterns from earlier failing traces (same bug recurring).
  // Append-only with a total-order final sort, so streaming arrival order
  // cannot change the report.
  for (const BugPattern& p : computed.patterns) {
    if (!pattern_keys_.insert(p.Key()).second) {
      continue;
    }
    patterns_.push_back(p);
    for (const PatternEvent& e : p.events) {
      pattern_insts_.Insert(e.inst);
    }
    scores_dirty_ = true;
  }
}

trace::InstSet SiteEngine::FailingKeepSet(const trace::InstSet& executed,
                                          const rt::FailureInfo& failure,
                                          const RankedCandidatesArtifact* ranked,
                                          const std::vector<const ir::Instruction*>* chain) {
  trace::InstSet keep = pattern_insts_;
  if (ranked != nullptr) {
    for (const analysis::RankedInstruction& r : ranked->ranked) {
      keep.Insert(r.inst->id());
    }
  }
  if (chain != nullptr) {
    for (const ir::Instruction* access : *chain) {
      keep.Insert(access->id());
    }
  }
  for (const ir::InstId id : lock_ops_) {
    if (executed.Contains(id)) {
      keep.Insert(id);
    }
  }
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    if (w.inst != ir::kInvalidInstId) {
      keep.Insert(w.inst);
    }
  }
  if (failure.failing_inst != ir::kInvalidInstId) {
    keep.Insert(failure.failing_inst);
  }
  return keep;
}

Status SiteEngine::AddFailingTrace(const pt::PtTraceBundle& bundle, uint64_t key,
                                   const trace::TraceDecode* decoded, double decode_seconds,
                                   const CancelToken& cancel) {
  auto [filed, inserted] = evidence_.try_emplace(key);
  Evidence& evidence = filed->second;
  SNORLAX_CHECK(decoded != nullptr || evidence.failing != nullptr);
  // The trace step 6 reads and what it keeps. A repeat starts from the
  // table's trace; a fresh decode builds its own once R is known, keeping at
  // least what the table's trace of the bundle kept.
  std::shared_ptr<const trace::ProcessedTrace> trace =
      decoded != nullptr ? nullptr : evidence.failing;
  trace::InstSet kept =
      evidence.failing != nullptr ? *evidence.failing->kept() : trace::InstSet{};
  const trace::InstSet& executed =
      decoded != nullptr ? decoded->executed() : trace->executed();
  const rt::FailureInfo& failure = decoded != nullptr ? decoded->failure() : trace->failure();
  const bool first = failing_traces_.empty();
  stage_counts_.executed_instructions = executed.size();

  // Decode and every projection built here are one kTraceProcess run; a
  // repeat's run is its re-projection, if it needs one.
  double trace_seconds = decode_seconds;
  bool trace_ran = decoded != nullptr;
  const auto cover = [&](const trace::InstSet& keep) -> const trace::ProcessedTrace& {
    if (trace != nullptr && kept.ContainsAll(keep)) {
      return *trace;
    }
    const auto start = std::chrono::steady_clock::now();
    kept.InsertAll(keep);
    const trace::TraceDecode* source = decoded;
    if (source == nullptr) {
      source = &Decode(evidence.bundle, trace->options());
    }
    trace = std::make_shared<const trace::ProcessedTrace>(*source, &kept);
    trace_seconds += SecondsSince(start);
    trace_ran = true;
    return *trace;
  };

  last_run_.clear();
  last_run_.push_back(PassTrace{PassId::kTraceProcess, decoded != nullptr, decoded == nullptr,
                                0.0, 0, ""});

  // Runs one pass: consult the store under `key`, recompute on miss, record
  // stats and the --explain entry either way. Projections built inside a
  // pass are trace processing, not that pass.
  auto execute = [&](PassId id, ArtifactKind kind, uint64_t artifact_key,
                     const std::string& dirty_reason, auto compute) {
    using T = decltype(compute());
    PassStats& stats = StatsFor(pass_stats_, id);
    if (options_.use_artifact_store) {
      if (const T* hit = store_.Find<T>(kind, artifact_key)) {
        ++stats.cache_hits;
        last_run_.push_back(PassTrace{id, false, true, 0.0, artifact_key, "artifact reused"});
        return *hit;
      }
    }
    const auto start = std::chrono::steady_clock::now();
    const double trace_before = trace_seconds;
    T result = compute();
    const double seconds = SecondsSince(start) - (trace_seconds - trace_before);
    ++stats.runs;
    stats.seconds += seconds;
    if (options_.use_artifact_store) {
      PersistArtifact(kind, artifact_key, &result);
      store_.Put<T>(kind, artifact_key, result);
    }
    last_run_.push_back(PassTrace{id, true, false, seconds, artifact_key, dirty_reason});
    return result;
  };

  auto deadline = [&](PassId next) {
    last_run_.push_back(PassTrace{next, false, false, 0.0, 0,
                                  "skipped: analysis deadline exceeded"});
    return Status::Error(StatusCode::kDeadlineExceeded,
                         StrFormat("analysis deadline exceeded before %s pass", PassName(next)));
  };

  const uint64_t executed_key = ExecutedSetKey(executed);
  if (options_.use_artifact_store) {
    const ExecutedSetArtifact executed_set{executed_key, executed.size()};
    PersistArtifact(ArtifactKind::kExecutedSet, executed_key, &executed_set);
    store_.Put<ExecutedSetArtifact>(ArtifactKind::kExecutedSet, executed_key, executed_set);
  }
  const std::string store_off = "artifact store disabled";
  const std::string site_reason =
      !options_.use_artifact_store
          ? store_off
          : (first ? "first failing trace at this site" : "failure shape changed");
  const std::string points_to_reason =
      !options_.use_artifact_store
          ? store_off
          : (first ? "first failing trace at this site"
                   : (executed_key != last_executed_key_
                          ? StrFormat("executed set changed (%zu -> %zu instructions)",
                                      last_executed_size_, executed.size())
                          : "artifact evicted"));
  const std::string rank_reason =
      !options_.use_artifact_store
          ? store_off
          : (first ? "first failing trace at this site" : "upstream points-to changed");
  const std::string patterns_reason =
      !options_.use_artifact_store
          ? store_off
          : (first ? "first failing trace at this site" : "new dynamic interleaving");

  // What R is known so far: a deadline before step 6 still files a trace,
  // kept onto that much.
  std::optional<DerefChainsArtifact> chains_known;
  std::optional<RankedCandidatesArtifact> ranked_known;
  const auto passes = [&]() -> Status {
    if (cancel.Expired()) {
      return deadline(PassId::kDerefChains);
    }
    const uint64_t chain_key = DerefChainsKey(failure);
    const DerefChainsArtifact& chains = chains_known.emplace(
        execute(PassId::kDerefChains, ArtifactKind::kDerefChains, chain_key, site_reason,
                [&] { return RunDerefChains(failure); }));
    failure_chain_ = chains.chain;

    if (cancel.Expired()) {
      return deadline(PassId::kPointsTo);
    }
    const uint64_t points_to_key = PointsToKey(chain_key, executed_key);
    PointsToArtifact points_to =
        execute(PassId::kPointsTo, ArtifactKind::kPointsTo, points_to_key, points_to_reason,
                [&] { return RunPointsTo(executed, failure, chains); });
    points_to_ = points_to.result;
    last_executed_key_ = executed_key;
    last_executed_size_ = executed.size();

    if (cancel.Expired()) {
      return deadline(PassId::kTypeRank);
    }
    const uint64_t rank_key = TypeRankKey(points_to_key);
    const RankedCandidatesArtifact& ranked = ranked_known.emplace(
        execute(PassId::kTypeRank, ArtifactKind::kRankedCandidates, rank_key, rank_reason,
                [&] { return RunTypeRank(executed, chains, points_to); }));
    ranked_ = ranked.ranked;
    stage_counts_.candidate_instructions = ranked.candidate_instructions;
    stage_counts_.rank1_candidates = ranked.rank1_candidates;

    if (cancel.Expired()) {
      return deadline(PassId::kPatterns);
    }
    // Pattern computation consumes the partially-ordered dynamic trace, a
    // pure function of its bundle: the trace's bundle key stands for it.
    const uint64_t patterns_key = PatternsKey(rank_key, key);
    const ProjectFn project = [&](const RankedCandidatesArtifact& r) -> const trace::ProcessedTrace& {
      return cover(FailingKeepSet(executed, failure, &r, &chains.chain));
    };
    PatternSetArtifact pattern_set =
        execute(PassId::kPatterns, ArtifactKind::kPatternSet, patterns_key, patterns_reason,
                [&] { return RunPatterns(executed, failure, chains, points_to, ranked, key,
                                         project); });
    // A cache hit names its R without running: project onto it now.
    project(pattern_set.effective_ranked);
    ranked_known = pattern_set.effective_ranked;
    // Engine detail for --explain; counters travel in the artifact, so cache
    // hits report the run that originally computed the set.
    last_run_.back().reason +=
        StrFormat(" [pairs=%zu alias-pruned=%zu memo-hits=%zu]", pattern_set.pair_tests,
                  pattern_set.alias_skips, pattern_set.verdict_hits);
    // The slice fallback re-ranks; the counts the report shows come from the
    // ranking that actually produced patterns.
    ranked_ = pattern_set.effective_ranked.ranked;
    stage_counts_.candidate_instructions = pattern_set.effective_ranked.candidate_instructions;
    stage_counts_.rank1_candidates = pattern_set.effective_ranked.rank1_candidates;
    used_slice_fallback_ = pattern_set.used_slice_fallback;
    hypothesis_violated_ = hypothesis_violated_ || pattern_set.hypothesis_violated;
    MergePatterns(pattern_set);
    stage_counts_.patterns_generated = patterns_.size();
    return Status::Ok();
  };

  const auto record_trace_process = [&] {
    if (!trace_ran) {
      return;
    }
    PassStats& stats = StatsFor(pass_stats_, PassId::kTraceProcess);
    ++stats.runs;
    stats.seconds += trace_seconds;
  };
  Status status;
  try {
    status = passes();
    // Filed even when the deadline cut the passes short: the trace's mere
    // arrival is statistical signal. It keeps the R known so far.
    cover(FailingKeepSet(executed, failure, ranked_known ? &*ranked_known : nullptr,
                         chains_known ? &chains_known->chain : nullptr));
  } catch (...) {
    // Crash barrier contract: an analysis exception rejects the bundle, so
    // nothing is filed.
    record_trace_process();
    if (inserted) {
      evidence_.erase(filed);
    }
    throw;
  }
  record_trace_process();
  PassTrace& row = last_run_.front();
  row.ran = trace_ran;
  row.seconds = trace_ran ? trace_seconds : 0.0;
  const std::string projected = StrFormat("projected onto %zu of %zu executed instructions",
                                          trace->indexed_instructions(), executed.size());
  row.reason = decoded != nullptr ? "decoded by ingest layer, " + projected
               : trace_ran        ? "bundle content already decoded; re-" + projected
                                  : "bundle content already decoded";
  // Filing may release the trace `executed` and `failure` refer to.
  if (inserted) {
    evidence.bundle = bundle;
  }
  evidence.failing = std::move(trace);
  failing_traces_.push_back(&evidence);
  scores_dirty_ = true;
  return status;
}

const F1ScoresArtifact& SiteEngine::Score() {
  PassStats& stats = StatsFor(pass_stats_, PassId::kScore);
  // Repeated Score() calls would stack entries; keep only the latest verdict.
  last_run_.erase(std::remove_if(last_run_.begin(), last_run_.end(),
                                 [](const PassTrace& p) { return p.id == PassId::kScore; }),
                  last_run_.end());
  if (!scores_dirty_) {
    ++stats.cache_hits;
    last_run_.push_back(
        PassTrace{PassId::kScore, false, true, 0.0, 0, "evidence and patterns unchanged"});
    return last_scores_;
  }
  // Every success trace must be projected onto the current U before any
  // pattern folds it; the rebuilds are trace processing, not scoring.
  const size_t reprojected = RefreshProjections();
  const auto start = std::chrono::steady_clock::now();
  const size_t prev_failing = score_states_.empty() ? 0 : score_states_[0].failing_seen;
  const size_t prev_success = score_states_.empty() ? 0 : score_states_[0].success_seen;
  score_states_.resize(patterns_.size());
  // Fold only the traces each pattern has not consumed yet (all of them for a
  // pattern discovered this round). Counts commute over traces, so the totals
  // equal a from-scratch scoring pass.
  // One submission's fold. With the store on, a repeat of a bundle reuses
  // the verdict its first submission computed; with it off (benches timing
  // the analysis itself) every fold asks the trace.
  const auto fold = [&](size_t i, Evidence& evidence, bool failed, ConfusionCounts* counts) {
    const trace::ProcessedTrace& trace = failed ? *evidence.failing : *evidence.projection;
    if (!options_.use_artifact_store) {
      AccumulatePatternCounts(patterns_[i], trace, failed, counts);
      return;
    }
    std::vector<uint8_t>& verdicts = failed ? evidence.failing_verdicts : evidence.success_verdicts;
    if (verdicts.size() <= i) {
      verdicts.resize(patterns_.size(), 0);
    }
    if (verdicts[i] == 0) {
      verdicts[i] = TraceContainsPattern(trace, patterns_[i]) ? 2 : 1;
    }
    AccumulateVerdict(verdicts[i] == 2, failed, counts);
  };
  for (size_t i = 0; i < patterns_.size(); ++i) {
    ScoreState& state = score_states_[i];
    for (size_t j = state.failing_seen; j < failing_traces_.size(); ++j) {
      fold(i, *failing_traces_[j], /*failed=*/true, &state.counts);
    }
    for (size_t j = state.success_seen; j < success_traces_.size(); ++j) {
      fold(i, *success_traces_[j], /*failed=*/false, &state.counts);
    }
    state.failing_seen = failing_traces_.size();
    state.success_seen = success_traces_.size();
  }

  // The report is updated in place: a pattern is copied into it once, when
  // it is merged, and every later Score() rewrites counts and re-sorts. The
  // order is a strict total order, so the result does not depend on the
  // order it starts from.
  std::vector<DiagnosedPattern>& scored = last_scores_.scored;
  for (size_t i = scored.size(); i < patterns_.size(); ++i) {
    scored.emplace_back().pattern = patterns_[i];
    scored_pattern_.push_back(i);
  }
  for (size_t pos = 0; pos < scored.size(); ++pos) {
    DiagnosedPattern& d = scored[pos];
    d.counts = score_states_[scored_pattern_[pos]].counts;
    d.precision = d.counts.Precision();
    d.recall = d.counts.Recall();
    d.f1 = d.counts.F1();
  }
  std::vector<uint32_t> order(scored.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return DiagnosedPatternBetter(scored[a], scored[b]);
  });
  std::vector<DiagnosedPattern> sorted;
  std::vector<size_t> sorted_pattern;
  sorted.reserve(scored.size());
  sorted_pattern.reserve(scored.size());
  for (const uint32_t pos : order) {
    sorted.push_back(std::move(scored[pos]));
    sorted_pattern.push_back(scored_pattern_[pos]);
  }
  scored = std::move(sorted);
  scored_pattern_ = std::move(sorted_pattern);
  last_scores_.top_f1_patterns = 0;
  for (const DiagnosedPattern& p : scored) {
    if (p.f1 == scored.front().f1) {
      ++last_scores_.top_f1_patterns;
    }
  }

  const double seconds = SecondsSince(start);
  ++stats.runs;
  stats.seconds += seconds;
  last_run_.push_back(PassTrace{
      PassId::kScore, true, false, seconds, 0,
      StrFormat("+%zu failing / +%zu success traces, %zu patterns, %zu re-projected",
                failing_traces_.size() - prev_failing, success_traces_.size() - prev_success,
                patterns_.size(), reprojected)});
  scores_dirty_ = false;
  return last_scores_;
}

// Covers everything the pass reads: the scored report content (pattern
// identities and their F1s -- the confirmed-tier selection depends on both),
// the module the patches are built against, and every knob that changes what
// BuildRepairPlan produces.
uint64_t SiteEngine::RepairKey(const F1ScoresArtifact& scores) const {
  uint64_t h = Mix64(module_fingerprint_ ^ 0x9e3779b97f4a7c15ull);
  for (const DiagnosedPattern& d : scores.scored) {
    h = HashCombine(h, static_cast<uint64_t>(d.pattern.kind));
    h = HashCombine(h, d.pattern.ordered ? 1 : 0);
    for (const PatternEvent& e : d.pattern.events) {
      h = HashCombine(h, (static_cast<uint64_t>(e.inst) << 16) |
                             (static_cast<uint64_t>(e.thread_slot) << 1) |
                             (e.thread_final ? 1 : 0));
    }
    h = HashCombine(h, std::bit_cast<uint64_t>(d.f1));
  }
  const RepairOptions& r = options_.repair;
  h = HashCombine(h, r.max_patterns);
  h = HashCombine(h, std::bit_cast<uint64_t>(r.min_f1));
  h = HashCombine(h, r.validate ? 1 : 0);
  h = HashCombine(h, r.seeds_per_band);
  h = HashCombine(h, r.first_seed);
  h = HashCombine(h, std::bit_cast<uint64_t>(r.max_overhead_ratio));
  h = HashCombine(h, std::bit_cast<uint64_t>(r.interp.work_jitter));
  for (const double band : r.jitter_bands) {
    h = HashCombine(h, std::bit_cast<uint64_t>(band));
  }
  for (const char c : r.entry) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

std::shared_ptr<const RepairPlan> SiteEngine::Repair() {
  if (!options_.repair.enabled) {
    return nullptr;
  }
  if (failing_traces_.empty()) {
    return nullptr;
  }
  const F1ScoresArtifact& scores = Score();  // plan always follows current evidence
  if (failing_traces_.empty()) {
    return nullptr;  // Score() dropped every failing trace
  }
  const uint64_t key = RepairKey(scores);
  PassStats& stats = StatsFor(pass_stats_, PassId::kRepair);
  last_run_.erase(std::remove_if(last_run_.begin(), last_run_.end(),
                                 [](const PassTrace& p) { return p.id == PassId::kRepair; }),
                  last_run_.end());
  if (options_.use_artifact_store) {
    if (const RepairPlan* hit = store_.Find<RepairPlan>(ArtifactKind::kRepairPlan, key)) {
      ++stats.cache_hits;
      last_run_.push_back(
          PassTrace{PassId::kRepair, false, true, 0.0, key, "artifact reused"});
      if (repair_plan_.get() != hit) {
        repair_plan_ = std::make_shared<const RepairPlan>(*hit);
      }
      return repair_plan_;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const rt::FailureKind target = failing_traces_.front()->failing->failure().kind;
  auto plan = std::make_shared<RepairPlan>(
      BuildRepairPlan(*module_, scores.scored, target, options_.repair));
  const double seconds = SecondsSince(start);
  ++stats.runs;
  stats.seconds += seconds;
  last_run_.push_back(PassTrace{
      PassId::kRepair, true, false, seconds, key,
      StrFormat("%zu confirmed patterns, %zu validated", plan->candidates.size(),
                plan->ValidatedCount())});
  if (options_.use_artifact_store) {
    PersistArtifact(ArtifactKind::kRepairPlan, key, plan.get());
    store_.PutShared(ArtifactKind::kRepairPlan, key, plan);
  }
  repair_plan_ = std::move(plan);
  return repair_plan_;
}

ResidencyState SiteEngine::ArtifactState(PassId id, uint64_t key) const {
  if (key == 0) {
    return ResidencyState::kAbsent;
  }
  ArtifactKind kind;
  switch (id) {
    case PassId::kDerefChains:
      kind = ArtifactKind::kDerefChains;
      break;
    case PassId::kPointsTo:
      kind = ArtifactKind::kPointsTo;
      break;
    case PassId::kTypeRank:
      kind = ArtifactKind::kRankedCandidates;
      break;
    case PassId::kPatterns:
      kind = ArtifactKind::kPatternSet;
      break;
    case PassId::kScore:
      kind = ArtifactKind::kF1Scores;
      break;
    case PassId::kRepair:
      kind = ArtifactKind::kRepairPlan;
      break;
    default:
      return ResidencyState::kAbsent;
  }
  return store_.StateOf(kind, key);
}

void SiteEngine::PersistArtifact(ArtifactKind kind, uint64_t key, const void* value) {
  const uint64_t logged_key = HashCombine(static_cast<uint64_t>(kind), key);
  if (options_.durable_log == nullptr || !logged_artifacts_.insert(logged_key).second) {
    return;
  }
  SiteRecord record;
  record.type = SiteRecord::Type::kArtifact;
  record.kind = kind;
  record.key = key;
  if (!EncodeArtifactValue(kind, value, &record.bytes).ok()) {
    ++durable_append_failures_;
    logged_artifacts_.erase(logged_key);  // nothing was written
    return;
  }
  if (!options_.durable_log->Append(options_.durable_site, record).ok()) {
    ++durable_append_failures_;
  }
}

Status SiteEngine::ImportArtifact(ArtifactKind kind, uint64_t key,
                                  std::span<const uint8_t> bytes) {
  std::shared_ptr<void> value;
  Status decoded = DecodeArtifactValue(kind, bytes, module_, &value);
  if (!decoded.ok()) {
    return decoded;
  }
  logged_artifacts_.insert(HashCombine(static_cast<uint64_t>(kind), key));
  store_.PutShared(kind, key, std::move(value));
  return Status::Ok();
}

void SiteEngine::ExportArtifacts(
    const std::function<void(ArtifactKind, uint64_t, std::vector<uint8_t>&&)>& fn) const {
  store_.ForEach([&](ArtifactKind kind, uint64_t key, const std::shared_ptr<void>& value) {
    std::vector<uint8_t> encoded;
    if (EncodeArtifactValue(kind, value.get(), &encoded).ok()) {
      fn(kind, key, std::move(encoded));
    }
  });
}

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kExecutedSet:
      return "executed-set";
    case ArtifactKind::kDerefChains:
      return "deref-chains";
    case ArtifactKind::kPointsTo:
      return "points-to";
    case ArtifactKind::kRankedCandidates:
      return "ranked-candidates";
    case ArtifactKind::kPatternSet:
      return "pattern-set";
    case ArtifactKind::kF1Scores:
      return "f1-scores";
    case ArtifactKind::kRepairPlan:
      return "repair-plan";
  }
  return "unknown";
}

}  // namespace snorlax::engine
