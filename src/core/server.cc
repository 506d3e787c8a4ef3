#include "core/server.h"

#include <chrono>
#include <exception>

#include "ir/cfg.h"
#include "pt/bundle_codec.h"
#include "support/check.h"
#include "support/str.h"

namespace snorlax::core {

using support::Status;
using support::StatusCode;

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

engine::EngineOptions DiagnosisServer::MakeEngineOptions(const Options& options) {
  engine::EngineOptions eopts;
  eopts.patterns = options.patterns;
  eopts.use_scope_restriction = options.use_scope_restriction;
  eopts.use_type_ranking = options.use_type_ranking;
  eopts.use_slice_fallback = options.use_slice_fallback;
  eopts.pta_tier = options.pta_tier;
  eopts.pta_node_budget = options.pta_node_budget;
  eopts.use_artifact_store = options.use_analysis_cache;
  eopts.durable_log = options.durable_log;
  eopts.durable_site = options.durable_site;
  eopts.repair = options.repair;
  return eopts;
}

DiagnosisServer::DiagnosisServer(const ir::Module* module)
    : DiagnosisServer(module, Options()) {}

DiagnosisServer::DiagnosisServer(const ir::Module* module, Options options)
    : module_(module), options_(options), engine_(module, MakeEngineOptions(options)) {
  SNORLAX_CHECK(module != nullptr);
  module_fingerprint_ = pt::ModuleFingerprint(*module);
}

Status DiagnosisServer::ValidateBundle(const pt::PtTraceBundle& bundle,
                                       bool failing) const {
  if (bundle.trace_version != pt::kPtTraceVersion) {
    return Status::Error(StatusCode::kVersionMismatch,
                         StrFormat("trace version %u, server speaks %u",
                                   bundle.trace_version, pt::kPtTraceVersion));
  }
  // Fingerprint 0 means unstamped (hand-built test bundles); anything else
  // must match the module this server analyzes, or every PC in the trace
  // would silently map to the wrong instruction.
  if (bundle.module_fingerprint != 0 && bundle.module_fingerprint != module_fingerprint_) {
    return Status::Error(StatusCode::kVersionMismatch,
                         "module fingerprint mismatch (client traced a different binary)");
  }
  if (failing && !bundle.failure.IsFailure()) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "failing trace without a failure record");
  }
  if (bundle.threads.empty()) {
    return Status::Error(StatusCode::kCorruptData, "bundle carries no thread buffers");
  }
  return Status::Ok();
}

support::Result<std::shared_ptr<const trace::ProcessedTrace>> DiagnosisServer::Ingest(
    const pt::PtTraceBundle& bundle, bool failing, const char* what) {
  Status valid = ValidateBundle(bundle, failing);
  if (!valid.ok()) {
    RecordRejection(what, valid);
    return valid;
  }
  const auto start = std::chrono::steady_clock::now();
  const uint64_t key = trace::TraceKey(bundle, options_.trace);
  if (options_.use_analysis_cache) {
    if (const auto* memo = decode_cache_.Find<engine::ProcessedTraceArtifact>(
            engine::ArtifactKind::kProcessedTrace, key)) {
      // Each submission appends the shared trace as its own evidence; only
      // the packet decoding is skipped.
      engine_.RecordTraceProcess(SecondsSince(start), /*cache_hit=*/true);
      degradation_.MergeFrom(memo->trace->degradation());
      return memo->trace;
    }
  }
  std::shared_ptr<const trace::ProcessedTrace> decoded;
  try {
    decoded = std::make_shared<const trace::ProcessedTrace>(module_, bundle, options_.trace);
  } catch (const std::exception& e) {
    // Crash barrier: a corruption pattern the hardened paths did not
    // anticipate must cost one bundle, not the whole diagnosis service.
    Status err = Status::Error(StatusCode::kInternal, StrFormat("ingest failed: %s", e.what()));
    RecordRejection(what, err);
    return err;
  }
  engine_.RecordTraceProcess(SecondsSince(start), /*cache_hit=*/false);
  // Degradation accrues even for bundles rejected below: a decoded-but-empty
  // bundle still tells the operator what corruption ate it.
  degradation_.MergeFrom(decoded->degradation());
  if (!decoded->HasEvidence()) {
    // Not memoized: the memo serves only traces ingest accepts.
    Status err = Status::Error(StatusCode::kCorruptData, "no usable events survived decoding");
    RecordRejection(what, err);
    return err;
  }
  if (options_.use_analysis_cache) {
    decode_cache_.Put(engine::ArtifactKind::kProcessedTrace, key,
                      engine::ProcessedTraceArtifact{decoded});
  }
  return decoded;
}

void DiagnosisServer::RecordRejection(const char* what, const Status& status) {
  ++degradation_.rejected_bundles;
  std::string note = StrFormat("%s: %s", what, status.ToString().c_str());
  rejection_notes_.push_back(note);
  site_log_.push_back(EvidenceRef{engine::SiteRecord::Type::kRejection, 0});
  if (!restoring_ && options_.durable_log != nullptr) {
    engine::SiteRecord record;
    record.type = engine::SiteRecord::Type::kRejection;
    record.bytes.assign(note.begin(), note.end());
    if (!options_.durable_log->Append(options_.durable_site, record).ok()) {
      ++persist_failures_;
    }
  }
  degradation_.notes.push_back(std::move(note));
}

void DiagnosisServer::KeepEvidence(engine::SiteRecord::Type type,
                                   const pt::PtTraceBundle& bundle,
                                   std::shared_ptr<const trace::ProcessedTrace> trace) {
  const uint64_t key = trace->ContentKey();
  site_log_.push_back(EvidenceRef{type, key});
  evidence_.try_emplace(key, bundle, std::move(trace));
  if (options_.durable_log != nullptr) {
    PersistEvidence(type, key);
  }
}

void DiagnosisServer::PersistEvidence(engine::SiteRecord::Type type, uint64_t key) {
  engine::SiteRecord record;
  record.type = type;
  record.key = key;
  const bool first = logged_keys_.insert(key).second;
  if (first) {
    pt::EncodeBundle(evidence_.at(key).bundle, &record.bytes);
  }
  if (!options_.durable_log->Append(options_.durable_site, record).ok()) {
    ++persist_failures_;
    if (first) {
      logged_keys_.erase(key);  // the key's next record carries the bundle
    }
  }
}

Status DiagnosisServer::SubmitFailingTrace(const pt::PtTraceBundle& bundle) {
  // The analysis budget covers the whole submit, decode included.
  const engine::CancelToken cancel =
      engine::CancelToken::AfterSeconds(options_.analysis_deadline_seconds);
  const auto start = std::chrono::steady_clock::now();
  auto ingested = Ingest(bundle, /*failing=*/true, "failing bundle rejected");
  if (!ingested.ok()) {
    return ingested.status();
  }
  std::shared_ptr<const trace::ProcessedTrace> processed = ingested.take();
  Status pipeline;
  try {
    pipeline = engine_.AddFailingTrace(processed, cancel);
  } catch (const std::exception& e) {
    RecordRejection("pipeline crash barrier", Status::Error(StatusCode::kInternal, e.what()));
    return Status::Error(StatusCode::kInternal,
                         StrFormat("analysis failed: %s", e.what()));
  }
  degradation_.hypothesis_fallback =
      degradation_.hypothesis_fallback || engine_.hypothesis_violated();
  degradation_.slice_fallback = degradation_.slice_fallback || engine_.used_slice_fallback();
  if (!pipeline.ok()) {
    // Deadline hit at a pass boundary: the trace stays as scoring evidence
    // and every completed artifact remains valid, but the operator should
    // know this site ran out of budget mid-pipeline.
    degradation_.notes.push_back(pipeline.ToString());
  }
  // The trace was retained as evidence (even on deadline): make it durable.
  KeepEvidence(engine::SiteRecord::Type::kFailingEvidence, bundle, std::move(processed));
  last_analysis_seconds_ = SecondsSince(start);
  total_analysis_seconds_ += last_analysis_seconds_;
  return pipeline;
}

Status DiagnosisServer::SubmitSuccessTrace(const pt::PtTraceBundle& bundle) {
  if (SuccessCapReached()) {
    return Status::Ok();  // the paper's empirically-sufficient 10x cap
  }
  auto ingested = Ingest(bundle, /*failing=*/false, "success bundle rejected");
  if (!ingested.ok()) {
    return ingested.status();
  }
  std::shared_ptr<const trace::ProcessedTrace> processed = ingested.take();
  engine_.AddSuccessTrace(processed);
  KeepEvidence(engine::SiteRecord::Type::kSuccessEvidence, bundle, std::move(processed));
  return Status::Ok();
}

support::Result<std::shared_ptr<const trace::ProcessedTrace>> DiagnosisServer::RestoreEvidence(
    const engine::SiteRecord& record, bool failing) {
  constexpr const char* kWhat = "durable evidence rejected";
  if (record.bytes.empty()) {
    // A reference record: its key's full record came earlier in the stream.
    auto it = evidence_.find(record.key);
    if (it == evidence_.end()) {
      Status err = Status::Error(
          StatusCode::kCorruptData,
          StrFormat("evidence reference %016llx has no full record",
                    static_cast<unsigned long long>(record.key)));
      RecordRejection(kWhat, err);
      return err;
    }
    engine_.RecordTraceProcess(0.0, /*cache_hit=*/true);
    degradation_.MergeFrom(it->second.trace->degradation());
    return it->second.trace;
  }
  auto bundle = pt::DecodeBundle(record.bytes);
  if (!bundle.ok()) {
    RecordRejection(kWhat, bundle.status());
    return bundle.status();
  }
  if (trace::TraceKey(bundle.value(), options_.trace) != record.key) {
    Status err = Status::Error(StatusCode::kCorruptData,
                               "evidence record key does not match its bundle");
    RecordRejection(kWhat, err);
    return err;
  }
  auto ingested = Ingest(bundle.value(), failing, kWhat);
  if (ingested.ok()) {
    evidence_.try_emplace(record.key, bundle.take(), ingested.value());
  }
  return ingested;
}

void DiagnosisServer::ApplyRecord(engine::SiteRecord&& record, bool persist) {
  using Type = engine::SiteRecord::Type;
  persist = persist && options_.durable_log != nullptr;
  switch (record.type) {
    case Type::kArtifact: {
      Status imported = engine_.ImportArtifact(record.kind, record.key, record.bytes);
      if (!imported.ok()) {
        // Version skew or a record for a different module build: the pass
        // recomputes from evidence instead; recovery stays lossless.
        ++persist_failures_;
        return;
      }
      if (persist &&
          !options_.durable_log->Append(options_.durable_site, record).ok()) {
        ++persist_failures_;
      }
      return;
    }
    case Type::kFailingEvidence:
    case Type::kSuccessEvidence: {
      const bool failing = record.type == Type::kFailingEvidence;
      if (!failing && SuccessCapReached()) {
        // Invariant guard only: a logged success record was accepted when it
        // was written, and in-order replay re-derives the same cap decision.
        return;
      }
      auto restored = RestoreEvidence(record, failing);
      if (!restored.ok()) {
        ++persist_failures_;
        return;
      }
      std::shared_ptr<const trace::ProcessedTrace> t = restored.take();
      if (failing) {
        try {
          // Restore runs without a deadline: with the artifacts imported
          // above every pass is a cache hit, so this is bounded work.
          (void)engine_.AddFailingTrace(std::move(t), engine::CancelToken());
        } catch (const std::exception& e) {
          RecordRejection("restore pipeline crash barrier",
                          Status::Error(StatusCode::kInternal, e.what()));
          return;
        }
        degradation_.hypothesis_fallback =
            degradation_.hypothesis_fallback || engine_.hypothesis_violated();
        degradation_.slice_fallback =
            degradation_.slice_fallback || engine_.used_slice_fallback();
      } else {
        engine_.AddSuccessTrace(std::move(t));
      }
      site_log_.push_back(EvidenceRef{record.type, record.key});
      if (persist) {
        PersistEvidence(record.type, record.key);
      } else if (!record.bytes.empty()) {
        logged_keys_.insert(record.key);  // this record is the log's full copy
      }
      return;
    }
    case Type::kRejection: {
      std::string note(record.bytes.begin(), record.bytes.end());
      ++degradation_.rejected_bundles;
      rejection_notes_.push_back(note);
      site_log_.push_back(EvidenceRef{Type::kRejection, 0});
      degradation_.notes.push_back(std::move(note));
      if (persist &&
          !options_.durable_log->Append(options_.durable_site, record).ok()) {
        ++persist_failures_;
      }
      return;
    }
  }
  ++persist_failures_;  // unknown record type from a newer build
}

void DiagnosisServer::RestoreSiteRecords(std::vector<engine::SiteRecord>&& records) {
  restoring_ = true;
  for (engine::SiteRecord& record : records) {
    ApplyRecord(std::move(record), /*persist=*/false);
  }
  restoring_ = false;
}

Status DiagnosisServer::ImportSiteRecords(std::vector<engine::SiteRecord>&& records) {
  const uint64_t failures_before = persist_failures_;
  for (engine::SiteRecord& record : records) {
    ApplyRecord(std::move(record), /*persist=*/true);
  }
  if (persist_failures_ != failures_before) {
    return Status::Error(StatusCode::kInternal,
                         StrFormat("%llu hand-off records failed to apply or persist",
                                   static_cast<unsigned long long>(persist_failures_ -
                                                                   failures_before)));
  }
  return Status::Ok();
}

void DiagnosisServer::ExportSiteRecords(
    const std::function<void(engine::SiteRecord&&)>& fn) const {
  // Artifacts first: the importer's evidence replay then cache-hits every
  // pass, exactly like a durable-log restore.
  engine_.ExportArtifacts(
      [&](engine::ArtifactKind kind, uint64_t key, std::vector<uint8_t>&& bytes) {
        engine::SiteRecord record;
        record.type = engine::SiteRecord::Type::kArtifact;
        record.kind = kind;
        record.key = key;
        record.bytes = std::move(bytes);
        fn(std::move(record));
      });
  // Evidence in the journal's shape: the first record of each key carries
  // the bundle, a repeat is a key-only reference.
  std::unordered_set<uint64_t> sent;
  size_t rejection_i = 0;
  for (const EvidenceRef& ref : site_log_) {
    engine::SiteRecord record;
    record.type = ref.type;
    record.key = ref.key;
    if (ref.type == engine::SiteRecord::Type::kRejection) {
      const std::string& note = rejection_notes_[rejection_i++];
      record.bytes.assign(note.begin(), note.end());
    } else if (sent.insert(ref.key).second) {
      pt::EncodeBundle(evidence_.at(ref.key).bundle, &record.bytes);
    }
    fn(std::move(record));
  }
}

uint64_t DiagnosisServer::durable_failures() const {
  return persist_failures_ + engine_.durable_append_failures();
}

std::vector<std::pair<ir::InstId, int>> DiagnosisServer::RequestedDumpPoints() const {
  std::vector<std::pair<ir::InstId, int>> out;
  if (engine_.failing_traces().empty()) {
    return out;
  }
  const rt::FailureInfo& failure = engine_.failing_traces().front()->failure();
  if (failure.failing_inst == ir::kInvalidInstId) {
    return out;
  }
  out.emplace_back(failure.failing_inst, 0);
  // Fallbacks: the first instruction of each predecessor block, in case the
  // failure PC sits in error-handling code successful runs never reach.
  int rank = 1;
  for (const ir::BasicBlock* pred :
       ir::PredecessorBlocksOf(*module_, failure.failing_inst)) {
    if (!pred->empty()) {
      out.emplace_back(pred->instructions().front()->id(), rank++);
    }
  }
  return out;
}

StageStats DiagnosisServer::BuildStageStats() const {
  StageStats s;
  s.module_instructions = module_->NumInstructions();
  const engine::StageCounts& counts = engine_.stage_counts();
  s.executed_instructions = counts.executed_instructions;
  s.candidate_instructions = counts.candidate_instructions;
  s.rank1_candidates = counts.rank1_candidates;
  s.patterns_generated = counts.patterns_generated;
  // Wire-stable stage seconds are a view over the pass table: ranking covers
  // the chain walk plus the type ranking proper, matching the pre-pipeline
  // accounting.
  const engine::PassStatsTable& passes = engine_.pass_stats();
  s.trace_seconds = StatsFor(passes, engine::PassId::kTraceProcess).seconds;
  s.points_to_seconds = StatsFor(passes, engine::PassId::kPointsTo).seconds;
  s.rank_seconds = StatsFor(passes, engine::PassId::kDerefChains).seconds +
                   StatsFor(passes, engine::PassId::kTypeRank).seconds;
  s.pattern_seconds = StatsFor(passes, engine::PassId::kPatterns).seconds;
  s.passes = passes;
  s.artifacts = artifact_stats();
  return s;
}

engine::ArtifactStore::Stats DiagnosisServer::artifact_stats() const {
  engine::ArtifactStore::Stats s = engine_.store_stats();
  const engine::ArtifactStore::Stats& memo = decode_cache_.stats();
  s.hits += memo.hits;
  s.misses += memo.misses;
  s.insertions += memo.insertions;
  s.evictions += memo.evictions;
  s.entries += memo.entries;
  return s;
}

DiagnosisReport DiagnosisServer::Diagnose() const {
  DiagnosisReport report;
  if (engine_.failing_traces().empty()) {
    // Nothing was diagnosable -- but if bundles were rejected on the way
    // here, the operator should see why instead of a silent empty report.
    report.degradation = degradation_;
    report.confidence = degradation_.degraded() ? trace::ConfidenceTier::kLow
                                                : trace::ConfidenceTier::kFull;
    return report;
  }
  report.failure = engine_.failing_traces().front()->failure();
  report.hypothesis_violated = engine_.hypothesis_violated();
  report.degradation = degradation_;
  report.confidence = degradation_.tier();
  report.failing_traces = engine_.failing_traces().size();
  report.success_traces = engine_.success_traces().size();

  engine::ScoreOutcome scored = engine_.Score();
  report.patterns = scored.scores.scored;
  if (options_.repair.enabled) {
    report.repair = engine_.Repair();
  }

  report.stages = BuildStageStats();
  report.stages.top_f1_patterns = scored.scores.top_f1_patterns;
  report.stages.score_seconds = scored.seconds;
  report.analysis_seconds = last_analysis_seconds_ + scored.seconds;
  report.total_analysis_seconds = total_analysis_seconds_ + scored.seconds;
  return report;
}

}  // namespace snorlax::core
