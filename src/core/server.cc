#include "core/server.h"

#include <chrono>
#include <exception>

#include "ir/cfg.h"
#include "pt/encoder.h"
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

uint64_t DiagnosisServer::BundleContentKey(const pt::PtTraceBundle& bundle) {
  uint64_t h = engine::Mix64(bundle.trace_version);
  h = engine::HashCombine(h, bundle.module_fingerprint);
  h = engine::HashCombine(h, bundle.snapshot_time_ns);
  h = engine::HashCombine(h, static_cast<uint64_t>(bundle.failure.kind));
  h = engine::HashCombine(h, bundle.failure.failing_inst);
  h = engine::HashCombine(h, bundle.failure.thread);
  for (const pt::PtTraceBundle::PerThread& thread : bundle.threads) {
    h = engine::HashCombine(h, thread.thread);
    h = engine::HashCombine(h, thread.total_written);
    h = engine::HashCombine(h, thread.last_retired);
    h = engine::HashCombine(h, thread.bytes.size());
    // FNV-1a over the raw ring-buffer bytes, folded in 8 bytes at a time via
    // the same mixer as every other artifact key.
    uint64_t bytes_hash = 1469598103934665603ull;
    for (uint8_t b : thread.bytes) {
      bytes_hash = (bytes_hash ^ b) * 1099511628211ull;
    }
    h = engine::HashCombine(h, bytes_hash);
  }
  return h;
}

support::Result<std::shared_ptr<const trace::ProcessedTrace>> DiagnosisServer::DecodeBundle(
    const pt::PtTraceBundle& bundle, double* decode_seconds, bool* cache_hit,
    uint64_t* content_key) {
  const auto start = std::chrono::steady_clock::now();
  *cache_hit = false;
  uint64_t key = 0;
  // The content key doubles as the durable evidence record's key, so a
  // restored decode memo serves byte-identical re-sends post-restart.
  if (options_.use_analysis_cache || options_.durable_log != nullptr) {
    key = BundleContentKey(bundle);
  }
  *content_key = key;
  if (options_.use_analysis_cache) {
    if (const auto* memo = decode_cache_.Find<engine::ProcessedTraceArtifact>(
            engine::ArtifactKind::kProcessedTrace, key)) {
      // Each submission appends the shared trace as its own evidence; only
      // the packet decoding is skipped.
      *decode_seconds = SecondsSince(start);
      *cache_hit = true;
      return memo->trace;
    }
  }
  std::shared_ptr<const trace::ProcessedTrace> decoded;
  try {
    decoded = std::make_shared<const trace::ProcessedTrace>(module_, bundle, options_.trace);
  } catch (const std::exception& e) {
    // Crash barrier: a corruption pattern the hardened paths did not
    // anticipate must cost one bundle, not the whole diagnosis service.
    return Status::Error(StatusCode::kInternal, StrFormat("ingest failed: %s", e.what()));
  }
  if (options_.use_analysis_cache) {
    decode_cache_.Put(engine::ArtifactKind::kProcessedTrace, key,
                      engine::ProcessedTraceArtifact{decoded});
  }
  *decode_seconds = SecondsSince(start);
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

void DiagnosisServer::PersistEvidence(engine::SiteRecord::Type type, uint64_t key,
                                      const trace::ProcessedTrace& t) {
  site_log_.push_back(EvidenceRef{type, key});
  if (options_.durable_log == nullptr) {
    return;
  }
  engine::SiteRecord record;
  record.type = type;
  record.key = key;
  engine::EncodeProcessedTrace(t, &record.bytes);
  if (!options_.durable_log->Append(options_.durable_site, record).ok()) {
    ++persist_failures_;
  }
}

Status DiagnosisServer::SubmitFailingTrace(const pt::PtTraceBundle& bundle) {
  // The analysis budget covers the whole submit, decode included.
  const engine::CancelToken cancel =
      engine::CancelToken::AfterSeconds(options_.analysis_deadline_seconds);
  Status valid = ValidateBundle(bundle, /*failing=*/true);
  if (!valid.ok()) {
    RecordRejection("failing bundle rejected", valid);
    return valid;
  }
  const auto start = std::chrono::steady_clock::now();
  double decode_seconds = 0.0;
  bool decode_hit = false;
  uint64_t content_key = 0;
  auto ingested = DecodeBundle(bundle, &decode_seconds, &decode_hit, &content_key);
  if (!ingested.ok()) {
    RecordRejection("failing bundle rejected", ingested.status());
    return ingested.status();
  }
  std::shared_ptr<const trace::ProcessedTrace> processed = ingested.take();
  engine_.RecordTraceProcess(decode_seconds, decode_hit);
  // Degradation accrues even for bundles rejected below: a decoded-but-empty
  // bundle still tells the operator what corruption ate it.
  degradation_.MergeFrom(processed->degradation());
  if (!processed->HasEvidence()) {
    Status err = Status::Error(StatusCode::kCorruptData,
                               "no usable events survived decoding");
    RecordRejection("failing bundle rejected", err);
    return err;
  }
  Status pipeline;
  try {
    pipeline = engine_.AddFailingTrace(std::move(processed), cancel);
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
  PersistEvidence(engine::SiteRecord::Type::kFailingEvidence, content_key,
                  *engine_.failing_traces().back());
  last_analysis_seconds_ = SecondsSince(start);
  total_analysis_seconds_ += last_analysis_seconds_;
  return pipeline;
}

Status DiagnosisServer::SubmitSuccessTrace(const pt::PtTraceBundle& bundle) {
  if (SuccessCapReached()) {
    return Status::Ok();  // the paper's empirically-sufficient 10x cap
  }
  Status valid = ValidateBundle(bundle, /*failing=*/false);
  if (!valid.ok()) {
    RecordRejection("success bundle rejected", valid);
    return valid;
  }
  double decode_seconds = 0.0;
  bool decode_hit = false;
  uint64_t content_key = 0;
  auto ingested = DecodeBundle(bundle, &decode_seconds, &decode_hit, &content_key);
  if (!ingested.ok()) {
    RecordRejection("success bundle rejected", ingested.status());
    return ingested.status();
  }
  std::shared_ptr<const trace::ProcessedTrace> processed = ingested.take();
  engine_.RecordTraceProcess(decode_seconds, decode_hit);
  degradation_.MergeFrom(processed->degradation());
  if (!processed->HasEvidence()) {
    Status err = Status::Error(StatusCode::kCorruptData,
                               "no usable events survived decoding");
    RecordRejection("success bundle rejected", err);
    return err;
  }
  engine_.AddSuccessTrace(std::move(processed));
  PersistEvidence(engine::SiteRecord::Type::kSuccessEvidence, content_key,
                  *engine_.success_traces().back());
  return Status::Ok();
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
      auto decoded = engine::DecodeProcessedTrace(record.bytes, module_);
      if (!decoded.ok()) {
        ++persist_failures_;
        RecordRejection("durable evidence undecodable", decoded.status());
        return;
      }
      std::shared_ptr<const trace::ProcessedTrace> t = decoded.take();
      const bool failing = record.type == Type::kFailingEvidence;
      if (!failing && SuccessCapReached()) {
        // Invariant guard only: a logged success record was accepted when it
        // was written, and in-order replay re-derives the same cap decision.
        return;
      }
      if (options_.use_analysis_cache && record.key != 0) {
        // Re-prime the decode memo so a fleet client re-sending the
        // byte-identical bundle post-restart skips decoding, as before.
        decode_cache_.Put(engine::ArtifactKind::kProcessedTrace, record.key,
                          engine::ProcessedTraceArtifact{t});
      }
      // Served from disk, not re-decoded: a kTraceProcess cache hit.
      engine_.RecordTraceProcess(0.0, /*cache_hit=*/true);
      degradation_.MergeFrom(t->degradation());
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
      if (persist &&
          !options_.durable_log->Append(options_.durable_site, record).ok()) {
        ++persist_failures_;
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
  size_t failing_i = 0;
  size_t success_i = 0;
  size_t rejection_i = 0;
  for (const EvidenceRef& ref : site_log_) {
    engine::SiteRecord record;
    record.type = ref.type;
    record.key = ref.key;
    bool have = false;
    switch (ref.type) {
      case engine::SiteRecord::Type::kFailingEvidence:
        if (failing_i < engine_.failing_traces().size() &&
            engine_.failing_traces()[failing_i] != nullptr) {
          engine::EncodeProcessedTrace(*engine_.failing_traces()[failing_i], &record.bytes);
          have = true;
        }
        ++failing_i;
        break;
      case engine::SiteRecord::Type::kSuccessEvidence:
        if (success_i < engine_.success_traces().size() &&
            engine_.success_traces()[success_i] != nullptr) {
          engine::EncodeProcessedTrace(*engine_.success_traces()[success_i], &record.bytes);
          have = true;
        }
        ++success_i;
        break;
      case engine::SiteRecord::Type::kRejection:
        if (rejection_i < rejection_notes_.size()) {
          const std::string& note = rejection_notes_[rejection_i];
          record.bytes.assign(note.begin(), note.end());
          have = true;
        }
        ++rejection_i;
        break;
      case engine::SiteRecord::Type::kArtifact:
        break;  // never in site_log_
    }
    if (have) {
      fn(std::move(record));
    }
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
