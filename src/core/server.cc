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

support::Result<DiagnosisServer::Ingested> DiagnosisServer::Ingest(
    const pt::PtTraceBundle& bundle, bool failing, const char* what) {
  Status valid = ValidateBundle(bundle, failing);
  if (!valid.ok()) {
    RecordRejection(what, valid);
    return valid;
  }
  const auto start = std::chrono::steady_clock::now();
  Ingested out;
  out.key = trace::TraceKey(bundle, options_.trace);
  if (options_.use_analysis_cache) {
    // A success projection is served stale or not, and a failing trace
    // whatever it kept: Score() and the pipeline re-project them as needed.
    if (std::shared_ptr<const trace::ProcessedTrace> known =
            failing ? engine_.FailingTrace(out.key) : engine_.SuccessProjection(out.key)) {
      // Each submission appends the shared trace as its own evidence; only
      // the packet decoding is skipped.
      engine_.RecordTraceProcess(SecondsSince(start), /*cache_hit=*/true);
      degradation_.MergeFrom(known->degradation());
      out.trace = std::move(known);
      return out;
    }
  }
  const trace::TraceDecode* decoded = nullptr;
  try {
    // Decoded once; a success bundle is projected onto the site's current
    // pattern instructions straight away, a failing bundle by the pipeline
    // once steps 4-5 have named what it must keep.
    decoded = &engine_.Decode(bundle, options_.trace);
    if (!failing) {
      out.trace = std::make_shared<const trace::ProcessedTrace>(
          *decoded, &engine_.pattern_instructions());
    }
  } catch (const std::exception& e) {
    // Crash barrier: a corruption pattern the hardened paths did not
    // anticipate must cost one bundle, not the whole diagnosis service.
    Status err = Status::Error(StatusCode::kInternal, StrFormat("ingest failed: %s", e.what()));
    RecordRejection(what, err);
    return err;
  }
  if (failing) {
    out.decoded = decoded;
    out.decode_seconds = SecondsSince(start);
  } else {
    engine_.RecordTraceProcess(SecondsSince(start), /*cache_hit=*/false);
  }
  // Degradation accrues even for bundles rejected below: a decoded-but-empty
  // bundle still tells the operator what corruption ate it.
  degradation_.MergeFrom(decoded->degradation());
  if (!decoded->HasEvidence()) {
    // Never filed: a repeat is served only a trace ingest accepted.
    Status err = Status::Error(StatusCode::kCorruptData, "no usable events survived decoding");
    RecordRejection(what, err);
    return err;
  }
  return out;
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

Status DiagnosisServer::RunFailingPipeline(const pt::PtTraceBundle& bundle,
                                           const Ingested& ingested,
                                           const engine::CancelToken& cancel, const char* what) {
  Status pipeline;
  try {
    pipeline = engine_.AddFailingTrace(bundle, ingested.key, ingested.decoded,
                                       ingested.decode_seconds, cancel);
  } catch (const std::exception& e) {
    RecordRejection(what, Status::Error(StatusCode::kInternal, e.what()));
    return Status::Error(StatusCode::kInternal, StrFormat("analysis failed: %s", e.what()));
  }
  degradation_.hypothesis_fallback =
      degradation_.hypothesis_fallback || engine_.hypothesis_violated();
  degradation_.slice_fallback = degradation_.slice_fallback || engine_.used_slice_fallback();
  return pipeline;
}

void DiagnosisServer::PersistEvidence(engine::SiteRecord::Type type, uint64_t key) {
  if (options_.durable_log == nullptr) {
    return;
  }
  engine::SiteRecord record;
  record.type = type;
  record.key = key;
  const bool first = logged_keys_.insert(key).second;
  if (first) {
    pt::EncodeBundle(*engine_.EvidenceBundle(key), &record.bytes);
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
  auto ingested = Ingest(bundle, /*failing=*/true, "failing bundle rejected");
  if (!ingested.ok()) {
    return ingested.status();
  }
  const uint64_t key = ingested.value().key;
  const Status pipeline =
      RunFailingPipeline(bundle, ingested.value(), cancel, "pipeline crash barrier");
  if (pipeline.code() == StatusCode::kInternal) {
    return pipeline;
  }
  if (!pipeline.ok()) {
    // Deadline hit at a pass boundary: the trace stays as scoring evidence
    // and every completed artifact remains valid, but the operator should
    // know this site ran out of budget mid-pipeline.
    degradation_.notes.push_back(pipeline.ToString());
  }
  // The trace was retained as evidence (even on deadline): make it durable.
  site_log_.push_back(EvidenceRef{engine::SiteRecord::Type::kFailingEvidence, key});
  PersistEvidence(engine::SiteRecord::Type::kFailingEvidence, key);
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
  const uint64_t key = ingested.value().key;
  engine_.AddSuccessTrace(bundle, std::move(ingested.value().trace));
  site_log_.push_back(EvidenceRef{engine::SiteRecord::Type::kSuccessEvidence, key});
  PersistEvidence(engine::SiteRecord::Type::kSuccessEvidence, key);
  return Status::Ok();
}

Status DiagnosisServer::RestoreEvidence(const engine::SiteRecord& record, bool failing) {
  constexpr const char* kWhat = "durable evidence rejected";
  // Files `bundle` as `ingested` (the held trace of its key), ingesting the
  // bundle first when that is empty.
  auto file = [&](const pt::PtTraceBundle& bundle, Ingested ingested) -> Status {
    if (ingested.trace == nullptr) {
      auto fresh = Ingest(bundle, failing, kWhat);
      if (!fresh.ok()) {
        return fresh.status();
      }
      ingested = std::move(fresh.value());
    }
    if (!failing) {
      engine_.AddSuccessTrace(bundle, std::move(ingested.trace));
      return Status::Ok();
    }
    // Restore runs without a deadline: with the artifacts imported first
    // every pass is a cache hit, so this is bounded work.
    return RunFailingPipeline(bundle, ingested, engine::CancelToken(),
                              "restore pipeline crash barrier");
  };
  if (record.bytes.empty()) {
    // A reference record: its key's full record came earlier in the stream,
    // so the engine already holds its bundle and usually its trace (a
    // success projection, stale or not, is brought up to date by Score()).
    // Only a key first restored as the other kind is built from its bundle.
    const pt::PtTraceBundle* bundle = engine_.EvidenceBundle(record.key);
    if (bundle == nullptr) {
      Status err = Status::Error(
          StatusCode::kCorruptData,
          StrFormat("evidence reference %016llx has no full record",
                    static_cast<unsigned long long>(record.key)));
      RecordRejection(kWhat, err);
      return err;
    }
    Ingested known;
    known.key = record.key;
    known.trace =
        failing ? engine_.FailingTrace(record.key) : engine_.SuccessProjection(record.key);
    if (known.trace != nullptr) {
      engine_.RecordTraceProcess(0.0, /*cache_hit=*/true);
      degradation_.MergeFrom(known.trace->degradation());
    }
    return file(*bundle, std::move(known));
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
  return file(bundle.value(), Ingested{});
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
      if (!RestoreEvidence(record, failing).ok()) {
        ++persist_failures_;
        return;
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
      pt::EncodeBundle(*engine_.EvidenceBundle(ref.key), &record.bytes);
    }
    fn(std::move(record));
  }
}

uint64_t DiagnosisServer::durable_failures() const {
  return persist_failures_ + engine_.durable_append_failures();
}

std::vector<std::pair<ir::InstId, int>> DiagnosisServer::RequestedDumpPoints() const {
  std::vector<std::pair<ir::InstId, int>> out;
  if (engine_.num_failing_traces() == 0) {
    return out;
  }
  const rt::FailureInfo& failure = engine_.failing_trace(0).failure();
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
  s.passes = engine_.pass_stats();
  s.artifacts = artifact_stats();
  return s;
}

DiagnosisReport DiagnosisServer::Diagnose() const {
  DiagnosisReport report;
  if (engine_.num_failing_traces() == 0) {
    // Nothing was diagnosable -- but if bundles were rejected on the way
    // here, the operator should see why instead of a silent empty report.
    report.degradation = degradation_;
    report.confidence = degradation_.degraded() ? trace::ConfidenceTier::kLow
                                                : trace::ConfidenceTier::kFull;
    return report;
  }
  report.failure = engine_.failing_trace(0).failure();
  report.hypothesis_violated = engine_.hypothesis_violated();
  const engine::F1ScoresArtifact& scored = engine_.Score();
  report.degradation = degradation_;
  report.degradation.MergeFrom(engine_.score_degradation());
  report.confidence = report.degradation.tier();
  report.failing_traces = engine_.num_failing_traces();
  report.success_traces = engine_.num_success_traces();
  report.patterns = scored.scored;
  const size_t top_f1_patterns = scored.top_f1_patterns;
  if (options_.repair.enabled) {
    report.repair = engine_.Repair();
  }

  report.stages = BuildStageStats();
  report.stages.top_f1_patterns = top_f1_patterns;
  return report;
}

}  // namespace snorlax::core
