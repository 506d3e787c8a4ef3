#include "report/report.h"

#include "engine/artifact.h"
#include "engine/artifact_codec.h"
#include "support/binio.h"

namespace snorlax::report {

using support::AppendBytes;
using support::AppendF64;
using support::AppendI64;
using support::AppendString;
using support::AppendU32;
using support::AppendU64;
using support::AppendU8;
using support::AppendVarint;
using support::ByteReader;
using support::Status;
using support::StatusCode;

namespace {

// Bumped on any layout change; independent of kReportVersion (the aggregate's
// semantic generation), which is itself a field inside the record.
constexpr uint8_t kReportCodecVersion = 4;

void EncodeValue(const rt::Value& v, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(v.kind));
  AppendI64(out, v.ival);
  AppendU32(out, v.obj);
  AppendU32(out, v.off);
}

Status DecodeValue(ByteReader* r, rt::Value* out) {
  const uint8_t kind = r->U8();
  out->ival = r->I64();
  out->obj = r->U32();
  out->off = r->U32();
  if (r->ok() && kind > static_cast<uint8_t>(rt::Value::Kind::kFunc)) {
    r->MarkCorrupt("value kind out of range");
  }
  out->kind = static_cast<rt::Value::Kind>(kind);
  return r->status();
}

void EncodeFailure(const rt::FailureInfo& f, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(f.kind));
  AppendU32(out, f.failing_inst);
  AppendU32(out, f.thread);
  EncodeValue(f.operand, out);
  AppendU64(out, f.time_ns);
  AppendVarint(out, f.deadlock_cycle.size());
  for (const rt::FailureInfo::DeadlockWaiter& w : f.deadlock_cycle) {
    AppendU32(out, w.thread);
    AppendU32(out, w.inst);
    AppendU64(out, w.block_time_ns);
  }
  AppendString(out, f.description);
}

Status DecodeFailure(ByteReader* r, rt::FailureInfo* out) {
  const uint8_t kind = r->U8();
  out->failing_inst = r->U32();
  out->thread = r->U32();
  (void)DecodeValue(r, &out->operand);
  out->time_ns = r->U64();
  const size_t waiters = r->Count();
  out->deadlock_cycle.clear();
  out->deadlock_cycle.reserve(waiters);
  for (size_t i = 0; i < waiters && r->ok(); ++i) {
    rt::FailureInfo::DeadlockWaiter w;
    w.thread = r->U32();
    w.inst = r->U32();
    w.block_time_ns = r->U64();
    out->deadlock_cycle.push_back(w);
  }
  out->description = r->String();
  if (r->ok() && kind > static_cast<uint8_t>(rt::FailureKind::kTimeout)) {
    r->MarkCorrupt("failure kind out of range");
  }
  out->kind = static_cast<rt::FailureKind>(kind);
  return r->status();
}

void EncodePattern(const core::DiagnosedPattern& p, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(p.pattern.kind));
  AppendU8(out, p.pattern.ordered ? 1 : 0);
  AppendVarint(out, p.pattern.events.size());
  for (const core::PatternEvent& e : p.pattern.events) {
    AppendU32(out, e.inst);
    AppendU8(out, e.thread_slot);
    AppendU8(out, e.thread_final ? 1 : 0);
  }
  AppendF64(out, p.precision);
  AppendF64(out, p.recall);
  AppendF64(out, p.f1);
  AppendU64(out, p.counts.true_positive);
  AppendU64(out, p.counts.false_positive);
  AppendU64(out, p.counts.false_negative);
}

Status DecodePattern(ByteReader* r, core::DiagnosedPattern* p) {
  const uint8_t kind = r->U8();
  p->pattern.ordered = r->U8() != 0;
  const size_t events = r->Count();
  p->pattern.events.clear();
  p->pattern.events.reserve(events);
  for (size_t i = 0; i < events && r->ok(); ++i) {
    core::PatternEvent e;
    e.inst = r->U32();
    e.thread_slot = r->U8();
    e.thread_final = r->U8() != 0;
    p->pattern.events.push_back(e);
  }
  p->precision = r->F64();
  p->recall = r->F64();
  p->f1 = r->F64();
  p->counts.true_positive = r->U64();
  p->counts.false_positive = r->U64();
  p->counts.false_negative = r->U64();
  if (r->ok() && kind > static_cast<uint8_t>(core::PatternKind::kAtomicityWRW)) {
    r->MarkCorrupt("pattern kind out of range");
  }
  p->pattern.kind = static_cast<core::PatternKind>(kind);
  return r->status();
}

void EncodeDegradation(const trace::DegradationReport& d, std::vector<uint8_t>* out) {
  AppendU64(out, d.threads_total);
  AppendU64(out, d.threads_dropped);
  AppendU64(out, d.decode_errors);
  AppendU64(out, d.stream_resyncs);
  AppendU64(out, d.clock_anomalies);
  AppendU64(out, d.sanitized_failure_fields);
  AppendU64(out, d.rejected_bundles);
  AppendU8(out, d.lost_prefix ? 1 : 0);
  AppendU8(out, d.timestamps_unreliable ? 1 : 0);
  AppendU8(out, d.hypothesis_fallback ? 1 : 0);
  AppendU8(out, d.slice_fallback ? 1 : 0);
  AppendU8(out, d.failure_record_unusable ? 1 : 0);
  AppendVarint(out, d.notes.size());
  for (const std::string& note : d.notes) {
    AppendString(out, note);
  }
}

void DecodeDegradation(ByteReader* r, trace::DegradationReport* d) {
  d->threads_total = r->U64();
  d->threads_dropped = r->U64();
  d->decode_errors = r->U64();
  d->stream_resyncs = r->U64();
  d->clock_anomalies = r->U64();
  d->sanitized_failure_fields = r->U64();
  d->rejected_bundles = r->U64();
  d->lost_prefix = r->U8() != 0;
  d->timestamps_unreliable = r->U8() != 0;
  d->hypothesis_fallback = r->U8() != 0;
  d->slice_fallback = r->U8() != 0;
  d->failure_record_unusable = r->U8() != 0;
  const size_t notes = r->Count();
  d->notes.clear();
  d->notes.reserve(notes);
  for (size_t i = 0; i < notes && r->ok(); ++i) {
    d->notes.push_back(r->String());
  }
}

void EncodeStages(const core::StageStats& s, std::vector<uint8_t>* out) {
  AppendU64(out, s.module_instructions);
  AppendU64(out, s.executed_instructions);
  AppendU64(out, s.candidate_instructions);
  AppendU64(out, s.rank1_candidates);
  AppendU64(out, s.patterns_generated);
  AppendU64(out, s.top_f1_patterns);
  // The pass table (the one timing record) and the artifact-store counters
  // behind its cache hits.
  AppendVarint(out, engine::kNumPasses);
  for (const engine::PassStats& p : s.passes) {
    AppendU64(out, p.runs);
    AppendU64(out, p.cache_hits);
    AppendF64(out, p.seconds);
  }
  AppendU64(out, s.artifacts.hits);
  AppendU64(out, s.artifacts.misses);
  AppendU64(out, s.artifacts.insertions);
  AppendU64(out, s.artifacts.evictions);
  AppendU64(out, s.artifacts.entries);
}

void DecodeStages(ByteReader* r, core::StageStats* s) {
  s->module_instructions = r->U64();
  s->executed_instructions = r->U64();
  s->candidate_instructions = r->U64();
  s->rank1_candidates = r->U64();
  s->patterns_generated = r->U64();
  s->top_f1_patterns = r->U64();
  // A peer built against a different pass set still decodes: extra passes are
  // dropped, missing ones stay zero.
  const size_t passes = r->Count(256);
  for (size_t i = 0; i < passes && r->ok(); ++i) {
    engine::PassStats p;
    p.runs = r->U64();
    p.cache_hits = r->U64();
    p.seconds = r->F64();
    if (i < engine::kNumPasses) {
      s->passes[i] = p;
    }
  }
  s->artifacts.hits = r->U64();
  s->artifacts.misses = r->U64();
  s->artifacts.insertions = r->U64();
  s->artifacts.evictions = r->U64();
  s->artifacts.entries = static_cast<size_t>(r->U64());
}

}  // namespace

Report MakeReport(core::DiagnosisReport diagnosis, uint64_t module_fingerprint,
                  std::string scenario) {
  Report report;
  report.module_fingerprint = module_fingerprint;
  report.scenario = std::move(scenario);
  report.diagnosis = std::move(diagnosis);
  return report;
}

void EncodeReport(const Report& report, std::vector<uint8_t>* out) {
  AppendU8(out, kReportCodecVersion);
  AppendU32(out, report.version);
  AppendU64(out, report.module_fingerprint);
  AppendString(out, report.scenario);
  const core::DiagnosisReport& d = report.diagnosis;
  EncodeFailure(d.failure, out);
  AppendVarint(out, d.patterns.size());
  for (const core::DiagnosedPattern& p : d.patterns) {
    EncodePattern(p, out);
  }
  AppendU8(out, d.hypothesis_violated ? 1 : 0);
  EncodeDegradation(d.degradation, out);
  AppendU8(out, static_cast<uint8_t>(d.confidence));
  EncodeStages(d.stages, out);
  AppendU64(out, d.failing_traces);
  AppendU64(out, d.success_traces);
  // The repair plan rides as a length-prefixed sub-record in the engine's own
  // artifact encoding -- one codec for the durable log, hand-off, and here.
  if (d.repair != nullptr) {
    AppendU8(out, 1);
    std::vector<uint8_t> plan;
    engine::EncodeRepairPlan(*d.repair, &plan);
    AppendBytes(out, plan);
  } else {
    AppendU8(out, 0);
  }
  const TransportStats& t = report.transport;
  AppendU8(out, t.remote ? 1 : 0);
  AppendU32(out, t.negotiated_version);
  AppendU8(out, t.payload_format);
  AppendU64(out, t.bundles_acked);
  AppendU64(out, t.bundles_duplicate);
  AppendU64(out, t.reconnects);
}

Status DecodeReport(std::span<const uint8_t> bytes, const ir::Module* module,
                    Report* out) {
  ByteReader r(bytes);
  const uint8_t codec = r.U8();
  if (r.ok() && codec != kReportCodecVersion) {
    return Status::Error(StatusCode::kVersionMismatch,
                         "report codec version mismatch");
  }
  out->version = r.U32();
  out->module_fingerprint = r.U64();
  out->scenario = r.String();
  core::DiagnosisReport& d = out->diagnosis;
  Status status = DecodeFailure(&r, &d.failure);
  if (!status.ok()) {
    return status;
  }
  const size_t patterns = r.Count();
  d.patterns.clear();
  d.patterns.reserve(patterns);
  for (size_t i = 0; i < patterns && r.ok(); ++i) {
    core::DiagnosedPattern p;
    status = DecodePattern(&r, &p);
    if (!status.ok()) {
      return status;
    }
    d.patterns.push_back(std::move(p));
  }
  d.hypothesis_violated = r.U8() != 0;
  DecodeDegradation(&r, &d.degradation);
  const uint8_t confidence = r.U8();
  if (r.ok() && confidence > static_cast<uint8_t>(trace::ConfidenceTier::kLow)) {
    r.MarkCorrupt("confidence tier out of range");
  }
  d.confidence = static_cast<trace::ConfidenceTier>(confidence);
  DecodeStages(&r, &d.stages);
  d.failing_traces = static_cast<size_t>(r.U64());
  d.success_traces = static_cast<size_t>(r.U64());
  d.repair = nullptr;
  if (r.U8() != 0 && r.ok()) {
    const std::vector<uint8_t> plan_bytes = r.Bytes();
    if (r.ok()) {
      auto plan = std::make_shared<engine::RepairPlan>();
      status = engine::DecodeRepairPlan(plan_bytes, module, plan.get());
      if (!status.ok()) {
        return status;
      }
      d.repair = std::move(plan);
    }
  }
  TransportStats& t = out->transport;
  t.remote = r.U8() != 0;
  t.negotiated_version = r.U32();
  t.payload_format = r.U8();
  t.bundles_acked = r.U64();
  t.bundles_duplicate = r.U64();
  t.reconnects = r.U64();
  return r.ExpectExhausted();
}

uint64_t ContentHash(const Report& report) {
  std::vector<uint8_t> encoded;
  EncodeReport(report, &encoded);
  uint64_t h = engine::Mix64(encoded.size());
  for (const uint8_t b : encoded) {
    h = engine::HashCombine(h, b);
  }
  return h;
}

}  // namespace snorlax::report
