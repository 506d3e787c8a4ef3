// Tests for the typed report layer: canonical codec round-trips (including
// the embedded repair plan), every-byte-flip fuzzing of the decoder, and the
// differential property that the text / JSON / SARIF renderers agree -- same
// patterns, same ranks, same verdict -- for every generated bug class. The
// renderers are pure views over one aggregate, so any disagreement means a
// renderer re-derived state instead of reading it.
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/server.h"
#include "core/snorlax.h"
#include "engine/repair.h"
#include "ir/verifier.h"
#include "pt/encoder.h"
#include "report/render.h"
#include "report/report.h"
#include "support/status.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace snorlax {
namespace {

size_t CountOccurrences(std::string_view haystack, std::string_view needle) {
  size_t count = 0;
  size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string_view::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// Diagnoses a workload end-to-end and wraps the result in the aggregate, the
// way the CLI and the daemon do.
std::optional<report::Report> DiagnoseToReport(const workloads::Workload& w,
                                               bool repair) {
  core::SnorlaxOptions opts;
  opts.client.interp = w.interp;
  opts.failing_traces = w.recommended_failing_traces;
  if (repair) {
    opts.server.repair.enabled = true;
    opts.server.repair.entry = w.entry;
    opts.server.repair.interp = w.interp;
  }
  core::Snorlax snorlax(w.module.get(), opts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  if (!outcome.has_value()) {
    return std::nullopt;
  }
  return report::MakeReport(outcome->report, pt::ModuleFingerprint(*w.module),
                            w.name);
}

// A fully hand-populated aggregate: every optional field non-default, so the
// round-trip exercises each codec branch without running the interpreter.
report::Report HandBuiltReport() {
  report::Report r;
  r.module_fingerprint = 0x1234abcd5678ef00ull;
  r.scenario = "hand_built";
  core::DiagnosisReport& d = r.diagnosis;
  d.failure.kind = rt::FailureKind::kDeadlock;
  d.failure.failing_inst = 41;
  d.failure.thread = 2;
  d.failure.operand.kind = rt::Value::Kind::kPtr;
  d.failure.operand.obj = 7;
  d.failure.operand.off = 16;
  d.failure.time_ns = 123456789;
  d.failure.deadlock_cycle = {{1, 10, 100}, {2, 20, 200}};
  d.failure.description = "ABBA between stats_lock and queue_lock";
  core::DiagnosedPattern p;
  p.pattern.kind = core::PatternKind::kAtomicityRWR;
  p.pattern.ordered = true;
  p.pattern.events = {{30, 0, false}, {31, 1, true}, {32, 0, false}};
  p.precision = 0.9;
  p.recall = 0.8;
  p.f1 = 0.847;
  p.counts = {17, 2, 4};
  d.patterns = {p, p};
  d.patterns[1].pattern.kind = core::PatternKind::kOrderViolationWR;
  d.patterns[1].f1 = 0.5;
  d.hypothesis_violated = true;
  d.degradation.threads_dropped = 1;
  d.degradation.decode_errors = 3;
  d.degradation.timestamps_unreliable = true;
  d.degradation.notes = {"thread 4 dropped", "clock anomaly at bundle 9"};
  d.confidence = trace::ConfidenceTier::kDegraded;
  d.stages.module_instructions = 400;
  d.stages.executed_instructions = 350;
  d.stages.rank1_candidates = 12;
  d.stages.artifacts.hits = 5;
  d.stages.artifacts.entries = 17;
  engine::StatsFor(d.stages.passes, engine::PassId::kTraceProcess) = {3, 1, 0.25};
  engine::StatsFor(d.stages.passes, engine::PassId::kScore) = {2, 0, 1.25};
  engine::StatsFor(d.stages.passes, engine::PassId::kRepair) = {1, 0, 4.0};
  d.failing_traces = 2;
  d.success_traces = 7;
  r.transport.remote = true;
  r.transport.negotiated_version = 4;
  r.transport.payload_format = 3;
  r.transport.bundles_acked = 12;
  r.transport.bundles_duplicate = 1;
  r.transport.reconnects = 2;
  return r;
}

TEST(ReportCodec, HandBuiltRoundTripIsExact) {
  const report::Report original = HandBuiltReport();
  std::vector<uint8_t> bytes;
  report::EncodeReport(original, &bytes);

  report::Report decoded;
  const support::Status status = report::DecodeReport(bytes, nullptr, &decoded);
  ASSERT_TRUE(status.ok()) << status.message();

  // The canonical encoding is deterministic, so hash equality is field-by-field
  // equality without hand-writing operator== over the whole aggregate.
  EXPECT_EQ(report::ContentHash(original), report::ContentHash(decoded));
  EXPECT_EQ(decoded.version, report::kReportVersion);
  EXPECT_EQ(decoded.scenario, "hand_built");
  EXPECT_EQ(decoded.diagnosis.failure.kind, rt::FailureKind::kDeadlock);
  ASSERT_EQ(decoded.diagnosis.failure.deadlock_cycle.size(), 2u);
  EXPECT_EQ(decoded.diagnosis.failure.deadlock_cycle[1].block_time_ns, 200u);
  ASSERT_EQ(decoded.diagnosis.patterns.size(), 2u);
  EXPECT_EQ(decoded.diagnosis.patterns[0].pattern.events.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded.diagnosis.patterns[0].f1, 0.847);
  ASSERT_EQ(decoded.diagnosis.degradation.notes.size(), 2u);
  EXPECT_EQ(decoded.diagnosis.confidence, trace::ConfidenceTier::kDegraded);
  const engine::PassStats& trace_process =
      engine::StatsFor(decoded.diagnosis.stages.passes, engine::PassId::kTraceProcess);
  EXPECT_EQ(trace_process.runs, 3u);
  EXPECT_EQ(trace_process.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(trace_process.seconds, 0.25);
  // Steps 2-7 only: the repair pass's 4 s is not analysis time.
  EXPECT_DOUBLE_EQ(decoded.diagnosis.stages.AnalysisSeconds(), 1.5);
  EXPECT_EQ(decoded.diagnosis.repair, nullptr);
  EXPECT_TRUE(decoded.transport.remote);
}

TEST(ReportCodec, DiagnosedRoundTripCarriesRepairPlan) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  const auto original = DiagnoseToReport(w, /*repair=*/true);
  ASSERT_TRUE(original.has_value());
  ASSERT_NE(original->diagnosis.repair, nullptr);
  ASSERT_FALSE(original->diagnosis.repair->candidates.empty());

  std::vector<uint8_t> bytes;
  report::EncodeReport(*original, &bytes);
  report::Report decoded;
  const support::Status status =
      report::DecodeReport(bytes, w.module.get(), &decoded);
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_EQ(report::ContentHash(*original), report::ContentHash(decoded));
  ASSERT_NE(decoded.diagnosis.repair, nullptr);
  const engine::RepairPlan& before = *original->diagnosis.repair;
  const engine::RepairPlan& after = *decoded.diagnosis.repair;
  EXPECT_EQ(before.target, after.target);
  EXPECT_EQ(before.confirmed_patterns, after.confirmed_patterns);
  ASSERT_EQ(before.candidates.size(), after.candidates.size());
  for (size_t i = 0; i < before.candidates.size(); ++i) {
    EXPECT_EQ(before.candidates[i].status, after.candidates[i].status);
    EXPECT_TRUE(before.candidates[i].patch == after.candidates[i].patch);
    EXPECT_EQ(before.candidates[i].note, after.candidates[i].note);
  }
}

TEST(ReportCodec, CodecVersionSkewRejected) {
  std::vector<uint8_t> bytes;
  report::EncodeReport(HandBuiltReport(), &bytes);
  ASSERT_FALSE(bytes.empty());
  // 2 is the layout that still carried the per-stage and per-report seconds,
  // 3 the one that still carried the artifact store's byte counters.
  for (const uint8_t lead : {uint8_t{2}, uint8_t{3}, uint8_t{0xff}}) {
    bytes[0] = lead;
    report::Report decoded;
    const support::Status status = report::DecodeReport(bytes, nullptr, &decoded);
    ASSERT_FALSE(status.ok()) << "report codec " << int{lead};
    EXPECT_EQ(status.code(), support::StatusCode::kVersionMismatch);
  }
}

TEST(ReportCodec, EveryTruncationRejectedCleanly) {
  std::vector<uint8_t> bytes;
  report::EncodeReport(HandBuiltReport(), &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    report::Report decoded;
    const support::Status status = report::DecodeReport(
        std::span<const uint8_t>(bytes.data(), len), nullptr, &decoded);
    EXPECT_FALSE(status.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(ReportCodecFuzz, EveryByteFlipDecodesOrRejectsNeverAborts) {
  // Same contract the wire fuzz tests assert: a corrupted encoding is either
  // decoded into *some* structurally valid report or rejected with a clean
  // Status -- never a crash, abort, or runaway allocation. Flipping all eight
  // bits of every byte covers every field boundary in the record.
  std::vector<uint8_t> bytes;
  report::EncodeReport(HandBuiltReport(), &bytes);
  size_t rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xff;
    report::Report decoded;
    const support::Status status = report::DecodeReport(corrupt, nullptr, &decoded);
    if (!status.ok()) {
      ++rejected;
    }
  }
  // Some flips (e.g. inside float payloads or free-text strings) survive as
  // different-but-valid reports; structural fields must not. The exact split
  // is codec-dependent, but a decoder that never rejects is broken.
  EXPECT_GT(rejected, 0u);
}

TEST(ReportCodecFuzz, ByteFlipsInRepairPlanNeverAbort) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  const auto original = DiagnoseToReport(w, /*repair=*/true);
  ASSERT_TRUE(original.has_value());
  ASSERT_NE(original->diagnosis.repair, nullptr);
  std::vector<uint8_t> bytes;
  report::EncodeReport(*original, &bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xff;
    report::Report decoded;
    // Module-checked decode: flipped patch anchors must be caught by the
    // bounds check, not walk off the instruction table.
    (void)report::DecodeReport(corrupt, w.module.get(), &decoded);
  }
}

TEST(ReportRender, FormatNamesParse) {
  report::Format format = report::Format::kText;
  EXPECT_TRUE(report::ParseFormat("json", &format));
  EXPECT_EQ(format, report::Format::kJson);
  EXPECT_TRUE(report::ParseFormat("sarif", &format));
  EXPECT_EQ(format, report::Format::kSarif);
  EXPECT_TRUE(report::ParseFormat("text", &format));
  EXPECT_EQ(format, report::Format::kText);
  EXPECT_FALSE(report::ParseFormat("xml", &format));
  EXPECT_EQ(std::string(report::FormatName(report::Format::kSarif)), "sarif");
}

// The differential property, swept over every generated bug class: each
// renderer is a pure view of the same aggregate, so the pattern ranking, the
// failure verdict, and the scenario identity must be readable -- and equal --
// from all three projections.
TEST(ReportRender, RenderersAgreeForAllGeneratedBugClasses) {
  const workloads::GeneratedBug kClasses[] = {
      workloads::GeneratedBug::kInvalidationRace,
      workloads::GeneratedBug::kCheckThenUse,
      workloads::GeneratedBug::kStoreThroughStale,
      workloads::GeneratedBug::kLockInversion,
      workloads::GeneratedBug::kOltpRace,
      workloads::GeneratedBug::kOltpAtomicity,
      workloads::GeneratedBug::kOltpOrder,
      workloads::GeneratedBug::kOltpAbba,
  };
  int cls = 0;
  for (const workloads::GeneratedBug bug : kClasses) {
    SCOPED_TRACE(workloads::GeneratedBugName(bug));
    workloads::GeneratorOptions options;
    options.bug = bug;
    options.seed = 301 + cls;
    options.helper_depth = 1 + (cls % 3);
    ++cls;
    const workloads::Workload w = workloads::GenerateWorkload(options);
    ASSERT_TRUE(ir::VerifyModule(*w.module).empty());

    const auto rep = DiagnoseToReport(w, /*repair=*/false);
    ASSERT_TRUE(rep.has_value());
    ASSERT_FALSE(rep->diagnosis.patterns.empty());

    const std::string text = report::RenderText(*rep, w.module.get());
    const std::string json = report::RenderJson(*rep, w.module.get());
    const std::string sarif = report::RenderSarif(*rep, w.module.get());

    // Rendering is deterministic: same aggregate, same bytes.
    EXPECT_EQ(text, report::Render(*rep, report::Format::kText, w.module.get()));
    EXPECT_EQ(json, report::Render(*rep, report::Format::kJson, w.module.get()));
    EXPECT_EQ(sarif, report::Render(*rep, report::Format::kSarif, w.module.get()));

    // The rank-1 pattern kind and the failure verdict surface in all three.
    const char* top_kind =
        core::PatternKindName(rep->diagnosis.patterns[0].pattern.kind);
    const char* failure = rt::FailureKindName(rep->diagnosis.failure.kind);
    for (const std::string* view : {&text, &json, &sarif}) {
      EXPECT_GT(CountOccurrences(*view, top_kind), 0u);
      EXPECT_GT(CountOccurrences(*view, failure), 0u);
    }

    // SARIF carries exactly one result per diagnosed pattern, and the JSON
    // ranks them 1..N -- both projections of the same vector.
    EXPECT_EQ(CountOccurrences(sarif, "\"ruleId\""),
              rep->diagnosis.patterns.size());
    EXPECT_EQ(CountOccurrences(json, "\"rank\""),
              rep->diagnosis.patterns.size());
    EXPECT_GT(CountOccurrences(sarif, "\"2.1.0\""), 0u);
    EXPECT_GT(CountOccurrences(json, "\"" + w.name + "\""), 0u);
    EXPECT_GT(CountOccurrences(text, w.name), 0u);

    // And the aggregate each view was rendered from survives the codec.
    std::vector<uint8_t> bytes;
    report::EncodeReport(*rep, &bytes);
    report::Report decoded;
    ASSERT_TRUE(report::DecodeReport(bytes, w.module.get(), &decoded).ok());
    EXPECT_EQ(report::ContentHash(*rep), report::ContentHash(decoded));
    EXPECT_EQ(report::RenderJson(decoded, w.module.get()), json);
    EXPECT_EQ(report::RenderSarif(decoded, w.module.get()), sarif);
  }
}

TEST(ReportRender, SarifMarksRepairStatusWhenPlanPresent) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  const auto rep = DiagnoseToReport(w, /*repair=*/true);
  ASSERT_TRUE(rep.has_value());
  ASSERT_NE(rep->diagnosis.repair, nullptr);
  const std::string sarif = report::RenderSarif(*rep, w.module.get());
  EXPECT_GT(CountOccurrences(sarif, "\"repair_status\""), 0u);
  const std::string text = report::RenderText(*rep, w.module.get());
  EXPECT_GT(CountOccurrences(text, "repair"), 0u);
}

}  // namespace
}  // namespace snorlax
