// Tests for the DiagnosisServer pipeline (steps 2-7), its ablation knobs,
// dump-point selection, and the client/server orchestration plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/throughput_harness.h"
#include "core/snorlax.h"
#include "ir/builder.h"
#include "ir/cfg.h"
#include "workloads/workload.h"

namespace snorlax::core {
namespace {

// Captures a failing bundle from a workload (first failing seed).
struct Captured {
  workloads::Workload workload;
  pt::PtTraceBundle bundle;
  uint64_t failing_seed = 0;
};

Captured CaptureFailingTrace(const std::string& name) {
  Captured out{workloads::Build(name), {}, 0};
  ClientOptions copts;
  copts.interp = out.workload.interp;
  DiagnosisClient client(out.workload.module.get(), copts);
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure()) {
      EXPECT_TRUE(run.trace.has_value());
      out.bundle = *run.trace;
      out.failing_seed = seed;
      return out;
    }
  }
  ADD_FAILURE() << "no failure reproduced for " << name;
  return out;
}

TEST(DiagnosisServer, PipelineStagesPopulate) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  server.SubmitFailingTrace(cap.bundle);
  ASSERT_TRUE(server.HasFailure());

  const DiagnosisReport report = server.Diagnose();
  EXPECT_EQ(report.failure.kind, rt::FailureKind::kCrash);
  EXPECT_GT(report.stages.module_instructions, 0u);
  EXPECT_GT(report.stages.executed_instructions, 0u);
  EXPECT_LE(report.stages.executed_instructions, report.stages.module_instructions);
  EXPECT_GT(report.stages.candidate_instructions, 0u);
  EXPECT_LE(report.stages.candidate_instructions, report.stages.executed_instructions);
  EXPECT_GT(report.stages.rank1_candidates, 0u);
  EXPECT_LE(report.stages.rank1_candidates, report.stages.candidate_instructions);
  EXPECT_GT(report.stages.patterns_generated, 0u);
  EXPECT_FALSE(report.patterns.empty());
  EXPECT_GT(report.stages.AnalysisSeconds(), 0.0);
  // The failure chain walked back to the pointer load.
  EXPECT_GE(server.failure_chain().size(), 2u);
}

TEST(DiagnosisServer, DumpPointsStartAtFailurePc) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  server.SubmitFailingTrace(cap.bundle);
  const auto points = server.RequestedDumpPoints();
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points[0].first, cap.bundle.failure.failing_inst);
  EXPECT_EQ(points[0].second, 0);
  // Fallbacks cover predecessor blocks of the failing block.
  const auto preds = ir::PredecessorBlocksOf(*cap.workload.module,
                                             cap.bundle.failure.failing_inst);
  EXPECT_EQ(points.size(), 1 + preds.size());
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(points[i].second, static_cast<int>(i));
  }
}

TEST(DiagnosisServer, NoFailureMeansEmptyReport) {
  workloads::Workload w = workloads::Build("pbzip2_main");
  DiagnosisServer server(w.module.get());
  EXPECT_FALSE(server.HasFailure());
  EXPECT_TRUE(server.RequestedDumpPoints().empty());
  const DiagnosisReport report = server.Diagnose();
  EXPECT_TRUE(report.patterns.empty());
  EXPECT_EQ(report.failing_traces, 0u);
}

// Regression: a bundle without a failure record used to trip a CHECK and
// abort the server; it must now come back as a recoverable Status error.
TEST(DiagnosisServer, NonFailingBundleRejectedNotAborted) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  ClientOptions copts;
  copts.interp = cap.workload.interp;
  DiagnosisClient client(cap.workload.module.get(), copts);
  // Success runs snapshot only at requested dump points; borrow them from a
  // scout server that saw the real failure.
  DiagnosisServer scout(cap.workload.module.get());
  ASSERT_TRUE(scout.SubmitFailingTrace(cap.bundle).ok());
  const auto dump_points = scout.RequestedDumpPoints();
  std::optional<pt::PtTraceBundle> clean;
  for (uint64_t seed = cap.failing_seed + 1; seed < cap.failing_seed + 400; ++seed) {
    ClientRun run = client.RunOnce(seed, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      clean = run.trace;
      break;
    }
  }
  ASSERT_TRUE(clean.has_value());

  DiagnosisServer server(cap.workload.module.get());
  const support::Status status = server.SubmitFailingTrace(*clean);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), support::StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.HasFailure());
  EXPECT_GT(server.degradation().rejected_bundles, 0u);

  // The real failing bundle still works afterwards.
  EXPECT_TRUE(server.SubmitFailingTrace(cap.bundle).ok());
  EXPECT_TRUE(server.HasFailure());
}

TEST(DiagnosisServer, VersionSkewedBundleRejected) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());

  pt::PtTraceBundle skewed = cap.bundle;
  skewed.trace_version = pt::kPtTraceVersion + 1;
  EXPECT_EQ(server.SubmitFailingTrace(skewed).code(),
            support::StatusCode::kVersionMismatch);

  skewed = cap.bundle;
  skewed.module_fingerprint ^= 0x1;
  EXPECT_EQ(server.SubmitFailingTrace(skewed).code(),
            support::StatusCode::kVersionMismatch);
  EXPECT_FALSE(server.HasFailure());
}

TEST(DiagnosisServer, EmptyBundleRejectedAsCorrupt) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  pt::PtTraceBundle empty = cap.bundle;
  empty.threads.clear();
  EXPECT_EQ(server.SubmitFailingTrace(empty).code(),
            support::StatusCode::kCorruptData);
}

TEST(DiagnosisServer, DegradedReportCarriesConfidenceTier) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  // Forge the failure record to point at a non-existent instruction: the
  // server must sanitize it, keep running, and downgrade its confidence.
  pt::PtTraceBundle forged = cap.bundle;
  forged.failure.failing_inst = cap.workload.module->NumInstructions() + 7;
  const support::Status status = server.SubmitFailingTrace(forged);
  if (status.ok()) {
    const DiagnosisReport report = server.Diagnose();
    EXPECT_TRUE(report.degradation.degraded());
    EXPECT_NE(report.confidence, trace::ConfidenceTier::kFull);
  } else {
    EXPECT_GT(server.degradation().rejected_bundles, 0u);
  }
}

TEST(DiagnosisServer, SuccessTraceCapEnforced) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  server.SubmitFailingTrace(cap.bundle);
  // Feed 15 "success" traces (reuse shape: a non-failing run's snapshot).
  ClientOptions copts;
  copts.interp = cap.workload.interp;
  DiagnosisClient client(cap.workload.module.get(), copts);
  const auto dump_points = server.RequestedDumpPoints();
  uint64_t seed = cap.failing_seed + 1;
  int fed = 0;
  while (fed < 15 && seed < cap.failing_seed + 400) {
    ClientRun run = client.RunOnce(seed++, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      server.SubmitSuccessTrace(*run.trace);
      ++fed;
    }
  }
  ASSERT_EQ(fed, 15);
  EXPECT_EQ(server.NumSuccessTraces(), server.SuccessTraceCap());
  EXPECT_EQ(server.NumSuccessTraces(), 10u);  // 10x one failing trace
}

TEST(DiagnosisServer, AnalysisCacheSkipsSolverOnRepeatedSite) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(cap.bundle).ok());
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 1u);
  const DiagnosisReport first = server.Diagnose();

  // Same site, same executed set, same trace content: steps 4-6 are served
  // from the analysis cache, so the solver must not run again.
  ASSERT_TRUE(server.SubmitFailingTrace(cap.bundle).ok());
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 1u);
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).cache_hits, 1u);
  const DiagnosisReport second = server.Diagnose();
  EXPECT_EQ(second.failing_traces, 2u);
  ASSERT_EQ(second.patterns.size(), first.patterns.size());
  for (size_t i = 0; i < first.patterns.size(); ++i) {
    EXPECT_EQ(second.patterns[i].pattern.Key(), first.patterns[i].pattern.Key());
  }

  // With the cache off, every submission pays for its own solve.
  DiagnosisServer::Options options;
  options.use_analysis_cache = false;
  DiagnosisServer uncached(cap.workload.module.get(), options);
  ASSERT_TRUE(uncached.SubmitFailingTrace(cap.bundle).ok());
  ASSERT_TRUE(uncached.SubmitFailingTrace(cap.bundle).ok());
  EXPECT_EQ(uncached.pass_stats(engine::PassId::kPointsTo).runs, 2u);
}

TEST(DiagnosisServer, RejectedVariantDoesNotPoisonTheDecodeMemo) {
  // The same success bundle twice: first with a zero CYC unit, which the
  // decoder refuses, so the trace has no events and is rejected; then
  // unmodified. What serves a success repeat (the engine's projection of
  // its key) must neither key the two alike (the config is part of the
  // trace key) nor keep the rejected trace.
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"}, 1);
  ASSERT_EQ(sites.size(), 1u);
  ASSERT_EQ(sites[0].successes.size(), 1u);
  const pt::PtTraceBundle& success = sites[0].successes[0];
  DiagnosisServer server(sites[0].workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(sites[0].failing).ok());
  pt::PtTraceBundle zero_unit = success;
  zero_unit.config.cyc_unit_ns = 0;
  EXPECT_EQ(server.SubmitSuccessTrace(zero_unit).code(), support::StatusCode::kCorruptData);
  EXPECT_EQ(server.NumSuccessTraces(), 0u);
  const support::Status accepted = server.SubmitSuccessTrace(success);
  EXPECT_TRUE(accepted.ok()) << accepted.ToString();
  EXPECT_EQ(server.NumSuccessTraces(), 1u);
  EXPECT_EQ(server.degradation().rejected_bundles, 1u);
}

TEST(DiagnosisServer, SuccessesBeforeTheFailureAreReprojectedOncePerBundle) {
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"}, 2);
  ASSERT_EQ(sites.size(), 1u);
  ASSERT_EQ(sites[0].successes.size(), 2u);
  const bench::CapturedSite& site = sites[0];
  DiagnosisServer early(site.workload.module.get());
  // With no failure yet there are no patterns: each success is projected
  // onto the empty set, and the repeat shares its bundle's projection.
  ASSERT_TRUE(early.SubmitSuccessTrace(site.successes[0]).ok());
  ASSERT_TRUE(early.SubmitSuccessTrace(site.successes[0]).ok());
  ASSERT_TRUE(early.SubmitSuccessTrace(site.successes[1]).ok());
  ASSERT_TRUE(early.SubmitFailingTrace(site.failing).ok());
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).runs, 3u);
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).cache_hits, 1u);
  const DiagnosisReport report = early.Diagnose();
  ASSERT_FALSE(report.patterns.empty());
  // Scoring re-projected each unique bundle once, as trace processing.
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).runs, 5u);
  bool explained = false;
  for (const engine::PassTrace& p : early.explain()) {
    if (p.id == engine::PassId::kScore) {
      explained = p.reason.find("2 re-projected") != std::string::npos;
    }
  }
  EXPECT_TRUE(explained);
  (void)early.Diagnose();
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).runs, 5u);
  // A repeat after the re-projection is served the current projection.
  ASSERT_TRUE(early.SubmitSuccessTrace(site.successes[0]).ok());
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).runs, 5u);
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).cache_hits, 2u);
  (void)early.Diagnose();
  EXPECT_EQ(early.pass_stats(engine::PassId::kTraceProcess).runs, 5u);

  DiagnosisServer late(site.workload.module.get());
  ASSERT_TRUE(late.SubmitFailingTrace(site.failing).ok());
  ASSERT_TRUE(late.SubmitSuccessTrace(site.successes[0]).ok());
  ASSERT_TRUE(late.SubmitSuccessTrace(site.successes[0]).ok());
  ASSERT_TRUE(late.SubmitSuccessTrace(site.successes[1]).ok());
  ASSERT_TRUE(late.SubmitSuccessTrace(site.successes[0]).ok());
  EXPECT_EQ(bench::DigestReport(early.Diagnose()), bench::DigestReport(late.Diagnose()));
  EXPECT_EQ(late.pass_stats(engine::PassId::kTraceProcess).runs, 3u);
}

TEST(DiagnosisServer, FailingBundleAlsoSubmittedAsSuccessKeepsItsFullAnalysis) {
  // One bundle with a failure record, as success evidence and as the
  // failure, in either order. The failing submit must get the full trace,
  // never the success projection, so steps 4-6 see what a failing-only
  // server sees; the success copy then embeds exactly the patterns the
  // failing trace does.
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"}, 1);
  ASSERT_EQ(sites.size(), 1u);
  const bench::CapturedSite& site = sites[0];
  DiagnosisServer failing_only(site.workload.module.get());
  ASSERT_TRUE(failing_only.SubmitFailingTrace(site.failing).ok());
  const DiagnosisReport want = failing_only.Diagnose();
  ASSERT_FALSE(want.patterns.empty());
  std::vector<std::string> want_keys;
  for (const DiagnosedPattern& d : want.patterns) {
    want_keys.push_back(d.pattern.Key());
  }
  std::sort(want_keys.begin(), want_keys.end());

  for (const bool success_first : {true, false}) {
    SCOPED_TRACE(success_first ? "success first" : "failing first");
    DiagnosisServer server(site.workload.module.get());
    if (success_first) {
      ASSERT_TRUE(server.SubmitSuccessTrace(site.failing).ok());
    }
    ASSERT_TRUE(server.SubmitFailingTrace(site.failing).ok());
    if (!success_first) {
      ASSERT_TRUE(server.SubmitSuccessTrace(site.failing).ok());
    }
    // Two builds: the projection and the full trace; neither served the other.
    EXPECT_EQ(server.pass_stats(engine::PassId::kTraceProcess).cache_hits, 0u);
    const DiagnosisReport got = server.Diagnose();
    EXPECT_EQ(got.failing_traces, 1u);
    EXPECT_EQ(got.success_traces, 1u);
    EXPECT_EQ(got.stages.executed_instructions, want.stages.executed_instructions);
    EXPECT_EQ(got.stages.candidate_instructions, want.stages.candidate_instructions);
    EXPECT_EQ(got.stages.rank1_candidates, want.stages.rank1_candidates);
    std::vector<std::string> got_keys;
    for (const DiagnosedPattern& d : got.patterns) {
      got_keys.push_back(d.pattern.Key());
      EXPECT_EQ(d.counts.false_positive, d.counts.true_positive) << d.pattern.Key();
    }
    std::sort(got_keys.begin(), got_keys.end());
    EXPECT_EQ(got_keys, want_keys);
  }
}

TEST(DiagnosisServer, FailingRepeatPastSixtyFourUniqueBundlesIsACacheHit) {
  // More distinct failing bundles of one site than a 64-entry cache holds,
  // then the first again. The engine's evidence table still holds the first
  // bundle's full trace, so the repeat is served it: a kTraceProcess cache
  // hit, not a second decode.
  workloads::Workload workload = workloads::Build("pbzip2_main");
  ClientOptions copts;
  copts.interp = workload.interp;
  DiagnosisClient client(workload.module.get(), copts);
  std::vector<pt::PtTraceBundle> failing;
  std::unordered_set<uint64_t> keys;
  for (uint64_t seed = 1; failing.size() < 65 && seed <= 20000; ++seed) {
    ClientRun run = client.RunOnce(seed);
    if (!run.result.failure.IsFailure() || !run.trace.has_value() ||
        (!failing.empty() &&
         run.trace->failure.failing_inst != failing[0].failure.failing_inst) ||
        !keys.insert(trace::TraceKey(*run.trace, {})).second) {
      continue;
    }
    failing.push_back(std::move(*run.trace));
  }
  ASSERT_EQ(failing.size(), 65u);

  DiagnosisServer server(workload.module.get());
  for (const pt::PtTraceBundle& bundle : failing) {
    ASSERT_TRUE(server.SubmitFailingTrace(bundle).ok());
  }
  EXPECT_EQ(server.pass_stats(engine::PassId::kTraceProcess).runs, 65u);
  EXPECT_EQ(server.pass_stats(engine::PassId::kTraceProcess).cache_hits, 0u);
  ASSERT_TRUE(server.SubmitFailingTrace(failing[0]).ok());
  EXPECT_EQ(server.pass_stats(engine::PassId::kTraceProcess).runs, 65u);
  EXPECT_EQ(server.pass_stats(engine::PassId::kTraceProcess).cache_hits, 1u);
  EXPECT_EQ(server.Diagnose().failing_traces, 66u);
}

TEST(DiagnosisServer, ExplainReadsEveryPassThatRanAsResident) {
  // The --explain "artifact" column: each pass that ran and stored an
  // artifact reads resident; rows with no artifact key (trace processing,
  // scoring) read absent, and the CLI prints "-" for them.
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer server(cap.workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(cap.bundle).ok());
  (void)server.Diagnose();
  std::vector<engine::PassId> resident;
  for (const engine::PassTrace& t : server.explain()) {
    const engine::ResidencyState state = server.artifact_state(t.id, t.artifact_key);
    if (t.artifact_key == 0) {
      EXPECT_EQ(state, engine::ResidencyState::kAbsent) << engine::PassName(t.id);
      continue;
    }
    EXPECT_TRUE(t.ran) << engine::PassName(t.id);
    EXPECT_EQ(state, engine::ResidencyState::kResident) << engine::PassName(t.id);
    resident.push_back(t.id);
  }
  EXPECT_EQ(resident, (std::vector<engine::PassId>{engine::PassId::kDerefChains,
                                                   engine::PassId::kPointsTo,
                                                   engine::PassId::kTypeRank,
                                                   engine::PassId::kPatterns}));
}

TEST(DiagnosisServer, SuccessTraceProcessingCountsTowardAnalysisTime) {
  // Steps 2-3 run for a success bundle too, so the analysis time a report
  // charges must grow by at least that bundle's trace processing.
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"}, 1);
  ASSERT_EQ(sites.size(), 1u);
  ASSERT_EQ(sites[0].successes.size(), 1u);
  DiagnosisServer server(sites[0].workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(sites[0].failing).ok());
  const double before = server.Diagnose().stages.AnalysisSeconds();
  const double traced = server.pass_stats(engine::PassId::kTraceProcess).seconds;

  ASSERT_TRUE(server.SubmitSuccessTrace(sites[0].successes[0]).ok());
  const engine::PassStats trace_process = server.pass_stats(engine::PassId::kTraceProcess);
  EXPECT_EQ(trace_process.runs, 2u);
  const double success_seconds = trace_process.seconds - traced;
  ASSERT_GT(success_seconds, 0.0);
  const DiagnosisReport after = server.Diagnose();
  EXPECT_GE(after.stages.AnalysisSeconds() - before, success_seconds);
}

TEST(DiagnosisServer, AnalysisCacheMissesOnDifferentExecutedSet) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  ASSERT_GE(cap.bundle.threads.size(), 2u);
  // Drop a non-failing thread's buffer: same failing PC, but the recovered
  // executed set differs, so the cache key must differ too.
  pt::PtTraceBundle reduced = cap.bundle;
  for (size_t i = 0; i < reduced.threads.size(); ++i) {
    if (reduced.threads[i].thread != reduced.failure.thread) {
      reduced.threads.erase(reduced.threads.begin() +
                            static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ASSERT_EQ(reduced.threads.size(), cap.bundle.threads.size() - 1);

  DiagnosisServer server(cap.workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(cap.bundle).ok());
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 1u);
  ASSERT_TRUE(server.SubmitFailingTrace(reduced).ok());
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 2u);
}

TEST(DiagnosisServer, AblationScopeRestrictionOff) {
  // Whole-program points-to must reach the same diagnosis (slower, same
  // accuracy) -- the paper's claim that scope restriction costs no accuracy.
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer::Options options;
  options.use_scope_restriction = false;
  DiagnosisServer server(cap.workload.module.get(), options);
  server.SubmitFailingTrace(cap.bundle);
  const DiagnosisReport report = server.Diagnose();
  ASSERT_FALSE(report.patterns.empty());
  EXPECT_GT(server.points_to()->stats().instructions_analyzed,
            report.stages.executed_instructions);
}

TEST(DiagnosisServer, AblationTypeRankingOff) {
  Captured cap = CaptureFailingTrace("pbzip2_main");
  DiagnosisServer::Options options;
  options.use_type_ranking = false;
  DiagnosisServer server(cap.workload.module.get(), options);
  server.SubmitFailingTrace(cap.bundle);
  const DiagnosisReport report = server.Diagnose();
  // Without ranking every candidate lands in the first band.
  EXPECT_EQ(report.stages.rank1_candidates, report.stages.candidate_instructions);
  EXPECT_FALSE(report.patterns.empty());
}

TEST(DiagnosisClient, TracingCanBeDisabled) {
  workloads::Workload w = workloads::Build("pbzip2_main");
  ClientOptions copts;
  copts.interp = w.interp;
  copts.tracing_enabled = false;
  DiagnosisClient client(w.module.get(), copts);
  const ClientRun run = client.RunOnce(1);
  EXPECT_FALSE(run.trace.has_value());
  EXPECT_EQ(run.pt_stats.total_bytes, 0u);
}

TEST(Snorlax, EndToEndOutcomeBookkeeping) {
  workloads::Workload w = workloads::Build("pbzip2_main");
  SnorlaxOptions opts;
  opts.client.interp = w.interp;
  Snorlax snorlax(w.module.get(), opts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_GE(outcome->runs_until_failure, 1u);
  EXPECT_EQ(outcome->failing_runs_used, 1u);
  EXPECT_EQ(outcome->success_runs_used, 10u);
  EXPECT_GE(outcome->total_runs, outcome->runs_until_failure + 10);
  EXPECT_EQ(outcome->report.failing_traces, 1u);
  EXPECT_EQ(outcome->report.success_traces, 10u);
  // The failing run produced a meaningfully sized PT trace.
  EXPECT_GT(outcome->failing_run_pt_stats.branch_events, 1000u);
  EXPECT_GT(outcome->failing_run_pt_stats.timing_packets, 100u);
}

TEST(Snorlax, NoFailureWithinBudgetReturnsNullopt) {
  workloads::Workload w = workloads::Build("pbzip2_main");
  SnorlaxOptions opts;
  opts.client.interp = w.interp;
  opts.max_runs = 1;  // seed 1 succeeds for this workload
  Snorlax snorlax(w.module.get(), opts);
  EXPECT_FALSE(snorlax.DiagnoseFirstFailure(1).has_value());
}

// A bug the plain operand walk cannot reach: the victim caches the shared
// pointer in a private cell early, the killer nulls the shared slot, and the
// victim crashes much later dereferencing a *re-read through its private
// cell*. The corrupt value flowed through memory, so the RETracer-style
// register walk dead-ends at the private cell -- only the backward-slice
// fallback (paper section 7 future work) finds the racing store.
std::unique_ptr<ir::Module> BuildStaleCopyProgram(ir::InstId* racing_store) {
  auto m = std::make_unique<ir::Module>();
  ir::IrBuilder b(m.get());
  const ir::Type* i64 = m->types().IntType(64);
  const ir::Type* obj_ty = m->types().StructType("Resource", {i64, i64});
  const ir::Type* obj_ptr = m->types().PointerTo(obj_ty);
  const ir::GlobalId g_slot = b.CreateGlobal("resource_slot", obj_ptr);

  const ir::FuncId victim = b.BeginFunction("victim", m->types().VoidType(), {i64});
  {
    b.SetInsertPoint(b.CreateBlock("entry"));
    const ir::Reg slot = b.AddrOfGlobal(g_slot);
    const ir::Reg cache = b.Alloca(obj_ptr);  // private cache cell
    // Branchy warmup, then cache the shared pointer privately.
    const ir::Reg warm = b.Alloca(i64);
    b.Store(ir::Operand::MakeImm(0), warm, i64);
    const ir::BlockId wh = b.CreateBlock("warm");
    const ir::BlockId wx = b.CreateBlock("warm_done");
    b.Br(wh);
    b.SetInsertPoint(wh);
    b.Work(4'000);
    const ir::Reg wv = b.Load(warm, i64);
    const ir::Reg wv2 = b.Add(wv, 1, i64);
    b.Store(wv2, warm, i64);
    const ir::Reg more = b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(wv2),
                               ir::Operand::MakeImm(20));
    b.CondBr(more, wh, wx);
    b.SetInsertPoint(wx);
    const ir::Reg fresh = b.Load(slot, obj_ptr);
    b.Store(fresh, cache, obj_ptr);
    // Long second phase, then use the STALE private copy... re-read through
    // the private cell, whose content the killer indirectly corrupted via a
    // republish of null through a helper the walk cannot follow.
    const ir::Reg busy = b.Alloca(i64);
    b.Store(ir::Operand::MakeImm(0), busy, i64);
    const ir::BlockId bh = b.CreateBlock("busy");
    const ir::BlockId bx = b.CreateBlock("busy_done");
    b.Br(bh);
    b.SetInsertPoint(bh);
    b.Work(6'000);
    const ir::Reg bv = b.Load(busy, i64);
    const ir::Reg bv2 = b.Add(bv, 1, i64);
    b.Store(bv2, busy, i64);
    // Refresh the private cache from the shared slot each round (so the
    // null lands in the private cell through memory, not a register).
    const ir::Reg refreshed = b.Load(slot, obj_ptr);
    b.Store(refreshed, cache, obj_ptr);
    const ir::Reg bmore = b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(bv2),
                                ir::Operand::MakeImm(120));
    b.CondBr(bmore, bh, bx);
    b.SetInsertPoint(bx);
    const ir::Reg stale = b.Load(cache, obj_ptr);
    const ir::Reg field = b.Gep(stale, obj_ty, 0);
    b.Load(field, i64);  // crash: the cached copy is null
    b.RetVoid();
    b.EndFunction();
  }

  b.BeginFunction("main", m->types().VoidType(), {});
  {
    b.SetInsertPoint(b.CreateBlock("entry"));
    const ir::Reg slot = b.AddrOfGlobal(g_slot);
    const ir::Reg obj = b.Alloca(obj_ty);
    b.Store(obj, slot, obj_ptr);
    const ir::Reg t = b.ThreadCreate(victim, ir::Operand::MakeImm(0));
    const ir::Reg spin = b.Alloca(i64);
    b.Store(ir::Operand::MakeImm(0), spin, i64);
    const ir::BlockId sh = b.CreateBlock("serve");
    const ir::BlockId sx = b.CreateBlock("serve_done");
    b.Br(sh);
    b.SetInsertPoint(sh);
    b.Work(5'500);
    const ir::Reg sv = b.Load(spin, i64);
    const ir::Reg sv2 = b.Add(sv, 1, i64);
    b.Store(sv2, spin, i64);
    const ir::Reg smore = b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(sv2),
                                ir::Operand::MakeImm(80));
    b.CondBr(smore, sh, sx);
    b.SetInsertPoint(sx);
    b.Store(ir::Operand::MakeImm(0), slot, obj_ptr);  // the racing null store
    *racing_store = b.last_inst();
    b.ThreadJoin(t);
    b.RetVoid();
    b.EndFunction();
  }
  return m;
}

TEST(DiagnosisServer, SliceFallbackRecoversStaleCopyBug) {
  ir::InstId racing_store = ir::kInvalidInstId;
  auto m = BuildStaleCopyProgram(&racing_store);

  // Reproduce the crash.
  ClientOptions copts;
  copts.interp.work_jitter = 0.04;
  DiagnosisClient client(m.get(), copts);
  std::optional<pt::PtTraceBundle> bundle;
  for (uint64_t seed = 1; seed <= 500 && !bundle.has_value(); ++seed) {
    ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure()) {
      ASSERT_EQ(run.result.failure.kind, rt::FailureKind::kCrash);
      bundle = run.trace;
    }
  }
  ASSERT_TRUE(bundle.has_value()) << "stale-copy crash did not reproduce";

  // Without the fallback the operand walk dead-ends at the private cell and
  // no remote candidate exists: no pattern.
  DiagnosisServer::Options off;
  off.use_slice_fallback = false;
  DiagnosisServer plain(m.get(), off);
  plain.SubmitFailingTrace(*bundle);
  EXPECT_TRUE(plain.Diagnose().patterns.empty());
  EXPECT_FALSE(plain.used_slice_fallback());

  // With the fallback, the backward slice reaches the shared slot and the
  // racing store becomes a candidate.
  DiagnosisServer server(m.get());
  server.SubmitFailingTrace(*bundle);
  EXPECT_TRUE(server.used_slice_fallback());
  const DiagnosisReport report = server.Diagnose();
  ASSERT_FALSE(report.patterns.empty());
  bool racing_store_in_top = false;
  const double best = report.patterns[0].f1;
  for (const DiagnosedPattern& p : report.patterns) {
    if (p.f1 != best) {
      break;
    }
    for (const PatternEvent& e : p.pattern.events) {
      racing_store_in_top |= e.inst == racing_store;
    }
  }
  EXPECT_TRUE(racing_store_in_top);
}

TEST(Snorlax, TimingPacketsDriveAtomicityOrdering) {
  // Ablation of the coarse timestamps: with timing packets disabled the
  // atomicity triple of mysql_169 cannot be ordered; with them it can.
  workloads::Workload w = workloads::Build("mysql_169");
  SnorlaxOptions with_timing;
  with_timing.client.interp = w.interp;
  Snorlax s1(w.module.get(), with_timing);
  const auto good = s1.DiagnoseFirstFailure(1);
  ASSERT_TRUE(good.has_value());
  bool found_rwr = false;
  const double best = good->report.patterns.empty() ? 0 : good->report.patterns[0].f1;
  for (const auto& p : good->report.patterns) {
    if (p.f1 == best && p.pattern.kind == PatternKind::kAtomicityRWR) {
      found_rwr = true;
    }
  }
  EXPECT_TRUE(found_rwr);

  workloads::Workload w2 = workloads::Build("mysql_169");
  SnorlaxOptions no_timing;
  no_timing.client.interp = w2.interp;
  no_timing.client.pt.enable_timing = false;
  Snorlax s2(w2.module.get(), no_timing);
  const auto degraded = s2.DiagnoseFirstFailure(1);
  ASSERT_TRUE(degraded.has_value());
  bool rwr_on_top = false;
  const double best2 = degraded->report.patterns.empty() ? 0 : degraded->report.patterns[0].f1;
  for (const auto& p : degraded->report.patterns) {
    if (p.f1 == best2 && p.pattern.kind == PatternKind::kAtomicityRWR && p.pattern.ordered) {
      rwr_on_top = true;
    }
  }
  // Without timestamps the ordered RWR triple is not derivable.
  EXPECT_FALSE(rwr_on_top);
}

}  // namespace
}  // namespace snorlax::core
