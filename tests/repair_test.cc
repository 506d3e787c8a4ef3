// Tests for the kRepair pass and its validation loop: patch construction from
// diagnosed patterns, patched-module well-formedness, caller-region variants
// for collapsed spans, the adaptive baseline sweep, and the end-to-end
// property the paper's loop closes on -- a diagnosed bug yields a patch the
// interpreter proves out.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/server.h"
#include "core/snorlax.h"
#include "engine/repair.h"
#include "ir/patch.h"
#include "ir/verifier.h"
#include "runtime/validate.h"
#include "workloads/generator.h"
#include "workloads/workload.h"

namespace snorlax {
namespace {

struct Diagnosed {
  core::DiagnosisReport report;
  bool ok = false;
};

Diagnosed Diagnose(const workloads::Workload& w) {
  Diagnosed d;
  core::SnorlaxOptions opts;
  opts.client.interp = w.interp;
  opts.failing_traces = w.recommended_failing_traces;
  core::Snorlax snorlax(w.module.get(), opts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  if (outcome.has_value() && !outcome->report.patterns.empty()) {
    d.report = outcome->report;
    d.ok = true;
  }
  return d;
}

// Scored patterns in engine form (the pass consumes engine::DiagnosedPattern,
// the server report re-exposes the same struct).
std::vector<engine::DiagnosedPattern> Scored(const core::DiagnosisReport& r) {
  return r.patterns;
}

TEST(RepairPatch, AtomicityPatternBuildsVerifiableLockWrap) {
  const workloads::Workload w = workloads::Build("mysql_169");
  const Diagnosed d = Diagnose(w);
  ASSERT_TRUE(d.ok);

  const auto patch =
      engine::BuildPatchForPattern(*w.module, d.report.patterns[0].pattern);
  ASSERT_TRUE(patch.ok()) << patch.status().message();
  EXPECT_FALSE(patch.value().empty());
  // A lock wrap introduces exactly one fresh lock and balanced edits.
  ASSERT_EQ(patch.value().globals.size(), 1u);
  EXPECT_EQ(patch.value().globals[0].kind, ir::PatchGlobal::Kind::kLock);
  size_t acquires = 0;
  size_t releases = 0;
  for (const ir::PatchEdit& e : patch.value().edits) {
    acquires += e.kind == ir::PatchEdit::Kind::kAcquireBefore;
    releases += e.kind == ir::PatchEdit::Kind::kReleaseAfter;
  }
  EXPECT_EQ(acquires, releases);
  EXPECT_GT(acquires, 0u);

  // The patched clone is a well-formed module; the original is untouched.
  const size_t before = w.module->NumInstructions();
  auto patched = ir::ApplyPatch(*w.module, patch.value());
  ASSERT_TRUE(patched.ok()) << patched.status().message();
  EXPECT_TRUE(ir::VerifyModule(*patched.value()).empty());
  EXPECT_GT(patched.value()->NumInstructions(), before);
  EXPECT_EQ(w.module->NumInstructions(), before);
}

TEST(RepairPatch, OutOfRangeAnchorRejectedCleanly) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  ir::Patch patch;
  patch.globals.push_back({ir::PatchGlobal::Kind::kLock, "snorlax_fix_lock0"});
  patch.edits.push_back({ir::PatchEdit::Kind::kAcquireBefore,
                         static_cast<ir::InstId>(w.module->NumInstructions() + 7),
                         0, 0});
  const auto patched = ir::ApplyPatch(*w.module, patch);
  EXPECT_FALSE(patched.ok());
}

TEST(RepairPatch, CollapsedSpanEmitsCallerRegionVariants) {
  // oltp-atomicity plants check and use as two calls to one shared fetch
  // helper: both events collapse onto the same static load, a wrap of which
  // fixes nothing. BuildPatchVariants must add caller-region variants that
  // wrap the call sites in the victim instead.
  workloads::GeneratorOptions options;
  options.bug = workloads::GeneratedBug::kOltpAtomicity;
  options.seed = 5001;
  options.helper_depth = 2;
  const workloads::Workload w = workloads::GenerateWorkload(options);
  const Diagnosed d = Diagnose(w);
  ASSERT_TRUE(d.ok);

  engine::RepairOptions ropts;  // defaults: whole tie tier
  const std::vector<size_t> confirmed =
      engine::ConfirmedPatternIndices(Scored(d.report), ropts);
  ASSERT_FALSE(confirmed.empty());
  bool any_variants = false;
  for (const size_t idx : confirmed) {
    const auto variants = engine::BuildPatchVariants(
        *w.module, d.report.patterns[idx].pattern);
    if (!variants.ok()) {
      continue;
    }
    any_variants |= variants.value().size() > 1;
    for (const ir::Patch& p : variants.value()) {
      auto patched = ir::ApplyPatch(*w.module, p);
      ASSERT_TRUE(patched.ok()) << patched.status().message();
      EXPECT_TRUE(ir::VerifyModule(*patched.value()).empty());
    }
  }
  EXPECT_TRUE(any_variants)
      << "no confirmed pattern produced a caller-region variant";
}

TEST(RepairValidate, AdaptiveBaselineGrowsUntilFailuresReproduce) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  const Diagnosed d = Diagnose(w);
  ASSERT_TRUE(d.ok);
  const auto patch =
      engine::BuildPatchForPattern(*w.module, d.report.patterns[0].pattern);
  ASSERT_TRUE(patch.ok()) << patch.status().message();

  rt::RepairTrialOptions trial;
  trial.entry = w.entry;
  trial.interp = w.interp;
  trial.seeds_per_band = 1;  // force the sweep to grow beyond the first chunk
  trial.min_baseline_failures = 3;
  trial.max_seeds_per_band = 512;
  const rt::RepairVerdict verdict =
      rt::ValidateRepair(*w.module, patch.value(), d.report.failure.kind, trial);
  EXPECT_TRUE(verdict.baseline_reproduced) << verdict.detail;
  // The bug is intermittent, so three baseline failures cannot fit in the
  // initial one-seed chunk: the adaptive sweep must have grown the range.
  EXPECT_GE(verdict.baseline_failures, 3u);
  EXPECT_GT(verdict.runs_per_module, 1u);
}

TEST(RepairValidate, TinyBaselineCapReportsUnreproduced) {
  const workloads::Workload w = workloads::Build("pbzip2_main");
  const Diagnosed d = Diagnose(w);
  ASSERT_TRUE(d.ok);
  const auto patch =
      engine::BuildPatchForPattern(*w.module, d.report.patterns[0].pattern);
  ASSERT_TRUE(patch.ok());

  // Demand more failures than the cap allows runs: the verdict must refuse to
  // validate (a trial that never saw the bug proves nothing), not pass.
  rt::RepairTrialOptions trial;
  trial.entry = w.entry;
  trial.interp = w.interp;
  trial.seeds_per_band = 1;
  trial.min_baseline_failures = 1000;
  trial.max_seeds_per_band = 4;
  const rt::RepairVerdict verdict =
      rt::ValidateRepair(*w.module, patch.value(), d.report.failure.kind, trial);
  EXPECT_FALSE(verdict.validated);
  EXPECT_LE(verdict.runs_per_module, 4u);
}

TEST(RepairPlan, BestPrefersValidatedOverBuilt) {
  engine::RepairPlan plan;
  engine::RepairCandidate built;
  built.status = engine::RepairStatus::kBuilt;
  built.f1 = 0.9;
  engine::RepairCandidate validated;
  validated.status = engine::RepairStatus::kValidated;
  validated.f1 = 0.5;
  plan.candidates = {built, validated};
  ASSERT_NE(plan.best(), nullptr);
  EXPECT_EQ(plan.best()->status, engine::RepairStatus::kValidated);
  EXPECT_EQ(plan.ValidatedCount(), 1u);
  EXPECT_TRUE(plan.HasValidatedFix());

  plan.candidates = {built};
  ASSERT_NE(plan.best(), nullptr);
  EXPECT_EQ(plan.best()->status, engine::RepairStatus::kBuilt);
  EXPECT_FALSE(plan.HasValidatedFix());

  plan.candidates.clear();
  EXPECT_EQ(plan.best(), nullptr);
}

TEST(RepairPlan, OneBaselineSweepGivesEveryCandidateItsOneShotVerdict) {
  // BuildRepairPlan sweeps the unpatched module once per plan; each
  // candidate's fields must equal what the one-shot ValidateRepair, which
  // sweeps its own baseline, reports for that patch.
  const workloads::Workload w = workloads::Build("mysql_169");
  const Diagnosed d = Diagnose(w);
  ASSERT_TRUE(d.ok);
  engine::RepairOptions options;
  options.entry = w.entry;
  options.interp = w.interp;
  options.seeds_per_band = 4;
  options.max_seeds_per_band = 64;
  options.stop_on_validated = false;
  const engine::RepairPlan plan =
      engine::BuildRepairPlan(*w.module, Scored(d.report), d.report.failure.kind, options);

  rt::RepairTrialOptions trial;
  trial.entry = options.entry;
  trial.interp = options.interp;
  trial.seeds_per_band = options.seeds_per_band;
  trial.first_seed = options.first_seed;
  trial.min_baseline_failures = options.min_baseline_failures;
  trial.max_seeds_per_band = options.max_seeds_per_band;
  trial.max_overhead_ratio = options.max_overhead_ratio;
  size_t validated_or_rejected = 0;
  for (const engine::RepairCandidate& c : plan.candidates) {
    if (c.status != engine::RepairStatus::kValidated &&
        c.status != engine::RepairStatus::kRejected) {
      continue;
    }
    ++validated_or_rejected;
    const rt::RepairVerdict want =
        rt::ValidateRepair(*w.module, c.patch, d.report.failure.kind, trial);
    EXPECT_EQ(c.status, want.validated ? engine::RepairStatus::kValidated
                                       : engine::RepairStatus::kRejected);
    EXPECT_EQ(c.runs_per_module, want.runs_per_module);
    EXPECT_EQ(c.baseline_failures, want.baseline_failures);
    EXPECT_EQ(c.recurrences, want.recurrences);
    EXPECT_EQ(c.new_failures, want.new_failures);
    EXPECT_EQ(c.overhead_ratio, want.overhead_ratio);
    EXPECT_EQ(c.note, want.detail);
  }
  // More than one validation, or the shared baseline was never reused.
  EXPECT_GE(validated_or_rejected, 2u);
}

TEST(RepairEndToEnd, CatalogueDeadlockGetsValidatedGateFix) {
  const workloads::Workload w = workloads::Build("sqlite_1672");
  core::SnorlaxOptions opts;
  opts.client.interp = w.interp;
  opts.failing_traces = w.recommended_failing_traces;
  opts.server.repair.enabled = true;
  opts.server.repair.entry = w.entry;
  opts.server.repair.interp = w.interp;
  core::Snorlax snorlax(w.module.get(), opts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_NE(outcome->report.repair, nullptr);
  EXPECT_TRUE(outcome->report.repair->HasValidatedFix());
  const engine::RepairCandidate* best = outcome->report.repair->best();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->status, engine::RepairStatus::kValidated);
  EXPECT_EQ(best->recurrences, 0u);
  EXPECT_EQ(best->new_failures, 0u);
}

TEST(RepairEndToEnd, GeneratedOltpAtomicityGetsValidatedFix) {
  // The hardest generated class: the shared-helper collapse means only a
  // caller-region variant can win. End-to-end, the plan must still close.
  workloads::GeneratorOptions options;
  options.bug = workloads::GeneratedBug::kOltpAtomicity;
  options.seed = 5001;
  options.helper_depth = 2;
  const workloads::Workload w = workloads::GenerateWorkload(options);
  core::SnorlaxOptions opts;
  opts.client.interp = w.interp;
  opts.failing_traces = w.recommended_failing_traces;
  opts.server.repair.enabled = true;
  opts.server.repair.entry = w.entry;
  opts.server.repair.interp = w.interp;
  core::Snorlax snorlax(w.module.get(), opts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_NE(outcome->report.repair, nullptr);
  EXPECT_TRUE(outcome->report.repair->HasValidatedFix());
}

}  // namespace
}  // namespace snorlax
