// Property tests over the randomized workload generator: every generated
// program must be structurally valid, reproduce its injected bug, and be
// diagnosed end-to-end with a top-F1 pattern of the injected class covering
// the ground-truth events -- diagnosis generalizes beyond the hand-modeled
// catalogue.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/snorlax.h"
#include "ir/text_format.h"
#include "ir/verifier.h"
#include "workloads/generator.h"

namespace snorlax::workloads {
namespace {

struct Case {
  GeneratedBug bug;
  uint64_t seed;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    cases.push_back({GeneratedBug::kInvalidationRace, seed});
    cases.push_back({GeneratedBug::kCheckThenUse, seed});
    cases.push_back({GeneratedBug::kStoreThroughStale, seed});
    cases.push_back({GeneratedBug::kLockInversion, seed});
  }
  return cases;
}

// Three of the swept classes keep test ids that predate GeneratedBugName's
// spelling; every other class is named by GeneratedBugName ('-' is not
// allowed in a gtest id).
std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string bug;
  switch (info.param.bug) {
    case GeneratedBug::kCheckThenUse:
      bug = "check_then_use";
      break;
    case GeneratedBug::kStoreThroughStale:
      bug = "store_stale";
      break;
    case GeneratedBug::kLockInversion:
      bug = "lock_inversion";
      break;
    default:
      bug = GeneratedBugName(info.param.bug);
      std::replace(bug.begin(), bug.end(), '-', '_');
      break;
  }
  return bug + "_seed" + std::to_string(info.param.seed);
}

class GeneratedSuite : public ::testing::TestWithParam<Case> {};

TEST_P(GeneratedSuite, ValidAndReproducible) {
  GeneratorOptions options;
  options.seed = GetParam().seed;
  options.bug = GetParam().bug;
  options.helper_depth = 1 + static_cast<int>(GetParam().seed % 3);
  const Workload w = GenerateWorkload(options);

  const auto problems = ir::VerifyModule(*w.module);
  ASSERT_TRUE(problems.empty()) << problems[0];
  EXPECT_EQ(w.bug_kind, ExpectedKind(options.bug));

  int failures = 0;
  for (uint64_t run_seed = 1; run_seed <= 400 && failures < 2; ++run_seed) {
    rt::InterpOptions io = w.interp;
    io.seed = run_seed;
    rt::Interpreter interp(w.module.get(), io);
    const rt::RunResult r = interp.Run(w.entry);
    if (r.failure.IsFailure()) {
      EXPECT_EQ(r.failure.kind, w.expected_failure) << r.failure.description;
      ++failures;
    }
  }
  EXPECT_GE(failures, 1) << "generated bug did not reproduce";
}

TEST_P(GeneratedSuite, DiagnosesInjectedRootCause) {
  GeneratorOptions options;
  options.seed = GetParam().seed;
  options.bug = GetParam().bug;
  options.helper_depth = 1 + static_cast<int>(GetParam().seed % 3);
  const Workload w = GenerateWorkload(options);

  core::SnorlaxOptions sopts;
  sopts.client.interp = w.interp;
  sopts.failing_traces = w.recommended_failing_traces;
  core::Snorlax snorlax(w.module.get(), sopts);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  ASSERT_TRUE(outcome.has_value()) << "no failure within budget";
  ASSERT_FALSE(outcome->report.patterns.empty());

  const double best = outcome->report.patterns[0].f1;
  bool kind_ok = false;
  bool truth_covered = false;
  const std::set<ir::InstId> truth(w.truth_events.begin(), w.truth_events.end());
  for (const core::DiagnosedPattern& p : outcome->report.patterns) {
    if (p.f1 != best) {
      break;
    }
    const bool this_kind = p.pattern.kind == w.bug_kind;
    kind_ok |= this_kind;
    if (this_kind) {
      size_t covered = 0;
      for (ir::InstId t : truth) {
        for (const core::PatternEvent& e : p.pattern.events) {
          if (e.inst == t) {
            ++covered;
            break;
          }
        }
      }
      truth_covered |= covered == truth.size();
    }
  }
  EXPECT_TRUE(kind_ok) << "no top-F1 pattern of the injected class";
  EXPECT_TRUE(truth_covered) << "top pattern does not cover the injected events";
  EXPECT_GE(best, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeneratedSuite, ::testing::ValuesIn(Cases()), CaseName);

// Equal options must produce byte-identical printed modules and identical
// ground truth no matter what was generated earlier in the process: all
// generator state lives in the per-call RNG, never in globals or statics.
// (This regressed once: block-label tags came from process-global counters,
// so a second generation printed different labels.) Generating another
// workload in between is exactly what would re-advance such hidden state.
TEST(GeneratorDeterminism, EqualOptionsPrintIdentically) {
  const std::vector<GeneratedBug> bugs = {
      GeneratedBug::kInvalidationRace, GeneratedBug::kCheckThenUse,
      GeneratedBug::kStoreThroughStale, GeneratedBug::kLockInversion,
      GeneratedBug::kOltpRace,          GeneratedBug::kOltpAtomicity,
      GeneratedBug::kOltpOrder,         GeneratedBug::kOltpAbba,
  };
  for (GeneratedBug bug : bugs) {
    GeneratorOptions options;
    options.seed = 17;
    options.bug = bug;
    options.helper_depth = 2;
    const Workload first = GenerateWorkload(options);
    // Interleave an unrelated generation between the two equal ones.
    GeneratorOptions other = options;
    other.seed = 23;
    (void)GenerateWorkload(other);
    const Workload second = GenerateWorkload(options);
    EXPECT_EQ(ir::WriteModuleText(*first.module), ir::WriteModuleText(*second.module))
        << "hidden global state for " << GeneratedBugName(bug);
    EXPECT_EQ(first.truth_events, second.truth_events) << GeneratedBugName(bug);
    EXPECT_EQ(first.timing_targets, second.timing_targets) << GeneratedBugName(bug);
  }
}

}  // namespace
}  // namespace snorlax::workloads
