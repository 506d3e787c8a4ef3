#include "runtime/validate.h"

#include <algorithm>

#include "support/str.h"

namespace snorlax::rt {

namespace {

struct SweepStats {
  uint32_t runs = 0;
  uint32_t target_failures = 0;
  uint32_t other_failures = 0;
  uint64_t success_virtual_ns = 0;
  uint32_t successes = 0;
};

// Runs seeds [from, from + count) of one jitter band, accumulating into
// `stats`.
void SweepBand(const ir::Module& module, FailureKind target,
               const RepairTrialOptions& options, double band, uint64_t from,
               uint64_t count, SweepStats* stats) {
  for (uint64_t s = from; s < from + count; ++s) {
    InterpOptions interp = options.interp;
    interp.seed = options.first_seed + s;
    interp.work_jitter = band;
    Interpreter interp_run(&module, interp);
    const RunResult result = interp_run.Run(options.entry);
    ++stats->runs;
    if (result.Succeeded()) {
      ++stats->successes;
      stats->success_virtual_ns += result.virtual_ns;
    } else if (result.failure.kind == target) {
      ++stats->target_failures;
    } else {
      ++stats->other_failures;
    }
  }
}

// Sweeps `seeds[i]` seeds of band i.
SweepStats Sweep(const ir::Module& module, FailureKind target,
                 const RepairTrialOptions& options, const std::vector<double>& bands,
                 const std::vector<uint64_t>& seeds) {
  SweepStats stats;
  for (size_t i = 0; i < bands.size(); ++i) {
    SweepBand(module, target, options, bands[i], 0, seeds[i], &stats);
  }
  return stats;
}

}  // namespace

// The adaptive baseline sweep: grows every band's seed range in
// seeds_per_band chunks until the target failure reproduced
// min_baseline_failures times or each band hit max_seeds_per_band. The
// per-band counts it ends with are what the patched sweep must replay.
RepairBaseline SweepRepairBaseline(const ir::Module& module, FailureKind target,
                                   const RepairTrialOptions& options) {
  RepairBaseline baseline;
  baseline.bands = options.jitter_bands;
  if (baseline.bands.empty()) {
    baseline.bands.push_back(options.interp.work_jitter);
  }
  const uint64_t chunk = std::max<uint64_t>(options.seeds_per_band, 1);
  const uint64_t cap = std::max(options.max_seeds_per_band, chunk);
  baseline.seeds.assign(baseline.bands.size(), 0);
  SweepStats stats;
  bool grew = true;
  while (stats.target_failures < options.min_baseline_failures && grew) {
    grew = false;
    for (size_t i = 0; i < baseline.bands.size(); ++i) {
      if (baseline.seeds[i] >= cap) {
        continue;
      }
      const uint64_t add = std::min(chunk, cap - baseline.seeds[i]);
      SweepBand(module, target, options, baseline.bands[i], baseline.seeds[i], add, &stats);
      baseline.seeds[i] += add;
      grew = true;
      if (stats.target_failures >= options.min_baseline_failures) {
        break;
      }
    }
  }
  baseline.runs = stats.runs;
  baseline.target_failures = stats.target_failures;
  baseline.other_failures = stats.other_failures;
  baseline.success_virtual_ns = stats.success_virtual_ns;
  baseline.successes = stats.successes;
  return baseline;
}

RepairVerdict ValidateRepair(const ir::Module& module, const ir::Patch& patch,
                             FailureKind target, const RepairTrialOptions& options) {
  auto patched = ir::ApplyPatch(module, patch);
  if (!patched.ok()) {
    // The baseline would go unused.
    return ValidateRepair(module, patch, target, options, RepairBaseline{});
  }
  return ValidateRepair(module, patch, target, options,
                        SweepRepairBaseline(module, target, options));
}

RepairVerdict ValidateRepair(const ir::Module& module, const ir::Patch& patch,
                             FailureKind target, const RepairTrialOptions& options,
                             const RepairBaseline& baseline) {
  RepairVerdict verdict;
  auto patched = ir::ApplyPatch(module, patch);
  if (!patched.ok()) {
    verdict.detail = StrFormat("patch failed to apply: %s",
                                        patched.status().message().c_str());
    return verdict;
  }

  verdict.runs_per_module = baseline.runs;
  verdict.baseline_failures = baseline.target_failures + baseline.other_failures;
  verdict.baseline_reproduced = baseline.target_failures > 0;
  if (!verdict.baseline_reproduced) {
    verdict.detail = StrFormat(
        "baseline did not reproduce the failure in %u trial runs", baseline.runs);
    return verdict;
  }

  const SweepStats fixed =
      Sweep(*patched.value(), target, options, baseline.bands, baseline.seeds);
  verdict.recurrences = fixed.target_failures;
  verdict.new_failures = fixed.other_failures;
  if (baseline.successes > 0 && fixed.successes > 0) {
    const double base_mean =
        static_cast<double>(baseline.success_virtual_ns) / baseline.successes;
    const double fixed_mean =
        static_cast<double>(fixed.success_virtual_ns) / fixed.successes;
    verdict.overhead_ratio = base_mean > 0 ? fixed_mean / base_mean : 1.0;
  } else if (fixed.successes == 0) {
    // A patch under which nothing ever succeeds is useless even if it also
    // never "fails" (e.g. everything times out); treat as unbounded.
    verdict.overhead_ratio = options.max_overhead_ratio + 1.0;
  }
  verdict.overhead_bounded = verdict.overhead_ratio <= options.max_overhead_ratio;

  verdict.validated = verdict.recurrences == 0 && verdict.new_failures == 0 &&
                      verdict.overhead_bounded;
  if (!verdict.validated) {
    verdict.detail = StrFormat(
        "recurrences=%u new_failures=%u overhead=%.2fx", verdict.recurrences,
        verdict.new_failures, verdict.overhead_ratio);
  }
  return verdict;
}

}  // namespace snorlax::rt
