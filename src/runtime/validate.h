// Repair validation: does a proposed patch actually fix the bug?
//
// The check the paper's lazy-diagnosis loop makes possible: because the
// diagnosed program is a MiniIR module and failures reproduce under the
// deterministic interpreter, a candidate fix can be *executed*, not just
// inspected. ValidateRepair() re-runs the failing scenario on the original
// and the patched module across timing bands and seeds, and accepts the
// patch only if (a) the baseline still reproduces the failure (otherwise the
// trial proves nothing), (b) the patched program never fails, in the
// original mode or any new one (no fix-induced deadlock), and (c) virtual
// run time stays within a bounded overhead of the baseline.
#ifndef SNORLAX_RUNTIME_VALIDATE_H_
#define SNORLAX_RUNTIME_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/patch.h"
#include "runtime/interpreter.h"

namespace snorlax::rt {

struct RepairTrialOptions {
  std::string entry = "main";
  // Base interpreter options of the scenario (seed/jitter fields are
  // overridden per trial run).
  InterpOptions interp;
  // Work-jitter bands to sweep; empty means {interp.work_jitter}. Sweeping
  // bands replays the bug's timing neighborhood, not just the band the
  // failure was reported under.
  std::vector<double> jitter_bands;
  // Seeds per band, starting at first_seed.
  uint64_t seeds_per_band = 24;
  uint64_t first_seed = 1;
  // Adaptive extension: rare-trigger bugs (the reason lazy diagnosis exists)
  // can need hundreds of runs to fail once, so a fixed-size sweep would
  // reject their patches with an unreproduced baseline. If the initial sweep
  // reproduces the target failure fewer than min_baseline_failures times,
  // every band's seed range keeps growing (in seeds_per_band chunks, same
  // seed sequence) until it does or each band reaches max_seeds_per_band.
  // The patched module then replays exactly the seeds the baseline ran.
  uint64_t min_baseline_failures = 3;
  uint64_t max_seeds_per_band = 1024;
  // Reject patches whose mean successful-run virtual time exceeds this
  // multiple of the baseline's.
  double max_overhead_ratio = 8.0;
};

struct RepairVerdict {
  // Trial coverage.
  uint32_t runs_per_module = 0;
  // Baseline behavior: the failure must reproduce for the trial to count.
  uint32_t baseline_failures = 0;  // baseline runs that failed (any kind)
  bool baseline_reproduced = false;
  // Patched behavior.
  uint32_t recurrences = 0;    // patched runs failing with the target kind
  uint32_t new_failures = 0;   // patched runs failing any *other* way
                               // (deadlock introduced by the fix, timeouts...)
  // Mean successful-run virtual time, patched / baseline (1.0 when either
  // side has no successful runs to compare).
  double overhead_ratio = 1.0;
  bool overhead_bounded = true;

  bool validated = false;
  std::string detail;  // human-readable reason when !validated
};

// The unpatched module's side of a trial: the adaptive baseline sweep of
// (module, target, options), and the per-band seed counts every patched
// sweep must replay. It does not depend on the patch, so one sweep serves
// every candidate patch of a plan.
struct RepairBaseline {
  std::vector<double> bands;
  std::vector<uint64_t> seeds;  // per band
  uint32_t runs = 0;
  uint32_t target_failures = 0;
  uint32_t other_failures = 0;
  uint64_t success_virtual_ns = 0;
  uint32_t successes = 0;
};

RepairBaseline SweepRepairBaseline(const ir::Module& module, FailureKind target,
                                   const RepairTrialOptions& options);

// Applies `patch` to `module` and sweeps both versions. `target` is the
// failure kind being repaired (from the diagnosis verdict).
RepairVerdict ValidateRepair(const ir::Module& module, const ir::Patch& patch,
                             FailureKind target, const RepairTrialOptions& options);
// The same verdict against a baseline already swept by SweepRepairBaseline
// for the same (module, target, options): only the patched module runs.
RepairVerdict ValidateRepair(const ir::Module& module, const ir::Patch& patch,
                             FailureKind target, const RepairTrialOptions& options,
                             const RepairBaseline& baseline);

}  // namespace snorlax::rt

#endif  // SNORLAX_RUNTIME_VALIDATE_H_
