// Shared helpers for the evaluation harness (one binary per paper table or
// figure). Everything prints paper-style rows to stdout; bench_output.txt is
// the concatenation of all binaries' output.
#ifndef SNORLAX_BENCH_BENCH_UTIL_H_
#define SNORLAX_BENCH_BENCH_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "runtime/interpreter.h"
#include "runtime/recorders.h"
#include "workloads/workload.h"

namespace snorlax::bench {

// One reproduced failure with the target events' retirement times.
struct FailingRun {
  uint64_t seed = 0;
  rt::FailureInfo failure;
  // Times (ns) of the timing targets nearest the failure, in Figure 1 order;
  // -1 when a target did not retire (then the failure time stands in for the
  // faulting access itself).
  std::vector<int64_t> target_times_ns;
};

// Reproduces up to `wanted` failures of `w` (the paper reran programs up to
// a few thousand times per bug), timestamping the workload's timing targets.
std::vector<FailingRun> ReproduceFailures(const workloads::Workload& w, int wanted,
                                          uint64_t max_seeds = 5000);

// Consecutive gaps between target times, in microseconds (delta-T, delta-T1,
// delta-T2 of Figure 1). Empty when any needed time is missing.
std::vector<double> GapsMicros(const FailingRun& run);

// Appends `instructions` worth of never-called library code to the module:
// call chains with pointer-shuffling bodies, so whole-program points-to pays
// a real price for it. Models the cold 90+% of a large codebase that a
// control-flow trace proves irrelevant (paper section 4.2).
void AddColdLibrary(ir::Module* module, size_t instructions);

// Cold-code size for a workload, calibrated so the executed-set reduction
// lands in the paper's band (geomean ~9x): proportional to the real system's
// code size.
size_t ColdInstructionsFor(const std::string& system);

// One named workload of a bench cohort.
struct NamedWorkload {
  std::string name;
  workloads::Workload workload;
};

// micro_patterns' cohort, also frozen as tests/golden/patterns.txt: the 16
// catalogue workloads plus generated OLTP scenarios at hot-key skew 0.8, whose
// long per-thread schedules over a tiny keyspace maximize dynamic instances
// per racy instruction.
std::vector<NamedWorkload> PatternBenchWorkloads();

// --- table formatting -------------------------------------------------------
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths);

}  // namespace snorlax::bench

#endif  // SNORLAX_BENCH_BENCH_UTIL_H_
