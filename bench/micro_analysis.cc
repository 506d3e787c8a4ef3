// Microbenchmarks (google-benchmark) for the analysis layer: Andersen solver
// scaling with module size and scope, backward slicing, and pattern
// containment checks.
#include <benchmark/benchmark.h>

#include "analysis/points_to.h"
#include "analysis/slicer.h"
#include "bench/bench_util.h"
#include "engine/pattern.h"
#include "core/client.h"
#include "core/server.h"
#include "support/str.h"
#include "workloads/workload.h"

using namespace snorlax;

namespace {

void BM_AndersenWholeProgram(benchmark::State& state) {
  workloads::Workload w = workloads::Build("mysql_169");
  bench::AddColdLibrary(w.module.get(), static_cast<size_t>(state.range(0)));
  analysis::PointsToOptions opts;
  opts.scope = analysis::PointsToOptions::Scope::kWholeProgram;
  for (auto _ : state) {
    const analysis::PointsToResult r = RunPointsTo(*w.module, opts);
    benchmark::DoNotOptimize(r.stats().constraints);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.module->NumInstructions()));
  state.SetLabel("instructions analyzed per iteration");
}
BENCHMARK(BM_AndersenWholeProgram)->Arg(0)->Arg(2000)->Arg(20000);

void BM_AndersenExecutedScope(benchmark::State& state) {
  // Scope restriction: the analysis cost tracks the executed set, not the
  // module size (the lazy-analysis claim behind Table 4).
  workloads::Workload w = workloads::Build("mysql_169");
  bench::AddColdLibrary(w.module.get(), static_cast<size_t>(state.range(0)));
  std::unordered_set<ir::InstId> executed;
  for (const auto& func : w.module->functions()) {
    if (func->name().rfind("cold_", 0) == 0) {
      continue;
    }
    for (const auto& bb : func->blocks()) {
      for (const auto& inst : bb->instructions()) {
        executed.insert(inst->id());
      }
    }
  }
  analysis::PointsToOptions opts;
  opts.scope = analysis::PointsToOptions::Scope::kExecutedOnly;
  opts.executed = &executed;
  for (auto _ : state) {
    const analysis::PointsToResult r = RunPointsTo(*w.module, opts);
    benchmark::DoNotOptimize(r.stats().constraints);
  }
}
BENCHMARK(BM_AndersenExecutedScope)->Arg(0)->Arg(2000)->Arg(20000);

void BM_AndersenSccCollapse(benchmark::State& state) {
  // SCC collapsing off (Arg 0: difference propagation + allocation-free
  // ForEach only) against on (Arg 1) on the largest micro workload. Both
  // produce identical points-to sets; the delta is solver wall time. The
  // synthetic cold library is acyclic, so this isolates the collapse
  // overhead on cycle-free inputs.
  workloads::Workload w = workloads::Build("mysql_169");
  bench::AddColdLibrary(w.module.get(), 20000);
  analysis::PointsToOptions opts;
  opts.scope = analysis::PointsToOptions::Scope::kWholeProgram;
  opts.collapse_sccs = state.range(0) == 1;
  size_t collapsed = 0;
  for (auto _ : state) {
    const analysis::PointsToResult r = RunPointsTo(*w.module, opts);
    collapsed = r.stats().scc_vars_collapsed;
    benchmark::DoNotOptimize(r.stats().delta_propagations);
  }
  state.SetLabel(opts.collapse_sccs ? StrFormat("scc collapse on (%zu vars folded)", collapsed)
                                    : "scc collapse off");
}
BENCHMARK(BM_AndersenSccCollapse)->Arg(0)->Arg(1);

void BM_BackwardSlice(benchmark::State& state) {
  workloads::Workload w = workloads::Build("pbzip2_main");
  analysis::PointsToOptions opts;
  opts.scope = analysis::PointsToOptions::Scope::kWholeProgram;
  const analysis::PointsToResult points_to = RunPointsTo(*w.module, opts);
  const ir::InstId criterion = w.truth_events.back();
  for (auto _ : state) {
    const auto slice = analysis::BackwardSlice(*w.module, points_to, criterion);
    benchmark::DoNotOptimize(slice.size());
  }
}
BENCHMARK(BM_BackwardSlice);

void BM_ServerPipeline(benchmark::State& state) {
  // The full per-trace server analysis (steps 2-6) on a captured failure.
  workloads::Workload w = workloads::Build("pbzip2_main");
  core::ClientOptions copts;
  copts.interp = w.interp;
  core::DiagnosisClient client(w.module.get(), copts);
  std::optional<pt::PtTraceBundle> bundle;
  for (uint64_t seed = 1; seed <= 2000 && !bundle.has_value(); ++seed) {
    core::ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure()) {
      bundle = run.trace;
    }
  }
  if (!bundle.has_value()) {
    state.SkipWithError("bug did not reproduce");
    return;
  }
  for (auto _ : state) {
    core::DiagnosisServer server(w.module.get());
    server.SubmitFailingTrace(*bundle);
    benchmark::DoNotOptimize(server.ranked_candidates().size());
  }
}
BENCHMARK(BM_ServerPipeline);

}  // namespace

BENCHMARK_MAIN();
