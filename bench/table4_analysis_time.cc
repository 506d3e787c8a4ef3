// Table 4: Snorlax's server-side analysis time per received trace, and its
// speedup over the same points-to analysis without the control-flow trace
// (whole-program scope). The paper reports a 24x geometric-mean speedup with
// larger speedups for larger programs; we grow each workload module with
// cold library code proportional to the real system's size, so the same
// trend emerges: the hybrid analysis cost tracks the trace, not the program.
// --json/--json=<path> emits the summary line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/points_to.h"
#include "bench/bench_util.h"
#include "bench/throughput_harness.h"
#include "core/client.h"
#include "core/server.h"
#include "support/stats.h"
#include "support/str.h"

using namespace snorlax;

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Minimum full-pipeline seconds per submission over kReps resubmissions of
// `bundle` (cache off; min absorbs scheduler noise).
double PipelineSeconds(const workloads::Workload& w, const pt::PtTraceBundle& bundle, int reps,
                       std::unique_ptr<core::DiagnosisServer>* server_out) {
  core::DiagnosisServer::Options sopts;
  sopts.use_analysis_cache = false;
  auto server = std::make_unique<core::DiagnosisServer>(w.module.get(), sopts);
  server->SubmitFailingTrace(bundle);  // warm-up: builds the module indexes
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    server->SubmitFailingTrace(bundle);
    best = std::min(best, Seconds(t0, std::chrono::steady_clock::now()));
  }
  *server_out = std::move(server);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessFlags flags;
  if (const auto st = bench::ParseHarnessFlags(argc, argv, 1, &flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  struct Row {
    std::string system, bug_id, insts, hybrid, stat, speedup, breakdown;
  };
  std::vector<Row> rows;
  std::vector<double> speedups;
  std::string workload_json;

  for (const workloads::WorkloadInfo& info : workloads::AllWorkloads()) {
    workloads::Workload w = workloads::Build(info.name);
    bench::AddColdLibrary(w.module.get(), bench::ColdInstructionsFor(w.system) * 40);

    // Reproduce one failure to obtain the trace.
    core::ClientOptions copts;
    copts.interp = w.interp;
    core::DiagnosisClient client(w.module.get(), copts);
    std::optional<pt::PtTraceBundle> bundle;
    for (uint64_t seed = 1; seed <= 3000 && !bundle.has_value(); ++seed) {
      core::ClientRun run = client.RunOnce(seed);
      if (run.result.failure.IsFailure()) {
        bundle = run.trace;
      }
    }
    if (!bundle.has_value()) {
      rows.push_back({w.system, w.bug_id, "-", "-", "-", "-", "-"});
      continue;
    }

    // Hybrid: the full per-trace server pipeline (steps 2-6). Minimum over
    // repetitions: wall-time medians/means absorb scheduler noise the
    // comparison is not about.
    const int kReps = 7;
    std::unique_ptr<core::DiagnosisServer> server;
    const double hybrid_s = PipelineSeconds(w, *bundle, kReps, &server);
    // Cumulative pass seconds over all kReps+1 submissions: where the hybrid
    // time actually goes (decode, solve, rank = chain walk + type ranking,
    // patterns).
    const engine::PassStatsTable passes = server->pass_stats();
    const auto ms = [&](engine::PassId id) {
      return engine::StatsFor(passes, id).seconds * 1000.0 / (kReps + 1);
    };
    const std::string breakdown = StrFormat(
        "%.1f/%.1f/%.1f/%.1f", ms(engine::PassId::kTraceProcess),
        ms(engine::PassId::kPointsTo),
        ms(engine::PassId::kDerefChains) + ms(engine::PassId::kTypeRank),
        ms(engine::PassId::kPatterns));
    server.reset();

    // Static baseline: the same inclusion-based analysis over the whole
    // module (what the server would pay without the control-flow trace).
    double static_s = 1e18;
    for (int rep = 0; rep < kReps; ++rep) {
      analysis::PointsToOptions opts;
      opts.scope = analysis::PointsToOptions::Scope::kWholeProgram;
      const auto t0 = std::chrono::steady_clock::now();
      const analysis::PointsToResult r = RunPointsTo(*w.module, opts);
      static_s = std::min(static_s, Seconds(t0, std::chrono::steady_clock::now()));
      if (r.stats().variables == 0) {
        std::printf("unexpected empty analysis\n");
      }
    }

    const double speedup = static_s / hybrid_s;
    speedups.push_back(speedup);
    rows.push_back({w.system, w.bug_id, StrFormat("%zu", w.module->NumInstructions()),
                    FormatDouble(hybrid_s * 1000, 2), FormatDouble(static_s * 1000, 2),
                    FormatDouble(speedup, 1) + "x", breakdown});
    workload_json += StrFormat(
        "%s{\"system\":\"%s\",\"bug\":\"%s\",\"insts\":%zu,\"hybrid_ms\":%.3f,"
        "\"static_ms\":%.3f,\"speedup\":%.1f}",
        workload_json.empty() ? "" : ",", w.system.c_str(), w.bug_id.c_str(),
        w.module->NumInstructions(), hybrid_s * 1000, static_s * 1000, speedup);
  }

  const std::string json =
      StrFormat("{\"bench\":\"table4\",\"workloads\":[%s],\"geomean_speedup\":%.1f}",
                workload_json.c_str(), GeoMean(speedups));

  const auto print_human = [&] {
    bench::PrintHeader(
        "Table 4: server-side analysis time and speedup vs whole-program static\n"
        "analysis (paper: avg 2.5 s per trace, geomean speedup 24x, larger for\n"
        "larger programs; absolute times scale with module size)");
    const std::vector<int> widths = {14, 10, 10, 14, 14, 10, 22};
    bench::PrintRow({"system", "bug id", "insts", "hybrid [ms]", "static [ms]", "speedup",
                     "trace/pt/rank/pat [ms]"},
                    widths);
    for (const Row& r : rows) {
      bench::PrintRow({r.system, r.bug_id, r.insts, r.hybrid, r.stat, r.speedup, r.breakdown},
                      widths);
    }
    std::printf("\ngeometric mean speedup: %.1fx (paper: 24x; grows with program size)\n",
                GeoMean(speedups));
  };
  if (const auto st = bench::EmitBenchJson(flags, json, print_human); !st.ok()) {
    return 2;
  }
  return 0;
}
