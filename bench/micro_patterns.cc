// Step-5/6 latency of the timestamp-indexed pattern engine
// (engine/pattern_compute.h) on the full server pipeline, per workload.
//
// The workload set (bench::PatternBenchWorkloads) spans both regimes the
// index was built for: the catalogue (modest instance counts, the paper's
// Tables 1-3 systems) plus generated OLTP scenarios at hot-key skew 0.8 whose
// hot rows execute the racy accesses hundreds of times.
//
// Emits one JSON line (--json / --json=<path>) with per-workload p50/p99 --
// the BENCH_patterns.json shape. What the engine outputs on these workloads
// is frozen in tests/golden/patterns.txt; this binary only times it. Exit
// code 2 = bad flags or no workload reproduced a failure.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/throughput_harness.h"
#include "core/client.h"
#include "core/server.h"
#include "support/str.h"
#include "trace/processed_trace.h"

using namespace snorlax;

namespace {

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

// Resubmits one failing bundle `reps` times with the artifact store off, so
// every submission re-runs the full pipeline, and reads the step-5/6 cost
// off the pass table (kTypeRank + kPatterns deltas), in ms.
std::vector<double> TimeEngine(const workloads::Workload& w, const pt::PtTraceBundle& bundle,
                               int reps) {
  core::DiagnosisServer::Options sopts;
  sopts.use_analysis_cache = false;
  // The default max_patterns=96 saturates the builder after ~100 hypothesis
  // tests on these workloads -- the engine early-exits before doing any real
  // work and the bench would measure anchor setup, not the engine. 512 runs
  // the full candidate sweep.
  sopts.patterns.max_patterns = 512;
  core::DiagnosisServer server(w.module.get(), sopts);
  server.SubmitFailingTrace(bundle);  // warm-up: builds the module indexes
  std::vector<double> step56_ms;
  for (int rep = 0; rep < reps; ++rep) {
    const double before = server.pass_stats(engine::PassId::kTypeRank).seconds +
                          server.pass_stats(engine::PassId::kPatterns).seconds;
    server.SubmitFailingTrace(bundle);
    const double after = server.pass_stats(engine::PassId::kTypeRank).seconds +
                         server.pass_stats(engine::PassId::kPatterns).seconds;
    step56_ms.push_back((after - before) * 1000.0);
  }
  return step56_ms;
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessFlags flags;
  flags.config.rounds = 3;
  if (const auto st = bench::ParseHarnessFlags(argc, argv, 1, &flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const int reps = static_cast<int>(std::max<size_t>(flags.config.rounds * 3, 3));

  struct Row {
    std::string name;
    size_t instances = 0;  // dynamic instances in the failing trace
    double p50 = 0, p99 = 0;
  };
  std::vector<Row> rows;

  for (const bench::NamedWorkload& c : bench::PatternBenchWorkloads()) {
    const workloads::Workload& w = c.workload;
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
      continue;
    }
    const trace::ProcessedTrace decoded(w.module.get(), *bundle, trace::TraceOptions{});
    const std::vector<double> step56_ms = TimeEngine(w, *bundle, reps);
    rows.push_back(Row{c.name, decoded.size(), Percentile(step56_ms, 0.5),
                       Percentile(step56_ms, 0.99)});
  }

  if (rows.empty()) {
    std::fprintf(stderr, "no workload reproduced a failure\n");
    return 2;
  }

  // The trace with the most dynamic instances: the regime the index targets.
  const Row* largest = &rows[0];
  for (const Row& r : rows) {
    if (r.instances > largest->instances) {
      largest = &r;
    }
  }

  std::string json =
      "{\"bench\":\"patterns\",\"reps\":" + StrFormat("%d", reps) + ",\"workloads\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += StrFormat("%s{\"workload\":\"%s\",\"instances\":%zu,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                      i == 0 ? "" : ",", r.name.c_str(), r.instances, r.p50, r.p99);
  }
  json += StrFormat("],\"largest\":\"%s\",\"largest_instances\":%zu,\"largest_p50_ms\":%.3f}",
                    largest->name.c_str(), largest->instances, largest->p50);

  const auto print_human = [&] {
    bench::PrintHeader(
        "Step-5/6 pattern engine: timestamp-indexed existence queries,\n"
        "full pipeline per failing bundle");
    const std::vector<int> widths = {22, 10, 11, 11};
    bench::PrintRow({"workload", "instances", "p50[ms]", "p99[ms]"}, widths);
    for (const Row& r : rows) {
      bench::PrintRow({r.name, StrFormat("%zu", r.instances), FormatDouble(r.p50, 3),
                       FormatDouble(r.p99, 3)},
                      widths);
    }
    std::printf("\nmost instances: %s (%zu), p50 %.3f ms\n", largest->name.c_str(),
                largest->instances, largest->p50);
  };
  if (const auto st = bench::EmitBenchJson(flags, json, print_human); !st.ok()) {
    return 2;
  }
  return 0;
}
