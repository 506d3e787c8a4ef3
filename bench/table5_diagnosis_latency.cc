// Diagnosis latency: executions needed until a confident root cause, Snorlax
// vs Gist (the paper reports this comparison in prose, section 6.3: Snorlax
// needs one failure; Gist needs >= 3.7 monitored recurrences, multiplied by
// the number of open bugs sharing its single monitoring slot -- up to 2523x
// for Chromium's 684 open races).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/snorlax.h"
#include "gist/gist.h"
#include "support/stats.h"
#include "support/str.h"

using namespace snorlax;

int main() {
  bench::PrintHeader(
      "Diagnosis latency: executions until diagnosis, Snorlax vs Gist\n"
      "(paper section 6.3: >= 3.7x from recurrences, x open bugs from space\n"
      " sampling; Chromium extrapolation 2523x)");
  const std::vector<int> widths = {14, 10, 12, 13, 12, 12, 10};
  bench::PrintRow({"system", "bug id", "snorlax", "analysis[ms]", "gist(b=1)", "gist(b=4)",
                   "ratio"},
                  widths);

  std::vector<double> ratios;
  // A representative subset (Gist's sampled reproduction loops are long).
  const std::vector<std::string> subjects = {"pbzip2_main", "sqlite_1672", "mysql_169",
                                             "dbcp_270", "httpd_25520"};
  for (const std::string& name : subjects) {
    const workloads::Workload w = workloads::Build(name);

    core::SnorlaxOptions sopts;
    sopts.client.interp = w.interp;
    sopts.failing_traces = w.recommended_failing_traces;
    core::Snorlax snorlax(w.module.get(), sopts);
    const auto sn = snorlax.DiagnoseFirstFailure(1);

    gist::GistOptions g1;
    g1.open_bugs = 1;
    const auto gist1 =
        gist::RunGistDiagnosis(*w.module, w.entry, w.interp, g1, /*max_runs=*/100000);
    gist::GistOptions g4;
    g4.open_bugs = 4;
    const auto gist4 =
        gist::RunGistDiagnosis(*w.module, w.entry, w.interp, g4, /*max_runs=*/400000);

    if (!sn.has_value() || !gist1.has_value() || !gist4.has_value()) {
      bench::PrintRow({w.system, w.bug_id, "-", "-", "-", "-", "-"}, widths);
      continue;
    }
    const double ratio = static_cast<double>(gist4->total_executions) /
                         static_cast<double>(sn->total_runs);
    ratios.push_back(ratio);
    // Server-side analysis (steps 2-7) over every accepted bundle, failing
    // and success alike.
    bench::PrintRow({w.system, w.bug_id, StrFormat("%llu", (unsigned long long)sn->total_runs),
                     FormatDouble(sn->report.stages.AnalysisSeconds() * 1000.0, 1),
                     StrFormat("%llu", (unsigned long long)gist1->total_executions),
                     StrFormat("%llu", (unsigned long long)gist4->total_executions),
                     FormatDouble(ratio, 1) + "x"},
                    widths);
  }
  std::printf("\nmean latency ratio at 4 open bugs: %.1fx; the factor scales linearly\n"
              "with the open-bug count (684 open races -> ~%.0fx, the paper's 2523x\n"
              "Chromium estimate).\n",
              Mean(ratios), Mean(ratios) * 684.0 / 4.0);
  return 0;
}
