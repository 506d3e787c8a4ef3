// Accuracy sweep over the randomized OLTP bug-injection cohort: N generated
// scenarios (bug class x contention level x seed), each run to failure under
// the interpreter, diagnosed through a batched ServerPool exactly as a fleet
// deployment would see them, and scored against the machine-readable ground
// truth the generator emits.
//
// Rank of a pattern = 1 + number of patterns with strictly greater F1 (the
// fault-localization convention; F1 ties share a rank -- the engine breaks
// ties by pattern size, which says nothing about correctness). A scenario is
// a rank-K hit when some pattern of the injected class covering the injected
// root instruction has rank <= K. Unreproduced scenarios stay in the
// denominator: a bug the harness cannot re-trigger is an accuracy miss, not
// a excluded sample.
//
// Exit code 1 = gate failure: aggregate rank-5 below --min-rank5, any
// interpreter timeout, or any reproduced failure of the wrong kind.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/throughput_harness.h"
#include "core/client.h"
#include "core/server_pool.h"
#include "ir/verifier.h"
#include "pt/encoder.h"
#include "support/json.h"
#include "support/str.h"
#include "workloads/oltp/oltp.h"

using namespace snorlax;

namespace {

struct SweepFlags {
  size_t scenarios = 1000;
  double min_rank5 = 0.8;
  uint64_t base_seed = 1000;
  // Interpreter executions spent reproducing each scenario's failing traces;
  // success-trace gathering gets the same budget again.
  uint64_t repro_budget = 600;
  // Scenarios diagnosed per ServerPool instance: large enough that shard
  // routing is exercised, small enough that generated modules don't all stay
  // resident at once.
  size_t batch = 8;
};

// One scenario's outcome, accumulated into per-class and aggregate stats.
struct ScenarioResult {
  workloads::GeneratedBug bug;
  bool reproduced = false;
  bool rank1 = false;
  bool rank5 = false;
  bool timeout = false;
  bool wrong_failure = false;
  uint64_t runs_until_failure = 0;
  double analysis_seconds = 0.0;
};

struct ClassStats {
  size_t total = 0;
  size_t reproduced = 0;
  size_t rank1 = 0;
  size_t rank5 = 0;
};

// A scenario waiting on the batch's DiagnoseAll(): the module must stay
// alive until the pool has diagnosed it.
struct PendingScenario {
  workloads::oltp::OltpScenario scenario;
  ScenarioResult result;
  uint64_t fingerprint = 0;
  ir::InstId failing_inst = ir::kInvalidInstId;
};

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

// The three contention levels of the sweep grid: uniform-ish traffic over a
// wide keyspace down to a hot-key-skewed tiny keyspace (heavy wait-die
// conflict pressure around the injected defect).
struct Contention {
  int keyspace;
  double skew;
};
constexpr Contention kContention[] = {{16, 0.2}, {8, 0.5}, {4, 0.8}};

constexpr workloads::GeneratedBug kClasses[] = {
    workloads::GeneratedBug::kOltpRace,
    workloads::GeneratedBug::kOltpAtomicity,
    workloads::GeneratedBug::kOltpOrder,
    workloads::GeneratedBug::kOltpAbba,
};

// Reproduces the scenario's failing traces, submits them plus dump-point
// success traces to the pool, and fills in everything except the rank bits
// (those need the batch's DiagnoseAll).
void CaptureScenario(const SweepFlags& sweep, core::ServerPool& pool,
                     PendingScenario& p) {
  const workloads::Workload& w = p.scenario.workload;
  p.fingerprint = pt::ModuleFingerprint(*w.module);
  pool.RegisterModule(w.module.get());

  core::ClientOptions copts;
  copts.interp = w.interp;
  core::DiagnosisClient client(w.module.get(), copts);

  const size_t wanted = w.recommended_failing_traces;
  size_t failing_submitted = 0;
  uint64_t seed = 1;
  for (; seed <= sweep.repro_budget && failing_submitted < wanted; ++seed) {
    core::ClientRun run = client.RunOnce(seed);
    if (!run.result.failure.IsFailure()) {
      continue;
    }
    if (run.result.failure.kind == rt::FailureKind::kTimeout) {
      p.result.timeout = true;
      return;
    }
    if (run.result.failure.kind != w.expected_failure) {
      p.result.wrong_failure = true;
      return;
    }
    if (p.result.runs_until_failure == 0) {
      p.result.runs_until_failure = seed;
    }
    if (run.trace.has_value() && pool.SubmitFailingTrace(*run.trace).ok()) {
      if (failing_submitted == 0) {
        p.failing_inst = run.trace->failure.failing_inst;
      }
      ++failing_submitted;
    }
  }
  if (failing_submitted == 0) {
    return;  // unreproduced: stays in the denominator as a miss
  }
  p.result.reproduced = true;

  // Step 8: successful executions traced at the shard's requested dump
  // points, up to the server's own 10x cap.
  const auto dump_points = pool.RequestedDumpPoints(p.fingerprint, p.failing_inst);
  size_t successes = 0;
  const size_t success_cap = core::kSuccessTraceMultiplier * failing_submitted;
  for (uint64_t budget = 0;
       budget < sweep.repro_budget && successes < success_cap; ++budget, ++seed) {
    core::ClientRun run = client.RunOnce(seed, dump_points);
    if (run.result.failure.IsFailure()) {
      continue;
    }
    if (run.trace.has_value() &&
        pool.SubmitSuccessTrace(p.failing_inst, *run.trace).ok()) {
      ++successes;
    }
  }
}

// Scores one diagnosed scenario against its ground truth.
void ScoreScenario(const core::DiagnosisReport& report, PendingScenario& p) {
  p.result.analysis_seconds = report.stages.AnalysisSeconds();
  size_t best_rank = 0;
  for (const core::DiagnosedPattern& cand : report.patterns) {
    if (cand.pattern.kind != p.scenario.truth.kind) {
      continue;
    }
    bool covers = false;
    for (const core::PatternEvent& e : cand.pattern.events) {
      covers |= e.inst == p.scenario.truth.root_inst;
    }
    if (!covers) {
      continue;
    }
    size_t rank = 1;
    for (const core::DiagnosedPattern& q : report.patterns) {
      rank += q.f1 > cand.f1 ? 1 : 0;
    }
    if (best_rank == 0 || rank < best_rank) {
      best_rank = rank;
    }
  }
  p.result.rank1 = best_rank == 1;
  p.result.rank5 = best_rank >= 1 && best_rank <= 5;
}

}  // namespace

int main(int argc, char** argv) {
  SweepFlags sweep;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenarios=", 0) == 0) {
      sweep.scenarios = std::strtoull(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--min-rank5=", 0) == 0) {
      sweep.min_rank5 = std::atof(arg.c_str() + 12);
    } else if (arg.rfind("--base-seed=", 0) == 0) {
      sweep.base_seed = std::strtoull(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--repro-budget=", 0) == 0) {
      sweep.repro_budget = std::strtoull(arg.c_str() + 15, nullptr, 10);
    } else {
      rest.push_back(argv[i]);
    }
  }
  bench::HarnessFlags flags;
  const support::Status parse =
      bench::ParseHarnessFlags(static_cast<int>(rest.size()), rest.data(), 1, &flags);
  if (!parse.ok()) {
    std::fprintf(stderr, "bench_accuracy_sweep: %s\n", parse.message().c_str());
    return 2;
  }

  std::map<workloads::GeneratedBug, ClassStats> per_class;
  std::vector<double> latencies_ms;
  std::vector<double> runs_to_failure;
  size_t timeouts = 0;
  size_t wrong_failures = 0;
  size_t verifier_rejects = 0;

  std::vector<ScenarioResult> results;
  for (size_t base = 0; base < sweep.scenarios; base += sweep.batch) {
    const size_t batch_end = std::min(base + sweep.batch, sweep.scenarios);
    core::ServerPool pool;
    std::vector<PendingScenario> batch;
    batch.reserve(batch_end - base);
    for (size_t i = base; i < batch_end; ++i) {
      workloads::GeneratorOptions options;
      options.bug = kClasses[i % 4];
      options.seed = sweep.base_seed + i;
      options.helper_depth = 1 + static_cast<int>(i % 3);
      const Contention& c = kContention[(i / 4) % 3];
      options.oltp.keyspace = c.keyspace;
      options.oltp.hot_key_skew = c.skew;
      PendingScenario p{workloads::oltp::GenerateOltpScenario(options), {}, 0,
                        ir::kInvalidInstId};
      p.result.bug = options.bug;
      if (!ir::VerifyModule(*p.scenario.workload.module).empty()) {
        ++verifier_rejects;  // counted as a miss; never expected
        results.push_back(p.result);
        continue;
      }
      CaptureScenario(sweep, pool, p);
      batch.push_back(std::move(p));
    }

    // One DiagnoseAll per batch: every reproduced scenario is its own
    // (fingerprint, failing PC) shard.
    std::map<std::pair<uint64_t, ir::InstId>, const core::DiagnosisReport*> by_site;
    const std::vector<core::ServerPool::ShardReport> reports = pool.DiagnoseAll();
    for (const core::ServerPool::ShardReport& r : reports) {
      by_site[{r.key.module_fingerprint, r.key.failing_inst}] = &r.report;
    }
    for (PendingScenario& p : batch) {
      if (p.result.reproduced) {
        const auto it = by_site.find({p.fingerprint, p.failing_inst});
        if (it != by_site.end()) {
          ScoreScenario(*it->second, p);
        } else {
          p.result.reproduced = false;  // pool rejected every bundle
        }
      }
      results.push_back(p.result);
    }
  }

  for (const ScenarioResult& r : results) {
    ClassStats& cs = per_class[r.bug];
    ++cs.total;
    timeouts += r.timeout ? 1 : 0;
    wrong_failures += r.wrong_failure ? 1 : 0;
    if (!r.reproduced) {
      continue;
    }
    ++cs.reproduced;
    cs.rank1 += r.rank1 ? 1 : 0;
    cs.rank5 += r.rank5 ? 1 : 0;
    latencies_ms.push_back(r.analysis_seconds * 1e3);
    runs_to_failure.push_back(static_cast<double>(r.runs_until_failure));
  }

  size_t total = 0, reproduced = 0, rank1 = 0, rank5 = 0;
  for (const auto& [bug, cs] : per_class) {
    total += cs.total;
    reproduced += cs.reproduced;
    rank1 += cs.rank1;
    rank5 += cs.rank5;
  }
  const double rank1_acc = total ? static_cast<double>(rank1) / total : 0.0;
  const double rank5_acc = total ? static_cast<double>(rank5) / total : 0.0;
  const bool pass =
      rank5_acc >= sweep.min_rank5 && timeouts == 0 && wrong_failures == 0 &&
      verifier_rejects == 0 && total == sweep.scenarios;

  support::JsonWriter jw;
  jw.BeginObject();
  jw.Field("bench", "accuracy_sweep");
  jw.Field("scenarios", static_cast<uint64_t>(total));
  jw.Field("reproduced", static_cast<uint64_t>(reproduced));
  jw.Field("unreproduced", static_cast<uint64_t>(total - reproduced));
  jw.Field("timeouts", static_cast<uint64_t>(timeouts));
  jw.Field("wrong_failures", static_cast<uint64_t>(wrong_failures));
  jw.Field("rank1", rank1_acc, 4);
  jw.Field("rank5", rank5_acc, 4);
  jw.Field("min_rank5", sweep.min_rank5, 4);
  jw.Key("latency_ms").BeginObject();
  jw.Field("p50", Percentile(latencies_ms, 0.5), 3);
  jw.Field("p90", Percentile(latencies_ms, 0.9), 3);
  jw.Field("p99", Percentile(latencies_ms, 0.99), 3);
  jw.EndObject();
  jw.Key("runs_until_failure").BeginObject();
  jw.Field("p50", Percentile(runs_to_failure, 0.5), 1);
  jw.Field("p99", Percentile(runs_to_failure, 0.99), 1);
  jw.EndObject();
  jw.Key("classes").BeginArray();
  for (const auto& [bug, cs] : per_class) {
    jw.BeginObject();
    jw.Field("bug", workloads::GeneratedBugName(bug));
    jw.Field("scenarios", static_cast<uint64_t>(cs.total));
    jw.Field("reproduced", static_cast<uint64_t>(cs.reproduced));
    jw.Field("rank1", cs.total ? static_cast<double>(cs.rank1) / cs.total : 0.0, 4);
    jw.Field("rank5", cs.total ? static_cast<double>(cs.rank5) / cs.total : 0.0, 4);
    jw.EndObject();
  }
  jw.EndArray();
  jw.Field("pass", pass);
  jw.EndObject();
  const std::string json = jw.Take();

  const auto print_human = [&] {
    bench::PrintHeader(
        "Accuracy sweep: randomized OLTP bug-injection cohort diagnosed via\n"
        "ServerPool, scored against generated ground truth (rank = 1 + number\n"
        "of strictly-better-F1 patterns)");
    const std::vector<int> widths = {16, 10, 11, 8, 8};
    bench::PrintRow({"bug class", "scenarios", "reproduced", "rank-1", "rank-5"},
                    widths);
    for (const auto& [bug, cs] : per_class) {
      bench::PrintRow(
          {workloads::GeneratedBugName(bug), StrFormat("%zu", cs.total),
           StrFormat("%zu", cs.reproduced),
           FormatDouble(cs.total ? 100.0 * cs.rank1 / cs.total : 0.0, 1),
           FormatDouble(cs.total ? 100.0 * cs.rank5 / cs.total : 0.0, 1)},
          widths);
    }
    std::printf(
        "\naggregate: rank-1 %.1f%%, rank-5 %.1f%% over %zu scenarios "
        "(%zu unreproduced, %zu timeouts, %zu wrong-kind failures)\n"
        "diagnosis latency: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; "
        "runs-until-failure p50 %.0f\n%s (rank-5 floor %.0f%%)\n",
        100.0 * rank1_acc, 100.0 * rank5_acc, total, total - reproduced,
        timeouts, wrong_failures, Percentile(latencies_ms, 0.5),
        Percentile(latencies_ms, 0.9), Percentile(latencies_ms, 0.99),
        Percentile(runs_to_failure, 0.5), pass ? "PASS" : "FAIL",
        100.0 * sweep.min_rank5);
  };
  const support::Status emit = bench::EmitBenchJson(flags, json, print_human);
  if (!emit.ok()) {
    return 2;
  }
  return pass ? 0 : 1;
}
