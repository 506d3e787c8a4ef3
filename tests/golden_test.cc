// Golden diagnosis digests: the frozen reference for steps 4-7. Each case
// diagnoses one captured failure and compares a one-line summary of the
// ranked report against tests/golden/<set>.txt:
//
//   <case> <hex digest> success=<n> patterns=<n> top=<key> f1=<f1>
//
// The hex digest hashes bench::DigestReport (every pattern key, F1 and
// confusion count), so any change to candidate ranking, pattern generation
// or success-trace scoring moves it. On a mismatch the test prints the full
// digest text.
//
// Three sets:
//   - generated: 8 generated bug classes x seeds 1-13 (OLTP classes alternate
//     to hot-key skew 0.8), each with its failing trace plus success traces
//     captured at the server's requested dump points;
//   - patterns:  micro_patterns' cohort (bench::PatternBenchWorkloads) at its
//     max_patterns = 512, failing trace only;
//   - catalogue: every catalogue site as bench::CaptureSites captures it.
//
// Every trace the server scores is a projection, never a full build:
//   - the failing projection oracle (every case): the failing trace's
//     projection has the full build's executed set, gives step 6 the full
//     build's patterns, and embeds each reported pattern exactly when the
//     full build does.
// Two more relations ride on the generated and catalogue cases:
//   - the success projection oracle: each success trace's projection embeds
//     each reported pattern exactly when its full trace does;
//   - arrival order (generated only): submitting every success before the
//     failing trace, which forces a re-projection of each, gives the same
//     frozen line.
//
// Every run also writes its lines to <build>/tests/golden_actual/<set>.txt
// (one line per case that ran, in set order). To regenerate after an
// intended change, run the suite and copy those files over tests/golden/.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/throughput_harness.h"
#include "core/client.h"
#include "core/server.h"
#include "engine/pattern.h"
#include "engine/pattern_compute.h"
#include "support/str.h"
#include "trace/processed_trace.h"
#include "workloads/generator.h"

namespace snorlax {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

// gtest parameter names allow only [A-Za-z0-9_].
std::string CaseId(std::string name) {
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

std::string GoldenLine(const std::string& case_id, const core::DiagnosisReport& report) {
  const core::DiagnosedPattern* top = report.best();
  return StrFormat("%s %016llx success=%zu patterns=%zu top=%s f1=%s", case_id.c_str(),
                   (unsigned long long)Fnv1a(bench::DigestReport(report)),
                   report.success_traces, report.patterns.size(),
                   top != nullptr ? top->pattern.Key().c_str() : "-",
                   top != nullptr ? StrFormat("%.6f", top->f1).c_str() : "-");
}

// Case id -> line, from a golden file (empty when the file is missing).
std::map<std::string, std::string> ReadLines(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines[line.substr(0, line.find(' '))] = line;
    }
  }
  return lines;
}

// Merges this case's line into <actual dir>/<set>.txt. ctest runs cases as
// concurrent processes, so the read-modify-write holds an exclusive flock.
void RecordActual(const std::string& set, const std::vector<std::string>& order,
                  const std::string& case_id, const std::string& line) {
  const std::filesystem::path dir = SNORLAX_GOLDEN_ACTUAL_DIR;
  std::filesystem::create_directories(dir);
  const std::string path = (dir / (set + ".txt")).string();
  const int lock = open((path + ".lock").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(lock, 0) << path;
  flock(lock, LOCK_EX);
  std::map<std::string, std::string> lines = ReadLines(path);
  lines[case_id] = line;
  {
    std::ofstream out(path + ".tmp", std::ios::trunc);
    for (const std::string& id : order) {
      if (const auto it = lines.find(id); it != lines.end()) {
        out << it->second << "\n";
      }
    }
  }
  std::filesystem::rename(path + ".tmp", path);
  flock(lock, LOCK_UN);
  close(lock);
}

// Compares the report's line with the frozen one, without recording it.
void ExpectFrozen(const std::string& set, const std::string& case_id,
                  const core::DiagnosisReport& report) {
  const std::string line = GoldenLine(case_id, report);
  const std::map<std::string, std::string> golden =
      ReadLines(std::string(SNORLAX_GOLDEN_DIR) + "/" + set + ".txt");
  const auto it = golden.find(case_id);
  ASSERT_NE(it, golden.end()) << "no frozen line for " << case_id << " in " << set
                              << ".txt; this run gave\n"
                              << line << "\nfull digest:\n"
                              << bench::DigestReport(report);
  EXPECT_EQ(it->second, line) << "full digest:\n" << bench::DigestReport(report);
}

void ExpectGolden(const std::string& set, const std::vector<std::string>& order,
                  const std::string& case_id, const core::DiagnosisReport& report) {
  RecordActual(set, order, case_id, GoldenLine(case_id, report));
  ExpectFrozen(set, case_id, report);
}

struct Evidence {
  std::optional<pt::PtTraceBundle> failing;
  std::vector<pt::PtTraceBundle> successes;
};

// The first failing run within `budget` seeds, then up to `successes`
// successful runs traced at a scout server's requested dump points (a run
// without dump points returns no trace when it succeeds).
Evidence Capture(const workloads::Workload& w, uint64_t budget, size_t successes) {
  core::ClientOptions copts;
  copts.interp = w.interp;
  core::DiagnosisClient client(w.module.get(), copts);
  Evidence evidence;
  uint64_t seed = 1;
  for (; seed <= budget && !evidence.failing.has_value(); ++seed) {
    core::ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure() && run.trace.has_value()) {
      evidence.failing = *run.trace;
    }
  }
  if (!evidence.failing.has_value() || successes == 0) {
    return evidence;
  }
  core::DiagnosisServer scout(w.module.get());
  if (!scout.SubmitFailingTrace(*evidence.failing).ok()) {
    return evidence;
  }
  const auto dump_points = scout.RequestedDumpPoints();
  for (const uint64_t end = seed + budget; seed < end && evidence.successes.size() < successes;
       ++seed) {
    core::ClientRun run = client.RunOnce(seed, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      evidence.successes.push_back(*run.trace);
    }
  }
  return evidence;
}

// The failing projection oracle. The server builds the failing trace as a
// projection onto what steps 6-7 read (R and the pattern instructions U);
// against the full build of the same bundle it must have the same executed
// set, give step 6 the same patterns from the server's effective ranking,
// and embed each reported pattern exactly when the full trace does.
void ExpectFailingProjectionOracle(const workloads::Workload& w,
                                   const pt::PtTraceBundle& failing,
                                   const core::DiagnosisServer& server,
                                   const core::DiagnosisServer::Options& options,
                                   const core::DiagnosisReport& report) {
  ASSERT_GE(server.num_failing_traces(), 1u);
  const trace::ProcessedTrace& projection = server.failing_trace(0);
  const trace::ProcessedTrace full(w.module.get(), failing, options.trace);
  EXPECT_TRUE(projection.projected());
  EXPECT_LE(projection.size(), full.size());
  EXPECT_TRUE(projection.executed() == full.executed());

  // The slice fallback's retry runs without the alias prefilter.
  engine::PatternComputeContext context;
  context.points_to = server.used_slice_fallback() ? nullptr : server.points_to();
  const auto keys = [&](const trace::ProcessedTrace& t) {
    std::vector<std::string> out;
    for (const engine::BugPattern& p :
         engine::ComputePatterns(*w.module, t, server.ranked_candidates(), full.failure(),
                                 server.failure_chain(), options.patterns, context)
             .patterns) {
      out.push_back(p.Key());
    }
    return out;
  };
  const std::vector<std::string> want = keys(full);
  EXPECT_EQ(keys(projection), want);
  EXPECT_FALSE(want.empty());
  for (const core::DiagnosedPattern& d : report.patterns) {
    EXPECT_EQ(engine::TraceContainsPattern(projection, d.pattern),
              engine::TraceContainsPattern(full, d.pattern))
        << d.pattern.Key();
  }
}

core::DiagnosisReport Diagnose(const workloads::Workload& w, const pt::PtTraceBundle& failing,
                               const std::vector<pt::PtTraceBundle>& successes,
                               const core::DiagnosisServer::Options& options) {
  core::DiagnosisServer server(w.module.get(), options);
  EXPECT_TRUE(server.SubmitFailingTrace(failing).ok());
  for (const pt::PtTraceBundle& s : successes) {
    server.SubmitSuccessTrace(s);
  }
  core::DiagnosisReport report = server.Diagnose();
  ExpectFailingProjectionOracle(w, failing, server, options, report);
  return report;
}

// The projection oracle. The server scores each success trace as its
// projection onto the report's pattern instructions; for every reported
// pattern, that projection must embed the pattern exactly when the full
// trace does, so the report's false-positive counts are the full traces'.
void ExpectProjectionOracle(const workloads::Workload& w,
                            const std::vector<pt::PtTraceBundle>& successes,
                            const core::DiagnosisReport& report) {
  trace::InstSet keep;
  for (const core::DiagnosedPattern& d : report.patterns) {
    for (const engine::PatternEvent& e : d.pattern.events) {
      keep.Insert(e.inst);
    }
  }
  std::vector<size_t> full_hits(report.patterns.size(), 0);
  for (size_t i = 0; i < successes.size(); ++i) {
    const trace::ProcessedTrace full(w.module.get(), successes[i]);
    const trace::ProcessedTrace projection(w.module.get(), successes[i], {}, &keep);
    for (size_t k = 0; k < report.patterns.size(); ++k) {
      const engine::BugPattern& pattern = report.patterns[k].pattern;
      const bool in_full = engine::TraceContainsPattern(full, pattern);
      EXPECT_EQ(engine::TraceContainsPattern(projection, pattern), in_full)
          << "success " << i << ", pattern " << pattern.Key();
      full_hits[k] += in_full ? 1 : 0;
    }
  }
  ASSERT_EQ(report.success_traces, successes.size());
  for (size_t k = 0; k < report.patterns.size(); ++k) {
    EXPECT_EQ(report.patterns[k].counts.false_positive, full_hits[k])
        << report.patterns[k].pattern.Key();
  }
}

// The arrival-order relation: every success submitted before the failing
// trace. Each is then projected onto an empty pattern set and re-projected
// once per bundle when Diagnose() scores it, and the report must not change.
core::DiagnosisReport DiagnoseSuccessesFirst(const workloads::Workload& w,
                                             const pt::PtTraceBundle& failing,
                                             const std::vector<pt::PtTraceBundle>& successes) {
  core::DiagnosisServer server(w.module.get());
  std::set<uint64_t> unique;
  for (const pt::PtTraceBundle& s : successes) {
    EXPECT_TRUE(server.SubmitSuccessTrace(s).ok());
    unique.insert(trace::TraceKey(s, {}));
  }
  EXPECT_TRUE(server.SubmitFailingTrace(failing).ok());
  core::DiagnosisReport report = server.Diagnose();
  // Each unique bundle built twice (onto the empty set, then onto the
  // failure's patterns), plus the failing trace.
  EXPECT_FALSE(report.patterns.empty());
  EXPECT_EQ(engine::StatsFor(report.stages.passes, engine::PassId::kTraceProcess).runs,
            2 * unique.size() + 1);
  return report;
}

// --- generated ---------------------------------------------------------------

struct Case {
  workloads::GeneratedBug bug;
  uint64_t seed;
  double skew = 0.5;  // OLTP classes only
};

// 8 bug classes x 13 seeds = 104 scenarios. OLTP classes alternate between
// the default mix and the high-skew tiny-keyspace regime (hot rows, many
// dynamic instances per racy instruction).
std::vector<Case> GeneratedCases() {
  const workloads::GeneratedBug bugs[] = {
      workloads::GeneratedBug::kInvalidationRace, workloads::GeneratedBug::kCheckThenUse,
      workloads::GeneratedBug::kStoreThroughStale, workloads::GeneratedBug::kLockInversion,
      workloads::GeneratedBug::kOltpRace,          workloads::GeneratedBug::kOltpAtomicity,
      workloads::GeneratedBug::kOltpOrder,         workloads::GeneratedBug::kOltpAbba,
  };
  std::vector<Case> cases;
  for (const workloads::GeneratedBug bug : bugs) {
    for (uint64_t seed = 1; seed <= 13; ++seed) {
      Case c{bug, seed};
      if (workloads::IsOltpBug(bug) && seed % 2 == 0) {
        c.skew = 0.8;
      }
      cases.push_back(c);
    }
  }
  return cases;
}

std::string GeneratedCaseId(const Case& c) {
  return CaseId(StrFormat("%s_s%llu_k%d", workloads::GeneratedBugName(c.bug),
                          (unsigned long long)c.seed, static_cast<int>(c.skew * 10)));
}

std::vector<std::string> GeneratedOrder() {
  std::vector<std::string> order;
  for (const Case& c : GeneratedCases()) {
    order.push_back(GeneratedCaseId(c));
  }
  return order;
}

// The generated set keeps the test ids of the two-engine differential sweep it
// replaced. The comparison is now the engine against the frozen lines, which
// were written while the indexed and the legacy pattern engines still agreed
// on every scenario.
class PatternDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(PatternDifferential, EnginesDiagnoseIdentically) {
  const Case& c = GetParam();
  workloads::GeneratorOptions options;
  options.seed = c.seed;
  options.bug = c.bug;
  if (workloads::IsOltpBug(c.bug)) {
    options.oltp.threads = 4;
    options.oltp.txns_per_thread = 6;
    options.oltp.keyspace = 4;
    options.oltp.hot_key_skew = c.skew;
  }
  const workloads::Workload w = workloads::GenerateWorkload(options);
  const Evidence evidence = Capture(w, /*budget=*/400, /*successes=*/4);
  ASSERT_TRUE(evidence.failing.has_value()) << "no failing run in 400 seeds";
  EXPECT_GT(evidence.successes.size(), 0u);

  const core::DiagnosisReport report = Diagnose(w, *evidence.failing, evidence.successes, {});
  ExpectGolden("generated", GeneratedOrder(), GeneratedCaseId(c), report);
  ExpectProjectionOracle(w, evidence.successes, report);
  {
    SCOPED_TRACE("successes submitted before the failing trace");
    ExpectFrozen("generated", GeneratedCaseId(c),
                 DiagnoseSuccessesFirst(w, *evidence.failing, evidence.successes));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PatternDifferential, ::testing::ValuesIn(GeneratedCases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return GeneratedCaseId(info.param);
                         });

// --- patterns ----------------------------------------------------------------

std::vector<std::string> PatternCaseIds() {
  std::vector<std::string> ids;
  for (const bench::NamedWorkload& nw : bench::PatternBenchWorkloads()) {
    ids.push_back(CaseId(nw.name));
  }
  return ids;
}

class GoldenPatterns : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenPatterns, MatchesFrozenDigest) {
  const std::vector<std::string> order = PatternCaseIds();
  for (const bench::NamedWorkload& nw : bench::PatternBenchWorkloads()) {
    if (CaseId(nw.name) != GetParam()) {
      continue;
    }
    const Evidence evidence = Capture(nw.workload, /*budget=*/3000, /*successes=*/0);
    ASSERT_TRUE(evidence.failing.has_value()) << "no failing run in 3000 seeds";
    core::DiagnosisServer::Options options;
    options.patterns.max_patterns = 512;
    ExpectGolden("patterns", order, GetParam(),
                 Diagnose(nw.workload, *evidence.failing, {}, options));
    return;
  }
  FAIL() << "unknown workload " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Micro, GoldenPatterns, ::testing::ValuesIn(PatternCaseIds()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- catalogue ---------------------------------------------------------------

std::vector<std::string> CatalogueNames() {
  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::AllWorkloads()) {
    names.push_back(info.name);
  }
  return names;
}

class GoldenCatalogue : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenCatalogue, MatchesFrozenDigest) {
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({GetParam()});
  ASSERT_EQ(sites.size(), 1u) << "site did not reproduce";
  const bench::CapturedSite& site = sites[0];
  const core::DiagnosisReport report =
      Diagnose(site.workload, site.failing, site.successes, {});
  ExpectGolden("catalogue", CatalogueNames(), GetParam(), report);
  ExpectProjectionOracle(site.workload, site.successes, report);
}

INSTANTIATE_TEST_SUITE_P(Catalogue, GoldenCatalogue, ::testing::ValuesIn(CatalogueNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace snorlax
