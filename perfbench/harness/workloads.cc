#include "workloads.h"

#include <algorithm>
#include <utility>

#include "core/client.h"
#include "ir/verifier.h"
#include "wire/serialize.h"
#include "workloads/generator.h"
#include "workloads/oltp/oltp.h"

namespace perfbench {

namespace sx = snorlax;

namespace {

constexpr size_t kSuccessesPerSite = 10;
// Client executions spent reproducing one site's failure, and again gathering
// its success traces.
constexpr uint64_t kReproBudget = 3000;

// The accuracy sweep's grid (bench/bench_accuracy_sweep.cc).
struct Contention {
  int keyspace;
  double skew;
};
constexpr Contention kContention[] = {{16, 0.2}, {8, 0.5}, {4, 0.8}};
constexpr sx::workloads::GeneratedBug kClasses[] = {
    sx::workloads::GeneratedBug::kOltpRace,
    sx::workloads::GeneratedBug::kOltpAtomicity,
    sx::workloads::GeneratedBug::kOltpOrder,
    sx::workloads::GeneratedBug::kOltpAbba,
};

sx::core::ClientRun TimedRun(sx::core::DiagnosisClient& client, uint64_t seed,
                             const std::vector<std::pair<sx::ir::InstId, int>>& dump_points,
                             SpanRecorder* spans, uint64_t request) {
  const uint32_t span = spans->Begin("runtime.client_run", 0, request);
  sx::core::ClientRun run = client.RunOnce(seed, dump_points);
  spans->End(span);
  return run;
}

std::vector<uint8_t> TimedEncode(const sx::pt::PtTraceBundle& bundle, SpanRecorder* spans,
                                 uint64_t request) {
  std::vector<uint8_t> bytes;
  const uint32_t span = spans->Begin("wire.encode", 0, request);
  sx::wire::EncodeBundle(bundle, &bytes);
  spans->End(span);
  return bytes;
}

// Captures `failing_wanted` failing bundles of the expected kind, scanning
// client seeds from 1, then up to kSuccessesPerSite success bundles at the
// dump points a scout server asks for, from the next client seeds. False when
// the failure does not reproduce within the budget.
bool Capture(Site& site, size_t failing_wanted, SpanRecorder* spans, uint64_t request) {
  const sx::workloads::Workload& w = site.workload;
  sx::core::ClientOptions copts;
  copts.interp = w.interp;
  copts.entry = w.entry;
  sx::core::DiagnosisClient client(w.module.get(), copts);
  site.fingerprint = sx::pt::ModuleFingerprint(*w.module);

  sx::core::DiagnosisServer scout(w.module.get());
  uint64_t seed = 1;
  const uint64_t last = 1 + kReproBudget;
  for (; seed < last && site.failing.size() < failing_wanted; ++seed) {
    sx::core::ClientRun run = TimedRun(client, seed, {}, spans, request);
    if (!run.result.failure.IsFailure() || !run.trace.has_value() ||
        run.result.failure.kind != w.expected_failure) {
      continue;
    }
    if (site.failing.empty()) {
      site.failing_inst = run.trace->failure.failing_inst;
      if (!scout.SubmitFailingTrace(*run.trace).ok()) {
        return false;
      }
    } else if (run.trace->failure.failing_inst != site.failing_inst) {
      continue;  // another site of the same program; keep one site per entry
    }
    site.failing.push_back(TimedEncode(*run.trace, spans, request));
  }
  if (site.failing.size() < failing_wanted) {
    return false;
  }
  const auto dump_points = scout.RequestedDumpPoints();
  const uint64_t success_last = seed + kReproBudget;
  for (; seed < success_last && site.successes.size() < kSuccessesPerSite; ++seed) {
    sx::core::ClientRun run = TimedRun(client, seed, dump_points, spans, request);
    if (run.result.failure.IsFailure() || !run.trace.has_value()) {
      continue;
    }
    site.successes.push_back(TimedEncode(*run.trace, spans, request));
  }
  return true;
}

}  // namespace

std::vector<Site> BuildOltpCohort(size_t count, SpanRecorder* spans, SetupStats* stats) {
  std::vector<Site> sites;
  // Scenario i has generator seed kScenarioSeedBase + i.
  constexpr uint64_t kScenarioSeedBase = 2000;
  for (size_t i = 0; sites.size() < count && i < 4 * count; ++i) {
    sx::workloads::GeneratorOptions options;
    options.bug = kClasses[i % 4];
    options.seed = kScenarioSeedBase + i;
    options.helper_depth = 1 + static_cast<int>(i % 3);
    const Contention& c = kContention[(i / 4) % 3];
    options.oltp.keyspace = c.keyspace;
    options.oltp.hot_key_skew = c.skew;
    ++stats->scenarios_generated;
    sx::workloads::oltp::OltpScenario scenario =
        sx::workloads::oltp::GenerateOltpScenario(options);
    Site site;
    site.truth_kind = scenario.truth.kind;
    site.truth_root = scenario.truth.root_inst;
    site.truth_events = scenario.truth.racy_insts;
    site.workload = std::move(scenario.workload);
    if (!scenario.truth.injected || !sx::ir::VerifyModule(site.module()).empty() ||
        !Capture(site, 1, spans, sites.size())) {
      ++stats->scenarios_unreproduced;
      continue;
    }
    sites.push_back(std::move(site));
  }
  return sites;
}

std::vector<Site> BuildCatalogueCohort(SpanRecorder* spans, SetupStats* stats) {
  std::vector<Site> sites;
  for (const sx::workloads::WorkloadInfo& info : sx::workloads::AllWorkloads()) {
    ++stats->scenarios_generated;
    Site site;
    site.workload = sx::workloads::Build(info.name);
    site.truth_kind = site.workload.bug_kind;
    site.truth_events = site.workload.truth_events;
    if (!Capture(site, site.workload.recommended_failing_traces, spans, sites.size())) {
      ++stats->scenarios_unreproduced;
      continue;
    }
    sites.push_back(std::move(site));
  }
  return sites;
}

std::vector<DecodedSite> DecodeSites(const std::vector<Site>& sites) {
  std::vector<DecodedSite> out(sites.size());
  for (size_t s = 0; s < sites.size(); ++s) {
    for (const auto& bytes : sites[s].failing) {
      out[s].failing.push_back(sx::wire::DecodeBundle(bytes).take());
    }
    for (const auto& bytes : sites[s].successes) {
      out[s].successes.push_back(sx::wire::DecodeBundle(bytes).take());
    }
  }
  return out;
}

bool RootCauseRanksFirst(const Site& site, const sx::core::DiagnosisReport& report) {
  for (const sx::core::DiagnosedPattern& cand : report.patterns) {
    if (cand.pattern.kind != site.truth_kind) {
      continue;
    }
    bool covers = false;
    if (site.truth_root != sx::ir::kInvalidInstId) {
      for (const sx::core::PatternEvent& e : cand.pattern.events) {
        covers |= e.inst == site.truth_root;
      }
    } else if (site.truth_kind == sx::core::PatternKind::kDeadlock) {
      // A deadlock cycle has no first event: every truth event is covered.
      covers = std::all_of(site.truth_events.begin(), site.truth_events.end(),
                           [&](sx::ir::InstId t) {
                             return std::any_of(
                                 cand.pattern.events.begin(), cand.pattern.events.end(),
                                 [&](const sx::core::PatternEvent& e) { return e.inst == t; });
                           });
    } else {
      // The integration tests' ordering accuracy: the pattern's events that
      // are truth events (at least two) appear in the truth order.
      std::vector<sx::ir::InstId> hits;
      for (const sx::core::PatternEvent& e : cand.pattern.events) {
        if (std::find(site.truth_events.begin(), site.truth_events.end(), e.inst) !=
            site.truth_events.end()) {
          hits.push_back(e.inst);
        }
      }
      size_t matched = 0;
      for (sx::ir::InstId t : site.truth_events) {
        matched += matched < hits.size() && hits[matched] == t ? 1 : 0;
      }
      covers = hits.size() >= 2 && matched == hits.size();
    }
    if (!covers) {
      continue;
    }
    bool beaten = false;
    for (const sx::core::DiagnosedPattern& q : report.patterns) {
      beaten |= q.f1 > cand.f1;
    }
    if (!beaten) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
