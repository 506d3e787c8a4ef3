// The repository benchmark: one workload per process, closed loop, at most
// two threads (the caller plus, on fleet_recurring, the daemon's poll thread).
//
//   perfbench --workload <ingest_cold|fleet_recurring> --seed N
//             --seconds S --trace <0|1> [--scratch DIR] [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
// perfbench/README.md). Each workload repeats one fixed input set, made from
// --seed, in equal rounds until --seconds have passed; throughput is the
// median of the per-round rates. The last line of stdout is the JSON result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/server.h"
#include "fleet.h"
#include "layers.h"
#include "measure.h"
#include "report/report.h"
#include "wire/serialize.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sx = snorlax;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-tmp";
  std::string spans_out;
};

constexpr size_t kOltpSites = 48;
// Set-ups per run; setup_s is their median. Enough that they span seconds on
// either workload (one catalogue set-up takes about 0.3 s, one OLTP set-up
// about 2.5 s).
constexpr int kIngestSetupReps = 5;
constexpr int kFleetSetupReps = 9;
// Latency percentiles need kMinSamplesBeyond samples past p90.
constexpr size_t kMinLatencySamples = 100;
// Fleet rounds per daemon session: the first is cold (decode misses) and is
// warm-up; the rest are the recurring traffic the metrics describe. Fresh
// sessions keep memory and per-round work the same however long the run.
constexpr size_t kFleetRoundsPerSession = 5;
// Traced runs validate the best repair candidate of this many sites, the
// first of the cohort.
constexpr size_t kValidateSites = 4;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Everything a run accumulates, across rounds.
struct Run {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t checks = 0;      // per-site correctness checks
  size_t checks_ok = 0;
  std::vector<double> round_rates;          // bundles/s, measured rounds
  std::vector<double> latency_ms;           // per site or per bundle
  std::vector<double> traced_round_s, untraced_round_s;
  double setup_s = 0.0;
  double replay_s = 0.0;  // traced runs: the layer replay
  size_t bundles_per_round = 0;
  double wire_bytes_per_bundle = 0.0;
  Samples samples;  // per-call samples, by span name
  SpanRecorder spans{false};        // the traced rounds
  SpanRecorder setup_spans{false};  // the last set-up repetition
  std::vector<DecodeAttachment> decodes;  // trace.process spans awaiting pt.decode
  // Server counters of the measured rounds.
  uint64_t store_hits = 0, store_lookups = 0;
  sx::engine::PassStatsTable passes{};
  uint64_t success_capped = 0, rejected = 0;
  uint64_t retransmits = 0, reconnects = 0, frames_corrupt = 0;
  SetupStats setup;
};

void AddServerCounters(const sx::core::DiagnosisServer& server, size_t successes_sent,
                       Run* run) {
  const sx::engine::ArtifactStore::Stats store = server.artifact_stats();
  run->store_hits += store.hits;
  run->store_lookups += store.hits + store.misses;
  const sx::engine::PassStatsTable passes = server.pass_stats();
  for (size_t i = 0; i < passes.size(); ++i) {
    run->passes[i].runs += passes[i].runs;
    run->passes[i].cache_hits += passes[i].cache_hits;
  }
  const size_t kept = server.NumSuccessTraces();
  run->success_capped += successes_sent > kept ? successes_sent - kept : 0;
  run->rejected += server.degradation().rejected_bundles;
}

// setup_s: the median of several timed set-ups. The first builds the cohort
// the run uses (into `setup_spans`, which record when tracing); the others
// rebuild it and throw it away, spread evenly over the measured window
// between rounds. The host's speed drifts over tens of seconds, so set-ups
// made back to back would sample one moment of it; spread out, they sample
// the same minute as the rounds.
class TimedSetup {
 public:
  using Build = std::function<std::vector<Site>(SpanRecorder*, SetupStats*)>;

  TimedSetup(int reps, Build build)
      : reps_(static_cast<size_t>(reps)), build_(std::move(build)) {}

  std::vector<Site> First(Run* run) { return Timed(&run->setup_spans, &run->setup); }

  // Between rounds of the window [start, deadline): the next set-up, if due.
  void Between(int64_t start, int64_t deadline) {
    const int64_t due = start + (deadline - start) * static_cast<int64_t>(secs_.size()) /
                                    static_cast<int64_t>(reps_);
    if (secs_.size() < reps_ && NowNs() >= due) {
      Again();
    }
  }

  // The set-ups the window did not reach; returns the median seconds.
  double Finish() {
    while (secs_.size() < reps_) {
      Again();
    }
    std::printf("# set-ups (s):");
    for (double x : secs_) {
      std::printf(" %.3f", x);
    }
    std::printf("\n");
    return Median(secs_);
  }

 private:
  std::vector<Site> Timed(SpanRecorder* spans, SetupStats* stats) {
    const int64_t t0 = NowNs();
    std::vector<Site> sites = build_(spans, stats);
    secs_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    return sites;
  }
  void Again() {
    SpanRecorder off(false);
    SetupStats stats;
    Timed(&off, &stats);
  }

  size_t reps_;
  Build build_;
  std::vector<double> secs_;
};

void CohortShape(const std::vector<Site>& sites, Run* run) {
  size_t bundles = 0, bytes = 0;
  for (const Site& site : sites) {
    bundles += site.bundles();
    for (const auto& b : site.failing) {
      bytes += b.size();
    }
    for (const auto& b : site.successes) {
      bytes += b.size();
    }
  }
  run->bundles_per_round = bundles;
  run->wire_bytes_per_bundle = bundles ? static_cast<double>(bytes) / bundles : 0.0;
}

// The replay of every site's bundles (traced runs only).
std::vector<SiteCost> ReplayCosts(const std::vector<Site>& sites,
                                  const std::vector<DecodedSite>& decoded,
                                  const std::string& scratch, Run* run) {
  std::vector<SiteCost> costs;
  for (size_t s = 0; s < sites.size(); ++s) {
    costs.push_back(ReplayBundles(sites[s], decoded[s], scratch + "/replay-log", &run->samples));
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch + "/replay-log", ec);
  return costs;
}

// One ingest_cold round: every site, in `order`, on a fresh DiagnosisServer,
// from its bundles' wire bytes to an encoded report. Returns the summed timed
// seconds.
double IngestRound(const std::vector<Site>& sites, const std::vector<size_t>& order,
                   SpanRecorder* spans, Run* run) {
  double round_s = 0.0;
  for (const size_t s : order) {
    const Site& site = sites[s];
    sx::core::DiagnosisServer server(&site.module());
    size_t failed = 0;
    // Traced rounds snapshot the server's pass counters around each call.
    sx::engine::PassStatsTable before{};

    const uint32_t request = spans->Begin("request", 0, s);
    const int64_t t0 = NowNs();
    auto submit = [&](const std::vector<uint8_t>& bytes, bool failing, size_t index) {
      uint32_t span = spans->Begin("wire.decode", request, s);
      sx::support::Result<sx::pt::PtTraceBundle> bundle = sx::wire::DecodeBundle(bytes);
      spans->End(span);
      if (!bundle.ok()) {
        ++failed;
        return;
      }
      if (spans->enabled()) {
        before = server.pass_stats();
      }
      span = spans->Begin(failing ? "core.submit_failing" : "core.submit_success", request, s);
      const sx::support::Status status = failing ? server.SubmitFailingTrace(bundle.value())
                                                 : server.SubmitSuccessTrace(bundle.value());
      spans->End(span);
      failed += status.ok() ? 0 : 1;
      if (span != 0) {
        const uint32_t process =
            AttachPassDeltas(before, server.pass_stats(), span, s, spans, &run->samples);
        if (process != 0) {
          run->decodes.push_back(DecodeAttachment{process, s, failing, index});
        }
      }
    };
    for (size_t i = 0; i < site.failing.size(); ++i) {
      submit(site.failing[i], true, i);
    }
    for (size_t i = 0; i < site.successes.size(); ++i) {
      submit(site.successes[i], false, i);
    }
    if (spans->enabled()) {
      before = server.pass_stats();
    }
    uint32_t span = spans->Begin("core.diagnose", request, s);
    sx::core::DiagnosisReport diagnosis = server.Diagnose();
    spans->End(span);
    if (span != 0) {
      AttachPassDeltas(before, server.pass_stats(), span, s, spans, &run->samples);
    }
    const bool rank1 = RootCauseRanksFirst(site, diagnosis);
    span = spans->Begin("report.make", request, s);
    const sx::report::Report report =
        sx::report::MakeReport(std::move(diagnosis), site.fingerprint, site.workload.name);
    spans->End(span);
    std::vector<uint8_t> encoded;
    span = spans->Begin("report.encode", request, s);
    sx::report::EncodeReport(report, &encoded);
    spans->End(span);
    const int64_t t1 = NowNs();
    spans->End(request);

    const double site_s = static_cast<double>(t1 - t0) * 1e-9;
    round_s += site_s;
    run->latency_ms.push_back(site_s * 1e3);
    if (spans->enabled()) {
      run->samples["report.bytes_count"].push_back(static_cast<double>(encoded.size()));
      AddServerCounters(server, site.successes.size(), run);
    }
    if (!rank1 && run->checks < sites.size()) {
      std::printf("# check failed in the first round: %s (root cause not ranked first)\n",
                  site.workload.name.c_str());
    }
    ++run->checks;
    run->checks_ok += rank1 ? 1 : 0;
    run->attempted += site.bundles() + 1;
    run->failed += failed + (rank1 ? 0 : 1);
  }
  return round_s;
}

// ingest_cold: rounds over fresh servers until the time is up. The cohort is
// fixed; the seed draws the order of the sites in each round.
void RunIngestWorkload(const Args& args, Run* run) {
  TimedSetup setup(kIngestSetupReps, [&](SpanRecorder* spans, SetupStats* stats) {
    return BuildOltpCohort(kOltpSites, spans, stats);
  });
  const std::vector<Site> sites = setup.First(run);
  CohortShape(sites, run);
  std::mt19937_64 rng(args.seed);
  std::vector<size_t> order(sites.size());
  std::iota(order.begin(), order.end(), 0);
  SpanRecorder off(false);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t round = 0; NowNs() < deadline || run->latency_ms.size() < kMinLatencySamples;
       ++round) {
    setup.Between(start, deadline);
    // Traced runs alternate traced and untraced rounds: the difference is
    // the tracing overhead.
    const bool traced = args.trace && round % 2 == 0;
    std::shuffle(order.begin(), order.end(), rng);
    const double s = IngestRound(sites, order, traced ? &run->spans : &off, run);
    run->round_rates.push_back(static_cast<double>(run->bundles_per_round) / s);
    (traced ? run->traced_round_s : run->untraced_round_s).push_back(s);
  }
  run->setup_s = setup.Finish();
  if (args.trace) {
    // After the rounds, in a warmed-up process.
    const int64_t t0 = NowNs();
    const std::vector<DecodedSite> decoded = DecodeSites(sites);
    AttachDecodes(run->decodes, ReplayCosts(sites, decoded, args.scratch, run), &run->spans,
                  &run->samples);
    ReplayRepair(sites, decoded, kValidateSites, &run->samples);
    run->replay_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
}

void RunFleetWorkload(const Args& args, Run* run) {
  TimedSetup setup(kFleetSetupReps, [&](SpanRecorder* spans, SetupStats* stats) {
    return BuildCatalogueCohort(spans, stats);
  });
  const std::vector<Site> sites = setup.First(run);
  CohortShape(sites, run);
  const std::vector<DecodedSite> decoded = DecodeSites(sites);
  std::vector<SiteCost> costs;
  if (args.trace) {
    const int64_t t0 = NowNs();
    costs = ReplayCosts(sites, decoded, args.scratch, run);
    ReplayRepair(sites, decoded, kValidateSites, &run->samples);
    run->replay_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  // The digest reference: in-process when tracing (its timings explain the
  // daemon's calls), otherwise in a child, outside this process's peak RSS.
  std::unique_ptr<MirrorProcess> mirror;
  if (!args.trace) {
    mirror = std::make_unique<MirrorProcess>(sites, args.scratch + "/mirror");
  }
  SpanRecorder off(false);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  size_t global_round = 0;
  for (size_t session_id = 0; NowNs() < deadline || run->latency_ms.size() < kMinLatencySamples;
       ++session_id) {
    setup.Between(start, deadline);
    const std::string dir = args.scratch + "/fleet-" + std::to_string(session_id);
    FleetSession session(sites, decoded, dir, args.seed * 1000003 + session_id);
    if (!session.Start().ok()) {
      ++run->attempted;
      ++run->failed;
      return;
    }
    std::vector<FleetRound> rounds;
    // Server counters of the warm rounds: the session's totals minus the
    // snapshot taken after the cold round.
    Run cold_counters;
    for (size_t r = 0; r < kFleetRoundsPerSession; ++r, ++global_round) {
      const bool cold = r == 0;
      const bool traced = args.trace && !cold && global_round % 2 == 0;
      rounds.push_back(session.Round(global_round, traced ? &run->spans : &off, global_round == 0));
      const FleetRound& round = rounds.back();
      run->attempted += round.attempted;
      run->failed += round.failed;
      run->checks += round.rank1_checks;
      run->checks_ok += round.rank1_ok;
      const auto& pool = session.daemon().pool();
      Run* counters = cold ? &cold_counters : run;
      if (cold || r + 1 == kFleetRoundsPerSession) {
        for (const sx::core::ServerPool::ShardKey& key : pool.SiteKeys()) {
          const sx::core::DiagnosisServer* shard =
              pool.shard(key.module_fingerprint, key.failing_inst);
          size_t successes = 0;
          for (const Site& site : sites) {
            if (site.fingerprint == key.module_fingerprint &&
                site.failing_inst == key.failing_inst) {
              successes = site.successes.size() * (r + 1);
            }
          }
          AddServerCounters(*shard, successes, counters);
        }
        counters->rejected += pool.routing_rejects();
      }
      if (cold) {
        continue;
      }
      run->round_rates.push_back(static_cast<double>(round.sent.size()) / round.seconds);
      run->latency_ms.insert(run->latency_ms.end(), round.ack_ms.begin(), round.ack_ms.end());
      (traced ? run->traced_round_s : run->untraced_round_s).push_back(round.seconds);
      if (traced) {
        auto& enc = run->samples["report.encode"];
        enc.insert(enc.end(), round.report_encode_ns.begin(), round.report_encode_ns.end());
        auto& bytes = run->samples["report.bytes_count"];
        bytes.insert(bytes.end(), round.report_bytes.begin(), round.report_bytes.end());
      }
    }
    // Warm-round counters: everything minus the cold snapshot.
    run->store_hits -= std::min(run->store_hits, cold_counters.store_hits);
    run->store_lookups -= std::min(run->store_lookups, cold_counters.store_lookups);
    for (size_t i = 0; i < run->passes.size(); ++i) {
      run->passes[i].runs -= std::min(run->passes[i].runs, cold_counters.passes[i].runs);
      run->passes[i].cache_hits -=
          std::min(run->passes[i].cache_hits, cold_counters.passes[i].cache_hits);
    }
    run->success_capped -= std::min(run->success_capped, cold_counters.success_capped);
    run->rejected -= std::min(run->rejected, cold_counters.rejected);
    run->retransmits += session.agent().stats().retries;
    run->reconnects += session.agent().stats().reconnects;
    run->frames_corrupt += session.daemon().stats().frames_corrupt;
    session.Stop();
    run->attempted += rounds.size();
    run->failed += mirror != nullptr ? mirror->Check(rounds)
                                     : MirrorCheck(sites, rounds, costs, dir + "-mirror",
                                                   &run->spans, &run->samples);
  }
  run->setup_s = setup.Finish();
}

double P50(const Samples& samples, const std::string& name, double scale) {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : Median(it->second) * scale;
}
double P90(const Samples& samples, const std::string& name, double scale) {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : Percentile(it->second, 0.9) * scale;
}
double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
double HitRatio(const sx::engine::PassStats& p) {
  return Ratio(p.cache_hits, p.runs + p.cache_hits);
}

// Every per-call timing sample recorded as a measured (not duration-only) span.
void AddSpanSamples(Run* run) {
  for (const SpanRecorder* recorder : {&run->setup_spans, &run->spans}) {
    for (const Span& s : recorder->spans()) {
      if (!s.replay && s.name.find('.') != std::string::npos) {
        run->samples[s.name].push_back(static_cast<double>(s.duration()));
      }
    }
  }
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  const double correct_rate = Ratio(run.checks_ok, run.checks);
  return {
      {"setup_s", run.setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bundles_per_s", Median(run.round_rates), "1/s"},
      {"latency_p50_ms", Median(run.latency_ms), "ms"},
      {"latency_p90_ms", Percentile(run.latency_ms, 0.9), "ms"},
      {"wire_bytes_per_bundle", run.wire_bytes_per_bundle, "B"},
      {"correct_rate", correct_rate, "ratio"},
  };
}

const char* const kLayers[] = {"runtime", "pt",       "trace",  "wire",  "net",
                               "core",    "analysis", "engine", "report"};

std::vector<Metric> PerLayerMetrics(Run& run) {
  AddSpanSamples(&run);
  const Samples& s = run.samples;
  constexpr double kMs = 1e-6, kUs = 1e-3;
  using sx::engine::PassId;
  auto pass = [&](PassId id) { return run.passes[static_cast<size_t>(id)]; };
  std::vector<Metric> m = {
      {"runtime.client_run_ms_p50", P50(s, "runtime.client_run", kMs), "ms"},
      {"runtime.validate_ms_p50", P50(s, "runtime.validate", kMs), "ms"},
      {"runtime.validate_interp_runs", P50(s, "runtime.validate_runs_count", 1.0), "count"},
      {"pt.decode_ms_p50", P50(s, "pt.decode", kMs), "ms"},
      {"pt.events_per_bundle", P50(s, "pt.events_count", 1.0), "count"},
      {"pt.trace_bytes_per_run", P50(s, "pt.trace_bytes_count", 1.0), "B"},
      {"trace.build_ms_p50", P50(s, "trace.build", kMs), "ms"},
      {"trace.build_ms_p90", P90(s, "trace.build", kMs), "ms"},
      {"trace.instances_per_bundle", P50(s, "trace.instances_count", 1.0), "count"},
      {"wire.decode_us_p50", P50(s, "wire.decode", kUs), "us"},
      {"wire.encode_us_p50", P50(s, "wire.encode", kUs), "us"},
      {"wire.frame_us_p50", P50(s, "wire.frame", kUs), "us"},
      {"net.flush_ms_p50", P50(s, "net.flush", kMs), "ms"},
      {"net.self_ms_p50", P50(s, "net.self", kMs), "ms"},
      {"net.retransmits", static_cast<double>(run.retransmits), "count"},
      {"net.reconnects", static_cast<double>(run.reconnects), "count"},
      {"net.frames_corrupt", static_cast<double>(run.frames_corrupt), "count"},
      {"core.submit_failing_ms_p50", P50(s, "core.submit_failing", kMs), "ms"},
      {"core.submit_success_ms_p50", P50(s, "core.submit_success", kMs), "ms"},
      {"core.diagnose_ms_p50", P50(s, "core.diagnose", kMs), "ms"},
      {"core.memo_hit_ratio", Ratio(run.store_hits, run.store_lookups), "ratio"},
      {"core.success_capped", static_cast<double>(run.success_capped), "count"},
      {"core.rejected", static_cast<double>(run.rejected), "count"},
      {"analysis.deref_chain_us_p50", P50(s, "analysis.deref_chain", kUs), "us"},
      {"analysis.points_to_ms_p50", P50(s, "analysis.points_to", kMs), "ms"},
      {"analysis.type_rank_us_p50", P50(s, "analysis.type_rank", kUs), "us"},
      {"engine.patterns_ms_p50", P50(s, "engine.patterns", kMs), "ms"},
      {"engine.score_ms_p50", P50(s, "engine.score", kMs), "ms"},
      {"engine.cache_hit_ratio.trace_process", HitRatio(pass(PassId::kTraceProcess)), "ratio"},
      {"engine.cache_hit_ratio.points_to", HitRatio(pass(PassId::kPointsTo)), "ratio"},
      {"engine.cache_hit_ratio.patterns", HitRatio(pass(PassId::kPatterns)), "ratio"},
      {"engine.cache_hit_ratio.score", HitRatio(pass(PassId::kScore)), "ratio"},
      {"engine.repair_build_ms_p50", P50(s, "engine.repair_build", kMs), "ms"},
      {"engine.durable_append_us_p50", P50(s, "engine.durable_append", kUs), "us"},
      {"report.encode_us_p50", P50(s, "report.encode", kUs), "us"},
      {"report.bytes", P50(s, "report.bytes_count", 1.0), "B"},
  };

  // Self time per layer over the traced rounds' spans; roots ("request",
  // "round") are the timed wall, and their own self time is unattributed.
  const std::map<std::string, int64_t> self = LayerSelfTimes(run.spans.spans());
  int64_t wall = 0;
  for (const Span& sp : run.spans.spans()) {
    wall += sp.parent == 0 ? sp.duration() : 0;
  }
  int64_t attributed = 0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const int64_t ns = it == self.end() ? 0 : it->second;
    attributed += ns;
    m.push_back({std::string(layer) + ".share_pct", 100.0 * Ratio(ns, wall), "%"});
  }
  m.push_back({"unattributed.share_pct",
               wall > 0 ? 100.0 * static_cast<double>(wall - attributed) / wall : 0.0, "%"});
  const double traced = Median(run.traced_round_s), untraced = Median(run.untraced_round_s);
  m.push_back({"tracing.overhead_pct", untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0,
               "%"});
  m.push_back({"tracing.spans", static_cast<double>(run.spans.spans().size()), "count"});
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest_cold|fleet_recurring> --seed N "
               "--seconds S --trace <0|1> [--scratch DIR] [--spans-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);

  // One CPU for the whole process (both threads): the closed loop never has
  // two requests in flight, and on a virtual machine a cross-CPU wake-up per
  // bundle costs more, and varies more from run to run, than the ingest path.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) == 0) {
      std::printf("# pinned to CPU %d\n", cpu);
    }
  }

  // Keep freed memory in the process. On a virtual machine, memory handed
  // back to the kernel can go back to the host, and faulting it in again
  // costs a varying share of each round: in paired 15 s fleet_recurring runs
  // on a 4-vCPU VM, bundles_per_s ranged 1143-1350 with glibc's defaults and
  // 1211-1289 with these settings, for 1 MB more peak RSS.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_TOP_PAD, 256 << 20);

  Run run;
  run.spans = SpanRecorder(args.trace);
  run.setup_spans = SpanRecorder(args.trace);
  if (args.workload == "ingest_cold") {
    RunIngestWorkload(args, &run);
  } else if (args.workload == "fleet_recurring") {
    RunFleetWorkload(args, &run);
  } else {
    return Usage();
  }

  std::printf("# workload %s seed %llu: %zu sites (%zu generated, %zu unreproduced), "
              "%zu bundles/round, %zu rounds measured\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              run.setup.scenarios_generated - run.setup.scenarios_unreproduced,
              run.setup.scenarios_generated, run.setup.scenarios_unreproduced,
              run.bundles_per_round, run.round_rates.size());
  std::printf("# per-round bundles/s: min %.1f q1 %.1f median %.1f q3 %.1f max %.1f\n",
              Percentile(run.round_rates, 0.0), Percentile(run.round_rates, 0.25),
              Median(run.round_rates), Percentile(run.round_rates, 0.75),
              Percentile(run.round_rates, 1.0));
  if (args.trace) {
    std::printf("# traced run: layer replay %.2f s\n", run.replay_s);
  }
  std::printf("# latency samples: %zu (%zu beyond p90%s)\n", run.latency_ms.size(),
              SamplesBeyond(run.latency_ms.size(), 0.9),
              PercentileSupported(run.latency_ms.size(), 0.9) ? "" : ", TOO FEW");
  std::vector<Metric> metrics = args.trace ? PerLayerMetrics(run) : EndToEndMetrics(run);
  for (const Metric& m : metrics) {
    if (!IsValidMetricName(m.name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n", m.name.c_str());
      return 1;
    }
    std::printf("# %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace && !args.spans_out.empty() &&
      !(run.spans.WriteTsv(args.spans_out) &&
        run.setup_spans.WriteTsv(args.spans_out + ".setup"))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
  }
  const bool correct = run.failed == 0 && run.checks_ok == run.checks &&
                       PercentileSupported(run.latency_ms.size(), 0.9);
  std::printf("%s\n", ResultJson(correct, run.attempted, run.failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
