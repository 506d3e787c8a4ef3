// Fleet-ingestion throughput: M agents ship captured bundles over loopback
// TCP to the diagnosis daemon, K flush rounds each. Reports bundles/sec and
// end-to-end ack latency percentiles, and checks the acceptance property:
// reports streamed back over the wire are digest-identical to feeding the
// same bundle multiset to an in-process ServerPool.
//
// Flags: --agents=M --rounds=K --faults=kind@rate[,...] --fault-seed=N
// --json --json=<path> (--faults adds wire chaos; digest
// identity must survive it -- retransmission and dedup recover every
// corrupted frame; --json=<path> writes the JSON line to <path>).
//
// Cluster mode: --daemons=N runs a consistent-hash ring of N daemons and
// routes by site ownership; --data-dir=<path> gives each member a durable
// log; --kill-restart additionally kills the busiest member after the first
// round and times its cold-start from that log. The acceptance property is
// the same: the fleet-wide DiagnoseAll must be digest-identical to one
// in-process pool fed the same multiset, chaos included.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fleet_harness.h"
#include "bench/throughput_harness.h"
#include "support/str.h"

using namespace snorlax;

int main(int argc, char** argv) {
  bench::HarnessFlags flags;
  flags.agents = 4;
  flags.config.rounds = 2;
  const support::Status parsed = bench::ParseHarnessFlags(argc, argv, 1, &flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  bench::FleetConfig config;
  config.agents = flags.agents;
  config.rounds = flags.config.rounds;
  if (!flags.faults.empty()) {
    auto plan = faults::FaultPlan::Parse(flags.faults, flags.fault_seed);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults spec: %s\n", plan.status().ToString().c_str());
      return 2;
    }
    config.chaos = plan.value();
    // Chaos stalls are bounded by the ack timeout; keep retransmits cheap.
    config.io_timeout_ms = 1000;
  }

  const std::vector<std::string> mix = {"pbzip2_main", "sqlite_1672", "memcached_127"};
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites(mix);
  if (sites.empty()) {
    std::fprintf(stderr, "no workload reproduced a failure; nothing to measure\n");
    return 1;
  }

  if (flags.daemons > 0) {
    bench::ClusterConfig cconfig;
    cconfig.daemons = flags.daemons;
    cconfig.rounds = flags.config.rounds;
    cconfig.kill_restart = flags.kill_restart;
    cconfig.data_dir = flags.data_dir;
    if (cconfig.kill_restart && cconfig.data_dir.empty()) {
      cconfig.data_dir = "/tmp/snorlax-bench-cluster";  // chaos needs a log to recover from
    }
    const bench::ClusterResult result = bench::RunCluster(sites, cconfig);
    const std::string json = bench::ClusterJson(cconfig, sites.size(), result);
    const support::Status emitted = bench::EmitBenchJson(flags, json, [&] {
      bench::PrintHeader(StrFormat(
          "Cluster ingestion: %zu sites over a %zu-daemon ring x %zu rounds%s",
          sites.size(), cconfig.daemons, cconfig.rounds,
          cconfig.kill_restart ? " (kill/restart chaos)" : ""));
      const std::vector<int> widths = {10, 10, 12, 12, 12};
      bench::PrintRow({"bundles", "rerouted", "bounces", "reconnects", "bundles/s"},
                      widths);
      bench::PrintRow({StrFormat("%zu", result.bundles_sent),
                       StrFormat("%zu", result.bundles_rerouted),
                       StrFormat("%zu", result.wrong_shard_bounces),
                       StrFormat("%zu", result.reconnects),
                       FormatDouble(result.bundles_per_sec, 1)},
                      widths);
      std::string spread;
      for (size_t i = 0; i < result.bundles_by_daemon.size(); ++i) {
        spread += StrFormat("%s%zu", i == 0 ? "" : " ", result.bundles_by_daemon[i]);
      }
      std::printf("\ningest spread across the ring: [%s]\n", spread.c_str());
      if (cconfig.kill_restart) {
        std::printf("recovery: %.3f s to replay %zu record(s) across %zu site(s)\n",
                    result.recovery_seconds, result.recovered_records,
                    result.recovered_sites);
      }
      std::printf("reports: %zu; cluster == in-process digests: %s\n",
                  result.reports_received, result.digests_match ? "yes" : "NO");
      if (!result.status.ok()) {
        std::printf("cluster status: %s\n", result.status.ToString().c_str());
      }
    });
    if (!emitted.ok()) {
      return 2;
    }
    return result.digests_match && result.status.ok() ? 0 : 1;
  }

  const bench::FleetResult result = bench::RunFleet(sites, config);
  const std::string json = bench::FleetJson(config, sites.size(), result);
  const support::Status emitted = bench::EmitBenchJson(flags, json, [&] {
    bench::PrintHeader(StrFormat(
        "Fleet ingestion over loopback TCP: %zu sites, %zu agents x %zu rounds%s",
        sites.size(), config.agents, config.rounds,
        config.chaos.faults.empty()
            ? ""
            : StrFormat(" (chaos %s)", config.chaos.ToString().c_str()).c_str()));
    const std::vector<int> widths = {10, 10, 12, 10, 10};
    bench::PrintRow({"bundles", "acked", "bundles/s", "p50[ms]", "p99[ms]"}, widths);
    bench::PrintRow({StrFormat("%zu", result.bundles_sent),
                     StrFormat("%zu", result.bundles_acked),
                     FormatDouble(result.bundles_per_sec, 1),
                     FormatDouble(result.p50_ms, 3), FormatDouble(result.p99_ms, 3)},
                    widths);
    std::printf("\nreports streamed: %zu; wire == in-process digests: %s\n",
                result.reports_received, result.digests_match ? "yes" : "NO");
    std::printf("wire: %zu bytes total, %.0f B/bundle\n", result.wire_bytes_sent,
                result.bytes_per_bundle);
    if (!result.status.ok()) {
      std::printf("fleet status: %s\n", result.status.ToString().c_str());
    }
  });
  if (!emitted.ok()) {
    return 2;
  }
  return result.digests_match && result.status.ok() ? 0 : 1;
}
