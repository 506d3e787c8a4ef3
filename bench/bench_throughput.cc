// Ingest throughput: bundles/sec and failing-submit latency of the sharded
// diagnosis service, serial baseline vs concurrent ingest. The exit code
// checks one thing: serial and concurrent ingest of the same bundle multiset
// must produce digest-identical diagnoses (1 = divergence). The speedup is
// reported, not gated.
//
// Flags: --clients=N --threads=M --rounds=R --json
// --json=<path> (--json restricts stdout to the single-line JSON object;
// --json=<path> additionally writes it to <path>, e.g. BENCH_ingest.json).
// Parsed by the shared ParseHarnessFlags, so this binary and the
// snorlax_cli bench subcommands cannot drift apart.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/throughput_harness.h"
#include "support/str.h"

using namespace snorlax;

int main(int argc, char** argv) {
  bench::HarnessFlags flags;
  flags.config.rounds = 4;
  const support::Status parsed = bench::ParseHarnessFlags(argc, argv, 1, &flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  const bench::ThroughputConfig& config = flags.config;

  // Chaos-free mix spanning the catalogue's failure kinds and module sizes.
  const std::vector<std::string> mix = {"pbzip2_main", "sqlite_1672", "mysql_169",
                                        "dbcp_270", "httpd_25520", "memcached_127"};
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites(mix);
  if (sites.empty()) {
    std::fprintf(stderr, "no workload reproduced a failure; nothing to measure\n");
    return 1;
  }

  bench::ThroughputConfig serial_config = config;
  serial_config.threads = 1;
  const bench::ThroughputResult serial = bench::RunThroughput(sites, serial_config);
  const bench::ThroughputResult parallel = bench::RunThroughput(sites, config);
  const bench::IngestProfile profile = bench::ProfileIngest(sites);
  const std::string json = bench::ThroughputJson(config, sites.size(), serial, parallel, profile);
  const support::Status emitted = bench::EmitBenchJson(flags, json, [&] {
    bench::PrintHeader(StrFormat(
        "Ingest throughput: %zu sites, %zu client streams x %zu rounds\n"
        "(serial = 1 thread; concurrent = %zu threads)",
        sites.size(), config.clients, config.rounds, config.threads));
    const std::vector<int> widths = {12, 10, 12, 10, 10};
    bench::PrintRow({"mode", "bundles", "bundles/s", "p50[ms]", "p99[ms]"}, widths);
    bench::PrintRow({"serial", StrFormat("%zu", serial.bundles_submitted),
                     FormatDouble(serial.bundles_per_sec, 1), FormatDouble(serial.p50_ms, 3),
                     FormatDouble(serial.p99_ms, 3)},
                    widths);
    bench::PrintRow({"concurrent", StrFormat("%zu", parallel.bundles_submitted),
                     FormatDouble(parallel.bundles_per_sec, 1),
                     FormatDouble(parallel.p50_ms, 3), FormatDouble(parallel.p99_ms, 3)},
                    widths);
    std::printf("\nspeedup: %.2fx; diagnoses identical: %s\n",
                serial.bundles_per_sec > 0 ? parallel.bundles_per_sec / serial.bundles_per_sec
                                           : 0.0,
                serial.report_digest == parallel.report_digest ? "yes" : "NO");
    std::printf("wire: %.0f B/bundle; decode %.0f events/s\n", profile.bytes_per_bundle,
                profile.decode_events_per_sec);
  });
  if (!emitted.ok()) {
    return 2;
  }
  return serial.report_digest == parallel.report_digest ? 0 : 1;
}
