// Ingest-throughput harness: replays pre-captured trace bundles against a
// ServerPool from N synthetic client threads and measures bundles/sec plus
// failing-submit latency percentiles.
//
// Capture is separated from measurement on purpose: reproducing a failure
// means running the interpreter thousands of times, which would swamp the
// number under test (server-side ingest + analysis). The harness captures
// each workload's failing bundle and up to 10 distinct success bundles once,
// then replays copies of them, so serial and concurrent runs submit the exact
// same multiset of bundles and must produce bit-identical diagnoses.
#ifndef SNORLAX_BENCH_THROUGHPUT_HARNESS_H_
#define SNORLAX_BENCH_THROUGHPUT_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/server_pool.h"
#include "support/status.h"
#include "workloads/workload.h"

namespace snorlax::bench {

// One workload's replayable traffic: the module, one failing bundle, and the
// distinct success bundles captured at the server-requested dump points.
struct CapturedSite {
  workloads::Workload workload;
  pt::PtTraceBundle failing;
  std::vector<pt::PtTraceBundle> successes;  // <= 10, all distinct seeds
};

// Captures the sites for `workload_names` (chaos-free: no fault injection).
// Workloads that fail to reproduce within the seed budget are skipped.
std::vector<CapturedSite> CaptureSites(const std::vector<std::string>& workload_names,
                                       size_t successes_per_site = 10);

struct ThroughputConfig {
  // Logical submission streams. Each stream replays the same script shape, so
  // the multiset of submitted bundles depends only on this count -- never on
  // `threads` -- and a 1-thread run is a true serial baseline for an 8-thread
  // run of the same config.
  size_t clients = 8;
  // OS threads driving the streams (streams are dealt round-robin). 1 = the
  // serial baseline.
  size_t threads = 8;
  // Times each stream replays its per-site script (1 failing bundle followed
  // by that stream's share of the success bundles).
  size_t rounds = 4;
};

struct ThroughputResult {
  size_t bundles_submitted = 0;
  double seconds = 0.0;
  double bundles_per_sec = 0.0;
  // Failing-submit wall-time percentiles (the latency a reporting client
  // observes), milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t shards = 0;
  // Order-insensitive digest of every shard's diagnosis (pattern keys, F1,
  // confusion counts, confidence, trace counts): equal digests mean the
  // concurrent run diagnosed bit-for-bit identically to the serial one.
  std::string report_digest;
};

// Replays the sites' traffic through a fresh ServerPool under `config` and
// diagnoses everything at the end. Thread t submits its site's failing bundle
// before any success bundle, so the 10x intake cap never drops differently
// between serial and concurrent runs.
ThroughputResult RunThroughput(const std::vector<CapturedSite>& sites,
                               const ThroughputConfig& config);

// Wire-size and decode-rate profile of a captured bundle set: encoded bundle
// payload bytes (varint/delta-compressed), measured on real workload traffic,
// plus raw PT decode throughput in events/sec over the same bundles.
struct IngestProfile {
  size_t bundles = 0;
  size_t bytes = 0;  // summed wire::EncodeBundle sizes
  double bytes_per_bundle = 0.0;
  size_t decoded_events = 0;
  double decode_events_per_sec = 0.0;
};
IngestProfile ProfileIngest(const std::vector<CapturedSite>& sites);

// Writes `json` plus a trailing newline to `path` (the BENCH_ingest.json
// trajectory files emitted by --json=<path>).
support::Status WriteJsonFile(const std::string& path, const std::string& json);

// Machine-readable summary of a serial-vs-concurrent comparison, one JSON
// object on a single line (the CLI and the bench binary emit the same shape).
std::string ThroughputJson(const ThroughputConfig& config, size_t sites,
                           const ThroughputResult& serial, const ThroughputResult& parallel,
                           const IngestProfile& profile);

// Order-stable content digest of one diagnosis (pattern keys, F1, confusion
// counts, confidence, trace counts; no wall times): equal digests mean two
// diagnoses are bit-for-bit identical. The golden digests under tests/golden/
// and micro_patterns hash this text.
std::string DigestReport(const core::DiagnosisReport& report);

// DigestReport of every shard of a DiagnoseAll() result, each prefixed with
// its site key -- shared by the throughput bench (serial vs concurrent) and
// the fleet bench (loopback TCP vs in-process).
std::string DigestReports(const std::vector<core::ServerPool::ShardReport>& reports);

// Flags shared by every throughput-style front-end (bench_throughput,
// bench_fleet, and the matching snorlax_cli subcommands), parsed in one
// place so the binaries and the CLI cannot drift apart.
struct HarnessFlags {
  ThroughputConfig config;
  // Fleet front-ends only; ignored by bench-throughput.
  size_t agents = 4;          // --agents=M: concurrent TCP agents
  std::string faults;         // --faults=kind@rate[,...]: chaos plan spec
  uint64_t fault_seed = 1;    // --fault-seed=N
  // Cluster mode (bench_fleet only): 0 = single-daemon fleet mode.
  size_t daemons = 0;         // --daemons=N: ring of N daemons
  bool kill_restart = false;  // --kill-restart: chaos-kill one member mid-run
  std::string data_dir;       // --data-dir=<path>: durable-log root
  bool json_only = false;     // --json: restrict stdout to the JSON line
  std::string json_path;      // --json=<path>: also write the JSON line there
};

// Parses argv[first..argc) into `flags` (whose fields are the defaults).
// --clients=N also sets threads=N (a stream per thread unless --threads says
// otherwise). Unknown flags yield kInvalidArgument naming the flag.
support::Status ParseHarnessFlags(int argc, char** argv, int first, HarnessFlags* flags);

// The shared tail of every bench front-end, honoring the --json/--json=<path>
// flags in one place: writes `json` to flags.json_path when set (error status
// on failure, already printed to stderr), runs `print_human` unless --json
// restricted output to the machine-readable line, then prints the JSON line.
support::Status EmitBenchJson(const HarnessFlags& flags, const std::string& json,
                              const std::function<void()>& print_human);

}  // namespace snorlax::bench

#endif  // SNORLAX_BENCH_THROUGHPUT_HARNESS_H_
