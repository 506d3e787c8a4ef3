// Fleet-ingestion harness: replays captured trace bundles through the wire
// path -- M DiagnosisAgents over loopback TCP into one DiagnosisDaemon -- and
// measures bundles/sec plus end-to-end ack latency percentiles.
//
// The acceptance property is digest identity: the daemon ingests into the
// same ServerPool the in-process benches use, so shipping the identical
// bundle multiset over the wire must produce bit-identical diagnoses. The
// harness computes both digests (reports streamed back over TCP, and a fresh
// in-process pool fed directly) and compares them. Because agents retransmit
// unacknowledged bundles and the daemon dedups by sequence number, the
// property holds even under a chaos plan corrupting frames in flight -- the
// wire may lose frames, but never evidence.
#ifndef SNORLAX_BENCH_FLEET_HARNESS_H_
#define SNORLAX_BENCH_FLEET_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/throughput_harness.h"
#include "faults/fault_plan.h"

namespace snorlax::bench {

struct FleetConfig {
  // Concurrent TCP agents; agent t replays the same per-site script shape as
  // throughput stream t, so the submitted multiset depends only on this
  // count and `rounds`.
  size_t agents = 4;
  // Times each agent replays its per-site script (1 failing bundle per site,
  // plus -- first round only -- that agent's share of the success bundles).
  size_t rounds = 2;
  // Chaos plan applied by every agent to its outgoing frames (kFrameCorrupt
  // specs; empty = clean wire). Each agent derives its own seed from
  // plan.seed + agent index so the fleet does not corrupt in lockstep.
  faults::FaultPlan chaos;
  // Agent-side knobs: small timeouts keep chaos-induced retransmits cheap.
  int io_timeout_ms = 5000;
  size_t max_attempts = 10;
};

struct FleetResult {
  size_t bundles_sent = 0;      // enqueued across all agents
  size_t bundles_acked = 0;
  size_t bundles_duplicate = 0;     // absorbed by daemon dedup
  size_t frames_chaos_corrupted = 0;  // injected by the agents' chaos plans
  size_t daemon_frames_corrupt = 0;   // corruption events the daemon detected
  size_t reconnects = 0;
  double seconds = 0.0;
  double bundles_per_sec = 0.0;
  // End-to-end (first transmit -> ack) latency percentiles, milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  // Encoded bundle-frame bytes the agents handed to their sockets
  // (retransmissions included) and the per-acked-bundle average: the wire
  // footprint of the bundle payload format.
  size_t wire_bytes_sent = 0;
  double bytes_per_bundle = 0.0;
  size_t reports_received = 0;  // shard reports streamed back over the wire
  std::string wire_digest;       // digest of the streamed reports
  std::string inprocess_digest;  // same multiset fed directly to a fresh pool
  bool digests_match = false;
  // First agent-side failure (kOk when the whole fleet flushed cleanly).
  support::Status status;
};

// Ships the sites' traffic through a daemon on an ephemeral loopback port
// under `config`, requests diagnosis over the wire, and replays the same
// multiset in-process for the digest comparison.
FleetResult RunFleet(const std::vector<CapturedSite>& sites, const FleetConfig& config);

// One-line JSON summary (the CLI subcommand and bench binary emit the same
// shape).
std::string FleetJson(const FleetConfig& config, size_t sites, const FleetResult& result);

// -- Cluster mode -------------------------------------------------------------

struct ClusterConfig {
  // Ring members; each is one DiagnosisDaemon on its own loopback port with
  // its own durable-log directory under data_dir.
  size_t daemons = 3;
  // Times the (single, ring-aware) cluster agent replays the per-site script.
  size_t rounds = 2;
  int io_timeout_ms = 5000;
  size_t max_attempts = 10;
  // Kill one daemon (no drain) after the first round and restart it on the
  // same port from its durable log, timing the recovery. Requires data_dir.
  bool kill_restart = false;
  // Durable-log root (one subdirectory per daemon); wiped at the start of the
  // run. Empty = in-memory daemons (kill_restart unavailable).
  std::string data_dir;
};

struct ClusterResult {
  size_t bundles_sent = 0;
  size_t bundles_rerouted = 0;     // agent-side wrong-shard re-enqueues
  size_t wrong_shard_bounces = 0;  // daemon-side bounces (no seq consumed)
  size_t reconnects = 0;
  double seconds = 0.0;
  double bundles_per_sec = 0.0;
  // Kill/restart chaos: wall seconds from restart begin to a serving daemon
  // (durable-log replay included) and what the replay rebuilt.
  double recovery_seconds = 0.0;
  size_t recovered_sites = 0;
  size_t recovered_records = 0;
  // Per-daemon ingest counts: the consistent-hash spread.
  std::vector<size_t> bundles_by_daemon;
  size_t reports_received = 0;
  std::string wire_digest;       // fleet-wide DiagnoseAll over the wire
  std::string inprocess_digest;  // same multiset fed to one in-process pool
  bool digests_match = false;
  support::Status status;
};

// Runs the same per-site traffic through `daemons` ring members routed by
// consistent hash, optionally kill/restarting one member mid-run, and checks
// that the fleet-wide diagnosis is digest-identical to a single in-process
// pool fed the same multiset.
ClusterResult RunCluster(const std::vector<CapturedSite>& sites,
                         const ClusterConfig& config);

std::string ClusterJson(const ClusterConfig& config, size_t sites,
                        const ClusterResult& result);

// Bounded bind retries for daemons that must know their ports before they
// start (a ring roster is fixed before any member binds). A port is chosen
// by binding port 0 and closing the socket, so another socket can take it
// before the daemon binds it; such a bring-up fails with address-in-use and
// is worth another attempt.
//
// Calls `start` with `n` fresh kernel-assigned loopback ports. When it fails
// with address-in-use, calls it again with new ports, three calls in all,
// and returns the last status. `start` must stop every daemon it started
// before it returns an error, so each attempt begins clean.
support::Status StartOnFreshPorts(
    size_t n, const std::function<support::Status(const std::vector<uint16_t>&)>& start);

// The same retry for a daemon re-binding a port it held before (a restart):
// `start` must build a fresh daemon each call.
support::Status RetryOnAddressInUse(const std::function<support::Status()>& start);

}  // namespace snorlax::bench

#endif  // SNORLAX_BENCH_FLEET_HARNESS_H_
