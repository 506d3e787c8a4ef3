// One loopback fleet: an in-process DiagnosisDaemon (durable log, no fsync,
// no analysis pool) and one DiagnosisAgent on one connection. After a
// session, a mirror ServerPool fed the same bundles in the same order must
// digest-equal the wire diagnosis of every round.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "layers.h"
#include "measure.h"
#include "net/agent.h"
#include "net/daemon.h"
#include "workloads.h"

namespace perfbench {

// One shipped bundle of a round.
struct SentBundle {
  size_t site = 0;
  bool failing = false;
  size_t index = 0;
  uint32_t span = 0;  // its net.flush span when the round was traced
  bool acked = false;
  double ack_ms = 0.0;
};

struct FleetRound {
  double seconds = 0.0;  // bundles shipped + one Diagnose over the wire
  size_t failed = 0;     // agent errors, rejected bundles, rank-1 misses
  size_t attempted = 0;
  size_t rank1_checks = 0;
  size_t rank1_ok = 0;
  std::vector<SentBundle> sent;  // in shipping order
  std::vector<double> ack_ms;    // per acked bundle, agent-observed
  uint32_t diagnose_span = 0;    // net.diagnose when traced
  std::string digest;            // DigestReports of the wire reports
  // Traced rounds: report::EncodeReport of each full wire report.
  std::vector<double> report_encode_ns, report_bytes;
};

class FleetSession {
 public:
  // `dir` holds the daemon's durable log; removed on destruction.
  // `order_seed` draws each round's arrival order: which site ships first,
  // and in which order each site's successes follow its failures. The order
  // moves ack latency by up to 15%, so every round has its own, and a run's
  // medians average over as many orders as it has rounds.
  FleetSession(const std::vector<Site>& sites, const std::vector<DecodedSite>& decoded,
               std::string dir, uint64_t order_seed);
  ~FleetSession();
  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

  snorlax::support::Status Start();

  // Ships every site's bundles one at a time (each SendX flushes and waits
  // for its ack), then runs one Diagnose over the wire, and checks rank-1 on
  // the wire reports. With `spans` recording, the round is a "round" span
  // holding net.flush / net.diagnose spans. `first` marks a run's first
  // round, whose check failures are printed.
  FleetRound Round(uint64_t round_id, SpanRecorder* spans, bool first);

  // Stops the daemon and closes the agent: afterwards the process has one
  // thread again.
  void Stop();

  const snorlax::net::DiagnosisAgent& agent() const { return *agent_; }
  const snorlax::net::DiagnosisDaemon& daemon() const { return *daemon_; }

 private:
  const std::vector<Site>& sites_;
  const std::vector<DecodedSite>& decoded_;
  std::string dir_;
  std::mt19937_64 rng_;
  std::vector<size_t> site_order_;
  std::vector<std::vector<size_t>> success_order_;  // per site
  std::unique_ptr<snorlax::net::DiagnosisDaemon> daemon_;
  std::unique_ptr<snorlax::net::DiagnosisAgent> agent_;
};

// Feeds a mirror ServerPool (with its own durable log in `dir`) every round's
// bundles in shipping order and, after each round, compares the digest of
// its shards' diagnoses with the round's wire digest. Returns the number of
// rounds that differ or could not be fed. With `spans` recording, each traced
// bundle's wire decode and submit become duration-only children of its
// net.flush span (the submit with its pass deltas and the replayed
// durable append), the replayed client-side encode and frame too, and the
// mirror's Diagnose + report encode go under net.diagnose.
size_t MirrorCheck(const std::vector<Site>& sites, const std::vector<FleetRound>& rounds,
                   const std::vector<SiteCost>& costs, const std::string& dir,
                   SpanRecorder* spans, Samples* samples);

// A child process, forked once before the first session, that runs
// MirrorCheck on every session it is sent, so that the mirror's memory never
// counts in this process's peak RSS. Construct it while one thread runs.
class MirrorProcess {
 public:
  // The child's mirrors log under `dir`.
  MirrorProcess(const std::vector<Site>& sites, std::string dir);
  // Closes the pipe, waits for the child and removes `dir`.
  ~MirrorProcess();
  MirrorProcess(const MirrorProcess&) = delete;
  MirrorProcess& operator=(const MirrorProcess&) = delete;

  // MirrorCheck of one session's rounds in the child; every round counts as
  // a mismatch when the child cannot answer.
  size_t Check(const std::vector<FleetRound>& rounds);

 private:
  std::string dir_;
  int pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
