// Inputs of the benchmark workloads: generated or catalogue failure
// sites, each with its failing and success bundles captured through
// DiagnosisClient::RunOnce and pre-encoded with wire::EncodeBundle.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/server.h"
#include "measure.h"
#include "pt/encoder.h"
#include "workloads/workload.h"

namespace perfbench {

// One failure site: the program, its ground truth, and its captured traffic.
struct Site {
  snorlax::workloads::Workload workload;  // owns the module
  // Ground truth: the root-cause pattern kind plus either the generated
  // scenario's root instruction (OLTP cohort) or the catalogue's full
  // root-cause event list.
  snorlax::core::PatternKind truth_kind{};
  snorlax::ir::InstId truth_root = snorlax::ir::kInvalidInstId;
  std::vector<snorlax::ir::InstId> truth_events;

  uint64_t fingerprint = 0;
  snorlax::ir::InstId failing_inst = snorlax::ir::kInvalidInstId;
  std::vector<std::vector<uint8_t>> failing;    // EncodeBundle output
  std::vector<std::vector<uint8_t>> successes;  // <= 10, distinct client seeds

  size_t bundles() const { return failing.size() + successes.size(); }
  const snorlax::ir::Module& module() const { return *workload.module; }
};

// A site's bundles decoded once from their wire bytes (the agent ships
// structured bundles and re-encodes them itself).
struct DecodedSite {
  std::vector<snorlax::pt::PtTraceBundle> failing;
  std::vector<snorlax::pt::PtTraceBundle> successes;
};

std::vector<DecodedSite> DecodeSites(const std::vector<Site>& sites);

// What a set-up generated and what it had to skip. When `spans` records, the
// cohort functions below also time every RunOnce and EncodeBundle call as
// runtime.client_run / wire.encode spans.
struct SetupStats {
  size_t scenarios_generated = 0;
  size_t scenarios_unreproduced = 0;  // generated but never failed within budget
};

// ingest_cold: `count` generated OLTP scenarios from the accuracy sweep's
// grid (bug class x keyspace/skew x helper depth), with fixed scenario seeds:
// every run gets the same cohort, so its cost does not depend on the run's
// seed. A scenario that does not fail within the reproduction budget yields
// no bundle and is replaced by the next one of the grid (counted in stats).
std::vector<Site> BuildOltpCohort(size_t count, SpanRecorder* spans, SetupStats* stats);

// fleet_recurring: every catalogue workload with its canonical evidence, as
// every catalogue harness of the repository captures it: failing bundles from
// client seed 1, success bundles from the client seeds right after.
std::vector<Site> BuildCatalogueCohort(SpanRecorder* spans, SetupStats* stats);

// True when the report ranks the site's ground-truth root cause first: some
// pattern of the truth kind that matches the truth has no pattern with a
// strictly greater F1. It matches when it covers the root instruction (OLTP),
// every truth event (catalogue deadlock), or at least two truth events in
// truth order (other catalogue bugs, the integration tests' criterion).
bool RootCauseRanksFirst(const Site& site, const snorlax::core::DiagnosisReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
