// Concurrency stress tests (ctest label: concurrency; run them under the
// TSan build tree, see README): many threads hammer one ServerPool -- the
// one place ingest synchronizes; a DiagnosisServer is single-owner -- with
// failing, success, and corrupt bundles at once, and the final diagnosis must
// be bit-for-bit what a serial pool computes from the same submission
// multiset. Timing fields are excluded (wall time is not
// deterministic); everything the diagnosis *means* is compared.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/server_pool.h"
#include "core/snorlax.h"
#include "pt/encoder.h"
#include "workloads/workload.h"

namespace snorlax::core {
namespace {

constexpr int kThreads = 8;

struct Captured {
  workloads::Workload workload;
  pt::PtTraceBundle bundle;
  uint64_t failing_seed = 0;
  std::vector<pt::PtTraceBundle> successes;
};

// Captures a failing bundle plus up to `max_successes` distinct success
// bundles snapshotted at the failure's dump points.
Captured CaptureSite(const std::string& name, size_t max_successes) {
  Captured out{workloads::Build(name), {}, 0, {}};
  ClientOptions copts;
  copts.interp = out.workload.interp;
  DiagnosisClient client(out.workload.module.get(), copts);
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure()) {
      EXPECT_TRUE(run.trace.has_value());
      out.bundle = *run.trace;
      out.failing_seed = seed;
      break;
    }
  }
  if (!out.bundle.failure.IsFailure()) {
    ADD_FAILURE() << "no failure reproduced for " << name;
    return out;
  }
  DiagnosisServer scout(out.workload.module.get());
  EXPECT_TRUE(scout.SubmitFailingTrace(out.bundle).ok());
  const auto dump_points = scout.RequestedDumpPoints();
  for (uint64_t seed = out.failing_seed + 1;
       seed < out.failing_seed + 400 && out.successes.size() < max_successes; ++seed) {
    ClientRun run = client.RunOnce(seed, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      out.successes.push_back(*run.trace);
    }
  }
  EXPECT_FALSE(out.successes.empty());
  return out;
}

// The meaning-bearing parts of two reports must match exactly; wall-clock
// timing fields and degradation note text (whose ORDER depends on arrival
// order) are intentionally excluded.
void ExpectSameDiagnosis(const DiagnosisReport& got, const DiagnosisReport& want) {
  EXPECT_EQ(got.failure.kind, want.failure.kind);
  EXPECT_EQ(got.failure.failing_inst, want.failure.failing_inst);
  EXPECT_EQ(got.failing_traces, want.failing_traces);
  EXPECT_EQ(got.success_traces, want.success_traces);
  EXPECT_EQ(got.confidence, want.confidence);
  EXPECT_EQ(got.hypothesis_violated, want.hypothesis_violated);
  EXPECT_EQ(got.degradation.rejected_bundles, want.degradation.rejected_bundles);
  EXPECT_EQ(got.stages.executed_instructions, want.stages.executed_instructions);
  EXPECT_EQ(got.stages.candidate_instructions, want.stages.candidate_instructions);
  EXPECT_EQ(got.stages.rank1_candidates, want.stages.rank1_candidates);
  EXPECT_EQ(got.stages.patterns_generated, want.stages.patterns_generated);
  ASSERT_EQ(got.patterns.size(), want.patterns.size());
  for (size_t i = 0; i < want.patterns.size(); ++i) {
    EXPECT_EQ(got.patterns[i].pattern.Key(), want.patterns[i].pattern.Key());
    EXPECT_DOUBLE_EQ(got.patterns[i].f1, want.patterns[i].f1);
    EXPECT_EQ(got.patterns[i].counts.true_positive, want.patterns[i].counts.true_positive);
    EXPECT_EQ(got.patterns[i].counts.false_positive, want.patterns[i].counts.false_positive);
    EXPECT_EQ(got.patterns[i].counts.false_negative, want.patterns[i].counts.false_negative);
  }
}

// Thread t's share of a two-site pool workload: per site, the failing bundle
// first (so the shard exists before any of t's successes arrive), then every
// kThreads-th success bundle starting at t (each success is submitted exactly
// once across all threads, so the 10x cap can never drop one
// nondeterministically). Then, at site `a`, one empty and one
// version-skewed bundle: both reach the shard and must be rejected there
// without poisoning its state.
void DrivePool(ServerPool* pool, const Captured& a, const Captured& b, int t) {
  for (const Captured* site : {&a, &b}) {
    EXPECT_TRUE(pool->SubmitFailingTrace(site->bundle).ok());
    for (size_t i = static_cast<size_t>(t); i < site->successes.size(); i += kThreads) {
      EXPECT_TRUE(
          pool->SubmitSuccessTrace(site->bundle.failure.failing_inst, site->successes[i])
              .ok());
    }
  }
  pt::PtTraceBundle empty;
  empty.module_fingerprint = a.bundle.module_fingerprint;
  empty.failure = a.bundle.failure;
  EXPECT_EQ(pool->SubmitFailingTrace(empty).code(), support::StatusCode::kCorruptData);
  pt::PtTraceBundle skewed = a.bundle;
  skewed.trace_version = pt::kPtTraceVersion + 1;
  EXPECT_EQ(pool->SubmitFailingTrace(skewed).code(), support::StatusCode::kVersionMismatch);
}

void ExpectSameShardReports(const std::vector<ServerPool::ShardReport>& got,
                            const std::vector<ServerPool::ShardReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key.module_fingerprint, want[i].key.module_fingerprint);
    EXPECT_EQ(got[i].key.failing_inst, want[i].key.failing_inst);
    ExpectSameDiagnosis(got[i].report, want[i].report);
  }
}

TEST(Concurrency, ServerPoolParallelIngestMatchesSerial) {
  const Captured pb = CaptureSite("pbzip2_main", 4);
  const Captured sq = CaptureSite("sqlite_1672", 4);
  ASSERT_TRUE(pb.bundle.failure.IsFailure());
  ASSERT_TRUE(sq.bundle.failure.IsFailure());

  auto drive = [&](ServerPool* pool, int t) {
    DrivePool(pool, pb, sq, t);
    // Unroutable garbage must bounce without disturbing the shards.
    pt::PtTraceBundle unknown = pb.bundle;
    unknown.module_fingerprint ^= 0xdeadbeef;
    EXPECT_FALSE(pool->SubmitFailingTrace(unknown).ok());
  };

  ServerPool serial;
  serial.RegisterModule(pb.workload.module.get());
  serial.RegisterModule(sq.workload.module.get());
  for (int t = 0; t < kThreads; ++t) {
    drive(&serial, t);
  }
  const std::vector<ServerPool::ShardReport> want = serial.DiagnoseAll();
  ASSERT_EQ(want.size(), 2u);
  size_t rejected = 0;
  for (const ServerPool::ShardReport& sr : want) {
    EXPECT_EQ(sr.report.failing_traces, static_cast<size_t>(kThreads));
    EXPECT_FALSE(sr.report.patterns.empty());
    rejected += sr.report.degradation.rejected_bundles;
  }
  EXPECT_EQ(rejected, 2u * kThreads);  // the empty and skewed bundles

  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  pool.RegisterModule(sq.workload.module.get());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(drive, &pool, t);
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(pool.routing_rejects(), static_cast<size_t>(kThreads));
  ExpectSameShardReports(pool.DiagnoseAll(), want);
}

// Diagnosis runs on the caller's thread while submitters keep arriving: every
// mid-flight snapshot must be a consistent prefix of the evidence (never more
// failing traces than were sent, and no shard's trace counts going backwards),
// and once the submitters finish the result must be exactly the serial one.
TEST(Concurrency, DiagnoseAllRacingSubmissions) {
  const Captured pb = CaptureSite("pbzip2_main", 4);
  const Captured sq = CaptureSite("sqlite_1672", 4);
  ASSERT_TRUE(pb.bundle.failure.IsFailure());
  ASSERT_TRUE(sq.bundle.failure.IsFailure());

  ServerPool serial;
  serial.RegisterModule(pb.workload.module.get());
  serial.RegisterModule(sq.workload.module.get());
  for (int t = 0; t < kThreads; ++t) {
    DrivePool(&serial, pb, sq, t);
  }
  const std::vector<ServerPool::ShardReport> want = serial.DiagnoseAll();
  ASSERT_EQ(want.size(), 2u);

  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  pool.RegisterModule(sq.workload.module.get());
  std::atomic<bool> submitting{true};
  size_t snapshots = 0;
  std::thread diagnoser([&] {
    // Last seen (failing, success) trace counts per shard.
    std::map<std::pair<uint64_t, ir::InstId>, std::pair<size_t, size_t>> seen;
    do {
      const std::vector<ServerPool::ShardReport> snapshot = pool.DiagnoseAll();
      EXPECT_LE(snapshot.size(), want.size());
      for (const ServerPool::ShardReport& sr : snapshot) {
        EXPECT_LE(sr.report.failing_traces, static_cast<size_t>(kThreads));
        std::pair<size_t, size_t>& last =
            seen[{sr.key.module_fingerprint, sr.key.failing_inst}];
        EXPECT_GE(sr.report.failing_traces, last.first);
        EXPECT_GE(sr.report.success_traces, last.second);
        last = {sr.report.failing_traces, sr.report.success_traces};
      }
      ++snapshots;
    } while (submitting.load(std::memory_order_acquire));
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(DrivePool, &pool, std::cref(pb), std::cref(sq), t);
  }
  for (std::thread& th : threads) {
    th.join();
  }
  submitting.store(false, std::memory_order_release);
  diagnoser.join();
  EXPECT_GE(snapshots, 1u);

  ExpectSameShardReports(pool.DiagnoseAll(), want);
}

// A site handed off while traffic for it keeps arriving, as in
// DiagnosisDaemon::Drain: the caller exports and drops site X while the poll
// thread still submits to and diagnoses it. Every call that reached the shard
// before the drop must finish on a live server (the pool's shard handle keeps
// it alive), calls between the export and the drop are refused with
// kWrongShard, and calls after the drop see a missing or fresh site. Run under
// ASan and TSan: a dropped shard freed under a running call is what they catch.
TEST(Concurrency, DropSiteRacingIngestAndDiagnose) {
  const Captured site = CaptureSite("pbzip2_main", 4);
  ASSERT_TRUE(site.bundle.failure.IsFailure());
  const ir::Module* module = site.workload.module.get();
  const uint64_t fp = pt::ModuleFingerprint(*module);
  const ir::InstId inst = site.bundle.failure.failing_inst;

  ServerPool pool;
  pool.RegisterModule(module);
  constexpr size_t kMinRounds = 24;
  constexpr size_t kMinDrops = 4;
  std::atomic<size_t> drops{0};
  std::atomic<bool> ingesting{true};
  std::thread ingest([&] {
    for (size_t round = 0; round < kMinRounds || drops.load() < kMinDrops; ++round) {
      const support::Status failing = pool.SubmitFailingTrace(site.bundle);
      EXPECT_TRUE(failing.ok() || failing.code() == support::StatusCode::kWrongShard)
          << failing.ToString();
      for (const pt::PtTraceBundle& success : site.successes) {
        // The site may have been exported or dropped since the failing
        // bundle landed.
        const support::Status status = pool.SubmitSuccessTrace(inst, success);
        EXPECT_TRUE(status.ok() || status.code() == support::StatusCode::kWrongShard ||
                    status.code() == support::StatusCode::kFailedPrecondition)
            << status.ToString();
      }
      (void)pool.RequestedDumpPoints(fp, inst);
      for (const ServerPool::ShardReport& sr : pool.DiagnoseAll()) {
        EXPECT_LE(sr.report.failing_traces, round + 1);
      }
    }
    ingesting.store(false, std::memory_order_release);
  });
  while (ingesting.load(std::memory_order_acquire)) {
    std::vector<engine::SiteRecord> records;
    if (pool.ExportSite(fp, inst, &records) && pool.DropSite(fp, inst)) {
      drops.fetch_add(1);
    }
  }
  ingest.join();
  EXPECT_GE(drops.load(), kMinDrops);
}

}  // namespace
}  // namespace snorlax::core
