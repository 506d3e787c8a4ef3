// Concurrency stress tests (ctest label: concurrency; run them under the
// TSan build tree, see README): many threads hammer one DiagnosisServer /
// ServerPool with failing, success, and corrupt bundles at once, and the
// final diagnosis must be bit-for-bit what a serial server computes from the
// same submission multiset. Timing fields are excluded (wall time is not
// deterministic); everything the diagnosis *means* is compared.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/server_pool.h"
#include "core/snorlax.h"
#include "pt/encoder.h"
#include "support/thread_pool.h"
#include "trace/processed_trace.h"
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

// Each thread t submits: the failing bundle, its slice of the success
// bundles (each success is submitted exactly once across all threads, so the
// 10x cap can never drop one nondeterministically), one empty bundle and one
// version-skewed bundle (both must be rejected without poisoning state).
void DriveServer(DiagnosisServer* server, const Captured& site, int t) {
  EXPECT_TRUE(server->SubmitFailingTrace(site.bundle).ok());
  for (size_t i = static_cast<size_t>(t); i < site.successes.size(); i += kThreads) {
    EXPECT_TRUE(server->SubmitSuccessTrace(site.successes[i]).ok());
  }
  pt::PtTraceBundle empty;
  EXPECT_FALSE(server->SubmitFailingTrace(empty).ok());
  pt::PtTraceBundle skewed = site.bundle;
  skewed.trace_version = pt::kPtTraceVersion + 1;
  EXPECT_EQ(server->SubmitFailingTrace(skewed).code(),
            support::StatusCode::kVersionMismatch);
}

TEST(Concurrency, ParallelIngestMatchesSerialBaseline) {
  const Captured site = CaptureSite("pbzip2_main", 8);
  ASSERT_TRUE(site.bundle.failure.IsFailure());

  // Serial baseline: same submission multiset, one thread.
  DiagnosisServer serial(site.workload.module.get());
  for (int t = 0; t < kThreads; ++t) {
    DriveServer(&serial, site, t);
  }
  const DiagnosisReport want = serial.Diagnose();
  ASSERT_FALSE(want.patterns.empty());

  DiagnosisServer server(site.workload.module.get());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(DriveServer, &server, std::cref(site), t);
  }
  for (std::thread& th : threads) {
    th.join();
  }

  EXPECT_EQ(server.Diagnose().failing_traces, static_cast<size_t>(kThreads));
  ExpectSameDiagnosis(server.Diagnose(), want);
}

TEST(Concurrency, ParallelScoringMatchesSerialScoring) {
  const Captured site = CaptureSite("pbzip2_main", 8);
  ASSERT_TRUE(site.bundle.failure.IsFailure());

  DiagnosisServer plain(site.workload.module.get());
  support::ThreadPool pool(4);
  DiagnosisServer::Options with_pool;
  with_pool.pool = &pool;
  DiagnosisServer pooled(site.workload.module.get(), with_pool);
  for (DiagnosisServer* s : {&plain, &pooled}) {
    ASSERT_TRUE(s->SubmitFailingTrace(site.bundle).ok());
    for (const pt::PtTraceBundle& success : site.successes) {
      ASSERT_TRUE(s->SubmitSuccessTrace(success).ok());
    }
  }
  ExpectSameDiagnosis(pooled.Diagnose(), plain.Diagnose());
}

TEST(Concurrency, ServerPoolParallelIngestMatchesSerial) {
  const Captured pb = CaptureSite("pbzip2_main", 4);
  const Captured sq = CaptureSite("sqlite_1672", 4);
  ASSERT_TRUE(pb.bundle.failure.IsFailure());
  ASSERT_TRUE(sq.bundle.failure.IsFailure());

  auto drive = [&](ServerPool* pool, int t) {
    for (const Captured* site : {&pb, &sq}) {
      EXPECT_TRUE(pool->SubmitFailingTrace(site->bundle).ok());
      for (size_t i = static_cast<size_t>(t); i < site->successes.size(); i += kThreads) {
        EXPECT_TRUE(pool->SubmitSuccessTrace(site->bundle.failure.failing_inst,
                                             site->successes[i])
                        .ok());
      }
    }
    // Unroutable garbage must bounce without disturbing the shards.
    pt::PtTraceBundle unknown = pb.bundle;
    unknown.module_fingerprint ^= 0xdeadbeef;
    EXPECT_FALSE(pool->SubmitFailingTrace(unknown).ok());
  };

  ServerPoolOptions serial_opts;
  ServerPool serial(serial_opts);
  serial.RegisterModule(pb.workload.module.get());
  serial.RegisterModule(sq.workload.module.get());
  for (int t = 0; t < kThreads; ++t) {
    drive(&serial, t);
  }
  const std::vector<ServerPool::ShardReport> want = serial.DiagnoseAll();
  ASSERT_EQ(want.size(), 2u);

  // Concurrent run, with DiagnoseAll itself fanning out on a thread pool.
  support::ThreadPool work_pool(4);
  ServerPoolOptions opts;
  opts.server.pool = &work_pool;
  ServerPool pool(opts);
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

  const std::vector<ServerPool::ShardReport> got = pool.DiagnoseAll();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key.module_fingerprint, want[i].key.module_fingerprint);
    EXPECT_EQ(got[i].key.failing_inst, want[i].key.failing_inst);
    ExpectSameDiagnosis(got[i].report, want[i].report);
  }
}

// One immutable trace shared by many threads -- the decode memo hands the
// same object to every submission of a bundle. The first ContentKey() call
// computes the cached key while other threads read it and the index.
TEST(Concurrency, SharedTraceReadsAndContentKeyRaceFree) {
  const Captured site = CaptureSite("pbzip2_main", 1);
  ASSERT_TRUE(site.bundle.failure.IsFailure());
  const ir::Module* module = site.workload.module.get();
  const auto shared = std::make_shared<const trace::ProcessedTrace>(module, site.bundle);
  const trace::ProcessedTrace reference(module, site.bundle);
  const uint64_t want_key = reference.ContentKey();
  const ir::InstId failing_inst = site.bundle.failure.failing_inst;
  const size_t want_instances = reference.InstancesOf(failing_inst).size();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const std::shared_ptr<const trace::ProcessedTrace> mine = shared;
      EXPECT_EQ(mine->ContentKey(), want_key);
      EXPECT_EQ(mine->InstancesOf(failing_inst).size(), want_instances);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

}  // namespace
}  // namespace snorlax::core
