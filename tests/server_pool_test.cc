// Tests for ServerPool: routing bundles to (module fingerprint, failing PC)
// shards, rejecting unroutable input, shard diagnosis matching a standalone
// DiagnosisServer, and refusing a site's ingest while it is handed off.
#include <gtest/gtest.h>

#include <optional>

#include "core/server_pool.h"
#include "core/snorlax.h"
#include "pt/encoder.h"
#include "workloads/workload.h"

namespace snorlax::core {
namespace {

struct Captured {
  workloads::Workload workload;
  pt::PtTraceBundle bundle;
  uint64_t failing_seed = 0;
};

Captured CaptureFailingTrace(const std::string& name) {
  Captured out{workloads::Build(name), {}, 0};
  ClientOptions copts;
  copts.interp = out.workload.interp;
  DiagnosisClient client(out.workload.module.get(), copts);
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure()) {
      EXPECT_TRUE(run.trace.has_value());
      out.bundle = *run.trace;
      out.failing_seed = seed;
      return out;
    }
  }
  ADD_FAILURE() << "no failure reproduced for " << name;
  return out;
}

// A success trace of `c`'s workload, traced at `dump_points`.
std::optional<pt::PtTraceBundle> CaptureSuccessTrace(
    const Captured& c, const std::vector<std::pair<ir::InstId, int>>& dump_points) {
  ClientOptions copts;
  copts.interp = c.workload.interp;
  DiagnosisClient client(c.workload.module.get(), copts);
  for (uint64_t seed = c.failing_seed + 1; seed <= c.failing_seed + 2000; ++seed) {
    ClientRun run = client.RunOnce(seed, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      return *run.trace;
    }
  }
  return std::nullopt;
}

// The site's one shard report; the pool must hold exactly that site.
DiagnosisReport SoleReport(const ServerPool& pool) {
  const std::vector<ServerPool::ShardReport> reports = pool.DiagnoseAll();
  EXPECT_EQ(reports.size(), 1u);
  return reports.empty() ? DiagnosisReport{} : reports.front().report;
}

TEST(ServerPool, RoutesBySiteAndModule) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  Captured sq = CaptureFailingTrace("sqlite_1672");

  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  pool.RegisterModule(sq.workload.module.get());
  pool.RegisterModule(pb.workload.module.get());  // re-registration: no-op
  EXPECT_EQ(pool.num_modules(), 2u);

  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());
  ASSERT_TRUE(pool.SubmitFailingTrace(sq.bundle).ok());
  // Same site again lands in the existing shard.
  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());
  EXPECT_EQ(pool.num_shards(), 2u);
  EXPECT_EQ(pool.routing_rejects(), 0u);

  const uint64_t pb_fp = pt::ModuleFingerprint(*pb.workload.module);
  const DiagnosisServer* shard = pool.shard(pb_fp, pb.bundle.failure.failing_inst);
  ASSERT_NE(shard, nullptr);
  EXPECT_TRUE(shard->HasFailure());
  EXPECT_FALSE(pool.RequestedDumpPoints(pb_fp, pb.bundle.failure.failing_inst).empty());

  const std::vector<ServerPool::ShardReport> reports = pool.DiagnoseAll();
  ASSERT_EQ(reports.size(), 2u);
  // Deterministic output order: sorted by (fingerprint, failing PC).
  EXPECT_LE(reports[0].key.module_fingerprint, reports[1].key.module_fingerprint);
  for (const ServerPool::ShardReport& r : reports) {
    EXPECT_FALSE(r.report.patterns.empty());
  }
}

TEST(ServerPool, UnregisteredModuleRejected) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  ServerPool pool;
  const support::Status status = pool.SubmitFailingTrace(pb.bundle);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(pool.routing_rejects(), 1u);
  EXPECT_EQ(pool.num_shards(), 0u);
}

TEST(ServerPool, BundleWithoutFailureRecordRejected) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  pt::PtTraceBundle no_failure = pb.bundle;
  no_failure.failure = rt::FailureInfo{};
  const support::Status status = pool.SubmitFailingTrace(no_failure);
  EXPECT_EQ(status.code(), support::StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.num_shards(), 0u);
  EXPECT_EQ(pool.routing_rejects(), 1u);
}

TEST(ServerPool, SuccessTraceForUnknownSiteRejected) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  // No failing trace ever arrived at this site: the success bundle has no
  // shard to join.
  const support::Status status =
      pool.SubmitSuccessTrace(pb.bundle.failure.failing_inst, pb.bundle);
  EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.routing_rejects(), 1u);
}

TEST(ServerPool, ShardReportMatchesStandaloneServer) {
  Captured pb = CaptureFailingTrace("pbzip2_main");

  DiagnosisServer standalone(pb.workload.module.get());
  ASSERT_TRUE(standalone.SubmitFailingTrace(pb.bundle).ok());
  const DiagnosisReport want = standalone.Diagnose();

  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());
  const std::vector<ServerPool::ShardReport> reports = pool.DiagnoseAll();
  ASSERT_EQ(reports.size(), 1u);
  const DiagnosisReport& got = reports[0].report;

  ASSERT_EQ(got.patterns.size(), want.patterns.size());
  for (size_t i = 0; i < want.patterns.size(); ++i) {
    EXPECT_EQ(got.patterns[i].pattern.Key(), want.patterns[i].pattern.Key());
    EXPECT_DOUBLE_EQ(got.patterns[i].f1, want.patterns[i].f1);
  }
  EXPECT_EQ(got.failing_traces, want.failing_traces);
  EXPECT_EQ(got.confidence, want.confidence);
}

// DiagnosisDaemon::Drain exports a site, ships the records to its new owner,
// then drops it. A bundle the site accepted in between would miss the records
// already sent, so from export until drop the site refuses ingest with
// kWrongShard: the agent keeps the bundle's sequence number and re-routes it.
TEST(ServerPool, SiteRefusesIngestFromExportUntilDrop) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  const uint64_t fp = pt::ModuleFingerprint(*pb.workload.module);
  const ir::InstId inst = pb.bundle.failure.failing_inst;
  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());
  const std::optional<pt::PtTraceBundle> success =
      CaptureSuccessTrace(pb, pool.RequestedDumpPoints(fp, inst));
  ASSERT_TRUE(success.has_value());

  std::vector<engine::SiteRecord> records;
  ASSERT_TRUE(pool.ExportSite(fp, inst, &records));
  EXPECT_EQ(pool.SubmitFailingTrace(pb.bundle).code(), support::StatusCode::kWrongShard);
  EXPECT_EQ(pool.SubmitSuccessTrace(inst, *success).code(), support::StatusCode::kWrongShard);
  // Nothing landed on the exported site, and the refusals are not routing
  // rejects: the bundles are still owed to the ring.
  const DiagnosisReport report = SoleReport(pool);
  EXPECT_EQ(report.failing_traces, 1u);
  EXPECT_EQ(report.success_traces, 0u);
  EXPECT_EQ(pool.routing_rejects(), 0u);

  EXPECT_TRUE(pool.DropSite(fp, inst));
  EXPECT_EQ(pool.num_shards(), 0u);
}

// A failed hand-off re-admits the site: it ingests locally again.
TEST(ServerPool, ReadmittedSiteIngestsAgain) {
  Captured pb = CaptureFailingTrace("pbzip2_main");
  ServerPool pool;
  pool.RegisterModule(pb.workload.module.get());
  const uint64_t fp = pt::ModuleFingerprint(*pb.workload.module);
  const ir::InstId inst = pb.bundle.failure.failing_inst;
  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());

  std::vector<engine::SiteRecord> records;
  ASSERT_TRUE(pool.ExportSite(fp, inst, &records));
  EXPECT_EQ(pool.SubmitFailingTrace(pb.bundle).code(), support::StatusCode::kWrongShard);
  ASSERT_TRUE(pool.ReadmitSite(fp, inst));
  ASSERT_TRUE(pool.SubmitFailingTrace(pb.bundle).ok());
  EXPECT_EQ(SoleReport(pool).failing_traces, 2u);
  EXPECT_FALSE(pool.ReadmitSite(fp, inst + 1));  // no such site
}

}  // namespace
}  // namespace snorlax::core
