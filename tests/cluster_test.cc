// Cluster-mode integration tests: N daemons on a consistent-hash ring over
// loopback TCP, with durable logs underneath.
//
// The load-bearing properties:
//   - digest identity: a 3-daemon cluster (kill/restart chaos included)
//     diagnoses bit-identically to a single daemon and to an in-process pool;
//   - recovery: a restarted daemon serves its sites from the durable log
//     without a bundle crossing the wire: it rebuilds each unique evidence
//     bundle's trace once, and no analysis pass re-runs;
//   - routing: a bundle for a site another member owns bounces with
//     kWrongShard -- without consuming its sequence number -- and the ring
//     topology rides along so the sender re-routes;
//   - drain: SIGTERM-style Drain() hands every owned site to the remaining
//     owner, whose reports stay digest-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/fleet_harness.h"
#include "bench/throughput_harness.h"
#include "core/server_pool.h"
#include "engine/pass.h"
#include "net/agent.h"
#include "net/cluster_agent.h"
#include "net/daemon.h"
#include "trace/processed_trace.h"
#include "wire/ring.h"

namespace snorlax {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/snorlax-cluster-test-XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// The standard bench mix, captured once per binary (capture costs thousands
// of interpreter runs).
const std::vector<bench::CapturedSite>& Sites() {
  static const std::vector<bench::CapturedSite> sites = [] {
    std::vector<bench::CapturedSite> s =
        bench::CaptureSites({"pbzip2_main", "sqlite_1672", "memcached_127"});
    if (s.empty()) {
      ADD_FAILURE() << "no workload reproduced a failure";
      std::abort();
    }
    return s;
  }();
  return sites;
}

std::vector<core::ServerPool::ShardReport> ToShardReports(
    std::vector<net::RemoteReport> remotes) {
  std::vector<core::ServerPool::ShardReport> shards;
  for (net::RemoteReport& remote : remotes) {
    core::ServerPool::ShardReport sr;
    sr.key.module_fingerprint = remote.module_fingerprint;
    sr.key.failing_inst = remote.failing_inst;
    sr.report = std::move(remote.report);
    shards.push_back(std::move(sr));
  }
  std::sort(shards.begin(), shards.end(), [](const auto& a, const auto& b) {
    return a.key.module_fingerprint != b.key.module_fingerprint
               ? a.key.module_fingerprint < b.key.module_fingerprint
               : a.key.failing_inst < b.key.failing_inst;
  });
  return shards;
}

// The in-process reference for one failing + all successes per site.
std::string LocalDigest(const std::vector<bench::CapturedSite>& sites,
                        size_t failing_rounds = 1) {
  core::ServerPool pool;
  for (const bench::CapturedSite& site : sites) {
    pool.RegisterModule(site.workload.module.get());
  }
  for (const bench::CapturedSite& site : sites) {
    for (size_t i = 0; i < failing_rounds; ++i) {
      EXPECT_TRUE(pool.SubmitFailingTrace(site.failing).ok());
    }
    for (const pt::PtTraceBundle& success : site.successes) {
      EXPECT_TRUE(
          pool.SubmitSuccessTrace(site.failing.failure.failing_inst, success).ok());
    }
  }
  return bench::DigestReports(pool.DiagnoseAll());
}

TEST(ClusterTest, ThreeDaemonClusterIsDigestIdenticalToSingleDaemon) {
  bench::ClusterConfig three;
  three.daemons = 3;
  three.rounds = 2;
  const bench::ClusterResult cluster = bench::RunCluster(Sites(), three);
  ASSERT_TRUE(cluster.status.ok()) << cluster.status.ToString();
  EXPECT_TRUE(cluster.digests_match);
  EXPECT_EQ(cluster.reports_received, Sites().size());
  // The ring actually sharded: at least two members ingested traffic.
  size_t active_members = 0;
  for (const size_t ingested : cluster.bundles_by_daemon) {
    active_members += ingested > 0 ? 1 : 0;
  }
  EXPECT_GE(active_members, 2u);
  // A correctly-routed fleet never bounces.
  EXPECT_EQ(cluster.wrong_shard_bounces, 0u);
  EXPECT_EQ(cluster.bundles_rerouted, 0u);

  bench::ClusterConfig one;
  one.daemons = 1;
  one.rounds = 2;
  const bench::ClusterResult single = bench::RunCluster(Sites(), one);
  ASSERT_TRUE(single.status.ok()) << single.status.ToString();
  EXPECT_TRUE(single.digests_match);
  EXPECT_EQ(cluster.wire_digest, single.wire_digest);
}

TEST(ClusterTest, KillRestartChaosKeepsDigestIdentity) {
  TempDir dir;
  bench::ClusterConfig config;
  config.daemons = 3;
  config.rounds = 3;
  config.kill_restart = true;
  config.data_dir = dir.path;
  const bench::ClusterResult result = bench::RunCluster(Sites(), config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.digests_match);
  // The victim really recovered from its log, not from re-ingest.
  EXPECT_GE(result.recovered_sites, 1u);
  EXPECT_GT(result.recovered_records, 0u);
  EXPECT_GT(result.recovery_seconds, 0.0);
}

TEST(ClusterTest, RestartedDaemonServesFromLogWithoutReingest) {
  const bench::CapturedSite& site = Sites().front();
  const uint64_t fp = site.failing.module_fingerprint;
  const ir::InstId inst = site.failing.failure.failing_inst;
  TempDir dir;
  net::DaemonOptions dopts;
  dopts.data_dir = dir.path;

  std::string digest_before;
  {
    net::DiagnosisDaemon daemon(dopts);
    daemon.RegisterModule(site.workload.module.get());
    ASSERT_TRUE(daemon.Start().ok());
    net::AgentOptions aopts;
    aopts.port = daemon.port();
    net::DiagnosisAgent agent(aopts);
    agent.EnqueueFailing(site.failing);
    ASSERT_TRUE(agent.Flush().ok());
    for (const pt::PtTraceBundle& success : site.successes) {
      agent.EnqueueSuccess(inst, success);
    }
    ASSERT_TRUE(agent.Flush().ok());
    auto reports = agent.Diagnose();
    ASSERT_TRUE(reports.ok());
    digest_before = bench::DigestReports(ToShardReports(reports.take()));
    daemon.Stop();
  }

  net::DiagnosisDaemon daemon(dopts);
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(daemon.recovered());
  EXPECT_EQ(daemon.recovery().sites_recovered, 1u);
  EXPECT_GT(daemon.recovery().records_applied, 0u);
  EXPECT_EQ(daemon.recovery().log.records_corrupt, 0u);
  // Cold-start came from disk: nothing crossed the wire yet...
  EXPECT_EQ(daemon.stats().bundles_ingested, 0u);
  // ...the rebuilt shard built each unique evidence bundle's trace once and
  // served every repeat from it, and no analysis pass re-ran: the journaled
  // artifacts made every one a cache hit.
  std::set<uint64_t> unique_bundles = {trace::TraceKey(site.failing, {})};
  for (const pt::PtTraceBundle& success : site.successes) {
    unique_bundles.insert(trace::TraceKey(success, {}));
  }
  const core::DiagnosisServer* shard = daemon.pool().shard(fp, inst);
  ASSERT_NE(shard, nullptr);
  const engine::PassStats restored = shard->pass_stats(engine::PassId::kTraceProcess);
  EXPECT_EQ(restored.runs, unique_bundles.size());
  EXPECT_EQ(restored.runs + restored.cache_hits, 1 + site.successes.size());
  for (const engine::PassId pass : {engine::PassId::kDerefChains, engine::PassId::kPointsTo,
                                    engine::PassId::kTypeRank, engine::PassId::kPatterns}) {
    EXPECT_EQ(shard->pass_stats(pass).runs, 0u) << engine::PassName(pass);
  }

  net::AgentOptions aopts;
  aopts.port = daemon.port();
  net::DiagnosisAgent agent(aopts);
  auto reports = agent.Diagnose();
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(bench::DigestReports(ToShardReports(reports.take())), digest_before);

  // A fleet client re-sending the byte-identical bundle post-restart skips
  // decoding too: restoring the log re-primed the decode memo.
  agent.EnqueueFailing(site.failing);
  ASSERT_TRUE(agent.Flush().ok());
  const engine::PassStats resent = shard->pass_stats(engine::PassId::kTraceProcess);
  EXPECT_EQ(resent.runs, restored.runs);
  EXPECT_EQ(resent.cache_hits, restored.cache_hits + 1);
  daemon.Stop();
}

// Two daemons sharing a ring; returns per-site owners under that ring.
struct TwoNodeCluster {
  std::unique_ptr<net::DiagnosisDaemon> a;  // node 1
  std::unique_ptr<net::DiagnosisDaemon> b;  // node 2
  wire::RingTopology ring;

  explicit TwoNodeCluster(const std::vector<bench::CapturedSite>& sites) {
    auto reserve = [] {
      auto listener = net::Socket::Listen(0);
      EXPECT_TRUE(listener.ok());
      net::Socket sock = listener.take();
      const uint16_t port = sock.local_port();
      sock.Close();
      return port;
    };
    const uint16_t port_a = reserve();
    const uint16_t port_b = reserve();
    const std::vector<wire::RingMember> members = {
        {1, "127.0.0.1", port_a}, {2, "127.0.0.1", port_b}};
    for (int node = 1; node <= 2; ++node) {
      net::DaemonOptions dopts;
      dopts.port = node == 1 ? port_a : port_b;
      dopts.node_id = node;
      dopts.members = members;
      auto daemon = std::make_unique<net::DiagnosisDaemon>(dopts);
      for (const bench::CapturedSite& site : sites) {
        daemon->RegisterModule(site.workload.module.get());
      }
      EXPECT_TRUE(daemon->Start().ok());
      (node == 1 ? a : b) = std::move(daemon);
    }
    ring = a->topology();
  }

  uint64_t OwnerOf(const bench::CapturedSite& site) const {
    return wire::RingOwnerOf(
        ring, wire::RingSiteHash(site.failing.module_fingerprint,
                                 site.failing.failure.failing_inst));
  }
};

TEST(ClusterTest, WrongShardBundleBouncesWithTopologyAndReroutes) {
  const std::vector<bench::CapturedSite>& sites = Sites();
  TwoNodeCluster cluster(sites);
  size_t owned_by_a = 0;
  for (const bench::CapturedSite& site : sites) {
    owned_by_a += cluster.OwnerOf(site) == 1 ? 1 : 0;
  }
  const size_t owned_by_b = sites.size() - owned_by_a;
  ASSERT_GT(owned_by_b, 0u) << "mix hashed entirely to node 1; ring test is vacuous";

  // A ring-oblivious agent ships everything to daemon A.
  net::AgentOptions aopts;
  aopts.port = cluster.a->port();
  net::DiagnosisAgent agent(aopts);
  for (const bench::CapturedSite& site : sites) {
    agent.EnqueueFailing(site.failing);
  }
  ASSERT_TRUE(agent.Flush().ok());
  EXPECT_EQ(agent.stats().bundles_wrong_shard, owned_by_b);
  EXPECT_EQ(agent.stats().bundles_rejected, 0u);
  EXPECT_EQ(cluster.a->stats().bundles_ingested, owned_by_a);
  EXPECT_EQ(cluster.a->stats().bundles_wrong_shard, owned_by_b);
  // The bounce carried the ring; the agent learned it.
  ASSERT_FALSE(agent.topology().empty());
  EXPECT_EQ(agent.topology().members.size(), 2u);

  // A bounce is not a verdict: the same bundle bounces again rather than
  // being absorbed as a duplicate (its sequence number was never consumed).
  std::vector<net::DiagnosisAgent::WrongShardBundle> bounced = agent.TakeWrongShard();
  ASSERT_EQ(bounced.size(), owned_by_b);
  agent.EnqueueFailing(bounced.front().bundle);
  ASSERT_TRUE(agent.Flush().ok());
  EXPECT_EQ(agent.stats().bundles_duplicate, 0u);
  EXPECT_EQ(agent.stats().bundles_wrong_shard, owned_by_b + 1);
  EXPECT_EQ(cluster.a->stats().bundles_ingested, owned_by_a);

  // The ring-aware wrapper routes the same traffic without a single bounce.
  net::ClusterAgentOptions copts;
  copts.seed_ports = {cluster.a->port(), cluster.b->port()};
  copts.agent.agent_id = 7;
  net::ClusterAgent cagent(copts);
  for (const bench::CapturedSite& site : sites) {
    ASSERT_TRUE(cagent.SendFailing(site.failing).ok());
    for (const pt::PtTraceBundle& success : site.successes) {
      ASSERT_TRUE(
          cagent.SendSuccess(site.failing.failure.failing_inst, success).ok());
    }
  }
  EXPECT_EQ(cagent.stats().bundles_rerouted, 0u);
  EXPECT_EQ(cluster.b->stats().bundles_wrong_shard, 0u);

  auto reports = cagent.DiagnoseAll();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports.value().size(), sites.size());
  // Node A saw the failing bundles twice (once ring-obliviously, once
  // routed); the reference multiset must match.
  core::ServerPool pool;
  for (const bench::CapturedSite& site : sites) {
    pool.RegisterModule(site.workload.module.get());
  }
  for (const bench::CapturedSite& site : sites) {
    const size_t failing_rounds = cluster.OwnerOf(site) == 1 ? 2 : 1;
    for (size_t i = 0; i < failing_rounds; ++i) {
      ASSERT_TRUE(pool.SubmitFailingTrace(site.failing).ok());
    }
    for (const pt::PtTraceBundle& success : site.successes) {
      ASSERT_TRUE(
          pool.SubmitSuccessTrace(site.failing.failure.failing_inst, success).ok());
    }
  }
  EXPECT_EQ(bench::DigestReports(ToShardReports(reports.take())),
            bench::DigestReports(pool.DiagnoseAll()));

  cluster.a->Stop();
  cluster.b->Stop();
}

TEST(ClusterTest, DrainHandsOffEverySiteToTheRemainingOwner) {
  const std::vector<bench::CapturedSite>& sites = Sites();
  TwoNodeCluster cluster(sites);
  size_t owned_by_a = 0;
  for (const bench::CapturedSite& site : sites) {
    owned_by_a += cluster.OwnerOf(site) == 1 ? 1 : 0;
  }
  ASSERT_GT(owned_by_a, 0u) << "mix hashed entirely to node 2; drain test is vacuous";

  net::ClusterAgentOptions copts;
  copts.seed_ports = {cluster.a->port(), cluster.b->port()};
  net::ClusterAgent cagent(copts);
  for (const bench::CapturedSite& site : sites) {
    ASSERT_TRUE(cagent.SendFailing(site.failing).ok());
    for (const pt::PtTraceBundle& success : site.successes) {
      ASSERT_TRUE(
          cagent.SendSuccess(site.failing.failure.failing_inst, success).ok());
    }
  }
  const uint64_t epoch_before = cluster.ring.epoch;

  // SIGTERM path: final reports for everything A owned, then hand-off.
  std::vector<core::ServerPool::ShardReport> final_reports;
  ASSERT_TRUE(cluster.a->Drain(&final_reports).ok());
  EXPECT_EQ(final_reports.size(), owned_by_a);
  EXPECT_EQ(cluster.a->stats().handoff_sites_sent, owned_by_a);
  EXPECT_FALSE(cluster.a->running());
  EXPECT_EQ(cluster.b->stats().handoff_sites_imported, owned_by_a);
  EXPECT_GT(cluster.b->stats().handoff_records_received, 0u);
  // B adopted the post-departure ring the drain pushed.
  const wire::RingTopology after = cluster.b->topology();
  EXPECT_EQ(after.epoch, epoch_before + 1);
  ASSERT_EQ(after.members.size(), 1u);
  EXPECT_EQ(after.members[0].node_id, 2u);
  // B now serves every site.
  EXPECT_EQ(cluster.b->pool().SiteKeys().size(), sites.size());

  // The handed-off sites diagnose digest-identically on their new owner.
  net::AgentOptions bopts;
  bopts.port = cluster.b->port();
  net::DiagnosisAgent agent(bopts);
  auto reports = agent.Diagnose();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports.value().size(), sites.size());
  EXPECT_EQ(bench::DigestReports(ToShardReports(reports.take())),
            LocalDigest(sites));
  cluster.b->Stop();
}

}  // namespace
}  // namespace snorlax
