// Loopback integration tests for the fleet protocol: daemon + agents over
// real TCP sockets.
//
// The load-bearing property is digest identity: bundles shipped over the wire
// must diagnose bit-identically to the same bundles submitted in-process.
// Around it: version-skew handshakes are rejected without collateral damage,
// reconnecting agents are deduplicated by bundle sequence, hostile streams
// hit the inflight backpressure bound, and slow readers get report frames
// shed with an explicit Shed notice.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/throughput_harness.h"
#include "core/server_pool.h"
#include "net/agent.h"
#include "net/daemon.h"
#include "net/socket.h"
#include "wire/frame.h"

namespace snorlax {
namespace {

using namespace std::chrono_literals;

// One workload's captured traffic, shared across tests (capture costs a few
// thousand interpreter runs; do it once per binary).
const bench::CapturedSite& Site() {
  static const bench::CapturedSite site = [] {
    std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"});
    if (sites.empty()) {
      ADD_FAILURE() << "pbzip2_main did not reproduce a failure";
      std::abort();
    }
    return std::move(sites.front());
  }();
  return site;
}

std::vector<core::ServerPool::ShardReport> ToShardReports(
    std::vector<net::RemoteReport> remotes) {
  std::vector<core::ServerPool::ShardReport> shards;
  shards.reserve(remotes.size());
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

TEST(NetTest, LoopbackIngestIsDigestIdenticalToInProcess) {
  const bench::CapturedSite& site = Site();
  net::DiagnosisDaemon daemon;
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());

  net::AgentOptions aopts;
  aopts.port = daemon.port();
  net::DiagnosisAgent agent(aopts);
  // Failing first (flushed, so the shard exists), then the successes.
  agent.EnqueueFailing(site.failing);
  ASSERT_TRUE(agent.Flush().ok());
  for (const pt::PtTraceBundle& success : site.successes) {
    agent.EnqueueSuccess(site.failing.failure.failing_inst, success);
  }
  ASSERT_TRUE(agent.Flush().ok());
  EXPECT_EQ(agent.stats().bundles_acked, 1 + site.successes.size());
  EXPECT_EQ(agent.stats().bundles_rejected, 0u);

  auto remote = agent.Diagnose();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote.value().size(), 1u);
  const std::string wire_digest = bench::DigestReports(ToShardReports(remote.take()));

  core::ServerPool pool;
  pool.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(pool.SubmitFailingTrace(site.failing).ok());
  for (const pt::PtTraceBundle& success : site.successes) {
    ASSERT_TRUE(
        pool.SubmitSuccessTrace(site.failing.failure.failing_inst, success).ok());
  }
  const std::string local_digest = bench::DigestReports(pool.DiagnoseAll());

  EXPECT_FALSE(wire_digest.empty());
  EXPECT_EQ(wire_digest, local_digest);
  EXPECT_EQ(daemon.stats().bundles_ingested, 1 + site.successes.size());
  EXPECT_EQ(daemon.transport_degradation().decode_errors, 0u);
}

// Raw-socket helper: connects, sends a hand-built Hello advertising `version`
// as `agent_id`, and stores the daemon's first reply frame in `reply`.
net::Socket RawHello(uint16_t port, uint64_t agent_id, uint32_t version,
                     wire::Frame* reply) {
  auto sock = net::Socket::ConnectLoopback(port);
  EXPECT_TRUE(sock.ok());
  net::Socket s = sock.take();
  wire::Frame hello;
  hello.type = wire::FrameType::kHello;
  hello.seq = 1;
  wire::HelloPayload payload;
  payload.protocol_version = version;
  payload.agent_id = agent_id;
  wire::EncodeHello(payload, &hello.payload);
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(hello, &bytes);
  bool would_block = false;
  EXPECT_EQ(s.Write(bytes.data(), bytes.size(), &would_block),
            static_cast<ssize_t>(bytes.size()));
  wire::FrameAssembler assembler;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    uint8_t buf[4096];
    const ssize_t n = s.Read(buf, sizeof(buf), &would_block);
    if (n > 0) {
      assembler.Feed(buf, static_cast<size_t>(n));
      if (assembler.Next(reply)) {
        return s;
      }
    } else if (!would_block) {
      break;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  ADD_FAILURE() << "no handshake reply";
  return s;
}

// Raw-socket helper: handshake as `agent_id` and return the connected socket.
net::Socket RawHandshake(uint16_t port, uint64_t agent_id) {
  // Wait for the HelloAck so the connection is known-handshaken.
  wire::Frame reply;
  net::Socket s = RawHello(port, agent_id, wire::kProtocolVersion, &reply);
  EXPECT_EQ(reply.type, wire::FrameType::kHelloAck);
  return s;
}

TEST(NetTest, VersionSkewIsRejectedWithoutCollateralDamage) {
  const bench::CapturedSite& site = Site();
  net::DiagnosisDaemon daemon;
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());

  net::AgentOptions healthy_opts;
  healthy_opts.port = daemon.port();
  healthy_opts.agent_id = 1;
  net::DiagnosisAgent healthy(healthy_opts);
  ASSERT_TRUE(healthy.SendFailing(site.failing).ok());

  // The daemon speaks exactly one protocol generation: a Hello one version
  // newer or one older is a clean kVersionMismatch reject, not a downgrade.
  for (const uint32_t skewed : {wire::kProtocolVersion + 1, wire::kProtocolVersion - 1}) {
    wire::Frame reply;
    net::Socket s = RawHello(daemon.port(), 2, skewed, &reply);
    ASSERT_EQ(reply.type, wire::FrameType::kReject) << "protocol " << skewed;
    support::Status verdict;
    ASSERT_TRUE(wire::DecodeStatusPayload(reply.payload, &verdict).ok());
    EXPECT_EQ(verdict.code(), support::StatusCode::kVersionMismatch)
        << "protocol " << skewed;
  }

  // The daemon shrugged off the skewed handshakes: still running, and the
  // healthy agent keeps working on its live connection.
  EXPECT_TRUE(daemon.running());
  ASSERT_TRUE(healthy.SendFailing(site.failing).ok());
  EXPECT_EQ(daemon.stats().handshakes_rejected, 2u);
  EXPECT_EQ(daemon.stats().bundles_ingested, 2u);
  EXPECT_EQ(healthy.stats().reconnects, 0u);
}

TEST(NetTest, ReconnectingAgentIsDeduplicatedBySequence) {
  const bench::CapturedSite& site = Site();
  net::DiagnosisDaemon daemon;
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());

  net::AgentOptions aopts;
  aopts.port = daemon.port();
  aopts.agent_id = 7;
  {
    // First incarnation ships bundle sequence 1.
    net::DiagnosisAgent agent(aopts);
    ASSERT_TRUE(agent.SendFailing(site.failing).ok());
  }
  {
    // Second incarnation of the same agent identity: its sequence 1 was
    // already ingested, so the HelloAck trims it from the pending queue and
    // only sequence 2 crosses the wire.
    net::DiagnosisAgent agent(aopts);
    agent.EnqueueFailing(site.failing);
    agent.EnqueueFailing(site.failing);
    ASSERT_TRUE(agent.Flush().ok());
    EXPECT_EQ(agent.stats().bundles_acked, 2u);
    EXPECT_EQ(agent.stats().bundles_duplicate, 1u);
  }
  EXPECT_EQ(daemon.stats().bundles_ingested, 2u);
  EXPECT_EQ(daemon.stats().bundles_duplicate, 0u);  // trimmed, not retransmitted

  // An explicit mid-stream disconnect: the next Flush reconnects and the
  // daemon ingests the new sequence exactly once.
  net::AgentOptions bopts;
  bopts.port = daemon.port();
  bopts.agent_id = 8;
  net::DiagnosisAgent agent(bopts);
  ASSERT_TRUE(agent.SendFailing(site.failing).ok());
  agent.Disconnect();
  ASSERT_TRUE(agent.SendFailing(site.failing).ok());
  EXPECT_EQ(agent.stats().reconnects, 1u);
  EXPECT_EQ(daemon.stats().bundles_ingested, 4u);
}

TEST(NetTest, AgentsWithDistinctIdsAndOverlappingSequencesAreBothIngested) {
  // The daemon dedupes by (agent id, seq), and every agent numbers its
  // bundles from the start: two processes sending the same sequence numbers
  // under distinct ids are two streams, not one stream's duplicates.
  const bench::CapturedSite& site = Site();
  net::DiagnosisDaemon daemon;
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());
  for (const uint64_t id : {11u, 12u}) {
    net::AgentOptions aopts;
    aopts.port = daemon.port();
    aopts.agent_id = id;
    net::DiagnosisAgent agent(aopts);
    agent.EnqueueFailing(site.failing);
    agent.EnqueueSuccess(site.failing.failure.failing_inst, site.successes.front());
    ASSERT_TRUE(agent.Flush().ok());
    EXPECT_EQ(agent.stats().bundles_acked, 2u);
    EXPECT_EQ(agent.stats().bundles_duplicate, 0u);
  }
  EXPECT_EQ(daemon.stats().bundles_ingested, 4u);
  EXPECT_EQ(daemon.stats().bundles_duplicate, 0u);
}

TEST(NetTest, DeadDaemonSurfacesUnavailableAfterBoundedReconnects) {
  const bench::CapturedSite& site = Site();
  // Reserve a port, then close it: nothing listens there.
  uint16_t dead_port = 0;
  {
    auto listener = net::Socket::Listen(0);
    ASSERT_TRUE(listener.ok());
    net::Socket sock = listener.take();
    dead_port = sock.local_port();
    sock.Close();
  }

  net::AgentOptions aopts;
  aopts.port = dead_port;
  aopts.max_attempts = 100;  // the reconnect bound must bite first
  aopts.max_reconnect_attempts = 2;
  aopts.io_timeout_ms = 200;
  net::DiagnosisAgent agent(aopts);
  agent.EnqueueFailing(site.failing);
  const auto start = std::chrono::steady_clock::now();
  const support::Status status = agent.Flush();
  ASSERT_FALSE(status.ok());
  // The bound surfaces kUnavailable -- an error, not a hang -- so a cluster
  // caller can fail over to another ring member.
  EXPECT_EQ(status.code(), support::StatusCode::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
  EXPECT_EQ(agent.stats().bundles_acked, 0u);
}

TEST(NetTest, InflightBoundBackpressureDisconnectsFloodingPeer) {
  net::DaemonOptions dopts;
  dopts.max_inflight_bytes = 4096;
  net::DiagnosisDaemon daemon(dopts);
  ASSERT_TRUE(daemon.Start().ok());

  net::Socket s = RawHandshake(daemon.port(), 99);
  // A syntactically valid header promising a 1 MB payload, then a stream that
  // never completes it: the daemon must cut the peer off at the inflight
  // bound instead of buffering a megabyte.
  wire::Frame big;
  big.type = wire::FrameType::kBundle;
  big.seq = 1;
  big.payload.assign(1u << 20, 0xab);
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(big, &bytes);

  bool saw_reject = false;
  bool closed = false;
  wire::FrameAssembler assembler;
  size_t sent = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline && !closed && !saw_reject) {
    if (sent < bytes.size()) {
      bool would_block = false;
      const ssize_t n =
          s.Write(bytes.data() + sent, std::min<size_t>(16384, bytes.size() - sent),
                  &would_block);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (!would_block) {
        closed = true;  // daemon already dropped us
      }
    }
    uint8_t buf[4096];
    bool would_block = false;
    const ssize_t n = s.Read(buf, sizeof(buf), &would_block);
    if (n > 0) {
      assembler.Feed(buf, static_cast<size_t>(n));
      wire::Frame frame;
      while (assembler.Next(&frame)) {
        if (frame.type == wire::FrameType::kReject) {
          support::Status verdict;
          ASSERT_TRUE(wire::DecodeStatusPayload(frame.payload, &verdict).ok());
          EXPECT_EQ(verdict.code(), support::StatusCode::kResourceExhausted);
          saw_reject = true;
        }
      }
    } else if (n == 0 || !would_block) {
      closed = true;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(saw_reject || closed);
  EXPECT_TRUE(daemon.running());
  const trace::DegradationReport degradation = daemon.transport_degradation();
  bool noted = false;
  for (const std::string& note : degradation.notes) {
    noted = noted || note.find("inflight") != std::string::npos;
  }
  EXPECT_TRUE(noted);
}

TEST(NetTest, SlowReaderGetsReportFramesShedWithNotice) {
  const bench::CapturedSite& site = Site();
  net::DaemonOptions dopts;
  dopts.max_outbound_bytes = 0;  // any unwritten backlog sheds report frames
  dopts.sndbuf_bytes = 4096;     // keep the kernel from hiding the backlog
  net::DiagnosisDaemon daemon(dopts);
  daemon.RegisterModule(site.workload.module.get());
  ASSERT_TRUE(daemon.Start().ok());

  // Seed one shard so Diagnose streams a real report frame.
  net::AgentOptions aopts;
  aopts.port = daemon.port();
  aopts.agent_id = 1;
  net::DiagnosisAgent seeder(aopts);
  ASSERT_TRUE(seeder.SendFailing(site.failing).ok());

  net::Socket s = RawHandshake(daemon.port(), 2);
  // Shrink our receive window so the unread replies pile up in the daemon's
  // (clamped) send buffer instead of our kernel memory.
  const int rcvbuf = 4096;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  // Stream Diagnose requests without reading the replies. Once the daemon's
  // writes stop draining, its outbound backlog exceeds the (zero) bound and
  // report frames are shed.
  wire::Frame diagnose;
  diagnose.type = wire::FrameType::kDiagnose;
  std::vector<uint8_t> request;
  for (int i = 0; i < 10; ++i) {
    diagnose.seq = 100 + i;
    wire::EncodeFrame(diagnose, &request);
  }
  bool shed_seen = false;
  for (int batch = 0; batch < 400 && !shed_seen; ++batch) {
    bool would_block = false;
    (void)s.Write(request.data(), request.size(), &would_block);
    std::this_thread::sleep_for(10ms);
    shed_seen = daemon.stats().report_frames_shed > 0;
  }
  ASSERT_TRUE(shed_seen) << "no shed after 4000 diagnose requests";

  // Now drain: the backlog must contain an explicit Shed notice.
  wire::FrameAssembler assembler;
  bool shed_frame = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline && !shed_frame) {
    uint8_t buf[65536];
    bool would_block = false;
    const ssize_t n = s.Read(buf, sizeof(buf), &would_block);
    if (n > 0) {
      assembler.Feed(buf, static_cast<size_t>(n));
      wire::Frame frame;
      while (assembler.Next(&frame) && !shed_frame) {
        if (frame.type == wire::FrameType::kShed) {
          wire::ShedPayload shed;
          ASSERT_TRUE(wire::DecodeShed(frame.payload, &shed).ok());
          EXPECT_GT(shed.dropped_frames, 0u);
          shed_frame = true;
        }
      }
    } else if (n == 0 || !would_block) {
      break;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(shed_frame);

  const trace::DegradationReport degradation = daemon.transport_degradation();
  bool noted = false;
  for (const std::string& note : degradation.notes) {
    noted = noted || note.find("slow reader") != std::string::npos;
  }
  EXPECT_TRUE(noted);

  // A well-behaved reader on a fresh connection still gets full reports.
  net::AgentOptions bopts;
  bopts.port = daemon.port();
  bopts.agent_id = 3;
  net::DiagnosisAgent reader(bopts);
  auto reports = reader.Diagnose();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports.value().size(), 1u);
}

}  // namespace
}  // namespace snorlax
