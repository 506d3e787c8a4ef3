#include "net/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>

#include "report/report.h"
#include "support/str.h"
#include "wire/serialize.h"

namespace snorlax::net {

using support::Status;
using support::StatusCode;

namespace {

// Blocking frame I/O for the drain-time hand-off client (sockets from
// ConnectLoopback stay blocking; poll only bounds the ack wait).
Status SendFrameBlocking(Socket& sock, wire::FrameType type, uint64_t seq,
                         std::vector<uint8_t> payload) {
  wire::Frame frame;
  frame.type = type;
  frame.seq = seq;
  frame.payload = std::move(payload);
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(frame, &bytes);
  size_t written = 0;
  while (written < bytes.size()) {
    bool would_block = false;
    const ssize_t n = sock.Write(bytes.data() + written, bytes.size() - written,
                                 &would_block);
    if (n < 0) {
      if (would_block) {
        pollfd pfd{sock.fd(), POLLOUT, 0};
        if (::poll(&pfd, 1, /*timeout_ms=*/30000) <= 0) {
          return Status::Error(StatusCode::kInternal, "hand-off write timed out");
        }
        continue;
      }
      return Status::Error(StatusCode::kInternal, "hand-off connection lost mid-write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadFrameBlocking(Socket& sock, wire::FrameAssembler& assembler,
                         wire::Frame* frame, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (assembler.Next(frame)) {
      return Status::Ok();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::Error(StatusCode::kInternal, "timed out waiting for a hand-off reply");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    pollfd pfd{sock.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
    if (ready < 0) {
      continue;  // EINTR
    }
    if (ready == 0) {
      return Status::Error(StatusCode::kInternal, "timed out waiting for a hand-off reply");
    }
    uint8_t buf[64 * 1024];
    bool would_block = false;
    const ssize_t n = sock.Read(buf, sizeof(buf), &would_block);
    if (n < 0 && would_block) {
      continue;
    }
    if (n <= 0) {
      return Status::Error(StatusCode::kInternal, "hand-off peer closed the connection");
    }
    if (!assembler.Feed(buf, static_cast<size_t>(n))) {
      return Status::Error(StatusCode::kInternal, "hand-off reply overran the buffer");
    }
  }
}

}  // namespace

core::ServerPoolOptions DiagnosisDaemon::PoolOptions() {
  core::ServerPoolOptions pool = options_.pool;
  if (!options_.data_dir.empty()) {
    pool.durable_log = &log_;
  }
  return pool;
}

DiagnosisDaemon::DiagnosisDaemon(DaemonOptions options)
    : options_(std::move(options)), pool_(PoolOptions()) {
  topology_.epoch = options_.ring_epoch;
  topology_.virtual_nodes = options_.virtual_nodes;
  topology_.members = options_.members;
  wire::CanonicalizeTopology(&topology_);
}

DiagnosisDaemon::~DiagnosisDaemon() { Stop(); }

void DiagnosisDaemon::RegisterModule(const ir::Module* module) {
  pool_.RegisterModule(module);
}

wire::RingTopology DiagnosisDaemon::topology() const {
  std::lock_guard<std::mutex> lock(mu_);
  return topology_;
}

uint64_t DiagnosisDaemon::OwnerOf(uint64_t fingerprint, uint32_t inst,
                                  uint64_t* epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != nullptr) {
    *epoch = topology_.epoch;
  }
  return wire::RingOwnerOf(topology_, wire::RingSiteHash(fingerprint, inst));
}

support::Status DiagnosisDaemon::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Error(StatusCode::kFailedPrecondition, "daemon already running");
  }
  if (!options_.data_dir.empty()) {
    engine::DurableLog::Options log_options;
    log_options.directory = options_.data_dir;
    log_options.max_segment_bytes = options_.max_segment_bytes;
    log_options.fsync_each_append = options_.fsync_each_append;
    Status status = log_.Open(log_options);
    if (!status.ok()) {
      return status;
    }
    // Cold-start from local disk. A cluster daemon only resurrects sites it
    // still owns: anything the ring reassigned while it was down stays in
    // the log but is not served (the new owner already has it).
    std::function<bool(const engine::DurableSiteKey&)> owns;
    if (cluster_mode()) {
      const wire::RingTopology ring = topology_;
      const uint64_t self = options_.node_id;
      owns = [ring, self](const engine::DurableSiteKey& site) {
        return wire::RingOwnerOf(
                   ring, wire::RingSiteHash(site.module_fingerprint, site.failing_inst)) ==
               self;
      };
    }
    auto recovered = pool_.RecoverFromLog(owns);
    if (!recovered.ok()) {
      return recovered.status();
    }
    recovery_ = recovered.value();
    recovered_ = true;
  }
  auto listener = Socket::Listen(options_.port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = listener.take();
  Status status = listener_.SetNonBlocking(true);
  if (!status.ok()) {
    return status;
  }
  if (::pipe(wake_pipe_) != 0) {
    return Status::Error(StatusCode::kInternal, "pipe() failed");
  }
  port_ = listener_.local_port();
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void DiagnosisDaemon::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  const uint8_t byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  connections_.clear();
  listener_.Close();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (log_.is_open()) {
    (void)log_.Sync();
    log_.Close();
  }
}

support::Status DiagnosisDaemon::Drain(
    std::vector<core::ServerPool::ShardReport>* final_reports) {
  draining_.store(true, std::memory_order_release);
  // The final word on every site this daemon still owns, before any of them
  // move away. The poll thread keeps serving existing connections meanwhile.
  if (final_reports != nullptr) {
    *final_reports = pool_.DiagnoseAll();
  }
  Status first_error = Status::Ok();
  if (cluster_mode()) {
    wire::RingTopology remaining = topology();
    remaining.members.erase(
        std::remove_if(remaining.members.begin(), remaining.members.end(),
                       [&](const wire::RingMember& m) {
                         return m.node_id == options_.node_id;
                       }),
        remaining.members.end());
    remaining.epoch += 1;
    if (!remaining.members.empty()) {
      // From here on this daemon routes by the ring without itself: a bundle
      // it would have ingested is bounced to the site's next owner instead,
      // whether it arrives before its site is exported or after the drop.
      {
        std::lock_guard<std::mutex> lock(mu_);
        topology_ = remaining;
      }
      for (const core::ServerPool::ShardKey& key : pool_.SiteKeys()) {
        const uint64_t owner = wire::RingOwnerOf(
            remaining, wire::RingSiteHash(key.module_fingerprint,
                                          static_cast<uint32_t>(key.failing_inst)));
        const wire::RingMember* target = wire::RingFindMember(remaining, owner);
        if (target == nullptr) {
          continue;
        }
        Status status = HandoffSite(*target, key, remaining);
        if (status.ok()) {
          pool_.DropSite(key.module_fingerprint, key.failing_inst);
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.handoff_sites_sent;
        } else {
          pool_.ReadmitSite(key.module_fingerprint, key.failing_inst);
          NoteTransportLoss(
              StrFormat("net: hand-off of site (%llx, %u) to node %llu failed: %s",
                        static_cast<unsigned long long>(key.module_fingerprint),
                        static_cast<uint32_t>(key.failing_inst),
                        static_cast<unsigned long long>(owner),
                        status.message().c_str()),
              /*decode_errors=*/0);
          if (first_error.ok()) {
            first_error = status;
          }
        }
      }
    }
  }
  if (log_.is_open()) {
    Status synced = log_.Sync();
    if (!synced.ok() && first_error.ok()) {
      first_error = synced;
    }
  }
  Stop();
  return first_error;
}

DaemonStats DiagnosisDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

trace::DegradationReport DiagnosisDaemon::transport_degradation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_degradation_;
}

void DiagnosisDaemon::NoteTransportLoss(const std::string& note, size_t decode_errors) {
  std::lock_guard<std::mutex> lock(mu_);
  transport_degradation_.decode_errors += decode_errors;
  transport_degradation_.notes.push_back(note);
}

void DiagnosisDaemon::Loop() {
  std::vector<pollfd> fds;
  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& c : connections_) {
      short events = POLLIN;
      if (c->outbound_pending() > 0) {
        events |= POLLOUT;
      }
      fds.push_back({c->sock.fd(), events, 0});
    }
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/500) < 0) {
      continue;  // EINTR
    }
    if (!running_.load(std::memory_order_acquire)) {
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      AcceptPending();
    }
    // Walk connections back-to-front so erasure keeps indices valid. Only
    // the polled prefix: AcceptPending() above may have appended connections
    // that have no pollfd entry yet (they get served next iteration), and
    // indexing fds by the new size would run off the end of the array.
    const size_t polled = fds.size() - 2;
    for (size_t i = polled; i-- > 0;) {
      Connection& c = *connections_[i];
      const short revents = fds[2 + i].revents;
      bool alive = true;
      if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        alive = ReadFrom(c);
      }
      if (alive && c.outbound_pending() > 0 && (revents & POLLOUT) != 0) {
        alive = WriteTo(c);
      }
      if (alive && c.closing && c.outbound_pending() == 0) {
        alive = false;  // reject/goodbye fully flushed
      }
      if (!alive) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.connections_closed;
        connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(i));
      }
    }
  }
}

void DiagnosisDaemon::AcceptPending() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      return;  // no pending connection (or transient error); poll again
    }
    Socket sock = accepted.take();
    if (draining_.load(std::memory_order_acquire)) {
      Connection tmp(std::move(sock), options_.max_inflight_bytes);
      RejectAndClose(tmp, Status::Error(StatusCode::kUnavailable,
                                        "daemon is draining; re-route to the ring"));
      (void)WriteTo(tmp);
      continue;
    }
    if (connections_.size() >= options_.max_connections) {
      // Over capacity: a Reject frame is the polite form of backpressure.
      Connection tmp(std::move(sock), options_.max_inflight_bytes);
      RejectAndClose(tmp, Status::Error(StatusCode::kResourceExhausted,
                                        "daemon connection limit reached"));
      (void)WriteTo(tmp);
      continue;
    }
    if (!sock.SetNonBlocking(true).ok()) {
      continue;
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    connections_.push_back(
        std::make_unique<Connection>(std::move(sock), options_.max_inflight_bytes));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.connections_accepted;
  }
}

bool DiagnosisDaemon::ReadFrom(Connection& c) {
  uint8_t buf[64 * 1024];
  for (;;) {
    bool would_block = false;
    const ssize_t n = c.sock.Read(buf, sizeof(buf), &would_block);
    if (n < 0) {
      if (would_block) {
        break;
      }
      return false;  // hard error
    }
    if (n == 0) {
      // Peer closed. Process what is buffered, then drop the connection.
      wire::FrameView frame;
      while (c.assembler.Next(&frame)) {
        HandleFrame(c, frame);
      }
      return false;
    }
    if (!c.assembler.Feed(buf, static_cast<size_t>(n))) {
      // Reassembly bound exceeded: the peer is streaming faster than it
      // frames (or is hostile). Backpressure by disconnect.
      NoteTransportLoss(
          StrFormat("net: agent %llu exceeded %zu inflight bytes; disconnected",
                    static_cast<unsigned long long>(c.agent_id),
                    options_.max_inflight_bytes),
          /*decode_errors=*/0);
      RejectAndClose(c, Status::Error(StatusCode::kResourceExhausted,
                                      "per-connection inflight byte bound exceeded"));
      return true;  // keep alive to flush the reject
    }
  }
  wire::FrameView frame;
  while (c.assembler.Next(&frame)) {
    HandleFrame(c, frame);
  }
  // Surface assembler-detected corruption as transport degradation.
  const std::vector<std::string> log = c.assembler.DrainCorruptionLog();
  if (!log.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.frames_corrupt += log.size();
    transport_degradation_.decode_errors += log.size();
    transport_degradation_.stream_resyncs += log.size();
    for (const std::string& line : log) {
      transport_degradation_.notes.push_back(
          StrFormat("net: agent %llu: %s", static_cast<unsigned long long>(c.agent_id),
                    line.c_str()));
    }
  }
  return true;
}

bool DiagnosisDaemon::WriteTo(Connection& c) {
  while (c.outbound_pending() > 0) {
    bool would_block = false;
    const ssize_t n = c.sock.Write(c.outbound.data() + c.outbound_start,
                                   c.outbound_pending(), &would_block);
    if (n < 0) {
      return would_block;  // would_block: retry on next POLLOUT; else dead
    }
    c.outbound_start += static_cast<size_t>(n);
  }
  c.outbound.clear();
  c.outbound_start = 0;
  return true;
}

void DiagnosisDaemon::QueueFrame(Connection& c, wire::FrameType type,
                                 std::vector<uint8_t> payload, bool sheddable) {
  if (sheddable && c.outbound_pending() > options_.max_outbound_bytes) {
    ++c.sheds_this_stream;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.report_frames_shed;
    return;
  }
  wire::Frame frame;
  frame.type = type;
  frame.seq = c.out_seq++;
  frame.payload = std::move(payload);
  wire::EncodeFrame(frame, &c.outbound);
  // Opportunistic write: most frames fit the socket buffer, and draining now
  // keeps the backlog (and the shed policy) honest.
  (void)WriteTo(c);
}

void DiagnosisDaemon::RejectAndClose(Connection& c, const support::Status& status) {
  std::vector<uint8_t> payload;
  wire::EncodeStatusPayload(status, &payload);
  QueueFrame(c, wire::FrameType::kReject, std::move(payload), /*sheddable=*/false);
  c.closing = true;
}

void DiagnosisDaemon::HandleFrame(Connection& c, const wire::FrameView& frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_received;
  }
  if (c.closing) {
    return;  // connection is already condemned; ignore further input
  }
  if (!c.handshaken && frame.type != wire::FrameType::kHello) {
    RejectAndClose(c, Status::Error(StatusCode::kFailedPrecondition,
                                    StrFormat("frame '%s' before handshake",
                                              wire::FrameTypeName(frame.type))));
    return;
  }
  switch (frame.type) {
    case wire::FrameType::kHello:
      HandleHello(c, frame);
      break;
    case wire::FrameType::kBundle:
      HandleBundle(c, frame);
      break;
    case wire::FrameType::kDiagnose:
      HandleDiagnose(c);
      break;
    case wire::FrameType::kTopology:
      HandleTopology(c, frame);
      break;
    case wire::FrameType::kHandoffBegin:
      HandleHandoffBegin(c, frame);
      break;
    case wire::FrameType::kHandoffRecord:
      HandleHandoffRecord(c, frame);
      break;
    case wire::FrameType::kHandoffEnd:
      HandleHandoffEnd(c, frame);
      break;
    default:
      // Server-to-client frame types arriving at the server: protocol abuse.
      RejectAndClose(c, Status::Error(StatusCode::kInvalidArgument,
                                      StrFormat("unexpected frame '%s'",
                                                wire::FrameTypeName(frame.type))));
      break;
  }
}

void DiagnosisDaemon::HandleHello(Connection& c, const wire::FrameView& frame) {
  wire::HelloPayload hello;
  const Status status = wire::DecodeHello(frame.payload, &hello);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.handshakes_rejected;
    RejectAndClose(c, status);
    return;
  }
  // One protocol generation is spoken: any other version, older or newer, is
  // a clean rejection of this connection alone.
  if (hello.protocol_version != wire::kProtocolVersion) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.handshakes_rejected;
    }
    RejectAndClose(
        c, Status::Error(StatusCode::kVersionMismatch,
                         StrFormat("agent speaks protocol %u, this daemon speaks %u",
                                   hello.protocol_version, wire::kProtocolVersion)));
    return;
  }
  c.handshaken = true;
  c.agent_id = hello.agent_id;
  wire::HelloAckPayload ack;
  ack.last_acked_seq = agents_[hello.agent_id].max_contiguous;
  if (cluster_mode()) {
    std::lock_guard<std::mutex> lock(mu_);
    ack.has_topology = true;
    ack.topology = topology_;
  }
  std::vector<uint8_t> payload;
  wire::EncodeHelloAck(ack, &payload);
  QueueFrame(c, wire::FrameType::kHelloAck, std::move(payload), /*sheddable=*/false);
}

void DiagnosisDaemon::HandleBundle(Connection& c, const wire::FrameView& frame) {
  wire::BundleAckPayload ack;
  ack.bundle_seq = frame.seq;
  AgentHistory& history = agents_[c.agent_id];
  if (history.seen_seqs.count(frame.seq) > 0) {
    // Retransmission after a reconnect: acknowledge, never double-ingest.
    ack.duplicate = true;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bundles_duplicate;
  } else {
    wire::BundlePayloadView payload;
    Status status = wire::DecodeBundlePayload(frame.payload, &payload);
    if (status.ok()) {
      auto bundle = wire::DecodeBundle(payload.bundle_bytes);
      if (bundle.ok()) {
        if (cluster_mode() && bundle.value().module_fingerprint != 0) {
          // Ring routing needs a site: the failure record's PC for failing
          // bundles, the explicit target for success bundles. Unstamped
          // bundles bypass the ring (their fingerprint resolves pool-side)
          // and stay wherever the agent sent them.
          const ir::InstId site_inst =
              payload.kind == wire::BundleKind::kFailing
                  ? (bundle.value().failure.IsFailure()
                         ? bundle.value().failure.failing_inst
                         : ir::kInvalidInstId)
                  : static_cast<ir::InstId>(payload.target_site);
          if (site_inst != ir::kInvalidInstId) {
            uint64_t epoch = 0;
            const uint64_t owner =
                OwnerOf(bundle.value().module_fingerprint,
                        static_cast<uint32_t>(site_inst), &epoch);
            if (owner != options_.node_id) {
              ack.status = Status::Error(
                  StatusCode::kWrongShard,
                  StrFormat("site owned by node %llu under ring epoch %llu",
                            static_cast<unsigned long long>(owner),
                            static_cast<unsigned long long>(epoch)));
              BounceWrongShard(c, ack);
              return;
            }
          }
        }
        status = payload.kind == wire::BundleKind::kFailing
                     ? pool_.SubmitFailingTrace(bundle.value())
                     : pool_.SubmitSuccessTrace(payload.target_site, bundle.value());
        if (status.code() == StatusCode::kWrongShard) {
          // The site is being handed off (ServerPool::ExportSite): its
          // records are already on their way to the new owner.
          ack.status = status;
          BounceWrongShard(c, ack);
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.bundles_ingested;
        if (!status.ok()) {
          ++stats_.bundles_rejected;
        }
      } else {
        status = bundle.status();
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.bundles_rejected;
        transport_degradation_.rejected_bundles += 1;
        transport_degradation_.notes.push_back(
            StrFormat("net: agent %llu bundle seq %llu undecodable: %s",
                      static_cast<unsigned long long>(c.agent_id),
                      static_cast<unsigned long long>(frame.seq),
                      status.message().c_str()));
      }
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bundles_rejected;
    }
    ack.status = status;
    // A processed sequence number is consumed even when rejected: the verdict
    // is deterministic, so a retransmission would only repeat it.
    history.seen_seqs.insert(frame.seq);
    while (history.seen_seqs.count(history.max_contiguous + 1) > 0) {
      ++history.max_contiguous;
    }
  }
  std::vector<uint8_t> payload;
  wire::EncodeBundleAck(ack, &payload);
  QueueFrame(c, wire::FrameType::kBundleAck, std::move(payload), /*sheddable=*/false);
}

void DiagnosisDaemon::BounceWrongShard(Connection& c, const wire::BundleAckPayload& ack) {
  // Bounce WITHOUT consuming the sequence number: unlike an ingest rejection,
  // this verdict is a function of the ring, and the same bundle must remain
  // ingestable here if a later topology makes this daemon the owner.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bundles_wrong_shard;
  }
  std::vector<uint8_t> ack_bytes;
  wire::EncodeBundleAck(ack, &ack_bytes);
  QueueFrame(c, wire::FrameType::kBundleAck, std::move(ack_bytes), /*sheddable=*/false);
  // Tell the agent where to go: the current ring rides along so the re-route
  // needs no second round trip.
  std::vector<uint8_t> ring_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wire::EncodeTopology(topology_, &ring_bytes);
    ++stats_.topology_pushes;
  }
  QueueFrame(c, wire::FrameType::kTopology, std::move(ring_bytes), /*sheddable=*/false);
}

void DiagnosisDaemon::HandleDiagnose(Connection& c) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.diagnose_requests;
  }
  c.sheds_this_stream = 0;
  const std::vector<core::ServerPool::ShardReport> reports = pool_.DiagnoseAll();
  for (const core::ServerPool::ShardReport& sr : reports) {
    wire::ReportPayload rp;
    rp.module_fingerprint = sr.key.module_fingerprint;
    rp.failing_inst = sr.key.failing_inst;
    // The full typed aggregate: pass/artifact telemetry, transport stats and
    // the repair plan all survive the wire.
    report::Report full =
        report::MakeReport(sr.report, sr.key.module_fingerprint, std::string());
    full.transport.remote = true;
    full.transport.negotiated_version = wire::kProtocolVersion;
    full.transport.payload_format = wire::kReportFormat;
    full.transport.bundles_acked = agents_[c.agent_id].max_contiguous;
    {
      std::lock_guard<std::mutex> lock(mu_);
      full.transport.bundles_duplicate = stats_.bundles_duplicate;
    }
    wire::EncodeFullReport(full, &rp.report_bytes);
    std::vector<uint8_t> payload;
    wire::EncodeReportPayload(rp, &payload);
    const size_t sheds_before = c.sheds_this_stream;
    QueueFrame(c, wire::FrameType::kReport, std::move(payload), /*sheddable=*/true);
    if (c.sheds_this_stream == sheds_before) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reports_streamed;
    }
  }
  if (c.sheds_this_stream > 0) {
    wire::ShedPayload shed;
    shed.dropped_frames = c.sheds_this_stream;
    shed.note = StrFormat("%zu report frame(s) shed: outbound backlog over %zu bytes",
                          c.sheds_this_stream, options_.max_outbound_bytes);
    NoteTransportLoss(StrFormat("net: agent %llu slow reader: %s",
                                static_cast<unsigned long long>(c.agent_id),
                                shed.note.c_str()),
                      /*decode_errors=*/0);
    std::vector<uint8_t> payload;
    wire::EncodeShed(shed, &payload);
    QueueFrame(c, wire::FrameType::kShed, std::move(payload), /*sheddable=*/false);
  }
  std::vector<uint8_t> end_payload;
  wire::AppendU32(&end_payload, static_cast<uint32_t>(reports.size()));
  QueueFrame(c, wire::FrameType::kReportEnd, std::move(end_payload),
             /*sheddable=*/false);
}

void DiagnosisDaemon::BroadcastTopology() {
  std::vector<uint8_t> ring_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wire::EncodeTopology(topology_, &ring_bytes);
  }
  for (const auto& peer : connections_) {
    if (!peer->handshaken || peer->closing) {
      continue;
    }
    QueueFrame(*peer, wire::FrameType::kTopology, ring_bytes, /*sheddable=*/false);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.topology_pushes;
  }
}

void DiagnosisDaemon::HandleTopology(Connection& c, const wire::FrameView& frame) {
  // Nominally a server->client frame, but a draining peer daemon (acting as
  // a client) pushes its post-departure ring here ahead of a hand-off.
  if (!cluster_mode()) {
    RejectAndClose(c, Status::Error(StatusCode::kInvalidArgument,
                                    "topology push outside cluster mode"));
    return;
  }
  wire::RingTopology proposed;
  const Status status = wire::DecodeTopology(frame.payload, &proposed);
  if (!status.ok()) {
    RejectAndClose(c, status);
    return;
  }
  bool adopted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Epochs order competing views; an equal or older epoch is stale noise.
    if (proposed.epoch > topology_.epoch) {
      topology_ = proposed;
      adopted = true;
    }
  }
  if (adopted) {
    BroadcastTopology();
  }
}

void DiagnosisDaemon::SendHandoffAck(Connection& c, uint64_t fingerprint,
                                     uint32_t inst, const support::Status& status) {
  wire::HandoffAckPayload ack;
  ack.module_fingerprint = fingerprint;
  ack.failing_inst = inst;
  ack.status = status;
  std::vector<uint8_t> payload;
  wire::EncodeHandoffAck(ack, &payload);
  QueueFrame(c, wire::FrameType::kHandoffAck, std::move(payload), /*sheddable=*/false);
}

void DiagnosisDaemon::HandleHandoffBegin(Connection& c, const wire::FrameView& frame) {
  wire::HandoffBeginPayload begin;
  Status status = wire::DecodeHandoffBegin(frame.payload, &begin);
  if (!status.ok()) {
    RejectAndClose(c, status);
    return;
  }
  if (!cluster_mode()) {
    SendHandoffAck(c, begin.module_fingerprint, begin.failing_inst,
                   Status::Error(StatusCode::kFailedPrecondition,
                                 "hand-off to a daemon outside cluster mode"));
    return;
  }
  if (c.handoff_active) {
    RejectAndClose(c, Status::Error(StatusCode::kFailedPrecondition,
                                    "overlapping hand-off on one connection"));
    return;
  }
  uint64_t epoch = 0;
  const uint64_t owner = OwnerOf(begin.module_fingerprint, begin.failing_inst, &epoch);
  if (owner != options_.node_id && epoch >= begin.epoch) {
    // Under a ring at least as new as the sender's, this site belongs to
    // someone else: the sender is routing from a stale view.
    SendHandoffAck(c, begin.module_fingerprint, begin.failing_inst,
                   Status::Error(StatusCode::kWrongShard,
                                 StrFormat("site owned by node %llu under ring epoch %llu",
                                           static_cast<unsigned long long>(owner),
                                           static_cast<unsigned long long>(epoch))));
    return;
  }
  c.handoff_active = true;
  c.handoff = begin;
  c.handoff_records.clear();
  c.handoff_records.reserve(begin.record_count);
  c.handoff_status = Status::Ok();
}

void DiagnosisDaemon::HandleHandoffRecord(Connection& c, const wire::FrameView& frame) {
  if (!c.handoff_active) {
    RejectAndClose(c, Status::Error(StatusCode::kFailedPrecondition,
                                    "hand-off record without a hand-off begin"));
    return;
  }
  wire::HandoffRecordPayloadView payload;
  Status status = wire::DecodeHandoffRecord(frame.payload, &payload);
  if (status.ok() && (payload.module_fingerprint != c.handoff.module_fingerprint ||
                      payload.failing_inst != c.handoff.failing_inst)) {
    status = Status::Error(StatusCode::kInvalidArgument,
                           "hand-off record for a different site");
  }
  engine::SiteRecord record;
  if (status.ok()) {
    status = engine::DecodeSiteRecord(payload.record_bytes, &record);
  }
  if (!status.ok()) {
    // Remember the first casualty; the verdict travels in the final ack so
    // the sender keeps its copy of the site.
    if (c.handoff_status.ok()) {
      c.handoff_status = status;
    }
    return;
  }
  c.handoff_records.push_back(std::move(record));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.handoff_records_received;
}

void DiagnosisDaemon::HandleHandoffEnd(Connection& c, const wire::FrameView& frame) {
  if (!c.handoff_active) {
    RejectAndClose(c, Status::Error(StatusCode::kFailedPrecondition,
                                    "hand-off end without a hand-off begin"));
    return;
  }
  wire::HandoffBeginPayload end;  // kHandoffEnd reuses the begin layout
  Status status = wire::DecodeHandoffBegin(frame.payload, &end);
  c.handoff_active = false;
  if (status.ok() && !c.handoff_status.ok()) {
    status = c.handoff_status;
  }
  if (status.ok() && end.record_count != c.handoff_records.size()) {
    status = Status::Error(
        StatusCode::kInvalidArgument,
        StrFormat("hand-off announced %llu records, %zu arrived",
                  static_cast<unsigned long long>(end.record_count),
                  c.handoff_records.size()));
  }
  if (status.ok()) {
    status = pool_.ImportSite(c.handoff.module_fingerprint,
                              static_cast<ir::InstId>(c.handoff.failing_inst),
                              std::move(c.handoff_records));
  }
  c.handoff_records.clear();
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.handoff_sites_imported;
  }
  SendHandoffAck(c, c.handoff.module_fingerprint, c.handoff.failing_inst, status);
}

support::Status DiagnosisDaemon::HandoffSite(const wire::RingMember& target,
                                             const core::ServerPool::ShardKey& key,
                                             const wire::RingTopology& ring) {
  std::vector<engine::SiteRecord> records;
  if (!pool_.ExportSite(key.module_fingerprint, key.failing_inst, &records)) {
    return Status::Error(StatusCode::kFailedPrecondition, "site vanished before hand-off");
  }
  auto connected = Socket::ConnectLoopback(target.port);
  if (!connected.ok()) {
    return connected.status();
  }
  Socket sock = connected.take();
  wire::FrameAssembler assembler;
  uint64_t seq = 1;

  wire::HelloPayload hello;
  hello.agent_id = options_.node_id;
  std::vector<uint8_t> payload;
  wire::EncodeHello(hello, &payload);
  Status status = SendFrameBlocking(sock, wire::FrameType::kHello, seq++, std::move(payload));
  if (!status.ok()) {
    return status;
  }
  wire::Frame reply;
  status = ReadFrameBlocking(sock, assembler, &reply, /*timeout_ms=*/30000);
  if (!status.ok()) {
    return status;
  }
  if (reply.type == wire::FrameType::kReject) {
    Status verdict;
    if (!wire::DecodeStatusPayload(reply.payload, &verdict).ok() || verdict.ok()) {
      verdict = Status::Error(StatusCode::kInternal, "hand-off peer sent a malformed reject");
    }
    return verdict;
  }
  if (reply.type != wire::FrameType::kHelloAck) {
    return Status::Error(StatusCode::kInternal, "hand-off peer skipped the handshake");
  }

  // The receiver must judge ownership under the post-departure ring, so the
  // ring travels first.
  payload.clear();
  wire::EncodeTopology(ring, &payload);
  status = SendFrameBlocking(sock, wire::FrameType::kTopology, seq++, std::move(payload));
  if (!status.ok()) {
    return status;
  }

  wire::HandoffBeginPayload begin;
  begin.module_fingerprint = key.module_fingerprint;
  begin.failing_inst = static_cast<uint32_t>(key.failing_inst);
  begin.epoch = ring.epoch;
  begin.record_count = records.size();
  payload.clear();
  wire::EncodeHandoffBegin(begin, &payload);
  status = SendFrameBlocking(sock, wire::FrameType::kHandoffBegin, seq++, std::move(payload));
  if (!status.ok()) {
    return status;
  }
  for (const engine::SiteRecord& record : records) {
    wire::HandoffRecordPayload rp;
    rp.module_fingerprint = begin.module_fingerprint;
    rp.failing_inst = begin.failing_inst;
    engine::EncodeSiteRecord(record, &rp.record_bytes);
    payload.clear();
    wire::EncodeHandoffRecord(rp, &payload);
    status = SendFrameBlocking(sock, wire::FrameType::kHandoffRecord, seq++, std::move(payload));
    if (!status.ok()) {
      return status;
    }
  }
  payload.clear();
  wire::EncodeHandoffBegin(begin, &payload);  // end frames reuse the begin layout
  status = SendFrameBlocking(sock, wire::FrameType::kHandoffEnd, seq++, std::move(payload));
  if (!status.ok()) {
    return status;
  }

  for (;;) {
    status = ReadFrameBlocking(sock, assembler, &reply, /*timeout_ms=*/30000);
    if (!status.ok()) {
      return status;
    }
    if (reply.type == wire::FrameType::kHandoffAck) {
      wire::HandoffAckPayload ack;
      status = wire::DecodeHandoffAck(reply.payload, &ack);
      return status.ok() ? ack.status : status;
    }
    if (reply.type == wire::FrameType::kReject) {
      Status verdict;
      if (!wire::DecodeStatusPayload(reply.payload, &verdict).ok() || verdict.ok()) {
        verdict = Status::Error(StatusCode::kInternal, "hand-off peer sent a malformed reject");
      }
      return verdict;
    }
    // Anything else (a topology echo) is skipped.
  }
}

}  // namespace snorlax::net
