#include "net/agent.h"

#include <poll.h>

#include <algorithm>
#include <thread>

#include "support/str.h"
#include "wire/serialize.h"

namespace snorlax::net {

using support::Status;
using support::StatusCode;

namespace {

// Transient failures are retried under backoff; anything else (version skew,
// protocol abuse verdicts) is surfaced to the caller immediately.
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kInternal;
}

}  // namespace

DiagnosisAgent::DiagnosisAgent(AgentOptions options)
    : options_(options),
      chaos_(options.chaos),
      jitter_rng_(options.jitter_seed) {}

void DiagnosisAgent::Enqueue(wire::BundleKind kind, ir::InstId site,
                             const pt::PtTraceBundle& bundle) {
  PendingBundle pending;
  pending.seq = next_seq_++;
  pending.kind = kind;
  pending.site = site;
  pending.bundle = bundle;
  pending_.push_back(std::move(pending));
  ++stats_.bundles_enqueued;
}

void DiagnosisAgent::EnqueueFailing(const pt::PtTraceBundle& bundle) {
  Enqueue(wire::BundleKind::kFailing, ir::kInvalidInstId, bundle);
}

void DiagnosisAgent::EnqueueSuccess(ir::InstId site, const pt::PtTraceBundle& bundle) {
  Enqueue(wire::BundleKind::kSuccess, site, bundle);
}

support::Status DiagnosisAgent::SendFailing(const pt::PtTraceBundle& bundle) {
  EnqueueFailing(bundle);
  return Flush();
}

support::Status DiagnosisAgent::SendSuccess(ir::InstId site,
                                            const pt::PtTraceBundle& bundle) {
  EnqueueSuccess(site, bundle);
  return Flush();
}

void DiagnosisAgent::Disconnect() {
  sock_.Close();
  connected_ = false;
  assembler_ = wire::FrameAssembler();
}

void DiagnosisAgent::BackoffSleep(size_t attempt) {
  uint64_t base = options_.backoff_initial_ms << std::min<size_t>(attempt, 16);
  base = std::min(base, options_.backoff_max_ms);
  // Full jitter: uniform in [base/2, base], decorrelating a fleet of agents
  // that all lost the same daemon at the same moment.
  const uint64_t ms = base / 2 + jitter_rng_.NextBelow(base / 2 + 1);
  ++stats_.retries;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

support::Status DiagnosisAgent::ConnectOnce() {
  Disconnect();
  auto sock = Socket::ConnectLoopback(options_.port);
  if (!sock.ok()) {
    return sock.status();
  }
  sock_ = sock.take();
  ++stats_.connects;
  if (stats_.connects > 1) {
    ++stats_.reconnects;
  }

  wire::Frame hello;
  hello.type = wire::FrameType::kHello;
  hello.seq = out_frame_seq_++;
  wire::HelloPayload payload;
  payload.agent_id = options_.agent_id;
  wire::EncodeHello(payload, &hello.payload);
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(hello, &bytes);
  Status status = WriteAll(bytes);
  if (!status.ok()) {
    return status;
  }

  wire::Frame reply;
  status = ReadFrame(&reply);
  if (!status.ok()) {
    return status;
  }
  if (reply.type == wire::FrameType::kReject) {
    Status verdict;
    if (!wire::DecodeStatusPayload(reply.payload, &verdict).ok() || verdict.ok()) {
      verdict = Status::Error(StatusCode::kInternal, "daemon sent a malformed reject");
    }
    Disconnect();
    return verdict;
  }
  if (reply.type != wire::FrameType::kHelloAck) {
    Disconnect();
    return Status::Error(StatusCode::kInternal,
                         StrFormat("expected hello-ack, got '%s'",
                                   wire::FrameTypeName(reply.type)));
  }
  wire::HelloAckPayload ack;
  status = wire::DecodeHelloAck(reply.payload, &ack);
  if (!status.ok()) {
    Disconnect();
    return status;
  }
  // A fresh handshake is the authoritative ring view: adopt it even when the
  // epoch regressed (this daemon may be a different fleet than the last one).
  if (ack.has_topology) {
    topology_ = ack.topology;
  }
  // Everything the daemon already ingested needs no retransmission.
  while (!pending_.empty() && pending_.front().seq <= ack.last_acked_seq) {
    ++stats_.bundles_acked;
    ++stats_.bundles_duplicate;
    pending_.pop_front();
  }
  connected_ = true;
  return Status::Ok();
}

support::Status DiagnosisAgent::EnsureConnected() {
  // Single attempt: Flush()'s backoff loop owns the retry policy, so a
  // connect failure costs one attempt there rather than multiplying budgets.
  if (connected_) {
    return Status::Ok();
  }
  return ConnectOnce();
}

support::Status DiagnosisAgent::WriteAll(const std::vector<uint8_t>& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    bool would_block = false;
    const ssize_t n = sock_.Write(bytes.data() + written, bytes.size() - written,
                                  &would_block);
    if (n < 0) {
      if (would_block) {
        pollfd pfd{sock_.fd(), POLLOUT, 0};
        if (::poll(&pfd, 1, options_.io_timeout_ms) <= 0) {
          return Status::Error(StatusCode::kInternal, "write timed out");
        }
        continue;
      }
      return Status::Error(StatusCode::kInternal, "connection lost mid-write");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

support::Status DiagnosisAgent::ReadFrame(wire::Frame* frame) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.io_timeout_ms);
  for (;;) {
    if (assembler_.Next(frame)) {
      if (frame->type == wire::FrameType::kTopology) {
        // Routing metadata, not a reply: absorb it here so every read path
        // (flush acks, report streams) stays topology-aware for free.
        wire::RingTopology pushed;
        if (wire::DecodeTopology(frame->payload, &pushed).ok() &&
            (topology_.empty() || pushed.epoch > topology_.epoch)) {
          topology_ = std::move(pushed);
        }
        continue;
      }
      return Status::Ok();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::Error(StatusCode::kInternal, "timed out waiting for a frame");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    pollfd pfd{sock_.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
    if (ready < 0) {
      continue;  // EINTR
    }
    if (ready == 0) {
      return Status::Error(StatusCode::kInternal, "timed out waiting for a frame");
    }
    uint8_t buf[64 * 1024];
    bool would_block = false;
    const ssize_t n = sock_.Read(buf, sizeof(buf), &would_block);
    if (n < 0 && would_block) {
      continue;
    }
    if (n <= 0) {
      return Status::Error(StatusCode::kInternal, "connection closed by daemon");
    }
    if (!assembler_.Feed(buf, static_cast<size_t>(n))) {
      return Status::Error(StatusCode::kInternal, "reply stream overran the buffer");
    }
  }
}

support::Status DiagnosisAgent::FlushOnce() {
  // Batch: one contiguous write covering every unacked bundle, each frame
  // individually chaos-mutated (the fault model corrupts frames, and a
  // duplicated frame is sent back to back, as a retransmitting link would).
  std::vector<uint8_t> batch;
  const auto now = std::chrono::steady_clock::now();
  for (PendingBundle& pending : pending_) {
    if (!pending.sent) {
      pending.first_sent = now;
      pending.sent = true;
    }
    if (pending.frame_bytes.empty()) {
      wire::BundlePayload payload;
      payload.kind = pending.kind;
      payload.target_site = pending.site;
      wire::EncodeBundle(pending.bundle, &payload.bundle_bytes);
      wire::Frame frame;
      frame.type = wire::FrameType::kBundle;
      frame.seq = pending.seq;
      wire::EncodeBundlePayload(payload, &frame.payload);
      wire::EncodeFrame(frame, &pending.frame_bytes);
    }
    stats_.bundle_bytes_sent += pending.frame_bytes.size();
    std::vector<uint8_t> frame_bytes = pending.frame_bytes;
    bool send_twice = false;
    if (chaos_.enabled()) {
      const std::vector<std::string> log = chaos_.Apply(&frame_bytes, &send_twice);
      stats_.frames_chaos_corrupted += log.size();
    }
    batch.insert(batch.end(), frame_bytes.begin(), frame_bytes.end());
    if (send_twice) {
      batch.insert(batch.end(), frame_bytes.begin(), frame_bytes.end());
    }
  }
  Status status = WriteAll(batch);
  if (!status.ok()) {
    return status;
  }

  // Collect acks until the pending queue drains. Acks can arrive out of
  // order relative to our queue only through retransmission races, so match
  // by sequence number, not position.
  while (!pending_.empty()) {
    wire::Frame frame;
    status = ReadFrame(&frame);
    if (!status.ok()) {
      return status;
    }
    if (frame.type == wire::FrameType::kReject) {
      Status verdict;
      if (!wire::DecodeStatusPayload(frame.payload, &verdict).ok() || verdict.ok()) {
        verdict = Status::Error(StatusCode::kInternal, "daemon sent a malformed reject");
      }
      Disconnect();
      return verdict;
    }
    if (frame.type != wire::FrameType::kBundleAck) {
      continue;  // stale report/shed frames from an earlier stream
    }
    wire::BundleAckPayload ack;
    if (!wire::DecodeBundleAck(frame.payload, &ack).ok()) {
      continue;
    }
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&](const PendingBundle& p) { return p.seq == ack.bundle_seq; });
    if (it == pending_.end()) {
      continue;  // ack for a bundle a previous connection already settled
    }
    ack_latencies_ms_.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  it->first_sent)
            .count());
    ++stats_.bundles_acked;
    if (ack.duplicate) {
      ++stats_.bundles_duplicate;
    } else if (ack.status.code() == StatusCode::kWrongShard) {
      // Not a settled verdict: the daemon did not consume the sequence, and
      // the bundle must reach the owning member. Park it for the re-router.
      ++stats_.bundles_wrong_shard;
      wrong_shard_.push_back(
          WrongShardBundle{it->kind, it->site, std::move(it->bundle)});
    } else if (!ack.status.ok()) {
      ++stats_.bundles_rejected;
    }
    pending_.erase(it);
  }
  return Status::Ok();
}

std::vector<DiagnosisAgent::WrongShardBundle> DiagnosisAgent::TakeWrongShard() {
  std::vector<WrongShardBundle> taken;
  taken.swap(wrong_shard_);
  return taken;
}

support::Status DiagnosisAgent::Flush() {
  Status status;
  size_t reconnect_attempts = 0;
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (options_.max_reconnect_attempts > 0 &&
          reconnect_attempts >= options_.max_reconnect_attempts) {
        return Status::Error(
            StatusCode::kUnavailable,
            StrFormat("daemon unreachable after %zu reconnect attempt(s): %s",
                      reconnect_attempts, status.message().c_str()));
      }
      ++reconnect_attempts;
      BackoffSleep(attempt - 1);
    }
    status = EnsureConnected();
    if (status.ok()) {
      if (pending_.empty()) {
        return Status::Ok();
      }
      status = FlushOnce();
      if (status.ok()) {
        return Status::Ok();
      }
    }
    if (!Retryable(status)) {
      return status;
    }
    Disconnect();  // retransmit everything unacked on the next attempt
  }
  if (options_.max_reconnect_attempts > 0) {
    return Status::Error(
        StatusCode::kUnavailable,
        StrFormat("daemon unreachable after %zu reconnect attempt(s): %s",
                  reconnect_attempts, status.message().c_str()));
  }
  return status;
}

support::Result<std::vector<RemoteReport>> DiagnosisAgent::Diagnose() {
  Status status = Flush();
  if (!status.ok()) {
    return status;
  }
  status = EnsureConnected();
  if (!status.ok()) {
    return status;
  }
  wire::Frame request;
  request.type = wire::FrameType::kDiagnose;
  request.seq = out_frame_seq_++;
  std::vector<uint8_t> bytes;
  wire::EncodeFrame(request, &bytes);
  status = WriteAll(bytes);
  if (!status.ok()) {
    return status;
  }

  std::vector<RemoteReport> reports;
  for (;;) {
    wire::Frame frame;
    status = ReadFrame(&frame);
    if (!status.ok()) {
      return status;
    }
    switch (frame.type) {
      case wire::FrameType::kReport: {
        wire::ReportPayload payload;
        status = wire::DecodeReportPayload(frame.payload, &payload);
        if (!status.ok()) {
          return status;
        }
        auto full = wire::DecodeFullReport(payload.report_bytes);
        if (!full.ok()) {
          return full.status();
        }
        auto owned = std::make_shared<report::Report>(full.take());
        owned->transport.reconnects = stats_.reconnects;
        RemoteReport remote;
        remote.module_fingerprint = payload.module_fingerprint;
        remote.failing_inst = payload.failing_inst;
        remote.report = owned->diagnosis;
        remote.full = std::move(owned);
        reports.push_back(std::move(remote));
        break;
      }
      case wire::FrameType::kShed: {
        wire::ShedPayload shed;
        if (wire::DecodeShed(frame.payload, &shed).ok()) {
          shed_notices_.push_back(shed.note);
        }
        break;
      }
      case wire::FrameType::kReportEnd:
        return reports;
      case wire::FrameType::kReject: {
        Status verdict;
        if (!wire::DecodeStatusPayload(frame.payload, &verdict).ok() || verdict.ok()) {
          verdict = Status::Error(StatusCode::kInternal, "daemon sent a malformed reject");
        }
        Disconnect();
        return verdict;
      }
      default:
        break;  // stray acks from a prior flush are harmless
    }
  }
}

}  // namespace snorlax::net
