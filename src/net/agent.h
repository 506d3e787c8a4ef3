// DiagnosisAgent: the monitored machine's reporting side of the fleet
// protocol.
//
// Bundles are enqueued locally and shipped in batches: Flush() encodes every
// pending bundle into one contiguous write (frames are already
// length-prefixed, so batching is free) and then waits for the daemon's
// per-bundle acknowledgements. On connect or write failure the agent retries
// with exponential backoff plus seeded jitter; after a reconnect it
// retransmits only what the daemon has not acknowledged -- the HelloAck's
// last-acked sequence trims the pending queue, and the daemon's per-sequence
// dedup absorbs whatever is retransmitted anyway. Each bundle's sequence
// number is assigned once, at enqueue, and never reused: a bundle is ingested
// at most once no matter how many times the connection dies mid-flush.
#ifndef SNORLAX_NET_AGENT_H_
#define SNORLAX_NET_AGENT_H_

#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "core/server.h"
#include "faults/injector.h"
#include "net/socket.h"
#include "pt/encoder.h"
#include "report/report.h"
#include "wire/frame.h"

namespace snorlax::net {

struct AgentOptions {
  uint16_t port = 0;
  // Stable identity across reconnects; the daemon's dedup state is keyed by
  // it, so two agents must not share one id.
  uint64_t agent_id = 1;
  // Connect/flush retry budget: attempts are spaced backoff_initial_ms * 2^n
  // plus uniform jitter in [0, backoff), capped at backoff_max_ms.
  size_t max_attempts = 8;
  // Hard reconnect bound within one Flush/Diagnose: once this many retry
  // rounds have reconnected without settling the queue, the agent stops and
  // surfaces kUnavailable (distinguishable from a daemon verdict, so callers
  // can fail over to another ring member). 0 = bounded by max_attempts alone,
  // which reports the last transient error instead.
  size_t max_reconnect_attempts = 0;
  uint64_t backoff_initial_ms = 5;
  uint64_t backoff_max_ms = 500;
  uint64_t jitter_seed = 1;
  // Bound on waiting for acks/reports before declaring the daemon hung.
  int io_timeout_ms = 30000;
  // Chaos hook: kFrameCorrupt specs are applied to every outgoing frame
  // (truncate / bit-flip / duplicate), simulating a corrupting link.
  faults::FaultPlan chaos;
};

struct AgentStats {
  size_t bundles_enqueued = 0;
  size_t bundles_acked = 0;      // ingest verdict received (ok or rejected)
  size_t bundles_duplicate = 0;  // daemon had already seen the sequence
  size_t bundles_rejected = 0;   // daemon's ingest said no
  size_t bundles_wrong_shard = 0;  // bounced: another ring member owns the site
  size_t connects = 0;
  size_t reconnects = 0;         // connects after the first
  size_t retries = 0;            // backoff sleeps taken
  size_t frames_chaos_corrupted = 0;
  // Encoded bundle-frame bytes handed to the socket (retransmissions count
  // again): the bench's bytes-per-bundle numerator.
  size_t bundle_bytes_sent = 0;
};

// One shard's diagnosis as received over the wire. `full` is the typed
// aggregate the daemon sent and is always set; `report` is its embedded
// DiagnosisReport, copied out for digest and ranking call sites.
struct RemoteReport {
  uint64_t module_fingerprint = 0;
  ir::InstId failing_inst = ir::kInvalidInstId;
  core::DiagnosisReport report;
  std::shared_ptr<const report::Report> full;
};

class DiagnosisAgent {
 public:
  explicit DiagnosisAgent(AgentOptions options);

  // Queues a bundle for the next Flush. Sequence numbers are assigned here.
  void EnqueueFailing(const pt::PtTraceBundle& bundle);
  void EnqueueSuccess(ir::InstId site, const pt::PtTraceBundle& bundle);

  // Ships every pending bundle and waits for all acknowledgements, retrying
  // across reconnects. Returns the first non-retryable error (e.g. the
  // daemon's version-skew Reject) or OK once the queue is empty.
  support::Status Flush();

  // Convenience: enqueue + flush.
  support::Status SendFailing(const pt::PtTraceBundle& bundle);
  support::Status SendSuccess(ir::InstId site, const pt::PtTraceBundle& bundle);

  // Requests diagnosis of everything the daemon has ingested; returns every
  // shard report streamed back (shed frames reduce the count; sheds are
  // visible via shed_notices()). Implies Flush().
  support::Result<std::vector<RemoteReport>> Diagnose();

  // Drops the connection without flushing (tests simulate link failure; the
  // next Flush reconnects and retransmits).
  void Disconnect();

  const AgentStats& stats() const { return stats_; }
  // End-to-end milliseconds from first transmission to acknowledgement, one
  // entry per acked bundle (the fleet bench's latency sample).
  const std::vector<double>& ack_latencies_ms() const { return ack_latencies_ms_; }
  // Shed notices received from the daemon (slow-reader backpressure).
  const std::vector<std::string>& shed_notices() const { return shed_notices_; }

  // Newest ring view heard from the daemon (HelloAck trailing block or a
  // kTopology push). Empty in a single-daemon fleet -- then everything routes
  // to the dialed port.
  const wire::RingTopology& topology() const { return topology_; }

  // Bundles the daemon bounced with kWrongShard. Unlike rejections these are
  // not settled verdicts: the site belongs to another ring member, and the
  // caller (ClusterAgent) re-enqueues them there. Take clears.
  struct WrongShardBundle {
    wire::BundleKind kind = wire::BundleKind::kFailing;
    ir::InstId site = ir::kInvalidInstId;
    pt::PtTraceBundle bundle;
  };
  std::vector<WrongShardBundle> TakeWrongShard();

 private:
  // A queued bundle keeps its structured form (a wrong-shard bounce hands it
  // back for re-routing); its frame is encoded once, at first flush, and
  // retransmitted verbatim after a reconnect.
  struct PendingBundle {
    uint64_t seq = 0;
    wire::BundleKind kind = wire::BundleKind::kFailing;
    ir::InstId site = ir::kInvalidInstId;
    pt::PtTraceBundle bundle;
    std::vector<uint8_t> frame_bytes;  // encoded kBundle frame, or empty
    std::chrono::steady_clock::time_point first_sent{};
    bool sent = false;
  };

  // Connects + handshakes if not connected. Non-retryable daemon rejects come
  // back as their Status; transient socket errors as kInternal.
  support::Status EnsureConnected();
  support::Status ConnectOnce();
  void Enqueue(wire::BundleKind kind, ir::InstId site, const pt::PtTraceBundle& bundle);
  // One batched transmit + ack-wait pass over the pending queue; Flush wraps
  // it in the reconnect/backoff loop.
  support::Status FlushOnce();
  // Waits for one frame (ack/report/shed/reject) within io_timeout_ms.
  support::Status ReadFrame(wire::Frame* frame);
  support::Status WriteAll(const std::vector<uint8_t>& bytes);
  void BackoffSleep(size_t attempt);

  AgentOptions options_;
  Socket sock_;
  bool connected_ = false;
  uint64_t next_seq_ = 1;
  uint64_t out_frame_seq_ = 1;  // non-bundle frames' header sequence
  std::deque<PendingBundle> pending_;
  wire::FrameAssembler assembler_;
  faults::FrameFaultInjector chaos_;
  Rng jitter_rng_;
  AgentStats stats_;
  std::vector<double> ack_latencies_ms_;
  std::vector<std::string> shed_notices_;
  wire::RingTopology topology_;
  std::vector<WrongShardBundle> wrong_shard_;
};

}  // namespace snorlax::net

#endif  // SNORLAX_NET_AGENT_H_
