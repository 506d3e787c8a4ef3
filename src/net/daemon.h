// DiagnosisDaemon: the fleet-facing TCP front door of the diagnosis service.
//
// One poll(2)-driven thread owns every socket: it accepts agent connections,
// runs the version handshake, reassembles frames (wire::FrameAssembler),
// decodes bundle payloads, and feeds them into the ServerPool -- the same
// ingest the in-process benches use, so a bundle multiset shipped over
// loopback must diagnose digest-identically to direct submission. The pool
// is where ingest synchronizes (one lock per site): Drain() exports and drops
// sites on the caller's thread while the poll thread keeps serving them.
//
// Robustness policy (the daemon is the trust boundary of the fleet):
//   - corrupt frames are skipped via magic-scan resync and recorded in the
//     transport DegradationReport; the connection survives,
//   - a client whose reassembly buffer exceeds the per-connection inflight
//     bound is rejected and disconnected (backpressure),
//   - report frames for a reader that is not draining its socket are shed
//     once the outbound backlog exceeds its bound; the loss is recorded as a
//     DegradationReport note and announced to the peer in a Shed frame,
//   - version-skewed handshakes get a clean kVersionMismatch Reject; every
//     other connection stays healthy,
//   - duplicate bundle sequence numbers (agent retransmissions after a
//     reconnect) are acknowledged but not re-ingested.
#ifndef SNORLAX_NET_DAEMON_H_
#define SNORLAX_NET_DAEMON_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/server_pool.h"
#include "net/socket.h"
#include "trace/degradation.h"
#include "wire/frame.h"

namespace snorlax::net {

struct DaemonOptions {
  uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  size_t max_connections = 64;
  // Per-connection reassembly bound: bytes buffered awaiting a complete
  // frame. A peer exceeding it is rejected and dropped (backpressure).
  size_t max_inflight_bytes = 8u << 20;
  // Per-connection outbound backlog above which report frames are shed.
  size_t max_outbound_bytes = 4u << 20;
  // SO_SNDBUF clamp for accepted sockets; 0 keeps the kernel default. The
  // kernel auto-tunes send buffers into the megabytes, which hides a
  // non-draining reader behind kernel memory -- clamping makes the shed
  // policy bite at a bounded backlog (and makes it testable).
  int sndbuf_bytes = 0;
  // Options for the shared ServerPool the daemon ingests into.
  core::ServerPoolOptions pool;

  // -- Cluster mode --
  // Stable ring identity of this daemon. Cluster mode is on when node_id != 0
  // and `members` (which must include this daemon) is non-empty: the
  // handshake then advertises the ring, bundles for sites another member owns
  // bounce with kWrongShard, and hand-off frames are accepted from peers.
  uint64_t node_id = 0;
  std::vector<wire::RingMember> members;
  uint64_t ring_epoch = 1;
  uint32_t virtual_nodes = 64;

  // -- Durability --
  // Durable log directory; empty = no persistence. When set, Start() opens
  // (or creates) the log and replays it before serving, so modules must be
  // registered before Start() for their sites to recover.
  std::string data_dir;
  size_t max_segment_bytes = 8u << 20;
  bool fsync_each_append = false;
};

struct DaemonStats {
  size_t connections_accepted = 0;
  size_t connections_closed = 0;
  size_t handshakes_rejected = 0;  // version skew or malformed hello
  size_t frames_received = 0;      // valid frames, any type
  size_t frames_corrupt = 0;       // assembler-detected corruption events
  size_t bundles_ingested = 0;     // handed to the pool (ok or pool-rejected)
  size_t bundles_duplicate = 0;    // seqs already seen; not re-ingested
  size_t bundles_rejected = 0;     // undecodable payload or pool rejection
  size_t diagnose_requests = 0;
  size_t reports_streamed = 0;
  size_t report_frames_shed = 0;  // dropped on slow readers
  // Cluster-mode accounting.
  size_t bundles_wrong_shard = 0;      // bounced to the owning member, seq not consumed
  size_t topology_pushes = 0;          // kTopology frames sent to peers
  size_t handoff_records_received = 0; // inbound hand-off records accepted
  size_t handoff_sites_imported = 0;   // inbound hand-offs completed
  size_t handoff_sites_sent = 0;       // outbound hand-offs acked by the new owner
};

class DiagnosisDaemon {
 public:
  explicit DiagnosisDaemon(DaemonOptions options = {});
  ~DiagnosisDaemon();

  // Makes a module routable (forwards to the pool; callable any time).
  void RegisterModule(const ir::Module* module);

  // Binds the listen socket, opens + replays the durable log (when data_dir
  // is set), and spawns the poll thread.
  support::Status Start();
  // Stops the poll thread, closes every connection, and syncs + closes the
  // durable log. Idempotent.
  void Stop();

  // Graceful shutdown (the SIGTERM path): stops accepting new connections,
  // diagnoses everything still owned into `final_reports` (when non-null),
  // adopts the ring without this daemon (so new bundles bounce to their next
  // owner), hands each site off to that owner, fsyncs the durable log, then
  // Stop()s. A site refuses ingest from its export until its drop, so no
  // bundle it acks misses the hand-off. A failed hand-off leaves the site
  // local -- its records stay in the durable log -- and the drain keeps
  // going; the first failure is returned after everything else completes.
  support::Status Drain(std::vector<core::ServerPool::ShardReport>* final_reports = nullptr);

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Valid after Start() succeeded.
  uint16_t port() const { return port_; }

  bool cluster_mode() const {
    return options_.node_id != 0 && !options_.members.empty();
  }
  // Current ring view (copied: the poll thread adopts newer epochs it hears).
  wire::RingTopology topology() const;
  // Durable-log replay outcome; meaningful when recovered() is true.
  bool recovered() const { return recovered_; }
  const core::ServerPool::RecoveryStats& recovery() const { return recovery_; }

  // The shared ingest target. Thread-safe itself (a lock per site); also
  // used by tests to compare against direct in-process submission.
  core::ServerPool& pool() { return pool_; }
  const core::ServerPool& pool() const { return pool_; }

  DaemonStats stats() const;
  // Transport-level losses (corrupt frames, shed reports, dropped peers),
  // kept separate from the per-shard analysis degradation: a lossy wire must
  // not masquerade as lossy evidence.
  trace::DegradationReport transport_degradation() const;

 private:
  struct Connection {
    Socket sock;
    wire::FrameAssembler assembler;
    bool handshaken = false;
    bool closing = false;  // flush outbound, then close
    uint64_t agent_id = 0;
    uint64_t out_seq = 0;
    std::vector<uint8_t> outbound;
    size_t outbound_start = 0;
    size_t sheds_this_stream = 0;
    // In-progress inbound site hand-off (peer daemon -> this daemon). Records
    // accumulate here and apply atomically at kHandoffEnd.
    bool handoff_active = false;
    wire::HandoffBeginPayload handoff;
    std::vector<engine::SiteRecord> handoff_records;
    support::Status handoff_status;  // first per-record failure, acked at the end

    explicit Connection(Socket s, size_t max_inflight)
        : sock(std::move(s)), assembler(max_inflight) {}
    size_t outbound_pending() const { return outbound.size() - outbound_start; }
  };

  void Loop();
  void AcceptPending();
  // Reads everything available; returns false when the connection should die.
  bool ReadFrom(Connection& c);
  bool WriteTo(Connection& c);
  // Frame handlers run on views into the assembler buffer (valid for the
  // duration of the call): bundle payloads decode straight from the socket
  // buffer with no intermediate copy.
  void HandleFrame(Connection& c, const wire::FrameView& frame);
  void HandleHello(Connection& c, const wire::FrameView& frame);
  void HandleBundle(Connection& c, const wire::FrameView& frame);
  // Acks a bundle this daemon will not ingest with kWrongShard, leaving its
  // sequence number unconsumed, and pushes the ring so the agent re-routes.
  void BounceWrongShard(Connection& c, const wire::BundleAckPayload& ack);
  void HandleDiagnose(Connection& c);
  // Cluster handlers (poll thread). A topology push with a newer epoch is
  // adopted and re-broadcast to every handshaken peer.
  void HandleTopology(Connection& c, const wire::FrameView& frame);
  void HandleHandoffBegin(Connection& c, const wire::FrameView& frame);
  void HandleHandoffRecord(Connection& c, const wire::FrameView& frame);
  void HandleHandoffEnd(Connection& c, const wire::FrameView& frame);
  void SendHandoffAck(Connection& c, uint64_t fingerprint, uint32_t inst,
                      const support::Status& status);
  void BroadcastTopology();
  // Owner of (fingerprint, inst) under the current ring, plus that ring's
  // epoch (for the bounce message).
  uint64_t OwnerOf(uint64_t fingerprint, uint32_t inst, uint64_t* epoch) const;
  // Drain-side sender: ships one site's records to `target` over a fresh
  // blocking connection (hello, topology push, begin/record*/end, ack).
  support::Status HandoffSite(const wire::RingMember& target,
                              const core::ServerPool::ShardKey& key,
                              const wire::RingTopology& ring);
  core::ServerPoolOptions PoolOptions();
  // Queues a frame for writing. Sheddable frames are dropped (and counted)
  // when the peer's backlog exceeds max_outbound_bytes.
  void QueueFrame(Connection& c, wire::FrameType type, std::vector<uint8_t> payload,
                  bool sheddable);
  void RejectAndClose(Connection& c, const support::Status& status);
  void NoteTransportLoss(const std::string& note, size_t decode_errors);

  DaemonOptions options_;
  // Declared before pool_: PoolOptions() hands the pool a pointer to this
  // log (its address is stable even before construction completes).
  engine::DurableLog log_;
  core::ServerPool pool_;
  Socket listener_;
  uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool recovered_ = false;  // written before the poll thread starts
  core::ServerPool::RecoveryStats recovery_;

  // Poll-thread-only state (no lock needed).
  std::vector<std::unique_ptr<Connection>> connections_;
  struct AgentHistory {
    std::unordered_set<uint64_t> seen_seqs;
    uint64_t max_contiguous = 0;  // highest N with 1..N all seen
  };
  std::unordered_map<uint64_t, AgentHistory> agents_;

  // Shared with accessor threads. `topology_` is read at handshake and for
  // routing on the poll thread, adopted on kTopology pushes, and copied by
  // Drain() on the caller thread.
  mutable std::mutex mu_;
  DaemonStats stats_;
  trace::DegradationReport transport_degradation_;
  wire::RingTopology topology_;
};

}  // namespace snorlax::net

#endif  // SNORLAX_NET_DAEMON_H_
