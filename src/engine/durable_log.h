// Durable artifact log: an append-only, CRC-framed segment log that makes a
// failure site's accumulated state survive daemon restarts.
//
// Every record is one (site, SiteRecord) pair: an artifact written on pass
// completion, one piece of ingested evidence, or an ingest rejection.
// Evidence is the bundle: the first record of a key carries its wire
// encoding, a repeat is a key-only reference (engine/artifact_codec.h). On
// startup the daemon replays the log in write order and rebuilds each site --
// artifacts re-populate the store (so no analysis pass recomputes), each
// unique evidence bundle is rebuilt into its trace once and re-enters through
// the normal add paths, and rejection records keep the degradation accounting
// digest-identical -- so a restarted daemon cold-starts from local disk
// instead of re-ingesting the fleet.
//
// On-disk record framing (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "SNLG" (0x53 0x4e 0x4c 0x47)
//   4       4     payload length N (bounded by kMaxRecordBytes)
//   8       4     CRC-32 over payload
//   12      N     payload: site fingerprint u64, site inst u32,
//                 EncodeSiteRecord bytes
//
// The failure model mirrors the wire layer's: a torn tail write (crash mid
// append) is salvaged by keeping the valid prefix; a flipped bit is a CRC
// mismatch skipped via magic-scan resync, costing one record, not the log;
// duplicate artifact hashes (a crash between store insert and evidence
// append, then a re-run) are deduplicated on replay because equal key means
// equal content by construction.
//
// Segments rotate at max_segment_bytes so a long-lived daemon's log stays in
// bounded-size pieces; replay walks segments in creation order.
#ifndef SNORLAX_ENGINE_DURABLE_LOG_H_
#define SNORLAX_ENGINE_DURABLE_LOG_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "engine/artifact_codec.h"
#include "support/status.h"

namespace snorlax::engine {

// Identifies a failure site on disk and across the wire: the module content
// fingerprint plus the failing instruction id.
struct DurableSiteKey {
  uint64_t module_fingerprint = 0;
  uint32_t failing_inst = 0;

  bool operator==(const DurableSiteKey& o) const {
    return module_fingerprint == o.module_fingerprint && failing_inst == o.failing_inst;
  }
};

class DurableLog {
 public:
  static constexpr uint8_t kRecordMagic[4] = {0x53, 0x4e, 0x4c, 0x47};  // "SNLG"
  static constexpr size_t kRecordHeaderBytes = 4 + 4 + 4;
  // A record carries at most one artifact or one evidence bundle, which
  // arrived in a frame; 64 MB leaves headroom over the wire layer's 32 MB
  // frame cap while still rejecting a forged length before any allocation.
  static constexpr size_t kMaxRecordBytes = 64u << 20;

  struct Options {
    std::string directory;  // created (recursively) when missing
    // Rotation threshold: a segment is closed once it grows past this.
    size_t max_segment_bytes = 8u << 20;
    // Durability knob: fsync after every append (chaos tests) vs. explicit
    // Sync() at drain points (production default; a crash loses at most the
    // un-synced suffix, which the fleet re-sends).
    bool fsync_each_append = false;
  };

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t segments_created = 0;
    uint64_t syncs = 0;
    // Replay-side accounting.
    uint64_t records_replayed = 0;
    uint64_t records_corrupt = 0;    // CRC mismatch / undecodable, skipped
    uint64_t records_duplicate = 0;  // repeated artifact hash, dropped
    uint64_t truncated_tails = 0;    // torn final record, prefix salvaged
    uint64_t bytes_discarded = 0;    // skipped during corruption resync
  };

  DurableLog() = default;
  ~DurableLog();
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  // Opens (or creates) the log directory and positions appends after the
  // last existing segment. Safe to call on a directory full of segments from
  // a previous incarnation; Replay() reads those.
  support::Status Open(const Options& options);
  bool is_open() const;
  void Close();

  // Appends one record; thread-safe. Rotates segments as needed.
  support::Status Append(const DurableSiteKey& site, const SiteRecord& record);

  // Flushes and fsyncs the current segment (the SIGTERM drain barrier).
  support::Status Sync();

  // Replays every surviving record across all segments in write order.
  // Corrupt records are skipped (counted), a torn tail is salvaged, and
  // duplicate artifact records -- same (site, kind, key) -- are dropped.
  // Returns kOk even for a damaged log: recovery is best-effort by design,
  // and the stats tell the operator what was lost.
  support::Status Replay(
      const std::function<void(const DurableSiteKey&, SiteRecord&&)>& fn);

  Stats stats() const;
  const std::string& directory() const { return options_.directory; }

 private:
  support::Status OpenSegmentLocked(bool fresh);
  support::Status WriteAllLocked(const uint8_t* data, size_t size);
  std::vector<std::string> ListSegmentsLocked() const;

  mutable std::mutex mu_;
  Options options_;
  int fd_ = -1;
  uint64_t segment_index_ = 0;  // index of the open segment file
  size_t segment_bytes_ = 0;    // bytes written to the open segment
  Stats stats_;
};

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_DURABLE_LOG_H_
