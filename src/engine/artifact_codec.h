// Binary codecs for every typed artifact in engine/artifact.h.
//
// Two consumers, one format:
//   - the durable segment log (engine/durable_log.h): artifacts are written
//     on pass completion and replayed on daemon restart, so a recovered
//     daemon serves its sites from disk instead of re-ingesting the fleet;
//   - cluster site hand-off (wire kHandoffRecord frames): when the ring
//     reassigns a failure site, the owning daemon ships the site's records to
//     the new owner instead of the fleet re-sending evidence.
//
// Conventions follow support/binio.h (explicit little-endian, varint counts,
// sticky-error ByteReader, caps before allocation). Encodes are
// deterministic: unordered containers are sorted before writing, so equal
// values produce equal bytes and the content-hash keys from the artifact
// store identify transfers byte-for-byte.
//
// Instruction pointers never cross a process boundary: they travel as InstIds
// and are re-resolved against the receiver's registered module, with every id
// bounds-checked first -- a record for a different module build is a clean
// kCorruptData rejection, never an out-of-range lookup.
#ifndef SNORLAX_ENGINE_ARTIFACT_CODEC_H_
#define SNORLAX_ENGINE_ARTIFACT_CODEC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/artifact.h"
#include "engine/repair.h"
#include "support/binio.h"
#include "support/status.h"

namespace snorlax::engine {

// Bumped on any layout change; decoders reject other versions as
// kVersionMismatch (a restarted daemon must never misparse a log written by
// a newer build).
inline constexpr uint8_t kArtifactCodecVersion = 2;

// --- typed artifact codecs ---------------------------------------------------
// Each encode appends a self-contained record (leading codec version byte).
// Decoders that resolve InstIds take the module to validate against.

void EncodeExecutedSet(const ExecutedSetArtifact& a, std::vector<uint8_t>* out);
support::Status DecodeExecutedSet(std::span<const uint8_t> bytes,
                                  ExecutedSetArtifact* out);

void EncodeDerefChains(const DerefChainsArtifact& a, std::vector<uint8_t>* out);
support::Status DecodeDerefChains(std::span<const uint8_t> bytes,
                                  const ir::Module* module,
                                  DerefChainsArtifact* out);

void EncodePointsTo(const PointsToArtifact& a, std::vector<uint8_t>* out);
support::Status DecodePointsTo(std::span<const uint8_t> bytes,
                               const ir::Module* module, PointsToArtifact* out);

void EncodeRankedCandidates(const RankedCandidatesArtifact& a,
                            std::vector<uint8_t>* out);
support::Status DecodeRankedCandidates(std::span<const uint8_t> bytes,
                                       const ir::Module* module,
                                       RankedCandidatesArtifact* out);

void EncodePatternSet(const PatternSetArtifact& a, std::vector<uint8_t>* out);
support::Status DecodePatternSet(std::span<const uint8_t> bytes,
                                 const ir::Module* module,
                                 PatternSetArtifact* out);

void EncodeF1Scores(const F1ScoresArtifact& a, std::vector<uint8_t>* out);
support::Status DecodeF1Scores(std::span<const uint8_t> bytes,
                               F1ScoresArtifact* out);

void EncodeRepairPlan(const RepairPlan& a, std::vector<uint8_t>* out);
support::Status DecodeRepairPlan(std::span<const uint8_t> bytes,
                                 const ir::Module* module, RepairPlan* out);

// The trace-sized evidence encoding that the bundle replaced. Nothing in the
// server writes or reads it; the benchmark harness still replays it to price
// the retired durable append.
void EncodeProcessedTrace(const trace::ProcessedTrace& t,
                          std::vector<uint8_t>* out);

// --- type-erased dispatch ----------------------------------------------------
// The artifact store holds values behind shared_ptr<void> keyed by kind; the
// export/import paths round-trip them without knowing the concrete type.
// kProcessedTrace has no codec: only the server's never-persisted decode memo
// holds that kind, so either call rejects it with kInvalidArgument.

support::Status EncodeArtifactValue(ArtifactKind kind, const void* value,
                                    std::vector<uint8_t>* out);
support::Status DecodeArtifactValue(ArtifactKind kind,
                                    std::span<const uint8_t> bytes,
                                    const ir::Module* module,
                                    std::shared_ptr<void>* out);

// --- site records ------------------------------------------------------------
// The unit both the durable log and the hand-off stream carry: one artifact,
// one piece of evidence, or one ingest rejection, for one failure site.
//
// Evidence is the bundle. The first evidence record of a key in a log or a
// hand-off stream carries pt::EncodeBundle of the bundle; every later one is
// a reference record -- same type and key, empty bytes -- that resolves to
// the trace already restored under that key. Empty bytes were never a valid
// bundle encoding, so the two shapes need no separate type.

struct SiteRecord {
  enum class Type : uint8_t {
    kArtifact = 0,         // bytes = EncodeArtifactValue, key = content hash
    kFailingEvidence = 1,  // bytes = EncodeBundle or empty, key = TraceKey
    kSuccessEvidence = 2,  // bytes = EncodeBundle or empty, key = TraceKey
    kRejection = 3,        // bytes = note string; keeps rejected_bundles exact
  };
  Type type = Type::kArtifact;
  ArtifactKind kind = ArtifactKind::kExecutedSet;  // kArtifact records only
  uint64_t key = 0;
  std::vector<uint8_t> bytes;
};

void EncodeSiteRecord(const SiteRecord& record, std::vector<uint8_t>* out);
support::Status DecodeSiteRecord(std::span<const uint8_t> bytes,
                                 SiteRecord* out);

// Approximate resident size of an encoded artifact's decoded form, used for
// the store's byte-budget accounting. The encoded size is the cheap,
// good-enough proxy: both scale with the same containers.
size_t ApproxArtifactBytes(size_t encoded_size);

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_ARTIFACT_CODEC_H_
