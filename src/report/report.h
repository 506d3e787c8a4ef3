// The typed report model: one versioned aggregate owning everything a
// diagnosis produces, rendered and serialized from a single source of truth.
//
// Before this layer, four surfaces each re-assembled "the report" by hand:
// the CLI printed DiagnosisReport fields, the daemon encoded a wire subset,
// the benches digested yet another projection, and --explain formatted the
// pass table on its own. Report is the one aggregate they all now consume:
//   - verdict (FailureInfo + confidence tier),
//   - the ranked patterns with their F1 scores,
//   - the full degradation ladder: analysis-side (trace::DegradationReport)
//     AND transport-side (what the wire path added -- duplicates, reconnects,
//     the protocol generation and payload format that carried it),
//   - per-pass and artifact-store statistics,
//   - the optional RepairPlan from the kRepair pass.
//
// One canonical binary codec (artifact_codec conventions: leading version
// byte, deterministic field order, bounds-checked decode) and one content
// hash; the text / JSON / SARIF renderers in report/render.h are pure views
// over this struct.
//
// Layering: report sits between core and wire. It depends on core (the
// aggregate embeds DiagnosisReport) and engine (pass stats, RepairPlan); the
// wire layer depends on report to ship the full aggregate as its report
// payload. Report must never include wire headers.
#ifndef SNORLAX_REPORT_REPORT_H_
#define SNORLAX_REPORT_REPORT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/server.h"
#include "support/status.h"

namespace snorlax::report {

// Bumped on any semantic change to the aggregate; travels inside the encoding
// and out through every renderer, so a consumer can tell which generation of
// report it is looking at.
inline constexpr uint32_t kReportVersion = 1;

// The transport rung of the degradation ladder. Analysis-side degradation
// (what ingest lost to corruption) lives in diagnosis.degradation; this
// records what the *wire path* added on top -- a report that crossed the
// fleet protocol can be lossy in ways a local diagnosis never is.
struct TransportStats {
  bool remote = false;  // false: diagnosed in-process, fields below are zero
  uint32_t negotiated_version = 0;  // frame protocol generation spoken
  uint8_t payload_format = 0;       // wire payload format that carried it
  uint64_t bundles_acked = 0;
  uint64_t bundles_duplicate = 0;
  uint64_t reconnects = 0;
};

struct Report {
  uint32_t version = kReportVersion;
  uint64_t module_fingerprint = 0;
  // Workload / program name when known; "" otherwise. Rendered as the SARIF
  // artifact and the JSON scenario field.
  std::string scenario;
  core::DiagnosisReport diagnosis;
  TransportStats transport;
};

// Builds the aggregate around a locally produced DiagnosisReport.
Report MakeReport(core::DiagnosisReport diagnosis, uint64_t module_fingerprint,
                  std::string scenario);

// --- canonical codec ---------------------------------------------------------
// artifact_codec conventions: a leading codec version byte (rejected as
// kVersionMismatch on skew), explicit little-endian fields, varint counts,
// every decode bounds-checked through the sticky-error ByteReader. Encoding
// is deterministic: equal Reports produce equal bytes, so ContentHash over
// the encoding identifies a report byte-for-byte.
void EncodeReport(const Report& report, std::vector<uint8_t>* out);
// `module` (optional) bounds-checks repair-plan instruction anchors; pass
// nullptr when the module is not available (anchors are then range-unchecked
// but the decode is still structurally validated).
support::Status DecodeReport(std::span<const uint8_t> bytes, const ir::Module* module,
                             Report* out);
// Content hash of the canonical encoding (excluding wall-time fields would
// require a second encoding pass; this hash covers every field, so it is an
// identity for transfer verification, not a semantic digest).
uint64_t ContentHash(const Report& report);

}  // namespace snorlax::report

#endif  // SNORLAX_REPORT_REPORT_H_
