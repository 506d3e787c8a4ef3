#include "wire/serialize.h"

#include "support/str.h"

namespace snorlax::wire {

using support::Status;
using support::StatusCode;

// Byte-level primitives (Crc32, Append*, ByteReader) live in support/binio.cc
// and the bundle codec in pt/bundle_codec.cc; serialize.h re-exports both
// into this namespace.

// --- report::Report ----------------------------------------------------------

void EncodeFullReport(const report::Report& report, std::vector<uint8_t>* out) {
  AppendU8(out, kReportFormat);
  report::EncodeReport(report, out);
}

support::Result<report::Report> DecodeFullReport(std::span<const uint8_t> bytes,
                                                 const ir::Module* module) {
  ByteReader r(bytes);
  const uint8_t format = r.U8();
  if (!r.ok()) {
    return r.status();
  }
  if (format != kReportFormat) {
    return Status::Error(StatusCode::kVersionMismatch,
                         StrFormat("report payload format %u, this build speaks %u",
                                   format, kReportFormat));
  }
  report::Report out;
  const Status status = report::DecodeReport(bytes.subspan(1), module, &out);
  if (!status.ok()) {
    return status;
  }
  return out;
}

}  // namespace snorlax::wire
