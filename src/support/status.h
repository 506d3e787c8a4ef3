// Recoverable error propagation for the server-side ingest pipeline.
//
// SNORLAX_CHECK (check.h) stays the right tool for *internal invariants*: a
// failed check means this library has a bug. Field data is different: a trace
// bundle arriving at the DiagnosisServer is hostile input (truncated ring
// buffers, flipped bits, forged failure records, version skew), and rejecting
// or degrading it must never take the service down. Status/Result carry those
// recoverable outcomes through the consume paths.
#ifndef SNORLAX_SUPPORT_STATUS_H_
#define SNORLAX_SUPPORT_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "support/check.h"

namespace snorlax::support {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,    // caller misuse (e.g. failing submit without a failure)
  kCorruptData,        // bundle bytes/records too damaged to yield evidence
  kVersionMismatch,    // trace format or module fingerprint skew
  kFailedPrecondition, // operation not valid in the current server state
  kResourceExhausted,  // caps hit (e.g. success-trace budget)
  kInternal,           // unexpected error absorbed by a crash barrier
  kDeadlineExceeded,   // per-site analysis budget expired at a pass boundary
  kUnavailable,        // peer unreachable after the bounded retry budget, or
                       // a listen port another socket holds
  kWrongShard,         // site is owned by another cluster member; re-route
};

// Highest StatusCode value this build knows. Wire decoders range-check
// received codes against this (a code from the future is corrupt data, not a
// new behavior), so it must track the last enum entry above.
inline constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kWrongShard);

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Error(StatusCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "CODE: message", for logs and CLI output.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// A value or an error. `value()` checks: call sites must test ok() first (an
// unchecked access on an error would silently analyze garbage, which is the
// exact failure mode this type exists to prevent).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {   // NOLINT(runtime/explicit)
    SNORLAX_CHECK_MSG(!status_.ok(), "Result constructed from an OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const {
    SNORLAX_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T& value() {
    SNORLAX_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }
  T&& take() {
    SNORLAX_CHECK_MSG(ok(), status_.message().c_str());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace snorlax::support

#endif  // SNORLAX_SUPPORT_STATUS_H_
