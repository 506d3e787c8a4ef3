#include "faults/fault_plan.h"

#include <cstdlib>

#include "support/str.h"

namespace snorlax::faults {

using support::Status;
using support::StatusCode;

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kDropPacket:
      return "drop";
    case FaultKind::kDuplicatePacket:
      return "dup";
    case FaultKind::kClockRegression:
      return "clockregress";
    case FaultKind::kThreadLoss:
      return "threadloss";
    case FaultKind::kForgeFailure:
      return "forgefailure";
    case FaultKind::kVersionSkew:
      return "versionskew";
    case FaultKind::kFrameCorrupt:
      return "frame";
    case FaultKind::kRebuildThrow:
      return "rebuild";
  }
  return "unknown";
}

namespace {

bool ParseKind(const std::string& name, FaultKind* out) {
  for (FaultKind kind : kAllFaultKinds) {
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  if (name == FaultKindName(FaultKind::kRebuildThrow)) {
    *out = FaultKind::kRebuildThrow;
    return true;
  }
  return false;
}

}  // namespace

support::Result<FaultPlan> FaultPlan::Parse(const std::string& spec, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string part = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (part.empty()) {
      continue;
    }
    const size_t at = part.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= part.size()) {
      return Status::Error(StatusCode::kInvalidArgument,
                           StrFormat("fault spec '%s' is not kind@rate", part.c_str()));
    }
    FaultSpec f;
    if (!ParseKind(part.substr(0, at), &f.kind)) {
      return Status::Error(StatusCode::kInvalidArgument,
                           StrFormat("unknown fault kind '%s'", part.substr(0, at).c_str()));
    }
    char* end = nullptr;
    const std::string rate_str = part.substr(at + 1);
    f.rate = std::strtod(rate_str.c_str(), &end);
    if (end == rate_str.c_str() || *end != '\0' || f.rate < 0.0) {
      return Status::Error(StatusCode::kInvalidArgument,
                           StrFormat("bad fault rate '%s'", rate_str.c_str()));
    }
    if (f.rate > 1.0) {
      f.rate = 1.0;
    }
    plan.faults.push_back(f);
  }
  if (plan.faults.empty()) {
    return Status::Error(StatusCode::kInvalidArgument, "empty fault spec");
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(faults.size());
  for (const FaultSpec& f : faults) {
    parts.push_back(StrFormat("%s@%g", FaultKindName(f.kind), f.rate));
  }
  return StrJoin(parts, ",");
}

}  // namespace snorlax::faults
