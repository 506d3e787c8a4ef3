#include "engine/statistical.h"

#include <algorithm>

namespace snorlax::engine {

void AccumulatePatternCounts(const BugPattern& pattern, const trace::ProcessedTrace& trace,
                             bool trace_failed, ConfusionCounts* counts) {
  const bool present = TraceContainsPattern(trace, pattern);
  if (trace_failed) {
    if (present) {
      ++counts->true_positive;
    } else {
      ++counts->false_negative;
    }
  } else if (present) {
    ++counts->false_positive;
  }
}

bool DiagnosedPatternBetter(const DiagnosedPattern& a, const DiagnosedPattern& b) {
  if (a.f1 != b.f1) {
    return a.f1 > b.f1;
  }
  // At equal F1, an order-confirmed pattern is stronger evidence than an
  // unordered event set salvaged from degraded clocks.
  if (a.pattern.ordered != b.pattern.ordered) {
    return a.pattern.ordered;
  }
  if (a.pattern.events.size() != b.pattern.events.size()) {
    return a.pattern.events.size() > b.pattern.events.size();
  }
  return a.pattern.Key() < b.pattern.Key();
}

namespace {

DiagnosedPattern ScoreOne(const BugPattern& pattern,
                          const std::vector<const trace::ProcessedTrace*>& failing_traces,
                          const std::vector<const trace::ProcessedTrace*>& success_traces) {
  DiagnosedPattern d;
  d.pattern = pattern;
  // Degraded ingests can leave gaps in the trace lists; score over the
  // survivors rather than trusting the caller to have filtered.
  for (const trace::ProcessedTrace* t : failing_traces) {
    if (t != nullptr) {
      AccumulatePatternCounts(pattern, *t, /*trace_failed=*/true, &d.counts);
    }
  }
  for (const trace::ProcessedTrace* t : success_traces) {
    if (t != nullptr) {
      AccumulatePatternCounts(pattern, *t, /*trace_failed=*/false, &d.counts);
    }
  }
  d.precision = d.counts.Precision();
  d.recall = d.counts.Recall();
  d.f1 = d.counts.F1();
  return d;
}

}  // namespace

std::vector<DiagnosedPattern> ScorePatterns(
    const std::vector<BugPattern>& patterns,
    const std::vector<const trace::ProcessedTrace*>& failing_traces,
    const std::vector<const trace::ProcessedTrace*>& success_traces) {
  std::vector<DiagnosedPattern> out;
  out.reserve(patterns.size());
  for (const BugPattern& pattern : patterns) {
    out.push_back(ScoreOne(pattern, failing_traces, success_traces));
  }
  std::sort(out.begin(), out.end(), DiagnosedPatternBetter);
  return out;
}

}  // namespace snorlax::engine
