#include "engine/statistical.h"

namespace snorlax::engine {

void AccumulatePatternCounts(const BugPattern& pattern, const trace::ProcessedTrace& trace,
                             bool trace_failed, ConfusionCounts* counts) {
  AccumulateVerdict(TraceContainsPattern(trace, pattern), trace_failed, counts);
}

void AccumulateVerdict(bool present, bool trace_failed, ConfusionCounts* counts) {
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

}  // namespace snorlax::engine
