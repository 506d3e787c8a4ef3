// Statistical diagnosis (paper section 4.5, step 7 of Figure 2).
//
// For every candidate pattern, computes precision, recall and the F1 score
// over the available failing and successful traces:
//   precision = P(fails | pattern present)  over traces predicted to fail,
//   recall    = P(pattern present | fails)  over traces that failed.
// The highest-F1 pattern is reported as the root cause. Snorlax caps the
// successful traces at 10x the failing ones -- empirically sufficient for
// full accuracy in the paper and reproduced by our integration tests.
#ifndef SNORLAX_ENGINE_STATISTICAL_H_
#define SNORLAX_ENGINE_STATISTICAL_H_

#include <vector>

#include "engine/pattern.h"
#include "support/stats.h"

namespace snorlax::engine {

struct DiagnosedPattern {
  BugPattern pattern;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  ConfusionCounts counts;
};

// The report order: best F1 first, then ordered over unordered, then larger
// event set (a more specific pattern with equal evidence is the better
// root-cause statement), then key. A total order, so the incremental scorer
// (engine/site_engine.cc) reports the same order however evidence arrived.
bool DiagnosedPatternBetter(const DiagnosedPattern& a, const DiagnosedPattern& b);

// Folds one trace into a pattern's confusion counts. Confusion counts commute
// over traces, which is what makes incremental re-scoring digest-identical to
// scoring from scratch.
void AccumulatePatternCounts(const BugPattern& pattern, const trace::ProcessedTrace& trace,
                             bool trace_failed, ConfusionCounts* counts);

}  // namespace snorlax::engine

namespace snorlax::core {
using engine::DiagnosedPattern;
}  // namespace snorlax::core

#endif  // SNORLAX_ENGINE_STATISTICAL_H_
