// Pass identities, per-pass counters, and the cancellation token of the
// diagnosis engine.
//
// Each paper step of Lazy Diagnosis (Figure 2) runs as one Pass over typed
// artifacts (engine/artifact.h). A pass either *runs* (recomputes its output
// because a declared input changed) or takes a *cache hit* (its output for
// the current input content-hash is already in the ArtifactStore). Every
// run/hit/duration is counted per pass, and this table is the one timing
// record: the server's reports (core::StageStats::AnalysisSeconds() sums its
// steps 2-7), the report codec, the benches and `snorlax_cli diagnose
// --explain` all read it, and no other clock times the same work.
#ifndef SNORLAX_ENGINE_PASS_H_
#define SNORLAX_ENGINE_PASS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace snorlax::engine {

// One pass per paper step. kTraceProcess (steps 2-3) is executed by the
// ingest layer (decode + executed-set recovery happen before the engine sees
// the trace) but is counted here so the whole pipeline reads off one table.
enum class PassId : uint8_t {
  kTraceProcess = 0,  // steps 2-3: decode + trace processing
  kDerefChains,       // RETracer-style failure access chain
  kPointsTo,          // step 4: hybrid points-to, scoped to executed code
  kTypeRank,          // step 5: type-based candidate ranking
  kPatterns,          // step 6: bug pattern computation
  kScore,             // step 7: statistical confirmation (F1)
  kRepair,            // closing the loop: patch synthesis + validation
};
inline constexpr size_t kNumPasses = 7;

const char* PassName(PassId id);

// Cumulative per-pass footprint. `runs` counts real executions only; a cache
// hit adds to `cache_hits` and contributes (approximately) zero seconds.
struct PassStats {
  uint64_t runs = 0;
  uint64_t cache_hits = 0;
  double seconds = 0.0;
};

using PassStatsTable = std::array<PassStats, kNumPasses>;

inline PassStats& StatsFor(PassStatsTable& table, PassId id) {
  return table[static_cast<size_t>(id)];
}
inline const PassStats& StatsFor(const PassStatsTable& table, PassId id) {
  return table[static_cast<size_t>(id)];
}

// One pass boundary from the most recent (re-)diagnosis, for --explain: did
// the pass run, why (the dirty reason), how long, under which artifact key.
struct PassTrace {
  PassId id = PassId::kTraceProcess;
  bool ran = false;
  bool cache_hit = false;
  double seconds = 0.0;
  uint64_t artifact_key = 0;
  std::string reason;
};

// Cooperative cancellation checked at pass boundaries: a deadline (wall
// clock) and/or an explicit Cancel(). A slow site aborts between passes --
// artifacts already produced stay valid, the remaining tail is skipped -- so
// one pathological failure site cannot stall a daemon ingest thread forever.
class CancelToken {
 public:
  CancelToken() = default;
  // Copies snapshot the flag (std::atomic itself is not copyable).
  CancelToken(const CancelToken& other)
      : cancelled_(other.cancelled_.load(std::memory_order_acquire)),
        has_deadline_(other.has_deadline_),
        deadline_(other.deadline_) {}
  CancelToken& operator=(const CancelToken& other) {
    cancelled_.store(other.cancelled_.load(std::memory_order_acquire),
                     std::memory_order_release);
    has_deadline_ = other.has_deadline_;
    deadline_ = other.deadline_;
    return *this;
  }
  // seconds <= 0 means no deadline.
  static CancelToken AfterSeconds(double seconds);

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool Expired() const;

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_PASS_H_
