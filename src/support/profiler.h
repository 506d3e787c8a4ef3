// Built-in hot-path profiler: scoped RAII timers aggregated into a flat
// per-label table, dumpable as one JSON object.
//
// Designed for always-on instrumentation of the diagnosis hot paths (engine
// passes, pattern computation phases, trace indexing, the interpreter): a
// disabled profiler costs one relaxed atomic load per scope, so the probes
// stay compiled into production binaries and are switched on only when a
// caller (snorlax_cli diagnose --profile=<path>, the benches) wants the
// breakdown.
//
// Aggregation model: each label owns one Entry with atomic counters, so
// concurrent scopes on different threads fold into the same row without a
// lock on the hot path. Registration (first use of a label) takes a mutex,
// but the SNORLAX_PROFILE macro caches the Entry* in a function-local static,
// so registration happens once per call site, not once per call.
#ifndef SNORLAX_SUPPORT_PROFILER_H_
#define SNORLAX_SUPPORT_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snorlax::support {

class Profiler {
 public:
  // One aggregated row. total_ns/max_ns are wall time inside the scope;
  // calls counts completed scopes.
  struct Entry {
    explicit Entry(std::string label_in) : label(std::move(label_in)) {}
    const std::string label;
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> total_ns{0};
    std::atomic<uint64_t> max_ns{0};

    void Record(uint64_t ns) {
      calls.fetch_add(1, std::memory_order_relaxed);
      total_ns.fetch_add(ns, std::memory_order_relaxed);
      uint64_t prev = max_ns.load(std::memory_order_relaxed);
      while (prev < ns && !max_ns.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
      }
    }
  };

  // A plain-value snapshot of one Entry (for tests and custom reporters).
  struct Row {
    std::string label;
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t max_ns = 0;
  };

  // RAII scope: measures from construction to destruction and folds the
  // elapsed wall time into `entry`. When the profiler is disabled the scope
  // is a single relaxed load (no clock read).
  class Scope {
   public:
    Scope(Profiler& profiler, Entry& entry)
        : entry_(profiler.enabled() ? &entry : nullptr),
          start_(entry_ != nullptr ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{}) {}
    ~Scope() {
      if (entry_ != nullptr) {
        entry_->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count()));
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Entry* entry_;
    std::chrono::steady_clock::time_point start_;
  };

  // The process-wide instance every SNORLAX_PROFILE probe reports to.
  static Profiler& Global();

  // Idempotent: returns the existing Entry when `label` was registered
  // before. The returned reference lives as long as the profiler.
  Entry& Register(const std::string& label);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Rows sorted by descending total_ns (the hot path first).
  std::vector<Row> Snapshot() const;

  // {"entries":[{"label":...,"calls":N,"total_ms":X,"mean_us":Y,"max_us":Z},...]}
  std::string ToJson() const;
  // Writes ToJson() plus a trailing newline; false on I/O failure.
  bool DumpJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // Entries are heap-allocated and never freed before the profiler (the
  // macro caches raw pointers): a deque-like stable-address registry.
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace snorlax::support

// Scoped probe for the enclosing block. Label registration runs once per
// call site (function-local static); the per-call cost when profiling is off
// is one relaxed atomic load. Line-pasted names keep two probes in one
// scope from colliding.
#define SNORLAX_PROFILE_CONCAT_(a, b) a##b
#define SNORLAX_PROFILE_NAME_(prefix, line) SNORLAX_PROFILE_CONCAT_(prefix, line)
#define SNORLAX_PROFILE(label)                                               \
  static ::snorlax::support::Profiler::Entry& SNORLAX_PROFILE_NAME_(         \
      snorlax_profile_entry_, __LINE__) =                                    \
      ::snorlax::support::Profiler::Global().Register(label);                \
  ::snorlax::support::Profiler::Scope SNORLAX_PROFILE_NAME_(                 \
      snorlax_profile_scope_, __LINE__)(                                     \
      ::snorlax::support::Profiler::Global(),                                \
      SNORLAX_PROFILE_NAME_(snorlax_profile_entry_, __LINE__))

#endif  // SNORLAX_SUPPORT_PROFILER_H_
