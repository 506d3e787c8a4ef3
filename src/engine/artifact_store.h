// Per-failure-site artifact store: content-hash keyed, bounded, observable.
//
// Mechanism only -- the store neither knows what a pass is nor when to
// invalidate. Invalidation is implicit in the keys: a pass whose inputs
// changed computes a different content hash, misses, recomputes, and inserts;
// the stale entry ages out under the per-kind FIFO cap. Whether caching is on
// at all is the caller's policy.
//
// The cap (kMaxEntriesPerKind) is the hostile-client bound: a new
// interleaving per bundle cannot grow the store forever. Every stored kind
// is recomputable from the evidence the engine keeps outside the store, so
// an eviction can cost a pass re-run but never lost evidence.
#ifndef SNORLAX_ENGINE_ARTIFACT_STORE_H_
#define SNORLAX_ENGINE_ARTIFACT_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "engine/artifact.h"

namespace snorlax::engine {

// Where a (kind, key) pair stands relative to the store -- the distinction
// `--explain` needs between "never computed" and "computed but evicted".
enum class ResidencyState : uint8_t {
  kAbsent,    // never inserted (as far as the bounded memory recalls)
  kResident,  // in the store now
  kEvicted,   // was inserted, has since been pushed out by the FIFO cap
};

inline const char* ResidencyStateName(ResidencyState state) {
  switch (state) {
    case ResidencyState::kAbsent:
      return "absent";
    case ResidencyState::kResident:
      return "resident";
    case ResidencyState::kEvicted:
      return "evicted";
  }
  return "?";
}

class ArtifactStore {
 public:
  // Per-kind entry cap (eviction is FIFO by insertion). A diagnosis site
  // rarely sees more than a handful of distinct executed sets, so a small
  // cap holds the steady state while bounding a hostile client that ships a
  // new interleaving with every bundle.
  static constexpr size_t kMaxEntriesPerKind = 64;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;  // per-kind FIFO cap
    size_t entries = 0;      // current population across kinds
  };

  // Typed lookup. Returns nullptr (and counts a miss) when no artifact of
  // this kind was stored under `key`.
  template <typename T>
  const T* Find(ArtifactKind kind, uint64_t key) {
    Slot& slot = slots_[static_cast<size_t>(kind)];
    auto it = slot.by_key.find(key);
    if (it == slot.by_key.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return static_cast<const T*>(it->second.get());
  }

  // Inserts (or replaces) and returns the stored artifact. Evicts the
  // kind's oldest entry past the cap.
  template <typename T>
  const T* Put(ArtifactKind kind, uint64_t key, T value) {
    return static_cast<const T*>(
        Insert(kind, key, std::shared_ptr<void>(std::make_shared<T>(std::move(value)))));
  }

  // Untyped insert for the import paths (durable-log replay, cluster
  // hand-off), where the value was decoded behind shared_ptr<void> already.
  void PutShared(ArtifactKind kind, uint64_t key, std::shared_ptr<void> value) {
    Insert(kind, key, std::move(value));
  }

  // Enumerates every resident artifact (export path). Insertion order within
  // a kind; kinds in enum order.
  void ForEach(
      const std::function<void(ArtifactKind, uint64_t, const std::shared_ptr<void>&)>& fn)
      const {
    for (size_t k = 0; k < kNumArtifactKinds; ++k) {
      const Slot& slot = slots_[k];
      for (const uint64_t key : slot.order) {
        auto it = slot.by_key.find(key);
        if (it != slot.by_key.end()) {
          fn(static_cast<ArtifactKind>(k), key, it->second);
        }
      }
    }
  }

  const Stats& stats() const { return stats_; }

  // Residency probe for --explain. Does not touch the hit/miss counters (it
  // is observation, not a lookup). Eviction memory is bounded: the store
  // remembers the last kEvictedMemory evicted keys per kind, after which an
  // old eviction reads as kAbsent again.
  ResidencyState StateOf(ArtifactKind kind, uint64_t key) const {
    const Slot& slot = slots_[static_cast<size_t>(kind)];
    if (slot.by_key.count(key) != 0) {
      return ResidencyState::kResident;
    }
    for (const uint64_t k : slot.evicted) {
      if (k == key) {
        return ResidencyState::kEvicted;
      }
    }
    return ResidencyState::kAbsent;
  }

 private:
  static constexpr size_t kEvictedMemory = 256;  // per kind

  struct Slot {
    std::unordered_map<uint64_t, std::shared_ptr<void>> by_key;
    std::deque<uint64_t> order;    // insertion order, for FIFO eviction
    std::deque<uint64_t> evicted;  // recently evicted keys, bounded
  };

  const void* Insert(ArtifactKind kind, uint64_t key, std::shared_ptr<void> value) {
    Slot& slot = slots_[static_cast<size_t>(kind)];
    auto [it, inserted] = slot.by_key.insert_or_assign(key, std::move(value));
    if (inserted) {
      slot.order.push_back(key);
      ++stats_.entries;
    }
    ++stats_.insertions;
    const void* stored = it->second.get();
    // The new key sits at the back of the order, so it is never the victim.
    while (slot.by_key.size() > kMaxEntriesPerKind) {
      const uint64_t victim = slot.order.front();
      slot.order.pop_front();
      slot.by_key.erase(victim);
      --stats_.entries;
      ++stats_.evictions;
      slot.evicted.push_back(victim);
      if (slot.evicted.size() > kEvictedMemory) {
        slot.evicted.pop_front();
      }
    }
    return stored;
  }

  Slot slots_[kNumArtifactKinds];
  Stats stats_;
};

}  // namespace snorlax::engine

#endif  // SNORLAX_ENGINE_ARTIFACT_STORE_H_
