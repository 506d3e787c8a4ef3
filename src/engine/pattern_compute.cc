#include "engine/pattern_compute.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "analysis/points_to.h"
#include "support/check.h"

namespace snorlax::engine {

namespace {

bool IsWrite(const ir::Instruction& inst) { return inst.opcode() == ir::Opcode::kStore; }

// Access roles of (first, second, third) -> atomicity kind, or nullopt for a
// role combination outside the paper's four single-variable patterns.
std::optional<PatternKind> AtomicityKind(bool w1, bool w2, bool w3) {
  if (!w1 && w2 && !w3) {
    return PatternKind::kAtomicityRWR;
  }
  if (w1 && w2 && !w3) {
    return PatternKind::kAtomicityWWR;
  }
  if (!w1 && w2 && w3) {
    return PatternKind::kAtomicityRWW;
  }
  if (w1 && !w2 && w3) {
    return PatternKind::kAtomicityWRW;
  }
  return std::nullopt;
}

PatternKind OrderKind(bool first_is_write, bool second_is_write) {
  if (first_is_write && !second_is_write) {
    return PatternKind::kOrderViolationWR;
  }
  if (!first_is_write && second_is_write) {
    return PatternKind::kOrderViolationRW;
  }
  return PatternKind::kOrderViolationWW;
}

// Exact 128-bit identity for small crash-pattern shapes: the same
// equivalence classes as BugPattern::Key() (kind, ordered, per-event
// inst/slot) without materializing the string. Returns false for shapes the
// packing cannot represent exactly (> 3 events, wide slots, thread_final) --
// those fall back to the string key. The event count lives in the key, so an
// absent third event can never collide with instruction id 0.
bool PackPatternKey(PatternKind kind, bool ordered, const PatternEvent* events, size_t n,
                    std::pair<uint64_t, uint64_t>* key) {
  if (n == 0 || n > 3) {
    return false;
  }
  uint64_t hi = (static_cast<uint64_t>(kind) << 24) | (ordered ? 1u << 23 : 0u) |
                (static_cast<uint64_t>(n) << 21);
  uint64_t lo = 0;
  for (size_t k = 0; k < n; ++k) {
    if (events[k].thread_slot > 3 || events[k].thread_final) {
      return false;
    }
    hi |= static_cast<uint64_t>(events[k].thread_slot) << (15 + 2 * k);
  }
  hi |= static_cast<uint64_t>(events[0].inst) << 32;
  if (n >= 2) {
    lo |= static_cast<uint64_t>(events[1].inst) << 32;
  }
  if (n >= 3) {
    lo |= static_cast<uint64_t>(events[2].inst);
  }
  *key = {hi, lo};
  return true;
}

struct PackedKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    uint64_t x = k.first ^ (k.second * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<size_t>(x);
  }
};

class PatternBuilder {
 public:
  PatternBuilder(const PatternComputeOptions& options, PatternComputeResult* result)
      : options_(options), result_(result) {}

  bool Full() const { return result_->patterns.size() >= options_.max_patterns; }

  void Add(BugPattern pattern) {
    if (Full()) {
      return;
    }
    std::pair<uint64_t, uint64_t> packed;
    if (PackPatternKey(pattern.kind, pattern.ordered, pattern.events.data(),
                       pattern.events.size(), &packed)) {
      if (!packed_seen_.insert(packed).second) {
        return;
      }
    } else if (!seen_.insert(pattern.Key()).second) {
      return;
    }
    if (!pattern.ordered) {
      result_->hypothesis_violated = true;
    }
    result_->patterns.push_back(std::move(pattern));
  }

  // Crash-pattern fast path: dedup on the packed key BEFORE the events
  // vector is built, so the hypothesis loops allocate only for genuinely new
  // patterns. Most positive pairs re-derive a pattern some earlier anchor or
  // candidate already produced; those now cost one hash probe.
  void AddCrash(PatternKind kind, std::initializer_list<PatternEvent> events) {
    if (Full()) {
      return;
    }
    std::pair<uint64_t, uint64_t> packed;
    SNORLAX_CHECK(PackPatternKey(kind, /*ordered=*/true, events.begin(), events.size(), &packed));
    if (!packed_seen_.insert(packed).second) {
      return;
    }
    BugPattern p;
    p.kind = kind;
    p.events = events;
    result_->patterns.push_back(std::move(p));
  }

  // Unordered fallbacks are only useful when the coarse interleaving
  // hypothesis failed for the whole failure: stash them and flush only if no
  // ordered pattern was found (paper section 7's graceful degradation). The
  // stash dedups on the packed key too -- duplicates would be dropped at
  // flush anyway, so skipping them up front changes nothing but the allocs.
  void StashUnorderedCrash(PatternKind kind, std::initializer_list<PatternEvent> events) {
    std::pair<uint64_t, uint64_t> packed;
    SNORLAX_CHECK(PackPatternKey(kind, /*ordered=*/false, events.begin(), events.size(), &packed));
    if (!stash_seen_.insert(packed).second) {
      return;
    }
    BugPattern p;
    p.kind = kind;
    p.events = events;
    p.ordered = false;
    unordered_.push_back(std::move(p));
  }
  void FlushUnorderedIfNoOrdered() {
    if (!result_->patterns.empty()) {
      return;
    }
    for (BugPattern& p : unordered_) {
      Add(std::move(p));
    }
    unordered_.clear();
  }

 private:
  const PatternComputeOptions& options_;
  PatternComputeResult* result_;
  std::unordered_set<std::pair<uint64_t, uint64_t>, PackedKeyHash> packed_seen_;
  std::unordered_set<std::pair<uint64_t, uint64_t>, PackedKeyHash> stash_seen_;
  std::unordered_set<std::string> seen_;
  std::vector<BugPattern> unordered_;
};

constexpr uint32_t kNone = trace::ProcessedTrace::kNoInstance;

// Scratch buffers shared across every anchor of one ComputePatterns call: the
// hypothesis loops run allocation-free per candidate (the perf-smoke suite
// asserts this), paying one reservation per vector up front.
struct PatternScratch {
  std::vector<uint32_t> anchors;
  // Per-candidate precomputation (stable across anchors).
  std::vector<const trace::InstanceSummary*> summary;
  std::vector<char> is_write;
  // Per-anchor state, overwritten in place between anchors.
  std::vector<char> alias_ok;
  std::vector<uint8_t> a_state;  // 0 = unknown, 1 = none, 2 = found
  std::vector<uint64_t> a_min_ts;
  std::vector<uint8_t> b_state;
  std::vector<uint64_t> b_max_ts_lo;

  void ReserveCandidates(size_t n) {
    summary.reserve(n);
    is_write.reserve(n);
    alias_ok.reserve(n);
    a_state.reserve(n);
    a_min_ts.reserve(n);
    b_state.reserve(n);
    b_max_ts_lo.reserve(n);
  }
};

// AccessorsOf-driven candidate prefilter: crash patterns relate candidates to
// the memory the *failure chain* touches -- the anchor set is the union of
// the chain accesses' points-to sets, because the engine deliberately pairs
// candidates across different links of the chain (the racing store to the
// shared pointer cell anchors at the faulting field access). A candidate
// whose pointer-operand set is provably disjoint from every chain access can
// never be tested against any anchor, so it is masked once up front.
//
// For pipeline-derived candidates this is exactly the admission criterion
// (AccessorsOf over the same union), so the mask provably keeps all of them
// -- it exists to protect direct ComputePatterns callers that supply
// arbitrary candidate lists. Conservative on unknown (empty) sets: they
// can only widen the mask, never narrow it.
void FillAliasMask(const PatternComputeOptions& options, const PatternComputeContext& context,
                   const std::vector<const ir::Instruction*>& candidates,
                   const std::vector<const ir::Instruction*>& failure_chain,
                   std::vector<char>* mask, PatternComputeResult* result) {
  mask->assign(candidates.size(), 1);
  if (!options.pair_alias_filter || context.points_to == nullptr) {
    return;
  }
  analysis::ObjectSet chain_union;
  for (const ir::Instruction* access : failure_chain) {
    chain_union.UnionWith(context.points_to->PointerOperandPointsTo(*access));
  }
  if (chain_union.Empty()) {
    return;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const analysis::ObjectSet& cand_set =
        context.points_to->PointerOperandPointsTo(*candidates[i]);
    if (!cand_set.Empty() && !cand_set.Intersects(chain_union)) {
      (*mask)[i] = 0;
      ++result->alias_skips;
    }
  }
}

// The pattern anchors: for each access on the failure chain, the latest
// dynamic instance the failing thread executed before the failure. These are
// the possible final events of crash patterns (the failing dereference, the
// load that produced the corrupt pointer, ...).
//
// The (chain access, failing thread) span is seq-ascending, and for a
// ts-sorted span the instances at or before the failure time form a prefix
// whose last element is the max-seq one. Suspect spans fall back to a
// reverse linear scan (still: first hit from the back = max seq).
void FailingAnchors(const trace::ProcessedTrace& trace, const rt::FailureInfo& failure,
                    const std::vector<const ir::Instruction*>& failure_chain,
                    std::vector<uint32_t>* anchors) {
  anchors->clear();
  anchors->reserve(failure_chain.size());
  for (const ir::Instruction* access : failure_chain) {
    if (!access->IsMemoryAccess()) {
      continue;
    }
    const trace::InstanceSummary* summary = trace.SummaryOf(access->id());
    if (summary == nullptr) {
      continue;
    }
    for (const trace::ThreadSpan& span : trace.ThreadSpansOf(*summary)) {
      if (span.thread != failure.thread) {
        continue;
      }
      std::span<const uint32_t> insts = trace.SpanInstances(span);
      uint32_t best = kNone;
      if (span.ts_sorted) {
        auto it = std::upper_bound(insts.begin(), insts.end(), failure.time_ns,
                                   [&](uint64_t t, uint32_t pos) { return t < trace.ts_ns(pos); });
        if (it != insts.begin()) {
          best = *(it - 1);
        }
      } else {
        for (size_t k = insts.size(); k-- > 0;) {
          if (trace.ts_ns(insts[k]) <= failure.time_ns) {
            best = insts[k];
            break;
          }
        }
      }
      if (best != kNone) {
        anchors->push_back(best);
      }
      break;  // one span per (instruction, thread)
    }
  }
}

// =============================================================================
// Indexed engine.
//
// Every emitted crash pattern names static instructions only, so each
// hypothesis reduces to an existence query -- "does SOME instance pair of
// these instructions satisfy the executes-before chain against this anchor?"
// -- and existence queries decompose over the timestamp index:
//   * order:       ∃ remote a with EB(a,f) (or unordered with f), answered
//                  per span from its [min_ts, max_ts] summary, with the
//                  unordered residue pinpointed by one binary search plus the
//                  suffix-min-ts_lo array;
//   * atomicity:   ∃ a local, b remote with a<b<f. The two sides are
//                  independent: min ts over the local span (minus the anchor
//                  and the at-failure instance) and max ts_lo over eligible
//                  remote instances (prefix-max array at the EB(b,f)
//                  boundary). A pair exists iff min_a + G <= max_b.
//   * mid-anchor:  ∃ b1,b2 in one remote thread with b1<f<b2: a merge-join
//                  of the two instructions' span lists by thread id, each
//                  common thread decided from two span-summary comparisons.
// DESIGN.md section 18 carries the full soundness argument, including why
// the b1 != b2 constraint is free when the granularity is positive and the
// exact fallback when it is not.
// =============================================================================

class IndexedCrashEngine {
 public:
  IndexedCrashEngine(const ir::Module& module, const trace::ProcessedTrace& trace,
                     const std::vector<const ir::Instruction*>& candidates,
                     const PatternComputeOptions& options, const PatternComputeContext& context,
                     PatternScratch& scratch, PatternBuilder& builder,
                     PatternComputeResult* result)
      : module_(module),
        trace_(trace),
        candidates_(candidates),
        options_(options),
        context_(context),
        scratch_(scratch),
        builder_(builder),
        result_(result),
        granularity_(trace.options().order_granularity_ns) {
    scratch_.summary.clear();
    scratch_.is_write.clear();
    for (const ir::Instruction* c : candidates_) {
      scratch_.summary.push_back(trace_.SummaryOf(c->id()));
      scratch_.is_write.push_back(IsWrite(*c) ? 1 : 0);
    }
  }

  void RunAnchor(uint32_t f_dyn) {
    f_dyn_ = f_dyn;
    f_inst_ = module_.instruction(trace_.inst(f_dyn));
    f_thread_ = trace_.thread(f_dyn);
    f_lo_ = trace_.ts_lo_ns(f_dyn);
    f_ts_ = trace_.ts_ns(f_dyn);
    f_at_failure_ = trace_.at_failure(f_dyn);
    f_suspect_ = trace_.ClockSuspect(f_thread_);
    f_is_write_ = trace_.access_kind(f_dyn) == trace::AccessKind::kStore;
    scratch_.a_state.assign(candidates_.size(), 0);
    scratch_.a_min_ts.assign(candidates_.size(), 0);
    scratch_.b_state.assign(candidates_.size(), 0);
    scratch_.b_max_ts_lo.assign(candidates_.size(), 0);

    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (builder_.Full()) {
        return;
      }
      const bool a_is_write = scratch_.is_write[i] != 0;
      if (!a_is_write && !f_is_write_) {
        continue;  // a race needs at least one write
      }
      if (!scratch_.alias_ok[i]) {
        continue;
      }
      const uint8_t v = OrderVerdict(i);
      if ((v & 1) != 0) {
        builder_.AddCrash(OrderKind(a_is_write, f_is_write_),
                          {PatternEvent{candidates_[i]->id(), 1},
                           PatternEvent{f_inst_->id(), 0}});
      } else if ((v & 2) != 0) {
        builder_.StashUnorderedCrash(OrderKind(a_is_write, f_is_write_),
                                     {PatternEvent{candidates_[i]->id(), 1},
                                      PatternEvent{f_inst_->id(), 0}});
      }
    }

    // a (failing thread) < b (remote) < f: every EB edge crosses the failing
    // thread, so a suspect failing-thread clock empties the whole phase.
    if (!f_suspect_) {
      for (size_t i = 0; i < candidates_.size(); ++i) {
        for (size_t j = 0; j < candidates_.size(); ++j) {
          if (builder_.Full()) {
            return;
          }
          const std::optional<PatternKind> kind = AtomicityKind(
              scratch_.is_write[i] != 0, scratch_.is_write[j] != 0, f_is_write_);
          if (!kind.has_value()) {
            continue;
          }
          if (!scratch_.alias_ok[i] || !scratch_.alias_ok[j]) {
            continue;
          }
          if (AtomicityExists(i, j)) {
            builder_.AddCrash(*kind, {PatternEvent{candidates_[i]->id(), 0},
                                      PatternEvent{candidates_[j]->id(), 1},
                                      PatternEvent{f_inst_->id(), 0}});
          }
        }
      }
    }

    // b1 < f < b2 needs EB(f, b2): impossible when f is the at-failure
    // instance (nothing executes after the failure point) or when the
    // failing thread's clock is suspect.
    if (!f_at_failure_ && !f_suspect_) {
      for (size_t i = 0; i < candidates_.size(); ++i) {
        for (size_t j = 0; j < candidates_.size(); ++j) {
          if (builder_.Full()) {
            return;
          }
          const std::optional<PatternKind> kind = AtomicityKind(
              scratch_.is_write[i] != 0, f_is_write_, scratch_.is_write[j] != 0);
          if (!kind.has_value()) {
            continue;
          }
          if (!scratch_.alias_ok[i] || !scratch_.alias_ok[j]) {
            continue;
          }
          if (MidAnchoredExists(i, j)) {
            builder_.AddCrash(*kind, {PatternEvent{candidates_[i]->id(), 1},
                                      PatternEvent{f_inst_->id(), 0},
                                      PatternEvent{candidates_[j]->id(), 1}});
          }
        }
      }
    }
  }

 private:
  // Memo questions. Keys bind the anchor position, so one cache serves every
  // anchor of every re-diagnosis of the same trace.
  enum Question : uint64_t { kQOrder = 1, kQASide = 2, kQBSide = 3, kQMid = 4 };

  uint64_t KeyHi(Question q) const { return (static_cast<uint64_t>(q) << 32) | f_dyn_; }

  const uint32_t* SpanData(const trace::ThreadSpan& span) const {
    return trace_.SpanInstances(span).data() - span.begin;  // absolute-indexable
  }

  // First absolute index in a ts-sorted span whose instance has ts >= bound.
  uint32_t LowerBoundTs(const trace::ThreadSpan& span, uint64_t bound) const {
    std::span<const uint32_t> insts = trace_.SpanInstances(span);
    auto it = std::lower_bound(insts.begin(), insts.end(), bound,
                               [&](uint32_t pos, uint64_t b) { return trace_.ts_ns(pos) < b; });
    return span.begin + static_cast<uint32_t>(it - insts.begin());
  }

  // Bits: 1 = some remote instance executes-before the anchor, 2 = some
  // remote instance is unordered with it.
  uint8_t OrderVerdict(size_t i) {
    PatternVerdictCache::Verdict verdict;
    const uint64_t key_lo = candidates_[i]->id();
    if (context_.verdicts != nullptr &&
        context_.verdicts->Lookup(KeyHi(kQOrder), key_lo, &verdict)) {
      ++result_->verdict_hits;
      return verdict.tag;
    }
    ++result_->pair_tests;
    uint8_t v = 0;
    const trace::InstanceSummary* summary = scratch_.summary[i];
    if (summary != nullptr) {
      for (const trace::ThreadSpan& span : trace_.ThreadSpansOf(*summary)) {
        if (span.thread == f_thread_) {
          continue;
        }
        // Everything in a failure snapshot retired before the failure point:
        // every remote instance executes-before an at-failure anchor, and
        // none can be unordered with it.
        if (f_at_failure_) {
          v |= 1;
          break;
        }
        if (f_suspect_ || span.clock_suspect) {
          v |= 2;  // the interval rule is void: every pair degrades to unordered
          if (v == 3) {
            break;
          }
          continue;
        }
        if (span.min_ts_ns + granularity_ <= f_lo_) {
          v |= 1;  // the earliest instance's window ends before the anchor's begins
        }
        if ((v & 2) == 0) {
          // Unordered residue: ∃ a with ts(a)+G > f_lo and ts_lo(a) < f_ts+G.
          // Span-level necessary test first; pinpoint with one binary search
          // over ts plus the suffix-min-ts_lo array.
          if (span.max_ts_ns + granularity_ > f_lo_ && span.min_ts_lo_ns < f_ts_ + granularity_) {
            uint32_t first = span.begin;
            if (span.ts_sorted) {
              if (f_lo_ >= granularity_) {
                first = LowerBoundTs(span, f_lo_ - granularity_ + 1);
              }
              if (first < span.end && trace_.SuffixMinTsLo(first) < f_ts_ + granularity_) {
                v |= 2;
              }
            } else {
              const uint32_t* data = SpanData(span);
              for (uint32_t k = span.begin; k < span.end; ++k) {
                const uint32_t pos = data[k];
                if (trace_.ts_ns(pos) + granularity_ > f_lo_ &&
                    trace_.ts_lo_ns(pos) < f_ts_ + granularity_) {
                  v |= 2;
                  break;
                }
              }
            }
          }
        }
        if (v == 3) {
          break;
        }
      }
    }
    if (context_.verdicts != nullptr) {
      context_.verdicts->Store(KeyHi(kQOrder), key_lo, {v, 0});
    }
    return v;
  }

  // Min ts over the candidate's failing-thread span, excluding the anchor
  // instance itself and the at-failure instance (EB never holds from either).
  void EnsureASide(size_t i) {
    if (scratch_.a_state[i] != 0) {
      return;
    }
    PatternVerdictCache::Verdict verdict;
    const uint64_t key_lo = candidates_[i]->id();
    if (context_.verdicts != nullptr &&
        context_.verdicts->Lookup(KeyHi(kQASide), key_lo, &verdict)) {
      ++result_->verdict_hits;
      scratch_.a_state[i] = verdict.tag;
      scratch_.a_min_ts[i] = verdict.value;
      return;
    }
    scratch_.a_state[i] = 1;
    const trace::InstanceSummary* summary = scratch_.summary[i];
    if (summary != nullptr) {
      for (const trace::ThreadSpan& span : trace_.ThreadSpansOf(*summary)) {
        if (span.thread != f_thread_) {
          continue;
        }
        const uint32_t* data = SpanData(span);
        uint64_t best = UINT64_MAX;
        if (span.ts_sorted) {
          // At most two instances are excluded, so the min-ts survivor is
          // within the first three elements.
          for (uint32_t k = span.begin; k < span.end; ++k) {
            const uint32_t pos = data[k];
            if (pos == f_dyn_ || trace_.at_failure(pos)) {
              continue;
            }
            best = trace_.ts_ns(pos);
            break;
          }
        } else {
          for (uint32_t k = span.begin; k < span.end; ++k) {
            const uint32_t pos = data[k];
            if (pos == f_dyn_ || trace_.at_failure(pos)) {
              continue;
            }
            best = std::min(best, trace_.ts_ns(pos));
          }
        }
        if (best != UINT64_MAX) {
          scratch_.a_state[i] = 2;
          scratch_.a_min_ts[i] = best;
        }
        break;
      }
    }
    if (context_.verdicts != nullptr) {
      context_.verdicts->Store(KeyHi(kQASide), key_lo,
                               {scratch_.a_state[i], scratch_.a_min_ts[i]});
    }
  }

  // Max ts_lo over the candidate's remote instances b with EB(b, anchor):
  // per clean span, the eligible instances (ts + G <= f_lo, or the whole
  // span when the anchor is at-failure) form a ts-sorted prefix, so the
  // prefix-max-ts_lo array answers in O(log span).
  void EnsureBSide(size_t j) {
    if (scratch_.b_state[j] != 0) {
      return;
    }
    PatternVerdictCache::Verdict verdict;
    const uint64_t key_lo = candidates_[j]->id();
    if (context_.verdicts != nullptr &&
        context_.verdicts->Lookup(KeyHi(kQBSide), key_lo, &verdict)) {
      ++result_->verdict_hits;
      scratch_.b_state[j] = verdict.tag;
      scratch_.b_max_ts_lo[j] = verdict.value;
      return;
    }
    scratch_.b_state[j] = 1;
    const trace::InstanceSummary* summary = scratch_.summary[j];
    if (summary != nullptr) {
      uint64_t best = 0;
      bool found = false;
      for (const trace::ThreadSpan& span : trace_.ThreadSpansOf(*summary)) {
        if (span.thread == f_thread_ || span.clock_suspect) {
          continue;  // EB(b, f) and EB(a, b) both need a clean remote clock
        }
        if (f_at_failure_) {
          // EB(b, anchor) holds for the whole span via the snapshot rule.
          best = std::max(best, span.max_ts_lo_ns);
          found = true;
          continue;
        }
        if (span.min_ts_ns + granularity_ > f_lo_) {
          continue;  // interval rejection: no instance can precede the anchor
        }
        const uint64_t bound = f_lo_ - granularity_;  // ts(b) <= bound ⟺ EB(b, f)
        if (span.max_ts_ns <= bound) {
          best = std::max(best, span.max_ts_lo_ns);
          found = true;
        } else if (span.ts_sorted) {
          const uint32_t first_beyond = LowerBoundTs(span, bound + 1);
          if (first_beyond > span.begin) {
            best = std::max(best, trace_.PrefixMaxTsLo(first_beyond - 1));
            found = true;
          }
        } else {
          const uint32_t* data = SpanData(span);
          for (uint32_t k = span.begin; k < span.end; ++k) {
            const uint32_t pos = data[k];
            if (trace_.ts_ns(pos) <= bound) {
              best = std::max(best, trace_.ts_lo_ns(pos));
              found = true;
            }
          }
        }
      }
      if (found) {
        scratch_.b_state[j] = 2;
        scratch_.b_max_ts_lo[j] = best;
      }
    }
    if (context_.verdicts != nullptr) {
      context_.verdicts->Store(KeyHi(kQBSide), key_lo,
                               {scratch_.b_state[j], scratch_.b_max_ts_lo[j]});
    }
  }

  // ∃ a (failing thread, not the anchor, not at-failure), b (remote, clean)
  // with a < b < f. The sides are independent existence aggregates, so the
  // pair test is one comparison: min_a + G <= max_b ⟺ some pair works.
  bool AtomicityExists(size_t i, size_t j) {
    ++result_->pair_tests;
    EnsureASide(i);
    if (scratch_.a_state[i] != 2) {
      return false;
    }
    EnsureBSide(j);
    if (scratch_.b_state[j] != 2) {
      return false;
    }
    return scratch_.a_min_ts[i] + granularity_ <= scratch_.b_max_ts_lo[j];
  }

  // ∃ one remote clean thread T with b1, b2 in T, b1 distinct from b2,
  // EB(b1, f) and EB(f, b2): merge-join the two span lists by thread id and
  // decide each common thread from the span summaries.
  bool MidAnchoredExists(size_t i, size_t j) {
    PatternVerdictCache::Verdict verdict;
    const uint64_t key_lo =
        (static_cast<uint64_t>(candidates_[i]->id()) << 32) | candidates_[j]->id();
    if (context_.verdicts != nullptr &&
        context_.verdicts->Lookup(KeyHi(kQMid), key_lo, &verdict)) {
      ++result_->verdict_hits;
      return verdict.tag != 0;
    }
    ++result_->pair_tests;
    bool exists = false;
    const trace::InstanceSummary* s1 = scratch_.summary[i];
    const trace::InstanceSummary* s2 = scratch_.summary[j];
    if (s1 != nullptr && s2 != nullptr) {
      std::span<const trace::ThreadSpan> spans1 = trace_.ThreadSpansOf(*s1);
      std::span<const trace::ThreadSpan> spans2 = trace_.ThreadSpansOf(*s2);
      size_t p = 0;
      size_t q = 0;
      while (p < spans1.size() && q < spans2.size() && !exists) {
        if (spans1[p].thread < spans2[q].thread) {
          ++p;
        } else if (spans2[q].thread < spans1[p].thread) {
          ++q;
        } else {
          const trace::ThreadSpan& sp1 = spans1[p];
          const trace::ThreadSpan& sp2 = spans2[q];
          if (sp1.thread != f_thread_ && !sp1.clock_suspect &&
              sp1.min_ts_ns + granularity_ <= f_lo_ &&
              f_ts_ + granularity_ <= sp2.max_ts_lo_ns) {
            // With G > 0 no single instance can satisfy both sides (its
            // window would have to both end before f_lo and start after
            // f_ts), so distinct witnesses are guaranteed and the two span
            // extrema decide. Same instruction on both sides needs the
            // exact check only to rule out a shared single witness.
            exists = (i != j) ? true : DistinctMidWitnesses(sp1);
          }
          ++p;
          ++q;
        }
      }
    }
    if (context_.verdicts != nullptr) {
      context_.verdicts->Store(KeyHi(kQMid), key_lo, {exists ? uint8_t{1} : uint8_t{0}, 0});
    }
    return exists;
  }

  bool DistinctMidWitnesses(const trace::ThreadSpan& span) const {
    const uint32_t* data = SpanData(span);
    size_t before = 0;
    size_t after = 0;
    uint32_t only_before = kNone;
    uint32_t only_after = kNone;
    for (uint32_t k = span.begin; k < span.end; ++k) {
      const uint32_t pos = data[k];
      if (trace_.ts_ns(pos) + granularity_ <= f_lo_) {
        ++before;
        only_before = pos;
      }
      if (f_ts_ + granularity_ <= trace_.ts_lo_ns(pos)) {
        ++after;
        only_after = pos;
      }
    }
    if (before == 0 || after == 0) {
      return false;
    }
    return !(before == 1 && after == 1 && only_before == only_after);
  }

  const ir::Module& module_;
  const trace::ProcessedTrace& trace_;
  const std::vector<const ir::Instruction*>& candidates_;
  const PatternComputeOptions& options_;
  const PatternComputeContext& context_;
  PatternScratch& scratch_;
  PatternBuilder& builder_;
  PatternComputeResult* result_;
  const uint64_t granularity_;

  // Per-anchor state.
  uint32_t f_dyn_ = kNone;
  const ir::Instruction* f_inst_ = nullptr;
  rt::ThreadId f_thread_ = 0;
  uint64_t f_lo_ = 0;
  uint64_t f_ts_ = 0;
  bool f_at_failure_ = false;
  bool f_suspect_ = false;
  bool f_is_write_ = false;
};

void ComputeCrashPatterns(const ir::Module& module, const trace::ProcessedTrace& trace,
                          const std::vector<analysis::RankedInstruction>& ranked,
                          const rt::FailureInfo& failure,
                          const std::vector<const ir::Instruction*>& failure_chain,
                          const PatternComputeOptions& options,
                          const PatternComputeContext& context, PatternScratch& scratch,
                          PatternBuilder& builder, PatternComputeResult* result) {
  // Memory-access candidates in rank order.
  std::vector<const ir::Instruction*> candidates;
  candidates.reserve(std::min(options.max_candidates, ranked.size()));
  for (const analysis::RankedInstruction& r : ranked) {
    if (candidates.size() >= options.max_candidates) {
      break;
    }
    if (r.inst->IsMemoryAccess()) {
      candidates.push_back(r.inst);
    }
  }
  result->candidates_considered = candidates.size();
  scratch.ReserveCandidates(candidates.size());
  FillAliasMask(options, context, candidates, failure_chain, &scratch.alias_ok, result);

  FailingAnchors(trace, failure, failure_chain, &scratch.anchors);

  IndexedCrashEngine engine(module, trace, candidates, options, context, scratch, builder,
                            result);
  for (uint32_t anchor : scratch.anchors) {
    if (builder.Full()) {
      break;
    }
    engine.RunAnchor(anchor);
  }
  builder.FlushUnorderedIfNoOrdered();
}

// The blocked attempt: the first match in InstancesOf order (min position
// among the equal-ts matches).
uint32_t FindAttempt(const trace::ProcessedTrace& trace,
                     const rt::FailureInfo::DeadlockWaiter& w) {
  const trace::InstanceSummary* summary = trace.SummaryOf(w.inst);
  if (summary == nullptr) {
    return kNone;
  }
  for (const trace::ThreadSpan& span : trace.ThreadSpansOf(*summary)) {
    if (span.thread != w.thread) {
      continue;
    }
    std::span<const uint32_t> insts = trace.SpanInstances(span);
    // InstancesOf order among equal-ts matches is trace-position order with
    // the at-failure instance last; replicate by preferring the min-position
    // non-at-failure match.
    uint32_t best = kNone;
    uint32_t best_failure = kNone;
    auto consider = [&](uint32_t pos) {
      if (trace.ts_ns(pos) != w.block_time_ns) {
        return;
      }
      if (trace.at_failure(pos)) {
        if (best_failure == kNone) {
          best_failure = pos;
        }
      } else if (best == kNone || pos < best) {
        best = pos;
      }
    };
    if (span.ts_sorted) {
      auto lo = std::lower_bound(insts.begin(), insts.end(), w.block_time_ns,
                                 [&](uint32_t pos, uint64_t t) { return trace.ts_ns(pos) < t; });
      for (auto it = lo; it != insts.end() && trace.ts_ns(*it) == w.block_time_ns; ++it) {
        consider(*it);
      }
    } else {
      for (uint32_t pos : insts) {
        consider(pos);
      }
    }
    return best != kNone ? best : best_failure;
  }
  return kNone;
}

// The held lock: the max-seq acquisition of `lock_inst` by `thread` before
// the attempt.
uint32_t LatestHeldBefore(const trace::ProcessedTrace& trace, ir::InstId lock_inst,
                          rt::ThreadId thread, uint32_t attempt_seq) {
  const trace::InstanceSummary* summary = trace.SummaryOf(lock_inst);
  if (summary == nullptr) {
    return kNone;
  }
  for (const trace::ThreadSpan& span : trace.ThreadSpansOf(*summary)) {
    if (span.thread != thread) {
      continue;
    }
    // Seq-ascending span: the acquisitions before the attempt form a prefix;
    // its last element is the latest one.
    std::span<const uint32_t> insts = trace.SpanInstances(span);
    auto it = std::lower_bound(insts.begin(), insts.end(), attempt_seq,
                               [&](uint32_t pos, uint32_t s) { return trace.seq(pos) < s; });
    if (it != insts.begin()) {
      return *(it - 1);
    }
    return kNone;
  }
  return kNone;
}

void ComputeDeadlockPatterns(const trace::ProcessedTrace& trace,
                             const std::vector<analysis::RankedInstruction>& ranked,
                             const rt::FailureInfo& failure, PatternBuilder& builder,
                             PatternComputeResult* result) {
  if (failure.deadlock_cycle.empty()) {
    return;
  }
  result->candidates_considered = ranked.size();

  // The blocking attempts come straight from the deadlock report. The held
  // locks were taken by normal acquisitions earlier in the trace: for each
  // cycle thread, its latest candidate lock-acquire before it blocked.
  struct CycleEntry {
    rt::ThreadId thread;
    uint32_t attempt = kNone;
    uint32_t held = kNone;
  };
  std::vector<CycleEntry> cycle;
  std::unordered_set<ir::InstId> attempt_insts;
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    attempt_insts.insert(w.inst);
  }
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    CycleEntry entry;
    entry.thread = w.thread;
    entry.attempt = FindAttempt(trace, w);
    if (entry.attempt == kNone) {
      continue;
    }
    // Latest lock-acquire by this thread before it blocked, other than the
    // blocked attempt itself: that is the lock it holds into the cycle.
    // Same-thread order is program order (seq), which stays exact even when
    // the decoded timestamp windows are wide.
    for (const analysis::RankedInstruction& r : ranked) {
      ++result->pair_tests;
      if (r.inst->opcode() != ir::Opcode::kLockAcquire ||
          attempt_insts.count(r.inst->id()) > 0) {
        continue;
      }
      const uint32_t held =
          LatestHeldBefore(trace, r.inst->id(), w.thread, trace.seq(entry.attempt));
      if (held != kNone &&
          (entry.held == kNone || trace.seq(held) > trace.seq(entry.held))) {
        entry.held = held;
      }
    }
    cycle.push_back(entry);
  }
  if (cycle.size() < 2) {
    return;
  }

  // Thread slots in cycle order. Every hold precedes every attempt (holds
  // were all taken before any cycle member blocked); the decoded hold
  // windows can be wide, so a pure timestamp sort could invert a thread's
  // own hold/attempt pair -- order holds first, then attempts by block time.
  struct TimedEvent {
    uint32_t dyn;
    uint8_t slot;
  };
  std::vector<TimedEvent> events;
  for (size_t i = 0; i < cycle.size(); ++i) {
    if (cycle[i].held != kNone) {
      events.push_back({cycle[i].held, static_cast<uint8_t>(i)});
    }
  }
  std::sort(events.begin(), events.end(), [&](const TimedEvent& a, const TimedEvent& b) {
    return trace.ts_ns(a.dyn) < trace.ts_ns(b.dyn);
  });
  std::vector<TimedEvent> attempts;
  for (size_t i = 0; i < cycle.size(); ++i) {
    attempts.push_back({cycle[i].attempt, static_cast<uint8_t>(i)});
  }
  std::sort(attempts.begin(), attempts.end(), [&](const TimedEvent& a, const TimedEvent& b) {
    return trace.ts_ns(a.dyn) < trace.ts_ns(b.dyn);
  });
  events.insert(events.end(), attempts.begin(), attempts.end());

  // The "ordered" claim for a deadlock is about the blocking attempts
  // (Figure 1.a's delta-T): were their times separated enough to order them?
  bool ordered = true;
  for (size_t i = 0; i < cycle.size(); ++i) {
    for (size_t j = i + 1; j < cycle.size(); ++j) {
      if (trace.Unordered(cycle[i].attempt, cycle[j].attempt)) {
        ordered = false;
      }
    }
  }

  BugPattern p;
  p.kind = PatternKind::kDeadlock;
  p.ordered = ordered;
  std::unordered_set<ir::InstId> blocked;
  for (const CycleEntry& entry : cycle) {
    blocked.insert(trace.inst(entry.attempt));
  }
  for (const TimedEvent& e : events) {
    const bool is_attempt = blocked.count(trace.inst(e.dyn)) > 0 &&
                            trace.seq(e.dyn) == trace.LastSeqOf(trace.thread(e.dyn));
    p.events.push_back(PatternEvent{trace.inst(e.dyn), e.slot, is_attempt});
  }
  builder.Add(std::move(p));

  // Competing hypothesis pattern (attempts only, no held-lock context); the
  // statistical stage must defeat it with the 10x successful traces.
  BugPattern attempts_only;
  attempts_only.kind = PatternKind::kDeadlock;
  attempts_only.ordered = ordered;
  for (size_t i = 0; i < cycle.size(); ++i) {
    attempts_only.events.push_back(
        PatternEvent{trace.inst(cycle[i].attempt), static_cast<uint8_t>(i), true});
  }
  builder.Add(std::move(attempts_only));
}

}  // namespace

PatternComputeResult ComputePatterns(const ir::Module& module,
                                     const trace::ProcessedTrace& failing_trace,
                                     const std::vector<analysis::RankedInstruction>& ranked,
                                     const rt::FailureInfo& failure,
                                     const std::vector<const ir::Instruction*>& failure_chain,
                                     const PatternComputeOptions& options,
                                     const PatternComputeContext& context) {
  PatternComputeResult result;
  PatternBuilder builder(options, &result);
  PatternScratch scratch;
  switch (failure.kind) {
    case rt::FailureKind::kDeadlock:
      ComputeDeadlockPatterns(failing_trace, ranked, failure, builder, &result);
      break;
    case rt::FailureKind::kCrash:
    case rt::FailureKind::kAssert:
      ComputeCrashPatterns(module, failing_trace, ranked, failure, failure_chain, options,
                           context, scratch, builder, &result);
      break;
    default:
      break;
  }
  return result;
}

}  // namespace snorlax::engine
