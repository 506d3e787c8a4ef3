// Trace processing (paper steps 2 and 3, Figure 2).
//
// From a decoded PT bundle this builds:
//   step 2: the executed instruction set -- the union, over all threads, of
//           every instruction id that appears in the decoded trace. Hybrid
//           points-to analysis restricts its scope to this set.
//   step 3: the partially-ordered dynamic instruction trace -- every dynamic
//           instruction instance with its thread, per-thread sequence number
//           and coarse timestamp. Two instances from the same thread are
//           totally ordered (program order); instances from different threads
//           are ordered only when their coarse timestamps are separated by
//           more than the timing granularity. Bug pattern computation uses
//           this partial order ("partial flow sensitivity", paper 4.4).
//
// Storage is columnar (structure-of-arrays): one tightly-packed column per
// field, indexed by instance position in the sorted trace order. Pattern
// search touches one or two columns per comparison, so this keeps the hot
// loops in cache and makes the per-instruction instance index a pair of
// offsets into a shared postings array instead of a map of vectors.
//
// Processing runs in two halves. TraceDecode decodes every thread once and
// derives what every build of the bundle shares: the executed set (step 2),
// the clock checks, the sanitized failure record and the degradation. A
// ProcessedTrace is then built from that decode, either full or as a
// projection that stores and indexes only the instances of a given
// instruction set. In production every trace is a projection: the engine
// reads step 2 off the decode, and steps 6-7 ask a trace only about the
// instructions they name (see SiteEngine for which). The full build is the
// test oracle. A projection's executed set is still the full trace's.
#ifndef SNORLAX_TRACE_PROCESSED_TRACE_H_
#define SNORLAX_TRACE_PROCESSED_TRACE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pt/decoder.h"
#include "trace/degradation.h"
#include "trace/inst_set.h"

namespace snorlax::trace {

// What a dynamic instance did to memory, derived from its static opcode.
// Packed beside the at_failure bit so pattern computation can classify
// read/write without a module lookup per instance.
enum class AccessKind : uint8_t {
  kOther = 0,
  kLoad = 1,
  kStore = 2,
};

struct TraceOptions {
  // Cross-thread events are considered ordered only when their coarse
  // timestamps differ by at least this much. Must exceed the timing packets'
  // quantization error (cyc_unit plus packet batching); the coarse
  // interleaving hypothesis says real bug events are separated by orders of
  // magnitude more than this.
  uint64_t order_granularity_ns = 512;
};

// The content key of the trace built from `bundle` under `options`: a hash of
// every bundle field trace processing reads -- each thread's id, ring-buffer
// bytes, write count and stop record; the decoder's clock config
// (mtc_period_ns, cyc_unit_ns, enable_timing); the snapshot time; the whole
// failure record -- plus the options. A trace is a pure function of (module,
// bundle, options), so equal keys mean equal traces within one module. This
// one value keys the engine's evidence table, step 6, and the durable and
// hand-off evidence records.
uint64_t TraceKey(const pt::PtTraceBundle& bundle, const TraceOptions& options);

// O(1) interval summary over all dynamic instances of one static
// instruction: pattern computation rejects most hypothesis pairs from these
// five numbers without touching a single instance (disjoint [min,max]
// retirement windows decide the executes-before test wholesale).
struct InstanceSummary {
  uint32_t count = 0;
  uint64_t min_ts_ns = 0;
  uint64_t max_ts_ns = 0;
  uint64_t min_ts_lo_ns = 0;
  uint64_t max_ts_lo_ns = 0;
  // This instruction's per-thread spans: [spans_begin, spans_end) into the
  // trace's thread-span table, ascending by thread id (so two instructions'
  // span lists merge-join in one linear pass).
  uint32_t spans_begin = 0;
  uint32_t spans_end = 0;
};

// The dynamic instances of one (static instruction, thread) pair: a slice of
// the trace's thread-postings array, in per-thread program order (ascending
// seq), with the same interval summary as above.
struct ThreadSpan {
  rt::ThreadId thread = 0;
  uint32_t begin = 0;  // [begin, end) into thread_postings_
  uint32_t end = 0;
  uint64_t min_ts_ns = 0;
  uint64_t max_ts_ns = 0;
  uint64_t min_ts_lo_ns = 0;
  uint64_t max_ts_lo_ns = 0;
  // ts_ns is non-decreasing across the span (true for every clean thread,
  // where retirement time is monotone in program order). When false -- a
  // clock-suspect thread, or a failure record whose snapshot time precedes
  // decoded events -- binary searches by timestamp degrade to linear scans.
  bool ts_sorted = false;
  // The span's thread had clock anomalies (== ClockSuspect(thread), cached
  // here so the hot loops skip the hash lookup).
  bool clock_suspect = false;
  // The span contains the appended at-failure instance.
  bool has_at_failure = false;

  uint32_t size() const { return end - begin; }
};

// The decode half of trace processing: every thread of one bundle decoded
// into buffers that keep their capacity from one Decode() to the next, plus
// the facts every build of the bundle shares -- the executed set, the
// sanitized failure record, the per-thread clock checks and the degradation.
// A site's owner keeps one and decodes every bundle through it; a new
// failing bundle is decoded once, steps 4-5 read its executed set, and its
// projection is then built from the same decode.
class TraceDecode {
 public:
  TraceDecode() = default;
  // Decodes `bundle` (see Decode).
  TraceDecode(const ir::Module* module, const pt::PtTraceBundle& bundle,
              TraceOptions options = {});
  TraceDecode(const TraceDecode&) = delete;
  TraceDecode& operator=(const TraceDecode&) = delete;

  // Replaces the contents with the decode of `bundle`. Nothing refers to
  // `bundle` afterwards.
  void Decode(const ir::Module* module, const pt::PtTraceBundle& bundle,
              TraceOptions options = {});

  // Step 2: every instruction with a dynamic instance in the full trace
  // (decoded events plus the failure point and deadlock waiters appended
  // from the failure record).
  const InstSet& executed() const { return executed_; }
  // The bundle's failure record, sanitized against the module.
  const rt::FailureInfo& failure() const { return failure_; }
  const DegradationReport& degradation() const { return degradation_; }
  // True when the surviving buffers yielded at least one event.
  bool HasEvidence() const { return has_evidence_; }

 private:
  friend class ProcessedTrace;

  const ir::Module* module_ = nullptr;
  TraceOptions options_;
  uint64_t content_key_ = 0;
  rt::FailureInfo failure_;
  // One entry per bundle thread buffer, in bundle order; only the first
  // num_threads_ belong to the current bundle (the rest are spare capacity).
  std::vector<pt::DecodedThreadTrace> threads_;
  size_t num_threads_ = 0;
  // Every entry's decoded events, then its waiters, run in non-decreasing
  // time (the precondition of the merge in ProcessedTrace::SortAndIndex).
  bool clock_ordered_ = true;
  InstSet executed_;
  std::unordered_map<rt::ThreadId, uint32_t> last_seq_;
  std::unordered_set<rt::ThreadId> clock_suspect_threads_;
  DegradationReport degradation_;
  bool lost_prefix_ = false;
  std::vector<std::string> decode_errors_;
  size_t threads_in_trace_ = 0;
  bool has_evidence_ = false;
};

class ProcessedTrace {
 public:
  // Sentinel for "no such instance" (e.g. failing_instance() of a trace
  // without a usable failure record).
  static constexpr uint32_t kNoInstance = UINT32_MAX;

  // The full trace of `decoded`'s bundle, or with `keep` set its
  // projection onto `keep`: only instances of `keep`'s instructions are
  // stored, so size(), threads(), the columns and every index answer for
  // those instances alone, at their own positions. Everything else is the
  // full trace's:
  //   - executed() is every executed instruction, kept or not;
  //   - seq() counts every decoded event, so kept instances keep their
  //     program-order numbers and ExecutesBefore() its verdicts;
  //   - LastSeqOf() is each thread's true final seq, kept or not (the
  //     thread_final test needs it);
  //   - clock checks run over every event, so ClockSuspect(), degradation()
  //     and timestamps_unreliable() are the full trace's;
  //   - HasEvidence() and ContentKey() are the full trace's.
  // A projection's failing_instance() is kNoInstance unless `keep` holds the
  // failing PC. For every pattern whose instructions are all in `keep`,
  // TraceContainsPattern gives the same verdict as on the full trace. Reads
  // `decoded` only during construction.
  explicit ProcessedTrace(const TraceDecode& decoded, const InstSet* keep = nullptr);
  // The one-shot form: decodes `bundle` into a local TraceDecode first.
  ProcessedTrace(const ir::Module* module, const pt::PtTraceBundle& bundle,
                 TraceOptions options = {}, const InstSet* keep = nullptr);
  // Immutable once built and shared by pointer (the engine's evidence table
  // and every submission of its bundle); a deep copy is always a mistake.
  ProcessedTrace(const ProcessedTrace&) = delete;
  ProcessedTrace& operator=(const ProcessedTrace&) = delete;

  // --- Step 2: executed instruction set --------------------------------------
  // The full trace's, on a projection too.
  const InstSet& executed() const { return executed_; }
  bool WasExecuted(ir::InstId inst) const { return executed_.Contains(inst); }
  // The distinct instructions with a stored instance: executed().size() on a
  // full trace, the executed kept instructions on a projection.
  size_t indexed_instructions() const { return index_inst_.size(); }

  // --- Step 3: partially-ordered dynamic trace --------------------------------
  // Instances are addressed by their position in the sorted trace order
  // (at_failure last, then timestamp, thread, seq). Each accessor reads one
  // column. On a projection, only the kept instances have positions.
  size_t size() const { return col_inst_.size(); }
  ir::InstId inst(uint32_t i) const { return col_inst_[i]; }
  rt::ThreadId thread(uint32_t i) const { return col_thread_[i]; }
  // Per-thread program-order sequence number.
  uint32_t seq(uint32_t i) const { return col_seq_[i]; }
  // Retirement window: the instruction retired somewhere in [ts_lo_ns, ts_ns].
  uint64_t ts_lo_ns(uint32_t i) const { return col_ts_lo_[i]; }
  uint64_t ts_ns(uint32_t i) const { return col_ts_[i]; }
  // True for the failure point appended from the crash report. Everything in
  // a failure snapshot retired before the snapshot was taken, so every other
  // event executes-before this one.
  bool at_failure(uint32_t i) const { return (col_flags_[i] & kAtFailureBit) != 0; }
  AccessKind access_kind(uint32_t i) const {
    return static_cast<AccessKind>(col_flags_[i] >> kAccessShift);
  }

  // Positions (in trace order) of the dynamic instances of one static
  // instruction. A view into the shared postings array: free to call in a
  // loop, valid for the lifetime of the trace.
  //
  // Order guarantee: instances are sorted by ascending ts_ns, ties by trace
  // position (which itself sorts the failure point last). The sorted order is
  // established at index-build time, so merge-joins and binary searches over
  // these spans are always valid.
  std::span<const uint32_t> InstancesOf(ir::InstId inst) const;

  // --- Timestamp index (pattern-engine acceleration structures) --------------
  // Interval summary of one instruction's instances; nullptr when the
  // instruction has no instance in this trace. O(log #instructions).
  const InstanceSummary* SummaryOf(ir::InstId inst) const;
  // The per-thread spans of a summary, ascending by thread id.
  std::span<const ThreadSpan> ThreadSpansOf(const InstanceSummary& summary) const {
    return std::span<const ThreadSpan>(thread_spans_.data() + summary.spans_begin,
                                       summary.spans_end - summary.spans_begin);
  }
  // Positions of one span's instances, ascending by seq (program order).
  std::span<const uint32_t> SpanInstances(const ThreadSpan& span) const {
    return std::span<const uint32_t>(thread_postings_.data() + span.begin, span.size());
  }
  // Running ts_lo extrema within a span, both indexed by the same absolute
  // offset into thread_postings_ as SpanInstances: PrefixMaxTsLo(i) is the
  // max ts_lo over [span.begin, i], SuffixMinTsLo(i) the min over
  // [i, span.end). With ts_sorted spans these answer "is there an instance
  // with ts <= C whose window starts late enough" (and the mirrored suffix
  // question) in O(log span) -- the merge-join primitive of the indexed
  // pattern engine.
  uint64_t PrefixMaxTsLo(uint32_t thread_posting_index) const {
    return prefix_max_ts_lo_[thread_posting_index];
  }
  uint64_t SuffixMinTsLo(uint32_t thread_posting_index) const {
    return suffix_min_ts_lo_[thread_posting_index];
  }
  // Per-thread event cursor: every position of `thread`, ascending by seq.
  std::span<const uint32_t> ThreadEventsOf(rt::ThreadId thread) const;
  // The distinct threads with at least one instance, ascending by id.
  std::span<const rt::ThreadId> threads() const { return thread_event_ids_; }

  // The partial order: true iff instance `a` is known to execute before `b`.
  bool ExecutesBefore(uint32_t a, uint32_t b) const;
  // True iff the order of `a` and `b` cannot be established (cross-thread
  // events closer than the granularity).
  bool Unordered(uint32_t a, uint32_t b) const {
    return !ExecutesBefore(a, b) && !ExecutesBefore(b, a);
  }

  // Highest per-thread sequence number in the trace (the thread's final
  // event, also on a projection that did not keep it); 0 if the thread has
  // no events.
  uint32_t LastSeqOf(rt::ThreadId thread) const {
    auto it = last_seq_.find(thread);
    return it == last_seq_.end() ? 0 : it->second;
  }

  // --- Provenance -------------------------------------------------------------
  const rt::FailureInfo& failure() const { return failure_; }
  // Position of the failing instruction's dynamic instance (appended from the
  // crash report, since the trace ends at the last packet before the
  // failure); kNoInstance when the record was unusable.
  uint32_t failing_instance() const { return failing_index_; }

  bool lost_prefix() const { return lost_prefix_; }
  const std::vector<std::string>& decode_errors() const { return decode_errors_; }
  size_t threads_in_trace() const { return threads_in_trace_; }
  const TraceOptions& options() const { return options_; }

  // --- Degradation ------------------------------------------------------------
  // Everything this trace lost to corruption, plus which fallbacks fired.
  const DegradationReport& degradation() const { return degradation_; }
  // True when clock anomalies made some retirement windows untrustworthy.
  // Clock damage is quarantined per thread: only pairs touching a suspect
  // thread degrade to unordered event sets (the paper's section 7 fallback
  // extended to corrupt clocks); pairs between clean threads keep the full
  // interval rule.
  bool timestamps_unreliable() const { return degradation_.timestamps_unreliable; }
  // True when `thread`'s decoded clock cannot be trusted (a corrupt timing
  // packet, a mid-stream resync restarting the delta chain, or a timestamp
  // regression surfaced while building the trace).
  bool ClockSuspect(rt::ThreadId thread) const {
    return clock_suspect_threads_.count(thread) > 0;
  }
  // True when the surviving buffers yielded at least one event to analyze
  // (kept or not: a projection that kept nothing still has evidence).
  bool HasEvidence() const { return has_evidence_; }

  // TraceKey(bundle, options) of the bundle this trace was built from,
  // computed once at construction. The engine keys step 6 and its verdict
  // memo on it.
  uint64_t ContentKey() const { return content_key_; }

  // True for a projection; kept() is then the InstSet it kept, and
  // projection_key() that set's key().
  bool projected() const { return kept_.has_value(); }
  const InstSet* kept() const { return kept_.has_value() ? &*kept_ : nullptr; }
  uint64_t projection_key() const { return kept_.has_value() ? kept_->key() : 0; }

 private:
  // EncodeProcessedTrace (engine/artifact_codec.cc) reads the columns to
  // replay the retired trace-journal encoding in the benchmark harness.
  friend struct TraceSerDes;

  static constexpr uint8_t kAtFailureBit = 0x1;
  static constexpr uint8_t kAccessShift = 1;

  // The instances one PerThread entry appended: [begin, end) in append
  // order, which is per-thread program order (ascending seq).
  struct ThreadRun {
    rt::ThreadId thread = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  void AppendInstance(ir::InstId inst, rt::ThreadId thread, uint32_t seq, uint64_t ts_lo_ns,
                      uint64_t ts_ns, bool at_failure);
  // Puts the columns in trace order and builds the instance index. With
  // `runs_ordered` (distinct thread ids, and every run's non-failure
  // instances in non-decreasing ts_ns) trace order is a k-way merge of the
  // runs plus the at-failure instance at `at_failure_append` (kNoInstance
  // when none), and every index structure is built in linear time. Otherwise
  // a global sort establishes the same order.
  void SortAndIndex(const std::vector<ThreadRun>& runs, bool runs_ordered,
                    uint32_t at_failure_append);
  // Establishes the documented InstancesOf sort order and builds the
  // timestamp index (summaries, thread spans, prefix/suffix extrema, thread
  // cursors) from the columns + postings; called at the end of SortAndIndex.
  // With `thread_events_built` the caller has already filled the per-thread
  // cursors with unique (thread, seq) keys, and the thread postings are
  // bucketed from them; otherwise both are sorted.
  void FinalizeIndex(bool thread_events_built);

  const ir::Module* module_;
  TraceOptions options_;
  InstSet executed_;

  // Columns, parallel by instance position.
  std::vector<ir::InstId> col_inst_;
  std::vector<rt::ThreadId> col_thread_;
  std::vector<uint32_t> col_seq_;
  std::vector<uint64_t> col_ts_lo_;
  std::vector<uint64_t> col_ts_;
  std::vector<uint8_t> col_flags_;  // bit 0: at_failure; bits 1..2: AccessKind

  // Flat instance index: postings_ holds every position, grouped by
  // instruction id (positions ascending within a group); index_inst_ holds
  // the distinct instruction ids in ascending order and index_offset_[k] the
  // start of id k's group (index_offset_ has one trailing end sentinel).
  std::vector<uint32_t> postings_;
  std::vector<ir::InstId> index_inst_;
  std::vector<uint32_t> index_offset_;

  // Timestamp index (FinalizeIndex).
  // summaries_ is parallel to index_inst_; thread_postings_ is a second copy
  // of the positions, grouped by (instruction, thread) and seq-sorted within
  // each group; prefix/suffix arrays are parallel to thread_postings_.
  std::vector<InstanceSummary> summaries_;
  std::vector<ThreadSpan> thread_spans_;
  std::vector<uint32_t> thread_postings_;
  std::vector<uint64_t> prefix_max_ts_lo_;
  std::vector<uint64_t> suffix_min_ts_lo_;
  // Per-thread cursors: positions grouped by thread (seq-sorted), with the
  // distinct threads and their group offsets beside them.
  std::vector<uint32_t> thread_events_;
  std::vector<rt::ThreadId> thread_event_ids_;
  std::vector<uint32_t> thread_event_offsets_;

  std::unordered_map<rt::ThreadId, uint32_t> last_seq_;
  rt::FailureInfo failure_;
  uint32_t failing_index_ = kNoInstance;
  bool lost_prefix_ = false;
  std::vector<std::string> decode_errors_;
  size_t threads_in_trace_ = 0;
  std::unordered_set<rt::ThreadId> clock_suspect_threads_;
  DegradationReport degradation_;
  bool has_evidence_ = false;
  uint64_t content_key_ = 0;
  // The kept InstSet of a projection; empty for a full trace.
  std::optional<InstSet> kept_;
};

}  // namespace snorlax::trace

#endif  // SNORLAX_TRACE_PROCESSED_TRACE_H_
