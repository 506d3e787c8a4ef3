#include "trace/processed_trace.h"

#include <algorithm>
#include <numeric>

#include "support/check.h"
#include "support/hash.h"
#include "support/str.h"

namespace snorlax::trace {

namespace {

AccessKind KindOf(const ir::Module* module, ir::InstId inst) {
  switch (module->instruction(inst)->opcode()) {
    case ir::Opcode::kLoad:
      return AccessKind::kLoad;
    case ir::Opcode::kStore:
      return AccessKind::kStore;
    default:
      return AccessKind::kOther;
  }
}

// A byte string folded eight little-endian bytes per step. Each step (an xor,
// an odd multiply, an xorshift) is a bijection of the running state, so
// strings that differ in one word always hash apart.
uint64_t HashBytes(const uint8_t* data, size_t size) {
  const auto load = [data](size_t at, size_t n) {
    uint64_t word = 0;
    for (size_t k = 0; k < n; ++k) {
      word |= static_cast<uint64_t>(data[at + k]) << (8 * k);
    }
    return word;
  };
  uint64_t h = support::Mix64(size);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    h = (h ^ load(i, 8)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return support::HashCombine(h, load(i, size - i));
}

}  // namespace

uint64_t TraceKey(const pt::PtTraceBundle& bundle, const TraceOptions& options) {
  using support::HashCombine;
  uint64_t h = support::Mix64(options.order_granularity_ns);
  h = HashCombine(h, bundle.config.mtc_period_ns);
  h = HashCombine(h, bundle.config.cyc_unit_ns);
  h = HashCombine(h, bundle.config.enable_timing ? 1 : 0);
  h = HashCombine(h, bundle.snapshot_time_ns);
  const rt::FailureInfo& failure = bundle.failure;
  h = HashCombine(h, static_cast<uint64_t>(failure.kind));
  h = HashCombine(h, failure.failing_inst);
  h = HashCombine(h, failure.thread);
  h = HashCombine(h, static_cast<uint64_t>(failure.operand.kind));
  h = HashCombine(h, static_cast<uint64_t>(failure.operand.ival));
  h = HashCombine(h, (static_cast<uint64_t>(failure.operand.obj) << 32) | failure.operand.off);
  h = HashCombine(h, failure.time_ns);
  h = HashCombine(h, failure.deadlock_cycle.size());
  for (const rt::FailureInfo::DeadlockWaiter& w : failure.deadlock_cycle) {
    h = HashCombine(h, (static_cast<uint64_t>(w.thread) << 32) | w.inst);
    h = HashCombine(h, w.block_time_ns);
  }
  h = HashCombine(h, HashBytes(reinterpret_cast<const uint8_t*>(failure.description.data()),
                               failure.description.size()));
  h = HashCombine(h, bundle.threads.size());
  for (const pt::PtTraceBundle::PerThread& per : bundle.threads) {
    h = HashCombine(h, (static_cast<uint64_t>(per.thread) << 32) | per.last_retired);
    h = HashCombine(h, per.total_written);
    h = HashCombine(h, HashBytes(per.bytes.data(), per.bytes.size()));
  }
  return h;
}

void ProcessedTrace::AppendInstance(ir::InstId inst, rt::ThreadId thread, uint32_t seq,
                                    uint64_t ts_lo_ns, uint64_t ts_ns, bool at_failure) {
  col_inst_.push_back(inst);
  col_thread_.push_back(thread);
  col_seq_.push_back(seq);
  col_ts_lo_.push_back(ts_lo_ns);
  col_ts_.push_back(ts_ns);
  const uint8_t kind = static_cast<uint8_t>(KindOf(module_, inst)) << kAccessShift;
  col_flags_.push_back(kind | (at_failure ? kAtFailureBit : 0));
}

TraceDecode::TraceDecode(const ir::Module* module, const pt::PtTraceBundle& bundle,
                         TraceOptions options) {
  Decode(module, bundle, options);
}

void TraceDecode::Decode(const ir::Module* module, const pt::PtTraceBundle& bundle,
                         TraceOptions options) {
  SNORLAX_CHECK(module != nullptr);
  module_ = module;
  options_ = options;
  content_key_ = TraceKey(bundle, options);
  failure_ = bundle.failure;
  executed_ = InstSet(module->NumInstructions());
  last_seq_.clear();
  clock_suspect_threads_.clear();
  degradation_ = DegradationReport{};
  lost_prefix_ = false;
  decode_errors_.clear();
  threads_in_trace_ = 0;
  has_evidence_ = false;
  clock_ordered_ = true;

  // The failure record travels beside the trace bytes and is just as
  // corruptible. Sanitize before anchoring anything on it: a forged failing
  // PC would crash every module lookup downstream, so it degrades to "no
  // failing PC" and the diagnosis proceeds from the surviving candidates.
  if (failure_.failing_inst != ir::kInvalidInstId &&
      failure_.failing_inst >= module->NumInstructions()) {
    degradation_.notes.push_back(
        StrFormat("failure record names unknown instruction #%u; dropped",
                  failure_.failing_inst));
    failure_.failing_inst = ir::kInvalidInstId;
    ++degradation_.sanitized_failure_fields;
    if (failure_.IsFailure()) {
      degradation_.failure_record_unusable = true;
    }
  }
  for (size_t i = failure_.deadlock_cycle.size(); i-- > 0;) {
    const rt::FailureInfo::DeadlockWaiter& w = failure_.deadlock_cycle[i];
    if (w.inst != ir::kInvalidInstId && w.inst >= module->NumInstructions()) {
      degradation_.notes.push_back(
          StrFormat("deadlock waiter names unknown instruction #%u; dropped", w.inst));
      failure_.deadlock_cycle.erase(failure_.deadlock_cycle.begin() + i);
      ++degradation_.sanitized_failure_fields;
    }
  }

  // The thread buffers keep their event capacity across decodes, so a site
  // that decodes many bundles pays the vector growth once.
  num_threads_ = bundle.threads.size();
  if (threads_.size() < num_threads_) {
    threads_.resize(num_threads_);
  }
  pt::PtDecoder decoder(module);
  for (size_t t = 0; t < num_threads_; ++t) {
    const pt::PtTraceBundle::PerThread& per = bundle.threads[t];
    pt::DecodedThreadTrace& decoded = threads_[t];
    decoder.DecodeThreadInto(per, bundle.config, bundle.snapshot_time_ns, &decoded);
    ++degradation_.threads_total;
    if (!decoded.ok()) {
      decode_errors_.push_back(decoded.error);
      ++degradation_.decode_errors;
      degradation_.notes.push_back(
          StrFormat("thread %u: %s (%zu events salvaged)", per.thread,
                    decoded.error.c_str(), decoded.events.size()));
    }
    degradation_.clock_anomalies += decoded.clock_anomalies;
    if (decoded.clock_anomalies > 0 || decoded.resyncs > 0) {
      clock_suspect_threads_.insert(per.thread);
    }
    if (decoded.resyncs > 0) {
      degradation_.stream_resyncs += decoded.resyncs;
      degradation_.notes.push_back(StrFormat(
          "thread %u: %zu mid-stream resyncs (events between corruption and "
          "the next sync point lost)",
          per.thread, decoded.resyncs));
    }
    lost_prefix_ = lost_prefix_ || decoded.lost_prefix;
    if (!decoded.events.empty()) {
      ++threads_in_trace_;
    } else {
      ++degradation_.threads_dropped;
    }
    uint64_t prev_ts = 0;
    for (const pt::DecodedEvent& ev : decoded.events) {
      // Per-thread retirement must be monotonic (the encoder's clock only
      // moves forward); a regression here is decoder-salvaged corruption.
      if (ev.ts_ns < prev_ts) {
        ++degradation_.clock_anomalies;
        clock_suspect_threads_.insert(per.thread);
        clock_ordered_ = false;
      }
      prev_ts = ev.ts_ns;
      executed_.Insert(ev.inst);
    }
    // The instances a build appends from the failure record after the
    // decoded events (see ProcessedTrace's constructor): they are executed,
    // and they take the thread's last seqs.
    uint32_t seq = static_cast<uint32_t>(decoded.events.size());
    if (failure_.IsFailure() && failure_.thread == per.thread &&
        failure_.failing_inst != ir::kInvalidInstId) {
      executed_.Insert(failure_.failing_inst);
      ++seq;
    }
    for (const rt::FailureInfo::DeadlockWaiter& w : failure_.deadlock_cycle) {
      if (w.thread == per.thread && w.inst != ir::kInvalidInstId &&
          !(w.thread == failure_.thread && w.inst == failure_.failing_inst)) {
        // A waiter that blocked before the thread's last decoded event
        // leaves the run out of timestamp order.
        if (w.block_time_ns < prev_ts) {
          clock_ordered_ = false;
        }
        prev_ts = w.block_time_ns;
        executed_.Insert(w.inst);
        ++seq;
      }
    }
    if (seq > 0) {
      // The thread's final seq. A thread id shared by several entries keeps
      // the largest.
      has_evidence_ = true;
      uint32_t& last = last_seq_[per.thread];
      last = std::max(last, seq - 1);
    }
  }

  degradation_.lost_prefix = lost_prefix_;
  if (!clock_suspect_threads_.empty()) {
    // A corrupt clock or a salvaged stream (whose resync points restart the
    // MTC delta chain) leaves that thread's retirement windows untrustworthy.
    // Damage is quarantined per thread: cross-thread pairs touching a suspect
    // thread degrade to unordered event sets (paper section 7 fallback), but
    // pairs between clean threads keep the full interval rule -- one mangled
    // buffer must not erase the ordering evidence of the other N-1 threads.
    degradation_.timestamps_unreliable = true;
    degradation_.notes.push_back(StrFormat(
        "%zu clock anomalies, %zu resyncs across %zu threads: their "
        "cross-thread ordering degraded to unordered sets",
        degradation_.clock_anomalies, degradation_.stream_resyncs,
        clock_suspect_threads_.size()));
  }
}

ProcessedTrace::ProcessedTrace(const ir::Module* module, const pt::PtTraceBundle& bundle,
                               TraceOptions options, const InstSet* keep)
    : ProcessedTrace(TraceDecode(module, bundle, options), keep) {}

ProcessedTrace::ProcessedTrace(const TraceDecode& decoded, const InstSet* keep)
    : module_(decoded.module_),
      options_(decoded.options_),
      executed_(decoded.executed_),
      last_seq_(decoded.last_seq_),
      failure_(decoded.failure_),
      lost_prefix_(decoded.lost_prefix_),
      decode_errors_(decoded.decode_errors_),
      threads_in_trace_(decoded.threads_in_trace_),
      clock_suspect_threads_(decoded.clock_suspect_threads_),
      degradation_(decoded.degradation_),
      has_evidence_(decoded.has_evidence_),
      content_key_(decoded.content_key_),
      kept_(keep != nullptr ? std::optional<InstSet>(*keep) : std::nullopt) {
  SNORLAX_CHECK(module_ != nullptr);
  // A projection skips the append of every instance outside `keep`; seq
  // still counts every event, and the clock facts come from the decode.
  const auto kept = [keep](ir::InstId inst) { return keep == nullptr || keep->Contains(inst); };
  const std::span<const pt::DecodedThreadTrace> threads(decoded.threads_.data(),
                                                        decoded.num_threads_);
  if (keep == nullptr) {
    // The full trace: reserve every instance (plus the appended failure
    // point and deadlock waiters) at once. A projection keeps few of its
    // events and grows on demand.
    size_t need = 1 + failure_.deadlock_cycle.size();
    for (const pt::DecodedThreadTrace& t : threads) {
      need += t.events.size();
    }
    col_inst_.reserve(need);
    col_thread_.reserve(need);
    col_seq_.reserve(need);
    col_ts_lo_.reserve(need);
    col_ts_.reserve(need);
    col_flags_.reserve(need);
  }

  // Each entry's instances form one run in program order. When the runs
  // have distinct threads and non-decreasing clocks, SortAndIndex merges
  // them instead of sorting.
  std::vector<ThreadRun> runs;
  runs.reserve(threads.size());
  bool runs_ordered = decoded.clock_ordered_;
  uint32_t at_failure_append = kNoInstance;
  for (const pt::DecodedThreadTrace& t : threads) {
    ThreadRun run;
    run.thread = t.thread;
    run.begin = static_cast<uint32_t>(col_inst_.size());
    uint32_t seq = 0;
    for (const pt::DecodedEvent& ev : t.events) {
      if (kept(ev.inst)) {
        AppendInstance(ev.inst, t.thread, seq, ev.ts_lo_ns, ev.ts_ns, false);
      }
      ++seq;
    }
    // The decoded trace ends at the last packet; the failing instruction
    // itself is known from the crash report, so append it (the paper maps the
    // failure PC onto the IR the same way, section 5). For a deadlock, the
    // report also locates every blocked thread's pending acquisition.
    if (failure_.IsFailure() && failure_.thread == t.thread &&
        failure_.failing_inst != ir::kInvalidInstId) {
      // Trace order puts the failure point last whatever its timestamp, so
      // the merge sets it aside instead of checking its clock.
      if (kept(failure_.failing_inst)) {
        at_failure_append = static_cast<uint32_t>(col_inst_.size());
        AppendInstance(failure_.failing_inst, t.thread, seq, failure_.time_ns,
                       failure_.time_ns, true);
      }
      ++seq;
    }
    for (const rt::FailureInfo::DeadlockWaiter& w : failure_.deadlock_cycle) {
      if (w.thread == t.thread && w.inst != ir::kInvalidInstId &&
          !(w.thread == failure_.thread && w.inst == failure_.failing_inst)) {
        if (kept(w.inst)) {
          AppendInstance(w.inst, t.thread, seq, w.block_time_ns, w.block_time_ns, false);
        }
        ++seq;
      }
    }
    run.end = static_cast<uint32_t>(col_inst_.size());
    if (run.end > run.begin) {
      runs.push_back(run);
    }
  }
  // The merge breaks timestamp ties by thread id, so it needs one run per
  // thread.
  std::sort(runs.begin(), runs.end(),
            [](const ThreadRun& a, const ThreadRun& b) { return a.thread < b.thread; });
  for (size_t r = 1; r < runs.size(); ++r) {
    if (runs[r - 1].thread == runs[r].thread) {
      runs_ordered = false;
    }
  }

  SortAndIndex(runs, runs_ordered, at_failure_append);
}

void ProcessedTrace::SortAndIndex(const std::vector<ThreadRun>& runs, bool runs_ordered,
                                  uint32_t at_failure_append) {
  const uint32_t n = static_cast<uint32_t>(col_inst_.size());
  // perm[i] = the append index of the instance at trace position i.
  std::vector<uint32_t> perm;
  if (runs_ordered) {
    // k-way merge of the runs by (ts, thread): within a run the clock never
    // decreases, so append order is already (ts, seq) order. Each step
    // drains the smallest run up to the next run's head.
    perm.reserve(n);
    struct Head {
      uint64_t ts;
      rt::ThreadId thread;
      uint32_t next;
      uint32_t end;
    };
    const auto after = [](const Head& a, const Head& b) {
      return a.ts != b.ts ? a.ts > b.ts : a.thread > b.thread;
    };
    const auto skip_failure = [&](Head& h) {
      if (h.next == at_failure_append) {
        ++h.next;
      }
      if (h.next < h.end) {
        h.ts = col_ts_[h.next];
      }
    };
    std::vector<Head> heap;
    heap.reserve(runs.size());
    for (const ThreadRun& run : runs) {
      Head h{0, run.thread, run.begin, run.end};
      skip_failure(h);
      if (h.next < h.end) {
        heap.push_back(h);
      }
    }
    std::make_heap(heap.begin(), heap.end(), after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), after);
      Head& h = heap.back();
      const bool alone = heap.size() == 1;
      do {
        perm.push_back(h.next++);
        skip_failure(h);
      } while (h.next < h.end && (alone || after(heap.front(), h)));
      if (h.next < h.end) {
        std::push_heap(heap.begin(), heap.end(), after);
      } else {
        heap.pop_back();
      }
    }
    if (at_failure_append != kNoInstance) {
      perm.push_back(at_failure_append);  // the failure point sorts last
    }
  } else {
    // Sort a permutation: one comparator pass touching four columns.
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      const bool fa = (col_flags_[a] & kAtFailureBit) != 0;
      const bool fb = (col_flags_[b] & kAtFailureBit) != 0;
      if (fa != fb) {
        return fb;  // the failure point sorts last
      }
      if (col_ts_[a] != col_ts_[b]) {
        return col_ts_[a] < col_ts_[b];
      }
      if (col_thread_[a] != col_thread_[b]) {
        return col_thread_[a] < col_thread_[b];
      }
      return col_seq_[a] < col_seq_[b];
    });
  }
  // Gather each column through the permutation: six linear applies.
  const auto gather = [&](auto& col) {
    auto tmp = col;
    for (uint32_t i = 0; i < n; ++i) {
      tmp[i] = col[perm[i]];
    }
    col.swap(tmp);
  };
  gather(col_inst_);
  gather(col_thread_);
  gather(col_seq_);
  gather(col_ts_lo_);
  gather(col_ts_);
  gather(col_flags_);

  if (failure_.IsFailure()) {
    for (uint32_t i = 0; i < n; ++i) {
      if (col_inst_[i] == failure_.failing_inst && col_thread_[i] == failure_.thread &&
          col_ts_[i] == failure_.time_ns) {
        failing_index_ = i;
      }
    }
  }

  // Flat instance index: a counting sort of the positions by instruction id.
  // It is stable, so positions ascend within each group.
  uint32_t max_inst = 0;
  for (uint32_t i = 0; i < n; ++i) {
    max_inst = std::max(max_inst, col_inst_[i]);
  }
  std::vector<uint32_t> cursor(n == 0 ? 0 : size_t{max_inst} + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    ++cursor[col_inst_[i]];
  }
  index_inst_.clear();
  index_offset_.clear();
  uint32_t offset = 0;
  for (uint32_t id = 0; id < cursor.size(); ++id) {
    const uint32_t count = cursor[id];
    if (count > 0) {
      index_inst_.push_back(id);
      index_offset_.push_back(offset);
    }
    cursor[id] = offset;
    offset += count;
  }
  index_offset_.push_back(n);
  postings_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    postings_[cursor[col_inst_[i]]++] = i;
  }
  if (runs_ordered) {
    // Per-thread cursors straight from the append order: runs are sorted by
    // thread id, each already in seq order.
    std::vector<uint32_t> position(n);
    for (uint32_t i = 0; i < n; ++i) {
      position[perm[i]] = i;
    }
    thread_events_.resize(n);
    thread_event_ids_.clear();
    thread_event_offsets_.clear();
    uint32_t out = 0;
    for (const ThreadRun& run : runs) {
      thread_event_ids_.push_back(run.thread);
      thread_event_offsets_.push_back(out);
      for (uint32_t a = run.begin; a < run.end; ++a) {
        thread_events_[out++] = position[a];
      }
    }
    thread_event_offsets_.push_back(n);
  }
  FinalizeIndex(/*thread_events_built=*/runs_ordered);
}

void ProcessedTrace::FinalizeIndex(bool thread_events_built) {
  const uint32_t n = static_cast<uint32_t>(col_inst_.size());

  if (!thread_events_built) {
    // Per-thread event cursors: every position grouped by thread, seq-sorted.
    thread_events_.resize(n);
    std::iota(thread_events_.begin(), thread_events_.end(), 0u);
    std::sort(thread_events_.begin(), thread_events_.end(), [&](uint32_t a, uint32_t b) {
      if (col_thread_[a] != col_thread_[b]) {
        return col_thread_[a] < col_thread_[b];
      }
      return col_seq_[a] < col_seq_[b];
    });
    thread_event_ids_.clear();
    thread_event_offsets_.clear();
    for (uint32_t i = 0; i < n; ++i) {
      const rt::ThreadId t = col_thread_[thread_events_[i]];
      if (thread_event_ids_.empty() || thread_event_ids_.back() != t) {
        thread_event_ids_.push_back(t);
        thread_event_offsets_.push_back(i);
      }
    }
    thread_event_offsets_.push_back(n);
  }

  // Establish the documented InstancesOf order: within each instruction's
  // postings group, ascending ts_ns with ties broken by trace position. A
  // group arrives position-sorted, and trace order is ts order except for
  // the at-failure instance (last globally), so most groups are already in
  // order and skip the sort.
  const auto ts_less = [&](uint32_t a, uint32_t b) { return col_ts_[a] < col_ts_[b]; };
  for (size_t k = 0; k + 1 < index_offset_.size(); ++k) {
    auto begin = postings_.begin() + index_offset_[k];
    auto end = postings_.begin() + index_offset_[k + 1];
    if (!std::is_sorted(begin, end, ts_less)) {
      std::stable_sort(begin, end, ts_less);
    }
  }

  // Second copy of the postings grouped by (instruction, thread), seq-sorted
  // within each group.
  if (thread_events_built) {
    // The cursors list every position in (thread, seq) order, with unique
    // keys: bucketing them by instruction group gives each group in exactly
    // that order.
    std::vector<uint32_t> group_of(n);
    for (size_t k = 0; k + 1 < index_offset_.size(); ++k) {
      for (uint32_t i = index_offset_[k]; i < index_offset_[k + 1]; ++i) {
        group_of[postings_[i]] = static_cast<uint32_t>(k);
      }
    }
    std::vector<uint32_t> cursor(index_offset_.begin(), index_offset_.end());
    thread_postings_.resize(n);
    for (uint32_t pos : thread_events_) {
      thread_postings_[cursor[group_of[pos]]++] = pos;
    }
  } else {
    // Seq order within one (instruction, thread) group is also position
    // order for clean threads, but a clock-suspect thread can interleave, so
    // sort by seq explicitly.
    thread_postings_ = postings_;
    for (size_t k = 0; k + 1 < index_offset_.size(); ++k) {
      std::sort(thread_postings_.begin() + index_offset_[k],
                thread_postings_.begin() + index_offset_[k + 1], [&](uint32_t a, uint32_t b) {
                  if (col_thread_[a] != col_thread_[b]) {
                    return col_thread_[a] < col_thread_[b];
                  }
                  return col_seq_[a] < col_seq_[b];
                });
    }
  }

  summaries_.clear();
  summaries_.reserve(index_inst_.size());
  thread_spans_.clear();
  for (size_t k = 0; k + 1 < index_offset_.size(); ++k) {
    auto begin = thread_postings_.begin() + index_offset_[k];
    auto end = thread_postings_.begin() + index_offset_[k + 1];
    InstanceSummary summary;
    summary.count = static_cast<uint32_t>(end - begin);
    summary.spans_begin = static_cast<uint32_t>(thread_spans_.size());
    summary.min_ts_ns = UINT64_MAX;
    summary.min_ts_lo_ns = UINT64_MAX;
    for (auto it = begin; it != end; ++it) {
      const uint32_t pos = *it;
      const uint32_t off = static_cast<uint32_t>(it - thread_postings_.begin());
      summary.min_ts_ns = std::min(summary.min_ts_ns, col_ts_[pos]);
      summary.max_ts_ns = std::max(summary.max_ts_ns, col_ts_[pos]);
      summary.min_ts_lo_ns = std::min(summary.min_ts_lo_ns, col_ts_lo_[pos]);
      summary.max_ts_lo_ns = std::max(summary.max_ts_lo_ns, col_ts_lo_[pos]);
      if (thread_spans_.size() == summary.spans_begin ||
          thread_spans_.back().thread != col_thread_[pos]) {
        ThreadSpan span;
        span.thread = col_thread_[pos];
        span.begin = off;
        span.end = off;
        span.min_ts_ns = UINT64_MAX;
        span.min_ts_lo_ns = UINT64_MAX;
        span.ts_sorted = true;
        span.clock_suspect = ClockSuspect(span.thread);
        thread_spans_.push_back(span);
      }
      ThreadSpan& span = thread_spans_.back();
      if (off != span.begin && col_ts_[thread_postings_[off - 1]] > col_ts_[pos]) {
        span.ts_sorted = false;
      }
      span.end = off + 1;
      span.min_ts_ns = std::min(span.min_ts_ns, col_ts_[pos]);
      span.max_ts_ns = std::max(span.max_ts_ns, col_ts_[pos]);
      span.min_ts_lo_ns = std::min(span.min_ts_lo_ns, col_ts_lo_[pos]);
      span.max_ts_lo_ns = std::max(span.max_ts_lo_ns, col_ts_lo_[pos]);
      span.has_at_failure = span.has_at_failure || (col_flags_[pos] & kAtFailureBit) != 0;
    }
    summary.spans_end = static_cast<uint32_t>(thread_spans_.size());
    summaries_.push_back(summary);
  }

  // Running ts_lo extrema, parallel to thread_postings_, restarted per span.
  prefix_max_ts_lo_.assign(n, 0);
  suffix_min_ts_lo_.assign(n, UINT64_MAX);
  for (const ThreadSpan& span : thread_spans_) {
    uint64_t run_max = 0;
    for (uint32_t i = span.begin; i < span.end; ++i) {
      run_max = std::max(run_max, col_ts_lo_[thread_postings_[i]]);
      prefix_max_ts_lo_[i] = run_max;
    }
    uint64_t run_min = UINT64_MAX;
    for (uint32_t i = span.end; i-- > span.begin;) {
      run_min = std::min(run_min, col_ts_lo_[thread_postings_[i]]);
      suffix_min_ts_lo_[i] = run_min;
    }
  }

}

std::span<const uint32_t> ProcessedTrace::InstancesOf(ir::InstId inst) const {
  auto it = std::lower_bound(index_inst_.begin(), index_inst_.end(), inst);
  if (it == index_inst_.end() || *it != inst) {
    return {};
  }
  const size_t k = static_cast<size_t>(it - index_inst_.begin());
  return std::span<const uint32_t>(postings_.data() + index_offset_[k],
                                   index_offset_[k + 1] - index_offset_[k]);
}

const InstanceSummary* ProcessedTrace::SummaryOf(ir::InstId inst) const {
  auto it = std::lower_bound(index_inst_.begin(), index_inst_.end(), inst);
  if (it == index_inst_.end() || *it != inst) {
    return nullptr;
  }
  return &summaries_[static_cast<size_t>(it - index_inst_.begin())];
}

std::span<const uint32_t> ProcessedTrace::ThreadEventsOf(rt::ThreadId thread) const {
  auto it = std::lower_bound(thread_event_ids_.begin(), thread_event_ids_.end(), thread);
  if (it == thread_event_ids_.end() || *it != thread) {
    return {};
  }
  const size_t k = static_cast<size_t>(it - thread_event_ids_.begin());
  return std::span<const uint32_t>(thread_events_.data() + thread_event_offsets_[k],
                                   thread_event_offsets_[k + 1] - thread_event_offsets_[k]);
}

bool ProcessedTrace::ExecutesBefore(uint32_t a, uint32_t b) const {
  if (col_thread_[a] == col_thread_[b]) {
    return col_seq_[a] < col_seq_[b];
  }
  // Everything captured in a failure snapshot retired before the failure
  // point (the snapshot is a causal cut of the execution).
  const bool a_failure = (col_flags_[a] & kAtFailureBit) != 0;
  const bool b_failure = (col_flags_[b] & kAtFailureBit) != 0;
  if (b_failure && !a_failure) {
    return true;
  }
  if (a_failure) {
    return false;
  }
  // A corrupt clock voids the interval rule for the thread it damaged:
  // claiming an order from garbage timestamps is worse than admitting
  // ignorance, so pairs touching a suspect thread degrade to unordered (the
  // same ladder rung as a coarse-interleaving-hypothesis violation). Pairs
  // between clean threads keep the interval rule.
  if (!clock_suspect_threads_.empty() &&
      (clock_suspect_threads_.count(col_thread_[a]) > 0 ||
       clock_suspect_threads_.count(col_thread_[b]) > 0)) {
    return false;
  }
  // Interval rule: a's window must end before b's window begins.
  return col_ts_[a] + options_.order_granularity_ns <= col_ts_lo_[b];
}

}  // namespace snorlax::trace
