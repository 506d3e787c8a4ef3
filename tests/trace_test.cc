// Unit tests for trace processing (paper steps 2-3): the executed set, the
// partially-ordered dynamic trace, failure-point handling, and the instance
// index on both of its build paths (linear-time merge and sorting fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include "faults/injector.h"
#include "ir/builder.h"
#include "pt/driver.h"
#include "runtime/interpreter.h"
#include "trace/processed_trace.h"

namespace snorlax::trace {
namespace {

using ir::BlockId;
using ir::CmpKind;
using ir::FuncId;
using ir::GlobalId;
using ir::IrBuilder;
using ir::Operand;
using ir::Reg;

// A crashing program: `workers` threads run one worker function that
// dereferences a slot main nulls.
struct CrashProgram {
  std::unique_ptr<ir::Module> module;
  ir::InstId null_store = ir::kInvalidInstId;
  ir::InstId racy_load = ir::kInvalidInstId;
};

CrashProgram BuildCrashProgram(int workers = 1) {
  CrashProgram out;
  out.module = std::make_unique<ir::Module>();
  ir::Module& m = *out.module;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  const GlobalId g = b.CreateGlobal("slot", ptr);

  const FuncId worker = b.BeginFunction("worker", m.types().VoidType(), {i64});
  const BlockId entry = b.CreateBlock("entry");
  const BlockId head = b.CreateBlock("head");
  const BlockId exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  const Reg i = b.Alloca(i64);
  b.Store(Operand::MakeImm(0), i, i64);
  b.Br(head);
  b.SetInsertPoint(head);
  b.Work(40'000);
  const Reg slot = b.AddrOfGlobal(g);
  const Reg p = b.Load(slot, ptr);
  out.racy_load = b.last_inst();
  b.Load(p, i64);  // crashes once main nulls the slot
  const Reg iv = b.Load(i, i64);
  const Reg iv2 = b.Add(iv, 1, i64);
  b.Store(iv2, i, i64);
  const Reg more = b.Cmp(CmpKind::kLt, Operand::MakeReg(iv2), Operand::MakeImm(200));
  b.CondBr(more, head, exit);
  b.SetInsertPoint(exit);
  b.RetVoid();
  b.EndFunction();

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg mslot = b.AddrOfGlobal(g);
  const Reg value = b.Alloca(i64);
  b.Store(Operand::MakeImm(5), value, i64);
  b.Store(value, mslot, ptr);
  std::vector<Reg> threads;
  for (int w = 0; w < workers; ++w) {
    threads.push_back(b.ThreadCreate(worker, Operand::MakeImm(w)));
  }
  // Branchy waiting loop: without branches a thread's trace has no timing
  // packets and its events cannot be ordered against other threads at all.
  const BlockId mhead = b.CreateBlock("mhead");
  const BlockId mexit = b.CreateBlock("mexit");
  const Reg mi = b.Alloca(i64);
  b.Store(Operand::MakeImm(0), mi, i64);
  b.Br(mhead);
  b.SetInsertPoint(mhead);
  b.Work(40'000);
  const Reg miv = b.Load(mi, i64);
  const Reg miv2 = b.Add(miv, 1, i64);
  b.Store(miv2, mi, i64);
  const Reg mmore = b.Cmp(CmpKind::kLt, Operand::MakeReg(miv2), Operand::MakeImm(50));
  b.CondBr(mmore, mhead, mexit);
  b.SetInsertPoint(mexit);
  b.Store(Operand::MakeImm(0), mslot, ptr);
  out.null_store = b.last_inst();
  for (const Reg t : threads) {
    b.ThreadJoin(t);
  }
  b.RetVoid();
  b.EndFunction();
  return out;
}

pt::PtTraceBundle CaptureFailure(const CrashProgram& prog, pt::PtConfig config = {}) {
  rt::InterpOptions opts;
  opts.work_jitter = 0.0;
  rt::Interpreter interp(prog.module.get(), opts);
  pt::PtDriver driver(prog.module.get(), config);
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  EXPECT_EQ(r.failure.kind, rt::FailureKind::kCrash);
  EXPECT_TRUE(driver.captured().has_value());
  return *driver.captured();
}

TEST(ProcessedTrace, ExecutedSetCoversBothThreads) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  EXPECT_TRUE(trace.decode_errors().empty());
  EXPECT_EQ(trace.threads_in_trace(), 2u);
  EXPECT_TRUE(trace.WasExecuted(prog.null_store));
  EXPECT_TRUE(trace.WasExecuted(prog.racy_load));
  EXPECT_TRUE(trace.WasExecuted(bundle.failure.failing_inst));
  // The executed set is a subset of module instructions.
  EXPECT_LE(trace.executed().size(), prog.module->NumInstructions());
}

TEST(ProcessedTrace, FailingInstanceAppendedAsFailurePoint) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  const uint32_t failing = trace.failing_instance();
  ASSERT_NE(failing, ProcessedTrace::kNoInstance);
  EXPECT_EQ(trace.inst(failing), bundle.failure.failing_inst);
  EXPECT_TRUE(trace.at_failure(failing));
  EXPECT_EQ(trace.thread(failing), bundle.failure.thread);
  // Everything else executes-before the failure point.
  int checked = 0;
  for (uint32_t i = 0; i < trace.size(); ++i) {
    if (i == failing) {
      continue;
    }
    if (trace.thread(i) != trace.thread(failing)) {
      EXPECT_TRUE(trace.ExecutesBefore(i, failing));
      EXPECT_FALSE(trace.ExecutesBefore(failing, i));
      if (++checked > 200) {
        break;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ProcessedTrace, SameThreadUsesProgramOrder) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  // Two instances of the racy load in the worker: earlier seq before later.
  const auto loads = trace.InstancesOf(prog.racy_load);
  ASSERT_GE(loads.size(), 2u);
  EXPECT_TRUE(trace.ExecutesBefore(loads.front(), loads.back()));
  EXPECT_FALSE(trace.ExecutesBefore(loads.back(), loads.front()));
  // The index hands out positions in trace order and classifies the access.
  for (size_t i = 1; i < loads.size(); ++i) {
    EXPECT_LT(loads[i - 1], loads[i]);
  }
  EXPECT_EQ(trace.access_kind(loads.front()), AccessKind::kLoad);
}

TEST(ProcessedTrace, CrossThreadNeedsSeparatedWindows) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  // The null store (main, ~2ms) is well separated from the worker's early
  // loads (<1ms) -> ordered; and from the final crash via the failure rule.
  const auto stores = trace.InstancesOf(prog.null_store);
  ASSERT_EQ(stores.size(), 1u);
  const auto loads = trace.InstancesOf(prog.racy_load);
  ASSERT_GE(loads.size(), 2u);
  EXPECT_TRUE(trace.ExecutesBefore(loads.front(), stores.front()));
  EXPECT_FALSE(trace.ExecutesBefore(stores.front(), loads.front()));
  EXPECT_EQ(trace.access_kind(stores.front()), AccessKind::kStore);
}

TEST(ProcessedTrace, IntervalRuleMatchesTimestampColumns) {
  // Cross-thread, non-failure ordering is exactly the interval rule over the
  // timestamp columns: a's window must end a granularity before b's begins.
  // (Overlapping windows are therefore mutually unordered.)
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  ASSERT_FALSE(trace.timestamps_unreliable());
  const uint64_t g = trace.options().order_granularity_ns;
  int checked = 0;
  for (uint32_t a = 0; a < trace.size() && checked < 2000; ++a) {
    for (uint32_t b = 0; b < trace.size() && checked < 2000; ++b) {
      if (trace.thread(a) == trace.thread(b) || trace.at_failure(a) || trace.at_failure(b)) {
        continue;
      }
      EXPECT_EQ(trace.ExecutesBefore(a, b), trace.ts_ns(a) + g <= trace.ts_lo_ns(b));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ProcessedTrace, GranularityOptionControlsOrdering) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  TraceOptions coarse;
  coarse.order_granularity_ns = 100ull * 1000 * 1000;  // 100ms: nothing orders
  ProcessedTrace trace(prog.module.get(), bundle, coarse);
  const auto stores = trace.InstancesOf(prog.null_store);
  const auto loads = trace.InstancesOf(prog.racy_load);
  ASSERT_FALSE(stores.empty());
  ASSERT_FALSE(loads.empty());
  EXPECT_TRUE(trace.Unordered(loads.front(), stores.front()));
}

TEST(ProcessedTrace, LastSeqOfTracksThreadFinals) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  const uint32_t failing = trace.failing_instance();
  ASSERT_NE(failing, ProcessedTrace::kNoInstance);
  EXPECT_EQ(trace.LastSeqOf(trace.thread(failing)), trace.seq(failing));
  EXPECT_EQ(trace.LastSeqOf(9999), 0u);  // unknown thread
}

// A deterministic ABBA deadlock, captured.
struct DeadlockCapture {
  std::unique_ptr<ir::Module> module;
  pt::PtTraceBundle bundle;
};

DeadlockCapture CaptureDeadlock() {
  DeadlockCapture out;
  out.module = std::make_unique<ir::Module>();
  ir::Module* m = out.module.get();
  IrBuilder b(m);
  const GlobalId la = b.CreateLockGlobal("A");
  const GlobalId lb = b.CreateLockGlobal("B");
  auto party = [&](const char* name, GlobalId first, GlobalId second) {
    const FuncId f = b.BeginFunction(name, m->types().VoidType(), {m->types().IntType(64)});
    b.SetInsertPoint(b.CreateBlock("entry"));
    const Reg l1 = b.AddrOfGlobal(first);
    b.LockAcquire(l1);
    b.Work(50'000);
    const Reg l2 = b.AddrOfGlobal(second);
    b.LockAcquire(l2);
    b.LockRelease(l2);
    b.LockRelease(l1);
    b.RetVoid();
    b.EndFunction();
    return f;
  };
  const FuncId f1 = party("p1", la, lb);
  const FuncId f2 = party("p2", lb, la);
  b.BeginFunction("main", m->types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg t1 = b.ThreadCreate(f1, Operand::MakeImm(0));
  const Reg t2 = b.ThreadCreate(f2, Operand::MakeImm(1));
  b.ThreadJoin(t1);
  b.ThreadJoin(t2);
  b.RetVoid();
  b.EndFunction();

  rt::Interpreter interp(m, rt::InterpOptions{});
  pt::PtDriver driver(m);
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  EXPECT_EQ(r.failure.kind, rt::FailureKind::kDeadlock);
  EXPECT_TRUE(driver.captured().has_value());
  out.bundle = *driver.captured();
  return out;
}

TEST(ProcessedTrace, DeadlockWaitersAppended) {
  // Both blocked acquisitions must appear.
  const DeadlockCapture cap = CaptureDeadlock();
  ASSERT_EQ(cap.bundle.failure.kind, rt::FailureKind::kDeadlock);
  ProcessedTrace trace(cap.module.get(), cap.bundle);
  ASSERT_EQ(cap.bundle.failure.deadlock_cycle.size(), 2u);
  for (const auto& waiter : cap.bundle.failure.deadlock_cycle) {
    const auto instances = trace.InstancesOf(waiter.inst);
    bool found = false;
    for (uint32_t d : instances) {
      found |= (trace.thread(d) == waiter.thread && trace.ts_ns(d) == waiter.block_time_ns);
    }
    EXPECT_TRUE(found) << "waiter attempt missing from trace";
    // The blocked attempt is its thread's final event.
    bool is_final = false;
    for (uint32_t d : instances) {
      is_final |= (trace.thread(d) == waiter.thread &&
                   trace.seq(d) == trace.LastSeqOf(waiter.thread));
    }
    EXPECT_TRUE(is_final);
  }
}

// --- Timestamp index invariants ---------------------------------------------

TEST(ProcessedTraceIndex, InstancesOfSortedByTimestamp) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  size_t multi = 0;
  for (ir::InstId inst : trace.executed()) {
    const auto instances = trace.InstancesOf(inst);
    if (instances.size() >= 2) {
      ++multi;
    }
    for (size_t k = 1; k < instances.size(); ++k) {
      const uint32_t prev = instances[k - 1];
      const uint32_t cur = instances[k];
      // Documented order: ascending ts_ns, ties by trace position.
      EXPECT_LE(trace.ts_ns(prev), trace.ts_ns(cur));
      if (trace.ts_ns(prev) == trace.ts_ns(cur)) {
        EXPECT_LT(prev, cur);
      }
    }
    // The at-failure instance sorts after every other instance of its
    // instruction (trace order puts the failure point last).
    for (size_t k = 0; k + 1 < instances.size(); ++k) {
      EXPECT_FALSE(trace.at_failure(instances[k]) && !trace.at_failure(instances[k + 1]));
    }
  }
  EXPECT_GT(multi, 0u) << "loop body should execute more than once";
}

TEST(ProcessedTraceIndex, SummariesAndSpansMatchBruteForce) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  size_t instances_covered = 0;
  for (ir::InstId inst : trace.executed()) {
    const auto instances = trace.InstancesOf(inst);
    const InstanceSummary* summary = trace.SummaryOf(inst);
    if (instances.empty()) {
      EXPECT_EQ(summary, nullptr);
      continue;
    }
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->count, instances.size());

    uint64_t min_ts = UINT64_MAX, max_ts = 0, min_lo = UINT64_MAX, max_lo = 0;
    for (uint32_t d : instances) {
      min_ts = std::min(min_ts, trace.ts_ns(d));
      max_ts = std::max(max_ts, trace.ts_ns(d));
      min_lo = std::min(min_lo, trace.ts_lo_ns(d));
      max_lo = std::max(max_lo, trace.ts_lo_ns(d));
    }
    EXPECT_EQ(summary->min_ts_ns, min_ts);
    EXPECT_EQ(summary->max_ts_ns, max_ts);
    EXPECT_EQ(summary->min_ts_lo_ns, min_lo);
    EXPECT_EQ(summary->max_ts_lo_ns, max_lo);

    size_t span_total = 0;
    rt::ThreadId prev_thread = 0;
    bool first_span = true;
    for (const ThreadSpan& span : trace.ThreadSpansOf(*summary)) {
      if (!first_span) {
        EXPECT_LT(prev_thread, span.thread) << "spans must ascend by thread id";
      }
      first_span = false;
      prev_thread = span.thread;
      const auto span_instances = trace.SpanInstances(span);
      ASSERT_GT(span_instances.size(), 0u);
      span_total += span_instances.size();
      uint64_t s_min_ts = UINT64_MAX, s_max_ts = 0, s_min_lo = UINT64_MAX, s_max_lo = 0;
      bool sorted = true;
      bool has_failure = false;
      for (size_t k = 0; k < span_instances.size(); ++k) {
        const uint32_t d = span_instances[k];
        EXPECT_EQ(trace.thread(d), span.thread);
        EXPECT_EQ(trace.inst(d), inst);
        if (k > 0) {
          // Program order within the span.
          EXPECT_LT(trace.seq(span_instances[k - 1]), trace.seq(d));
          sorted = sorted && trace.ts_ns(span_instances[k - 1]) <= trace.ts_ns(d);
        }
        s_min_ts = std::min(s_min_ts, trace.ts_ns(d));
        s_max_ts = std::max(s_max_ts, trace.ts_ns(d));
        s_min_lo = std::min(s_min_lo, trace.ts_lo_ns(d));
        s_max_lo = std::max(s_max_lo, trace.ts_lo_ns(d));
        has_failure = has_failure || trace.at_failure(d);
      }
      EXPECT_EQ(span.min_ts_ns, s_min_ts);
      EXPECT_EQ(span.max_ts_ns, s_max_ts);
      EXPECT_EQ(span.min_ts_lo_ns, s_min_lo);
      EXPECT_EQ(span.max_ts_lo_ns, s_max_lo);
      EXPECT_EQ(span.has_at_failure, has_failure);
      EXPECT_EQ(span.clock_suspect, trace.ClockSuspect(span.thread));
      if (span.ts_sorted) {
        EXPECT_TRUE(sorted) << "ts_sorted span with decreasing timestamps";
      }
      // Prefix/suffix ts_lo extrema against brute force, at every offset.
      uint64_t run_max = 0;
      for (uint32_t abs = span.begin; abs < span.end; ++abs) {
        run_max = std::max(run_max, trace.ts_lo_ns(span_instances[abs - span.begin]));
        EXPECT_EQ(trace.PrefixMaxTsLo(abs), run_max);
      }
      uint64_t run_min = UINT64_MAX;
      for (uint32_t abs = span.end; abs-- > span.begin;) {
        run_min = std::min(run_min, trace.ts_lo_ns(span_instances[abs - span.begin]));
        EXPECT_EQ(trace.SuffixMinTsLo(abs), run_min);
      }
    }
    EXPECT_EQ(span_total, instances.size()) << "spans must partition the instances";
    instances_covered += span_total;
  }
  EXPECT_EQ(instances_covered, trace.size());
}

TEST(ProcessedTraceIndex, ThreadEventsAscendBySeqAndCoverTrace) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ProcessedTrace trace(prog.module.get(), bundle);
  std::unordered_set<rt::ThreadId> threads;
  for (uint32_t i = 0; i < trace.size(); ++i) {
    threads.insert(trace.thread(i));
  }
  ASSERT_GE(threads.size(), 2u);
  // Each thread's cursor ascends by seq; together the cursors cover every
  // instance exactly once.
  size_t total = 0;
  for (const rt::ThreadId t : threads) {
    const auto events = trace.ThreadEventsOf(t);
    ASSERT_GT(events.size(), 0u);
    for (size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(trace.thread(events[k]), t);
      if (k > 0) {
        EXPECT_LT(trace.seq(events[k - 1]), trace.seq(events[k]));
      }
    }
    total += events.size();
  }
  EXPECT_EQ(total, trace.size());
}

// --- Both index build paths against brute force -----------------------------
//
// A bundle whose PerThread entries have distinct thread ids and in-order
// clocks is indexed by merging the per-thread runs; anything else falls back
// to sorting. Either way every accessor must answer what a brute-force pass
// over the columns computes.

// Every accessor of `t` against a reference computed from its columns alone.
void ExpectIndexMatchesColumns(const ProcessedTrace& t) {
  const uint32_t n = static_cast<uint32_t>(t.size());
  // Trace order: at_failure last, then (ts, thread, seq). Keys tie only when
  // two entries share a thread id.
  const auto key = [&](uint32_t i) {
    return std::make_tuple(t.at_failure(i), t.ts_ns(i), t.thread(i), t.seq(i));
  };
  for (uint32_t i = 1; i < n; ++i) {
    EXPECT_LE(key(i - 1), key(i)) << "trace order broken at position " << i;
  }

  std::set<ir::InstId> insts;
  std::set<rt::ThreadId> threads;
  std::map<rt::ThreadId, uint32_t> last_seq;
  for (uint32_t i = 0; i < n; ++i) {
    insts.insert(t.inst(i));
    threads.insert(t.thread(i));
    last_seq[t.thread(i)] = std::max(last_seq[t.thread(i)], t.seq(i));
  }
  EXPECT_EQ(std::set<ir::InstId>(t.executed().begin(), t.executed().end()), insts);
  EXPECT_EQ(std::vector<rt::ThreadId>(t.threads().begin(), t.threads().end()),
            std::vector<rt::ThreadId>(threads.begin(), threads.end()));

  const ir::InstId probe_end = insts.empty() ? 1 : *insts.rbegin() + 2;
  size_t covered = 0;
  for (ir::InstId inst = 0; inst < probe_end; ++inst) {
    // InstancesOf: the positions of `inst`, stably ordered by ts.
    std::vector<uint32_t> want;
    for (uint32_t i = 0; i < n; ++i) {
      if (t.inst(i) == inst) {
        want.push_back(i);
      }
    }
    std::stable_sort(want.begin(), want.end(),
                     [&](uint32_t a, uint32_t b) { return t.ts_ns(a) < t.ts_ns(b); });
    const auto got = t.InstancesOf(inst);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want) << "inst " << inst;
    EXPECT_EQ(t.WasExecuted(inst), !want.empty());
    const InstanceSummary* summary = t.SummaryOf(inst);
    if (want.empty()) {
      EXPECT_EQ(summary, nullptr);
      continue;
    }
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->count, want.size());
    // Per-thread groups of the instruction, each in program order.
    std::map<rt::ThreadId, std::vector<uint32_t>> by_thread;
    for (uint32_t pos : want) {
      by_thread[t.thread(pos)].push_back(pos);
    }
    uint64_t min_ts = UINT64_MAX, max_ts = 0, min_lo = UINT64_MAX, max_lo = 0;
    const auto spans = t.ThreadSpansOf(*summary);
    ASSERT_EQ(spans.size(), by_thread.size());
    size_t k = 0;
    for (auto& [thread, group] : by_thread) {
      const ThreadSpan& span = spans[k++];
      EXPECT_EQ(span.thread, thread);
      const auto got_span = t.SpanInstances(span);
      ASSERT_EQ(got_span.size(), group.size());
      // Seq order is exact; positions only differ where seqs tie.
      std::vector<uint32_t> got_seqs;
      std::vector<uint32_t> want_seqs;
      for (size_t j = 0; j < group.size(); ++j) {
        got_seqs.push_back(t.seq(got_span[j]));
        want_seqs.push_back(t.seq(group[j]));
      }
      std::sort(want_seqs.begin(), want_seqs.end());
      EXPECT_EQ(got_seqs, want_seqs);
      EXPECT_EQ(std::multiset<uint32_t>(got_span.begin(), got_span.end()),
                std::multiset<uint32_t>(group.begin(), group.end()));
      uint64_t s_min_ts = UINT64_MAX, s_max_ts = 0, s_min_lo = UINT64_MAX, s_max_lo = 0;
      bool sorted = true;
      bool has_failure = false;
      uint64_t run_max = 0;
      for (uint32_t abs = span.begin; abs < span.end; ++abs) {
        const uint32_t d = got_span[abs - span.begin];
        if (abs > span.begin) {
          sorted = sorted && t.ts_ns(got_span[abs - span.begin - 1]) <= t.ts_ns(d);
        }
        s_min_ts = std::min(s_min_ts, t.ts_ns(d));
        s_max_ts = std::max(s_max_ts, t.ts_ns(d));
        s_min_lo = std::min(s_min_lo, t.ts_lo_ns(d));
        s_max_lo = std::max(s_max_lo, t.ts_lo_ns(d));
        has_failure = has_failure || t.at_failure(d);
        run_max = std::max(run_max, t.ts_lo_ns(d));
        EXPECT_EQ(t.PrefixMaxTsLo(abs), run_max);
      }
      uint64_t run_min = UINT64_MAX;
      for (uint32_t abs = span.end; abs-- > span.begin;) {
        run_min = std::min(run_min, t.ts_lo_ns(got_span[abs - span.begin]));
        EXPECT_EQ(t.SuffixMinTsLo(abs), run_min);
      }
      EXPECT_EQ(span.min_ts_ns, s_min_ts);
      EXPECT_EQ(span.max_ts_ns, s_max_ts);
      EXPECT_EQ(span.min_ts_lo_ns, s_min_lo);
      EXPECT_EQ(span.max_ts_lo_ns, s_max_lo);
      EXPECT_EQ(span.ts_sorted, sorted);
      EXPECT_EQ(span.has_at_failure, has_failure);
      EXPECT_EQ(span.clock_suspect, t.ClockSuspect(thread));
      min_ts = std::min(min_ts, s_min_ts);
      max_ts = std::max(max_ts, s_max_ts);
      min_lo = std::min(min_lo, s_min_lo);
      max_lo = std::max(max_lo, s_max_lo);
    }
    EXPECT_EQ(summary->min_ts_ns, min_ts);
    EXPECT_EQ(summary->max_ts_ns, max_ts);
    EXPECT_EQ(summary->min_ts_lo_ns, min_lo);
    EXPECT_EQ(summary->max_ts_lo_ns, max_lo);
    covered += want.size();
  }
  EXPECT_EQ(covered, n);

  // Per-thread cursors and final seqs; unknown threads answer empty / 0.
  threads.insert(9999);
  for (const rt::ThreadId thread : threads) {
    std::vector<uint32_t> want_seqs;
    std::multiset<uint32_t> want_positions;
    for (uint32_t i = 0; i < n; ++i) {
      if (t.thread(i) == thread) {
        want_seqs.push_back(t.seq(i));
        want_positions.insert(i);
      }
    }
    std::sort(want_seqs.begin(), want_seqs.end());
    const auto events = t.ThreadEventsOf(thread);
    std::vector<uint32_t> got_seqs;
    for (uint32_t pos : events) {
      got_seqs.push_back(t.seq(pos));
    }
    EXPECT_EQ(got_seqs, want_seqs) << "thread " << thread;
    EXPECT_EQ(std::multiset<uint32_t>(events.begin(), events.end()), want_positions);
    if (!t.projected()) {
      // A projection's final seqs come from events it did not keep
      // (ExpectProjectionOf checks them against the full trace).
      EXPECT_EQ(t.LastSeqOf(thread), last_seq.count(thread) ? last_seq[thread] : 0u);
    }
  }

  // The failing instance is the last instance matching the failure record.
  uint32_t want_failing = ProcessedTrace::kNoInstance;
  if (t.failure().IsFailure()) {
    for (uint32_t i = 0; i < n; ++i) {
      if (t.inst(i) == t.failure().failing_inst && t.thread(i) == t.failure().thread &&
          t.ts_ns(i) == t.failure().time_ns) {
        want_failing = i;
      }
    }
  }
  EXPECT_EQ(t.failing_instance(), want_failing);
}

// `projection` against `full` restricted to `keep`: the same instances, in
// the same relative order, with the same fields; the full trace's per-thread
// final seqs, clock verdicts, degradation and keys; and an index that
// matches brute force over its own columns.
void ExpectProjectionOf(const ProcessedTrace& full, const ProcessedTrace& projection,
                        const InstSet& keep) {
  EXPECT_FALSE(full.projected());
  EXPECT_TRUE(projection.projected());
  EXPECT_EQ(projection.projection_key(), keep.key());
  EXPECT_EQ(projection.ContentKey(), full.ContentKey());
  EXPECT_EQ(projection.HasEvidence(), full.HasEvidence());
  const auto row = [](const ProcessedTrace& t, uint32_t i) {
    return std::make_tuple(t.inst(i), t.thread(i), t.seq(i), t.ts_lo_ns(i), t.ts_ns(i),
                           t.at_failure(i), t.access_kind(i));
  };
  using Row = decltype(row(full, 0));
  std::vector<Row> want;
  for (uint32_t i = 0; i < full.size(); ++i) {
    if (keep.Contains(full.inst(i))) {
      want.push_back(row(full, i));
    }
  }
  std::vector<Row> got;
  for (uint32_t i = 0; i < projection.size(); ++i) {
    got.push_back(row(projection, i));
  }
  EXPECT_EQ(got, want);
  for (const ir::InstId inst : full.executed()) {
    std::vector<Row> want_instances;
    if (keep.Contains(inst)) {
      for (const uint32_t pos : full.InstancesOf(inst)) {
        want_instances.push_back(row(full, pos));
      }
    }
    std::vector<Row> got_instances;
    for (const uint32_t pos : projection.InstancesOf(inst)) {
      got_instances.push_back(row(projection, pos));
    }
    EXPECT_EQ(got_instances, want_instances) << "inst " << inst;
  }
  for (const rt::ThreadId thread : full.threads()) {
    EXPECT_EQ(projection.LastSeqOf(thread), full.LastSeqOf(thread)) << "thread " << thread;
    EXPECT_EQ(projection.ClockSuspect(thread), full.ClockSuspect(thread)) << "thread " << thread;
  }
  EXPECT_EQ(projection.timestamps_unreliable(), full.timestamps_unreliable());
  EXPECT_EQ(projection.degradation().notes, full.degradation().notes);
  EXPECT_EQ(projection.degradation().clock_anomalies, full.degradation().clock_anomalies);
  EXPECT_EQ(projection.decode_errors(), full.decode_errors());
  EXPECT_EQ(projection.threads_in_trace(), full.threads_in_trace());
  EXPECT_EQ(projection.lost_prefix(), full.lost_prefix());
  ExpectIndexMatchesColumns(projection);
}

// Builds the trace and checks its index against brute force over its
// columns, then projects it onto nothing, every third executed instruction,
// the failing PC alone and everything, and checks each projection.
void ExpectBuildMatchesBruteForce(const ir::Module* module, const pt::PtTraceBundle& bundle) {
  const ProcessedTrace trace(module, bundle);
  ExpectIndexMatchesColumns(trace);

  std::vector<ir::InstId> executed(trace.executed().begin(), trace.executed().end());
  std::sort(executed.begin(), executed.end());
  InstSet none;
  InstSet every_third;
  InstSet failing_pc;
  InstSet all;
  for (size_t k = 0; k < executed.size(); ++k) {
    if (k % 3 == 0) {
      every_third.Insert(executed[k]);
    }
    all.Insert(executed[k]);
  }
  if (bundle.failure.failing_inst != ir::kInvalidInstId &&
      bundle.failure.failing_inst < module->NumInstructions()) {
    failing_pc.Insert(bundle.failure.failing_inst);
  }
  for (const InstSet* keep : {&none, &every_third, &failing_pc, &all}) {
    SCOPED_TRACE("projection onto " + std::to_string(keep->size()) + " instructions");
    const ProcessedTrace projection(module, bundle, {}, keep);
    ExpectProjectionOf(trace, projection, *keep);
  }
}

TEST(ProcessedTraceBuild, CleanBundleMatchesBruteForce) {
  const CrashProgram prog = BuildCrashProgram();
  ExpectBuildMatchesBruteForce(prog.module.get(), CaptureFailure(prog));
}

TEST(ProcessedTraceBuild, SharedCodeAcrossThreadsMatchesBruteForce) {
  // Two threads run one function, so an instruction's thread postings, in
  // (thread, seq) order, differ from its instances in trace order.
  const CrashProgram prog = BuildCrashProgram(/*workers=*/2);
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  const ProcessedTrace trace(prog.module.get(), bundle);
  bool reordered = false;
  for (const ir::InstId inst : trace.executed()) {
    const auto instances = trace.InstancesOf(inst);
    for (size_t k = 1; k < instances.size(); ++k) {
      reordered = reordered || trace.thread(instances[k]) < trace.thread(instances[k - 1]);
    }
  }
  ASSERT_TRUE(reordered) << "no instruction runs on a lower thread id after a higher one";
  ExpectBuildMatchesBruteForce(prog.module.get(), bundle);
}

TEST(ProcessedTraceBuild, CleanDeadlockMatchesBruteForce) {
  // A waiter's block time can precede its thread's last decoded timestamp,
  // which sends an uncorrupted bundle down the sorting fallback.
  const DeadlockCapture cap = CaptureDeadlock();
  ASSERT_EQ(cap.bundle.failure.deadlock_cycle.size(), 2u);
  ExpectBuildMatchesBruteForce(cap.module.get(), cap.bundle);
}

TEST(ProcessedTraceBuild, DuplicateThreadIdsFallBackToSort) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  ASSERT_GE(bundle.threads.size(), 2u);
  // The same buffer twice: every key of the copy ties with the original.
  pt::PtTraceBundle twice = bundle;
  twice.threads.push_back(bundle.threads.front());
  ExpectBuildMatchesBruteForce(prog.module.get(), twice);
  // Two different buffers under one id: their seqs interleave.
  pt::PtTraceBundle merged = bundle;
  merged.threads[1].thread = merged.threads[0].thread;
  const ProcessedTrace trace(prog.module.get(), merged);
  EXPECT_EQ(trace.threads().size(), 1u);
  ExpectBuildMatchesBruteForce(prog.module.get(), merged);
}

TEST(ProcessedTraceBuild, RegressingClockFallsBackToSort) {
  const CrashProgram prog = BuildCrashProgram();
  // Frequent sync points, so rewound PSB clocks land mid-stream.
  pt::PtConfig config;
  config.psb_period_bytes = 64;
  pt::PtTraceBundle bundle = CaptureFailure(prog, config);
  auto plan = faults::FaultPlan::Parse("clockregress@1", 3);
  ASSERT_TRUE(plan.ok());
  faults::FaultInjector(plan.take()).Apply(&bundle);
  const ProcessedTrace trace(prog.module.get(), bundle);
  ASSERT_TRUE(trace.timestamps_unreliable());
  // Precondition: some thread's clock really runs backwards in program
  // order, so its run cannot be merged.
  bool regressed = false;
  for (const rt::ThreadId thread : trace.threads()) {
    const auto events = trace.ThreadEventsOf(thread);
    for (size_t k = 1; k < events.size(); ++k) {
      regressed = regressed || trace.ts_ns(events[k]) < trace.ts_ns(events[k - 1]);
    }
  }
  ASSERT_TRUE(regressed);
  ExpectBuildMatchesBruteForce(prog.module.get(), bundle);
}

TEST(ProcessedTraceBuild, WaitersBlockedBeforeTheirRunFallBackToSort) {
  const DeadlockCapture cap = CaptureDeadlock();
  ASSERT_FALSE(cap.bundle.failure.deadlock_cycle.empty());
  // A second pending acquisition on the failing thread is appended after
  // the at-failure point; with an early block time it lands out of order.
  pt::PtTraceBundle bundle = cap.bundle;
  rt::FailureInfo::DeadlockWaiter extra;
  extra.thread = bundle.failure.thread;
  extra.inst = 0;
  extra.block_time_ns = 1;
  bundle.failure.deadlock_cycle.push_back(extra);
  for (rt::FailureInfo::DeadlockWaiter& w : bundle.failure.deadlock_cycle) {
    w.block_time_ns = std::min<uint64_t>(w.block_time_ns, 1);
  }
  const ProcessedTrace trace(cap.module.get(), bundle);
  const uint32_t failing = trace.failing_instance();
  ASSERT_NE(failing, ProcessedTrace::kNoInstance);
  EXPECT_EQ(failing, trace.size() - 1);
  EXPECT_EQ(trace.LastSeqOf(bundle.failure.thread), trace.seq(failing) + 1)
      << "the extra waiter follows the failure point in program order";
  ExpectBuildMatchesBruteForce(cap.module.get(), bundle);
}

TEST(ProcessedTraceBuild, EmptyThreadBuffersAreSkipped) {
  const CrashProgram prog = BuildCrashProgram();
  pt::PtTraceBundle bundle = CaptureFailure(prog);
  pt::PtTraceBundle::PerThread empty;
  empty.thread = 77;
  bundle.threads.insert(bundle.threads.begin(), empty);
  std::reverse(bundle.threads.begin(), bundle.threads.end());
  const ProcessedTrace trace(prog.module.get(), bundle);
  EXPECT_TRUE(trace.ThreadEventsOf(77).empty());
  EXPECT_EQ(trace.LastSeqOf(77), 0u);
  EXPECT_EQ(std::count(trace.threads().begin(), trace.threads().end(), 77u), 0);
  ExpectBuildMatchesBruteForce(prog.module.get(), bundle);
  // The failing thread's buffer empty: its run is the failure point alone.
  pt::PtTraceBundle lost = CaptureFailure(prog);
  for (pt::PtTraceBundle::PerThread& per : lost.threads) {
    if (per.thread == lost.failure.thread) {
      per.bytes.clear();
      per.total_written = 0;
    }
  }
  const ProcessedTrace partial(prog.module.get(), lost);
  ASSERT_NE(partial.failing_instance(), ProcessedTrace::kNoInstance);
  EXPECT_EQ(partial.ThreadEventsOf(lost.failure.thread).size(), 1u);
  ExpectBuildMatchesBruteForce(prog.module.get(), lost);
}

TEST(ProcessedTraceBuild, ZeroInstanceBundle) {
  const CrashProgram prog = BuildCrashProgram();
  pt::PtTraceBundle bundle;
  bundle.threads.resize(2);
  bundle.threads[0].thread = 0;
  bundle.threads[1].thread = 1;
  const ProcessedTrace trace(prog.module.get(), bundle);
  EXPECT_FALSE(trace.HasEvidence());
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.executed().empty());
  EXPECT_TRUE(trace.threads().empty());
  EXPECT_EQ(trace.failing_instance(), ProcessedTrace::kNoInstance);
  ExpectBuildMatchesBruteForce(prog.module.get(), bundle);
}

TEST(InstSet, KeyDependsOnlyOnTheMembers) {
  InstSet a;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.Contains(0));
  const uint64_t empty = a.key();
  EXPECT_TRUE(a.Insert(7));
  EXPECT_TRUE(a.Insert(2));
  EXPECT_FALSE(a.Insert(7));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.Contains(2));
  EXPECT_FALSE(a.Contains(3));
  EXPECT_FALSE(a.Contains(1000));
  InstSet b;
  b.Insert(2);
  b.Insert(7);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_NE(a.key(), empty);
  b.Insert(3);
  EXPECT_NE(a.key(), b.key());
}

TEST(ProcessedTraceBuild, ContentKeyIsStableAcrossRebuilds) {
  const CrashProgram prog = BuildCrashProgram();
  const pt::PtTraceBundle bundle = CaptureFailure(prog);
  const ProcessedTrace a(prog.module.get(), bundle);
  const ProcessedTrace b(prog.module.get(), bundle);
  EXPECT_EQ(a.ContentKey(), b.ContentKey());
  EXPECT_EQ(a.ContentKey(), TraceKey(bundle, TraceOptions{}));
  // Every bundle field the build reads, and the options, change the key.
  const auto key_with = [&](auto&& edit) {
    pt::PtTraceBundle changed = bundle;
    TraceOptions options;
    edit(changed, options);
    return ProcessedTrace(prog.module.get(), changed, options).ContentKey();
  };
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.failure.time_ns += 1;
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.failure.operand.obj += 1;
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.failure.description += "!";
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.config.cyc_unit_ns = 0;
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.config.mtc_period_ns *= 2;
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.config.enable_timing = !x.config.enable_timing;
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              for (pt::PtTraceBundle::PerThread& per : x.threads) {
                if (!per.bytes.empty()) {
                  per.bytes.back() ^= 0x1;
                  break;
                }
              }
            }));
  EXPECT_NE(a.ContentKey(), key_with([](pt::PtTraceBundle&, TraceOptions& o) {
              o.order_granularity_ns += 1;
            }));
  // Fields the build never reads leave it alone.
  EXPECT_EQ(a.ContentKey(), key_with([](pt::PtTraceBundle& x, TraceOptions&) {
              x.stats.total_bytes += 1;
              x.config.buffer_bytes *= 2;
            }));
}

}  // namespace
}  // namespace snorlax::trace
