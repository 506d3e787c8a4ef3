// Direct unit tests for bug pattern computation (paper step 6), driving
// ComputePatterns with controlled traces and candidate lists.
#include <gtest/gtest.h>

#include "analysis/deref_chain.h"
#include "analysis/points_to.h"
#include "engine/pattern_compute.h"
#include "ir/builder.h"
#include "pt/driver.h"
#include "runtime/interpreter.h"

namespace snorlax::core {
namespace {

using ir::GlobalId;
using ir::IrBuilder;
using ir::Operand;
using ir::Reg;

// Deterministic ABBA deadlock (forced by fixed Work windows).
struct DeadlockCapture {
  std::unique_ptr<ir::Module> module;
  ir::InstId hold_a = 0, hold_b = 0;      // the first acquisitions
  ir::InstId attempt_b = 0, attempt_a = 0;  // the blocking acquisitions
  std::unique_ptr<trace::ProcessedTrace> trace;
  rt::FailureInfo failure;
};

DeadlockCapture CaptureDeadlock() {
  DeadlockCapture cap;
  cap.module = std::make_unique<ir::Module>();
  ir::Module& m = *cap.module;
  IrBuilder b(&m);
  const GlobalId la = b.CreateLockGlobal("A");
  const GlobalId lb = b.CreateLockGlobal("B");

  auto party = [&](const char* name, GlobalId first, GlobalId second, ir::InstId* held,
                   ir::InstId* attempt) {
    const ir::FuncId f = b.BeginFunction(name, m.types().VoidType(), {m.types().IntType(64)});
    b.SetInsertPoint(b.CreateBlock("entry"));
    const Reg l1 = b.AddrOfGlobal(first);
    b.LockAcquire(l1);
    *held = b.last_inst();
    b.Work(200'000);
    const Reg l2 = b.AddrOfGlobal(second);
    b.LockAcquire(l2);
    *attempt = b.last_inst();
    b.LockRelease(l2);
    b.LockRelease(l1);
    b.RetVoid();
    b.EndFunction();
    return f;
  };
  const ir::FuncId p1 = party("p1", la, lb, &cap.hold_a, &cap.attempt_b);
  const ir::FuncId p2 = party("p2", lb, la, &cap.hold_b, &cap.attempt_a);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg t1 = b.ThreadCreate(p1, Operand::MakeImm(0));
  const Reg t2 = b.ThreadCreate(p2, Operand::MakeImm(1));
  b.ThreadJoin(t1);
  b.ThreadJoin(t2);
  b.RetVoid();
  b.EndFunction();

  rt::InterpOptions opts;
  opts.work_jitter = 0.0;
  rt::Interpreter interp(cap.module.get(), opts);
  pt::PtDriver driver(cap.module.get());
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  EXPECT_EQ(r.failure.kind, rt::FailureKind::kDeadlock);
  cap.failure = r.failure;
  cap.trace = std::make_unique<trace::ProcessedTrace>(cap.module.get(), *driver.captured());
  return cap;
}

std::vector<analysis::RankedInstruction> RankAll(const ir::Module& m,
                                                 std::initializer_list<ir::InstId> ids) {
  std::vector<analysis::RankedInstruction> out;
  for (ir::InstId id : ids) {
    out.push_back(analysis::RankedInstruction{m.instruction(id), 1});
  }
  return out;
}

TEST(PatternCompute, DeadlockPatternsCarryHoldsAndFinalAttempts) {
  DeadlockCapture cap = CaptureDeadlock();
  const auto ranked =
      RankAll(*cap.module, {cap.hold_a, cap.hold_b, cap.attempt_a, cap.attempt_b});
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, {});
  ASSERT_FALSE(result.patterns.empty());
  EXPECT_FALSE(result.hypothesis_violated);

  // The richest pattern has four events: two holds, two (thread-final)
  // blocking attempts; attempts are flagged thread_final.
  const BugPattern* full = nullptr;
  for (const BugPattern& p : result.patterns) {
    EXPECT_EQ(p.kind, PatternKind::kDeadlock);
    if (p.events.size() == 4) {
      full = &p;
    }
  }
  ASSERT_NE(full, nullptr);
  int finals = 0, holds = 0;
  for (const PatternEvent& e : full->events) {
    if (e.thread_final) {
      ++finals;
      EXPECT_TRUE(e.inst == cap.attempt_a || e.inst == cap.attempt_b);
    } else {
      ++holds;
      EXPECT_TRUE(e.inst == cap.hold_a || e.inst == cap.hold_b);
    }
  }
  EXPECT_EQ(finals, 2);
  EXPECT_EQ(holds, 2);
  // Both patterns (full + attempts-only competitor) embed in the failing
  // trace itself.
  for (const BugPattern& p : result.patterns) {
    EXPECT_TRUE(TraceContainsPattern(*cap.trace, p)) << p.Key();
  }
}

TEST(PatternCompute, DeadlockWithoutCycleInfoYieldsNothing) {
  DeadlockCapture cap = CaptureDeadlock();
  rt::FailureInfo stripped = cap.failure;
  stripped.deadlock_cycle.clear();
  const auto ranked = RankAll(*cap.module, {cap.hold_a, cap.hold_b});
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, stripped, {});
  EXPECT_TRUE(result.patterns.empty());
}

TEST(PatternCompute, MaxPatternsCapIsHonored) {
  DeadlockCapture cap = CaptureDeadlock();
  PatternComputeOptions options;
  options.max_patterns = 1;
  const auto ranked =
      RankAll(*cap.module, {cap.hold_a, cap.hold_b, cap.attempt_a, cap.attempt_b});
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, {}, options);
  EXPECT_EQ(result.patterns.size(), 1u);
}

// Two-thread crash capture for the crash-pattern paths: worker loops over a
// shared slot main eventually nulls, plus an unrelated global only the
// worker touches (an alias-disjoint candidate for the prefilter test).
struct CrashCapture {
  std::unique_ptr<ir::Module> module;
  ir::InstId null_store = 0, racy_load = 0, deref = 0, unrelated_store = 0;
  std::unique_ptr<trace::ProcessedTrace> trace;
  rt::FailureInfo failure;
};

CrashCapture CaptureCrash() {
  CrashCapture cap;
  cap.module = std::make_unique<ir::Module>();
  ir::Module& m = *cap.module;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  const GlobalId slot_g = b.CreateGlobal("slot", ptr);
  const GlobalId other_g = b.CreateGlobal("other", i64);

  const ir::FuncId worker = b.BeginFunction("worker", m.types().VoidType(), {i64});
  const ir::BlockId entry = b.CreateBlock("entry");
  const ir::BlockId head = b.CreateBlock("head");
  const ir::BlockId exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  const Reg i = b.Alloca(i64);
  b.Store(Operand::MakeImm(0), i, i64);
  b.Br(head);
  b.SetInsertPoint(head);
  b.Work(40'000);
  const Reg other = b.AddrOfGlobal(other_g);
  b.Store(Operand::MakeImm(7), other, i64);
  cap.unrelated_store = b.last_inst();
  const Reg slot = b.AddrOfGlobal(slot_g);
  const Reg p = b.Load(slot, ptr);
  cap.racy_load = b.last_inst();
  b.Load(p, i64);
  cap.deref = b.last_inst();
  const Reg iv = b.Load(i, i64);
  const Reg iv2 = b.Add(iv, 1, i64);
  b.Store(iv2, i, i64);
  const Reg more = b.Cmp(ir::CmpKind::kLt, Operand::MakeReg(iv2), Operand::MakeImm(200));
  b.CondBr(more, head, exit);
  b.SetInsertPoint(exit);
  b.RetVoid();
  b.EndFunction();

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg mslot = b.AddrOfGlobal(slot_g);
  const Reg value = b.Alloca(i64);
  b.Store(Operand::MakeImm(5), value, i64);
  b.Store(value, mslot, ptr);
  const Reg t = b.ThreadCreate(worker, Operand::MakeImm(0));
  const ir::BlockId mhead = b.CreateBlock("mhead");
  const ir::BlockId mexit = b.CreateBlock("mexit");
  const Reg mi = b.Alloca(i64);
  b.Store(Operand::MakeImm(0), mi, i64);
  b.Br(mhead);
  b.SetInsertPoint(mhead);
  b.Work(40'000);
  const Reg miv = b.Load(mi, i64);
  const Reg miv2 = b.Add(miv, 1, i64);
  b.Store(miv2, mi, i64);
  const Reg mmore = b.Cmp(ir::CmpKind::kLt, Operand::MakeReg(miv2), Operand::MakeImm(50));
  b.CondBr(mmore, mhead, mexit);
  b.SetInsertPoint(mexit);
  b.Store(Operand::MakeImm(0), mslot, ptr);
  cap.null_store = b.last_inst();
  b.ThreadJoin(t);
  b.RetVoid();
  b.EndFunction();

  rt::InterpOptions opts;
  opts.work_jitter = 0.0;
  rt::Interpreter interp(cap.module.get(), opts);
  pt::PtDriver driver(cap.module.get());
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  EXPECT_EQ(r.failure.kind, rt::FailureKind::kCrash);
  cap.failure = r.failure;
  cap.trace = std::make_unique<trace::ProcessedTrace>(cap.module.get(), *driver.captured());
  return cap;
}

std::vector<std::string> Keys(const PatternComputeResult& result) {
  std::vector<std::string> keys;
  for (const BugPattern& p : result.patterns) {
    keys.push_back(p.Key());
  }
  return keys;
}

// The expected key lists were captured while the legacy nested-rescan engine
// still existed and produced the same lists.
TEST(PatternCompute, CrashPatternsMatchFrozenKeys) {
  CrashCapture cap = CaptureCrash();
  const auto ranked =
      RankAll(*cap.module, {cap.null_store, cap.racy_load, cap.deref, cap.unrelated_store});
  const std::vector<const ir::Instruction*> chain = {cap.module->instruction(cap.deref),
                                                     cap.module->instruction(cap.racy_load)};
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, chain);
  EXPECT_EQ(Keys(result), (std::vector<std::string>{
                              "order-violation(WR)|29@1|8@0",
                              "atomicity-violation(RWR)|7@0|29@1|8@0",
                              "atomicity-violation(RWR)|8@0|29@1|8@0",
                              "atomicity-violation(WWR)|5@0|29@1|8@0",
                          }));
  EXPECT_FALSE(result.hypothesis_violated);
}

TEST(PatternCompute, DeadlockPatternsMatchFrozenKeys) {
  DeadlockCapture cap = CaptureDeadlock();
  const auto ranked =
      RankAll(*cap.module, {cap.hold_a, cap.hold_b, cap.attempt_a, cap.attempt_b});
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, {});
  EXPECT_EQ(Keys(result), (std::vector<std::string>{
                              "deadlock|9@0|1@1|4@1!|12@0!",
                              "deadlock|12@0!|4@1!",
                          }));
}

TEST(PatternCompute, VerdictCacheServesRepeatQueries) {
  CrashCapture cap = CaptureCrash();
  const auto ranked = RankAll(*cap.module, {cap.null_store, cap.racy_load, cap.deref});
  const std::vector<const ir::Instruction*> chain = {cap.module->instruction(cap.deref)};
  PatternVerdictCache cache;
  PatternComputeContext context;
  context.verdicts = &cache;
  const PatternComputeResult first =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, chain, {}, context);
  EXPECT_EQ(first.verdict_hits, 0u);
  EXPECT_GT(cache.size(), 0u);
  const PatternComputeResult second =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, chain, {}, context);
  EXPECT_GT(second.verdict_hits, 0u);
  EXPECT_EQ(Keys(first), Keys(second));
}

TEST(PatternCompute, AliasPrefilterMasksDisjointCandidates) {
  CrashCapture cap = CaptureCrash();
  const analysis::PointsToResult points_to =
      analysis::RunPointsTo(*cap.module, analysis::PointsToOptions{});
  // An arbitrary (non-pipeline) candidate list including a store whose
  // points-to set is disjoint from everything the failure chain touches.
  const auto ranked =
      RankAll(*cap.module, {cap.null_store, cap.racy_load, cap.deref, cap.unrelated_store});
  const std::vector<const ir::Instruction*> chain = {cap.module->instruction(cap.deref),
                                                     cap.module->instruction(cap.racy_load)};
  PatternComputeContext context;
  context.points_to = &points_to;

  // The prefilter is on by default.
  const PatternComputeResult filtered =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, chain, {}, context);
  EXPECT_GT(filtered.alias_skips, 0u) << "disjoint candidate should be masked";
  // The masked candidate never appears in any pattern.
  for (const BugPattern& p : filtered.patterns) {
    for (const PatternEvent& e : p.events) {
      EXPECT_NE(e.inst, cap.unrelated_store);
    }
  }
  // With the filter off, the unrelated store forms order patterns with the
  // anchor (it races by timing even though it cannot alias) -- the filter is
  // doing real pruning here, not vacuously passing.
  PatternComputeOptions off;
  off.pair_alias_filter = false;
  const PatternComputeResult unfiltered =
      ComputePatterns(*cap.module, *cap.trace, ranked, cap.failure, chain, off, context);
  EXPECT_EQ(unfiltered.alias_skips, 0u);
  EXPECT_GE(unfiltered.patterns.size(), filtered.patterns.size());
}

TEST(PatternCompute, TimeoutFailuresProduceNoPatterns) {
  DeadlockCapture cap = CaptureDeadlock();
  rt::FailureInfo timeout = cap.failure;
  timeout.kind = rt::FailureKind::kTimeout;
  const auto ranked = RankAll(*cap.module, {cap.hold_a});
  const PatternComputeResult result =
      ComputePatterns(*cap.module, *cap.trace, ranked, timeout, {});
  EXPECT_TRUE(result.patterns.empty());
}

}  // namespace
}  // namespace snorlax::core
