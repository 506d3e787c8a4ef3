// Unit tests for bug patterns: kinds, keys, and the containment semantics
// (thread slots, partial-order embedding, atomicity adjacency, thread-final
// events, unordered fallback).
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/pattern.h"
#include "engine/statistical.h"
#include "ir/builder.h"
#include "pt/driver.h"
#include "runtime/interpreter.h"

namespace snorlax::core {
namespace {

using ir::BlockId;
using ir::CmpKind;
using ir::FuncId;
using ir::GlobalId;
using ir::IrBuilder;
using ir::Operand;
using ir::Reg;

TEST(PatternKinds, Helpers) {
  EXPECT_TRUE(IsAtomicityViolation(PatternKind::kAtomicityRWR));
  EXPECT_TRUE(IsAtomicityViolation(PatternKind::kAtomicityWRW));
  EXPECT_FALSE(IsAtomicityViolation(PatternKind::kDeadlock));
  EXPECT_TRUE(IsOrderViolation(PatternKind::kOrderViolationWW));
  EXPECT_FALSE(IsOrderViolation(PatternKind::kAtomicityRWW));
  EXPECT_STREQ(PatternKindName(PatternKind::kDeadlock), "deadlock");
}

TEST(PatternKey, DistinguishesStructure) {
  BugPattern a;
  a.kind = PatternKind::kOrderViolationWR;
  a.events = {PatternEvent{1, 1}, PatternEvent{2, 0}};
  BugPattern b = a;
  EXPECT_EQ(a.Key(), b.Key());
  b.events[0].thread_slot = 0;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.ordered = false;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.events[1].thread_final = true;
  EXPECT_NE(a.Key(), b.Key());
  b = a;
  b.kind = PatternKind::kOrderViolationRW;
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_EQ(a.InstIdsInOrder(), (std::vector<uint64_t>{1, 2}));
}

// Fixture program: thread A writes then reads a shared cell with a branchy
// 100us gap; thread B writes the cell in the middle of A's gap. Every work
// region is branchy, so decoded windows are tight and the cross-thread order
// is recoverable. No failure: containment runs on a success snapshot.
struct Fixture {
  std::unique_ptr<ir::Module> module;
  ir::InstId w_a = 0;  // A's store   (~t=100us; executes twice in variant 2)
  ir::InstId w_b = 0;  // B's store   (~t=160us)
  ir::InstId r_a = 0;  // A's load    (~t=220us+)
  std::unique_ptr<trace::ProcessedTrace> trace;
  pt::PtTraceBundle bundle;
};

void EmitSpin(IrBuilder& b, const ir::Type* i64, int iters, int64_t per_ns,
              const char* tag) {
  const Reg cnt = b.Alloca(i64);
  b.Store(Operand::MakeImm(0), cnt, i64);
  const BlockId head = b.CreateBlock(std::string(tag) + "_head");
  const BlockId exit = b.CreateBlock(std::string(tag) + "_exit");
  b.Br(head);
  b.SetInsertPoint(head);
  b.Work(per_ns);
  const Reg v = b.Load(cnt, i64);
  const Reg v2 = b.Add(v, 1, i64);
  b.Store(v2, cnt, i64);
  const Reg more = b.Cmp(CmpKind::kLt, Operand::MakeReg(v2), Operand::MakeImm(iters));
  b.CondBr(more, head, exit);
  b.SetInsertPoint(exit);
}

// With `store_twice`, A's store instruction executes at ~100us and ~190us,
// bracketing B's write -- which makes every (w_a, w_b, r_a) embedding
// non-adjacent (another w_a instance always sits inside the bracket).
Fixture BuildFixture(bool store_twice) {
  Fixture fx;
  fx.module = std::make_unique<ir::Module>();
  ir::Module& m = *fx.module;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const GlobalId g = b.CreateGlobal("cell", i64);

  const FuncId thread_a = b.BeginFunction("thread_a", m.types().VoidType(), {i64});
  {
    b.SetInsertPoint(b.CreateBlock("entry"));
    const Reg p = b.AddrOfGlobal(g);
    EmitSpin(b, i64, 50, 2'000, "a_pre");  // ~100us
    const Reg cnt = b.Alloca(i64);
    b.Store(Operand::MakeImm(0), cnt, i64);
    const BlockId store_head = b.CreateBlock("a_store");
    const BlockId store_exit = b.CreateBlock("a_store_done");
    b.Br(store_head);
    b.SetInsertPoint(store_head);
    b.Store(Operand::MakeImm(1), p, i64);
    fx.w_a = b.last_inst();
    EmitSpin(b, i64, 45, 2'000, "a_gap1");  // ~90us per round
    const Reg n = b.Load(cnt, i64);
    const Reg n2 = b.Add(n, 1, i64);
    b.Store(n2, cnt, i64);
    const Reg again =
        b.Cmp(CmpKind::kLt, Operand::MakeReg(n2), Operand::MakeImm(store_twice ? 2 : 1));
    b.CondBr(again, store_head, store_exit);
    b.SetInsertPoint(store_exit);
    EmitSpin(b, i64, 15, 2'000, "a_gap2");  // ~30us
    const Reg v = b.Load(p, i64);
    fx.r_a = b.last_inst();
    (void)v;
    EmitSpin(b, i64, 20, 2'000, "a_post");
    b.RetVoid();
    b.EndFunction();
  }

  const FuncId thread_b = b.BeginFunction("thread_b", m.types().VoidType(), {i64});
  {
    b.SetInsertPoint(b.CreateBlock("entry"));
    const Reg p = b.AddrOfGlobal(g);
    EmitSpin(b, i64, 80, 2'000, "b_pre");  // ~160us
    b.Store(Operand::MakeImm(2), p, i64);
    fx.w_b = b.last_inst();
    EmitSpin(b, i64, 60, 2'000, "b_post");
    b.RetVoid();
    b.EndFunction();
  }

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg t1 = b.ThreadCreate(thread_a, Operand::MakeImm(0));
  const Reg t2 = b.ThreadCreate(thread_b, Operand::MakeImm(1));
  b.ThreadJoin(t1);
  b.ThreadJoin(t2);
  b.RetVoid();
  b.EndFunction();

  rt::InterpOptions opts;
  opts.work_jitter = 0.0;
  rt::Interpreter interp(fx.module.get(), opts);
  pt::PtEncoder encoder(fx.module.get());
  interp.AddObserver(&encoder);
  const rt::RunResult r = interp.Run("main");
  EXPECT_TRUE(r.Succeeded());
  fx.bundle = encoder.Snapshot(r.virtual_ns);
  fx.trace = std::make_unique<trace::ProcessedTrace>(fx.module.get(), fx.bundle);
  return fx;
}

BugPattern MakePattern(PatternKind kind, std::vector<PatternEvent> events,
                       bool ordered = true) {
  BugPattern p;
  p.kind = kind;
  p.events = std::move(events);
  p.ordered = ordered;
  return p;
}

TEST(Containment, OrderedPairRespectsTimestamps) {
  const Fixture fx = BuildFixture(false);
  // W_A -> W_B holds (100us < 160us); the reverse does not.
  EXPECT_TRUE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWW,
                             {PatternEvent{fx.w_a, 0}, PatternEvent{fx.w_b, 1}})));
  EXPECT_FALSE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWW,
                             {PatternEvent{fx.w_b, 1}, PatternEvent{fx.w_a, 0}})));
}

TEST(Containment, MissingEventMeansAbsent) {
  const Fixture fx = BuildFixture(false);
  EXPECT_FALSE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWW,
                             {PatternEvent{fx.w_a, 0}, PatternEvent{99999, 1}})));
}

TEST(Containment, ThreadSlotsRequireDistinctThreads) {
  const Fixture fx = BuildFixture(false);
  // W_A and R_A belong to the same thread; demanding distinct slots fails.
  EXPECT_FALSE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWR,
                             {PatternEvent{fx.w_a, 1}, PatternEvent{fx.r_a, 0}})));
  // Same slot for both works (same thread, program order).
  EXPECT_TRUE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWR,
                             {PatternEvent{fx.w_a, 0}, PatternEvent{fx.r_a, 0}})));
}

TEST(Containment, AtomicityTripleEmbedsWhenAdjacent) {
  const Fixture fx = BuildFixture(false);
  EXPECT_TRUE(TraceContainsPattern(
      *fx.trace,
      MakePattern(PatternKind::kAtomicityWWR,
                  {PatternEvent{fx.w_a, 0}, PatternEvent{fx.w_b, 1}, PatternEvent{fx.r_a, 0}})));
}

TEST(Containment, AtomicityAdjacencyRejectsInterveningAccess) {
  // A stores twice (~100us, ~190us) around B's write (~160us) before reading
  // at ~310us. The only bracket ordered around w_b is (w_a#1 .. r_a), but
  // w_a#2 sits inside it: no adjacent embedding exists.
  const Fixture fx = BuildFixture(true);
  EXPECT_FALSE(TraceContainsPattern(
      *fx.trace,
      MakePattern(PatternKind::kAtomicityWWR,
                  {PatternEvent{fx.w_a, 0}, PatternEvent{fx.w_b, 1}, PatternEvent{fx.r_a, 0}})));
  // The single-store variant embeds fine (covered separately below), and the
  // same pattern stays embeddable as a plain ordered pair even here.
  EXPECT_TRUE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWR,
                             {PatternEvent{fx.w_b, 1}, PatternEvent{fx.r_a, 0}})));
}

TEST(Containment, UnorderedPatternIgnoresOrder) {
  const Fixture fx = BuildFixture(false);
  // Reversed pair embeds when the pattern is explicitly unordered.
  EXPECT_TRUE(TraceContainsPattern(
      *fx.trace, MakePattern(PatternKind::kOrderViolationWW,
                             {PatternEvent{fx.w_b, 1}, PatternEvent{fx.w_a, 0}},
                             /*ordered=*/false)));
}

TEST(Containment, ThreadFinalOnlyMatchesLastEvent) {
  const Fixture fx = BuildFixture(false);
  // W_A is not thread A's final event (the loop and R_A follow).
  BugPattern p = MakePattern(PatternKind::kDeadlock, {PatternEvent{fx.w_a, 0}});
  p.events[0].thread_final = true;
  EXPECT_FALSE(TraceContainsPattern(*fx.trace, p));
}

TEST(Containment, ThreadFinalOnAProjectionSeesTheThreadsTrueLastEvent) {
  const Fixture fx = BuildFixture(false);
  // R_A is thread A's last pattern instruction, but A goes on to run a_post
  // and return: a projection onto {W_A, W_B, R_A} keeps no later event of A,
  // yet R_A must still not count as A's final event.
  trace::InstSet keep;
  keep.Insert(fx.w_a);
  keep.Insert(fx.w_b);
  keep.Insert(fx.r_a);
  const trace::ProcessedTrace projection(fx.module.get(), fx.bundle, {}, &keep);
  ASSERT_TRUE(projection.projected());
  const auto r_a = projection.InstancesOf(fx.r_a);
  ASSERT_EQ(r_a.size(), 1u);
  const rt::ThreadId thread_a = projection.thread(r_a[0]);
  EXPECT_EQ(projection.ThreadEventsOf(thread_a).back(), r_a[0])
      << "the projection's last kept event of A is R_A";
  EXPECT_EQ(projection.LastSeqOf(thread_a), fx.trace->LastSeqOf(thread_a));
  EXPECT_GT(projection.LastSeqOf(thread_a), projection.seq(r_a[0]));

  BugPattern final_read = MakePattern(PatternKind::kDeadlock, {PatternEvent{fx.r_a, 0}});
  final_read.events[0].thread_final = true;
  EXPECT_FALSE(TraceContainsPattern(*fx.trace, final_read));
  EXPECT_FALSE(TraceContainsPattern(projection, final_read));
  // Without the thread_final constraint both embed it.
  final_read.events[0].thread_final = false;
  EXPECT_TRUE(TraceContainsPattern(*fx.trace, final_read));
  EXPECT_TRUE(TraceContainsPattern(projection, final_read));
}

TEST(Statistical, ScoresAndSortsByF1) {
  // Failing traces contain the WWR triple; success traces do not (W_B absent
  // is impossible here, so instead use the reversed pair which embeds nowhere
  // as the "bad" pattern and the real triple as the good one).
  const Fixture f1 = BuildFixture(false);
  const Fixture f2 = BuildFixture(false);

  const BugPattern good = MakePattern(
      PatternKind::kAtomicityWWR,
      {PatternEvent{f1.w_a, 0}, PatternEvent{f1.w_b, 1}, PatternEvent{f1.r_a, 0}});
  const BugPattern bad = MakePattern(
      PatternKind::kOrderViolationWW, {PatternEvent{f1.w_b, 1}, PatternEvent{f1.w_a, 0}});
  const BugPattern ubiquitous = MakePattern(
      PatternKind::kOrderViolationWW, {PatternEvent{f1.w_a, 0}, PatternEvent{f1.w_b, 1}});

  // Treat f1's trace as failing and f2's as successful: both contain the
  // triple and the ubiquitous pair; neither contains the bad pair. The same
  // fold and order SiteEngine::Score() uses.
  std::vector<DiagnosedPattern> scored;
  for (const BugPattern& pattern : {good, bad, ubiquitous}) {
    DiagnosedPattern d;
    d.pattern = pattern;
    engine::AccumulatePatternCounts(pattern, *f1.trace, /*trace_failed=*/true, &d.counts);
    engine::AccumulatePatternCounts(pattern, *f2.trace, /*trace_failed=*/false, &d.counts);
    d.precision = d.counts.Precision();
    d.recall = d.counts.Recall();
    d.f1 = d.counts.F1();
    scored.push_back(d);
  }
  std::sort(scored.begin(), scored.end(), engine::DiagnosedPatternBetter);
  ASSERT_EQ(scored.size(), 3u);
  // good and ubiquitous: TP=1 FP=1 -> F1 = 2/3; bad: TP=0 -> F1 = 0.
  EXPECT_NEAR(scored[0].f1, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(scored[1].f1, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(scored[2].f1, 0.0);
  // Tie-break: larger pattern first.
  EXPECT_EQ(scored[0].pattern.events.size(), 3u);
  EXPECT_EQ(scored[2].pattern.Key(), bad.Key());
  EXPECT_EQ(scored[2].counts.false_negative, 1u);
}

TEST(Statistical, EmptyPatternNeverContained) {
  const Fixture fx = BuildFixture(false);
  EXPECT_FALSE(TraceContainsPattern(*fx.trace, BugPattern{}));
}

}  // namespace
}  // namespace snorlax::core
