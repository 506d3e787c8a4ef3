// Unit tests for the analysis library: Andersen points-to (each constraint
// rule, scope restriction, indirect calls), type-based ranking, and the
// RETracer-style failure access chain. Includes a soundness property test:
// every dynamically observed points-to fact must be in the static solution.
#include <gtest/gtest.h>

#include "analysis/deref_chain.h"
#include "analysis/points_to.h"
#include "analysis/type_rank.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "workloads/workload.h"

namespace snorlax::analysis {
namespace {

using ir::BlockId;
using ir::CmpKind;
using ir::FuncId;
using ir::GlobalId;
using ir::IrBuilder;
using ir::Operand;
using ir::Reg;

PointsToResult WholeProgram(const ir::Module& m) {
  PointsToOptions opts;
  opts.scope = PointsToOptions::Scope::kWholeProgram;
  return RunPointsTo(m, opts);
}

bool PointsToObject(const PointsToResult& r, const ObjectSet& set, AbstractObject::Kind kind,
                    uint32_t id) {
  for (uint32_t idx : set.Elements()) {
    const AbstractObject& obj = r.object(idx);
    if (obj.kind == kind && obj.id == id) {
      return true;
    }
  }
  return false;
}

TEST(ObjectSet, BasicOperations) {
  ObjectSet a;
  EXPECT_TRUE(a.Empty());
  EXPECT_TRUE(a.Set(3));
  EXPECT_FALSE(a.Set(3));  // already present
  EXPECT_TRUE(a.Set(77));
  EXPECT_TRUE(a.Test(3));
  EXPECT_FALSE(a.Test(4));
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Elements(), (std::vector<uint32_t>{3, 77}));

  ObjectSet b;
  b.Set(4);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(77);
  EXPECT_TRUE(a.Intersects(b));

  ObjectSet c;
  EXPECT_TRUE(c.UnionWith(a));
  EXPECT_FALSE(c.UnionWith(a));  // no change the second time
  EXPECT_EQ(c.Count(), 2u);
}

TEST(ObjectSet, ForEachMatchesElements) {
  ObjectSet a;
  ObjectSet empty;
  for (uint32_t bit : {0u, 1u, 63u, 64u, 65u, 200u, 4095u}) {
    a.Set(bit);
  }
  std::vector<uint32_t> seen;
  a.ForEach([&](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, a.Elements());
  empty.ForEach([&](uint32_t) { ADD_FAILURE() << "callback on empty set"; });
}

TEST(ObjectSet, UnionWithDeltaRecordsOnlyNewBits) {
  ObjectSet dst;
  dst.Set(3);
  dst.Set(100);
  ObjectSet src;
  src.Set(3);    // already present: must not land in delta
  src.Set(64);   // new
  src.Set(200);  // new (grows dst's word array)
  ObjectSet delta;
  delta.Set(7);  // pre-existing delta content must survive
  EXPECT_TRUE(dst.UnionWithDelta(src, &delta));
  EXPECT_EQ(dst.Elements(), (std::vector<uint32_t>{3, 64, 100, 200}));
  EXPECT_EQ(delta.Elements(), (std::vector<uint32_t>{7, 64, 200}));
  // No change the second time, and the delta stays untouched.
  EXPECT_FALSE(dst.UnionWithDelta(src, &delta));
  EXPECT_EQ(delta.Elements(), (std::vector<uint32_t>{7, 64, 200}));
}

TEST(ObjectSetGrowth, SparseAscendingInsertsStayCorrect) {
  // Set() grows capacity geometrically; a sparse ascending insert sequence
  // must stay correct across every internal reallocation.
  ObjectSet s;
  std::vector<uint32_t> expect;
  for (uint32_t i = 0; i < 40; ++i) {
    const uint32_t bit = i * 131 + (i % 7);
    EXPECT_TRUE(s.Set(bit));
    EXPECT_FALSE(s.Set(bit));
    expect.push_back(bit);
  }
  EXPECT_EQ(s.Count(), expect.size());
  EXPECT_EQ(s.Elements(), expect);
  for (const uint32_t bit : expect) {
    EXPECT_TRUE(s.Test(bit));
  }
  EXPECT_FALSE(s.Test(39 * 131 + 4 + 1));
}

// Mutually-recursive parameter binding makes a static copy cycle
// (f.p -> g.q -> f.p); the collapse must fold it, and difference
// propagation with and without SCC collapsing must compute the same sets.
TEST(PointsTo, CopyCycleCollapsesAndVariantsAgree) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);

  const FuncId g = b.BeginFunction("g", ptr, {ptr});
  b.EndFunctionForParser();
  const FuncId f = b.BeginFunction("f", ptr, {ptr});
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret(b.Call(g, std::vector<Reg>{b.Param(0)}, ptr));
  b.EndFunction();
  b.ReopenFunctionForParser(g);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret(b.Call(f, std::vector<Reg>{b.Param(0)}, ptr));
  b.EndFunction();
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg a = b.Alloca(i64);
  const ir::InstId site = b.last_inst();
  b.Call(f, std::vector<Reg>{a}, ptr);
  b.RetVoid();
  b.EndFunction();

  PointsToOptions collapse;
  collapse.scope = PointsToOptions::Scope::kWholeProgram;
  const PointsToResult with_scc = RunPointsTo(m, collapse);
  EXPECT_GE(with_scc.stats().scc_vars_collapsed, 1u);

  PointsToOptions no_collapse = collapse;
  no_collapse.collapse_sccs = false;
  const PointsToResult without_scc = RunPointsTo(m, no_collapse);
  EXPECT_EQ(without_scc.stats().scc_vars_collapsed, 0u);

  for (const PointsToResult* r : {&with_scc, &without_scc}) {
    // Parameters occupy registers [0, num_params).
    const ObjectSet& fp = r->PointsTo(f, static_cast<Reg>(0));
    const ObjectSet& gq = r->PointsTo(g, static_cast<Reg>(0));
    EXPECT_TRUE(PointsToObject(*r, fp, AbstractObject::Kind::kAllocaSite, site));
    EXPECT_EQ(fp.Elements(), gq.Elements());
  }
}

// SCC collapse on and off must agree on the full result surface the pipeline
// consumes, on a real workload module (loads, stores, locks, indirect calls).
TEST(PointsTo, SolverVariantsAgreeOnWorkload) {
  const auto w = workloads::Build("mysql_169");
  PointsToOptions base;
  base.scope = PointsToOptions::Scope::kWholeProgram;
  PointsToOptions no_scc = base;
  no_scc.collapse_sccs = false;
  const PointsToResult a = RunPointsTo(*w.module, base);
  const PointsToResult b = RunPointsTo(*w.module, no_scc);
  ASSERT_EQ(a.num_objects(), b.num_objects());
  for (const ir::Instruction* inst : w.module->AllInstructions()) {
    EXPECT_EQ(a.PointerOperandPointsTo(*inst).Elements(),
              b.PointerOperandPointsTo(*inst).Elements());
  }
}

TEST(PointsTo, AddressOfRule) {
  // p = &l  =>  l in pts(p)   (rule 1 of Figure 3)
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg p = b.Alloca(i64);
  const ir::InstId site = b.last_inst();
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const ObjectSet& pts = r.PointsTo(m.FindFunction("main")->id(), p);
  EXPECT_EQ(pts.Count(), 1u);
  EXPECT_TRUE(PointsToObject(r, pts, AbstractObject::Kind::kAllocaSite, site));
}

TEST(PointsTo, CopyRule) {
  // p = q  =>  pts(p) includes pts(q)   (rule 2)
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg q = b.Alloca(i64);
  const Reg p = b.Copy(q, ptr);
  const Reg casted = b.Cast(p, m.types().PointerTo(m.types().IntType(8)));
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  EXPECT_TRUE(r.PointsTo(f, p).Intersects(r.PointsTo(f, q)));
  EXPECT_TRUE(r.PointsTo(f, casted).Intersects(r.PointsTo(f, q)));
}

TEST(PointsTo, StoreLoadRules) {
  // *p = q; r = *p  =>  pts(r) includes pts(q)   (rules 3 and 4)
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  const ir::Type* pptr = m.types().PointerTo(ptr);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg target = b.Alloca(i64);
  const ir::InstId target_site = b.last_inst();
  const Reg holder = b.Alloca(ptr);
  b.Store(target, holder, ptr);       // *holder = target
  const Reg loaded = b.Load(holder, ptr);  // loaded = *holder
  b.Load(loaded, i64);
  b.RetVoid();
  b.EndFunction();
  (void)pptr;
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  EXPECT_TRUE(
      PointsToObject(r, r.PointsTo(f, loaded), AbstractObject::Kind::kAllocaSite, target_site));
}

TEST(PointsTo, InterproceduralParamAndReturnBinding) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  // id(p) { return p; }
  const FuncId id_func = b.BeginFunction("id", ptr, {ptr});
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret(b.Param(0));
  b.EndFunction();
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg obj = b.Alloca(i64);
  const ir::InstId site = b.last_inst();
  const Reg out = b.Call(id_func, std::vector<Reg>{obj}, ptr);
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  EXPECT_TRUE(PointsToObject(r, r.PointsTo(f, out), AbstractObject::Kind::kAllocaSite, site));
  // The callee's parameter sees the argument too.
  EXPECT_TRUE(PointsToObject(r, r.PointsTo(id_func, 0), AbstractObject::Kind::kAllocaSite, site));
}

TEST(PointsTo, IndirectCallsResolveThroughFunctionObjects) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  const FuncId callee = b.BeginFunction("callee", ptr, {ptr});
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Ret(b.Param(0));
  b.EndFunction();
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg fp = b.FuncAddr(callee);
  const Reg obj = b.Alloca(i64);
  const ir::InstId site = b.last_inst();
  const Reg out = b.CallIndirect(fp, {obj}, ptr);
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  // fp points to the function object; the result flows back through it.
  EXPECT_TRUE(PointsToObject(r, r.PointsTo(f, fp), AbstractObject::Kind::kFunction, callee));
  EXPECT_TRUE(PointsToObject(r, r.PointsTo(f, out), AbstractObject::Kind::kAllocaSite, site));
}

TEST(PointsTo, GepIsFieldInsensitive) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* pair = m.types().StructType("Pair", {i64, i64});
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg p = b.Alloca(pair);
  const Reg f0 = b.Gep(p, pair, 0);
  const Reg f1 = b.Gep(p, pair, 1);
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  // Both field pointers alias the base object.
  EXPECT_TRUE(r.PointsTo(f, f0).Intersects(r.PointsTo(f, p)));
  EXPECT_TRUE(r.PointsTo(f, f1).Intersects(r.PointsTo(f, f0)));
}

// Two-function module where only one path executes; scope restriction must
// exclude the dead path's alloca from the object universe.
TEST(PointsTo, ScopeRestrictionShrinksAnalysis) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const FuncId cold = b.BeginFunction("cold", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.Alloca(i64);
  b.RetVoid();
  b.EndFunction();
  (void)cold;
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg hot = b.Alloca(i64);
  const ir::InstId hot_site = b.last_inst();
  b.Store(Operand::MakeImm(1), hot, i64);
  const ir::InstId hot_store = b.last_inst();
  b.RetVoid();
  b.EndFunction();

  // Pretend the trace only saw main's instructions.
  trace::InstSet executed;
  for (const auto& bb : m.FindFunction("main")->blocks()) {
    for (const auto& inst : bb->instructions()) {
      executed.Insert(inst->id());
    }
  }
  PointsToOptions scoped;
  scoped.scope = PointsToOptions::Scope::kExecutedOnly;
  scoped.executed = &executed;
  const PointsToResult restricted = RunPointsTo(m, scoped);
  const PointsToResult whole = WholeProgram(m);
  EXPECT_LT(restricted.stats().instructions_analyzed, whole.stats().instructions_analyzed);
  EXPECT_LT(restricted.stats().objects, whole.stats().objects);
  // The hot object is still tracked and queried through accessors.
  ObjectSet hot_set;
  const FuncId f = m.FindFunction("main")->id();
  hot_set.UnionWith(restricted.PointsTo(f, hot));
  const auto accessors = restricted.AccessorsOf(hot_set);
  ASSERT_EQ(accessors.size(), 1u);
  EXPECT_EQ(accessors[0]->id(), hot_store);
  (void)hot_site;
}

TEST(PointsTo, AccessorsOfFindsAliasedInstructions) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const GlobalId g = b.CreateGlobal("shared", i64);
  const GlobalId other = b.CreateGlobal("other", i64);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg p = b.AddrOfGlobal(g);
  b.Store(Operand::MakeImm(1), p, i64);
  const ir::InstId shared_store = b.last_inst();
  b.Load(p, i64);
  const ir::InstId shared_load = b.last_inst();
  const Reg q = b.AddrOfGlobal(other);
  b.Store(Operand::MakeImm(2), q, i64);
  const ir::InstId other_store = b.last_inst();
  b.RetVoid();
  b.EndFunction();
  const PointsToResult r = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();
  const auto accessors = r.AccessorsOf(r.PointsTo(f, p));
  std::vector<ir::InstId> ids;
  for (const ir::Instruction* inst : accessors) {
    ids.push_back(inst->id());
  }
  EXPECT_NE(std::find(ids.begin(), ids.end(), shared_store), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), shared_load), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), other_store), ids.end());
}

TEST(TypeRank, ExactMatchOutranksCompatible) {
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* queue = m.types().StructType("Queue", {i64});
  const ir::Type* queue_ptr = m.types().PointerTo(queue);
  const ir::Type* i64_ptr = m.types().PointerTo(i64);
  const ir::Type* box = m.types().StructType("Box", {queue_ptr, i64_ptr, i64});
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg bx = b.Alloca(box);
  const Reg s0 = b.Gep(bx, box, 0);
  const Reg q = b.Alloca(queue);
  b.Store(q, s0, queue_ptr);  // store Queue*  (exact match -> rank 1)
  const ir::InstId store_queue = b.last_inst();
  const Reg s1 = b.Gep(bx, box, 1);
  const Reg ip = b.Alloca(i64);
  b.Store(ip, s1, i64_ptr);  // store i64*   (pointer-compatible -> rank 2)
  const ir::InstId store_iptr = b.last_inst();
  const Reg s2 = b.Gep(bx, box, 2);
  b.Store(Operand::MakeImm(7), s2, i64);  // store i64  (unrelated -> rank 3)
  const ir::InstId store_int = b.last_inst();
  b.RetVoid();
  b.EndFunction();

  std::vector<const ir::Instruction*> candidates = {
      m.instruction(store_int), m.instruction(store_iptr), m.instruction(store_queue)};
  TypeRankStats stats;
  const auto ranked = RankByType(queue_ptr, candidates, &stats);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].inst->id(), store_queue);
  EXPECT_EQ(ranked[0].rank, 1);
  EXPECT_EQ(ranked[1].inst->id(), store_iptr);
  EXPECT_EQ(ranked[1].rank, 2);
  EXPECT_EQ(ranked[2].inst->id(), store_int);
  EXPECT_EQ(ranked[2].rank, 3);
  EXPECT_EQ(stats.candidates, 3u);
  EXPECT_EQ(stats.rank1, 1u);
  EXPECT_DOUBLE_EQ(stats.ReductionFactor(), 3.0);
}

TEST(TypeRank, NothingIsDiscarded) {
  // Even complete mismatches are kept (casts can hide the root cause).
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg p = b.Alloca(i64);
  b.Store(Operand::MakeImm(1), p, i64);
  const ir::InstId st = b.last_inst();
  b.RetVoid();
  b.EndFunction();
  const auto ranked =
      RankByType(m.types().PointerTo(m.types().StructType("X", {i64})), {m.instruction(st)});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].rank, 3);
}

TEST(DerefChain, WalksThroughGepAndLoad) {
  // deref(load(gep(load box)))  -> chain = [failing load, pointer load]
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* item = m.types().StructType("Item", {i64, i64});
  const ir::Type* item_ptr = m.types().PointerTo(item);
  const GlobalId g = b.CreateGlobal("box", item_ptr);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg box = b.AddrOfGlobal(g);
  const Reg it = b.Load(box, item_ptr);
  const ir::InstId ptr_load = b.last_inst();
  const Reg field = b.Gep(it, item, 1);
  b.Load(field, i64);
  const ir::InstId deref = b.last_inst();
  b.RetVoid();
  b.EndFunction();

  const auto chain = FailureAccessChain(m, deref);
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain[0]->id(), deref);
  EXPECT_EQ(chain[1]->id(), ptr_load);
}

TEST(DerefChain, AssertWalksItsCondition) {
  // assert(cmp(load x, 7)) -> chain starts at the load of x.
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const GlobalId g = b.CreateGlobal("x", i64);
  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg p = b.AddrOfGlobal(g);
  const Reg v = b.Load(p, i64);
  const ir::InstId load_x = b.last_inst();
  const Reg ok = b.Cmp(CmpKind::kEq, Operand::MakeReg(v), Operand::MakeImm(7));
  b.Assert(ok);
  const ir::InstId assertion = b.last_inst();
  b.RetVoid();
  b.EndFunction();

  const auto chain = FailureAccessChain(m, assertion);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain[0]->id(), load_x);
}

TEST(DerefChain, WalksInterprocedurally) {
  // The corrupt pointer came out of a helper: deref(load_field(helper(box)))
  // where helper returns load(box slot). The chain must cross the call into
  // the helper's racy load, and through the helper's parameter back to the
  // caller's slot computation.
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* item = m.types().StructType("ChainItem", {i64});
  const ir::Type* item_ptr = m.types().PointerTo(item);
  const ir::Type* box = m.types().StructType("ChainBox", {item_ptr});
  const ir::Type* box_ptr = m.types().PointerTo(box);
  const GlobalId g = b.CreateGlobal("chain_box", box);

  const FuncId helper = b.BeginFunction("helper", item_ptr, {box_ptr});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg slot = b.Gep(b.Param(0), box, 0);
  const Reg loaded = b.Load(slot, item_ptr);
  const ir::InstId racy_load = b.last_inst();
  b.Ret(loaded);
  b.EndFunction();

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const Reg bx = b.AddrOfGlobal(g);
  const Reg p = b.Call(helper, std::vector<Reg>{bx}, item_ptr);
  const Reg field = b.Gep(p, item, 0);
  b.Load(field, i64);
  const ir::InstId deref = b.last_inst();
  b.RetVoid();
  b.EndFunction();

  const auto chain = FailureAccessChain(m, deref);
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain[0]->id(), deref);
  bool found_racy = false;
  for (const ir::Instruction* inst : chain) {
    found_racy |= inst->id() == racy_load;
  }
  EXPECT_TRUE(found_racy) << "chain did not cross the call into the helper";
}

TEST(DerefChain, InvalidFailingInstYieldsEmpty) {
  ir::Module m;
  EXPECT_TRUE(FailureAccessChain(m, ir::kInvalidInstId).empty());
}

// --------------------------------------------------------------------------
// Soundness property: run randomly generated pointer-shuffling programs and
// check every dynamically observed "pointer register holds object X" fact is
// in the static points-to solution.
// --------------------------------------------------------------------------
class PointsToSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointsToSoundness, DynamicFactsAreSubsetOfStatic) {
  Rng rng(GetParam());
  ir::Module m;
  IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  // A few objects and holders; then a random sequence of copies/stores/loads.
  std::vector<Reg> objects;
  std::vector<ir::InstId> object_sites;
  for (int i = 0; i < 4; ++i) {
    objects.push_back(b.Alloca(i64));
    object_sites.push_back(b.last_inst());
  }
  std::vector<Reg> holders;
  for (int i = 0; i < 3; ++i) {
    holders.push_back(b.Alloca(ptr));
  }
  std::vector<Reg> pointer_regs = objects;
  std::vector<ir::InstId> loads;  // loads of ptr values to check dynamically
  for (int step = 0; step < 30; ++step) {
    switch (rng.NextBelow(3)) {
      case 0: {  // copy
        const Reg src = pointer_regs[rng.NextBelow(pointer_regs.size())];
        pointer_regs.push_back(b.Copy(src, ptr));
        break;
      }
      case 1: {  // store a pointer into a holder
        const Reg src = pointer_regs[rng.NextBelow(pointer_regs.size())];
        const Reg holder = holders[rng.NextBelow(holders.size())];
        b.Store(src, holder, ptr);
        break;
      }
      default: {  // load a pointer back from a holder
        const Reg holder = holders[rng.NextBelow(holders.size())];
        pointer_regs.push_back(b.Load(holder, ptr));
        loads.push_back(b.last_inst());
        break;
      }
    }
  }
  b.RetVoid();
  b.EndFunction();
  ASSERT_TRUE(ir::IsValid(m));

  const PointsToResult static_result = WholeProgram(m);
  const FuncId f = m.FindFunction("main")->id();

  // Execute and snapshot which object each load actually produced.
  rt::Interpreter interp(&m, rt::InterpOptions{});
  struct LoadObserver : rt::ExecutionObserver {
    std::vector<std::pair<const ir::Instruction*, rt::ObjectId>> facts;
    uint64_t OnMemoryAccess(rt::ThreadId, const ir::Instruction* inst, rt::ObjectId obj,
                            uint32_t, bool is_write, uint64_t) override {
      if (!is_write) {
        facts.emplace_back(inst, obj);
      }
      return 0;
    }
  } observer;
  interp.AddObserver(&observer);
  const rt::RunResult run = interp.Run("main");
  ASSERT_TRUE(run.Succeeded());

  // Map runtime objects back to their alloca sites and check inclusion: if a
  // load's result register dynamically held a pointer, its static points-to
  // set must contain that object's site. We check through the loaded holder
  // contents: every load instruction's static result set must cover all
  // objects that were ever stored into any holder it may read (conservative
  // check via result-set nonemptiness plus per-fact membership).
  for (ir::InstId load_id : loads) {
    const ir::Instruction* load = m.instruction(load_id);
    const ObjectSet& pts = static_result.PointsTo(f, load->result());
    // Dynamically, the loaded value may be null (holder never written) or a
    // pointer to one of the four objects; in the latter case the object's
    // alloca site must be in pts.
    // Re-run with direct inspection through memory: the observer recorded the
    // holder object; here we simply require that pts covers every object
    // whose address was ever stored (superset of what the load could see).
    size_t covered = 0;
    for (ir::InstId site : object_sites) {
      if (PointsToObject(static_result, pts, AbstractObject::Kind::kAllocaSite, site)) {
        ++covered;
      }
    }
    // At least every object that was stored into some holder must be covered;
    // conservatively, if any store happened, coverage must be nonzero.
    if (!pts.Empty()) {
      EXPECT_GT(covered, 0u);
    }
  }

  // Stronger per-fact check: every dynamic access object corresponds to an
  // abstract object in the instruction's pointer-operand points-to set.
  for (const auto& [inst, obj] : observer.facts) {
    const auto& mem = interp.memory().object(obj);
    const ObjectSet& pts = static_result.PointerOperandPointsTo(*inst);
    if (mem.global.has_value()) {
      EXPECT_TRUE(PointsToObject(static_result, pts, AbstractObject::Kind::kGlobal,
                                 *mem.global))
          << "global fact missing for #" << inst->id();
    } else {
      EXPECT_TRUE(PointsToObject(static_result, pts, AbstractObject::Kind::kAllocaSite,
                                 mem.alloc_site))
          << "alloca fact missing for #" << inst->id();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToSoundness, ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace snorlax::analysis
