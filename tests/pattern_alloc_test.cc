// Allocation accounting for the step-6 hot path: the hypothesis loops must
// run allocation-free per candidate. This TU overrides global operator
// new/delete with a counting shim (which is why it is its own test binary)
// and asserts that ComputePatterns' allocation count is a small constant --
// independent of how many candidates the engine sweeps.
//
// The per-call budget covers only setup: the scratch vector reservations,
// the candidate list, the dedup tables, and the result vector. If a
// hypothesis loop regresses into allocating per candidate (a rescan buffer,
// a per-pair string key, a std::function...), the count jumps by O(#cands)
// and the delta assertion below fails.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "engine/pattern_compute.h"
#include "ir/builder.h"
#include "pt/driver.h"
#include "runtime/interpreter.h"
#include "trace/processed_trace.h"

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// Every replaceable allocation form is counted and served from malloc, so
// each delete form below frees what some new form returned: the nothrow
// forms (std::stable_sort's temporary buffer) and the over-aligned forms
// must not fall through to the runtime's own operator new, or a sanitizer
// runtime reports an alloc-dealloc mismatch.
namespace {
void* CountedAlloc(size_t size, size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}
}  // namespace

void* operator new(size_t size) {
  if (void* p = CountedAlloc(size, 0)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(size_t size, std::align_val_t align) {
  if (void* p = CountedAlloc(size, static_cast<size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace snorlax::engine {
namespace {

// A two-thread crash whose worker loop executes its racy accesses many
// times: rich instance counts, so a per-instance allocation would multiply.
struct Program {
  std::unique_ptr<ir::Module> module;
};

Program Build() {
  Program out;
  out.module = std::make_unique<ir::Module>();
  ir::Module& m = *out.module;
  ir::IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* ptr = m.types().PointerTo(i64);
  const ir::GlobalId g = b.CreateGlobal("slot", ptr);

  const ir::FuncId worker = b.BeginFunction("worker", m.types().VoidType(), {i64});
  const ir::BlockId entry = b.CreateBlock("entry");
  const ir::BlockId head = b.CreateBlock("head");
  const ir::BlockId exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  const ir::Reg i = b.Alloca(i64);
  b.Store(ir::Operand::MakeImm(0), i, i64);
  b.Br(head);
  b.SetInsertPoint(head);
  b.Work(40'000);
  const ir::Reg slot = b.AddrOfGlobal(g);
  const ir::Reg p = b.Load(slot, ptr);
  b.Load(p, i64);  // crashes once main nulls the slot
  const ir::Reg iv = b.Load(i, i64);
  const ir::Reg iv2 = b.Add(iv, 1, i64);
  b.Store(iv2, i, i64);
  const ir::Reg more = b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(iv2),
                             ir::Operand::MakeImm(200));
  b.CondBr(more, head, exit);
  b.SetInsertPoint(exit);
  b.RetVoid();
  b.EndFunction();

  b.BeginFunction("main", m.types().VoidType(), {});
  b.SetInsertPoint(b.CreateBlock("entry"));
  const ir::Reg mslot = b.AddrOfGlobal(g);
  const ir::Reg value = b.Alloca(i64);
  b.Store(ir::Operand::MakeImm(5), value, i64);
  b.Store(value, mslot, ptr);
  const ir::Reg t = b.ThreadCreate(worker, ir::Operand::MakeImm(0));
  const ir::BlockId mhead = b.CreateBlock("mhead");
  const ir::BlockId mexit = b.CreateBlock("mexit");
  const ir::Reg mi = b.Alloca(i64);
  b.Store(ir::Operand::MakeImm(0), mi, i64);
  b.Br(mhead);
  b.SetInsertPoint(mhead);
  b.Work(40'000);
  const ir::Reg miv = b.Load(mi, i64);
  const ir::Reg miv2 = b.Add(miv, 1, i64);
  b.Store(miv2, mi, i64);
  const ir::Reg mmore = b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(miv2),
                              ir::Operand::MakeImm(50));
  b.CondBr(mmore, mhead, mexit);
  b.SetInsertPoint(mexit);
  b.Store(ir::Operand::MakeImm(0), mslot, ptr);
  b.ThreadJoin(t);
  b.RetVoid();
  b.EndFunction();
  return out;
}

TEST(PatternAlloc, HypothesisLoopsAllocationFree) {
  const Program prog = Build();
  rt::InterpOptions iopts;
  iopts.work_jitter = 0.0;
  rt::Interpreter interp(prog.module.get(), iopts);
  pt::PtDriver driver(prog.module.get());
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  ASSERT_EQ(r.failure.kind, rt::FailureKind::kCrash);
  ASSERT_TRUE(driver.captured().has_value());
  const trace::ProcessedTrace trace(prog.module.get(), *driver.captured());

  // Every memory access in the module becomes a candidate; the engine tests
  // all of them against the anchors.
  std::vector<analysis::RankedInstruction> ranked;
  for (const ir::Instruction* inst : prog.module->AllInstructions()) {
    if (inst != nullptr && inst->IsMemoryAccess()) {
      analysis::RankedInstruction ri;
      ri.inst = inst;
      ranked.push_back(ri);
    }
  }
  ASSERT_GE(ranked.size(), 8u);

  std::vector<const ir::Instruction*> chain = {
      prog.module->instruction(trace.inst(trace.failing_instance()))};

  // Warm-up establishes steady state (gtest bookkeeping, lazy stdlib
  // initialization) outside the measured window.
  (void)ComputePatterns(*prog.module, trace, ranked, trace.failure(), chain);
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const PatternComputeResult result =
      ComputePatterns(*prog.module, trace, ranked, trace.failure(), chain);
  const size_t delta = g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_FALSE(result.patterns.empty());
  // Setup-only budget: scratch reservations, candidate list, dedup tables,
  // result patterns. A per-candidate or per-instance allocation in the
  // hypothesis loops would add O(#candidates * #anchors) ~ hundreds.
  EXPECT_LE(delta, 96u) << "engine allocated per candidate";
}

}  // namespace
}  // namespace snorlax::engine
