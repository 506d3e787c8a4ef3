// Quickstart: build a small multithreaded program with the MiniIR builder,
// give it a classic use-after-invalidation race, and let Snorlax diagnose it
// end to end.
//
//   $ ./examples/quickstart
//
// Walks through the whole public API surface:
//   1. ir::IrBuilder        -- construct the program,
//   2. core::Snorlax        -- run it under always-on PT tracing until the
//                              bug strikes, gather successful traces, and
//                              run Lazy Diagnosis (steps 2-7 of the paper),
//   3. core::DiagnosisReport -- read the ranked root-cause patterns.
#include <cstdio>

#include "core/snorlax.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/verifier.h"

using namespace snorlax;

namespace {

// The program: a logger thread repeatedly appends through a shared `sink`
// pointer; the main thread rotates the sink after an input-dependent amount
// of work, nulling the pointer first. If the rotation lands between the
// logger's re-read and its append, the logger dereferences null.
struct Program {
  std::unique_ptr<ir::Module> module;
  ir::InstId rotate_store = ir::kInvalidInstId;  // W: the invalidation
  ir::InstId append_load = ir::kInvalidInstId;   // R: the racy use
};

void EmitSpin(ir::IrBuilder& b, const ir::Type* i64, ir::Reg iters, int64_t per_ns) {
  const ir::Reg cnt = b.Alloca(i64);
  b.Store(ir::Operand::MakeImm(0), cnt, i64);
  const ir::BlockId head = b.CreateBlock("spin");
  const ir::BlockId done = b.CreateBlock("spin_done");
  b.Br(head);
  b.SetInsertPoint(head);
  b.Work(per_ns);
  const ir::Reg v = b.Load(cnt, i64);
  const ir::Reg v2 = b.Add(v, 1, i64);
  b.Store(v2, cnt, i64);
  const ir::Reg more =
      b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(v2), ir::Operand::MakeReg(iters));
  b.CondBr(more, head, done);
  b.SetInsertPoint(done);
}

Program BuildProgram() {
  Program prog;
  prog.module = std::make_unique<ir::Module>();
  ir::Module& m = *prog.module;
  ir::IrBuilder b(&m);
  const ir::Type* i64 = m.types().IntType(64);
  const ir::Type* sink_ty = m.types().StructType("LogSink", {i64, i64});
  const ir::Type* sink_ptr = m.types().PointerTo(sink_ty);
  const ir::Type* state_ty = m.types().StructType("LoggerState", {sink_ptr});
  const ir::GlobalId g_state = b.CreateGlobal("logger_state", state_ty);

  const ir::FuncId logger = b.BeginFunction("logger_thread", m.types().VoidType(), {i64});
  {
    b.SetDebugLocation("logger.c:append_loop");
    b.SetInsertPoint(b.CreateBlock("entry"));
    const ir::Reg state = b.AddrOfGlobal(g_state);
    const ir::Reg slot = b.Gep(state, state_ty, 0);
    const ir::Reg cnt = b.Alloca(i64);
    b.Store(ir::Operand::MakeImm(0), cnt, i64);
    const ir::BlockId loop = b.CreateBlock("append");
    const ir::BlockId done = b.CreateBlock("append_done");
    b.Br(loop);
    b.SetInsertPoint(loop);
    const ir::Reg batch = b.Random(i64, 40, 70);
    EmitSpin(b, i64, batch, 5'000);  // gather a batch of messages
    const ir::Reg sink = b.Load(slot, sink_ptr);  // racy re-read
    prog.append_load = b.last_inst();
    const ir::Reg lines = b.Gep(sink, sink_ty, 0);
    const ir::Reg n = b.Load(lines, i64);  // crash once rotated away
    b.Store(b.Add(n, 1, i64), lines, i64);
    const ir::Reg i = b.Load(cnt, i64);
    const ir::Reg i2 = b.Add(i, 1, i64);
    b.Store(i2, cnt, i64);
    const ir::Reg more =
        b.Cmp(ir::CmpKind::kLt, ir::Operand::MakeReg(i2), ir::Operand::MakeImm(30));
    b.CondBr(more, loop, done);
    b.SetInsertPoint(done);
    b.RetVoid();
    b.EndFunction();
  }

  b.BeginFunction("main", m.types().VoidType(), {});
  {
    b.SetDebugLocation("logger.c:rotate");
    b.SetInsertPoint(b.CreateBlock("entry"));
    const ir::Reg state = b.AddrOfGlobal(g_state);
    const ir::Reg slot = b.Gep(state, state_ty, 0);
    const ir::Reg sink = b.Alloca(sink_ty);
    b.Store(sink, slot, sink_ptr);  // publish the initial sink
    const ir::Reg t = b.ThreadCreate(logger, ir::Operand::MakeImm(0));
    const ir::Reg serve = b.Random(i64, 1550, 1750);
    EmitSpin(b, i64, serve, 5'000);  // serve requests for a while
    b.Store(ir::Operand::MakeImm(0), slot, sink_ptr);  // rotate: null first...
    prog.rotate_store = b.last_inst();
    b.Free(sink);
    b.ThreadJoin(t);
    b.RetVoid();
    b.EndFunction();
  }
  return prog;
}

}  // namespace

int main() {
  std::printf("== Snorlax quickstart ==\n\n");
  Program prog = BuildProgram();
  const auto problems = ir::VerifyModule(*prog.module);
  if (!problems.empty()) {
    std::printf("module invalid: %s\n", problems[0].c_str());
    return 1;
  }
  std::printf("Built a %zu-instruction module:\n\n%s\n",
              prog.module->NumInstructions(),
              ir::PrintFunction(*prog.module->FindFunction("main")).c_str());

  core::SnorlaxOptions options;
  options.client.interp.work_jitter = 0.04;
  core::Snorlax snorlax(prog.module.get(), options);

  std::printf("Running the program under always-on PT tracing until it fails...\n");
  const auto outcome = snorlax.DiagnoseFirstFailure(/*first_seed=*/1);
  if (!outcome.has_value()) {
    std::printf("the bug did not reproduce within the budget\n");
    return 1;
  }

  const core::DiagnosisReport& report = outcome->report;
  std::printf("\nFailure after %llu executions: %s at #%u (%s)\n",
              static_cast<unsigned long long>(outcome->runs_until_failure),
              rt::FailureKindName(report.failure.kind), report.failure.failing_inst,
              report.failure.description.c_str());
  std::printf("Gathered %llu successful traces at the failure PC (10x cap).\n",
              static_cast<unsigned long long>(outcome->success_runs_used));
  std::printf("Server analysis: %.1f ms; %zu/%zu instructions in trace scope.\n\n",
              report.stages.AnalysisSeconds() * 1000.0, report.stages.executed_instructions,
              report.stages.module_instructions);

  std::printf("Top diagnosed patterns (F1-ranked):\n");
  int shown = 0;
  for (const core::DiagnosedPattern& p : report.patterns) {
    if (shown++ == 5) {
      break;
    }
    std::printf("  F1=%.2f  %-26s ", p.f1, core::PatternKindName(p.pattern.kind));
    for (const core::PatternEvent& e : p.pattern.events) {
      const ir::Instruction* inst = prog.module->instruction(e.inst);
      std::printf(" #%u[T%u %s]", e.inst, e.thread_slot, inst->debug_location().c_str());
    }
    std::printf("%s\n", p.pattern.ordered ? "" : "  (unordered)");
  }

  const core::DiagnosedPattern* best = report.best();
  const bool found_w = best != nullptr &&
                       [&] {
                         for (const auto& e : best->pattern.events) {
                           if (e.inst == prog.rotate_store) {
                             return true;
                           }
                         }
                         return false;
                       }();
  std::printf("\nGround truth: rotation store #%u racing the append at #%u -> %s\n",
              prog.rotate_store, prog.append_load,
              found_w ? "DIAGNOSED (root cause in the top pattern)" : "check the pattern list");
  return 0;
}
