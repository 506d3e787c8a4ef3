#include "analysis/constraint_graph.h"

#include <algorithm>

#include "support/check.h"

namespace snorlax::analysis {
namespace {

void AddCopy(ConstraintGraph* g, uint32_t from, uint32_t to) {
  g->copies.emplace_back(from, to);
  ++g->constraints;
}

void AddBase(ConstraintGraph* g, uint32_t var, AbstractObject obj) {
  g->bases.emplace_back(var, g->ObjectIndexOf(obj));
  ++g->constraints;
}

// Static (direct-call) argument/result binding; parameters occupy registers
// [0, num_params). Indirect calls bind lazily in the solver instead.
void BindCallArguments(ConstraintGraph* g, const ir::Function& caller,
                       const ir::Instruction& call, const ir::Function& callee,
                       size_t first_arg_operand) {
  for (size_t i = first_arg_operand; i < call.num_operands(); ++i) {
    const size_t param = i - first_arg_operand;
    if (param >= callee.num_params()) {
      break;
    }
    if (call.operand(i).IsReg()) {
      AddCopy(g, g->Var(caller.id(), call.operand(i).reg),
              g->Var(callee.id(), static_cast<ir::Reg>(param)));
    }
  }
  if (call.HasResult()) {
    AddCopy(g, g->RetVar(callee.id()), g->Var(caller.id(), call.result()));
  }
}

void GenerateForInstruction(ConstraintGraph* g, const ir::Module& module,
                            const ir::Function& func, const ir::Instruction& inst) {
  const ir::FuncId f = func.id();
  switch (inst.opcode()) {
    case ir::Opcode::kAlloca:
      AddBase(g, g->Var(f, inst.result()), {AbstractObject::Kind::kAllocaSite, inst.id()});
      break;
    case ir::Opcode::kAddrOfGlobal:
      AddBase(g, g->Var(f, inst.result()), {AbstractObject::Kind::kGlobal, inst.global()});
      break;
    case ir::Opcode::kFuncAddr:
      AddBase(g, g->Var(f, inst.result()), {AbstractObject::Kind::kFunction, inst.callee()});
      break;
    case ir::Opcode::kCopy:
    case ir::Opcode::kCast:
    case ir::Opcode::kGep:  // field-insensitive: the field pointer aliases its base
      if (inst.operand(0).IsReg()) {
        AddCopy(g, g->Var(f, inst.operand(0).reg), g->Var(f, inst.result()));
      }
      break;
    case ir::Opcode::kLoad:
      if (inst.operand(0).IsReg()) {
        g->loads.emplace_back(g->Var(f, inst.operand(0).reg), g->Var(f, inst.result()));
        ++g->constraints;
        g->accesses.emplace_back(&inst, g->Var(f, inst.operand(0).reg));
      }
      break;
    case ir::Opcode::kStore:
      if (inst.operand(1).IsReg()) {
        if (inst.operand(0).IsReg()) {
          g->stores.emplace_back(g->Var(f, inst.operand(1).reg), g->Var(f, inst.operand(0).reg));
          ++g->constraints;
        }
        g->accesses.emplace_back(&inst, g->Var(f, inst.operand(1).reg));
      }
      break;
    case ir::Opcode::kLockAcquire:
    case ir::Opcode::kLockRelease:
      if (inst.operand(0).IsReg()) {
        g->accesses.emplace_back(&inst, g->Var(f, inst.operand(0).reg));
      }
      break;
    case ir::Opcode::kCall:
    case ir::Opcode::kThreadCreate:
      BindCallArguments(g, func, inst, *module.function(inst.callee()),
                        /*first_arg_operand=*/0);
      break;
    case ir::Opcode::kCallIndirect:
      if (inst.operand(0).IsReg()) {
        g->indirect_sites.push_back(
            {&inst, &func, g->Var(f, inst.operand(0).reg)});
        ++g->constraints;
      }
      break;
    case ir::Opcode::kRet:
      if (inst.num_operands() == 1 && inst.operand(0).IsReg()) {
        AddCopy(g, g->Var(f, inst.operand(0).reg), g->RetVar(f));
      }
      break;
    default:
      break;
  }
}

}  // namespace

uint32_t ConstraintGraph::ObjectIndexOf(AbstractObject obj) const {
  switch (obj.kind) {
    case AbstractObject::Kind::kGlobal:
      return obj.id;
    case AbstractObject::Kind::kFunction:
      return num_globals + obj.id;
    case AbstractObject::Kind::kAllocaSite: {
      auto it = alloca_index.find(ObjectKey(obj));
      SNORLAX_CHECK_MSG(it != alloca_index.end(), "unregistered alloca site");
      return it->second;
    }
  }
  SNORLAX_CHECK_MSG(false, "unknown abstract object kind");
  return 0;
}

ConstraintGraph BuildConstraintGraph(const ir::Module& module, const PointsToOptions& options) {
  SNORLAX_CHECK(options.scope == PointsToOptions::Scope::kWholeProgram ||
                options.executed != nullptr);
  ConstraintGraph g;

  // Variable layout: register vars per function, then return vars, then
  // object-content vars.
  g.func_reg_base.resize(module.functions().size());
  uint32_t next = 0;
  for (const auto& func : module.functions()) {
    g.func_reg_base[func->id()] = next;
    next += func->num_regs();
  }
  g.ret_var_base = next;
  next += static_cast<uint32_t>(module.functions().size());

  // Globals and functions are always objects; alloca sites only when in
  // scope. Global and function ids index their module vectors, so their
  // object indices are positional (ObjectIndexOf computes them) and only
  // alloca sites enter the lookup table.
  g.num_globals = static_cast<uint32_t>(module.globals().size());
  g.objects.reserve(module.globals().size() + module.functions().size());
  for (const ir::GlobalVar& global : module.globals()) {
    g.objects.push_back({AbstractObject::Kind::kGlobal, global.id});
  }
  for (const auto& func : module.functions()) {
    g.objects.push_back({AbstractObject::Kind::kFunction, func->id()});
  }
  auto add_object = [&g](AbstractObject obj) {
    g.alloca_index[ConstraintGraph::ObjectKey(obj)] = static_cast<uint32_t>(g.objects.size());
    g.objects.push_back(obj);
  };
  // Executed scope iterates the executed set itself, which yields ids in
  // ascending order, i.e. program order via the dense InstId numbering,
  // instead of scanning the whole module: cold library code never appears in
  // a trace, so graph-construction cost tracks the trace, not the program
  // (the same argument as Table 4's solver speedup, applied to constraint
  // generation).
  std::vector<const ir::Instruction*> scoped;
  if (options.scope == PointsToOptions::Scope::kExecutedOnly) {
    scoped.reserve(options.executed->size());
    for (const ir::InstId id : *options.executed) {
      if (id >= module.NumInstructions()) {
        break;
      }
      scoped.push_back(module.instruction(id));
    }
    for (const ir::Instruction* inst : scoped) {
      if (inst->opcode() == ir::Opcode::kAlloca) {
        add_object({AbstractObject::Kind::kAllocaSite, inst->id()});
      }
    }
  } else {
    for (const ir::Instruction* inst : module.AllInstructions()) {
      if (inst->opcode() == ir::Opcode::kAlloca) {
        add_object({AbstractObject::Kind::kAllocaSite, inst->id()});
      }
    }
  }
  g.obj_var_base = next;
  next += static_cast<uint32_t>(g.objects.size());
  g.num_vars = next;

  if (options.scope == PointsToOptions::Scope::kExecutedOnly) {
    for (const ir::Instruction* inst : scoped) {
      ++g.instructions_analyzed;
      GenerateForInstruction(&g, module, *inst->parent()->parent(), *inst);
    }
  } else {
    for (const auto& func : module.functions()) {
      for (const auto& bb : func->blocks()) {
        for (const auto& inst : bb->instructions()) {
          ++g.instructions_analyzed;
          GenerateForInstruction(&g, module, *func, *inst);
        }
      }
    }
  }
  return g;
}

}  // namespace snorlax::analysis
