// Constraint generation for the step-4 points-to analysis (points_to.h).
//
// BuildConstraintGraph walks the module once (scope-restricted per the
// paper's hybrid analysis, section 4.2) and records the Andersen constraint
// system of Figure 3 as flat, program-ordered lists plus the variable layout
// the solver uses:
//
//   [0, ret_var_base)             register variables, func_reg_base[f] + reg
//   [ret_var_base, obj_var_base)  one return variable per function
//   [obj_var_base, num_vars)      one content variable per abstract object
//
// The AndersenSolver (points_to.cc) replays the lists into its dense
// worklist state in program order. In executed scope the walk visits only
// the executed set, so the graph's cost tracks the trace, not the program.
#ifndef SNORLAX_ANALYSIS_CONSTRAINT_GRAPH_H_
#define SNORLAX_ANALYSIS_CONSTRAINT_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/points_to.h"
#include "ir/module.h"

namespace snorlax::analysis {

struct ConstraintGraph {
  // Variable layout (see file comment).
  std::vector<uint32_t> func_reg_base;
  uint32_t ret_var_base = 0;
  uint32_t obj_var_base = 0;
  uint32_t num_vars = 0;

  // Abstract objects in deterministic collection order: globals, then
  // functions, then in-scope alloca sites in program order. Global and
  // function ids are dense (they index the module's own vectors), so their
  // object indices are arithmetic: id and num_globals + id respectively.
  // Only alloca sites need the lookup table.
  std::vector<AbstractObject> objects;
  uint32_t num_globals = 0;
  std::unordered_map<uint64_t, uint32_t> alloca_index;  // ObjectKey -> index

  // Constraints, each list in program order.
  std::vector<std::pair<uint32_t, uint32_t>> bases;   // (var, object index)
  std::vector<std::pair<uint32_t, uint32_t>> copies;  // (from, to)
  std::vector<std::pair<uint32_t, uint32_t>> loads;   // (pointer var, result var)
  std::vector<std::pair<uint32_t, uint32_t>> stores;  // (pointer var, value var)
  struct IndirectSite {
    const ir::Instruction* call = nullptr;
    const ir::Function* caller = nullptr;
    uint32_t fp_var = 0;  // the function-pointer operand's variable
  };
  std::vector<IndirectSite> indirect_sites;

  // Memory-access instructions in scope, with their pointer-operand variable.
  std::vector<std::pair<const ir::Instruction*, uint32_t>> accesses;

  // Build-time tallies, carried into PointsToStats by the solver.
  size_t instructions_analyzed = 0;
  size_t constraints = 0;

  uint32_t Var(ir::FuncId func, ir::Reg reg) const { return func_reg_base[func] + reg; }
  uint32_t RetVar(ir::FuncId func) const { return ret_var_base + func; }

  static uint64_t ObjectKey(const AbstractObject& obj) {
    return (static_cast<uint64_t>(obj.kind) << 32) | obj.id;
  }
  // Index of a registered abstract object; CHECK-fails on unknown objects.
  uint32_t ObjectIndexOf(AbstractObject obj) const;
};

// Builds the scope-restricted constraint graph. `options.executed` must be
// non-null in kExecutedOnly mode and must outlive the call (not the graph).
ConstraintGraph BuildConstraintGraph(const ir::Module& module, const PointsToOptions& options);

}  // namespace snorlax::analysis

#endif  // SNORLAX_ANALYSIS_CONSTRAINT_GRAPH_H_
