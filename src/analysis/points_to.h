// Inclusion-based (Andersen) interprocedural points-to analysis with the
// paper's scope restriction (hybrid points-to analysis, section 4.2).
//
// The analysis is flow-insensitive -- the correct conservative choice for
// multithreaded code, where instructions from different threads interleave
// arbitrarily (section 4.2) -- and field-insensitive at object granularity.
// Constraints follow Figure 3 of the paper:
//   (1) p = &l    =>  MemLoc_l  IN  pts(p)        (Alloca / AddrOfGlobal / FuncAddr)
//   (2) p = q     =>  pts(p) SUPSETEQ pts(q)      (Copy / Cast / Gep / call binding)
//   (3) *p = q    =>  forall o in pts(p): pts(o) SUPSETEQ pts(q)   (Store)
//   (4) p = *q    =>  forall o in pts(q): pts(p) SUPSETEQ pts(o)   (Load)
//
// Scope restriction: in kExecutedOnly mode, constraints are generated only
// from instructions present in the executed set recovered from the control
// flow trace. This is what makes the otherwise-unscalable analysis cheap --
// Table 4's 24x geometric-mean speedup is hybrid vs. whole-program mode.
#ifndef SNORLAX_ANALYSIS_POINTS_TO_H_
#define SNORLAX_ANALYSIS_POINTS_TO_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/module.h"

namespace snorlax::analysis {

// An abstract memory object: an allocation site, a global, or a function
// (functions are objects so that indirect calls resolve through pts sets).
struct AbstractObject {
  enum class Kind : uint8_t { kAllocaSite, kGlobal, kFunction };
  Kind kind = Kind::kAllocaSite;
  uint32_t id = 0;  // InstId / GlobalId / FuncId depending on kind

  bool operator==(const AbstractObject& o) const { return kind == o.kind && id == o.id; }
  std::string ToString(const ir::Module& module) const;
};

// Dense bitset over abstract-object indices.
class ObjectSet {
 public:
  void Resize(size_t bits) { words_.resize((bits + 63) / 64, 0); }
  bool Test(uint32_t i) const {
    const size_t w = i / 64;
    return w < words_.size() && ((words_[w] >> (i % 64)) & 1) != 0;
  }
  // Returns true when the bit was newly set.
  bool Set(uint32_t i) {
    const size_t w = i / 64;
    if (w >= words_.size()) {
      // Geometric capacity growth: a sparse ascending insert sequence would
      // otherwise reallocate-and-copy once per word (quadratic overall).
      if (w >= words_.capacity()) {
        const size_t doubled = words_.capacity() * 2;
        words_.reserve(doubled > w + 1 ? doubled : w + 1);
      }
      words_.resize(w + 1, 0);
    }
    const uint64_t mask = 1ull << (i % 64);
    const bool fresh = (words_[w] & mask) == 0;
    words_[w] |= mask;
    return fresh;
  }
  // *this |= other; returns true when any bit was added.
  bool UnionWith(const ObjectSet& other);
  // *this |= other, also recording every newly-added bit into *delta. The
  // difference-propagating solver uses this to track exactly which objects
  // still need to flow along outgoing edges.
  bool UnionWithDelta(const ObjectSet& other, ObjectSet* delta);
  bool Intersects(const ObjectSet& other) const;
  size_t Count() const;
  std::vector<uint32_t> Elements() const;
  bool Empty() const;

  // Calls fn(index) for every set bit, ascending, without allocating. The
  // solver's hot loop (and every other solver-side iteration) uses this
  // instead of materializing Elements() vectors.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
};

struct PointsToOptions {
  enum class Scope { kWholeProgram, kExecutedOnly };
  Scope scope = Scope::kWholeProgram;
  // Required (non-null) when scope == kExecutedOnly.
  const std::unordered_set<ir::InstId>* executed = nullptr;
  // Collapse strongly-connected components of the copy-edge graph onto one
  // union-find representative (variables in a copy cycle provably share a
  // points-to set). Off = ablation baseline: the plain difference-propagating
  // worklist, for before/after solver benchmarks. Results are identical.
  bool collapse_sccs = true;

  // Solver tier. kExhaustive computes the full fixpoint over every variable
  // in the scoped graph. kDemand answers only the demanded cone (every
  // in-scope access's pointer variable plus `query_insts`) by backward
  // CFL-reachability, producing a sparse result; see demand_pta.h. kAuto is
  // kDemand with a graph-scaled node budget, so pathological sites fall back
  // to the exhaustive tier automatically.
  enum class Tier { kExhaustive, kDemand, kAuto };
  Tier tier = Tier::kExhaustive;
  // Demand tiers: worklist nodes visited before the partial run is abandoned
  // and the exhaustive solver takes over. 0 = unlimited for kDemand, a
  // graph-scaled default for kAuto.
  size_t demand_node_budget = 0;
  // Extra instructions whose pointer-operand variable the demand tier must
  // answer (e.g. the failing deref chain's links). Every in-scope memory
  // access is always queried; this only matters for instructions outside
  // that set. Pointers must outlive the call (not the result).
  std::vector<const ir::Instruction*> query_insts;
};

struct PointsToStats {
  size_t instructions_analyzed = 0;
  size_t constraints = 0;
  size_t variables = 0;
  size_t objects = 0;
  size_t solver_iterations = 0;
  // Variables folded into a cycle representative (0 when collapse_sccs off).
  size_t scc_vars_collapsed = 0;
  // Delta-set propagations along copy edges (the hot-loop work unit).
  size_t delta_propagations = 0;
  double solve_seconds = 0.0;
  // Demand tier (PointsToOptions::Tier). answered_by_demand is set when the
  // demand solver produced the final (sparse) result; when it attempted and
  // exceeded its budget, demand_budget_fallback is set instead and the
  // exhaustive solver's output is returned (queries/nodes still record the
  // abandoned attempt, solve_seconds includes it).
  bool answered_by_demand = false;
  size_t demand_queries = 0;
  size_t demand_nodes_visited = 0;
  bool demand_budget_fallback = false;
};

class PointsToResult {
 public:
  // Points-to set of a register variable.
  const ObjectSet& PointsTo(ir::FuncId func, ir::Reg reg) const;
  // Points-to set of the *pointer operand* of a memory-touching instruction
  // (load/store/lock/free). Empty set for other instructions.
  const ObjectSet& PointerOperandPointsTo(const ir::Instruction& inst) const;

  // All in-scope instructions whose pointer operand may reference any object
  // in `objs` -- the candidate target events handed to type-based ranking.
  std::vector<const ir::Instruction*> AccessorsOf(const ObjectSet& objs) const;

  // Conservative may-alias for the pointer operands of two memory accesses:
  // false only when both operands have non-empty points-to sets that do not
  // intersect. Unknown (empty) sets -- non-memory instructions, or variables
  // a demand-tier result was never asked about -- stay "may alias", so the
  // pattern engine's pair prefilter can never drop a pair the exhaustive
  // analysis would keep.
  bool MayAliasAccess(const ir::Instruction& a, const ir::Instruction& b) const;

  const AbstractObject& object(uint32_t idx) const { return objects_[idx]; }
  size_t num_objects() const { return objects_.size(); }
  const PointsToStats& stats() const { return stats_; }

  // True when the demand tier produced this result: points-to sets are
  // stored sparsely and only the demanded variables are answered (any other
  // variable reads as the empty set). Consumers that query arbitrary module
  // variables -- e.g. the slicer's every-store alias probe -- must use an
  // exhaustive result instead; the engine enforces this.
  bool demand_tier() const { return sparse_; }

 private:
  friend class AndersenSolver;
  friend class DemandSolver;
  friend PointsToResult RunDemandPointsTo(const ir::Module&, const PointsToOptions&);
  // Binary serialization (engine/artifact_codec.cc): cluster hand-off and the
  // durable artifact log ship PointsToResult values between processes.
  friend struct PointsToSerDes;
  const ir::Module* module_ = nullptr;
  std::vector<AbstractObject> objects_;
  // Variable points-to sets, stored once per union-find representative;
  // rep_[var] maps a variable to its representative (identity when the
  // variable was not collapsed into a copy cycle). Variable index =
  // func_reg_base_[func] + reg.
  std::vector<ObjectSet> var_pts_;
  std::vector<uint32_t> rep_;
  std::vector<uint32_t> func_reg_base_;
  // Memory-access instructions in scope, with their pointer-operand variable.
  std::vector<std::pair<const ir::Instruction*, uint32_t>> accesses_;
  // Demand-tier storage: sets keyed by variable for just the demanded
  // variables (var_pts_/rep_ stay empty). See demand_tier().
  bool sparse_ = false;
  std::unordered_map<uint32_t, ObjectSet> sparse_pts_;
  // Object index -> ascending indices into accesses_ whose pointer operand
  // may reference that object. Built once post-solve (and post-decode);
  // makes AccessorsOf proportional to its answer instead of a scan over
  // every in-scope access.
  std::vector<std::vector<uint32_t>> accessors_by_object_;
  ObjectSet empty_;
  PointsToStats stats_;

  uint32_t VarIndex(ir::FuncId func, ir::Reg reg) const;
  const ObjectSet& VarSet(uint32_t var) const;
  void BuildAccessorIndex();
};

// Runs the analysis. `executed` must outlive the call (not the result).
// Dispatches on options.tier; the demand tiers are implemented in
// demand_pta.cc and fall back to the exhaustive solver on budget exhaustion.
PointsToResult RunPointsTo(const ir::Module& module, const PointsToOptions& options);

// Internal: exhaustive Andersen over a prebuilt constraint graph. Shared by
// RunPointsTo and the demand tier's budget-fallback path (demand_pta.cc) so
// both build from the identical scoped graph.
struct ConstraintGraph;
PointsToResult RunExhaustiveOnGraph(const ir::Module& module, const PointsToOptions& options,
                                    const ConstraintGraph& graph);

}  // namespace snorlax::analysis

#endif  // SNORLAX_ANALYSIS_POINTS_TO_H_
