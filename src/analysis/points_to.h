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
#include <unordered_set>
#include <vector>

#include "ir/module.h"
#include "trace/inst_set.h"

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
  const trace::InstSet* executed = nullptr;
  // Collapse strongly-connected components of the copy-edge graph onto one
  // union-find representative (variables in a copy cycle provably share a
  // points-to set). Off = ablation baseline: the plain difference-propagating
  // worklist, for before/after solver benchmarks. Results are identical.
  bool collapse_sccs = true;
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
  // intersect. An empty set (a non-memory instruction, or an operand that is
  // not a register) is unknown and stays "may alias", so the pattern
  // engine's pair prefilter never drops a pair it cannot rule out.
  bool MayAliasAccess(const ir::Instruction& a, const ir::Instruction& b) const;

  const AbstractObject& object(uint32_t idx) const { return objects_[idx]; }
  size_t num_objects() const { return objects_.size(); }
  const PointsToStats& stats() const { return stats_; }


 private:
  friend class AndersenSolver;
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
PointsToResult RunPointsTo(const ir::Module& module, const PointsToOptions& options);

}  // namespace snorlax::analysis

#endif  // SNORLAX_ANALYSIS_POINTS_TO_H_
