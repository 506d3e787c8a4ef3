#include "analysis/points_to.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "analysis/constraint_graph.h"
#include "support/check.h"
#include "support/str.h"

namespace snorlax::analysis {

std::string AbstractObject::ToString(const ir::Module& module) const {
  switch (kind) {
    case Kind::kAllocaSite:
      return StrFormat("alloca#%u", id);
    case Kind::kGlobal:
      return "@" + module.global(id).name;
    case Kind::kFunction:
      return "@" + module.function(id)->name();
  }
  return "?";
}

bool ObjectSet::UnionWith(const ObjectSet& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  bool changed = false;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    const uint64_t merged = words_[i] | other.words_[i];
    if (merged != words_[i]) {
      words_[i] = merged;
      changed = true;
    }
  }
  return changed;
}

bool ObjectSet::UnionWithDelta(const ObjectSet& other, ObjectSet* delta) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  if (other.words_.size() > delta->words_.size()) {
    delta->words_.resize(other.words_.size(), 0);
  }
  bool changed = false;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    const uint64_t added = other.words_[i] & ~words_[i];
    if (added != 0) {
      words_[i] |= added;
      delta->words_[i] |= added;
      changed = true;
    }
  }
  return changed;
}

bool ObjectSet::Intersects(const ObjectSet& other) const {
  const size_t n = words_.size() < other.words_.size() ? words_.size() : other.words_.size();
  for (size_t i = 0; i < n; ++i) {
    if ((words_[i] & other.words_[i]) != 0) {
      return true;
    }
  }
  return false;
}

size_t ObjectSet::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

bool ObjectSet::Empty() const {
  for (uint64_t w : words_) {
    if (w != 0) {
      return false;
    }
  }
  return true;
}

std::vector<uint32_t> ObjectSet::Elements() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEach([&out](uint32_t i) { out.push_back(i); });
  return out;
}

uint32_t PointsToResult::VarIndex(ir::FuncId func, ir::Reg reg) const {
  return func_reg_base_[func] + reg;
}

const ObjectSet& PointsToResult::PointsTo(ir::FuncId func, ir::Reg reg) const {
  return VarSet(VarIndex(func, reg));
}

const ObjectSet& PointsToResult::PointerOperandPointsTo(const ir::Instruction& inst) const {
  size_t operand_index;
  switch (inst.opcode()) {
    case ir::Opcode::kLoad:
    case ir::Opcode::kLockAcquire:
    case ir::Opcode::kLockRelease:
    case ir::Opcode::kFree:
      operand_index = 0;
      break;
    case ir::Opcode::kStore:
      operand_index = 1;
      break;
    default:
      return empty_;
  }
  const ir::Operand& op = inst.operand(operand_index);
  if (!op.IsReg()) {
    return empty_;
  }
  return PointsTo(inst.parent()->parent()->id(), op.reg);
}

bool PointsToResult::MayAliasAccess(const ir::Instruction& a,
                                    const ir::Instruction& b) const {
  const ObjectSet& pa = PointerOperandPointsTo(a);
  const ObjectSet& pb = PointerOperandPointsTo(b);
  if (pa.Empty() || pb.Empty()) {
    return true;
  }
  return pa.Intersects(pb);
}

const ObjectSet& PointsToResult::VarSet(uint32_t var) const {
  return var_pts_[rep_[var]];
}

std::vector<const ir::Instruction*> PointsToResult::AccessorsOf(const ObjectSet& objs) const {
  // Gather candidate access indices through the inverted index, then dedupe
  // and emit in accesses_ (program) order -- the order the old linear
  // intersect-scan produced.
  std::vector<uint32_t> hits;
  objs.ForEach([&](uint32_t obj) {
    if (obj < accessors_by_object_.size()) {
      const std::vector<uint32_t>& v = accessors_by_object_[obj];
      hits.insert(hits.end(), v.begin(), v.end());
    }
  });
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  std::vector<const ir::Instruction*> out;
  out.reserve(hits.size());
  for (const uint32_t i : hits) {
    out.push_back(accesses_[i].first);
  }
  return out;
}

void PointsToResult::BuildAccessorIndex() {
  accessors_by_object_.assign(objects_.size(), {});
  for (uint32_t i = 0; i < accesses_.size(); ++i) {
    VarSet(accesses_[i].second).ForEach([&](uint32_t obj) {
      if (obj < accessors_by_object_.size()) {
        accessors_by_object_[obj].push_back(i);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// The solver. Inclusion-based (Andersen) with the three standard scalability
// techniques, all behavior-preserving:
//
//   1. Difference propagation: each variable keeps, next to its points-to
//      set, the *delta* of objects that arrived since it was last processed.
//      Only the delta flows along copy edges and triggers complex-constraint
//      expansion, so an edge never re-propagates the whole set. This also
//      subsumes the old per-variable `processed_` bookkeeping: an object is
//      expanded exactly when it first appears in a delta.
//   2. SCC collapsing: variables in a copy-edge cycle provably converge to
//      the same points-to set, so cycles are folded onto one union-find
//      representative (Tarjan over the copy graph after constraint
//      generation, re-run when load/store expansion has added enough new
//      edges to plausibly close new cycles).
//   3. Allocation-free set iteration: deltas are walked with
//      ObjectSet::ForEach; the old hot loop materialized an Elements()
//      vector per worklist pop, which dominated the profile on large
//      executed sets.
// ---------------------------------------------------------------------------

class AndersenSolver {
 public:
  // `graph` must outlive Run() (not the result).
  AndersenSolver(const ir::Module& module, const PointsToOptions& options,
                 const ConstraintGraph& graph)
      : module_(module), options_(options), graph_(graph) {}

  PointsToResult Run();

 private:
  using IndirectSite = ConstraintGraph::IndirectSite;

  uint32_t Var(ir::FuncId func, ir::Reg reg) const {
    return result_.func_reg_base_[func] + reg;
  }
  uint32_t RetVar(ir::FuncId func) const { return ret_var_base_ + func; }
  uint32_t ObjVar(uint32_t obj_index) const { return obj_var_base_ + obj_index; }

  // --- union-find ------------------------------------------------------------
  uint32_t Find(uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }
  // Folds representative `b` into representative `a` (a != b), merging all
  // per-variable solver state.
  void Unite(uint32_t a, uint32_t b);

  // --- constraint recording --------------------------------------------------
  // Solve-time copy edge (from load/store/indirect-call expansion): the
  // source may already have drained its delta, so pull its full set across.
  void AddCopyEdgeDynamic(uint32_t from, uint32_t to) {
    from = Find(from);
    to = Find(to);
    if (from == to) {
      return;
    }
    const uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
    if (!dynamic_edge_seen_.insert(key).second) {
      return;
    }
    copy_out_[from].push_back(to);
    ++result_.stats_.constraints;
    ++dynamic_edges_since_collapse_;
    AddSetToVar(to, pts_[from]);
  }

  // --- propagation primitives (v must be a representative) -------------------
  void AddObjToVar(uint32_t v, uint32_t obj) {
    if (pts_[v].Set(obj)) {
      delta_[v].Set(obj);
      Enqueue(v);
    }
  }
  void AddSetToVar(uint32_t v, const ObjectSet& s) {
    if (pts_[v].UnionWithDelta(s, &delta_[v])) {
      Enqueue(v);
    }
  }
  void Enqueue(uint32_t v) {
    if (!in_worklist_[v]) {
      in_worklist_[v] = true;
      worklist_.push_back(v);
    }
  }

  void BindCallArguments(const ir::Function& caller, const ir::Instruction& call,
                         const ir::Function& callee, size_t first_arg_operand);
  void CollapseCycles();
  void Solve();

  const ir::Module& module_;
  const PointsToOptions& options_;
  const ConstraintGraph& graph_;
  PointsToResult result_;

  uint32_t ret_var_base_ = 0;
  uint32_t obj_var_base_ = 0;
  size_t num_vars_ = 0;

  // Per-variable solver state; meaningful only at union-find representatives
  // once collapsing has run (merged members' storage is released).
  std::vector<uint32_t> parent_;
  std::vector<ObjectSet> pts_;
  std::vector<ObjectSet> delta_;
  std::vector<std::vector<uint32_t>> copy_out_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> load_edges_;   // p -> result var
  std::unordered_map<uint32_t, std::vector<uint32_t>> store_edges_;  // p -> value var
  std::unordered_map<uint32_t, std::vector<IndirectSite>> indirect_sites_;
  std::unordered_set<uint64_t> dynamic_edge_seen_;
  std::deque<uint32_t> worklist_;
  std::vector<bool> in_worklist_;
  size_t dynamic_edges_since_collapse_ = 0;
  size_t recollapse_threshold_ = 0;
};

void AndersenSolver::BindCallArguments(const ir::Function& caller, const ir::Instruction& call,
                                       const ir::Function& callee, size_t first_arg_operand) {
  for (size_t i = first_arg_operand; i < call.num_operands(); ++i) {
    const size_t param = i - first_arg_operand;
    if (param >= callee.num_params()) {
      break;
    }
    if (call.operand(i).IsReg()) {
      const uint32_t from = Var(caller.id(), call.operand(i).reg);
      const uint32_t to = Var(callee.id(), static_cast<ir::Reg>(param));
      AddCopyEdgeDynamic(from, to);
    }
  }
  if (call.HasResult()) {
    const uint32_t from = RetVar(callee.id());
    const uint32_t to = Var(caller.id(), call.result());
    AddCopyEdgeDynamic(from, to);
  }
}

void AndersenSolver::Unite(uint32_t a, uint32_t b) {
  parent_[b] = a;
  pts_[a].UnionWith(pts_[b]);
  pts_[b] = ObjectSet();
  delta_[b] = ObjectSet();
  if (copy_out_[a].empty()) {
    copy_out_[a] = std::move(copy_out_[b]);
  } else {
    copy_out_[a].insert(copy_out_[a].end(), copy_out_[b].begin(), copy_out_[b].end());
  }
  copy_out_[b].clear();
  copy_out_[b].shrink_to_fit();
  auto merge_map = [a, b](auto& map) {
    auto bit = map.find(b);
    if (bit == map.end()) {
      return;
    }
    auto& dst = map[a];
    dst.insert(dst.end(), bit->second.begin(), bit->second.end());
    map.erase(b);
  };
  merge_map(load_edges_);
  merge_map(store_edges_);
  merge_map(indirect_sites_);
  // The merged complex-edge lists have not all seen every object already in
  // the merged set (each side only expanded its own objects against its own
  // edges), so schedule a full re-expansion of the union.
  delta_[a] = pts_[a];
  Enqueue(a);
  ++result_.stats_.scc_vars_collapsed;
}

void AndersenSolver::CollapseCycles() {
  dynamic_edges_since_collapse_ = 0;
  const size_t folded_before = result_.stats_.scc_vars_collapsed;
  // Iterative Tarjan over the representative copy graph. SCCs are collected
  // first and united afterwards, so the traversal never observes a mutating
  // graph. Deterministic: roots ascend, edges kept in insertion order.
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> index(num_vars_, kNone);
  std::vector<uint32_t> lowlink(num_vars_, 0);
  std::vector<bool> on_stack(num_vars_, false);
  std::vector<uint32_t> stack;
  struct Frame {
    uint32_t v;
    size_t edge;
  };
  std::vector<Frame> dfs;
  std::vector<std::vector<uint32_t>> sccs;
  uint32_t next_index = 0;

  for (uint32_t root = 0; root < num_vars_; ++root) {
    if (Find(root) != root || index[root] != kNone || copy_out_[root].empty()) {
      continue;
    }
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (f.edge < copy_out_[f.v].size()) {
        const uint32_t w = Find(copy_out_[f.v][f.edge++]);
        if (w == f.v) {
          continue;
        }
        if (index[w] == kNone) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      const uint32_t v = f.v;
      if (lowlink[v] == index[v]) {
        std::vector<uint32_t> scc;
        for (;;) {
          const uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) {
            break;
          }
        }
        if (scc.size() > 1) {
          sccs.push_back(std::move(scc));
        }
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        lowlink[dfs.back().v] = std::min(lowlink[dfs.back().v], lowlink[v]);
      }
    }
  }

  for (std::vector<uint32_t>& scc : sccs) {
    // Lowest variable id becomes the representative (deterministic).
    const uint32_t rep = *std::min_element(scc.begin(), scc.end());
    for (const uint32_t v : scc) {
      if (v != rep) {
        Unite(rep, v);
      }
    }
  }

  // Fruitless passes double the re-collapse threshold: on acyclic copy
  // graphs (common for tight executed scopes) this caps wasted Tarjan work
  // at O(log) passes instead of one per threshold's worth of dynamic edges.
  if (result_.stats_.scc_vars_collapsed == folded_before) {
    recollapse_threshold_ *= 2;
  }

  // Re-point, dedupe and drop self edges so collapsed cycles stop costing
  // propagation work.
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (Find(v) != v || copy_out_[v].empty()) {
      continue;
    }
    std::vector<uint32_t>& edges = copy_out_[v];
    for (uint32_t& to : edges) {
      to = Find(to);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges.erase(std::remove(edges.begin(), edges.end(), v), edges.end());
  }
}

void AndersenSolver::Solve() {
  if (options_.collapse_sccs) {
    CollapseCycles();
  }
  while (!worklist_.empty()) {
    if (options_.collapse_sccs && dynamic_edges_since_collapse_ > recollapse_threshold_) {
      CollapseCycles();
    }
    const uint32_t v = Find(worklist_.front());
    worklist_.pop_front();
    in_worklist_[v] = false;
    if (delta_[v].Empty()) {
      continue;  // stale entry (drained via a merge or a duplicate enqueue)
    }
    ObjectSet d = std::move(delta_[v]);
    delta_[v] = ObjectSet();
    ++result_.stats_.solver_iterations;

    // Expand complex constraints for the newly-arrived objects only.
    const auto lit = load_edges_.find(v);
    const auto sit = store_edges_.find(v);
    const auto iit = indirect_sites_.find(v);
    if (lit != load_edges_.end() || sit != store_edges_.end() ||
        iit != indirect_sites_.end()) {
      d.ForEach([&](uint32_t obj) {
        const uint32_t ov = Find(ObjVar(obj));
        if (lit != load_edges_.end()) {
          for (const uint32_t result_var : lit->second) {
            AddCopyEdgeDynamic(ov, result_var);
          }
        }
        if (sit != store_edges_.end()) {
          for (const uint32_t value_var : sit->second) {
            AddCopyEdgeDynamic(value_var, ov);
          }
        }
        if (iit != indirect_sites_.end()) {
          const AbstractObject& o = result_.objects_[obj];
          if (o.kind == AbstractObject::Kind::kFunction) {
            const ir::Function* callee = module_.function(o.id);
            for (const IndirectSite& site : iit->second) {
              BindCallArguments(*site.caller, *site.call, *callee, 1);
            }
          }
        }
      });
    }

    // Propagate the delta along copy edges. Indexed loop: expansion above may
    // have appended edges (each already carries the full set, so propagating
    // d across them too is merely idempotent).
    for (size_t i = 0; i < copy_out_[v].size(); ++i) {
      const uint32_t to = Find(copy_out_[v][i]);
      if (to == v) {
        continue;
      }
      AddSetToVar(to, d);
      ++result_.stats_.delta_propagations;
    }
  }
}

PointsToResult AndersenSolver::Run() {
  const auto start = std::chrono::steady_clock::now();
  result_.module_ = &module_;

  // Adopt the shared graph's layout, objects, and tallies.
  result_.func_reg_base_ = graph_.func_reg_base;
  ret_var_base_ = graph_.ret_var_base;
  obj_var_base_ = graph_.obj_var_base;
  num_vars_ = graph_.num_vars;
  result_.objects_ = graph_.objects;
  result_.accesses_ = graph_.accesses;
  result_.stats_.instructions_analyzed = graph_.instructions_analyzed;
  result_.stats_.constraints = graph_.constraints;
  result_.stats_.variables = num_vars_;
  result_.stats_.objects = result_.objects_.size();

  parent_.resize(num_vars_);
  for (uint32_t v = 0; v < num_vars_; ++v) {
    parent_[v] = v;
  }
  pts_.resize(num_vars_);
  delta_.resize(num_vars_);
  copy_out_.resize(num_vars_);
  in_worklist_.assign(num_vars_, false);
  recollapse_threshold_ = std::max<size_t>(512, num_vars_ / 8);

  // Replay the graph into dense solver state. Copy edges are recorded only
  // (nothing has been drained yet, so every variable's full set still sits in
  // its delta and the first Solve() drain flows it); base constraints seed
  // the deltas and worklist in the graph's program order.
  for (const auto& [from, to] : graph_.copies) {
    copy_out_[from].push_back(to);
  }
  for (const auto& [ptr, result_var] : graph_.loads) {
    load_edges_[ptr].push_back(result_var);
  }
  for (const auto& [ptr, value_var] : graph_.stores) {
    store_edges_[ptr].push_back(value_var);
  }
  for (const IndirectSite& site : graph_.indirect_sites) {
    indirect_sites_[site.fp_var].push_back(site);
  }
  for (const auto& [var, obj] : graph_.bases) {
    AddObjToVar(var, obj);
  }

  Solve();

  result_.rep_.resize(num_vars_);
  for (uint32_t v = 0; v < num_vars_; ++v) {
    result_.rep_[v] = Find(v);
  }
  result_.var_pts_ = std::move(pts_);
  result_.BuildAccessorIndex();
  const auto end = std::chrono::steady_clock::now();
  result_.stats_.solve_seconds = std::chrono::duration<double>(end - start).count();
  return std::move(result_);
}

PointsToResult RunPointsTo(const ir::Module& module, const PointsToOptions& options) {
  const ConstraintGraph graph = BuildConstraintGraph(module, options);
  AndersenSolver solver(module, options, graph);
  return solver.Run();
}

}  // namespace snorlax::analysis
