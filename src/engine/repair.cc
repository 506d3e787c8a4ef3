#include "engine/repair.h"

#include <algorithm>
#include <map>

#include "support/check.h"
#include "support/str.h"

namespace snorlax::engine {

using ir::InstId;
using ir::Patch;
using ir::PatchEdit;
using ir::PatchGlobal;
using support::Result;
using support::Status;
using support::StatusCode;
using snorlax::StrFormat;

const char* RepairStatusName(RepairStatus status) {
  switch (status) {
    case RepairStatus::kUnsupported:
      return "unsupported";
    case RepairStatus::kBuilt:
      return "built";
    case RepairStatus::kValidated:
      return "validated";
    case RepairStatus::kRejected:
      return "rejected";
  }
  return "?";
}

size_t RepairPlan::ValidatedCount() const {
  size_t n = 0;
  for (const RepairCandidate& c : candidates) {
    if (c.status == RepairStatus::kValidated) {
      ++n;
    }
  }
  return n;
}

const RepairCandidate* RepairPlan::best() const {
  for (const RepairCandidate& c : candidates) {
    if (c.status == RepairStatus::kValidated) {
      return &c;
    }
  }
  for (const RepairCandidate& c : candidates) {
    if (c.status == RepairStatus::kBuilt) {
      return &c;
    }
  }
  return nullptr;
}

std::vector<size_t> ConfirmedPatternIndices(const std::vector<DiagnosedPattern>& scored,
                                            const RepairOptions& options) {
  std::vector<size_t> confirmed;
  if (scored.empty()) {
    return confirmed;
  }
  const double best = scored.front().f1;
  constexpr double kTieEpsilon = 1e-9;
  const size_t cap = options.max_patterns == 0 ? scored.size() : options.max_patterns;
  for (size_t i = 0; i < scored.size() && confirmed.size() < cap; ++i) {
    if (scored[i].f1 + kTieEpsilon < best || scored[i].f1 < options.min_f1) {
      break;  // scored is best-first: the tie tier is a prefix
    }
    confirmed.push_back(i);
  }
  return confirmed;
}

namespace {

// Fresh global name that cannot collide with the diagnosed module's globals.
std::string FreshGlobalName(const ir::Module& module, const char* base) {
  std::string name = base;
  for (int i = 0; module.FindGlobal(name) != nullptr; ++i) {
    name = StrFormat("%s_%d", base, i);
  }
  return name;
}

ir::FuncId FunctionOf(const ir::Module& module, InstId inst) {
  return module.instruction(inst)->parent()->parent()->id();
}

// Per-function event span, merged across thread slots when they overlap:
// two threads running the same code need one critical section, not nested
// acquires of the same (non-recursive) lock.
struct Span {
  InstId lo = ir::kInvalidInstId;
  InstId hi = ir::kInvalidInstId;
};

// Direct-call sites per callee, kInvalidInstId when a function cannot be
// lifted through: multiple call sites, or it is also a thread entry (then
// "the" enclosing caller does not exist).
std::map<ir::FuncId, InstId> UniqueDirectCallSites(const ir::Module& module) {
  std::map<ir::FuncId, InstId> sites;
  for (InstId i = 0; i < module.NumInstructions(); ++i) {
    const ir::Instruction* inst = module.instruction(i);
    const ir::Opcode op = inst->opcode();
    if (op != ir::Opcode::kCall && op != ir::Opcode::kThreadCreate) {
      continue;
    }
    auto [it, inserted] =
        sites.emplace(inst->callee(), op == ir::Opcode::kCall ? i : ir::kInvalidInstId);
    if (!inserted || op != ir::Opcode::kCall) {
      it->second = ir::kInvalidInstId;
    }
  }
  return sites;
}

// `inst` followed by the unique call sites of its enclosing functions,
// innermost first.
std::vector<InstId> LiftChain(const ir::Module& module,
                              const std::map<ir::FuncId, InstId>& sites, InstId inst) {
  std::vector<InstId> chain{inst};
  for (int depth = 0; depth < 8; ++depth) {
    const auto it = sites.find(FunctionOf(module, chain.back()));
    if (it == sites.end() || it->second == ir::kInvalidInstId) {
      break;
    }
    chain.push_back(it->second);
  }
  return chain;
}

// One lock-wrap anchor per pattern event. Accesses wrapped in single-call-
// site helper routines (the check in one helper, the use in another) would
// otherwise get one tiny critical section per helper -- mutual exclusion
// around each access separately, which does not restore atomicity *across*
// them. When a slot's events land in different functions, lift each to the
// call site of its helper until they share the innermost common function;
// the validator stays the oracle for whether the lifted span is the right
// one. Slots with no common function keep their raw anchors (per-helper
// spans beat nothing).
std::vector<InstId> LiftAnchors(const ir::Module& module, const BugPattern& pattern) {
  std::vector<InstId> anchors(pattern.events.size());
  std::map<uint8_t, std::vector<size_t>> by_slot;
  for (size_t i = 0; i < pattern.events.size(); ++i) {
    anchors[i] = pattern.events[i].inst;
    by_slot[pattern.events[i].thread_slot].push_back(i);
  }
  std::map<ir::FuncId, InstId> sites;
  bool sites_ready = false;
  for (const auto& [slot, idxs] : by_slot) {
    bool multi = false;
    for (size_t k = 1; k < idxs.size(); ++k) {
      multi |= FunctionOf(module, anchors[idxs[k]]) != FunctionOf(module, anchors[idxs[0]]);
    }
    if (!multi) {
      continue;
    }
    if (!sites_ready) {
      sites = UniqueDirectCallSites(module);
      sites_ready = true;
    }
    std::vector<std::vector<InstId>> chains;
    chains.reserve(idxs.size());
    for (size_t idx : idxs) {
      chains.push_back(LiftChain(module, sites, anchors[idx]));
    }
    for (InstId cand : chains[0]) {
      const ir::FuncId target = FunctionOf(module, cand);
      std::vector<InstId> lifted(idxs.size(), ir::kInvalidInstId);
      lifted[0] = cand;
      bool all = true;
      for (size_t k = 1; k < idxs.size() && all; ++k) {
        for (InstId link : chains[k]) {
          if (FunctionOf(module, link) == target) {
            lifted[k] = link;
            break;
          }
        }
        all &= lifted[k] != ir::kInvalidInstId;
      }
      if (all) {
        for (size_t k = 0; k < idxs.size(); ++k) {
          anchors[idxs[k]] = lifted[k];
        }
        break;
      }
    }
  }
  return anchors;
}

using SlotSpans = std::map<std::pair<uint8_t, ir::FuncId>, Span>;

// Collects each slot's per-function [min,max] InstId range over `anchors`.
// Intra-function InstId order is construction order, which tracks program
// order for the straight-line critical regions patterns name.
SlotSpans SpansFromAnchors(const ir::Module& module, const BugPattern& pattern,
                           const std::vector<InstId>& anchors) {
  SlotSpans slot_spans;
  for (size_t i = 0; i < pattern.events.size(); ++i) {
    const InstId anchor = anchors[i];
    Span& s = slot_spans[{pattern.events[i].thread_slot, FunctionOf(module, anchor)}];
    if (s.lo == ir::kInvalidInstId || anchor < s.lo) {
      s.lo = anchor;
    }
    if (s.hi == ir::kInvalidInstId || anchor > s.hi) {
      s.hi = anchor;
    }
  }
  return slot_spans;
}

// Wraps the spans (merged where they overlap) in one fresh lock.
Result<Patch> WrapSpans(const ir::Module& module, const SlotSpans& slot_spans,
                        const char* lock_base) {
  // Merge overlapping ranges within each function (drop the slot identity --
  // the lock is what enforces mutual exclusion, not the slot).
  std::map<ir::FuncId, std::vector<Span>> merged;
  for (const auto& [key, span] : slot_spans) {
    std::vector<Span>& ranges = merged[key.second];
    bool folded = false;
    for (Span& r : ranges) {
      if (span.lo <= r.hi && r.lo <= span.hi) {
        r.lo = std::min(r.lo, span.lo);
        r.hi = std::max(r.hi, span.hi);
        folded = true;
        break;
      }
    }
    if (!folded) {
      ranges.push_back(span);
    }
  }
  Patch patch;
  patch.globals.push_back(PatchGlobal{PatchGlobal::Kind::kLock,
                                      FreshGlobalName(module, lock_base)});
  for (auto& [func, ranges] : merged) {
    // A second merge round: folding span B into A can make A overlap C.
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < ranges.size() && !changed; ++i) {
        for (size_t j = i + 1; j < ranges.size() && !changed; ++j) {
          if (ranges[i].lo <= ranges[j].hi && ranges[j].lo <= ranges[i].hi) {
            ranges[i].lo = std::min(ranges[i].lo, ranges[j].lo);
            ranges[i].hi = std::max(ranges[i].hi, ranges[j].hi);
            ranges.erase(ranges.begin() + static_cast<ptrdiff_t>(j));
            changed = true;
          }
        }
      }
    }
    for (const Span& r : ranges) {
      if (module.instruction(r.hi)->IsTerminator()) {
        return Status::Error(StatusCode::kInvalidArgument,
                             StrFormat("cannot release after terminator inst %u", r.hi));
      }
      patch.edits.push_back(PatchEdit{PatchEdit::Kind::kAcquireBefore, r.lo, 0, 0});
      patch.edits.push_back(PatchEdit{PatchEdit::Kind::kReleaseAfter, r.hi, 0, 0});
    }
  }
  if (patch.edits.empty()) {
    return Status::Error(StatusCode::kInvalidArgument, "pattern has no wrappable events");
  }
  return patch;
}

Result<Patch> BuildLockWrapPatch(const ir::Module& module, const BugPattern& pattern,
                                 const char* lock_base) {
  for (const PatternEvent& e : pattern.events) {
    if (e.inst >= module.NumInstructions()) {
      return Status::Error(StatusCode::kInvalidArgument,
                           StrFormat("pattern event inst %u out of range", e.inst));
    }
  }
  const std::vector<InstId> anchors = LiftAnchors(module, pattern);
  return WrapSpans(module, SpansFromAnchors(module, pattern, anchors), lock_base);
}

// Caller-region variants for patterns whose anchors collapse to a single
// instruction inside a shared helper: when the same static access races with
// itself (a check and a use both reading through one fetch routine), the
// helper-local wrap is a lock around one load -- mutual exclusion around
// nothing. The enclosing caller cannot be named statically (the helper has
// many call sites), so propose one variant per caller holding >= 2 call
// sites of the helper -- wrapping [first..last] of those sites restores
// atomicity across the caller's whole check-then-use region -- and let the
// validator pick the one that kills the bug.
void AppendCallerRegionVariants(const ir::Module& module, const BugPattern& pattern,
                                const char* lock_base, std::vector<Patch>* out) {
  for (const PatternEvent& e : pattern.events) {
    if (e.inst >= module.NumInstructions()) {
      return;
    }
  }
  const std::vector<InstId> anchors = LiftAnchors(module, pattern);
  const SlotSpans spans = SpansFromAnchors(module, pattern, anchors);
  // A span is collapsed when >= 2 of its slot's events landed on one single
  // instruction -- the check and the use are the same static access. Spans
  // holding a single event (the mutator's lone store) are singletons by
  // nature, not collapsed.
  std::map<std::pair<uint8_t, ir::FuncId>, size_t> events_in_span;
  for (size_t i = 0; i < pattern.events.size(); ++i) {
    ++events_in_span[{pattern.events[i].thread_slot, FunctionOf(module, anchors[i])}];
  }
  const std::pair<uint8_t, ir::FuncId>* troubled = nullptr;
  for (const auto& [key, span] : spans) {
    if (span.lo == span.hi && events_in_span[key] >= 2) {
      if (troubled != nullptr) {
        return;  // two collapsed slots: the variant space is combinatorial
      }
      troubled = &key;
    }
  }
  if (troubled == nullptr) {
    return;
  }
  // Direct call sites of the collapsed slot's function, by caller. Helper
  // chains (fetch wrapped in wrappers wrapped in wrappers) put the >= 2-site
  // caller several levels up, with exactly one call site per intermediate
  // level -- walk up while that holds.
  ir::FuncId helper = troubled->second;
  std::map<ir::FuncId, std::vector<InstId>> by_caller;
  for (int depth = 0; depth < 8; ++depth) {
    by_caller.clear();
    size_t total_sites = 0;
    for (InstId i = 0; i < module.NumInstructions(); ++i) {
      const ir::Instruction* inst = module.instruction(i);
      if (inst->opcode() == ir::Opcode::kCall && inst->callee() == helper) {
        by_caller[FunctionOf(module, i)].push_back(i);
        ++total_sites;
      }
    }
    bool any_multi = false;
    for (const auto& [caller, sites] : by_caller) {
      any_multi |= sites.size() >= 2;
    }
    if (any_multi) {
      break;
    }
    if (total_sites != 1) {
      return;  // no caller region to widen into
    }
    helper = FunctionOf(module, by_caller.begin()->second.front());
  }
  size_t emitted = 0;
  for (const auto& [caller, sites] : by_caller) {
    if (sites.size() < 2 || emitted >= 4) {
      continue;
    }
    SlotSpans variant = spans;
    variant.erase(*troubled);
    variant[{troubled->first, caller}] =
        Span{*std::min_element(sites.begin(), sites.end()),
             *std::max_element(sites.begin(), sites.end())};
    if (Result<Patch> patch = WrapSpans(module, variant, lock_base); patch.ok()) {
      out->push_back(patch.take());
      ++emitted;
    }
  }
}

Result<Patch> BuildOrderPatch(const ir::Module& module, const BugPattern& pattern) {
  if (!pattern.ordered) {
    return Status::Error(StatusCode::kFailedPrecondition,
                         "order violation with unordered events: cannot orient the fix");
  }
  if (pattern.events.size() < 2) {
    return Status::Error(StatusCode::kInvalidArgument, "order pattern with < 2 events");
  }
  const InstId early = pattern.events.front().inst;  // the event that must wait
  const InstId use = pattern.events.back().inst;     // the victim's access
  if (early >= module.NumInstructions() || use >= module.NumInstructions()) {
    return Status::Error(StatusCode::kInvalidArgument, "pattern event inst out of range");
  }
  const ir::FuncId victim_func = FunctionOf(module, use);
  if (FunctionOf(module, early) == victim_func) {
    return Status::Error(StatusCode::kFailedPrecondition,
                         "both events in one function: wait would delay the victim too");
  }
  Patch patch;
  patch.globals.push_back(PatchGlobal{PatchGlobal::Kind::kFlag,
                                      FreshGlobalName(module, "snorlax_fix_done")});
  // The victim is done with the resource when its routine returns: signal
  // there (before every return), and hold the too-early event until then.
  const ir::Function* f = module.function(victim_func);
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kRet) {
        patch.edits.push_back(PatchEdit{PatchEdit::Kind::kSignalBefore, inst->id(), 0, 0});
      }
    }
  }
  if (patch.edits.empty()) {
    return Status::Error(StatusCode::kInvalidArgument, "victim function never returns");
  }
  // 2s of virtual time: longer than any workload's full schedule, so a
  // correct fix never times the wait out, while a wrong one still degrades
  // to the original racy ordering instead of hanging.
  patch.edits.push_back(PatchEdit{PatchEdit::Kind::kWaitBefore, early, 0, 2'000'000});
  return patch;
}

}  // namespace

Result<Patch> BuildPatchForPattern(const ir::Module& module, const BugPattern& pattern) {
  if (pattern.events.empty()) {
    return Status::Error(StatusCode::kInvalidArgument, "pattern with no events");
  }
  switch (pattern.kind) {
    case PatternKind::kDeadlock:
      // Gate lock around each thread's hold->attempt span: no thread blocks
      // on an inner lock while another is mid-sequence, so no cycle.
      return BuildLockWrapPatch(module, pattern, "snorlax_fix_gate");
    case PatternKind::kAtomicityRWR:
    case PatternKind::kAtomicityWWR:
    case PatternKind::kAtomicityRWW:
    case PatternKind::kAtomicityWRW:
      return BuildLockWrapPatch(module, pattern, "snorlax_fix_lock");
    case PatternKind::kOrderViolationWR:
    case PatternKind::kOrderViolationRW:
    case PatternKind::kOrderViolationWW:
      return BuildOrderPatch(module, pattern);
  }
  return Status::Error(StatusCode::kInvalidArgument, "unknown pattern kind");
}

Result<std::vector<Patch>> BuildPatchVariants(const ir::Module& module,
                                              const BugPattern& pattern) {
  Result<Patch> primary = BuildPatchForPattern(module, pattern);
  std::vector<Patch> variants;
  if (primary.ok()) {
    variants.push_back(primary.take());
  }
  switch (pattern.kind) {
    case PatternKind::kDeadlock:
    case PatternKind::kAtomicityRWR:
    case PatternKind::kAtomicityWWR:
    case PatternKind::kAtomicityRWW:
    case PatternKind::kAtomicityWRW: {
      const char* base =
          pattern.kind == PatternKind::kDeadlock ? "snorlax_fix_gate" : "snorlax_fix_lock";
      AppendCallerRegionVariants(module, pattern, base, &variants);
      break;
    }
    case PatternKind::kOrderViolationWR:
    case PatternKind::kOrderViolationRW:
    case PatternKind::kOrderViolationWW:
      break;  // the flag-wait form has no span to re-anchor
  }
  if (variants.empty()) {
    return primary.status();
  }
  return variants;
}

RepairPlan BuildRepairPlan(const ir::Module& module,
                           const std::vector<DiagnosedPattern>& scored,
                           rt::FailureKind target, const RepairOptions& options) {
  RepairPlan plan;
  plan.target = target;
  const std::vector<size_t> confirmed = ConfirmedPatternIndices(scored, options);
  plan.confirmed_patterns = confirmed.size();
  for (size_t idx : confirmed) {
    const DiagnosedPattern& dp = scored[idx];
    Result<std::vector<Patch>> variants = BuildPatchVariants(module, dp.pattern);
    if (!variants.ok()) {
      RepairCandidate c;
      c.pattern = dp.pattern;
      c.f1 = dp.f1;
      c.status = RepairStatus::kUnsupported;
      c.note = variants.status().message();
      plan.candidates.push_back(std::move(c));
      continue;
    }
    for (Patch& patch : variants.value()) {
      RepairCandidate c;
      c.pattern = dp.pattern;
      c.f1 = dp.f1;
      c.patch = std::move(patch);
      c.status = RepairStatus::kBuilt;
      if (options.validate &&
          !(options.stop_on_validated && plan.HasValidatedFix())) {
        rt::RepairTrialOptions trial;
        trial.entry = options.entry;
        trial.interp = options.interp;
        trial.jitter_bands = options.jitter_bands;
        trial.seeds_per_band = options.seeds_per_band;
        trial.first_seed = options.first_seed;
        trial.min_baseline_failures = options.min_baseline_failures;
        trial.max_seeds_per_band = options.max_seeds_per_band;
        trial.max_overhead_ratio = options.max_overhead_ratio;
        const rt::RepairVerdict verdict = rt::ValidateRepair(module, c.patch, target, trial);
        c.runs_per_module = verdict.runs_per_module;
        c.baseline_failures = verdict.baseline_failures;
        c.recurrences = verdict.recurrences;
        c.new_failures = verdict.new_failures;
        c.overhead_ratio = verdict.overhead_ratio;
        c.status = verdict.validated ? RepairStatus::kValidated : RepairStatus::kRejected;
        c.note = verdict.detail;
      }
      plan.candidates.push_back(std::move(c));
    }
  }
  return plan;
}

}  // namespace snorlax::engine
