#include "engine/artifact_codec.h"

#include <algorithm>
#include <utility>

#include "support/str.h"

namespace snorlax {

namespace {

using support::AppendF64;
using support::AppendString;
using support::AppendU32;
using support::AppendU64;
using support::AppendU8;
using support::AppendVarint;
using support::ByteReader;
using support::Status;
using support::StatusCode;

// Varint-encoded element count with the same hostile-input posture as
// ByteReader::Count(): capped, and never promising more elements than bytes
// remain (every element below is at least one byte).
size_t ReadCount(ByteReader* r, size_t max = support::kMaxVectorElements) {
  const uint64_t n = r->Varint();
  if (!r->ok()) {
    return 0;
  }
  if (n > max) {
    r->MarkCorrupt("element count over cap");
    return 0;
  }
  if (n > r->remaining()) {
    r->MarkCorrupt("element count exceeds remaining bytes");
    return 0;
  }
  return static_cast<size_t>(n);
}

// Leading codec version byte; a mismatch is version skew, not corruption.
bool ReadVersion(ByteReader* r, Status* bad) {
  const uint8_t v = r->U8();
  if (!r->ok()) {
    *bad = r->status();
    return false;
  }
  if (v != engine::kArtifactCodecVersion) {
    *bad = Status::Error(StatusCode::kVersionMismatch,
                         snorlax::StrFormat("artifact codec version %u, expected %u",
                                            v, engine::kArtifactCodecVersion));
    return false;
  }
  return true;
}

// Instruction ids are bounds-checked before touching the module's dense
// index: a record from a different module build must reject cleanly.
const ir::Instruction* ResolveInst(ByteReader* r, const ir::Module* module,
                                   uint32_t id) {
  if (!r->ok()) {
    return nullptr;
  }
  if (module == nullptr || id >= module->NumInstructions()) {
    r->MarkCorrupt("instruction id out of range for module");
    return nullptr;
  }
  return module->instruction(id);
}

// --- rt::Value ---------------------------------------------------------------

void EncodeValue(const rt::Value& v, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(v.kind));
  AppendU64(out, static_cast<uint64_t>(v.ival));
  AppendU32(out, v.obj);
  AppendU32(out, v.off);
}

// --- rt::FailureInfo ---------------------------------------------------------

void EncodeFailure(const rt::FailureInfo& f, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(f.kind));
  AppendU32(out, f.failing_inst);
  AppendU32(out, f.thread);
  EncodeValue(f.operand, out);
  AppendU64(out, f.time_ns);
  AppendVarint(out, f.deadlock_cycle.size());
  for (const auto& w : f.deadlock_cycle) {
    AppendU32(out, w.thread);
    AppendU32(out, w.inst);
    AppendU64(out, w.block_time_ns);
  }
  AppendString(out, f.description);
}

// --- trace::DegradationReport ------------------------------------------------

void EncodeDegradation(const trace::DegradationReport& d,
                       std::vector<uint8_t>* out) {
  AppendVarint(out, d.threads_total);
  AppendVarint(out, d.threads_dropped);
  AppendVarint(out, d.decode_errors);
  AppendVarint(out, d.stream_resyncs);
  AppendVarint(out, d.clock_anomalies);
  AppendVarint(out, d.sanitized_failure_fields);
  AppendVarint(out, d.rejected_bundles);
  uint8_t flags = 0;
  flags |= d.lost_prefix ? 1u : 0u;
  flags |= d.timestamps_unreliable ? 2u : 0u;
  flags |= d.hypothesis_fallback ? 4u : 0u;
  flags |= d.slice_fallback ? 8u : 0u;
  flags |= d.failure_record_unusable ? 16u : 0u;
  AppendU8(out, flags);
  AppendVarint(out, d.notes.size());
  for (const auto& note : d.notes) {
    AppendString(out, note);
  }
}

// --- analysis::ObjectSet -----------------------------------------------------
// Ascending elements, delta-varint encoded: points-to sets are clustered, so
// deltas are short.

void EncodeObjectSet(const analysis::ObjectSet& s, std::vector<uint8_t>* out) {
  AppendVarint(out, s.Count());
  uint32_t prev = 0;
  bool first = true;
  s.ForEach([&](uint32_t elem) {
    AppendVarint(out, first ? elem : elem - prev);
    prev = elem;
    first = false;
  });
}

void DecodeObjectSet(ByteReader* r, analysis::ObjectSet* out) {
  const size_t n = ReadCount(r);
  uint32_t prev = 0;
  for (size_t i = 0; i < n && r->ok(); ++i) {
    const uint64_t delta = r->Varint();
    const uint64_t v = (i == 0 ? delta : static_cast<uint64_t>(prev) + delta);
    if (v > UINT32_MAX) {
      r->MarkCorrupt("object index overflow");
      return;
    }
    prev = static_cast<uint32_t>(v);
    out->Set(prev);
  }
}

// --- engine::BugPattern ------------------------------------------------------

void EncodePattern(const engine::BugPattern& p, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(p.kind));
  AppendVarint(out, p.events.size());
  for (const auto& e : p.events) {
    AppendU32(out, e.inst);
    AppendU8(out, e.thread_slot);
    AppendU8(out, e.thread_final ? 1 : 0);
  }
  AppendU8(out, p.ordered ? 1 : 0);
}

void DecodePattern(ByteReader* r, engine::BugPattern* out) {
  const uint8_t kind = r->U8();
  const size_t n = ReadCount(r);
  out->events.clear();
  out->events.reserve(n);
  for (size_t i = 0; i < n && r->ok(); ++i) {
    engine::PatternEvent e;
    e.inst = r->U32();
    e.thread_slot = r->U8();
    e.thread_final = r->U8() != 0;
    out->events.push_back(e);
  }
  out->ordered = r->U8() != 0;
  if (!r->ok()) {
    return;
  }
  if (kind > static_cast<uint8_t>(engine::PatternKind::kAtomicityWRW)) {
    r->MarkCorrupt("pattern kind out of range");
    return;
  }
  out->kind = static_cast<engine::PatternKind>(kind);
}

// --- engine::RankedCandidatesArtifact body -----------------------------------
// Shared between the standalone artifact and PatternSet's nested copy.

void EncodeRankedBody(const engine::RankedCandidatesArtifact& a,
                      std::vector<uint8_t>* out) {
  AppendVarint(out, a.ranked.size());
  for (const auto& ri : a.ranked) {
    AppendU32(out, ri.inst != nullptr ? ri.inst->id() : ir::kInvalidInstId);
    AppendVarint(out, support::ZigzagEncode(ri.rank));
  }
  AppendVarint(out, a.candidate_instructions);
  AppendVarint(out, a.rank1_candidates);
}

void DecodeRankedBody(ByteReader* r, const ir::Module* module,
                      engine::RankedCandidatesArtifact* out) {
  const size_t n = ReadCount(r);
  out->ranked.clear();
  out->ranked.reserve(n);
  for (size_t i = 0; i < n && r->ok(); ++i) {
    analysis::RankedInstruction ri;
    const uint32_t id = r->U32();
    ri.rank = static_cast<int>(support::ZigzagDecode(r->Varint()));
    ri.inst = ResolveInst(r, module, id);
    if (!r->ok()) {
      return;
    }
    out->ranked.push_back(ri);
  }
  out->candidate_instructions = static_cast<size_t>(r->Varint());
  out->rank1_candidates = static_cast<size_t>(r->Varint());
}

}  // namespace

}  // namespace snorlax

// --- analysis::PointsToResult serializer -------------------------------------
// Defined here (not in analysis/) so the analysis layer stays free of any
// serialization concern; the friend declaration in points_to.h names this
// struct.

namespace snorlax::analysis {

struct PointsToSerDes {
  static void Encode(const PointsToResult& r, std::vector<uint8_t>* out) {
    using support::AppendF64;
    using support::AppendU32;
    using support::AppendU8;
    using support::AppendVarint;
    AppendVarint(out, r.objects_.size());
    for (const auto& obj : r.objects_) {
      AppendU8(out, static_cast<uint8_t>(obj.kind));
      AppendU32(out, obj.id);
    }
    // Storage mode byte: 0 = dense (exhaustive tier: per-rep sets + union-find
    // table), 1 = sparse (demand tier: only the queried variables carry sets).
    AppendU8(out, r.sparse_ ? 1 : 0);
    if (r.sparse_) {
      // Explicit variable-count bound (no rep_ table exists to infer it from).
      AppendVarint(out, r.stats_.variables);
      std::vector<uint32_t> vars;
      vars.reserve(r.sparse_pts_.size());
      for (const auto& [var, set] : r.sparse_pts_) {
        vars.push_back(var);
      }
      std::sort(vars.begin(), vars.end());  // deterministic bytes
      AppendVarint(out, vars.size());
      for (const uint32_t var : vars) {
        AppendVarint(out, var);
        snorlax::EncodeObjectSet(r.sparse_pts_.at(var), out);
      }
    } else {
      AppendVarint(out, r.var_pts_.size());
      for (const auto& set : r.var_pts_) {
        snorlax::EncodeObjectSet(set, out);
      }
      AppendVarint(out, r.rep_.size());
      for (uint32_t rep : r.rep_) {
        AppendVarint(out, rep);
      }
    }
    AppendVarint(out, r.func_reg_base_.size());
    for (uint32_t base : r.func_reg_base_) {
      AppendVarint(out, base);
    }
    AppendVarint(out, r.accesses_.size());
    for (const auto& [inst, var] : r.accesses_) {
      AppendU32(out, inst->id());
      AppendVarint(out, var);
    }
    AppendVarint(out, r.stats_.instructions_analyzed);
    AppendVarint(out, r.stats_.constraints);
    AppendVarint(out, r.stats_.variables);
    AppendVarint(out, r.stats_.objects);
    AppendVarint(out, r.stats_.solver_iterations);
    AppendVarint(out, r.stats_.scc_vars_collapsed);
    AppendVarint(out, r.stats_.delta_propagations);
    AppendF64(out, r.stats_.solve_seconds);
    AppendU8(out, r.stats_.answered_by_demand ? 1 : 0);
    AppendVarint(out, r.stats_.demand_queries);
    AppendVarint(out, r.stats_.demand_nodes_visited);
    AppendU8(out, r.stats_.demand_budget_fallback ? 1 : 0);
  }

  static void Decode(support::ByteReader* r, const ir::Module* module,
                     PointsToResult* out) {
    out->module_ = module;
    const size_t objects = snorlax::ReadCount(r);
    out->objects_.clear();
    out->objects_.reserve(objects);
    for (size_t i = 0; i < objects && r->ok(); ++i) {
      AbstractObject obj;
      const uint8_t kind = r->U8();
      obj.id = r->U32();
      if (r->ok() && kind > static_cast<uint8_t>(AbstractObject::Kind::kFunction)) {
        r->MarkCorrupt("abstract object kind out of range");
        return;
      }
      obj.kind = static_cast<AbstractObject::Kind>(kind);
      out->objects_.push_back(obj);
    }
    const uint8_t mode = r->U8();
    if (r->ok() && mode > 1) {
      r->MarkCorrupt("points-to storage mode out of range");
      return;
    }
    out->sparse_ = mode == 1;
    out->var_pts_.clear();
    out->rep_.clear();
    out->sparse_pts_.clear();
    // The variable-count bound that access vars are validated against below:
    // the rep_ table size in dense mode, the explicit count in sparse mode.
    size_t var_bound = 0;
    if (out->sparse_) {
      var_bound = snorlax::ReadCount(r);
      const size_t queried = snorlax::ReadCount(r, var_bound);
      for (size_t i = 0; i < queried && r->ok(); ++i) {
        const uint64_t var = r->Varint();
        if (r->ok() && var >= var_bound) {
          r->MarkCorrupt("sparse points-to variable out of range");
          return;
        }
        snorlax::DecodeObjectSet(r, &out->sparse_pts_[static_cast<uint32_t>(var)]);
      }
    } else {
      const size_t vars = snorlax::ReadCount(r);
      out->var_pts_.resize(vars);
      for (size_t i = 0; i < vars && r->ok(); ++i) {
        snorlax::DecodeObjectSet(r, &out->var_pts_[i]);
      }
      const size_t reps = snorlax::ReadCount(r);
      out->rep_.reserve(reps);
      for (size_t i = 0; i < reps && r->ok(); ++i) {
        const uint64_t rep = r->Varint();
        if (r->ok() && rep >= vars) {
          r->MarkCorrupt("union-find representative out of range");
          return;
        }
        out->rep_.push_back(static_cast<uint32_t>(rep));
      }
      var_bound = reps;
    }
    const size_t bases = snorlax::ReadCount(r);
    out->func_reg_base_.clear();
    out->func_reg_base_.reserve(bases);
    for (size_t i = 0; i < bases && r->ok(); ++i) {
      out->func_reg_base_.push_back(static_cast<uint32_t>(r->Varint()));
    }
    const size_t accesses = snorlax::ReadCount(r);
    out->accesses_.clear();
    out->accesses_.reserve(accesses);
    for (size_t i = 0; i < accesses && r->ok(); ++i) {
      const uint32_t id = r->U32();
      const uint64_t var = r->Varint();
      const ir::Instruction* inst = snorlax::ResolveInst(r, module, id);
      if (r->ok() && var >= var_bound) {
        r->MarkCorrupt("access variable out of range");
        return;
      }
      if (!r->ok()) {
        return;
      }
      out->accesses_.emplace_back(inst, static_cast<uint32_t>(var));
    }
    out->stats_.instructions_analyzed = static_cast<size_t>(r->Varint());
    out->stats_.constraints = static_cast<size_t>(r->Varint());
    out->stats_.variables = static_cast<size_t>(r->Varint());
    out->stats_.objects = static_cast<size_t>(r->Varint());
    out->stats_.solver_iterations = static_cast<size_t>(r->Varint());
    out->stats_.scc_vars_collapsed = static_cast<size_t>(r->Varint());
    out->stats_.delta_propagations = static_cast<size_t>(r->Varint());
    out->stats_.solve_seconds = r->F64();
    out->stats_.answered_by_demand = r->U8() != 0;
    out->stats_.demand_queries = static_cast<size_t>(r->Varint());
    out->stats_.demand_nodes_visited = static_cast<size_t>(r->Varint());
    out->stats_.demand_budget_fallback = r->U8() != 0;
    if (r->ok()) {
      // AccessorsOf reads the object->accessor inverted index, which is
      // derived state the wire format deliberately omits.
      out->BuildAccessorIndex();
    }
  }
};

}  // namespace snorlax::analysis

// --- trace::ProcessedTrace encoder ------------------------------------------
// The trace-sized evidence journal encoding that wire bundles replaced. No
// server path writes it; the benchmark harness replays it as the cost of the
// retired durable append, and nothing decodes it.

namespace snorlax::trace {

struct TraceSerDes {
  static void Encode(const ProcessedTrace& t, std::vector<uint8_t>* out) {
    using support::AppendString;
    using support::AppendU32;
    using support::AppendU64;
    using support::AppendU8;
    using support::AppendVarint;
    AppendVarint(out, t.options_.order_granularity_ns);
    // Unordered containers are sorted so equal traces encode to equal bytes.
    std::vector<ir::InstId> executed(t.executed_.begin(), t.executed_.end());
    std::sort(executed.begin(), executed.end());
    AppendVarint(out, executed.size());
    uint32_t prev = 0;
    for (size_t i = 0; i < executed.size(); ++i) {
      AppendVarint(out, i == 0 ? executed[i] : executed[i] - prev);
      prev = executed[i];
    }
    const size_t n = t.col_inst_.size();
    AppendVarint(out, n);
    for (size_t i = 0; i < n; ++i) AppendVarint(out, t.col_inst_[i]);
    for (size_t i = 0; i < n; ++i) AppendVarint(out, t.col_thread_[i]);
    for (size_t i = 0; i < n; ++i) AppendVarint(out, t.col_seq_[i]);
    for (size_t i = 0; i < n; ++i) AppendVarint(out, t.col_ts_lo_[i]);
    for (size_t i = 0; i < n; ++i) AppendVarint(out, t.col_ts_[i]);
    for (size_t i = 0; i < n; ++i) AppendU8(out, t.col_flags_[i]);
    AppendVarint(out, t.postings_.size());
    for (uint32_t p : t.postings_) AppendVarint(out, p);
    AppendVarint(out, t.index_inst_.size());
    prev = 0;
    for (size_t i = 0; i < t.index_inst_.size(); ++i) {
      AppendVarint(out, i == 0 ? t.index_inst_[i] : t.index_inst_[i] - prev);
      prev = t.index_inst_[i];
    }
    AppendVarint(out, t.index_offset_.size());
    for (uint32_t o : t.index_offset_) AppendVarint(out, o);
    std::vector<std::pair<rt::ThreadId, uint32_t>> last_seq(t.last_seq_.begin(),
                                                            t.last_seq_.end());
    std::sort(last_seq.begin(), last_seq.end());
    AppendVarint(out, last_seq.size());
    for (const auto& [thread, seq] : last_seq) {
      AppendVarint(out, thread);
      AppendVarint(out, seq);
    }
    snorlax::EncodeFailure(t.failure_, out);
    AppendU32(out, t.failing_index_);
    AppendU8(out, t.lost_prefix_ ? 1 : 0);
    AppendVarint(out, t.decode_errors_.size());
    for (const auto& err : t.decode_errors_) {
      AppendString(out, err);
    }
    AppendVarint(out, t.threads_in_trace_);
    std::vector<rt::ThreadId> suspects(t.clock_suspect_threads_.begin(),
                                       t.clock_suspect_threads_.end());
    std::sort(suspects.begin(), suspects.end());
    AppendVarint(out, suspects.size());
    for (rt::ThreadId thread : suspects) {
      AppendVarint(out, thread);
    }
    snorlax::EncodeDegradation(t.degradation_, out);
  }
};

}  // namespace snorlax::trace

// --- engine entry points -----------------------------------------------------

namespace snorlax::engine {

void EncodeExecutedSet(const ExecutedSetArtifact& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendU64(out, a.content_hash);
  AppendVarint(out, a.size);
}

support::Status DecodeExecutedSet(std::span<const uint8_t> bytes,
                                  ExecutedSetArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  out->content_hash = r.U64();
  out->size = static_cast<size_t>(r.Varint());
  return r.ExpectExhausted();
}

void EncodeDerefChains(const DerefChainsArtifact& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendVarint(out, a.chain.size());
  for (const ir::Instruction* inst : a.chain) {
    AppendU32(out, inst->id());
  }
}

support::Status DecodeDerefChains(std::span<const uint8_t> bytes,
                                  const ir::Module* module,
                                  DerefChainsArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  const size_t n = ReadCount(&r);
  out->chain.clear();
  out->chain.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    const ir::Instruction* inst = ResolveInst(&r, module, r.U32());
    if (r.ok()) {
      out->chain.push_back(inst);
    }
  }
  return r.ExpectExhausted();
}

void EncodePointsTo(const PointsToArtifact& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendU8(out, a.result != nullptr ? 1 : 0);
  if (a.result != nullptr) {
    analysis::PointsToSerDes::Encode(*a.result, out);
  }
  EncodeObjectSet(a.seed, out);
}

support::Status DecodePointsTo(std::span<const uint8_t> bytes,
                               const ir::Module* module, PointsToArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  const bool has_result = r.U8() != 0;
  if (has_result) {
    auto result = std::make_shared<analysis::PointsToResult>();
    analysis::PointsToSerDes::Decode(&r, module, result.get());
    out->result = std::move(result);
  } else {
    out->result.reset();
  }
  DecodeObjectSet(&r, &out->seed);
  return r.ExpectExhausted();
}

void EncodeRankedCandidates(const RankedCandidatesArtifact& a,
                            std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  EncodeRankedBody(a, out);
}

support::Status DecodeRankedCandidates(std::span<const uint8_t> bytes,
                                       const ir::Module* module,
                                       RankedCandidatesArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  DecodeRankedBody(&r, module, out);
  return r.ExpectExhausted();
}

void EncodePatternSet(const PatternSetArtifact& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendVarint(out, a.patterns.size());
  for (const auto& p : a.patterns) {
    EncodePattern(p, out);
  }
  AppendU8(out, a.hypothesis_violated ? 1 : 0);
  AppendU8(out, a.used_slice_fallback ? 1 : 0);
  EncodeRankedBody(a.effective_ranked, out);
}

support::Status DecodePatternSet(std::span<const uint8_t> bytes,
                                 const ir::Module* module,
                                 PatternSetArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  const size_t n = ReadCount(&r);
  out->patterns.clear();
  out->patterns.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    BugPattern p;
    DecodePattern(&r, &p);
    out->patterns.push_back(std::move(p));
  }
  out->hypothesis_violated = r.U8() != 0;
  out->used_slice_fallback = r.U8() != 0;
  DecodeRankedBody(&r, module, &out->effective_ranked);
  return r.ExpectExhausted();
}

void EncodeF1Scores(const F1ScoresArtifact& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendVarint(out, a.scored.size());
  for (const auto& d : a.scored) {
    EncodePattern(d.pattern, out);
    AppendF64(out, d.precision);
    AppendF64(out, d.recall);
    AppendF64(out, d.f1);
    AppendVarint(out, d.counts.true_positive);
    AppendVarint(out, d.counts.false_positive);
    AppendVarint(out, d.counts.false_negative);
  }
  AppendVarint(out, a.top_f1_patterns);
}

support::Status DecodeF1Scores(std::span<const uint8_t> bytes,
                               F1ScoresArtifact* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  const size_t n = ReadCount(&r);
  out->scored.clear();
  out->scored.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    DiagnosedPattern d;
    DecodePattern(&r, &d.pattern);
    d.precision = r.F64();
    d.recall = r.F64();
    d.f1 = r.F64();
    d.counts.true_positive = r.Varint();
    d.counts.false_positive = r.Varint();
    d.counts.false_negative = r.Varint();
    out->scored.push_back(std::move(d));
  }
  out->top_f1_patterns = static_cast<size_t>(r.Varint());
  return r.ExpectExhausted();
}

void EncodeRepairPlan(const RepairPlan& a, std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  AppendU8(out, static_cast<uint8_t>(a.target));
  AppendVarint(out, a.confirmed_patterns);
  AppendVarint(out, a.candidates.size());
  for (const RepairCandidate& c : a.candidates) {
    EncodePattern(c.pattern, out);
    AppendF64(out, c.f1);
    AppendVarint(out, c.patch.globals.size());
    for (const ir::PatchGlobal& g : c.patch.globals) {
      AppendU8(out, static_cast<uint8_t>(g.kind));
      AppendString(out, g.name);
    }
    AppendVarint(out, c.patch.edits.size());
    for (const ir::PatchEdit& e : c.patch.edits) {
      AppendU8(out, static_cast<uint8_t>(e.kind));
      AppendU32(out, e.anchor);
      AppendVarint(out, e.global);
      AppendVarint(out, static_cast<uint64_t>(e.spin_bound));
    }
    AppendU8(out, static_cast<uint8_t>(c.status));
    AppendVarint(out, c.runs_per_module);
    AppendVarint(out, c.baseline_failures);
    AppendVarint(out, c.recurrences);
    AppendVarint(out, c.new_failures);
    AppendF64(out, c.overhead_ratio);
    AppendString(out, c.note);
  }
}

support::Status DecodeRepairPlan(std::span<const uint8_t> bytes,
                                 const ir::Module* module, RepairPlan* out) {
  ByteReader r(bytes);
  Status bad;
  if (!ReadVersion(&r, &bad)) {
    return bad;
  }
  const uint8_t target = r.U8();
  if (r.ok() && target > static_cast<uint8_t>(rt::FailureKind::kTimeout)) {
    r.MarkCorrupt("failure kind out of range");
  }
  out->target = static_cast<rt::FailureKind>(target);
  out->confirmed_patterns = static_cast<size_t>(r.Varint());
  const size_t n = ReadCount(&r);
  out->candidates.clear();
  out->candidates.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    RepairCandidate c;
    DecodePattern(&r, &c.pattern);
    c.f1 = r.F64();
    const size_t num_globals = ReadCount(&r);
    for (size_t g = 0; g < num_globals && r.ok(); ++g) {
      ir::PatchGlobal pg;
      const uint8_t kind = r.U8();
      if (r.ok() && kind > static_cast<uint8_t>(ir::PatchGlobal::Kind::kFlag)) {
        r.MarkCorrupt("patch global kind out of range");
        break;
      }
      pg.kind = static_cast<ir::PatchGlobal::Kind>(kind);
      pg.name = r.String();
      c.patch.globals.push_back(std::move(pg));
    }
    const size_t num_edits = ReadCount(&r);
    for (size_t e = 0; e < num_edits && r.ok(); ++e) {
      ir::PatchEdit pe;
      const uint8_t kind = r.U8();
      if (r.ok() && kind > static_cast<uint8_t>(ir::PatchEdit::Kind::kWaitBefore)) {
        r.MarkCorrupt("patch edit kind out of range");
        break;
      }
      pe.kind = static_cast<ir::PatchEdit::Kind>(kind);
      pe.anchor = r.U32();
      if (r.ok() && module != nullptr && pe.anchor >= module->NumInstructions()) {
        r.MarkCorrupt("patch anchor out of range for module");
        break;
      }
      const uint64_t global = r.Varint();
      if (r.ok() && global >= c.patch.globals.size()) {
        r.MarkCorrupt("patch edit global out of range");
        break;
      }
      pe.global = static_cast<uint32_t>(global);
      pe.spin_bound = static_cast<int64_t>(r.Varint());
      c.patch.edits.push_back(pe);
    }
    const uint8_t status = r.U8();
    if (r.ok() && status > static_cast<uint8_t>(RepairStatus::kRejected)) {
      r.MarkCorrupt("repair status out of range");
    }
    c.status = static_cast<RepairStatus>(status);
    c.runs_per_module = static_cast<uint32_t>(r.Varint());
    c.baseline_failures = static_cast<uint32_t>(r.Varint());
    c.recurrences = static_cast<uint32_t>(r.Varint());
    c.new_failures = static_cast<uint32_t>(r.Varint());
    c.overhead_ratio = r.F64();
    c.note = r.String();
    if (!r.ok()) {
      break;
    }
    out->candidates.push_back(std::move(c));
  }
  return r.ExpectExhausted();
}

void EncodeProcessedTrace(const trace::ProcessedTrace& t,
                          std::vector<uint8_t>* out) {
  AppendU8(out, kArtifactCodecVersion);
  trace::TraceSerDes::Encode(t, out);
}

support::Status EncodeArtifactValue(ArtifactKind kind, const void* value,
                                    std::vector<uint8_t>* out) {
  switch (kind) {
    case ArtifactKind::kExecutedSet:
      EncodeExecutedSet(*static_cast<const ExecutedSetArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kDerefChains:
      EncodeDerefChains(*static_cast<const DerefChainsArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kPointsTo:
      EncodePointsTo(*static_cast<const PointsToArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kRankedCandidates:
      EncodeRankedCandidates(*static_cast<const RankedCandidatesArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kPatternSet:
      EncodePatternSet(*static_cast<const PatternSetArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kF1Scores:
      EncodeF1Scores(*static_cast<const F1ScoresArtifact*>(value), out);
      return Status::Ok();
    case ArtifactKind::kRepairPlan:
      EncodeRepairPlan(*static_cast<const RepairPlan*>(value), out);
      return Status::Ok();    case ArtifactKind::kProcessedTrace:
      break;  // the decode memo is never persisted: evidence is its bundle
  }
  return Status::Error(StatusCode::kInvalidArgument, "no codec for this artifact kind");
}

support::Status DecodeArtifactValue(ArtifactKind kind,
                                    std::span<const uint8_t> bytes,
                                    const ir::Module* module,
                                    std::shared_ptr<void>* out) {
  switch (kind) {
    case ArtifactKind::kExecutedSet: {
      auto a = std::make_shared<ExecutedSetArtifact>();
      const Status s = DecodeExecutedSet(bytes, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kDerefChains: {
      auto a = std::make_shared<DerefChainsArtifact>();
      const Status s = DecodeDerefChains(bytes, module, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kPointsTo: {
      auto a = std::make_shared<PointsToArtifact>();
      const Status s = DecodePointsTo(bytes, module, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kRankedCandidates: {
      auto a = std::make_shared<RankedCandidatesArtifact>();
      const Status s = DecodeRankedCandidates(bytes, module, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kPatternSet: {
      auto a = std::make_shared<PatternSetArtifact>();
      const Status s = DecodePatternSet(bytes, module, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kF1Scores: {
      auto a = std::make_shared<F1ScoresArtifact>();
      const Status s = DecodeF1Scores(bytes, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }
    case ArtifactKind::kRepairPlan: {
      auto a = std::make_shared<RepairPlan>();
      const Status s = DecodeRepairPlan(bytes, module, a.get());
      if (!s.ok()) return s;
      *out = std::move(a);
      return Status::Ok();
    }    case ArtifactKind::kProcessedTrace:
      break;  // the decode memo is never persisted: evidence is its bundle
  }
  return Status::Error(StatusCode::kInvalidArgument, "no codec for this artifact kind");
}

void EncodeSiteRecord(const SiteRecord& record, std::vector<uint8_t>* out) {
  AppendU8(out, static_cast<uint8_t>(record.type));
  AppendU8(out, static_cast<uint8_t>(record.kind));
  AppendU64(out, record.key);
  support::AppendBytes(out, record.bytes);
}

support::Status DecodeSiteRecord(std::span<const uint8_t> bytes,
                                 SiteRecord* out) {
  ByteReader r(bytes);
  const uint8_t type = r.U8();
  const uint8_t kind = r.U8();
  out->key = r.U64();
  out->bytes = r.Bytes();
  if (!r.ok()) {
    return r.status();
  }
  if (type > static_cast<uint8_t>(SiteRecord::Type::kRejection)) {
    return Status::Error(StatusCode::kCorruptData, "site record type out of range");
  }
  if (kind >= kNumArtifactKinds) {
    return Status::Error(StatusCode::kCorruptData, "artifact kind out of range");
  }
  out->type = static_cast<SiteRecord::Type>(type);
  out->kind = static_cast<ArtifactKind>(kind);
  return r.ExpectExhausted();
}

size_t ApproxArtifactBytes(size_t encoded_size) {
  // Decoded forms re-inflate container overheads the varint layout squeezes
  // out; 2x encoded size tracks the resident footprint well enough for a
  // budget knob that only needs the right order of magnitude.
  return encoded_size * 2;
}

}  // namespace snorlax::engine
