#include "report/render.h"

#include <algorithm>
#include <cstdio>

#include "engine/repair.h"
#include "ir/module.h"
#include "support/json.h"
#include "support/str.h"

namespace snorlax::report {

using support::JsonWriter;

namespace {

const ir::Instruction* InstOrNull(const ir::Module* module, ir::InstId id) {
  if (module == nullptr || id == ir::kInvalidInstId ||
      id >= module->NumInstructions()) {
    return nullptr;
  }
  return module->instruction(id);
}

std::string InstText(const ir::Module* module, ir::InstId id) {
  const ir::Instruction* inst = InstOrNull(module, id);
  return inst != nullptr ? inst->ToString() : StrFormat("#%u", id);
}

std::string InstLocation(const ir::Module* module, ir::InstId id) {
  const ir::Instruction* inst = InstOrNull(module, id);
  return inst != nullptr ? inst->debug_location() : std::string();
}

// Splits a "file.c:123" debug location; false when there is no trailing
// line number (SARIF then gets a logical location instead).
bool SplitLocation(const std::string& loc, std::string* file, int* line) {
  const size_t colon = loc.rfind(':');
  if (colon == std::string::npos || colon + 1 >= loc.size()) {
    return false;
  }
  int n = 0;
  for (size_t i = colon + 1; i < loc.size(); ++i) {
    if (loc[i] < '0' || loc[i] > '9') {
      return false;
    }
    n = n * 10 + (loc[i] - '0');
  }
  *file = loc.substr(0, colon);
  *line = n;
  return *file != std::string() && n > 0;
}

void AppendPatternsText(const Report& report, const ir::Module* module, size_t limit,
                        std::string* out) {
  size_t shown = 0;
  for (const core::DiagnosedPattern& p : report.diagnosis.patterns) {
    if (shown++ == limit) {
      break;
    }
    *out += StrFormat("F1=%.2f  %s\n", p.f1, core::PatternKindName(p.pattern.kind));
    for (const core::PatternEvent& e : p.pattern.events) {
      *out += StrFormat("    slot %u  %s%s%s\n", e.thread_slot,
                        InstText(module, e.inst).c_str(),
                        e.thread_final ? "  [blocked]" : "",
                        p.pattern.ordered ? "" : "  (order unknown)");
    }
  }
}

void AppendRepairText(const engine::RepairPlan& plan, const ir::Module* module,
                      std::string* out) {
  *out += StrFormat("\nrepair plan: %zu candidate(s) for %s, %zu validated\n",
                    plan.candidates.size(), rt::FailureKindName(plan.target),
                    plan.ValidatedCount());
  for (const engine::RepairCandidate& c : plan.candidates) {
    *out += StrFormat("  [%s] %s (F1=%.2f)", engine::RepairStatusName(c.status),
                      core::PatternKindName(c.pattern.kind), c.f1);
    if (c.status == engine::RepairStatus::kValidated ||
        c.status == engine::RepairStatus::kRejected) {
      *out += StrFormat(": %u/%u baseline failures, %u recurrence(s), "
                        "%u new failure(s), %.2fx overhead",
                        c.baseline_failures, c.runs_per_module, c.recurrences,
                        c.new_failures, c.overhead_ratio);
    }
    if (!c.note.empty()) {
      *out += StrFormat(" -- %s", c.note.c_str());
    }
    *out += "\n";
    for (const ir::PatchGlobal& g : c.patch.globals) {
      *out += StrFormat("      + global %s @%s\n", ir::PatchGlobalKindName(g.kind),
                        g.name.c_str());
    }
    for (const ir::PatchEdit& e : c.patch.edits) {
      const std::string loc = InstLocation(module, e.anchor);
      *out += StrFormat("      %s inst #%u (%s)%s%s\n", ir::PatchEditKindName(e.kind),
                        e.anchor, InstText(module, e.anchor).c_str(),
                        loc.empty() ? "" : " at ", loc.c_str());
    }
  }
}

void WritePatternJson(JsonWriter* w, const core::DiagnosedPattern& p,
                      const ir::Module* module, size_t rank) {
  w->BeginObject();
  w->Field("rank", static_cast<uint64_t>(rank));
  w->Field("kind", core::PatternKindName(p.pattern.kind));
  w->Field("ordered", p.pattern.ordered);
  w->Field("f1", p.f1, 4);
  w->Field("precision", p.precision, 4);
  w->Field("recall", p.recall, 4);
  w->Key("counts").BeginObject();
  w->Field("true_positive", p.counts.true_positive);
  w->Field("false_positive", p.counts.false_positive);
  w->Field("false_negative", p.counts.false_negative);
  w->EndObject();
  w->Key("events").BeginArray();
  for (const core::PatternEvent& e : p.pattern.events) {
    w->BeginObject();
    w->Field("inst", static_cast<uint64_t>(e.inst));
    w->Field("thread_slot", static_cast<uint64_t>(e.thread_slot));
    w->Field("thread_final", e.thread_final);
    if (module != nullptr) {
      w->Field("text", InstText(module, e.inst));
      const std::string loc = InstLocation(module, e.inst);
      if (!loc.empty()) {
        w->Field("location", loc);
      }
    }
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteRepairJson(JsonWriter* w, const engine::RepairPlan& plan,
                     const ir::Module* module) {
  w->BeginObject();
  w->Field("target", rt::FailureKindName(plan.target));
  w->Field("confirmed_patterns", static_cast<uint64_t>(plan.confirmed_patterns));
  w->Field("validated", static_cast<uint64_t>(plan.ValidatedCount()));
  w->Key("candidates").BeginArray();
  for (const engine::RepairCandidate& c : plan.candidates) {
    w->BeginObject();
    w->Field("pattern", core::PatternKindName(c.pattern.kind));
    w->Field("f1", c.f1, 4);
    w->Field("status", engine::RepairStatusName(c.status));
    if (!c.note.empty()) {
      w->Field("note", c.note);
    }
    w->Field("runs_per_module", c.runs_per_module);
    w->Field("baseline_failures", c.baseline_failures);
    w->Field("recurrences", c.recurrences);
    w->Field("new_failures", c.new_failures);
    w->Field("overhead_ratio", c.overhead_ratio, 3);
    w->Key("globals").BeginArray();
    for (const ir::PatchGlobal& g : c.patch.globals) {
      w->BeginObject();
      w->Field("kind", ir::PatchGlobalKindName(g.kind));
      w->Field("name", g.name);
      w->EndObject();
    }
    w->EndArray();
    w->Key("edits").BeginArray();
    for (const ir::PatchEdit& e : c.patch.edits) {
      w->BeginObject();
      w->Field("edit", ir::PatchEditKindName(e.kind));
      w->Field("anchor", static_cast<uint64_t>(e.anchor));
      if (module != nullptr) {
        w->Field("text", InstText(module, e.anchor));
        const std::string loc = InstLocation(module, e.anchor);
        if (!loc.empty()) {
          w->Field("location", loc);
        }
      }
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

// One SARIF location object for an instruction: physical when the debug
// location parses to file:line, logical otherwise.
void WriteSarifLocation(JsonWriter* w, const ir::Module* module, ir::InstId id) {
  w->BeginObject();
  std::string file;
  int line = 0;
  if (SplitLocation(InstLocation(module, id), &file, &line)) {
    w->Key("physicalLocation").BeginObject();
    w->Key("artifactLocation").BeginObject();
    w->Field("uri", file);
    w->EndObject();
    w->Key("region").BeginObject();
    w->Field("startLine", static_cast<int64_t>(line));
    w->EndObject();
    w->EndObject();
  } else {
    w->Key("logicalLocations").BeginArray();
    w->BeginObject();
    w->Field("name", StrFormat("inst:%u", id));
    w->Field("kind", "instruction");
    w->EndObject();
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

const char* FormatName(Format format) {
  switch (format) {
    case Format::kText:
      return "text";
    case Format::kJson:
      return "json";
    case Format::kSarif:
      return "sarif";
  }
  return "?";
}

bool ParseFormat(std::string_view name, Format* out) {
  if (name == "text") {
    *out = Format::kText;
  } else if (name == "json") {
    *out = Format::kJson;
  } else if (name == "sarif") {
    *out = Format::kSarif;
  } else {
    return false;
  }
  return true;
}

std::string Render(const Report& report, Format format, const ir::Module* module) {
  switch (format) {
    case Format::kText:
      return RenderText(report, module);
    case Format::kJson:
      return RenderJson(report, module);
    case Format::kSarif:
      return RenderSarif(report, module);
  }
  return std::string();
}

std::string RenderText(const Report& report, const ir::Module* module) {
  const core::DiagnosisReport& d = report.diagnosis;
  std::string out;
  if (!report.scenario.empty()) {
    out += StrFormat("scenario: %s\n", report.scenario.c_str());
  }
  out += StrFormat("failure: %s at #%u (thread %u)\n",
                   rt::FailureKindName(d.failure.kind), d.failure.failing_inst,
                   d.failure.thread);
  if (!d.failure.description.empty()) {
    out += StrFormat("  %s\n", d.failure.description.c_str());
  }
  out += StrFormat("evidence: %zu failing + %zu successful traces; analysis %.1f ms\n",
                   d.failing_traces, d.success_traces,
                   d.stages.AnalysisSeconds() * 1000.0);
  out += StrFormat("confidence: %s%s\n", trace::ConfidenceTierName(d.confidence),
                   d.hypothesis_violated ? " (hypothesis violated)" : "");
  if (report.transport.remote) {
    out += StrFormat("transport: protocol v%u payload v%u\n",
                     report.transport.negotiated_version, report.transport.payload_format);
  }
  if (d.degradation.degraded()) {
    out += StrFormat("degradation: %s\n", d.degradation.Summary().c_str());
    for (const std::string& note : d.degradation.notes) {
      out += StrFormat("  %s\n", note.c_str());
    }
  }
  out += "\n";
  AppendPatternsText(report, module, 6, &out);
  if (d.patterns.empty()) {
    out += "no patterns survived\n";
  }
  if (d.repair != nullptr) {
    AppendRepairText(*d.repair, module, &out);
  }
  return out;
}

std::string RenderJson(const Report& report, const ir::Module* module) {
  const core::DiagnosisReport& d = report.diagnosis;
  JsonWriter w;
  w.BeginObject();
  w.Field("report_version", static_cast<uint64_t>(report.version));
  w.Field("module_fingerprint", StrFormat("%016llx", static_cast<unsigned long long>(
                                                         report.module_fingerprint)));
  if (!report.scenario.empty()) {
    w.Field("scenario", report.scenario);
  }
  w.Key("failure").BeginObject();
  w.Field("kind", rt::FailureKindName(d.failure.kind));
  w.Field("inst", static_cast<uint64_t>(d.failure.failing_inst));
  w.Field("thread", static_cast<uint64_t>(d.failure.thread));
  w.Field("time_ns", d.failure.time_ns);
  if (!d.failure.description.empty()) {
    w.Field("description", d.failure.description);
  }
  w.EndObject();
  w.Field("confidence", trace::ConfidenceTierName(d.confidence));
  w.Field("hypothesis_violated", d.hypothesis_violated);
  w.Key("evidence").BeginObject();
  w.Field("failing_traces", static_cast<uint64_t>(d.failing_traces));
  w.Field("success_traces", static_cast<uint64_t>(d.success_traces));
  w.EndObject();
  w.Key("patterns").BeginArray();
  size_t rank = 1;
  for (const core::DiagnosedPattern& p : d.patterns) {
    WritePatternJson(&w, p, module, rank++);
  }
  w.EndArray();
  w.Key("degradation").BeginObject();
  w.Field("summary", d.degradation.Summary());
  w.Field("rejected_bundles", static_cast<uint64_t>(d.degradation.rejected_bundles));
  w.Key("notes").BeginArray();
  for (const std::string& note : d.degradation.notes) {
    w.String(note);
  }
  w.EndArray();
  w.EndObject();
  w.Key("transport").BeginObject();
  w.Field("remote", report.transport.remote);
  w.Field("negotiated_version", report.transport.negotiated_version);
  w.Field("payload_format", static_cast<uint64_t>(report.transport.payload_format));
  w.Field("bundles_acked", report.transport.bundles_acked);
  w.Field("bundles_duplicate", report.transport.bundles_duplicate);
  w.Field("reconnects", report.transport.reconnects);
  w.EndObject();
  w.Key("stages").BeginObject();
  w.Field("module_instructions", static_cast<uint64_t>(d.stages.module_instructions));
  w.Field("executed_instructions", static_cast<uint64_t>(d.stages.executed_instructions));
  w.Field("candidate_instructions",
          static_cast<uint64_t>(d.stages.candidate_instructions));
  w.Field("rank1_candidates", static_cast<uint64_t>(d.stages.rank1_candidates));
  w.Field("patterns_generated", static_cast<uint64_t>(d.stages.patterns_generated));
  w.Field("top_f1_patterns", static_cast<uint64_t>(d.stages.top_f1_patterns));
  w.Field("analysis_seconds", d.stages.AnalysisSeconds(), 6);
  w.Key("passes").BeginArray();
  for (size_t i = 0; i < engine::kNumPasses; ++i) {
    const engine::PassStats& p = d.stages.passes[i];
    if (p.runs == 0 && p.cache_hits == 0) {
      continue;
    }
    w.BeginObject();
    w.Field("pass", engine::PassName(static_cast<engine::PassId>(i)));
    w.Field("runs", p.runs);
    w.Field("cache_hits", p.cache_hits);
    w.Field("ms", p.seconds * 1000.0, 3);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (d.repair != nullptr) {
    w.Key("repair");
    WriteRepairJson(&w, *d.repair, module);
  }
  w.EndObject();
  return w.Take();
}

std::string RenderSarif(const Report& report, const ir::Module* module) {
  const core::DiagnosisReport& d = report.diagnosis;
  JsonWriter w;
  w.BeginObject();
  w.Field("version", "2.1.0");
  w.Field("$schema",
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
          "Schemata/sarif-schema-2.1.0.json");
  w.Key("runs").BeginArray();
  w.BeginObject();
  w.Key("tool").BeginObject();
  w.Key("driver").BeginObject();
  w.Field("name", "snorlax");
  w.Field("informationUri", "https://doi.org/10.1145/3132747.3132767");
  w.Field("version", StrFormat("%u", report.version));
  // One rule per pattern kind present in the report (SARIF viewers group and
  // filter by rule).
  w.Key("rules").BeginArray();
  std::vector<core::PatternKind> kinds;
  for (const core::DiagnosedPattern& p : d.patterns) {
    if (std::find(kinds.begin(), kinds.end(), p.pattern.kind) == kinds.end()) {
      kinds.push_back(p.pattern.kind);
    }
  }
  for (const core::PatternKind kind : kinds) {
    w.BeginObject();
    w.Field("id", core::PatternKindName(kind));
    w.Key("shortDescription").BeginObject();
    w.Field("text", StrFormat("Concurrency bug pattern: %s",
                              core::PatternKindName(kind)));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  w.Key("results").BeginArray();
  size_t rank = 1;
  for (const core::DiagnosedPattern& p : d.patterns) {
    const size_t this_rank = rank++;
    w.BeginObject();
    w.Field("ruleId", core::PatternKindName(p.pattern.kind));
    w.Field("level", this_rank == 1 ? "error" : "warning");
    w.Key("message").BeginObject();
    w.Field("text",
            StrFormat("%s root-cause candidate (rank %zu, F1=%.2f) for %s at #%u",
                      core::PatternKindName(p.pattern.kind), this_rank, p.f1,
                      rt::FailureKindName(d.failure.kind), d.failure.failing_inst));
    w.EndObject();
    w.Key("locations").BeginArray();
    for (const core::PatternEvent& e : p.pattern.events) {
      WriteSarifLocation(&w, module, e.inst);
    }
    w.EndArray();
    w.Key("properties").BeginObject();
    w.Field("rank", static_cast<uint64_t>(this_rank));
    w.Field("f1", p.f1, 4);
    w.Field("precision", p.precision, 4);
    w.Field("recall", p.recall, 4);
    w.Field("ordered", p.pattern.ordered);
    w.Field("confidence", trace::ConfidenceTierName(d.confidence));
    if (d.repair != nullptr) {
      // A pattern can have several patch variants; report the best outcome
      // (validated beats built beats rejected beats unsupported).
      const engine::RepairCandidate* best = nullptr;
      auto merit = [](engine::RepairStatus s) {
        switch (s) {
          case engine::RepairStatus::kValidated: return 3;
          case engine::RepairStatus::kBuilt: return 2;
          case engine::RepairStatus::kRejected: return 1;
          case engine::RepairStatus::kUnsupported: return 0;
        }
        return 0;
      };
      for (const engine::RepairCandidate& c : d.repair->candidates) {
        if (c.pattern.Key() == p.pattern.Key() &&
            (best == nullptr || merit(c.status) > merit(best->status))) {
          best = &c;
        }
      }
      if (best != nullptr) {
        w.Field("repair_status", engine::RepairStatusName(best->status));
      }
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string RenderExplainTable(const std::vector<PassRow>& rows,
                               const engine::ArtifactStore::Stats& store) {
  std::string out;
  if (rows.empty()) {
    return "\npass pipeline: no runs recorded\n";
  }
  out += "\npass pipeline (most recent bundle + scoring):\n";
  out += StrFormat("  %-14s %-9s %10s  %-16s  %-9s %s\n", "pass", "status", "ms",
                   "artifact key", "artifact", "reason");
  for (const PassRow& row : rows) {
    const engine::PassTrace& t = row.trace;
    const char* status = t.cache_hit ? "cache-hit" : (t.ran ? "ran" : "skipped");
    out += StrFormat("  %-14s %-9s %10.3f  %016llx  %-9s %s\n", engine::PassName(t.id),
                     status, t.seconds * 1000.0,
                     static_cast<unsigned long long>(t.artifact_key),
                     t.artifact_key == 0 ? "-"
                                         : engine::ResidencyStateName(row.residency),
                     t.reason.c_str());
  }
  out += StrFormat("  artifact store: %llu hits, %llu misses, %zu live entries, "
                   "%llu evictions\n",
                   static_cast<unsigned long long>(store.hits),
                   static_cast<unsigned long long>(store.misses), store.entries,
                   static_cast<unsigned long long>(store.evictions));
  return out;
}

}  // namespace snorlax::report
