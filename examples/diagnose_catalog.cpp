// Diagnose any bug from the workload catalogue (the paper's evaluation
// subjects, section 6.1):
//
//   $ ./examples/diagnose_catalog              # list workloads
//   $ ./examples/diagnose_catalog mysql_169    # diagnose one
//
// Prints the full diagnosis report: reproduction effort, trace statistics,
// per-stage pipeline footprint, and the F1-ranked root-cause patterns
// annotated with source locations.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/snorlax.h"
#include "workloads/workload.h"

using namespace snorlax;

namespace {

void ListWorkloads() {
  std::printf("available workloads (name / system / bug id / class):\n");
  for (const workloads::WorkloadInfo& info : workloads::AllWorkloads()) {
    std::printf("  %-20s %-14s %-10s %s\n", info.name.c_str(), info.system.c_str(),
                info.bug_id.c_str(), core::PatternKindName(info.kind));
  }
}

const char* RoleOf(const ir::Instruction* inst) {
  switch (inst->opcode()) {
    case ir::Opcode::kLoad:
      return "R";
    case ir::Opcode::kStore:
      return "W";
    case ir::Opcode::kLockAcquire:
      return "lock";
    case ir::Opcode::kLockRelease:
      return "unlock";
    default:
      return "?";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    ListWorkloads();
    return 0;
  }
  const std::string name = argv[1];
  bool known = false;
  for (const workloads::WorkloadInfo& info : workloads::AllWorkloads()) {
    known |= info.name == name;
  }
  if (!known) {
    std::printf("unknown workload '%s'\n\n", name.c_str());
    ListWorkloads();
    return 1;
  }

  workloads::Workload w = workloads::Build(name);
  std::printf("== %s (%s %s) ==\n%s\n\n", w.name.c_str(), w.system.c_str(),
              w.bug_id.c_str(), w.description.c_str());

  core::SnorlaxOptions options;
  options.client.interp = w.interp;
  options.failing_traces = w.recommended_failing_traces;
  core::Snorlax snorlax(w.module.get(), options);
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  if (!outcome.has_value()) {
    std::printf("the bug did not reproduce within the run budget\n");
    return 1;
  }

  const core::DiagnosisReport& report = outcome->report;
  std::printf("reproduction : failure after %llu executions (%llu failing trace(s) used)\n",
              static_cast<unsigned long long>(outcome->runs_until_failure),
              static_cast<unsigned long long>(outcome->failing_runs_used));
  std::printf("failure      : %s at #%u, thread %u -- %s\n",
              rt::FailureKindName(report.failure.kind), report.failure.failing_inst,
              report.failure.thread, report.failure.description.c_str());
  if (!report.failure.deadlock_cycle.empty()) {
    std::printf("deadlock cycle:\n");
    for (const auto& waiter : report.failure.deadlock_cycle) {
      std::printf("  thread %u blocked at #%u (%s) t=%.1fus\n", waiter.thread, waiter.inst,
                  w.module->instruction(waiter.inst)->debug_location().c_str(),
                  waiter.block_time_ns / 1000.0);
    }
  }
  const pt::PtStats& stats = outcome->failing_run_pt_stats;
  std::printf("failing trace: %llu branch events, %llu control / %llu timing packets, "
              "%.0f%% timing bytes\n",
              static_cast<unsigned long long>(stats.branch_events),
              static_cast<unsigned long long>(stats.control_packets),
              static_cast<unsigned long long>(stats.timing_packets),
              100.0 * stats.TimingByteFraction());
  std::printf("evidence     : %zu failing + %zu successful traces\n",
              report.failing_traces, report.success_traces);
  std::printf("analysis     : %.1f ms on the server\n\n", report.stages.AnalysisSeconds() * 1000.0);

  const core::StageStats& s = report.stages;
  std::printf("pipeline footprint (paper Figure 7 stages):\n");
  std::printf("  whole module        : %6zu instructions\n", s.module_instructions);
  std::printf("  trace processing    : %6zu executed (%.1fx reduction)\n",
              s.executed_instructions, s.TraceReduction());
  std::printf("  hybrid points-to    : %6zu candidate target events\n",
              s.candidate_instructions);
  std::printf("  type-based ranking  : %6zu rank-1 (%.1fx narrowing)\n", s.rank1_candidates,
              s.RankReduction());
  std::printf("  pattern computation : %6zu patterns\n", s.patterns_generated);
  std::printf("  statistical stage   : %6zu pattern(s) at the top F1\n\n", s.top_f1_patterns);

  std::printf("ranked root-cause patterns:\n");
  int shown = 0;
  for (const core::DiagnosedPattern& p : report.patterns) {
    if (shown++ == 8) {
      std::printf("  ... (%zu more)\n", report.patterns.size() - 8);
      break;
    }
    std::printf("  F1=%.2f P=%.2f R=%.2f  %-26s\n", p.f1, p.precision, p.recall,
                core::PatternKindName(p.pattern.kind));
    for (const core::PatternEvent& e : p.pattern.events) {
      const ir::Instruction* inst = w.module->instruction(e.inst);
      std::printf("      %-6s #%-5u thread-slot %u  %s%s\n", RoleOf(inst), e.inst,
                  e.thread_slot, inst->debug_location().c_str(),
                  e.thread_final ? "  [blocked here]" : "");
    }
    if (!p.pattern.ordered) {
      std::printf("      (events reported without ordering: coarse interleaving "
                  "hypothesis did not hold)\n");
    }
  }

  std::printf("\nground truth events:");
  for (ir::InstId id : w.truth_events) {
    std::printf(" #%u", id);
  }
  std::printf("\n");
  return 0;
}
