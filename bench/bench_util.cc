#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "ir/builder.h"
#include "support/str.h"
#include "workloads/generator.h"

namespace snorlax::bench {

std::vector<FailingRun> ReproduceFailures(const workloads::Workload& w, int wanted,
                                          uint64_t max_seeds) {
  std::vector<FailingRun> out;
  for (uint64_t seed = 1; seed <= max_seeds && out.size() < static_cast<size_t>(wanted);
       ++seed) {
    rt::InterpOptions opts = w.interp;
    opts.seed = seed;
    rt::Interpreter interp(w.module.get(), opts);
    std::unordered_set<ir::InstId> targets(w.timing_targets.begin(), w.timing_targets.end());
    rt::TargetEventRecorder recorder(targets);
    interp.AddObserver(&recorder);
    const rt::RunResult r = interp.Run(w.entry);
    if (!r.failure.IsFailure() || r.failure.kind != w.expected_failure) {
      continue;
    }
    FailingRun run;
    run.seed = seed;
    run.failure = r.failure;
    // Latest unused instance of each target before the failure (duplicated
    // target instructions bind to distinct instances).
    std::set<size_t> used;
    for (ir::InstId target : w.timing_targets) {
      int64_t best = -1;
      size_t best_idx = SIZE_MAX;
      for (size_t i = 0; i < recorder.events().size(); ++i) {
        const auto& e = recorder.events()[i];
        if (e.inst == target && static_cast<int64_t>(e.time_ns) > best &&
            e.time_ns <= r.failure.time_ns + 1 && used.count(i) == 0) {
          best = static_cast<int64_t>(e.time_ns);
          best_idx = i;
        }
      }
      if (best_idx != SIZE_MAX) {
        used.insert(best_idx);
      } else if (target == r.failure.failing_inst) {
        // The faulting access never retires; the failure time stands in.
        best = static_cast<int64_t>(r.failure.time_ns);
      }
      run.target_times_ns.push_back(best);
    }
    // Deadlocks: the blocked attempts never retire; their block times come
    // from the deadlock report.
    if (r.failure.kind == rt::FailureKind::kDeadlock) {
      run.target_times_ns.clear();
      for (ir::InstId target : w.timing_targets) {
        int64_t t = -1;
        for (const auto& waiter : r.failure.deadlock_cycle) {
          if (waiter.inst == target) {
            t = static_cast<int64_t>(waiter.block_time_ns);
          }
        }
        run.target_times_ns.push_back(t);
      }
    }
    std::sort(run.target_times_ns.begin(), run.target_times_ns.end());
    out.push_back(std::move(run));
  }
  return out;
}

std::vector<double> GapsMicros(const FailingRun& run) {
  std::vector<double> gaps;
  for (size_t i = 0; i + 1 < run.target_times_ns.size(); ++i) {
    if (run.target_times_ns[i] < 0 || run.target_times_ns[i + 1] < 0) {
      return {};
    }
    gaps.push_back(static_cast<double>(run.target_times_ns[i + 1] - run.target_times_ns[i]) /
                   1000.0);
  }
  return gaps;
}

void AddColdLibrary(ir::Module* module, size_t instructions) {
  ir::IrBuilder b(module);
  const ir::Type* i64 = module->types().IntType(64);
  const ir::Type* ptr = module->types().PointerTo(i64);
  static int suffix = 0;
  const int tag = suffix++;
  size_t emitted = 0;
  int index = 0;
  ir::FuncId prev = ir::kInvalidFuncId;
  int chain_len = 0;
  while (emitted < instructions) {
    // Call chains are kept short (real libraries are many small clusters);
    // one unbounded chain would make points-to sets grow linearly along it
    // and the whole-program solve quadratic in a way no real code is.
    if (++chain_len > 8) {
      chain_len = 0;
      prev = ir::kInvalidFuncId;
    }
    const ir::FuncId f = b.BeginFunction(
        StrFormat("cold_%d_%d", tag, index++), ptr, {ptr});
    b.SetInsertPoint(b.CreateBlock("entry"));
    // Pointer-shuffling body: allocate, store through, load back, branch.
    const ir::Reg obj = b.Alloca(i64);
    const ir::Reg holder = b.Alloca(ptr);
    b.Store(obj, holder, ptr);
    b.Store(b.Param(0), holder, ptr);
    const ir::Reg loaded = b.Load(holder, ptr);
    const ir::Reg flag = b.Cmp(ir::CmpKind::kNe, ir::Operand::MakeReg(loaded),
                               ir::Operand::MakeImm(0));
    const ir::BlockId then_b = b.CreateBlock("deep");
    const ir::BlockId else_b = b.CreateBlock("shallow");
    b.CondBr(flag, then_b, else_b);
    b.SetInsertPoint(then_b);
    if (prev != ir::kInvalidFuncId) {
      const ir::Reg chained = b.Call(prev, std::vector<ir::Reg>{loaded}, ptr);
      b.Ret(chained);
    } else {
      b.Ret(loaded);
    }
    b.SetInsertPoint(else_b);
    b.Ret(obj);
    b.EndFunction();
    prev = f;
    emitted += module->function(f)->NumInstructions();
  }
}

size_t ColdInstructionsFor(const std::string& system) {
  // Reduction targets roughly track the real systems' code sizes, yielding
  // the paper's ~9x geometric-mean scope reduction.
  if (system == "MySQL") return 1100;     // 650 KLOC
  if (system == "Derby") return 950;      // ~600 KLOC (Java)
  if (system == "JDK") return 900;
  if (system == "httpd") return 750;      // 223 KLOC
  if (system == "SQLite") return 600;     // 100 KLOC
  if (system == "Groovy") return 600;
  if (system == "Transmission") return 450;  // 60 KLOC
  if (system == "Log4j") return 350;
  if (system == "DBCP") return 300;
  if (system == "memcached") return 220;  // 9 KLOC
  if (system == "pbzip2") return 120;     // 2 KLOC
  if (system == "aget") return 60;        // 842 LOC
  return 300;
}

std::vector<NamedWorkload> PatternBenchWorkloads() {
  std::vector<NamedWorkload> cases;
  for (const workloads::WorkloadInfo& info : workloads::AllWorkloads()) {
    cases.push_back(NamedWorkload{info.name, workloads::Build(info.name)});
  }
  const workloads::GeneratedBug oltp_bugs[] = {workloads::GeneratedBug::kOltpRace,
                                               workloads::GeneratedBug::kOltpAtomicity,
                                               workloads::GeneratedBug::kOltpOrder};
  for (const workloads::GeneratedBug bug : oltp_bugs) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      workloads::GeneratorOptions gopts;
      gopts.seed = seed;
      gopts.bug = bug;
      gopts.oltp.threads = 8;
      gopts.oltp.txns_per_thread = 32;
      gopts.oltp.keyspace = 4;
      gopts.oltp.hot_key_skew = 0.8;
      gopts.oltp.long_txn_ratio = 0.4;
      gopts.oltp.max_restarts = 16;
      cases.push_back(NamedWorkload{StrFormat("%s/s%llu@skew0.8", workloads::GeneratedBugName(bug),
                                              (unsigned long long)seed),
                                    workloads::GenerateWorkload(gopts)});
    }
  }
  return cases;
}

void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    line += PadRight(cells[i], static_cast<size_t>(width));
    line += " ";
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace snorlax::bench
