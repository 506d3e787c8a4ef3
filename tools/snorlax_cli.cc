// snorlax_cli: drive the toolchain on textual MiniIR programs (.sir files).
//
//   snorlax_cli parse    prog.sir              verify + summarize a module
//   snorlax_cli run      prog.sir [seed]       execute once, report outcome
//   snorlax_cli trace    prog.sir [seed]       execute under PT, show stats
//   snorlax_cli diagnose prog.sir [failing] [--explain]
//                                              full Snorlax workflow; --explain
//                                              prints the per-pass pipeline log
//   snorlax_cli fuzz-trace prog.sir --faults=kind@rate[,...] [--seed=N]
//                                              corrupt a captured trace, then
//                                              diagnose from the wreckage
//   snorlax_cli bench-throughput [--clients=N] [--threads=M] [--json]
//                                              concurrent-ingest throughput on
//                                              the built-in workload mix
//   snorlax_cli serve [--port=P] [--workloads=a,b,c]
//                                              run the TCP diagnosis daemon
//   snorlax_cli send <workload> [--port=P] [--diagnose]
//                                              capture traces and ship them to
//                                              a running daemon as an agent
//   snorlax_cli bench-fleet [--agents=M] [--rounds=K] [--faults=...] [--json]
//                                              loopback-TCP ingest throughput
//
// Sample programs live in examples/programs/.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "bench/fleet_harness.h"
#include "bench/throughput_harness.h"
#include "net/agent.h"
#include "net/daemon.h"
#include "core/snorlax.h"
#include "faults/injector.h"
#include "ir/printer.h"
#include "ir/text_format.h"
#include "ir/verifier.h"
#include "pt/driver.h"
#include "report/render.h"
#include "runtime/interpreter.h"
#include "workloads/generator.h"

using namespace snorlax;

namespace {

int Usage() {
  std::printf(
      "usage: snorlax_cli <parse|run|trace|diagnose> <program.sir> [arg]\n"
      "       snorlax_cli generate <bug> <out.sir> [seed]\n"
      "       snorlax_cli generate --bug=<bug> --seed=N --out=<out.sir>\n"
      "         [--oltp --txns=M --threads=T --keyspace=K --skew=Z\n"
      "          --mix=ycsb|tpcc|mixed --injection-rate=R]\n"
      "         bugs: invalidation, check-use, stale-store, deadlock,\n"
      "         oltp-race, oltp-atomicity, oltp-order, oltp-abba\n"
      "  parse    verify the module and print a summary\n"
      "  run      execute once (arg = seed, default 1)\n"
      "  trace    execute under simulated Intel PT (arg = seed)\n"
      "  diagnose run the Lazy Diagnosis workflow (arg = failing traces, default 1;\n"
      "           --explain prints the per-pass pipeline log: ran vs cache hit,\n"
      "           timings, artifact keys, dirty reasons;\n"
      "           --report=text|json|sarif picks the output rendering,\n"
      "           --suggest-fix runs the repair pass: patch synthesis per\n"
      "           confirmed pattern + interpreter validation across timing bands)\n"
      "  generate emit a randomized bug-injected program as text\n"
      "  fuzz-trace corrupt a captured failing trace (--faults=kind@rate[,...],\n"
      "           --seed=N) and diagnose from the wreckage; kinds: bitflip,\n"
      "           truncate, drop, dup, clockregress, threadloss, forgefailure,\n"
      "           versionskew\n"
      "  bench-throughput measure concurrent vs serial ingest on the built-in\n"
      "           workload mix (--clients=N, --threads=M, --rounds=R, --json,\n"
      "           --json=<path> to also write the JSON line to a file)\n"
      "  serve    run the TCP diagnosis daemon (--port=P, --deadline-ms=D\n"
      "           per-site analysis deadline, --workloads=a,b,c;\n"
      "           cluster mode: --node-id=N --peers=id@port[,id@port...];\n"
      "           durability: --data-dir=DIR [--fsync]; default port 7433,\n"
      "           SIGTERM/Ctrl-C drains: hands sites to the remaining ring,\n"
      "           fsyncs the log, prints final reports)\n"
      "  send     capture a workload's failing + success traces and ship them\n"
      "           to a daemon (<workload>, --port=P, --agent-id=N, --diagnose;\n"
      "           without --agent-id, a random id per process, printed)\n"
      "  bench-fleet measure loopback-TCP fleet ingest (--agents=M, --rounds=K,\n"
      "           --faults=kind@rate[,...], --json, --json=<path>)\n");
  return 2;
}

std::unique_ptr<ir::Module> LoadModule(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("error: cannot open %s\n", path.c_str());
    return nullptr;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  auto module = ir::ParseModuleText(buffer.str(), &error);
  if (module == nullptr) {
    std::printf("parse error in %s: %s\n", path.c_str(), error.c_str());
    return nullptr;
  }
  const auto problems = ir::VerifyModule(*module);
  if (!problems.empty()) {
    std::printf("invalid module %s:\n", path.c_str());
    for (const std::string& p : problems) {
      std::printf("  %s\n", p.c_str());
    }
    return nullptr;
  }
  return module;
}

int CmdParse(const std::string& path) {
  auto module = LoadModule(path);
  if (module == nullptr) {
    return 1;
  }
  std::printf("%s: OK\n", path.c_str());
  std::printf("  %zu functions, %zu globals, %zu blocks, %zu instructions\n",
              module->functions().size(), module->globals().size(), module->NumBlocks(),
              module->NumInstructions());
  for (const auto& func : module->functions()) {
    std::printf("  @%-24s %zu blocks, %zu instructions\n", func->name().c_str(),
                func->blocks().size(), func->NumInstructions());
  }
  return 0;
}

int CmdRun(const std::string& path, uint64_t seed) {
  auto module = LoadModule(path);
  if (module == nullptr) {
    return 1;
  }
  rt::InterpOptions opts;
  opts.seed = seed;
  opts.work_jitter = 0.04;
  rt::Interpreter interp(module.get(), opts);
  const rt::RunResult r = interp.Run("main");
  std::printf("seed %llu: %s in %.3f ms virtual time (%llu instructions, %u threads)\n",
              static_cast<unsigned long long>(seed),
              r.Succeeded() ? "success" : rt::FailureKindName(r.failure.kind),
              r.virtual_ns / 1e6, static_cast<unsigned long long>(r.instructions_retired),
              r.threads_created);
  if (r.failure.IsFailure()) {
    const ir::Instruction* inst = r.failure.failing_inst != ir::kInvalidInstId
                                      ? module->instruction(r.failure.failing_inst)
                                      : nullptr;
    std::printf("  %s at #%u%s%s (thread %u)\n", r.failure.description.c_str(),
                r.failure.failing_inst,
                inst != nullptr && !inst->debug_location().empty() ? " " : "",
                inst != nullptr ? inst->debug_location().c_str() : "", r.failure.thread);
    return 1;
  }
  return 0;
}

int CmdTrace(const std::string& path, uint64_t seed) {
  auto module = LoadModule(path);
  if (module == nullptr) {
    return 1;
  }
  rt::InterpOptions opts;
  opts.seed = seed;
  opts.work_jitter = 0.04;
  rt::Interpreter interp(module.get(), opts);
  pt::PtDriver driver(module.get());
  driver.Attach(&interp);
  const rt::RunResult r = interp.Run("main");
  const pt::PtStats stats = driver.encoder().stats();
  std::printf("seed %llu: %s; PT recorded %llu branch events\n",
              static_cast<unsigned long long>(seed),
              r.Succeeded() ? "success" : rt::FailureKindName(r.failure.kind),
              static_cast<unsigned long long>(stats.branch_events));
  std::printf("  packets: %llu control, %llu timing (%.0f%% of bytes), %llu PSB\n",
              static_cast<unsigned long long>(stats.control_packets),
              static_cast<unsigned long long>(stats.timing_packets),
              100.0 * stats.TimingByteFraction(),
              static_cast<unsigned long long>(stats.psb_packets));
  std::printf("  trace bytes: %llu in ring buffers (+%llu KB modeled compute volume)\n",
              static_cast<unsigned long long>(stats.total_bytes),
              static_cast<unsigned long long>(stats.shadow_bytes / 1024));
  if (driver.captured().has_value()) {
    std::printf("  failure dump captured at #%u\n",
                driver.captured()->failure.failing_inst);
  }
  return 0;
}

// Renders the server's pass-boundary log through the report layer: one row
// per pass of the most recent pipeline run + scoring, each joined with the
// artifact store's residency verdict for the pass's output.
void PrintExplain(const core::DiagnosisServer& server) {
  std::vector<report::PassRow> rows;
  for (const engine::PassTrace& t : server.explain()) {
    report::PassRow row;
    row.residency = server.artifact_state(t.id, t.artifact_key);
    row.trace = t;
    rows.push_back(std::move(row));
  }
  std::fputs(report::RenderExplainTable(rows, server.artifact_stats()).c_str(), stdout);
}

struct DiagnoseFlags {
  size_t failing_traces = 1;
  bool explain = false;
  bool suggest_fix = false;
  report::Format format = report::Format::kText;
};

int CmdDiagnose(const std::string& path, const DiagnoseFlags& flags) {
  auto module = LoadModule(path);
  if (module == nullptr) {
    return 1;
  }
  core::SnorlaxOptions opts;
  opts.client.interp.work_jitter = 0.04;
  opts.failing_traces = flags.failing_traces;
  if (flags.suggest_fix) {
    // The repair pass validates patches by re-running the scenario, so it
    // inherits the client's timing model.
    opts.server.repair.enabled = true;
    opts.server.repair.interp = opts.client.interp;
  }
  core::Snorlax snorlax(module.get(), opts);
  const bool machine = flags.format != report::Format::kText;
  if (!machine) {
    std::printf("running until %zu failure(s)...\n", flags.failing_traces);
  }
  const auto outcome = snorlax.DiagnoseFirstFailure(1);
  if (!outcome.has_value()) {
    std::printf("no failure within the run budget; nothing to diagnose\n");
    return 1;
  }
  const core::DiagnosisReport& report = outcome->report;
  const report::Report aggregate =
      report::MakeReport(report, pt::ModuleFingerprint(*module), path);
  if (!machine) {
    std::printf("failure after %llu executions\n",
                static_cast<unsigned long long>(outcome->runs_until_failure));
  }
  std::fputs(report::Render(aggregate, flags.format, module.get()).c_str(), stdout);
  if (machine) {
    std::printf("\n");
  }
  if (flags.explain && !machine) {
    PrintExplain(snorlax.server());
  }
  return 0;
}

int CmdFuzzTrace(const std::string& path, const faults::FaultPlan& plan) {
  auto module = LoadModule(path);
  if (module == nullptr) {
    return 1;
  }
  core::ClientOptions copts;
  copts.interp.work_jitter = 0.04;
  core::DiagnosisClient client(module.get(), copts);
  std::optional<pt::PtTraceBundle> failing;
  uint64_t seed = 1;
  for (; seed <= 5000; ++seed) {
    core::ClientRun run = client.RunOnce(seed);
    if (run.result.failure.IsFailure() && run.trace.has_value()) {
      failing = run.trace;
      break;
    }
  }
  if (!failing.has_value()) {
    std::printf("no failure within 5000 runs; nothing to fuzz\n");
    return 1;
  }
  std::printf("captured failing trace at seed %llu (%zu thread buffers)\n",
              static_cast<unsigned long long>(seed), failing->threads.size());

  faults::FaultInjector injector(plan);
  const std::vector<std::string> mutations = injector.Apply(&*failing);
  std::printf("fault plan %s (seed %llu): %zu mutations\n", plan.ToString().c_str(),
              static_cast<unsigned long long>(plan.seed), mutations.size());
  for (const std::string& m : mutations) {
    std::printf("  %s\n", m.c_str());
  }

  core::DiagnosisServer server(module.get());
  const support::Status status = server.SubmitFailingTrace(*failing);
  if (!status.ok()) {
    std::printf("\nbundle rejected: %s\n", status.ToString().c_str());
    std::printf("degradation: %s\n", server.degradation().Summary().c_str());
    return 0;
  }
  const auto dump_points = server.RequestedDumpPoints();
  for (uint64_t s = seed + 1; s <= seed + 600; ++s) {
    if (server.NumSuccessTraces() >= server.SuccessTraceCap()) {
      break;
    }
    core::ClientRun run = client.RunOnce(s, dump_points);
    if (!run.result.failure.IsFailure() && run.trace.has_value()) {
      (void)server.SubmitSuccessTrace(*run.trace);
    }
  }

  const core::DiagnosisReport report = server.Diagnose();
  std::printf("\ndiagnosis from %zu failing + %zu successful traces\n",
              report.failing_traces, report.success_traces);
  std::printf("degradation: %s\n", report.degradation.Summary().c_str());
  for (const std::string& note : report.degradation.notes) {
    std::printf("  %s\n", note.c_str());
  }
  int shown = 0;
  for (const core::DiagnosedPattern& p : report.patterns) {
    if (shown++ == 4) {
      break;
    }
    std::printf("F1=%.2f  %s\n", p.f1, core::PatternKindName(p.pattern.kind));
    for (const core::PatternEvent& e : p.pattern.events) {
      const ir::Instruction* inst = module->instruction(e.inst);
      std::printf("    slot %u  %s\n", e.thread_slot, inst->ToString().c_str());
    }
  }
  if (report.patterns.empty()) {
    std::printf("no patterns survived (confidence: %s)\n",
                trace::ConfidenceTierName(report.confidence));
  }
  return 0;
}

// Both spellings of scenario generation:
//   snorlax_cli generate <bug> <out.sir> [seed]               (positional)
//   snorlax_cli generate --bug=<bug> --seed=N --out=<out.sir> (flags; the
//     OLTP classes additionally take --oltp knob flags)
// Bug names are the shared taxonomy of workloads::ParseGeneratedBug, so the
// OLTP classes work in either form.
int CmdGenerate(int argc, char** argv) {
  workloads::GeneratorOptions options;
  std::string out_path;
  uint64_t seed = 1;
  if (argc >= 4 && argv[2][0] != '-') {
    const auto bug = workloads::ParseGeneratedBug(argv[2]);
    if (!bug.has_value()) {
      std::printf("unknown bug kind '%s'\n", argv[2]);
      return 2;
    }
    options.bug = *bug;
    out_path = argv[3];
    seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  } else {
    bool bug_set = false;
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--bug=", 0) == 0) {
        const auto bug = workloads::ParseGeneratedBug(flag.substr(6));
        if (!bug.has_value()) {
          std::printf("unknown bug kind '%s'\n", flag.c_str() + 6);
          return 2;
        }
        options.bug = *bug;
        bug_set = true;
      } else if (flag.rfind("--seed=", 0) == 0) {
        seed = std::strtoull(flag.c_str() + 7, nullptr, 10);
      } else if (flag.rfind("--out=", 0) == 0) {
        out_path = flag.substr(6);
      } else if (flag == "--oltp") {
        // The OLTP knob group below; bug classes already imply it, so this
        // is accepted for scripting symmetry.
      } else if (flag.rfind("--txns=", 0) == 0) {
        options.oltp.txns_per_thread = std::atoi(flag.c_str() + 7);
      } else if (flag.rfind("--threads=", 0) == 0) {
        options.oltp.threads = std::atoi(flag.c_str() + 10);
      } else if (flag.rfind("--keyspace=", 0) == 0) {
        options.oltp.keyspace = std::atoi(flag.c_str() + 11);
      } else if (flag.rfind("--skew=", 0) == 0) {
        options.oltp.hot_key_skew = std::atof(flag.c_str() + 7);
      } else if (flag.rfind("--mix=", 0) == 0) {
        const std::string mix = flag.substr(6);
        if (mix == "ycsb") {
          options.oltp.mix = workloads::TxnMix::kYcsb;
        } else if (mix == "tpcc") {
          options.oltp.mix = workloads::TxnMix::kTpcc;
        } else if (mix == "mixed") {
          options.oltp.mix = workloads::TxnMix::kMixed;
        } else {
          std::printf("bad --mix '%s' (want ycsb|tpcc|mixed)\n", mix.c_str());
          return 2;
        }
      } else if (flag.rfind("--injection-rate=", 0) == 0) {
        options.oltp.injection_rate = std::atof(flag.c_str() + 17);
      } else {
        std::printf("unknown flag '%s'\n", flag.c_str());
        return Usage();
      }
    }
    if (!bug_set || out_path.empty()) {
      std::printf("generate needs --bug=<kind> and --out=<path>\n");
      return Usage();
    }
  }
  options.seed = seed;
  options.helper_depth = 1 + static_cast<int>(seed % 3);
  const workloads::Workload w = workloads::GenerateWorkload(options);
  std::ofstream out(out_path);
  if (!out) {
    std::printf("error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "# " << w.description << " (seed " << seed << ").\n"
      << "# Ground-truth root-cause instructions:";
  for (ir::InstId id : w.truth_events) {
    out << " #" << id;
  }
  out << "\n" << ir::WriteModuleText(*w.module);
  std::printf("wrote %s (%zu instructions; expected top pattern: %s)\n", out_path.c_str(),
              w.module->NumInstructions(), core::PatternKindName(w.bug_kind));
  return 0;
}

int CmdBenchThroughput(int argc, char** argv) {
  bench::HarnessFlags flags;
  flags.config.clients = 8;
  flags.config.threads = 8;
  flags.config.rounds = 2;
  const support::Status parsed = bench::ParseHarnessFlags(argc, argv, 2, &flags);
  if (!parsed.ok()) {
    std::printf("%s\n", parsed.ToString().c_str());
    return Usage();
  }
  const bench::ThroughputConfig& config = flags.config;
  const bool json_only = flags.json_only;
  const std::vector<std::string> mix = {"pbzip2_main", "sqlite_1672", "memcached_127"};
  if (!json_only) {
    std::printf("capturing failure + success traces for %zu workloads...\n", mix.size());
  }
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites(mix);
  if (sites.empty()) {
    std::printf("no workload reproduced a failure; nothing to measure\n");
    return 1;
  }
  bench::ThroughputConfig serial = config;
  serial.threads = 1;
  const bench::ThroughputResult s = bench::RunThroughput(sites, serial);
  const bench::ThroughputResult p = bench::RunThroughput(sites, config);
  const bench::IngestProfile profile = bench::ProfileIngest(sites);
  const std::string json = bench::ThroughputJson(config, sites.size(), s, p, profile);
  const support::Status emitted = bench::EmitBenchJson(flags, json, [&] {
    std::printf("diagnoses identical: %s\n", s.report_digest == p.report_digest ? "yes" : "NO");
  });
  if (!emitted.ok()) {
    return 2;
  }
  return s.report_digest == p.report_digest ? 0 : 1;
}

std::vector<std::string> SplitCommas(const std::string& spec) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    if (comma > pos) {
      parts.push_back(spec.substr(pos, comma - pos));
    }
    pos = comma + 1;
  }
  return parts;
}

// SIGTERM/SIGINT set this; the serve loop notices and drains gracefully.
volatile std::sig_atomic_t g_drain_requested = 0;

void RequestDrain(int) { g_drain_requested = 1; }

int CmdServe(int argc, char** argv) {
  net::DaemonOptions dopts;
  dopts.port = 7433;
  std::vector<std::string> names = {"pbzip2_main", "sqlite_1672", "memcached_127"};
  std::vector<std::string> peer_specs;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--port=", 0) == 0) {
      dopts.port = static_cast<uint16_t>(std::strtoul(flag.c_str() + 7, nullptr, 10));
    } else if (flag.rfind("--deadline-ms=", 0) == 0) {
      dopts.pool.server.analysis_deadline_seconds =
          static_cast<double>(std::strtoull(flag.c_str() + 14, nullptr, 10)) / 1000.0;
    } else if (flag.rfind("--workloads=", 0) == 0) {
      names = SplitCommas(flag.substr(12));
    } else if (flag.rfind("--node-id=", 0) == 0) {
      dopts.node_id = std::strtoull(flag.c_str() + 10, nullptr, 10);
    } else if (flag.rfind("--peers=", 0) == 0) {
      peer_specs = SplitCommas(flag.substr(8));
    } else if (flag.rfind("--data-dir=", 0) == 0) {
      dopts.data_dir = flag.substr(11);
    } else if (flag == "--fsync") {
      dopts.fsync_each_append = true;
    } else if (flag.rfind("--epoch=", 0) == 0) {
      dopts.ring_epoch = std::strtoull(flag.c_str() + 8, nullptr, 10);
    } else {
      std::printf("unknown flag '%s'\n", flag.c_str());
      return Usage();
    }
  }
  // Ring membership: this daemon plus every --peers entry ("id@port").
  if (dopts.node_id != 0) {
    dopts.members.push_back(
        wire::RingMember{dopts.node_id, "127.0.0.1", dopts.port});
    for (const std::string& spec : peer_specs) {
      const size_t at = spec.find('@');
      if (at == std::string::npos) {
        std::printf("bad --peers entry '%s' (want id@port)\n", spec.c_str());
        return Usage();
      }
      wire::RingMember peer;
      peer.node_id = std::strtoull(spec.substr(0, at).c_str(), nullptr, 10);
      peer.host = "127.0.0.1";
      peer.port =
          static_cast<uint16_t>(std::strtoul(spec.c_str() + at + 1, nullptr, 10));
      dopts.members.push_back(peer);
    }
  } else if (!peer_specs.empty()) {
    std::printf("--peers requires --node-id\n");
    return Usage();
  }

  // The daemon routes bundles by module fingerprint, so it must hold the
  // modules agents will report against; build them from the catalogue.
  std::vector<workloads::Workload> catalogue;
  catalogue.reserve(names.size());
  for (const std::string& name : names) {
    catalogue.push_back(workloads::Build(name));
  }
  net::DiagnosisDaemon daemon(dopts);
  for (const workloads::Workload& w : catalogue) {
    daemon.RegisterModule(w.module.get());
  }
  const support::Status status = daemon.Start();
  if (!status.ok()) {
    std::printf("cannot start daemon: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("diagnosis daemon listening on 127.0.0.1:%u\n", daemon.port());
  if (daemon.cluster_mode()) {
    std::printf("cluster node %llu, %zu ring member(s), epoch %llu\n",
                static_cast<unsigned long long>(dopts.node_id),
                daemon.topology().members.size(),
                static_cast<unsigned long long>(daemon.topology().epoch));
  }
  if (daemon.recovered()) {
    const core::ServerPool::RecoveryStats& r = daemon.recovery();
    std::printf(
        "durable log %s: %zu site(s) recovered, %zu record(s) applied, "
        "%zu skipped (%llu corrupt, %llu duplicate)\n",
        dopts.data_dir.c_str(), r.sites_recovered, r.records_applied,
        r.records_skipped, static_cast<unsigned long long>(r.log.records_corrupt),
        static_cast<unsigned long long>(r.log.records_duplicate));
  }
  for (size_t i = 0; i < catalogue.size(); ++i) {
    std::printf("  module %-16s fingerprint %016llx\n", names[i].c_str(),
                static_cast<unsigned long long>(
                    pt::ModuleFingerprint(*catalogue[i].module)));
  }
  std::printf("SIGTERM or Ctrl-C to drain and stop\n");
  g_drain_requested = 0;
  std::signal(SIGTERM, RequestDrain);
  std::signal(SIGINT, RequestDrain);
  while (daemon.running() && g_drain_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (g_drain_requested != 0 && daemon.running()) {
    std::printf("draining: finishing in-flight work, handing off sites, syncing log\n");
    std::vector<core::ServerPool::ShardReport> final_reports;
    const support::Status drained = daemon.Drain(&final_reports);
    for (const core::ServerPool::ShardReport& sr : final_reports) {
      std::printf("final report: module %016llx site %u: %zu pattern(s), "
                  "%zu failing / %zu success trace(s), confidence %s\n",
                  static_cast<unsigned long long>(sr.key.module_fingerprint),
                  static_cast<uint32_t>(sr.key.failing_inst), sr.report.patterns.size(),
                  sr.report.failing_traces, sr.report.success_traces,
                  trace::ConfidenceTierName(sr.report.confidence));
    }
    if (!drained.ok()) {
      std::printf("drain finished with degradation: %s\n", drained.ToString().c_str());
      return 1;
    }
    std::printf("drained cleanly\n");
  }
  return 0;
}

int CmdSend(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::printf("send needs a workload name\n");
    return Usage();
  }
  const std::string name = argv[2];
  net::AgentOptions aopts;
  aopts.port = 7433;
  bool diagnose = false;
  bool agent_id_set = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--port=", 0) == 0) {
      aopts.port = static_cast<uint16_t>(std::strtoul(flag.c_str() + 7, nullptr, 10));
    } else if (flag.rfind("--agent-id=", 0) == 0) {
      aopts.agent_id = std::strtoull(flag.c_str() + 11, nullptr, 10);
      agent_id_set = true;
    } else if (flag == "--diagnose") {
      diagnose = true;
    } else {
      std::printf("unknown flag '%s'\n", flag.c_str());
      return Usage();
    }
  }

  if (!agent_id_set) {
    // The daemon dedupes by (agent id, seq) and every process numbers its
    // bundles from the start, so each send is its own agent unless told
    // otherwise.
    std::random_device entropy;
    aopts.agent_id = (static_cast<uint64_t>(entropy()) << 32) | entropy();
  }
  std::printf("agent id %llu\n", static_cast<unsigned long long>(aopts.agent_id));
  std::printf("capturing failing + success traces for %s...\n", name.c_str());
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites({name});
  if (sites.empty()) {
    std::printf("workload did not reproduce a failure; nothing to send\n");
    return 1;
  }
  const bench::CapturedSite& site = sites.front();

  net::DiagnosisAgent agent(aopts);
  agent.EnqueueFailing(site.failing);
  support::Status status = agent.Flush();
  if (status.ok()) {
    for (const pt::PtTraceBundle& success : site.successes) {
      agent.EnqueueSuccess(site.failing.failure.failing_inst, success);
    }
    status = agent.Flush();
  }
  if (!status.ok()) {
    std::printf("send failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const net::AgentStats& stats = agent.stats();
  std::printf("shipped %zu bundles (%zu acked, %zu duplicate, %zu reconnects)\n",
              stats.bundles_enqueued, stats.bundles_acked, stats.bundles_duplicate,
              stats.reconnects);
  if (!diagnose) {
    return 0;
  }
  auto reports = agent.Diagnose();
  if (!reports.ok()) {
    std::printf("diagnose failed: %s\n", reports.status().ToString().c_str());
    return 1;
  }
  for (const net::RemoteReport& remote : reports.value()) {
    std::printf("site %016llx/#%u: %zu failing + %zu success traces, confidence %s\n",
                static_cast<unsigned long long>(remote.module_fingerprint),
                remote.failing_inst, remote.report.failing_traces,
                remote.report.success_traces,
                trace::ConfidenceTierName(remote.report.confidence));
    int shown = 0;
    for (const core::DiagnosedPattern& p : remote.report.patterns) {
      if (shown++ == 3) {
        break;
      }
      std::printf("  F1=%.2f  %s\n", p.f1, core::PatternKindName(p.pattern.kind));
    }
  }
  return 0;
}

int CmdBenchFleet(int argc, char** argv) {
  bench::HarnessFlags flags;
  flags.agents = 4;
  flags.config.rounds = 2;
  const support::Status parsed = bench::ParseHarnessFlags(argc, argv, 2, &flags);
  if (!parsed.ok()) {
    std::printf("%s\n", parsed.ToString().c_str());
    return Usage();
  }
  bench::FleetConfig config;
  config.agents = flags.agents;
  config.rounds = flags.config.rounds;
  if (!flags.faults.empty()) {
    auto plan = faults::FaultPlan::Parse(flags.faults, flags.fault_seed);
    if (!plan.ok()) {
      std::printf("bad --faults spec: %s\n", plan.status().ToString().c_str());
      return 2;
    }
    config.chaos = plan.value();
    config.io_timeout_ms = 1000;
  }
  const std::vector<std::string> mix = {"pbzip2_main", "sqlite_1672", "memcached_127"};
  if (!flags.json_only) {
    std::printf("capturing failure + success traces for %zu workloads...\n", mix.size());
  }
  const std::vector<bench::CapturedSite> sites = bench::CaptureSites(mix);
  if (sites.empty()) {
    std::printf("no workload reproduced a failure; nothing to measure\n");
    return 1;
  }
  const bench::FleetResult result = bench::RunFleet(sites, config);
  const std::string json = bench::FleetJson(config, sites.size(), result);
  const support::Status emitted = bench::EmitBenchJson(flags, json, [&] {
    std::printf("wire == in-process digests: %s\n", result.digests_match ? "yes" : "NO");
  });
  if (!emitted.ok()) {
    return 2;
  }
  return result.digests_match && result.status.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  if (std::string(argv[1]) == "bench-throughput") {
    return CmdBenchThroughput(argc, argv);
  }
  if (std::string(argv[1]) == "bench-fleet") {
    return CmdBenchFleet(argc, argv);
  }
  if (std::string(argv[1]) == "serve") {
    return CmdServe(argc, argv);
  }
  if (std::string(argv[1]) == "send") {
    return CmdSend(argc, argv);
  }
  if (argc < 3) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  const uint64_t arg = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  if (cmd == "parse") {
    return CmdParse(path);
  }
  if (cmd == "run") {
    return CmdRun(path, arg);
  }
  if (cmd == "trace") {
    return CmdTrace(path, arg);
  }
  if (cmd == "diagnose") {
    DiagnoseFlags flags;
    for (int i = 3; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--explain") {
        flags.explain = true;
      } else if (flag == "--suggest-fix") {
        flags.suggest_fix = true;
      } else if (flag.rfind("--report=", 0) == 0) {
        if (!report::ParseFormat(flag.substr(9), &flags.format)) {
          std::printf("bad --report '%s' (want text|json|sarif)\n", flag.c_str() + 9);
          return Usage();
        }
      } else if (!flag.empty() && flag[0] != '-') {
        const uint64_t n = std::strtoull(flag.c_str(), nullptr, 10);
        flags.failing_traces = n == 0 ? 1 : static_cast<size_t>(n);
      } else {
        std::printf("unknown flag '%s'\n", flag.c_str());
        return Usage();
      }
    }
    return CmdDiagnose(path, flags);
  }
  if (cmd == "generate") {
    return CmdGenerate(argc, argv);
  }
  if (cmd == "fuzz-trace") {
    std::string spec;
    uint64_t fault_seed = 1;
    for (int i = 3; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--faults=", 0) == 0) {
        spec = flag.substr(9);
      } else if (flag.rfind("--seed=", 0) == 0) {
        fault_seed = std::strtoull(flag.c_str() + 7, nullptr, 10);
      } else {
        std::printf("unknown flag '%s'\n", flag.c_str());
        return Usage();
      }
    }
    auto plan = faults::FaultPlan::Parse(spec, fault_seed);
    if (!plan.ok()) {
      std::printf("bad --faults spec: %s\n", plan.status().ToString().c_str());
      return 2;
    }
    return CmdFuzzTrace(path, plan.value());
  }
  return Usage();
}
