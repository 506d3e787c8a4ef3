#include "bench/throughput_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "core/client.h"
#include "pt/decoder.h"
#include "support/json.h"
#include "support/str.h"
#include "wire/serialize.h"

namespace snorlax::bench {

namespace {

double PercentileMs(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  const size_t idx = std::min(sorted_ms.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

}  // namespace

std::string DigestReport(const core::DiagnosisReport& report) {
  // Everything order-stable and content-derived; no wall times, no
  // degradation notes (their order depends on thread interleaving even
  // though their counts do not).
  std::string digest = StrFormat(
      "failing=%zu success=%zu conf=%d rej=%zu hyp=%d\n", report.failing_traces,
      report.success_traces, static_cast<int>(report.confidence),
      report.degradation.rejected_bundles, report.hypothesis_violated ? 1 : 0);
  for (const core::DiagnosedPattern& p : report.patterns) {
    digest += StrFormat("  %s f1=%.9f tp=%zu fp=%zu fn=%zu\n", p.pattern.Key().c_str(), p.f1,
                        p.counts.true_positive, p.counts.false_positive,
                        p.counts.false_negative);
  }
  return digest;
}

std::string DigestReports(const std::vector<core::ServerPool::ShardReport>& reports) {
  std::string digest;
  for (const core::ServerPool::ShardReport& sr : reports) {
    digest += StrFormat("site=%llx/%u ", (unsigned long long)sr.key.module_fingerprint,
                        sr.key.failing_inst);
    digest += DigestReport(sr.report);
  }
  return digest;
}

support::Status ParseHarnessFlags(int argc, char** argv, int first, HarnessFlags* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--clients=", 0) == 0) {
      flags->config.clients = std::strtoull(flag.c_str() + 10, nullptr, 10);
      flags->config.threads = flags->config.clients;
    } else if (flag.rfind("--threads=", 0) == 0) {
      flags->config.threads = std::strtoull(flag.c_str() + 10, nullptr, 10);
    } else if (flag.rfind("--rounds=", 0) == 0) {
      flags->config.rounds = std::strtoull(flag.c_str() + 9, nullptr, 10);
    } else if (flag.rfind("--agents=", 0) == 0) {
      flags->agents = std::strtoull(flag.c_str() + 9, nullptr, 10);
    } else if (flag.rfind("--faults=", 0) == 0) {
      flags->faults = flag.substr(9);
    } else if (flag.rfind("--fault-seed=", 0) == 0) {
      flags->fault_seed = std::strtoull(flag.c_str() + 13, nullptr, 10);
    } else if (flag.rfind("--daemons=", 0) == 0) {
      flags->daemons = std::strtoull(flag.c_str() + 10, nullptr, 10);
    } else if (flag == "--kill-restart") {
      flags->kill_restart = true;
    } else if (flag.rfind("--data-dir=", 0) == 0) {
      flags->data_dir = flag.substr(11);
    } else if (flag.rfind("--json=", 0) == 0) {
      flags->json_path = flag.substr(7);
    } else if (flag == "--json") {
      flags->json_only = true;
    } else {
      return support::Status::Error(support::StatusCode::kInvalidArgument,
                                    StrFormat("unknown flag '%s'", flag.c_str()));
    }
  }
  return support::Status::Ok();
}

std::vector<CapturedSite> CaptureSites(const std::vector<std::string>& workload_names,
                                       size_t successes_per_site) {
  std::vector<CapturedSite> sites;
  for (const std::string& name : workload_names) {
    CapturedSite site{workloads::Build(name), {}, {}};
    core::ClientOptions copts;
    copts.interp = site.workload.interp;
    core::DiagnosisClient client(site.workload.module.get(), copts);

    uint64_t seed = 1;
    bool captured = false;
    for (; seed <= 3000; ++seed) {
      core::ClientRun run = client.RunOnce(seed);
      if (run.result.failure.IsFailure() && run.trace.has_value()) {
        site.failing = *run.trace;
        captured = true;
        ++seed;
        break;
      }
    }
    if (!captured) {
      continue;  // irreproducible within budget; keep the mix chaos-free
    }

    // A scout server computes the dump points the real runs will be asked to
    // trace successful executions at.
    core::DiagnosisServer scout(site.workload.module.get());
    if (!scout.SubmitFailingTrace(site.failing).ok()) {
      continue;
    }
    const auto dump_points = scout.RequestedDumpPoints();
    for (; seed <= 6000 && site.successes.size() < successes_per_site; ++seed) {
      core::ClientRun run = client.RunOnce(seed, dump_points);
      if (!run.result.failure.IsFailure() && run.trace.has_value()) {
        site.successes.push_back(*run.trace);
      }
    }
    sites.push_back(std::move(site));
  }
  return sites;
}

ThroughputResult RunThroughput(const std::vector<CapturedSite>& sites,
                               const ThroughputConfig& config) {
  ThroughputResult result;
  if (sites.empty() || config.clients == 0) {
    return result;
  }

  core::ServerPool pool;
  for (const CapturedSite& site : sites) {
    pool.RegisterModule(site.workload.module.get());
  }

  // Client t's script per round: every site's failing bundle (timed), then --
  // first round only -- the successes assigned to t. Each distinct success
  // bundle is submitted exactly once across all clients, keeping the total
  // per site at or under the 10x cap, so no bundle is ever dropped and the
  // final state cannot depend on submission interleaving.
  std::vector<std::vector<double>> latencies(config.clients);
  auto client_script = [&](size_t t) {
    std::vector<double>& lat = latencies[t];
    for (size_t round = 0; round < config.rounds; ++round) {
      for (const CapturedSite& site : sites) {
        const auto start = std::chrono::steady_clock::now();
        pool.SubmitFailingTrace(site.failing);
        lat.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                .count());
        if (round == 0) {
          for (size_t i = t; i < site.successes.size(); i += config.clients) {
            pool.SubmitSuccessTrace(site.failing.failure.failing_inst, site.successes[i]);
          }
        }
      }
    }
  };

  // Streams are dealt round-robin to the OS threads; with threads == 1 every
  // stream runs on the caller, giving the serial baseline the identical
  // submission multiset.
  const size_t threads = std::max<size_t>(1, std::min(config.threads, config.clients));
  auto drive_streams = [&](size_t worker) {
    for (size_t t = worker; t < config.clients; t += threads) {
      client_script(t);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  if (threads == 1) {
    drive_streams(0);
  } else {
    std::vector<std::thread> drivers;
    drivers.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
      drivers.emplace_back(drive_streams, w);
    }
    for (std::thread& d : drivers) {
      d.join();
    }
  }
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  size_t total_successes = 0;
  for (const CapturedSite& site : sites) {
    total_successes += site.successes.size();
  }
  result.bundles_submitted = config.clients * config.rounds * sites.size() + total_successes;
  result.bundles_per_sec =
      result.seconds > 0 ? static_cast<double>(result.bundles_submitted) / result.seconds : 0.0;

  std::vector<double> all_lat;
  for (const auto& lat : latencies) {
    all_lat.insert(all_lat.end(), lat.begin(), lat.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = PercentileMs(all_lat, 0.50);
  result.p99_ms = PercentileMs(all_lat, 0.99);

  result.shards = pool.num_shards();
  result.report_digest = DigestReports(pool.DiagnoseAll());
  return result;
}

IngestProfile ProfileIngest(const std::vector<CapturedSite>& sites) {
  IngestProfile profile;
  for (const CapturedSite& site : sites) {
    std::vector<const pt::PtTraceBundle*> bundles;
    bundles.push_back(&site.failing);
    for (const pt::PtTraceBundle& success : site.successes) {
      bundles.push_back(&success);
    }
    for (const pt::PtTraceBundle* bundle : bundles) {
      std::vector<uint8_t> bytes;
      wire::EncodeBundle(*bundle, &bytes);
      profile.bytes += bytes.size();
      ++profile.bundles;
    }
  }
  if (profile.bundles > 0) {
    profile.bytes_per_bundle =
        static_cast<double>(profile.bytes) / static_cast<double>(profile.bundles);
  }

  // Decode rate over the same bundles, a handful of repetitions so the number
  // is not dominated by one cold pass. The per-site decoder and the reused
  // output trace are the production shape (arena reuse across bundles).
  constexpr int kReps = 3;
  size_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const CapturedSite& site : sites) {
      pt::PtDecoder decoder(site.workload.module.get());
      pt::DecodedThreadTrace scratch;
      const auto decode_all = [&](const pt::PtTraceBundle& bundle) {
        for (const pt::PtTraceBundle::PerThread& per : bundle.threads) {
          decoder.DecodeThreadInto(per, bundle.config, bundle.snapshot_time_ns, &scratch);
          events += scratch.events.size();
        }
      };
      decode_all(site.failing);
      for (const pt::PtTraceBundle& success : site.successes) {
        decode_all(success);
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  profile.decoded_events = events;
  profile.decode_events_per_sec =
      seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  return profile;
}

support::Status WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return support::Status::Error(support::StatusCode::kInternal,
                                  StrFormat("cannot write '%s'", path.c_str()));
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  return support::Status::Ok();
}

support::Status EmitBenchJson(const HarnessFlags& flags, const std::string& json,
                              const std::function<void()>& print_human) {
  if (!flags.json_path.empty()) {
    const support::Status written = WriteJsonFile(flags.json_path, json);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return written;
    }
  }
  if (!flags.json_only && print_human != nullptr) {
    print_human();
  }
  std::printf("%s\n", json.c_str());
  return support::Status::Ok();
}

namespace {

void WriteRunJson(support::JsonWriter* w, std::string_view key,
                  const ThroughputResult& r) {
  w->Key(key).BeginObject();
  w->Field("bundles", static_cast<uint64_t>(r.bundles_submitted));
  w->Field("seconds", r.seconds, 4);
  w->Field("bundles_per_sec", r.bundles_per_sec, 1);
  w->Field("p50_ms", r.p50_ms, 3);
  w->Field("p99_ms", r.p99_ms, 3);
  w->EndObject();
}

}  // namespace

std::string ThroughputJson(const ThroughputConfig& config, size_t sites,
                           const ThroughputResult& serial, const ThroughputResult& parallel,
                           const IngestProfile& profile) {
  const double speedup =
      serial.bundles_per_sec > 0 ? parallel.bundles_per_sec / serial.bundles_per_sec : 0.0;
  support::JsonWriter w;
  w.BeginObject();
  w.Field("clients", static_cast<uint64_t>(config.clients));
  w.Field("threads", static_cast<uint64_t>(config.threads));
  w.Field("rounds", static_cast<uint64_t>(config.rounds));
  w.Field("sites", static_cast<uint64_t>(sites));
  WriteRunJson(&w, "serial", serial);
  WriteRunJson(&w, "parallel", parallel);
  w.Field("speedup", speedup, 2);
  w.Field("identical_reports", serial.report_digest == parallel.report_digest);
  w.Key("wire").BeginObject();
  w.Field("bundles", static_cast<uint64_t>(profile.bundles));
  w.Field("bytes_per_bundle", profile.bytes_per_bundle, 1);
  w.Field("decode_events_per_sec", profile.decode_events_per_sec, 0);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace snorlax::bench
