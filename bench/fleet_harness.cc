#include "bench/fleet_harness.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "net/agent.h"
#include "net/cluster_agent.h"
#include "net/daemon.h"
#include "support/json.h"
#include "support/str.h"

namespace snorlax::bench {

namespace {

double PercentileMs(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  const size_t idx = std::min(sorted_ms.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

// The in-process reference: the same multiset the fleet ships, submitted
// directly (failing bundles first per site, successes once each), serially.
std::string InProcessDigest(const std::vector<CapturedSite>& sites,
                            const FleetConfig& config) {
  core::ServerPool pool;
  for (const CapturedSite& site : sites) {
    pool.RegisterModule(site.workload.module.get());
  }
  for (const CapturedSite& site : sites) {
    for (size_t i = 0; i < config.agents * config.rounds; ++i) {
      pool.SubmitFailingTrace(site.failing);
    }
    for (const pt::PtTraceBundle& success : site.successes) {
      pool.SubmitSuccessTrace(site.failing.failure.failing_inst, success);
    }
  }
  return DigestReports(pool.DiagnoseAll());
}

}  // namespace

FleetResult RunFleet(const std::vector<CapturedSite>& sites, const FleetConfig& config) {
  FleetResult result;
  if (sites.empty() || config.agents == 0) {
    result.status = support::Status::Error(support::StatusCode::kInvalidArgument,
                                           "no sites or no agents");
    return result;
  }

  net::DiagnosisDaemon daemon;
  for (const CapturedSite& site : sites) {
    daemon.RegisterModule(site.workload.module.get());
  }
  result.status = daemon.Start();
  if (!result.status.ok()) {
    return result;
  }

  // Agent t's script mirrors throughput stream t: per round, every site's
  // failing bundle; first round also deals the successes round-robin, so each
  // distinct success bundle crosses the wire exactly once fleet-wide.
  std::vector<std::unique_ptr<net::DiagnosisAgent>> agents;
  for (size_t t = 0; t < config.agents; ++t) {
    net::AgentOptions aopts;
    aopts.port = daemon.port();
    aopts.agent_id = t + 1;
    aopts.io_timeout_ms = config.io_timeout_ms;
    aopts.max_attempts = config.max_attempts;
    aopts.jitter_seed = t + 1;
    aopts.chaos = config.chaos;
    aopts.chaos.seed = config.chaos.seed + t;
    agents.push_back(std::make_unique<net::DiagnosisAgent>(aopts));
  }

  std::vector<support::Status> statuses(config.agents);
  auto agent_script = [&](size_t t) {
    net::DiagnosisAgent& agent = *agents[t];
    for (size_t round = 0; round < config.rounds; ++round) {
      for (const CapturedSite& site : sites) {
        // The failing bundle is flushed -- acked, hence ingested -- before any
        // success bundle is even enqueued: the pool rejects successes for a
        // site no shard has seen, and under chaos a corrupted failing frame
        // would otherwise let this agent's successes overtake it.
        agent.EnqueueFailing(site.failing);
        support::Status status = agent.Flush();
        if (status.ok() && round == 0) {
          for (size_t i = t; i < site.successes.size(); i += config.agents) {
            agent.EnqueueSuccess(site.failing.failure.failing_inst, site.successes[i]);
          }
          status = agent.Flush();
        }
        if (!status.ok()) {
          statuses[t] = status;
          return;
        }
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(config.agents);
  for (size_t t = 0; t < config.agents; ++t) {
    drivers.emplace_back(agent_script, t);
  }
  for (std::thread& d : drivers) {
    d.join();
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> all_lat;
  for (size_t t = 0; t < config.agents; ++t) {
    const net::AgentStats& stats = agents[t]->stats();
    result.bundles_sent += stats.bundles_enqueued;
    result.bundles_acked += stats.bundles_acked;
    result.bundles_duplicate += stats.bundles_duplicate;
    result.frames_chaos_corrupted += stats.frames_chaos_corrupted;
    result.reconnects += stats.reconnects;
    result.wire_bytes_sent += stats.bundle_bytes_sent;
    const std::vector<double>& lat = agents[t]->ack_latencies_ms();
    all_lat.insert(all_lat.end(), lat.begin(), lat.end());
    if (!statuses[t].ok() && result.status.ok()) {
      result.status = statuses[t];
    }
  }
  result.bundles_per_sec =
      result.seconds > 0 ? static_cast<double>(result.bundles_sent) / result.seconds : 0.0;
  result.bytes_per_bundle =
      result.bundles_acked > 0
          ? static_cast<double>(result.wire_bytes_sent) / static_cast<double>(result.bundles_acked)
          : 0.0;
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = PercentileMs(all_lat, 0.50);
  result.p99_ms = PercentileMs(all_lat, 0.99);
  result.daemon_frames_corrupt = daemon.stats().frames_corrupt;

  // Diagnosis is requested over the wire too -- on a clean connection, so a
  // chaos plan cannot shed the reports whose digest we are about to compare.
  net::AgentOptions ropts;
  ropts.port = daemon.port();
  ropts.agent_id = config.agents + 1;
  ropts.io_timeout_ms = std::max(config.io_timeout_ms, 30000);
  auto reports = net::DiagnosisAgent(ropts).Diagnose();
  if (!reports.ok()) {
    if (result.status.ok()) {
      result.status = reports.status();
    }
  } else {
    std::vector<core::ServerPool::ShardReport> shards;
    shards.reserve(reports.value().size());
    for (net::RemoteReport& remote : reports.value()) {
      core::ServerPool::ShardReport sr;
      sr.key.module_fingerprint = remote.module_fingerprint;
      sr.key.failing_inst = remote.failing_inst;
      sr.report = std::move(remote.report);
      shards.push_back(std::move(sr));
    }
    std::sort(shards.begin(), shards.end(), [](const auto& a, const auto& b) {
      return a.key.module_fingerprint != b.key.module_fingerprint
                 ? a.key.module_fingerprint < b.key.module_fingerprint
                 : a.key.failing_inst < b.key.failing_inst;
    });
    result.reports_received = shards.size();
    result.wire_digest = DigestReports(shards);
  }
  daemon.Stop();

  result.inprocess_digest = InProcessDigest(sites, config);
  result.digests_match =
      !result.wire_digest.empty() && result.wire_digest == result.inprocess_digest;
  return result;
}

namespace {

constexpr int kBindAttempts = 3;

// Socket::Listen reports a port another socket holds as kUnavailable, and
// nothing else DiagnosisDaemon::Start() can return carries that code.
bool IsAddressInUse(const support::Status& status) {
  return status.code() == support::StatusCode::kUnavailable;
}

std::string WireDigest(std::vector<net::RemoteReport>&& reports) {
  std::vector<core::ServerPool::ShardReport> shards;
  shards.reserve(reports.size());
  for (net::RemoteReport& remote : reports) {
    core::ServerPool::ShardReport sr;
    sr.key.module_fingerprint = remote.module_fingerprint;
    sr.key.failing_inst = remote.failing_inst;
    sr.report = std::move(remote.report);
    shards.push_back(std::move(sr));
  }
  std::sort(shards.begin(), shards.end(), [](const auto& a, const auto& b) {
    return a.key.module_fingerprint != b.key.module_fingerprint
               ? a.key.module_fingerprint < b.key.module_fingerprint
               : a.key.failing_inst < b.key.failing_inst;
  });
  return DigestReports(shards);
}

}  // namespace

support::Status RetryOnAddressInUse(const std::function<support::Status()>& start) {
  support::Status status;
  for (int attempt = 1; attempt <= kBindAttempts; ++attempt) {
    status = start();
    if (!IsAddressInUse(status) || attempt == kBindAttempts) {
      break;
    }
    // Whatever holds the port may be about to let it go.
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * attempt));
  }
  return status;
}

support::Status StartOnFreshPorts(
    size_t n, const std::function<support::Status(const std::vector<uint16_t>&)>& start) {
  return RetryOnAddressInUse([&]() -> support::Status {
    // Each port's socket stays bound until all n are chosen, so the kernel
    // hands out n distinct ports; SO_REUSEADDR lets a daemon re-bind one at
    // once after the close.
    std::vector<net::Socket> held;
    std::vector<uint16_t> ports;
    for (size_t i = 0; i < n; ++i) {
      auto listener = net::Socket::Listen(0);
      if (!listener.ok()) {
        return listener.status();
      }
      held.push_back(listener.take());
      ports.push_back(held.back().local_port());
    }
    held.clear();
    return start(ports);
  });
}

ClusterResult RunCluster(const std::vector<CapturedSite>& sites,
                         const ClusterConfig& config) {
  ClusterResult result;
  if (sites.empty() || config.daemons == 0) {
    result.status = support::Status::Error(support::StatusCode::kInvalidArgument,
                                           "no sites or no daemons");
    return result;
  }
  if (config.kill_restart && config.data_dir.empty()) {
    result.status = support::Status::Error(support::StatusCode::kInvalidArgument,
                                           "kill_restart needs a data_dir");
    return result;
  }
  if (!config.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(config.data_dir, ec);  // fresh run, fresh logs
  }

  // Ring membership must be known before any daemon starts, so ports are
  // chosen up front and every member gets the full roster.
  std::vector<uint16_t> ports;
  std::vector<wire::RingMember> members;
  auto daemon_options = [&](size_t i) {
    net::DaemonOptions dopts;
    dopts.port = ports[i];
    dopts.node_id = i + 1;
    dopts.members = members;
    if (!config.data_dir.empty()) {
      dopts.data_dir = StrFormat("%s/node-%zu", config.data_dir.c_str(), i + 1);
      dopts.fsync_each_append = true;  // a killed daemon must lose nothing
    }
    return dopts;
  };
  auto start_daemon = [&](size_t i) {
    auto daemon = std::make_unique<net::DiagnosisDaemon>(daemon_options(i));
    for (const CapturedSite& site : sites) {
      daemon->RegisterModule(site.workload.module.get());
    }
    const support::Status status = daemon->Start();
    return std::make_pair(std::move(daemon), status);
  };
  std::vector<std::unique_ptr<net::DiagnosisDaemon>> daemons;
  result.status = StartOnFreshPorts(config.daemons, [&](const std::vector<uint16_t>& fresh) {
    ports = fresh;
    members.clear();
    for (size_t i = 0; i < ports.size(); ++i) {
      members.push_back(wire::RingMember{i + 1, "127.0.0.1", ports[i]});
    }
    daemons.clear();  // stops the members of a failed attempt
    for (size_t i = 0; i < ports.size(); ++i) {
      auto [daemon, status] = start_daemon(i);
      if (!status.ok()) {
        daemons.clear();
        return status;
      }
      daemons.push_back(std::move(daemon));
    }
    return support::Status::Ok();
  });
  if (!result.status.ok()) {
    return result;
  }

  net::ClusterAgentOptions copts;
  copts.seed_ports = ports;
  copts.agent.agent_id = 1;
  copts.agent.io_timeout_ms = config.io_timeout_ms;
  copts.agent.max_attempts = config.max_attempts;
  net::ClusterAgent cagent(copts);

  std::vector<size_t> ingested_base(config.daemons, 0);
  const auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < config.rounds && result.status.ok(); ++round) {
    for (const CapturedSite& site : sites) {
      support::Status status = cagent.SendFailing(site.failing);
      if (status.ok() && round == 0) {
        for (const pt::PtTraceBundle& success : site.successes) {
          status = cagent.SendSuccess(site.failing.failure.failing_inst, success);
          if (!status.ok()) {
            break;
          }
        }
      }
      if (!status.ok()) {
        result.status = status;
        break;
      }
    }
    if (config.kill_restart && round == 0 && result.status.ok()) {
      // Kill the busiest member (the most interesting recovery) and restart
      // it on the same port: Start() replays the durable log before serving,
      // so the timed window covers the full cold-start.
      size_t victim = 0;
      for (size_t i = 1; i < config.daemons; ++i) {
        if (daemons[i]->stats().bundles_ingested >
            daemons[victim]->stats().bundles_ingested) {
          victim = i;
        }
      }
      ingested_base[victim] = daemons[victim]->stats().bundles_ingested;
      daemons[victim].reset();  // Stop(): close sockets, sync + close the log
      const auto restart_begin = std::chrono::steady_clock::now();
      result.status = RetryOnAddressInUse([&] {
        daemons[victim].reset();  // a failed attempt's log closes first
        auto [daemon, status] = start_daemon(victim);
        daemons[victim] = std::move(daemon);
        return status;
      });
      result.recovery_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - restart_begin)
                                    .count();
      if (!result.status.ok()) {
        break;
      }
      result.recovered_sites = daemons[victim]->recovery().sites_recovered;
      result.recovered_records = daemons[victim]->recovery().records_applied;
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  result.bundles_sent = cagent.stats().bundles_routed;
  result.bundles_rerouted = cagent.stats().bundles_rerouted;
  result.reconnects = cagent.total_reconnects();
  result.bundles_by_daemon.resize(config.daemons);
  for (size_t i = 0; i < config.daemons; ++i) {
    const net::DaemonStats stats = daemons[i]->stats();
    result.bundles_by_daemon[i] = ingested_base[i] + stats.bundles_ingested;
    result.wrong_shard_bounces += stats.bundles_wrong_shard;
  }
  result.bundles_per_sec =
      result.seconds > 0 ? static_cast<double>(result.bundles_sent) / result.seconds : 0.0;

  if (result.status.ok()) {
    auto reports = cagent.DiagnoseAll();
    if (!reports.ok()) {
      result.status = reports.status();
    } else {
      result.reports_received = reports.value().size();
      result.wire_digest = WireDigest(std::move(reports.value()));
    }
  }
  for (auto& daemon : daemons) {
    daemon->Stop();
  }

  FleetConfig reference;
  reference.agents = 1;
  reference.rounds = config.rounds;
  result.inprocess_digest = InProcessDigest(sites, reference);
  result.digests_match =
      !result.wire_digest.empty() && result.wire_digest == result.inprocess_digest;
  return result;
}

std::string ClusterJson(const ClusterConfig& config, size_t sites,
                        const ClusterResult& result) {
  support::JsonWriter w;
  w.BeginObject();
  w.Field("daemons", static_cast<uint64_t>(config.daemons));
  w.Field("rounds", static_cast<uint64_t>(config.rounds));
  w.Field("sites", static_cast<uint64_t>(sites));
  w.Field("kill_restart", config.kill_restart);
  w.Field("bundles", static_cast<uint64_t>(result.bundles_sent));
  w.Field("rerouted", static_cast<uint64_t>(result.bundles_rerouted));
  w.Field("wrong_shard_bounces", static_cast<uint64_t>(result.wrong_shard_bounces));
  w.Field("reconnects", static_cast<uint64_t>(result.reconnects));
  w.Field("bundles_per_sec", result.bundles_per_sec, 1);
  w.Field("seconds", result.seconds, 4);
  w.Field("recovery_seconds", result.recovery_seconds, 4);
  w.Field("recovered_sites", static_cast<uint64_t>(result.recovered_sites));
  w.Field("recovered_records", static_cast<uint64_t>(result.recovered_records));
  w.Key("ingest_spread").BeginArray();
  for (const size_t n : result.bundles_by_daemon) {
    w.UInt(n);
  }
  w.EndArray();
  w.Field("reports", static_cast<uint64_t>(result.reports_received));
  w.Field("identical_reports", result.digests_match);
  w.Field("status", result.status.ok() ? "ok" : result.status.ToString());
  w.EndObject();
  return w.Take();
}

std::string FleetJson(const FleetConfig& config, size_t sites, const FleetResult& result) {
  support::JsonWriter w;
  w.BeginObject();
  w.Field("agents", static_cast<uint64_t>(config.agents));
  w.Field("rounds", static_cast<uint64_t>(config.rounds));
  w.Field("sites", static_cast<uint64_t>(sites));
  w.Field("chaos", config.chaos.faults.empty() ? std::string() : config.chaos.ToString());
  w.Field("bundles", static_cast<uint64_t>(result.bundles_sent));
  w.Field("acked", static_cast<uint64_t>(result.bundles_acked));
  w.Field("duplicates", static_cast<uint64_t>(result.bundles_duplicate));
  w.Field("chaos_frames", static_cast<uint64_t>(result.frames_chaos_corrupted));
  w.Field("daemon_corrupt_frames", static_cast<uint64_t>(result.daemon_frames_corrupt));
  w.Field("reconnects", static_cast<uint64_t>(result.reconnects));
  w.Field("seconds", result.seconds, 4);
  w.Field("bundles_per_sec", result.bundles_per_sec, 1);
  w.Field("p50_ms", result.p50_ms, 3);
  w.Field("p99_ms", result.p99_ms, 3);
  w.Field("wire_bytes", static_cast<uint64_t>(result.wire_bytes_sent));
  w.Field("bytes_per_bundle", result.bytes_per_bundle, 1);
  w.Field("reports", static_cast<uint64_t>(result.reports_received));
  w.Field("identical_reports", result.digests_match);
  w.Field("status", result.status.ok() ? "ok" : result.status.ToString());
  w.EndObject();
  return w.Take();
}

}  // namespace snorlax::bench
