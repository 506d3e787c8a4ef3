#include "fleet.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <stdexcept>
#include <utility>

#include "bench/throughput_harness.h"
#include "core/server_pool.h"
#include "engine/durable_log.h"
#include "report/report.h"
#include "wire/serialize.h"

namespace perfbench {

namespace sx = snorlax;

namespace {

std::string Digest(std::vector<sx::core::ServerPool::ShardReport> reports) {
  std::sort(reports.begin(), reports.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.key.module_fingerprint, a.key.failing_inst) <
           std::make_pair(b.key.module_fingerprint, b.key.failing_inst);
  });
  return sx::bench::DigestReports(reports);
}

}  // namespace

FleetSession::FleetSession(const std::vector<Site>& sites, const std::vector<DecodedSite>& decoded,
                           std::string dir, uint64_t order_seed)
    : sites_(sites), decoded_(decoded), dir_(std::move(dir)), rng_(order_seed) {
  site_order_.resize(sites.size());
  std::iota(site_order_.begin(), site_order_.end(), 0);
  for (const DecodedSite& d : decoded) {
    std::vector<size_t>& order = success_order_.emplace_back(d.successes.size());
    std::iota(order.begin(), order.end(), 0);
  }
}

FleetSession::~FleetSession() {
  Stop();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void FleetSession::Stop() {
  agent_.reset();
  if (daemon_ != nullptr) {
    daemon_->Stop();
    daemon_.reset();
  }
}

sx::support::Status FleetSession::Start() {
  sx::net::DaemonOptions options;
  options.data_dir = dir_ + "/daemon";
  options.fsync_each_append = false;
  daemon_ = std::make_unique<sx::net::DiagnosisDaemon>(options);
  for (const Site& site : sites_) {
    daemon_->RegisterModule(&site.module());
  }
  sx::support::Status status = daemon_->Start();
  if (!status.ok()) {
    return status;
  }
  sx::net::AgentOptions agent_options;
  agent_options.port = daemon_->port();
  agent_ = std::make_unique<sx::net::DiagnosisAgent>(agent_options);
  return sx::support::Status::Ok();
}

FleetRound FleetSession::Round(uint64_t round_id, SpanRecorder* spans, bool first) {
  FleetRound r;
  const size_t rejected_before = agent_->stats().bundles_rejected;
  std::shuffle(site_order_.begin(), site_order_.end(), rng_);
  for (std::vector<size_t>& order : success_order_) {
    std::shuffle(order.begin(), order.end(), rng_);
  }

  const uint32_t round_span = spans->Begin("round", 0, round_id);
  const int64_t start = NowNs();
  auto ship = [&](size_t s, bool failing, size_t i) {
    const size_t acks_before = agent_->ack_latencies_ms().size();
    const uint32_t span = spans->Begin("net.flush", round_span, s);
    const sx::support::Status status =
        failing ? agent_->SendFailing(decoded_[s].failing[i])
                : agent_->SendSuccess(sites_[s].failing_inst, decoded_[s].successes[i]);
    spans->End(span);
    const bool acked = status.ok() && agent_->ack_latencies_ms().size() > acks_before;
    const double ack_ms = acked ? agent_->ack_latencies_ms().back() : 0.0;
    if (acked) {
      r.ack_ms.push_back(ack_ms);
    } else {
      ++r.failed;
    }
    r.sent.push_back(SentBundle{s, failing, i, span, acked, ack_ms});
  };
  for (size_t s : site_order_) {
    for (size_t i = 0; i < decoded_[s].failing.size(); ++i) {
      ship(s, true, i);
    }
    for (size_t i : success_order_[s]) {
      ship(s, false, i);
    }
  }
  r.diagnose_span = spans->Begin("net.diagnose", round_span, round_id);
  sx::support::Result<std::vector<sx::net::RemoteReport>> remote = agent_->Diagnose();
  spans->End(r.diagnose_span);
  r.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  spans->End(round_span);
  r.attempted = r.sent.size() + 1;
  r.failed += agent_->stats().bundles_rejected - rejected_before;
  if (!remote.ok()) {
    ++r.failed;
    return r;
  }

  std::vector<sx::core::ServerPool::ShardReport> wire;
  int64_t encode_total = 0;
  for (const sx::net::RemoteReport& rr : remote.value()) {
    wire.push_back({{rr.module_fingerprint, rr.failing_inst}, rr.report});
    if (spans->enabled() && rr.full != nullptr) {
      std::vector<uint8_t> bytes;
      const int64_t t0 = NowNs();
      sx::report::EncodeReport(*rr.full, &bytes);
      const int64_t ns = NowNs() - t0;
      encode_total += ns;
      r.report_encode_ns.push_back(static_cast<double>(ns));
      r.report_bytes.push_back(static_cast<double>(bytes.size()));
    }
  }
  spans->AddReplay("report.encode", r.diagnose_span, round_id, encode_total);
  r.digest = Digest(wire);
  for (const Site& site : sites_) {
    ++r.attempted;
    ++r.rank1_checks;
    const auto it = std::find_if(wire.begin(), wire.end(), [&](const auto& w) {
      return w.key.module_fingerprint == site.fingerprint &&
             w.key.failing_inst == site.failing_inst;
    });
    if (it != wire.end() && RootCauseRanksFirst(site, it->report)) {
      ++r.rank1_ok;
    } else {
      ++r.failed;
      if (first) {
        std::printf("# check failed in the first round: %s (root cause not ranked first)\n",
                    site.workload.name.c_str());
      }
    }
  }
  return r;
}

size_t MirrorCheck(const std::vector<Site>& sites, const std::vector<FleetRound>& rounds,
                   const std::vector<SiteCost>& costs, const std::string& dir,
                   SpanRecorder* spans, Samples* samples) {
  sx::engine::DurableLog log;
  sx::engine::DurableLog::Options log_options;
  log_options.directory = dir;
  if (!log.Open(log_options).ok()) {
    return rounds.size();
  }
  sx::core::ServerPoolOptions options;
  options.durable_log = &log;
  size_t mismatches = 0;
  {
    sx::core::ServerPool mirror(options);
    for (const Site& site : sites) {
      mirror.RegisterModule(&site.module());
    }
    for (const FleetRound& round : rounds) {
      bool fed = true;
      for (const SentBundle& b : round.sent) {
        const Site& site = sites[b.site];
        const std::vector<uint8_t>& bytes =
            b.failing ? site.failing[b.index] : site.successes[b.index];
        const int64_t t0 = NowNs();
        sx::support::Result<sx::pt::PtTraceBundle> bundle = sx::wire::DecodeBundle(bytes);
        const int64_t t1 = NowNs();
        if (!bundle.ok()) {
          fed = false;
          continue;
        }
        const sx::core::DiagnosisServer* shard = mirror.shard(site.fingerprint, site.failing_inst);
        const sx::engine::PassStatsTable before =
            shard != nullptr ? shard->pass_stats() : sx::engine::PassStatsTable{};
        const sx::support::Status status =
            b.failing ? mirror.SubmitFailingTrace(bundle.value())
                      : mirror.SubmitSuccessTrace(site.failing_inst, bundle.value());
        const int64_t t2 = NowNs();
        fed &= status.ok();
        if (b.span == 0) {
          continue;  // an untraced round, or tracing is off
        }
        (*samples)["wire.decode"].push_back(static_cast<double>(t1 - t0));
        (*samples)[b.failing ? "core.submit_failing" : "core.submit_success"].push_back(
            static_cast<double>(t2 - t1));
        if (b.acked) {
          (*samples)["net.self"].push_back(b.ack_ms * 1e6 - static_cast<double>(t2 - t0));
        }
        const BundleCost& cost = costs[b.site].of(b.failing, b.index);
        spans->AddReplay("wire.encode", b.span, b.site, cost.wire_encode);
        spans->AddReplay("wire.frame", b.span, b.site, cost.wire_frame);
        spans->AddReplay("wire.decode", b.span, b.site, t1 - t0);
        const uint32_t submit = spans->AddReplay(
            b.failing ? "core.submit_failing" : "core.submit_success", b.span, b.site, t2 - t1);
        shard = mirror.shard(site.fingerprint, site.failing_inst);
        AttachPassDeltas(before, shard->pass_stats(), submit, b.site, spans, samples);
        spans->AddReplay("engine.durable_append", submit, b.site, cost.durable_append);
      }
      std::vector<sx::core::ServerPool::ShardReport> local;
      int64_t diagnose_total = 0;
      sx::engine::PassStatsTable passes_before{}, passes_after{};
      for (const sx::core::ServerPool::ShardKey& key : mirror.SiteKeys()) {
        const sx::core::DiagnosisServer* shard =
            mirror.shard(key.module_fingerprint, key.failing_inst);
        const sx::engine::PassStatsTable before = shard->pass_stats();
        const int64_t t0 = NowNs();
        sx::core::DiagnosisReport report =
            mirror.shard(key.module_fingerprint, key.failing_inst)->Diagnose();
        const int64_t ns = NowNs() - t0;
        const sx::engine::PassStatsTable after = shard->pass_stats();
        for (size_t i = 0; i < after.size(); ++i) {
          passes_before[i].runs += before[i].runs;
          passes_before[i].cache_hits += before[i].cache_hits;
          passes_before[i].seconds += before[i].seconds;
          passes_after[i].runs += after[i].runs;
          passes_after[i].cache_hits += after[i].cache_hits;
          passes_after[i].seconds += after[i].seconds;
        }
        diagnose_total += ns;
        if (round.diagnose_span != 0) {
          (*samples)["core.diagnose"].push_back(static_cast<double>(ns));
        }
        local.push_back({key, std::move(report)});
      }
      if (round.diagnose_span != 0) {
        const uint32_t diagnose = spans->AddReplay("core.diagnose", round.diagnose_span,
                                                   round.diagnose_span, diagnose_total);
        AttachPassDeltas(passes_before, passes_after, diagnose, round.diagnose_span, spans,
                         samples);
      }
      mismatches += !fed || round.digest.empty() || Digest(std::move(local)) != round.digest;
    }
  }
  log.Close();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return mismatches;
}

namespace {

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

// A session's rounds as the mirror needs them: shipping order and digest.
// Length-prefixed words; the digest's bytes follow its length.
std::vector<uint64_t> EncodeRounds(const std::vector<FleetRound>& rounds) {
  std::vector<uint64_t> out = {rounds.size()};
  for (const FleetRound& r : rounds) {
    out.push_back(r.sent.size());
    for (const SentBundle& b : r.sent) {
      out.insert(out.end(), {b.site, b.failing ? 1u : 0u, b.index});
    }
    out.push_back(r.digest.size());
    const size_t at = out.size();
    out.resize(at + (r.digest.size() + 7) / 8);
    std::copy(r.digest.begin(), r.digest.end(), reinterpret_cast<char*>(&out[at]));
  }
  return out;
}

std::vector<FleetRound> DecodeRounds(const std::vector<uint64_t>& in) {
  size_t at = 0;
  std::vector<FleetRound> rounds(in.at(at++));
  for (FleetRound& r : rounds) {
    r.sent.resize(in.at(at++));
    for (SentBundle& b : r.sent) {
      b.site = in.at(at++);
      b.failing = in.at(at++) != 0;
      b.index = in.at(at++);
    }
    const size_t bytes = in.at(at++);
    const size_t words = (bytes + 7) / 8;
    if (at + words > in.size()) {
      throw std::out_of_range("truncated rounds");
    }
    r.digest.assign(reinterpret_cast<const char*>(in.data() + at), bytes);
    at += words;
  }
  return rounds;
}

}  // namespace

MirrorProcess::MirrorProcess(const std::vector<Site>& sites, std::string dir)
    : dir_(std::move(dir)) {
  int down[2], up[2];
  if (pipe(down) != 0) {
    return;
  }
  if (pipe(up) != 0) {
    close(down[0]);
    close(down[1]);
    return;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    close(down[1]);
    close(up[0]);
    SpanRecorder off(false);
    uint64_t words = 0;
    for (size_t session = 0; ReadAll(down[0], &words, sizeof(words)); ++session) {
      std::vector<uint64_t> message(words);
      uint64_t mismatches = 0;
      if (!ReadAll(down[0], message.data(), words * sizeof(uint64_t))) {
        _exit(1);
      }
      try {
        const std::vector<FleetRound> rounds = DecodeRounds(message);
        mismatches = MirrorCheck(sites, rounds, {}, dir_ + "/" + std::to_string(session), &off,
                                 nullptr);
      } catch (const std::exception&) {
        mismatches = ~uint64_t{0};
      }
      if (!WriteAll(up[1], &mismatches, sizeof(mismatches))) {
        _exit(1);
      }
    }
    _exit(0);
  }
  close(down[0]);
  close(up[1]);
  if (pid < 0) {
    close(down[1]);
    close(up[0]);
    return;
  }
  pid_ = pid;
  to_child_ = down[1];
  from_child_ = up[0];
}

MirrorProcess::~MirrorProcess() {
  if (pid_ > 0) {
    close(to_child_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    close(from_child_);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

size_t MirrorProcess::Check(const std::vector<FleetRound>& rounds) {
  const std::vector<uint64_t> message = EncodeRounds(rounds);
  const uint64_t words = message.size();
  uint64_t mismatches = 0;
  if (pid_ <= 0 || !WriteAll(to_child_, &words, sizeof(words)) ||
      !WriteAll(to_child_, message.data(), words * sizeof(uint64_t)) ||
      !ReadAll(from_child_, &mismatches, sizeof(mismatches))) {
    return rounds.size();
  }
  return std::min<uint64_t>(mismatches, rounds.size());
}

}  // namespace perfbench
