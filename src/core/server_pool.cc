#include "core/server_pool.h"

#include <algorithm>

#include "pt/encoder.h"
#include "support/str.h"

namespace snorlax::core {

using support::Status;
using support::StatusCode;

ServerPool::ServerPool(ServerPoolOptions options) : options_(options) {}

void ServerPool::RegisterModule(const ir::Module* module) {
  const uint64_t fp = pt::ModuleFingerprint(*module);
  std::lock_guard<std::mutex> lock(mu_);
  modules_.emplace(fp, module);
}

const ir::Module* ServerPool::ResolveModule(const pt::PtTraceBundle& bundle,
                                            Status* status) const {
  // Caller holds mu_.
  if (bundle.module_fingerprint == 0) {
    if (modules_.size() == 1) {
      return modules_.begin()->second;
    }
    *status = Status::Error(
        StatusCode::kFailedPrecondition,
        StrFormat("unstamped bundle is ambiguous: %zu modules registered",
                  modules_.size()));
    return nullptr;
  }
  auto it = modules_.find(bundle.module_fingerprint);
  if (it == modules_.end()) {
    *status = Status::Error(StatusCode::kFailedPrecondition,
                            "bundle fingerprint matches no registered module");
    return nullptr;
  }
  return it->second;
}

DiagnosisServer* ServerPool::ShardFor(const ir::Module* module, ir::InstId failing_inst) {
  // Caller holds mu_.
  const uint64_t fp = pt::ModuleFingerprint(*module);
  const uint64_t key = Key(fp, failing_inst);
  auto it = shards_.find(key);
  if (it == shards_.end()) {
    Shard shard;
    shard.key = ShardKey{fp, failing_inst};
    DiagnosisServer::Options server_options = options_.server;
    server_options.durable_log = options_.durable_log;
    server_options.durable_site =
        engine::DurableSiteKey{fp, static_cast<uint32_t>(failing_inst)};
    shard.server = std::make_unique<DiagnosisServer>(module, server_options);
    it = shards_.emplace(key, std::move(shard)).first;
  }
  return it->second.server.get();
}

Status ServerPool::SubmitFailingTrace(const pt::PtTraceBundle& bundle) {
  DiagnosisServer* shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status status = Status::Ok();
    const ir::Module* module = ResolveModule(bundle, &status);
    if (module == nullptr) {
      ++routing_rejects_;
      return status;
    }
    if (!bundle.failure.IsFailure()) {
      // Let the shard-level validation produce the canonical error? No shard
      // exists to charge it to -- a failing bundle without a failure record
      // has no site. Reject at the router.
      ++routing_rejects_;
      return Status::Error(StatusCode::kInvalidArgument,
                           "failing trace without a failure record");
    }
    shard = ShardFor(module, bundle.failure.failing_inst);
  }
  // The map lock is released before the expensive work: concurrent bundles
  // for different sites proceed fully in parallel, and bundles for the same
  // site serialize inside the shard, not here.
  return shard->SubmitFailingTrace(bundle);
}

Status ServerPool::SubmitSuccessTrace(ir::InstId failing_inst,
                                      const pt::PtTraceBundle& bundle) {
  DiagnosisServer* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Status status = Status::Ok();
    const ir::Module* module = ResolveModule(bundle, &status);
    if (module == nullptr) {
      ++routing_rejects_;
      return status;
    }
    const uint64_t key = Key(pt::ModuleFingerprint(*module), failing_inst);
    auto it = shards_.find(key);
    if (it == shards_.end()) {
      // No failure was ever reported at this site; a success trace for it
      // cannot contribute to any diagnosis.
      ++routing_rejects_;
      return Status::Error(StatusCode::kFailedPrecondition,
                           "success trace for a site with no reported failure");
    }
    shard = it->second.server.get();
  }
  return shard->SubmitSuccessTrace(bundle);
}

std::vector<std::pair<ir::InstId, int>> ServerPool::RequestedDumpPoints(
    uint64_t module_fingerprint, ir::InstId failing_inst) const {
  const DiagnosisServer* s = shard(module_fingerprint, failing_inst);
  return s == nullptr ? std::vector<std::pair<ir::InstId, int>>{} : s->RequestedDumpPoints();
}

std::vector<ServerPool::ShardReport> ServerPool::DiagnoseAll() const {
  struct Entry {
    ShardKey key;
    const DiagnosisServer* server;
  };
  std::vector<Entry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      entries.push_back(Entry{shard.key, shard.server.get()});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.key.module_fingerprint != b.key.module_fingerprint) {
      return a.key.module_fingerprint < b.key.module_fingerprint;
    }
    return a.key.failing_inst < b.key.failing_inst;
  });
  std::vector<ShardReport> out;
  out.reserve(entries.size());
  for (const Entry& entry : entries) {
    out.push_back(ShardReport{entry.key, entry.server->Diagnose()});
  }
  return out;
}

support::Result<ServerPool::RecoveryStats> ServerPool::RecoverFromLog(
    const std::function<bool(const engine::DurableSiteKey&)>& owns) {
  if (options_.durable_log == nullptr) {
    return Status::Error(StatusCode::kFailedPrecondition,
                         "pool has no durable log to recover from");
  }
  // Two-phase by design: Replay() holds the log's lock while delivering
  // records, and applying evidence can append healing records right back to
  // the log -- bucketing first keeps the two from deadlocking.
  struct SiteBucket {
    engine::DurableSiteKey site;
    std::vector<engine::SiteRecord> records;
  };
  std::vector<SiteBucket> buckets;  // first-seen order
  std::unordered_map<uint64_t, size_t> bucket_index;
  Status replayed = options_.durable_log->Replay(
      [&](const engine::DurableSiteKey& site, engine::SiteRecord&& record) {
        const uint64_t key = Key(site.module_fingerprint, site.failing_inst);
        auto [it, fresh] = bucket_index.emplace(key, buckets.size());
        if (fresh) {
          buckets.push_back(SiteBucket{site, {}});
        }
        buckets[it->second].records.push_back(std::move(record));
      });
  if (!replayed.ok()) {
    return replayed;
  }
  RecoveryStats stats;
  for (SiteBucket& bucket : buckets) {
    if (owns != nullptr && !owns(bucket.site)) {
      stats.records_skipped += bucket.records.size();
      continue;
    }
    DiagnosisServer* shard = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = modules_.find(bucket.site.module_fingerprint);
      if (it == modules_.end()) {
        stats.records_skipped += bucket.records.size();
        continue;
      }
      shard = ShardFor(it->second, bucket.site.failing_inst);
    }
    stats.records_applied += bucket.records.size();
    ++stats.sites_recovered;
    shard->RestoreSiteRecords(std::move(bucket.records));
  }
  stats.log = options_.durable_log->stats();
  return stats;
}

bool ServerPool::ExportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                            std::vector<engine::SiteRecord>* out) const {
  const DiagnosisServer* s = shard(module_fingerprint, failing_inst);
  if (s == nullptr) {
    return false;
  }
  s->ExportSiteRecords(
      [out](engine::SiteRecord&& record) { out->push_back(std::move(record)); });
  return true;
}

Status ServerPool::ImportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                              std::vector<engine::SiteRecord>&& records) {
  DiagnosisServer* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = modules_.find(module_fingerprint);
    if (it == modules_.end()) {
      return Status::Error(StatusCode::kFailedPrecondition,
                           "hand-off for an unregistered module fingerprint");
    }
    shard = ShardFor(it->second, failing_inst);
  }
  return shard->ImportSiteRecords(std::move(records));
}

bool ServerPool::DropSite(uint64_t module_fingerprint, ir::InstId failing_inst) {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.erase(Key(module_fingerprint, failing_inst)) > 0;
}

std::vector<ServerPool::ShardKey> ServerPool::SiteKeys() const {
  std::vector<ShardKey> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keys.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      keys.push_back(shard.key);
    }
  }
  std::sort(keys.begin(), keys.end(), [](const ShardKey& a, const ShardKey& b) {
    if (a.module_fingerprint != b.module_fingerprint) {
      return a.module_fingerprint < b.module_fingerprint;
    }
    return a.failing_inst < b.failing_inst;
  });
  return keys;
}

const DiagnosisServer* ServerPool::shard(uint64_t module_fingerprint,
                                         ir::InstId failing_inst) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(Key(module_fingerprint, failing_inst));
  return it == shards_.end() ? nullptr : it->second.server.get();
}

size_t ServerPool::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

size_t ServerPool::num_modules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return modules_.size();
}

size_t ServerPool::routing_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routing_rejects_;
}

}  // namespace snorlax::core
