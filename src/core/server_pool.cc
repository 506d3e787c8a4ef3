#include "core/server_pool.h"

#include <algorithm>

#include "pt/encoder.h"
#include "support/str.h"

namespace snorlax::core {

using support::Status;
using support::StatusCode;

namespace {

// Report and hand-off order: by (fingerprint, failing PC), independent of
// shard-creation order.
bool ShardKeyLess(const ServerPool::ShardKey& a, const ServerPool::ShardKey& b) {
  if (a.module_fingerprint != b.module_fingerprint) {
    return a.module_fingerprint < b.module_fingerprint;
  }
  return a.failing_inst < b.failing_inst;
}

// Ingest for a site between ExportSite() and DropSite(): the agent keeps the
// bundle's sequence number and re-routes it.
Status HandoffRefusal() {
  return Status::Error(StatusCode::kWrongShard, "site is being handed off to a new owner");
}

}  // namespace

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

std::shared_ptr<ServerPool::Shard> ServerPool::ShardFor(const ir::Module* module,
                                                       ir::InstId failing_inst) {
  const uint64_t fp = pt::ModuleFingerprint(*module);
  std::shared_ptr<Shard>& shard = shards_[Key(fp, failing_inst)];
  if (shard == nullptr) {
    DiagnosisServer::Options server_options = options_.server;
    server_options.durable_log = options_.durable_log;
    server_options.durable_site =
        engine::DurableSiteKey{fp, static_cast<uint32_t>(failing_inst)};
    shard = std::make_shared<Shard>(ShardKey{fp, failing_inst}, module,
                                    std::move(server_options));
  }
  return shard;
}

std::shared_ptr<ServerPool::Shard> ServerPool::FindShard(uint64_t module_fingerprint,
                                                        ir::InstId failing_inst) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(Key(module_fingerprint, failing_inst));
  return it == shards_.end() ? nullptr : it->second;
}

Status ServerPool::SubmitFailingTrace(const pt::PtTraceBundle& bundle) {
  std::shared_ptr<Shard> shard;
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
  // The map lock is released before the expensive work: bundles for
  // different sites proceed in parallel, and bundles for one site take turns
  // on the shard lock.
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->handing_off) {
    return HandoffRefusal();
  }
  return shard->server.SubmitFailingTrace(bundle);
}

Status ServerPool::SubmitSuccessTrace(ir::InstId failing_inst,
                                      const pt::PtTraceBundle& bundle) {
  std::shared_ptr<Shard> shard;
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
    shard = it->second;
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->handing_off) {
    return HandoffRefusal();
  }
  return shard->server.SubmitSuccessTrace(bundle);
}

std::vector<std::pair<ir::InstId, int>> ServerPool::RequestedDumpPoints(
    uint64_t module_fingerprint, ir::InstId failing_inst) const {
  const std::shared_ptr<Shard> shard = FindShard(module_fingerprint, failing_inst);
  if (shard == nullptr) {
    return {};
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->server.RequestedDumpPoints();
}

std::vector<ServerPool::ShardReport> ServerPool::DiagnoseAll() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      shards.push_back(shard);
    }
  }
  std::sort(shards.begin(), shards.end(),
            [](const std::shared_ptr<Shard>& a, const std::shared_ptr<Shard>& b) {
              return ShardKeyLess(a->key, b->key);
            });
  std::vector<ShardReport> out;
  out.reserve(shards.size());
  for (const std::shared_ptr<Shard>& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(ShardReport{shard->key, shard->server.Diagnose()});
  }
  return out;
}

support::Result<ServerPool::RecoveryStats> ServerPool::RecoverFromLog(
    const std::function<bool(const engine::DurableSiteKey&)>& owns) {
  if (options_.durable_log == nullptr) {
    return Status::Error(StatusCode::kFailedPrecondition,
                         "pool has no durable log to recover from");
  }
  // Two-phase by design: applying a site's records can append healing
  // artifacts to the log's open segment, which this same Replay() reads last.
  // Bucketing every record before applying any keeps the pass from reading
  // back, and applying twice, what restoration wrote.
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
    std::shared_ptr<Shard> shard;
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
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->server.RestoreSiteRecords(std::move(bucket.records));
  }
  stats.log = options_.durable_log->stats();
  return stats;
}

bool ServerPool::ExportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                            std::vector<engine::SiteRecord>* out) {
  const std::shared_ptr<Shard> shard = FindShard(module_fingerprint, failing_inst);
  if (shard == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->server.ExportSiteRecords(
      [out](engine::SiteRecord&& record) { out->push_back(std::move(record)); });
  shard->handing_off = true;
  return true;
}

bool ServerPool::ReadmitSite(uint64_t module_fingerprint, ir::InstId failing_inst) {
  const std::shared_ptr<Shard> shard = FindShard(module_fingerprint, failing_inst);
  if (shard == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->handing_off = false;
  return true;
}

Status ServerPool::ImportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                              std::vector<engine::SiteRecord>&& records) {
  std::shared_ptr<Shard> shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = modules_.find(module_fingerprint);
    if (it == modules_.end()) {
      return Status::Error(StatusCode::kFailedPrecondition,
                           "hand-off for an unregistered module fingerprint");
    }
    shard = ShardFor(it->second, failing_inst);
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  return shard->server.ImportSiteRecords(std::move(records));
}

bool ServerPool::DropSite(uint64_t module_fingerprint, ir::InstId failing_inst) {
  // Unmaps only: a call already holding the shard keeps it alive.
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.erase(Key(module_fingerprint, failing_inst)) > 0;
}

std::vector<ServerPool::ShardKey> ServerPool::SiteKeys() const {
  std::vector<ShardKey> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keys.reserve(shards_.size());
    for (const auto& [key, shard] : shards_) {
      keys.push_back(shard->key);
    }
  }
  std::sort(keys.begin(), keys.end(), ShardKeyLess);
  return keys;
}

const DiagnosisServer* ServerPool::shard(uint64_t module_fingerprint,
                                         ir::InstId failing_inst) const {
  const std::shared_ptr<Shard> found = FindShard(module_fingerprint, failing_inst);
  return found == nullptr ? nullptr : &found->server;
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
