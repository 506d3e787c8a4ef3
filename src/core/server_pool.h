// ServerPool: a multi-application diagnosis service sharded by failure site.
//
// One DiagnosisServer diagnoses one failure site of one binary. A production
// deployment receives traces from many applications failing at many sites
// concurrently, so the pool:
//   - keeps a registry of modules keyed by fingerprint (the stamp clients
//     embed in every bundle), and
//   - routes each bundle to a shard keyed by (module fingerprint, failing
//     PC), creating shards on demand.
// Shards are independent DiagnosisServers, so bundles for different sites
// never pollute each other's statistics, and their analysis caches stay
// site-local.
//
// Concurrency: all entry points are thread-safe, and the pool is the one
// place ingest synchronizes. The map lock covers shard lookup and creation
// only. Each shard owns a mutex that the pool holds around every call into
// its DiagnosisServer (which is single-owner), so bundles for different sites
// never contend, while calls for one site run one at a time. Shards are
// shared-owned: DropSite() unmaps a site, but a call already inside its
// server keeps that server alive until the call returns.
#ifndef SNORLAX_CORE_SERVER_POOL_H_
#define SNORLAX_CORE_SERVER_POOL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/server.h"
#include "engine/durable_log.h"

namespace snorlax::core {

struct ServerPoolOptions {
  // Applied to every shard the pool creates.
  DiagnosisServer::Options server;
  // One durable log per daemon, shared by every shard (records carry the site
  // key). When set, each shard persists its state as it accumulates and
  // RecoverFromLog() rebuilds the pool after a restart. Not owned; must be
  // Open()ed by the caller and outlive the pool.
  engine::DurableLog* durable_log = nullptr;
};

class ServerPool {
 public:
  // Identifies one shard: a failure site within one registered binary.
  struct ShardKey {
    uint64_t module_fingerprint = 0;
    ir::InstId failing_inst = ir::kInvalidInstId;
  };
  struct ShardReport {
    ShardKey key;
    DiagnosisReport report;
  };

  explicit ServerPool(ServerPoolOptions options = {});

  // Makes `module` routable. Bundles stamped with an unregistered fingerprint
  // are rejected -- the pool cannot map their PCs to instructions. The module
  // is not owned and must outlive the pool. Registering the same module again
  // is a no-op.
  void RegisterModule(const ir::Module* module);

  // Routes to the (fingerprint, failing PC) shard, creating it on first use.
  // Unstamped bundles (fingerprint 0) route to the sole registered module,
  // and are ambiguous -- rejected -- when several are registered.
  support::Status SubmitFailingTrace(const pt::PtTraceBundle& bundle);
  // Success bundles carry no failure record, so the target site is explicit:
  // clients learned it alongside the dump-point request. Unknown sites are
  // rejected (no shard ever saw that failure).
  support::Status SubmitSuccessTrace(ir::InstId failing_inst,
                                     const pt::PtTraceBundle& bundle);

  // Dump points requested by the shard diagnosing `failing_inst`; empty when
  // no such shard exists yet.
  std::vector<std::pair<ir::InstId, int>> RequestedDumpPoints(
      uint64_t module_fingerprint, ir::InstId failing_inst) const;

  // Diagnoses every shard on the calling thread and returns the reports sorted
  // by (fingerprint, failing PC) so the output is deterministic regardless of
  // shard-creation order.
  std::vector<ShardReport> DiagnoseAll() const;

  // -- Cluster durability and hand-off --
  struct RecoveryStats {
    size_t sites_recovered = 0;
    size_t records_applied = 0;
    size_t records_skipped = 0;  // unregistered module or filtered-out site
    engine::DurableLog::Stats log;
  };
  // Rebuilds every site from the durable log: replays all segments into
  // per-site buckets (write order preserved), then applies each bucket
  // through DiagnosisServer::RestoreSiteRecords. Call after RegisterModule
  // and before serving traffic. `owns` filters sites by ownership (a cluster
  // daemon restarting after the ring moved on must not resurrect sites it
  // handed off); null accepts everything. Sites whose module is no longer
  // registered are skipped and counted.
  support::Result<RecoveryStats> RecoverFromLog(
      const std::function<bool(const engine::DurableSiteKey&)>& owns = nullptr);

  // Streams one site's full state (artifacts, then evidence + rejections in
  // arrival order) for hand-off. False when no shard exists for the site.
  // From this call until DropSite() or ReadmitSite(), the site refuses
  // ingest with kWrongShard: a bundle accepted after the export would miss
  // the records already sent to the new owner.
  bool ExportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                  std::vector<engine::SiteRecord>* out);
  // Lifts ExportSite()'s refusal after a failed hand-off, so the site keeps
  // ingesting locally. False when no shard exists for the site.
  bool ReadmitSite(uint64_t module_fingerprint, ir::InstId failing_inst);
  // Builds (or extends) the site's shard from hand-off records, persisting
  // them into this daemon's own durable log so the new owner can itself
  // restart. Fails when the module fingerprint is not registered.
  support::Status ImportSite(uint64_t module_fingerprint, ir::InstId failing_inst,
                             std::vector<engine::SiteRecord>&& records);
  // Forgets a site after a successful hand-off. Its records remain in the
  // local log; the `owns` filter at the next recovery discards them.
  bool DropSite(uint64_t module_fingerprint, ir::InstId failing_inst);
  // Every live site, sorted by (fingerprint, failing PC), for drain-time
  // hand-off enumeration.
  std::vector<ShardKey> SiteKeys() const;

  // The shard for a site, or nullptr. For tests and benches, on a quiescent
  // pool: the pointer bypasses the shard lock and is valid until DropSite().
  const DiagnosisServer* shard(uint64_t module_fingerprint, ir::InstId failing_inst) const;
  size_t num_shards() const;
  size_t num_modules() const;
  // Bundles the router itself refused (unknown fingerprint / ambiguous
  // unstamped bundle / unknown success site); per-shard rejections live in
  // the shards' degradation reports.
  size_t routing_rejects() const;

 private:
  static uint64_t Key(uint64_t fingerprint, ir::InstId inst) {
    return fingerprint * 0x9e3779b97f4a7c15ull ^ inst;
  }
  // Resolves the module for a bundle; null + error status when unroutable.
  const ir::Module* ResolveModule(const pt::PtTraceBundle& bundle,
                                  support::Status* status) const;
  struct Shard {
    Shard(ShardKey key, const ir::Module* module, DiagnosisServer::Options options)
        : key(key), server(module, std::move(options)) {}
    const ShardKey key;
    std::mutex mu;  // held around every call into `server`
    DiagnosisServer server;
    bool handing_off = false;  // guarded by mu; see ExportSite()
  };
  // The site's shard, created on first use. Caller holds mu_.
  std::shared_ptr<Shard> ShardFor(const ir::Module* module, ir::InstId failing_inst);
  // The site's shard, or null. Takes mu_.
  std::shared_ptr<Shard> FindShard(uint64_t module_fingerprint, ir::InstId failing_inst) const;

  ServerPoolOptions options_;
  mutable std::mutex mu_;  // guards the three members below, not the shards
  std::unordered_map<uint64_t, const ir::Module*> modules_;  // by fingerprint
  std::unordered_map<uint64_t, std::shared_ptr<Shard>> shards_;
  size_t routing_rejects_ = 0;
};

}  // namespace snorlax::core

#endif  // SNORLAX_CORE_SERVER_POOL_H_
