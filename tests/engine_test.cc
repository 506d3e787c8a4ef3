// Acceptance tests for the pass-pipeline diagnosis engine: streaming bundles
// one at a time (re-diagnosing after every bundle) must be digest-identical
// to one-shot ingest, while the artifact store proves its keep by running the
// points-to solver strictly fewer times than bundles were submitted -- on the
// clean path and under frame-level wire chaos with retransmission.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/points_to.h"
#include "bench/throughput_harness.h"
#include "core/server_pool.h"
#include "engine/artifact_codec.h"
#include "engine/artifact_store.h"
#include "engine/pass.h"
#include "faults/injector.h"
#include "pt/encoder.h"
#include "wire/frame.h"
#include "wire/serialize.h"
#include "workloads/generator.h"

namespace snorlax {
namespace {

// Failing bundle replays per site: enough resubmissions to separate "solver
// ran once and was reused" from "solver ran every time".
constexpr size_t kRounds = 3;

const std::vector<bench::CapturedSite>& Sites() {
  static const auto* sites = new std::vector<bench::CapturedSite>(
      bench::CaptureSites({"pbzip2_main", "sqlite_1672", "memcached_127"}));
  return *sites;
}

std::unique_ptr<core::ServerPool> MakePool(bool use_cache) {
  core::ServerPoolOptions options;
  options.server.use_analysis_cache = use_cache;
  auto pool = std::make_unique<core::ServerPool>(options);
  for (const bench::CapturedSite& site : Sites()) {
    pool->RegisterModule(site.workload.module.get());
  }
  return pool;
}

// Submits every site's traffic (kRounds failing replays + the captured
// successes) in a fixed global order. When `diagnose_each` is set the pool
// re-diagnoses after every single bundle -- the streaming path under test.
// Returns the digest of the final diagnosis.
std::string Drive(core::ServerPool* pool, bool diagnose_each,
                  const std::function<pt::PtTraceBundle(const pt::PtTraceBundle&)>&
                      transform = nullptr) {
  auto deliver = [&](const pt::PtTraceBundle& b) {
    return transform ? transform(b) : b;
  };
  std::string digest;
  for (const bench::CapturedSite& site : Sites()) {
    EXPECT_TRUE(pool->SubmitFailingTrace(deliver(site.failing)).ok());
    if (diagnose_each) {
      digest = bench::DigestReports(pool->DiagnoseAll());
    }
    for (const pt::PtTraceBundle& success : site.successes) {
      pool->SubmitSuccessTrace(site.failing.failure.failing_inst, deliver(success));
      if (diagnose_each) {
        digest = bench::DigestReports(pool->DiagnoseAll());
      }
    }
    for (size_t round = 1; round < kRounds; ++round) {
      EXPECT_TRUE(pool->SubmitFailingTrace(deliver(site.failing)).ok());
      if (diagnose_each) {
        digest = bench::DigestReports(pool->DiagnoseAll());
      }
    }
  }
  return diagnose_each ? digest : bench::DigestReports(pool->DiagnoseAll());
}

const core::DiagnosisServer* ShardFor(const core::ServerPool& pool,
                                      const bench::CapturedSite& site) {
  return pool.shard(pt::ModuleFingerprint(*site.workload.module),
                    site.failing.failure.failing_inst);
}

TEST(EngineStreaming, RediagnosisAfterEveryBundleMatchesOneShot) {
  ASSERT_FALSE(Sites().empty());
  auto one_shot = MakePool(/*use_cache=*/true);
  auto streaming = MakePool(/*use_cache=*/true);
  const std::string one_shot_digest = Drive(one_shot.get(), /*diagnose_each=*/false);
  const std::string streaming_digest = Drive(streaming.get(), /*diagnose_each=*/true);
  ASSERT_FALSE(one_shot_digest.empty());
  EXPECT_EQ(streaming_digest, one_shot_digest);
}

TEST(EngineStreaming, SolverRunsStrictlyFewerTimesThanFailingSubmissions) {
  ASSERT_FALSE(Sites().empty());
  auto pool = MakePool(/*use_cache=*/true);
  (void)Drive(pool.get(), /*diagnose_each=*/true);
  for (const bench::CapturedSite& site : Sites()) {
    const core::DiagnosisServer* shard = ShardFor(*pool, site);
    ASSERT_NE(shard, nullptr) << site.workload.name;
    const engine::PassStats pt = shard->pass_stats(engine::PassId::kPointsTo);
    EXPECT_LT(pt.runs, kRounds) << site.workload.name;
    EXPECT_EQ(pt.runs, 1u) << site.workload.name;
    EXPECT_EQ(pt.cache_hits, kRounds - 1) << site.workload.name;
  }
}

TEST(EngineStreaming, WithoutArtifactStoreSolverRunsEveryTime) {
  ASSERT_FALSE(Sites().empty());
  auto cached = MakePool(/*use_cache=*/true);
  auto uncached = MakePool(/*use_cache=*/false);
  const std::string cached_digest = Drive(cached.get(), /*diagnose_each=*/false);
  const std::string uncached_digest = Drive(uncached.get(), /*diagnose_each=*/false);
  // Caching is a pure mechanism change: it must never alter the diagnosis.
  EXPECT_EQ(cached_digest, uncached_digest);
  for (const bench::CapturedSite& site : Sites()) {
    const core::DiagnosisServer* shard = ShardFor(*uncached, site);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->pass_stats(engine::PassId::kPointsTo).runs, kRounds);
    EXPECT_EQ(shard->pass_stats(engine::PassId::kPointsTo).cache_hits, 0u);
  }
}

TEST(EngineStreaming, RepeatedDiagnoseWithUnchangedEvidenceIsAScoreCacheHit) {
  ASSERT_FALSE(Sites().empty());
  auto pool = MakePool(/*use_cache=*/true);
  const std::string first = Drive(pool.get(), /*diagnose_each=*/false);
  const std::string second = bench::DigestReports(pool->DiagnoseAll());
  EXPECT_EQ(first, second);
  for (const bench::CapturedSite& site : Sites()) {
    const core::DiagnosisServer* shard = ShardFor(*pool, site);
    ASSERT_NE(shard, nullptr);
    EXPECT_GE(shard->pass_stats(engine::PassId::kScore).cache_hits, 1u);
  }
}

// Ships one bundle through encode -> frame -> chaos -> assembler -> decode.
// A frame the assembler rejects (CRC mismatch, truncation) is retransmitted
// clean, exactly like the agent's retry loop; a duplicated frame is delivered
// once (receivers dedupe by sequence number). The delivered multiset of
// bundles is therefore identical to the clean path -- only the byte journey
// differs.
pt::PtTraceBundle ChaosRoundTrip(const pt::PtTraceBundle& bundle, uint64_t seq,
                                 faults::FrameFaultInjector* chaos) {
  wire::Frame frame;
  frame.type = wire::FrameType::kBundle;
  frame.seq = seq;
  wire::BundlePayload payload;
  payload.kind = wire::BundleKind::kFailing;
  wire::EncodeBundle(bundle, &payload.bundle_bytes);
  wire::EncodeBundlePayload(payload, &frame.payload);
  std::vector<uint8_t> clean;
  wire::EncodeFrame(frame, &clean);

  std::vector<uint8_t> corrupted = clean;
  bool send_twice = false;
  chaos->Apply(&corrupted, &send_twice);

  wire::FrameAssembler assembler;
  assembler.Feed(corrupted.data(), corrupted.size());
  wire::Frame received;
  if (!assembler.Next(&received)) {
    // Retransmission: the sender still holds the clean frame.
    EXPECT_TRUE(assembler.Feed(clean.data(), clean.size()));
    EXPECT_TRUE(assembler.Next(&received));
  }
  wire::BundlePayload decoded_payload;
  EXPECT_TRUE(wire::DecodeBundlePayload(received.payload, &decoded_payload).ok());
  auto decoded = wire::DecodeBundle(decoded_payload.bundle_bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.take();
}

TEST(EngineStreaming, FrameFaultChaosPreservesDigestAndCaching) {
  ASSERT_FALSE(Sites().empty());
  auto plan = faults::FaultPlan::Parse("frame@0.5", /*seed=*/7);
  ASSERT_TRUE(plan.ok());
  faults::FrameFaultInjector chaos(plan.value());
  ASSERT_TRUE(chaos.enabled());

  auto clean_pool = MakePool(/*use_cache=*/true);
  auto chaos_pool = MakePool(/*use_cache=*/true);
  const std::string clean_digest = Drive(clean_pool.get(), /*diagnose_each=*/false);
  uint64_t seq = 0;
  const std::string chaos_digest =
      Drive(chaos_pool.get(), /*diagnose_each=*/true, [&](const pt::PtTraceBundle& b) {
        return ChaosRoundTrip(b, ++seq, &chaos);
      });
  EXPECT_EQ(chaos_digest, clean_digest);
  // The wire codec is lossless and retransmission restores rejected frames,
  // so the executed-set keys match and the solver still runs exactly once.
  for (const bench::CapturedSite& site : Sites()) {
    const core::DiagnosisServer* shard = ShardFor(*chaos_pool, site);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->pass_stats(engine::PassId::kPointsTo).runs, 1u);
    EXPECT_EQ(shard->pass_stats(engine::PassId::kPointsTo).cache_hits, kRounds - 1);
  }
}

TEST(EngineDeadline, ExpiredDeadlineSkipsPassesButKeepsEvidence) {
  ASSERT_FALSE(Sites().empty());
  const bench::CapturedSite& site = Sites().front();
  core::DiagnosisServer::Options options;
  options.analysis_deadline_seconds = 1e-9;  // expires before the first pass
  core::DiagnosisServer server(site.workload.module.get(), options);
  const support::Status status = server.SubmitFailingTrace(site.failing);
  EXPECT_EQ(status.code(), support::StatusCode::kDeadlineExceeded)
      << status.ToString();
  // The bundle still counts as evidence; only the analysis tail was skipped.
  EXPECT_TRUE(server.HasFailure());
  EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 0u);
  const core::DiagnosisReport report = server.Diagnose();
  EXPECT_EQ(report.failing_traces, 1u);
  EXPECT_FALSE(report.degradation.notes.empty());
}

TEST(EngineDeadline, DisabledDeadlineNeverExpires) {
  const engine::CancelToken off = engine::CancelToken::AfterSeconds(0.0);
  EXPECT_FALSE(off.Expired());
  engine::CancelToken cancelled;
  EXPECT_FALSE(cancelled.Expired());
  cancelled.Cancel();
  EXPECT_TRUE(cancelled.Expired());
  const engine::CancelToken instant = engine::CancelToken::AfterSeconds(1e-9);
  EXPECT_TRUE(instant.Expired());
}

TEST(ArtifactStore, PutFindAndReplace) {
  engine::ArtifactStore store;
  const auto kind = engine::ArtifactKind::kExecutedSet;
  EXPECT_EQ(store.Find<engine::ExecutedSetArtifact>(kind, 7), nullptr);
  store.Put(kind, 7, engine::ExecutedSetArtifact{7, 100});
  const auto* found = store.Find<engine::ExecutedSetArtifact>(kind, 7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size, 100u);
  // Replacing under the same key keeps the latest value live.
  store.Put(kind, 7, engine::ExecutedSetArtifact{7, 200});
  found = store.Find<engine::ExecutedSetArtifact>(kind, 7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size, 200u);
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.stats().insertions, 2u);
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ArtifactStore, FifoEvictionUnderBudget) {
  engine::ArtifactStore store;
  const auto kind = engine::ArtifactKind::kExecutedSet;
  const uint64_t cap = engine::ArtifactStore::kMaxEntriesPerKind;
  // One entry past the per-kind cap pushes out the oldest, and only it.
  for (uint64_t key = 1; key <= cap + 1; ++key) {
    store.Put(kind, key, engine::ExecutedSetArtifact{key, key});
  }
  EXPECT_EQ(store.Find<engine::ExecutedSetArtifact>(kind, 1), nullptr);
  EXPECT_NE(store.Find<engine::ExecutedSetArtifact>(kind, 2), nullptr);
  EXPECT_NE(store.Find<engine::ExecutedSetArtifact>(kind, cap + 1), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().entries, cap);
  // The cap is per kind: a different kind still has room.
  store.Put(engine::ArtifactKind::kDerefChains, 1, engine::DerefChainsArtifact{});
  EXPECT_NE(store.Find<engine::DerefChainsArtifact>(engine::ArtifactKind::kDerefChains, 1),
            nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(ArtifactStore, StateOfReadsResidentThenEvictedAndAbsentForUnknownKeys) {
  engine::ArtifactStore store;
  const auto kind = engine::ArtifactKind::kPointsTo;
  EXPECT_EQ(store.StateOf(kind, 1), engine::ResidencyState::kAbsent);
  store.Put(kind, 1, engine::PointsToArtifact{});
  EXPECT_EQ(store.StateOf(kind, 1), engine::ResidencyState::kResident);
  // The same key under another kind was never stored.
  EXPECT_EQ(store.StateOf(engine::ArtifactKind::kPatternSet, 1),
            engine::ResidencyState::kAbsent);
  for (uint64_t key = 2; key <= engine::ArtifactStore::kMaxEntriesPerKind + 1; ++key) {
    store.Put(kind, key, engine::PointsToArtifact{});
  }
  EXPECT_EQ(store.StateOf(kind, 1), engine::ResidencyState::kEvicted);
  EXPECT_EQ(store.StateOf(kind, 2), engine::ResidencyState::kResident);
  EXPECT_EQ(store.StateOf(kind, 0xabcdef), engine::ResidencyState::kAbsent);
  EXPECT_STREQ(engine::ResidencyStateName(engine::ResidencyState::kEvicted), "evicted");
  // A probe is not a lookup.
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST(ArtifactCodec, SiteRecordAndArtifactValuesRoundTrip) {
  // ExecutedSet: the no-module scalar case.
  engine::ExecutedSetArtifact executed;
  executed.content_hash = 0xdeadbeefcafef00dull;
  executed.size = 123;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(engine::EncodeArtifactValue(engine::ArtifactKind::kExecutedSet, &executed,
                                          &bytes)
                  .ok());
  std::shared_ptr<void> decoded;
  ASSERT_TRUE(engine::DecodeArtifactValue(engine::ArtifactKind::kExecutedSet, bytes,
                                          /*module=*/nullptr, &decoded)
                  .ok());
  const auto* round = static_cast<const engine::ExecutedSetArtifact*>(decoded.get());
  EXPECT_EQ(round->content_hash, executed.content_hash);
  EXPECT_EQ(round->size, executed.size);

  // Determinism: equal values encode byte-identically (content-hash keys
  // identify transfers byte-for-byte).
  std::vector<uint8_t> again;
  ASSERT_TRUE(engine::EncodeArtifactValue(engine::ArtifactKind::kExecutedSet, &executed,
                                          &again)
                  .ok());
  EXPECT_EQ(bytes, again);

  // A version-skewed record is a clean kVersionMismatch, never a misparse.
  std::vector<uint8_t> skewed = bytes;
  skewed[0] = engine::kArtifactCodecVersion + 1;
  EXPECT_EQ(engine::DecodeArtifactValue(engine::ArtifactKind::kExecutedSet, skewed,
                                        nullptr, &decoded)
                .code(),
            support::StatusCode::kVersionMismatch);

  // SiteRecord framing round-trips type, kind, key, and payload bytes.
  engine::SiteRecord record;
  record.type = engine::SiteRecord::Type::kArtifact;
  record.kind = engine::ArtifactKind::kExecutedSet;
  record.key = 0x1122334455667788ull;
  record.bytes = bytes;
  std::vector<uint8_t> framed;
  engine::EncodeSiteRecord(record, &framed);
  engine::SiteRecord out;
  ASSERT_TRUE(engine::DecodeSiteRecord(framed, &out).ok());
  EXPECT_EQ(out.type, record.type);
  EXPECT_EQ(out.kind, record.kind);
  EXPECT_EQ(out.key, record.key);
  EXPECT_EQ(out.bytes, record.bytes);

  // Truncations never decode.
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    engine::SiteRecord ignored;
    EXPECT_FALSE(
        engine::DecodeSiteRecord({framed.data(), cut}, &ignored).ok())
        << "decoded from " << cut << " of " << framed.size() << " bytes";
  }
}

TEST(ArtifactCodec, PointsToArtifactRoundTrips) {
  workloads::GeneratorOptions gopts;
  gopts.seed = 3;
  gopts.bug = workloads::GeneratedBug::kStoreThroughStale;
  const workloads::Workload w = workloads::GenerateWorkload(gopts);

  analysis::PointsToOptions opts;
  opts.scope = analysis::PointsToOptions::Scope::kWholeProgram;
  auto result =
      std::make_shared<analysis::PointsToResult>(analysis::RunPointsTo(*w.module, opts));
  analysis::ObjectSet all_objects;
  for (uint32_t i = 0; i < result->num_objects(); ++i) {
    all_objects.Set(i);
  }
  const std::vector<const ir::Instruction*> accesses = result->AccessorsOf(all_objects);
  ASSERT_FALSE(accesses.empty());

  engine::PointsToArtifact artifact;
  artifact.result = result;
  artifact.seed = result->PointerOperandPointsTo(*accesses.front());
  std::vector<uint8_t> bytes;
  engine::EncodePointsTo(artifact, &bytes);
  engine::PointsToArtifact decoded;
  ASSERT_TRUE(engine::DecodePointsTo(bytes, w.module.get(), &decoded).ok());
  ASSERT_NE(decoded.result, nullptr);

  EXPECT_EQ(decoded.result->num_objects(), result->num_objects());
  EXPECT_EQ(decoded.result->stats().variables, result->stats().variables);
  EXPECT_EQ(decoded.seed.Elements(), artifact.seed.Elements());
  for (const ir::Instruction* inst : accesses) {
    EXPECT_EQ(decoded.result->PointerOperandPointsTo(*inst).Elements(),
              result->PointerOperandPointsTo(*inst).Elements())
        << "access #" << inst->id();
  }
  // AccessorsOf must survive the trip (the index is rebuilt post-decode).
  for (uint32_t obj = 0; obj < result->num_objects(); ++obj) {
    analysis::ObjectSet one;
    one.Set(obj);
    EXPECT_EQ(decoded.result->AccessorsOf(one), result->AccessorsOf(one)) << "object " << obj;
  }
  // Encoding the decoded value again must give identical bytes (the
  // determinism the artifact digest machinery assumes).
  std::vector<uint8_t> again;
  engine::EncodePointsTo(decoded, &again);
  EXPECT_EQ(bytes, again);

  // A record stamped with the previous codec version is refused, so a
  // restore recomputes the pass instead of misparsing it.
  std::vector<uint8_t> old_version = bytes;
  old_version[0] = engine::kArtifactCodecVersion - 1;
  EXPECT_EQ(engine::DecodePointsTo(old_version, w.module.get(), &decoded).code(),
            support::StatusCode::kVersionMismatch);
}

TEST(ArtifactCodec, ExportedSiteStateRoundTripsThroughImport) {
  // End-to-end over real diagnosis state: export every record from an
  // ingested site, re-import into a fresh pool, and require digest-identical
  // reports -- the property both the durable log and the cluster hand-off
  // lean on.
  const bench::CapturedSite& site = Sites().front();
  auto source = MakePool(/*use_cache=*/true);
  ASSERT_TRUE(source->SubmitFailingTrace(site.failing).ok());
  for (const pt::PtTraceBundle& success : site.successes) {
    ASSERT_TRUE(
        source->SubmitSuccessTrace(site.failing.failure.failing_inst, success).ok());
  }
  const std::string source_digest = bench::DigestReports(source->DiagnoseAll());

  std::vector<engine::SiteRecord> records;
  ASSERT_TRUE(source->ExportSite(site.failing.module_fingerprint,
                                 site.failing.failure.failing_inst, &records));
  ASSERT_FALSE(records.empty());

  auto target = MakePool(/*use_cache=*/true);
  ASSERT_TRUE(target
                  ->ImportSite(site.failing.module_fingerprint,
                               site.failing.failure.failing_inst, std::move(records))
                  .ok());
  EXPECT_EQ(bench::DigestReports(target->DiagnoseAll()), source_digest);
}

}  // namespace
}  // namespace snorlax
