// Chaos tests for the durable artifact log: a daemon's on-disk state must
// survive exactly the failures the design section promises -- a torn tail
// write salvages the valid prefix, a flipped bit costs one record (not the
// log), and duplicate artifact hashes from a crash-loop are deduplicated on
// replay because equal key means equal content by construction. Evidence is
// journaled as its wire bundle once per key, with key-only references for
// repeats, and every hostile evidence record costs one counted rejection
// while recovery continues.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/throughput_harness.h"
#include "core/server.h"
#include "engine/artifact_codec.h"
#include "engine/durable_log.h"
#include "support/binio.h"
#include "wire/serialize.h"

namespace snorlax {
namespace {

using engine::DurableLog;
using engine::DurableSiteKey;
using engine::SiteRecord;

// A self-deleting temp directory per test.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/snorlax-durable-log-test-XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

DurableSiteKey SiteA() { return DurableSiteKey{0x1122334455667788ull, 42}; }
DurableSiteKey SiteB() { return DurableSiteKey{0x99aabbccddeeff00ull, 7}; }

// An artifact record whose payload needs no module to decode.
SiteRecord ArtifactRecord(uint64_t key, uint64_t content_hash) {
  engine::ExecutedSetArtifact artifact;
  artifact.content_hash = content_hash;
  artifact.size = 3;
  SiteRecord record;
  record.type = SiteRecord::Type::kArtifact;
  record.kind = engine::ArtifactKind::kExecutedSet;
  record.key = key;
  EXPECT_TRUE(
      engine::EncodeArtifactValue(record.kind, &artifact, &record.bytes).ok());
  return record;
}

SiteRecord RejectionRecord(const std::string& note) {
  SiteRecord record;
  record.type = SiteRecord::Type::kRejection;
  record.bytes.assign(note.begin(), note.end());
  return record;
}

std::vector<std::string> SegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct Replayed {
  DurableSiteKey site;
  SiteRecord record;
};

std::vector<Replayed> ReplayAll(DurableLog& log) {
  std::vector<Replayed> out;
  EXPECT_TRUE(log.Replay([&](const DurableSiteKey& site, SiteRecord&& record) {
                out.push_back(Replayed{site, std::move(record)});
              }).ok());
  return out;
}

TEST(DurableLogTest, AppendThenReplayRoundTripsAcrossReopen) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(options).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(11, 0xaa)).ok());
    ASSERT_TRUE(log.Append(SiteB(), ArtifactRecord(22, 0xbb)).ok());
    ASSERT_TRUE(log.Append(SiteA(), RejectionRecord("undecodable bundle")).ok());
    ASSERT_TRUE(log.Sync().ok());
    EXPECT_EQ(log.stats().records_appended, 3u);
    log.Close();
  }

  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 3u);  // write order preserved
  EXPECT_EQ(replayed[0].site, SiteA());
  EXPECT_EQ(replayed[0].record.key, 11u);
  EXPECT_EQ(replayed[1].site, SiteB());
  EXPECT_EQ(replayed[1].record.key, 22u);
  EXPECT_EQ(replayed[2].record.type, SiteRecord::Type::kRejection);
  EXPECT_EQ(std::string(replayed[2].record.bytes.begin(), replayed[2].record.bytes.end()),
            "undecodable bundle");
  const DurableLog::Stats stats = log.stats();
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.records_corrupt, 0u);
  EXPECT_EQ(stats.truncated_tails, 0u);

  // A new incarnation appends after the replayed records, not over them.
  ASSERT_TRUE(log.Append(SiteB(), ArtifactRecord(33, 0xcc)).ok());
  log.Close();
  DurableLog again;
  ASSERT_TRUE(again.Open(options).ok());
  EXPECT_EQ(ReplayAll(again).size(), 4u);
}

TEST(DurableLogTest, TornTailWriteSalvagesThePrefix) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(options).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(1, 0x1)).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(2, 0x2)).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(3, 0x3)).ok());
    log.Close();
  }
  // Crash mid-append: the final record is cut short.
  const std::vector<std::string> segments = SegmentPaths(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint8_t> bytes = ReadFile(segments[0]);
  ASSERT_GT(bytes.size(), 5u);
  bytes.resize(bytes.size() - 5);
  WriteFile(segments[0], bytes);

  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].record.key, 1u);
  EXPECT_EQ(replayed[1].record.key, 2u);
  const DurableLog::Stats stats = log.stats();
  EXPECT_EQ(stats.truncated_tails, 1u);
  EXPECT_GT(stats.bytes_discarded, 0u);
}

TEST(DurableLogTest, FlippedBitCostsOneRecordNotTheLog) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(options).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(1, 0x1)).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(2, 0x2)).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(3, 0x3)).ok());
    log.Close();
  }
  // Flip one bit inside the middle record's payload: its CRC check must fail
  // and the magic-scan resync must land on the third record's header.
  std::vector<uint8_t> encoded;
  engine::EncodeSiteRecord(ArtifactRecord(1, 0x1), &encoded);
  const size_t payload_bytes = 8 + 4 + encoded.size();  // fp + inst + record
  const size_t record_bytes = DurableLog::kRecordHeaderBytes + payload_bytes;
  const std::vector<std::string> segments = SegmentPaths(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint8_t> bytes = ReadFile(segments[0]);
  ASSERT_EQ(bytes.size(), 3 * record_bytes);  // all three records equal-sized
  bytes[record_bytes + DurableLog::kRecordHeaderBytes + payload_bytes / 2] ^= 0x10;
  WriteFile(segments[0], bytes);

  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].record.key, 1u);
  EXPECT_EQ(replayed[1].record.key, 3u);  // resync skipped only the victim
  const DurableLog::Stats stats = log.stats();
  EXPECT_GE(stats.records_corrupt, 1u);
  EXPECT_GT(stats.bytes_discarded, 0u);
}

TEST(DurableLogTest, DuplicateArtifactHashesAreDroppedOnReplay) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(options).ok());
    // A crash between store insert and evidence append, then a re-run: the
    // same artifact (same site, kind, content-hash key) lands twice.
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(11, 0xaa)).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(11, 0xaa)).ok());
    ASSERT_TRUE(log.Append(SiteA(), RejectionRecord("note")).ok());
    // Same key under a different site is a different artifact; kept.
    ASSERT_TRUE(log.Append(SiteB(), ArtifactRecord(11, 0xaa)).ok());
    log.Close();
  }

  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].site, SiteA());
  EXPECT_EQ(replayed[1].record.type, SiteRecord::Type::kRejection);
  EXPECT_EQ(replayed[2].site, SiteB());
  EXPECT_EQ(log.stats().records_duplicate, 1u);
}

TEST(DurableLogTest, SegmentsRotateAndReplayInWriteOrder) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  options.max_segment_bytes = 1;  // every append rotates
  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(i, i)).ok());
  }
  EXPECT_GE(log.stats().segments_created, 4u);
  EXPECT_GE(SegmentPaths(dir.path).size(), 4u);
  log.Close();

  DurableLog replay;
  ASSERT_TRUE(replay.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(replay);
  ASSERT_EQ(replayed.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replayed[i].record.key, i);
  }
}

TEST(DurableLogTest, GarbagePrefixResyncsToFirstRecord) {
  TempDir dir;
  DurableLog::Options options;
  options.directory = dir.path;
  {
    DurableLog log;
    ASSERT_TRUE(log.Open(options).ok());
    ASSERT_TRUE(log.Append(SiteA(), ArtifactRecord(9, 0x9)).ok());
    log.Close();
  }
  const std::vector<std::string> segments = SegmentPaths(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint8_t> bytes = ReadFile(segments[0]);
  std::vector<uint8_t> garbled = {0xde, 0xad, 0xbe, 0xef, 0x00};
  garbled.insert(garbled.end(), bytes.begin(), bytes.end());
  WriteFile(segments[0], garbled);

  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  const std::vector<Replayed> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].record.key, 9u);
  EXPECT_EQ(log.stats().bytes_discarded, 5u);
}

// --- evidence records ---------------------------------------------------------

// One catalogue site with two distinct success bundles.
const bench::CapturedSite& Site() {
  static const bench::CapturedSite site = [] {
    std::vector<bench::CapturedSite> sites = bench::CaptureSites({"pbzip2_main"}, 2);
    if (sites.size() != 1 || sites[0].successes.size() != 2) {
      ADD_FAILURE() << "pbzip2_main did not yield a failure and two successes";
      std::abort();
    }
    return std::move(sites[0]);
  }();
  return site;
}

DurableSiteKey SiteKey() {
  return DurableSiteKey{Site().failing.module_fingerprint, Site().failing.failure.failing_inst};
}

std::vector<uint8_t> WireBytes(const pt::PtTraceBundle& bundle) {
  std::vector<uint8_t> bytes;
  wire::EncodeBundle(bundle, &bytes);
  return bytes;
}

bool IsEvidence(const SiteRecord& record) {
  return record.type == SiteRecord::Type::kFailingEvidence ||
         record.type == SiteRecord::Type::kSuccessEvidence;
}

// Journals the failing bundle, the first success twice (the repeat is a
// decode-memo hit) and the second success into a log at `dir`.
void JournalSite(const std::string& dir) {
  DurableLog::Options options;
  options.directory = dir;
  DurableLog log;
  ASSERT_TRUE(log.Open(options).ok());
  core::DiagnosisServer::Options sopts;
  sopts.durable_log = &log;
  sopts.durable_site = SiteKey();
  core::DiagnosisServer server(Site().workload.module.get(), sopts);
  ASSERT_TRUE(server.SubmitFailingTrace(Site().failing).ok());
  ASSERT_TRUE(server.SubmitSuccessTrace(Site().successes[0]).ok());
  ASSERT_TRUE(server.SubmitSuccessTrace(Site().successes[0]).ok());
  ASSERT_TRUE(server.SubmitSuccessTrace(Site().successes[1]).ok());
  EXPECT_EQ(server.durable_failures(), 0u);
  log.Close();
}

// Every record the log at `dir` holds, plus `extra` appended first.
std::vector<SiteRecord> SiteRecords(const std::string& dir, const SiteRecord* extra = nullptr,
                                    DurableLog::Stats* stats = nullptr) {
  DurableLog::Options options;
  options.directory = dir;
  DurableLog log;
  EXPECT_TRUE(log.Open(options).ok());
  if (extra != nullptr) {
    EXPECT_TRUE(log.Append(SiteKey(), *extra).ok());
  }
  std::vector<SiteRecord> records;
  for (Replayed& r : ReplayAll(log)) {
    records.push_back(std::move(r.record));
  }
  if (stats != nullptr) {
    *stats = log.stats();
  }
  return records;
}

std::unique_ptr<core::DiagnosisServer> Restore(std::vector<SiteRecord>&& records) {
  auto server = std::make_unique<core::DiagnosisServer>(Site().workload.module.get());
  server->RestoreSiteRecords(std::move(records));
  return server;
}

TEST(DurableLogTest, EvidenceRecordIsTheWireBundleOncePerKey) {
  TempDir dir;
  JournalSite(dir.path);
  std::vector<SiteRecord> records = SiteRecords(dir.path);
  std::vector<SiteRecord> evidence;
  std::copy_if(records.begin(), records.end(), std::back_inserter(evidence), IsEvidence);
  ASSERT_EQ(evidence.size(), 4u);
  const pt::PtTraceBundle& first = Site().successes[0];
  EXPECT_EQ(evidence[0].type, SiteRecord::Type::kFailingEvidence);
  EXPECT_EQ(evidence[0].key, trace::TraceKey(Site().failing, {}));
  EXPECT_EQ(evidence[0].bytes, WireBytes(Site().failing));
  EXPECT_EQ(evidence[1].type, SiteRecord::Type::kSuccessEvidence);
  EXPECT_EQ(evidence[1].key, trace::TraceKey(first, {}));
  EXPECT_EQ(evidence[1].bytes, WireBytes(first));
  // The memo-hit repeat is a reference: same type and key, no bytes.
  EXPECT_EQ(evidence[2].type, SiteRecord::Type::kSuccessEvidence);
  EXPECT_EQ(evidence[2].key, evidence[1].key);
  EXPECT_TRUE(evidence[2].bytes.empty());
  EXPECT_EQ(evidence[3].bytes, WireBytes(Site().successes[1]));

  // A restore builds each unique bundle's trace once and reproduces the
  // journaling server's diagnosis; its hand-off stream has the same shape.
  std::unique_ptr<core::DiagnosisServer> restored = Restore(std::move(records));
  EXPECT_EQ(restored->durable_failures(), 0u);
  EXPECT_EQ(restored->NumSuccessTraces(), 3u);
  EXPECT_EQ(restored->pass_stats(engine::PassId::kTraceProcess).runs, 3u);
  EXPECT_EQ(restored->pass_stats(engine::PassId::kTraceProcess).cache_hits, 1u);
  core::DiagnosisServer live(Site().workload.module.get());
  ASSERT_TRUE(live.SubmitFailingTrace(Site().failing).ok());
  ASSERT_TRUE(live.SubmitSuccessTrace(first).ok());
  ASSERT_TRUE(live.SubmitSuccessTrace(first).ok());
  ASSERT_TRUE(live.SubmitSuccessTrace(Site().successes[1]).ok());
  EXPECT_EQ(bench::DigestReport(restored->Diagnose()), bench::DigestReport(live.Diagnose()));
  std::vector<SiteRecord> exported;
  restored->ExportSiteRecords([&](SiteRecord&& record) {
    if (IsEvidence(record)) {
      exported.push_back(std::move(record));
    }
  });
  ASSERT_EQ(exported.size(), evidence.size());
  for (size_t i = 0; i < evidence.size(); ++i) {
    EXPECT_EQ(exported[i].type, evidence[i].type) << i;
    EXPECT_EQ(exported[i].key, evidence[i].key) << i;
    EXPECT_EQ(exported[i].bytes, evidence[i].bytes) << i;
  }
}

// The journal's own evidence plus one hostile record restores everything
// but that record, which is one counted rejection.
void ExpectOneRejectedRecord(const core::DiagnosisServer& restored, size_t successes) {
  EXPECT_EQ(restored.durable_failures(), 1u);
  EXPECT_EQ(restored.degradation().rejected_bundles, 1u);
  EXPECT_TRUE(restored.HasFailure());
  EXPECT_EQ(restored.NumSuccessTraces(), successes);
  EXPECT_FALSE(restored.Diagnose().patterns.empty());
}

TEST(DurableLogTest, EvidenceRecordThatIsNotABundleIsACountedRejection) {
  TempDir dir;
  JournalSite(dir.path);
  // What an older build journaled: a processed-trace encoding behind the
  // artifact codec version byte, not a bundle.
  SiteRecord stale;
  stale.type = SiteRecord::Type::kSuccessEvidence;
  stale.key = 0x5eed;
  stale.bytes = {engine::kArtifactCodecVersion, 0x80, 0x04, 0x03, 0x01, 0x02};
  ExpectOneRejectedRecord(*Restore(SiteRecords(dir.path, &stale)), 3);
}

TEST(DurableLogTest, EvidenceBundleThatFailsValidationIsACountedRejection) {
  TempDir dir;
  JournalSite(dir.path);
  pt::PtTraceBundle forged = Site().successes[1];
  forged.module_fingerprint ^= 1;  // traced a different binary
  SiteRecord record;
  record.type = SiteRecord::Type::kSuccessEvidence;
  record.key = trace::TraceKey(forged, {});
  record.bytes = WireBytes(forged);
  ExpectOneRejectedRecord(*Restore(SiteRecords(dir.path, &record)), 3);
}

TEST(DurableLogTest, ReferenceWhoseFullRecordWasLostIsACountedRejection) {
  TempDir dir;
  JournalSite(dir.path);
  // Flip one byte inside the first success's full record: its CRC fails,
  // so the reference that follows has nothing to resolve to.
  const std::vector<std::string> segments = SegmentPaths(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint8_t> bytes = ReadFile(segments[0]);
  const std::vector<uint8_t> victim = WireBytes(Site().successes[0]);
  const auto at = std::search(bytes.begin(), bytes.end(), victim.begin(), victim.end());
  ASSERT_NE(at, bytes.end());
  at[static_cast<std::ptrdiff_t>(victim.size() / 2)] ^= 0x10;
  WriteFile(segments[0], bytes);

  DurableLog::Stats stats;
  std::vector<SiteRecord> records = SiteRecords(dir.path, nullptr, &stats);
  EXPECT_EQ(stats.records_corrupt, 1u);
  // The lost record and its reference are both gone; the second success
  // survives.
  ExpectOneRejectedRecord(*Restore(std::move(records)), 1);
}

TEST(DurableLogTest, ImportedForgedFingerprintBundleIsRejected) {
  core::DiagnosisServer server(Site().workload.module.get());
  ASSERT_TRUE(server.SubmitFailingTrace(Site().failing).ok());
  pt::PtTraceBundle forged = Site().successes[0];
  forged.module_fingerprint ^= 1;
  std::vector<SiteRecord> records(1);
  records[0].type = SiteRecord::Type::kSuccessEvidence;
  records[0].key = trace::TraceKey(forged, {});
  records[0].bytes = WireBytes(forged);
  EXPECT_FALSE(server.ImportSiteRecords(std::move(records)).ok());
  EXPECT_EQ(server.NumSuccessTraces(), 0u);
  EXPECT_EQ(server.degradation().rejected_bundles, 1u);
  EXPECT_EQ(server.durable_failures(), 1u);
}

}  // namespace
}  // namespace snorlax
