// Perf-smoke acceptance for the compact trace-ingest path (runs under the
// perf-smoke ctest label):
//   - the varint/delta-compressed bundle encoding of real workload traces is
//     pinned to its golden byte total,
//   - diagnosis is digest-identical whether bundles are submitted directly or
//     travel the wire, and whether the receive side decodes them through the
//     copying or the zero-copy (FrameView / BundlePayloadView) path.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "bench/throughput_harness.h"
#include "core/server_pool.h"
#include "engine/pass.h"
#include "wire/frame.h"
#include "wire/serialize.h"

namespace snorlax {
namespace {

const std::vector<bench::CapturedSite>& Sites() {
  static const auto* sites = new std::vector<bench::CapturedSite>(
      bench::CaptureSites({"pbzip2_main", "memcached_127"}));
  return *sites;
}

// Ships one bundle through the full wire stack (payload encode -> frame ->
// assembler -> payload decode -> bundle decode), using either the copying
// Frame path or the zero-copy view path.
pt::PtTraceBundle WireRoundTrip(const pt::PtTraceBundle& bundle, bool zero_copy) {
  wire::Frame frame;
  frame.type = wire::FrameType::kBundle;
  frame.seq = 1;
  wire::BundlePayload payload;
  payload.kind = wire::BundleKind::kFailing;
  wire::EncodeBundle(bundle, &payload.bundle_bytes);
  wire::EncodeBundlePayload(payload, &frame.payload);
  std::vector<uint8_t> stream;
  wire::EncodeFrame(frame, &stream);

  wire::FrameAssembler assembler;
  EXPECT_TRUE(assembler.Feed(stream.data(), stream.size()));
  if (zero_copy) {
    wire::FrameView view;
    EXPECT_TRUE(assembler.Next(&view));
    wire::BundlePayloadView decoded_payload;
    EXPECT_TRUE(wire::DecodeBundlePayload(view.payload, &decoded_payload).ok());
    auto decoded = wire::DecodeBundle(decoded_payload.bundle_bytes);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.take();
  }
  wire::Frame copied;
  EXPECT_TRUE(assembler.Next(&copied));
  wire::BundlePayload decoded_payload;
  EXPECT_TRUE(wire::DecodeBundlePayload(copied.payload, &decoded_payload).ok());
  auto decoded = wire::DecodeBundle(decoded_payload.bundle_bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.take();
}

std::string DigestVia(
    const std::function<pt::PtTraceBundle(const pt::PtTraceBundle&)>& transform) {
  core::ServerPool pool;
  for (const bench::CapturedSite& site : Sites()) {
    pool.RegisterModule(site.workload.module.get());
  }
  for (const bench::CapturedSite& site : Sites()) {
    pool.SubmitFailingTrace(transform(site.failing));
    for (const pt::PtTraceBundle& success : site.successes) {
      pool.SubmitSuccessTrace(site.failing.failure.failing_inst, transform(success));
    }
  }
  return bench::DigestReports(pool.DiagnoseAll());
}

// Golden bytes: the 22 captured bundles encode to exactly this many bytes.
// When the retired fixed-width layout still existed, the same bundles took
// 24,829 B there, so this total is the 2.10x compression the gate used to
// assert as a ratio. Any change to the bundle encoding, the PT transcoder or
// the captured traffic moves it.
TEST(IngestPerfSmoke, CompressedBundlesAreAtLeastTwiceAsSmall) {
  const auto& sites = Sites();
  ASSERT_FALSE(sites.empty());
  const bench::IngestProfile profile = bench::ProfileIngest(sites);
  EXPECT_EQ(profile.bundles, 22u);
  EXPECT_EQ(profile.bytes, 11850u) << profile.bytes_per_bundle << " B/bundle";
  EXPECT_GT(profile.decode_events_per_sec, 0.0);
}

TEST(IngestPerfSmoke, DigestsIdenticalAcrossFormatsAndDecodePaths) {
  ASSERT_FALSE(Sites().empty());
  const std::string direct = DigestVia([](const pt::PtTraceBundle& b) { return b; });
  ASSERT_FALSE(direct.empty());
  const std::string copied = DigestVia([](const pt::PtTraceBundle& b) {
    return WireRoundTrip(b, /*zero_copy=*/false);
  });
  const std::string viewed = DigestVia([](const pt::PtTraceBundle& b) {
    return WireRoundTrip(b, /*zero_copy=*/true);
  });
  EXPECT_EQ(direct, copied);
  EXPECT_EQ(direct, viewed);
}

// Steady-state re-diagnosis gate for the pass-pipeline engine: once a site
// has seen its first failing bundle, every repeat of the same interleaving
// must be served from the artifact store. The per-bundle analysis time
// (submit + re-diagnose as the pass table charges it, bundle decode included)
// must drop at least 2x against recomputing every pass from scratch.
TEST(IngestPerfSmoke, IncrementalRediagnosisAtLeastTwiceFaster) {
  const auto& sites = Sites();
  ASSERT_FALSE(sites.empty());
  constexpr size_t kSteadyRounds = 12;

  auto steady_analysis_seconds = [&](bool use_cache) {
    double total = 0.0;
    for (const bench::CapturedSite& site : sites) {
      core::DiagnosisServer::Options options;
      options.use_analysis_cache = use_cache;
      core::DiagnosisServer server(site.workload.module.get(), options);
      // Warm-up: first failing bundle plus success evidence, then one full
      // diagnosis. Nothing here is charged to the steady state.
      EXPECT_TRUE(server.SubmitFailingTrace(site.failing).ok());
      for (const pt::PtTraceBundle& success : site.successes) {
        (void)server.SubmitSuccessTrace(success);
      }
      const double warmup = server.Diagnose().stages.AnalysisSeconds();
      for (size_t round = 0; round < kSteadyRounds; ++round) {
        EXPECT_TRUE(server.SubmitFailingTrace(site.failing).ok());
        (void)server.Diagnose();
      }
      total += server.Diagnose().stages.AnalysisSeconds() - warmup;
      if (use_cache) {
        // The speedup must come from the store, not from doing less work.
        EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).runs, 1u);
        EXPECT_EQ(server.pass_stats(engine::PassId::kPointsTo).cache_hits,
                  kSteadyRounds);
      }
    }
    return total;
  };

  const double scratch = steady_analysis_seconds(/*use_cache=*/false);
  const double incremental = steady_analysis_seconds(/*use_cache=*/true);
  ASSERT_GT(incremental, 0.0);
  EXPECT_GE(scratch / incremental, 2.0)
      << "recompute-from-scratch " << scratch * 1e3 << " ms vs incremental "
      << incremental * 1e3 << " ms over " << kSteadyRounds << " rounds/site";
}

}  // namespace
}  // namespace snorlax
