#include "layers.h"

#include <algorithm>
#include <utility>

#include "engine/artifact_codec.h"
#include "engine/durable_log.h"
#include "engine/repair.h"
#include "pt/decoder.h"
#include "runtime/validate.h"
#include "trace/processed_trace.h"
#include "wire/frame.h"
#include "wire/serialize.h"

namespace perfbench {

namespace sx = snorlax;

namespace {

// Repetitions of each replayed call; a bundle's cost is their median.
constexpr int kReplayReps = 3;

// Times `fn` kReplayReps times and returns the median duration.
template <typename Fn>
int64_t MedianTimed(Fn&& fn) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const int64_t start = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - start));
  }
  return static_cast<int64_t>(Median(ns));
}

BundleCost ReplayBundle(const sx::ir::Module& module, const sx::pt::PtTraceBundle& bundle,
                        bool failing, sx::engine::DurableLog* log,
                        const sx::engine::DurableSiteKey& key, Samples* samples) {
  BundleCost cost;
  sx::pt::PtDecoder decoder(&module);
  size_t events = 0;
  cost.pt_decode = MedianTimed([&] {
    events = 0;
    for (const sx::pt::DecodedThreadTrace& t : decoder.Decode(bundle)) {
      events += t.events.size();
    }
  });
  size_t raw_bytes = 0;
  for (const sx::pt::PtTraceBundle::PerThread& t : bundle.threads) {
    raw_bytes += t.bytes.size();
  }
  (*samples)["pt.decode"].push_back(static_cast<double>(cost.pt_decode));
  (*samples)["pt.events_count"].push_back(static_cast<double>(events));
  (*samples)["pt.trace_bytes_count"].push_back(static_cast<double>(raw_bytes));

  const sx::trace::ProcessedTrace trace(&module, bundle);
  (*samples)["trace.instances_count"].push_back(static_cast<double>(trace.size()));
  cost.durable_append = MedianTimed([&] {
    sx::engine::SiteRecord record;
    record.type = failing ? sx::engine::SiteRecord::Type::kFailingEvidence
                          : sx::engine::SiteRecord::Type::kSuccessEvidence;
    sx::engine::EncodeProcessedTrace(trace, &record.bytes);
    (void)log->Append(key, record);
  });
  std::vector<uint8_t> payload_bytes;
  cost.wire_encode = MedianTimed([&] {
    payload_bytes.clear();
    sx::wire::EncodeBundle(bundle, &payload_bytes);
  });
  cost.wire_frame = MedianTimed([&] {
    sx::wire::BundlePayload payload;
    payload.kind = failing ? sx::wire::BundleKind::kFailing : sx::wire::BundleKind::kSuccess;
    payload.bundle_bytes = payload_bytes;
    sx::wire::Frame frame;
    frame.type = sx::wire::FrameType::kBundle;
    frame.seq = 1;
    sx::wire::EncodeBundlePayload(payload, &frame.payload);
    std::vector<uint8_t> encoded;
    sx::wire::EncodeFrame(frame, &encoded);
    sx::wire::FrameAssembler assembler;
    assembler.Feed(encoded.data(), encoded.size());
    sx::wire::FrameView view;
    (void)assembler.Next(&view);
  });
  for (const auto& [name, ns] : {std::pair{"engine.durable_append", cost.durable_append},
                                 std::pair{"wire.frame", cost.wire_frame}}) {
    (*samples)[name].push_back(static_cast<double>(ns));
  }
  return cost;
}

struct PassSpan {
  sx::engine::PassId id;
  const char* name;
};
constexpr PassSpan kPassSpans[] = {
    {sx::engine::PassId::kTraceProcess, "trace.process"},
    {sx::engine::PassId::kDerefChains, "analysis.deref_chain"},
    {sx::engine::PassId::kPointsTo, "analysis.points_to"},
    {sx::engine::PassId::kTypeRank, "analysis.type_rank"},
    {sx::engine::PassId::kPatterns, "engine.patterns"},
    {sx::engine::PassId::kScore, "engine.score"},
    {sx::engine::PassId::kRepair, "engine.repair"},
};

}  // namespace

uint32_t AttachPassDeltas(const sx::engine::PassStatsTable& before,
                          const sx::engine::PassStatsTable& after, uint32_t span,
                          uint64_t request, SpanRecorder* spans, Samples* samples) {
  uint32_t trace_process = 0;
  for (const PassSpan& p : kPassSpans) {
    const sx::engine::PassStats& b = sx::engine::StatsFor(before, p.id);
    const sx::engine::PassStats& a = sx::engine::StatsFor(after, p.id);
    if (a.runs == b.runs) {
      continue;  // not run, or served from a cache (which records no time)
    }
    const int64_t ns = static_cast<int64_t>((a.seconds - b.seconds) * 1e9);
    (*samples)[p.name].push_back(static_cast<double>(ns));
    const uint32_t child = spans->AddReplay(p.name, span, request, ns);
    if (p.id == sx::engine::PassId::kTraceProcess) {
      trace_process = child;
    }
  }
  return trace_process;
}

SiteCost ReplayBundles(const Site& site, const DecodedSite& decoded,
                       const std::string& durable_dir, Samples* samples) {
  sx::engine::DurableLog log;
  sx::engine::DurableLog::Options log_options;
  log_options.directory = durable_dir;
  (void)log.Open(log_options);
  const sx::engine::DurableSiteKey key{site.fingerprint, site.failing_inst};
  SiteCost cost;
  for (const sx::pt::PtTraceBundle& bundle : decoded.failing) {
    cost.failing.push_back(ReplayBundle(site.module(), bundle, true, &log, key, samples));
  }
  for (const sx::pt::PtTraceBundle& bundle : decoded.successes) {
    cost.successes.push_back(ReplayBundle(site.module(), bundle, false, &log, key, samples));
  }
  log.Close();
  return cost;
}

void AttachDecodes(const std::vector<DecodeAttachment>& attachments,
                   const std::vector<SiteCost>& costs, SpanRecorder* spans, Samples* samples) {
  for (const DecodeAttachment& a : attachments) {
    const int64_t decode = costs[a.site].of(a.failing, a.index).pt_decode;
    const int64_t process = spans->spans()[a.span - 1].duration();
    spans->AddReplay("pt.decode", a.span, a.site, decode);
    (*samples)["trace.build"].push_back(
        static_cast<double>(std::max<int64_t>(process - decode, 0)));
  }
}

void ReplayRepair(const std::vector<Site>& sites, const std::vector<DecodedSite>& decoded,
                  size_t validate_sites, Samples* samples) {
  for (size_t s = 0; s < sites.size(); ++s) {
    const Site& site = sites[s];
    sx::core::DiagnosisServer server(&site.module());
    for (const auto& b : decoded[s].failing) {
      (void)server.SubmitFailingTrace(b);
    }
    for (const auto& b : decoded[s].successes) {
      (void)server.SubmitSuccessTrace(b);
    }
    const sx::core::DiagnosisReport report = server.Diagnose();
    sx::engine::RepairOptions repair;
    repair.enabled = true;
    repair.validate = false;
    repair.entry = site.workload.entry;
    repair.interp = site.workload.interp;
    const sx::rt::FailureKind target = site.workload.expected_failure;
    int64_t start = NowNs();
    const sx::engine::RepairPlan plan =
        sx::engine::BuildRepairPlan(site.module(), report.patterns, target, repair);
    (*samples)["engine.repair_build"].push_back(static_cast<double>(NowNs() - start));
    if (s >= validate_sites) {
      continue;
    }
    // What BuildRepairPlan's validation does for its best candidate.
    const auto best =
        std::find_if(plan.candidates.begin(), plan.candidates.end(), [](const auto& c) {
          return c.status == sx::engine::RepairStatus::kBuilt;
        });
    if (best == plan.candidates.end()) {
      continue;
    }
    sx::rt::RepairTrialOptions trial;
    trial.entry = repair.entry;
    trial.interp = repair.interp;
    trial.jitter_bands = repair.jitter_bands;
    trial.seeds_per_band = repair.seeds_per_band;
    trial.first_seed = repair.first_seed;
    trial.min_baseline_failures = repair.min_baseline_failures;
    trial.max_seeds_per_band = repair.max_seeds_per_band;
    trial.max_overhead_ratio = repair.max_overhead_ratio;
    start = NowNs();
    const sx::rt::RepairVerdict verdict =
        sx::rt::ValidateRepair(site.module(), best->patch, target, trial);
    (*samples)["runtime.validate"].push_back(static_cast<double>(NowNs() - start));
    (*samples)["runtime.validate_runs_count"].push_back(
        2.0 * static_cast<double>(verdict.runs_per_module));
  }
}

}  // namespace perfbench
