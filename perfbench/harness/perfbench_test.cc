// Unit tests of the benchmark's measurement helpers (measure.h). Plain
// checks, no framework: exits 1 on the first failure.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Span;

Span MakeSpan(uint32_t id, uint32_t parent, const char* name, int64_t start, int64_t end,
              bool replay = false) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.replay = replay;
  return s;
}

void TestPercentile() {
  using perfbench::Percentile;
  EXPECT(Percentile({}, 0.5) == 0.0);
  EXPECT(Percentile({7.0}, 0.9) == 7.0);
  // Nearest rank over 1..10: p50 -> 5, p90 -> 9, p100 -> 10, p0 -> 1.
  std::vector<double> xs;
  for (int i = 10; i >= 1; --i) {
    xs.push_back(i);
  }
  EXPECT(Percentile(xs, 0.5) == 5.0);
  EXPECT(Percentile(xs, 0.9) == 9.0);
  EXPECT(Percentile(xs, 1.0) == 10.0);
  EXPECT(Percentile(xs, 0.0) == 1.0);
  EXPECT(perfbench::Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestSampleSupport() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(SamplesBeyond(99, 0.9) == 9);
  EXPECT(SamplesBeyond(10, 0.5) == 5);
  EXPECT(SamplesBeyond(0, 0.9) == 0);
  EXPECT(PercentileSupported(100, 0.9));
  EXPECT(!PercentileSupported(99, 0.9));
  EXPECT(PercentileSupported(20, 0.5));
}

void TestMetricNames() {
  using perfbench::IsValidMetricName;
  EXPECT(IsValidMetricName("setup_s"));
  EXPECT(IsValidMetricName("engine.cache_hit_ratio.points_to"));
  EXPECT(IsValidMetricName("a-b.c_9"));
  EXPECT(IsValidMetricName("9lives"));
  EXPECT(!IsValidMetricName(""));
  EXPECT(!IsValidMetricName("_leading"));
  EXPECT(!IsValidMetricName(".leading"));
  EXPECT(!IsValidMetricName("has space"));
  EXPECT(!IsValidMetricName("slash/unit"));
  EXPECT(!IsValidMetricName(std::string(65, 'a')));
  EXPECT(IsValidMetricName(std::string(64, 'a')));
}

void TestSelfTimes() {
  // root [0,100): measured children [10,30) and [30,50) cover 40; a
  // duration-only child of 25 -> root self = 100 - 40 - 25 = 35.
  // child 2 [10,30) has a duration-only child of 5 -> self 15.
  std::vector<Span> spans = {
      MakeSpan(1, 0, "request", 0, 100),
      MakeSpan(2, 1, "core.submit", 10, 30),
      MakeSpan(3, 1, "wire.decode", 30, 50),
      MakeSpan(4, 1, "engine.score", 500, 525, /*replay=*/true),
      MakeSpan(5, 2, "pt.decode", 900, 905, /*replay=*/true),
  };
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 35);
  EXPECT(self[1] == 15);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 25);
  EXPECT(self[4] == 5);
  // Layer totals partition the root's wall time.
  const auto layers = perfbench::LayerSelfTimes(spans);
  EXPECT(layers.at("request") == 35);
  EXPECT(layers.at("core") == 15);
  EXPECT(layers.at("wire") == 20);
  EXPECT(layers.at("engine") == 25);
  EXPECT(layers.at("pt") == 5);
  int64_t total = 0;
  for (const auto& [layer, ns] : layers) {
    total += ns;
  }
  EXPECT(total == 100);

  // Overlapping measured children cover their union once.
  std::vector<Span> overlap = {
      MakeSpan(1, 0, "request", 0, 100),
      MakeSpan(2, 1, "core.a", 10, 30),
      MakeSpan(3, 1, "core.b", 20, 50),
  };
  EXPECT(perfbench::SelfTimes(overlap)[0] == 60);

  // A child poking out of its parent only covers the overlap.
  std::vector<Span> clipped = {
      MakeSpan(1, 0, "request", 0, 10),
      MakeSpan(2, 1, "net.flush", 5, 20),
  };
  EXPECT(perfbench::SelfTimes(clipped)[0] == 5);

  // Duration-only children claiming more than their parent has left are cut
  // in order, nested ones within the cut; the self times still partition
  // the root.
  std::vector<Span> over = {
      MakeSpan(1, 0, "round", 0, 100),
      MakeSpan(2, 1, "net.flush", 0, 60),
      MakeSpan(3, 2, "wire.decode", 0, 40, /*replay=*/true),
      MakeSpan(4, 2, "core.submit", 0, 80, /*replay=*/true),
      MakeSpan(5, 4, "engine.append", 0, 30, /*replay=*/true),
  };
  const std::vector<int64_t> o = perfbench::SelfTimes(over);
  EXPECT(o[0] == 40);
  EXPECT(o[1] == 0);
  EXPECT(o[2] == 40);
  EXPECT(o[3] == 0);   // cut to the 20 its parent had left, all its child's
  EXPECT(o[4] == 20);
  EXPECT(o[0] + o[1] + o[2] + o[3] + o[4] == 100);
}

void TestRecorder() {
  perfbench::SpanRecorder off(false);
  EXPECT(off.Begin("core.x", 0, 1) == 0);
  EXPECT(off.AddReplay("pt.decode", 1, 1, 5) == 0);
  EXPECT(off.spans().empty());
  perfbench::SpanRecorder on(true);
  const uint32_t root = on.Begin("request", 0, 7);
  const uint32_t child = on.Begin("core.x", root, 7);
  on.End(child);
  const uint32_t replay = on.AddReplay("pt.decode", child, 7, 5);
  on.End(root);
  EXPECT(root == 1 && child == 2 && replay == 3);
  EXPECT(on.spans()[1].parent == root);
  EXPECT(on.spans()[2].replay && on.spans()[2].duration() == 5);
  EXPECT(on.spans()[2].start_ns == on.spans()[1].start_ns);
  EXPECT(on.AddReplay("pt.decode", 0, 7, 5) == 0);  // needs a parent
}

void TestResultJson() {
  const std::string json = perfbench::ResultJson(
      true, 12, 0, {{"latency_p50_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
         "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  // Every digit survives.
  const std::string precise = perfbench::ResultJson(false, 1, 1, {{"x", 0.1 + 0.2, "s"}});
  EXPECT(precise.find("0.30000000000000004") != std::string::npos);
  EXPECT(precise.find("\"correct\": false") != std::string::npos);
}

}  // namespace

int main() {
  TestPercentile();
  TestSampleSupport();
  TestMetricNames();
  TestSelfTimes();
  TestRecorder();
  TestResultJson();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
