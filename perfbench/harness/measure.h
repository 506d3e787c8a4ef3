// Measurement helpers of the benchmark: percentiles with their sample
// support, spans with self-time arithmetic, and the one-line JSON result.
//
// Header-only and free of program headers so perfbench_test can check the
// arithmetic without building the diagnosis libraries.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least p*n samples at or
// below it. 0 for an empty sample set.
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

inline double Median(const std::vector<double>& xs) { return Percentile(xs, 0.5); }

// Samples strictly above the nearest-rank p-th percentile position. A
// percentile is reported only when this is at least kMinSamplesBeyond.
inline size_t SamplesBeyond(size_t n, double p) {
  const size_t at = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > at ? n - at : 0;
}
inline constexpr size_t kMinSamplesBeyond = 10;
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

// --- metric names ------------------------------------------------------------

// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}
inline bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alnum = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (!alnum && (i == 0 || (c != '_' && c != '.' && c != '-'))) {
      return false;
    }
  }
  return true;
}

// --- spans -------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call. `name` is "<layer>.<call>"; the layer is the prefix before
// the first dot. A duration-only span (`replay`) has no interval of its own
// inside its parent: it is either the time the program itself recorded for a
// step of the parent call (a pass_stats() delta), or the same public call
// re-run on the same input outside the timed loop. It explains part of an
// opaque parent, a call whose inner layers the benchmark cannot time from
// outside. Its start is its parent's.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  std::string name;
  uint64_t request = 0;  // site or bundle the span served
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool replay = false;

  int64_t duration() const { return end_ns - start_ns; }
};

inline std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

// Spans kept in memory and written out once, at the end of the run.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Returns the span id (0 when recording is off, which callers may pass on
  // as a parent: everything then stays a no-op).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request) {
    if (!enabled_) {
      return 0;
    }
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.request = request;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(uint32_t id) {
    if (id != 0) {
      spans_[id - 1].end_ns = NowNs();
    }
  }
  // Attaches a duration-only span of `duration_ns` under `parent`; returns
  // its id so further duration-only spans can nest under it.
  uint32_t AddReplay(const char* name, uint32_t parent, uint64_t request, int64_t duration_ns) {
    if (!enabled_ || parent == 0) {
      return 0;
    }
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.request = request;
    s.start_ns = spans_[parent - 1].start_ns;
    s.end_ns = s.start_ns + std::max<int64_t>(duration_ns, 0);
    s.replay = true;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Tab-separated dump: id parent request replay start_ns end_ns name.
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "id\tparent\trequest\treplay\tstart_ns\tend_ns\tname\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u\t%u\t%llu\t%d\t%lld\t%lld\t%s\n", s.id, s.parent,
                   static_cast<unsigned long long>(s.request), s.replay ? 1 : 0,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.name.c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Self time of every span (indexed like `spans`, where a child always comes
// after its parent): its time minus what its children cover. Measured
// children cover the union of their intervals clipped to the parent's.
// Duration-only children follow, in order, each cut to what its parent has
// left (and its own children accounting within the cut duration), so self
// times stay >= 0 and add up to the roots' wall time.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t parent = spans[i].parent;
    if (parent != 0 && parent - 1 < i) {
      children[parent - 1].push_back(i);
    }
  }
  // Time each span accounts for: its duration, or less for a cut one.
  std::vector<int64_t> own(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    own[i] = spans[i].duration();
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      if (!spans[c].replay) {
        iv.emplace_back(spans[c].start_ns, spans[c].end_ns);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cursor = p.start_ns;
    for (const auto& [b, e] : iv) {
      const int64_t lo = std::max(b, cursor);
      const int64_t hi = std::min(e, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    int64_t left = std::max<int64_t>(own[i] - covered, 0);
    for (size_t c : children[i]) {
      if (spans[c].replay) {
        own[c] = std::min(own[c], left);
        left -= own[c];
      }
    }
    self[i] = left;
  }
  return self;
}

// Self time summed per layer. Root spans (names without a dot, e.g. "round")
// are the timed wall; their own self time is the part no layer explains.
inline std::map<std::string, int64_t> LayerSelfTimes(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i].name)] += self[i];
  }
  return out;
}

// --- result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The last line of standard output: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Values keep every digit (%.17g).
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += i == 0 ? "\"" : ", \"";
    out += metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
