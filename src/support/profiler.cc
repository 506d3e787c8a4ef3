#include "support/profiler.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"

namespace snorlax::support {

Profiler& Profiler::Global() {
  static Profiler* instance = new Profiler();  // never destroyed: probes may
  return *instance;                            // fire during static teardown
}

Profiler::Entry& Profiler::Register(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->label == label) {
      return *e;
    }
  }
  entries_.push_back(std::make_unique<Entry>(label));
  return *entries_.back();
}

std::vector<Profiler::Row> Profiler::Snapshot() const {
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(entries_.size());
    for (const auto& e : entries_) {
      Row row;
      row.label = e->label;
      row.calls = e->calls.load(std::memory_order_relaxed);
      row.total_ns = e->total_ns.load(std::memory_order_relaxed);
      row.max_ns = e->max_ns.load(std::memory_order_relaxed);
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.total_ns != b.total_ns) {
      return a.total_ns > b.total_ns;
    }
    return a.label < b.label;
  });
  return rows;
}

std::string Profiler::ToJson() const {
  JsonWriter w;
  w.BeginObject().Key("entries").BeginArray();
  for (const Row& row : Snapshot()) {
    if (row.calls == 0) {
      continue;  // probes that never fired would only add noise to the dump
    }
    w.BeginObject()
        .Field("label", row.label)
        .Field("calls", row.calls)
        .Field("total_ms", row.total_ns / 1e6, 3)
        .Field("mean_us", row.total_ns / 1e3 / static_cast<double>(row.calls), 3)
        .Field("max_us", row.max_ns / 1e3, 3)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
}

bool Profiler::DumpJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson() + "\n";
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace snorlax::support
