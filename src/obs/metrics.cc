#include "src/obs/metrics.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/quantile_histogram.h"

namespace deltaclus::obs {

namespace internal {
// DC_LOCK_FREE: see the declaration in metrics.h -- relaxed gate flag.
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

// Out-of-line so unique_ptr<QuantileHistogram> destroys a complete type.
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Shared lookup-or-create over the registration vectors.
template <typename T, typename Make>
T* FindOrCreate(std::vector<std::pair<std::string, std::unique_ptr<T>>>& v,
                const std::string& name, Make make) {
  for (auto& [n, metric] : v) {
    if (n == name) return metric.get();
  }
  v.emplace_back(name, make());
  return v.back().second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  dc::MutexLock lock(mu_);
  return FindOrCreate(counters_, name,
                      [] { return std::make_unique<Counter>(); });
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  dc::MutexLock lock(mu_);
  return FindOrCreate(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

QuantileHistogram* MetricsRegistry::GetQuantileHistogram(
    const std::string& name, const QuantileHistogramOptions& options) {
  dc::MutexLock lock(mu_);
  return FindOrCreate(quantile_histograms_, name, [&] {
    return std::make_unique<QuantileHistogram>(options);
  });
}

void MetricsRegistry::SetEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void MetricsRegistry::ResetAll() {
  dc::MutexLock lock(mu_);
  for (auto& [n, c] : counters_) c->Reset();
  for (auto& [n, g] : gauges_) g->Reset();
  for (auto& [n, q] : quantile_histograms_) q->Reset();
}

namespace {

// Registration order -> name-sorted order.
template <typename V>
std::vector<size_t> SortedOrder(const V& v) {
  std::vector<size_t> order(v.size());
  for (size_t t = 0; t < v.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a].first < v[b].first; });
  return order;
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  dc::MutexLock lock(mu_);

  JsonWriter w(out);
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (size_t t : SortedOrder(counters_)) {
    w.Key(counters_[t].first).Uint(counters_[t].second->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (size_t t : SortedOrder(gauges_)) {
    w.Key(gauges_[t].first).Number(gauges_[t].second->Value());
  }
  w.EndObject();
  if (!quantile_histograms_.empty()) {
    w.Key("quantile_histograms").BeginObject();
    for (size_t t : SortedOrder(quantile_histograms_)) {
      w.Key(quantile_histograms_[t].first);
      std::ostringstream qs;
      quantile_histograms_[t].second->Snapshot().WriteJson(qs);
      w.Raw(qs.str());
    }
    w.EndObject();
  }
  w.EndObject();
  out << "\n";
}

std::string MetricsRegistry::SnapshotJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteJson(out);
  return out.good();
}

}  // namespace deltaclus::obs
