// Process-wide metrics registry: lock-free counters, gauges, and quantile
// histograms (src/obs/quantile_histogram.h) with snapshot-to-JSON
// export.
//
// Design goals, in order:
//   1. Near-zero overhead when disabled: every mutation first does one
//      relaxed atomic load of the global enabled flag and returns. The
//      registry starts disabled; nothing is recorded until
//      MetricsRegistry::SetEnabled(true).
//   2. Lock-free hot path when enabled: mutations are relaxed atomic
//      read-modify-writes on pre-registered cells; no locks, no
//      allocation. Registration (name -> cell lookup) takes a mutex and
//      is meant to happen once, outside hot loops -- hold the returned
//      pointer.
//   3. Stable pointers: metric cells are never deallocated or moved for
//      the lifetime of the process, so cached pointers stay valid across
//      Reset() and re-registration.
//
// Counts are monotonic within a run; Reset() zeroes values but keeps
// registrations (tests and repeated CLI runs use this).
#ifndef DELTACLUS_OBS_METRICS_H_
#define DELTACLUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace deltaclus::obs {

namespace internal {
/// Global on/off switch shared by all metric mutations.
// DC_LOCK_FREE: relaxed load/store only. The flag gates whether events
// are recorded, never what the algorithm computes, so a racing toggle
// merely loses a handful of events around the transition -- acceptable
// for observability, irrelevant to the determinism contract.
extern std::atomic<bool> g_metrics_enabled;
inline bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (!internal::MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // DC_LOCK_FREE: relaxed fetch_add/load. Counters are commutative
  // integer sums read only after the writers quiesce (snapshot time), so
  // no ordering beyond atomicity is required.
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. "current best residue").
class Gauge {
 public:
  void Set(double v) {
    if (!internal::MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  // DC_LOCK_FREE: relaxed store/load; last write wins by design, and a
  // torn read is impossible (atomic<double> is lock-free on every
  // supported target).
  std::atomic<double> value_{0.0};
};

// Defined in quantile_histogram.h; the registry stores and snapshots
// them without needing the definition here (keeps the include acyclic:
// quantile_histogram.h includes metrics.h for the enabled gate).
class QuantileHistogram;
struct QuantileHistogramOptions;

/// Name -> metric registry. One process-wide instance via Global();
/// tests may construct their own.
class MetricsRegistry {
 public:
  MetricsRegistry();
  // Out-of-line: members hold unique_ptr<QuantileHistogram> which is
  // incomplete at this point.
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. The pointer is stable for the registry's lifetime.
  Counter* GetCounter(const std::string& name) DC_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) DC_EXCLUDES(mu_);
  /// `options` is only consulted on first registration of `name`; use
  /// the shared option factories (LatencySecondsOptions() etc.) so all
  /// recorders of one quantity agree on the layout.
  QuantileHistogram* GetQuantileHistogram(
      const std::string& name, const QuantileHistogramOptions& options)
      DC_EXCLUDES(mu_);

  /// Enables/disables all metric mutation process-wide (the flag is
  /// global, not per-registry: mutation happens through cached pointers
  /// that do not know their registry).
  static void SetEnabled(bool enabled);
  static bool Enabled() { return internal::MetricsEnabled(); }

  /// Zeroes every registered metric; registrations survive.
  void ResetAll() DC_EXCLUDES(mu_);

  /// Writes a JSON snapshot:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "quantile_histograms": {name: {...snapshot...}, ...}}
  /// Names are emitted in sorted order for diff-friendliness; the
  /// quantile section is omitted while empty.
  void WriteJson(std::ostream& out) const DC_EXCLUDES(mu_);
  std::string SnapshotJson() const;

  /// WriteJson to `path`; returns false (and leaves a partial file) on
  /// I/O failure.
  bool WriteJsonFile(const std::string& path) const;


 private:
  mutable dc::Mutex mu_;
  // Registration-ordered; snapshots sort by name. unique_ptr gives
  // stable addresses across vector growth, which is what lets cached
  // metric pointers be mutated lock-free while mu_ only guards the
  // registration vectors themselves.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_
      DC_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_
      DC_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::unique_ptr<QuantileHistogram>>>
      quantile_histograms_ DC_GUARDED_BY(mu_);
};

}  // namespace deltaclus::obs

#endif  // DELTACLUS_OBS_METRICS_H_
