// Log-bucketed quantile histogram with bounded relative error
// (HDR-histogram style). Buckets grow geometrically between
// `min_value` and `max_value`; any quantile read off a snapshot is
// within `relative_error` of the exact sample quantile. Observations
// below `min_value` (including zero and negatives) land in an explicit
// underflow cell, observations above `max_value` in an overflow cell,
// and non-finite observations are counted separately and never touch
// the distribution.
//
// Concurrency model matches obs::Counter: mutation is relaxed atomic
// fetch_add on pre-sized cells -- no locks, no allocation -- and is
// gated on the process-wide metrics flag. Snapshots are meant to be
// taken after writers quiesce (end of a run), where the relaxed sums
// are exact. Per-run accounting subtracts two snapshots (`Delta`)
// instead of resetting global state, so concurrent runs can account
// independently as long as each takes its own before/after pair.
#ifndef DELTACLUS_OBS_QUANTILE_HISTOGRAM_H_
#define DELTACLUS_OBS_QUANTILE_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace deltaclus::obs {

/// Bucket layout parameters. The defaults track latencies in seconds
/// from 1 microsecond to ~3 hours at 1% relative error (~1160 cells).
struct QuantileHistogramOptions {
  double min_value = 1e-6;
  double max_value = 1e4;
  double relative_error = 0.01;
};

/// Shared layouts so every recorder of the same quantity registers the
/// histogram with identical options (GetQuantileHistogram only
/// consults options on first registration).
QuantileHistogramOptions LatencySecondsOptions();
/// For dimensionless ratios >= 1 (e.g. shard imbalance max/mean).
QuantileHistogramOptions RatioOptions();

/// Value-type snapshot of a QuantileHistogram: bucket counts plus the
/// options needed to map bucket index back to a representative value.
/// Supports subtraction (`Delta`) for per-run windows and merging
/// (`Add`) across per-shard recorders.
struct QuantileHistogramSnapshot {
  QuantileHistogramOptions options;
  uint64_t count = 0;      // in-range + underflow + overflow
  double sum = 0.0;        // sum of finite observations
  uint64_t underflow = 0;  // v < min_value (incl. v <= 0)
  uint64_t overflow = 0;   // v > max_value
  uint64_t invalid = 0;    // non-finite, excluded from count/sum
  std::vector<uint64_t> buckets;

  /// this - earlier, per cell, saturating at zero (a reset between the
  /// two snapshots yields zeros rather than wrapped counts).
  QuantileHistogramSnapshot Delta(const QuantileHistogramSnapshot& earlier)
      const;
  /// Accumulates `other` into this snapshot cell-wise. Layouts must
  /// match (same options => same bucket count).
  void Add(const QuantileHistogramSnapshot& other);

  /// Exact rank-based quantile over the recorded cells: the value
  /// returned is the bucket representative of the observation at rank
  /// ceil(q * count), which is within options.relative_error of the
  /// exact sample quantile for in-range data. Underflow clamps to
  /// min_value, overflow to max_value. Returns 0 when empty.
  double ValueAtQuantile(double q) const;
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  /// Deterministic single-line JSON (sparse non-zero buckets plus the
  /// standard quantiles); byte-identical snapshots compare equal as
  /// strings, which the determinism tests rely on.
  void WriteJson(std::ostream& out) const;
  std::string Json() const;
};

/// The concurrent recorder. Cells are relaxed atomics at stable
/// addresses; Observe is wait-free and allocation-free.
class QuantileHistogram {
 public:
  explicit QuantileHistogram(
      const QuantileHistogramOptions& options = QuantileHistogramOptions());

  /// Records one observation when metrics are enabled; no-op otherwise.
  void Observe(double v) {
    if (!internal::MetricsEnabled()) return;
    ObserveAlways(v);
  }
  /// Records unconditionally -- for merge/aggregation paths that run
  /// regardless of the global flag (e.g. folding per-shard recorders).
  void ObserveAlways(double v);

  QuantileHistogramSnapshot Snapshot() const;
  /// Folds `other`'s current cells into this histogram (used to merge
  /// per-shard recorders in deterministic shard order). Ungated: the
  /// caller already decided the data matters. Layouts must match.
  void MergeFrom(const QuantileHistogram& other);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t InvalidCount() const {
    return invalid_.load(std::memory_order_relaxed);
  }
  const QuantileHistogramOptions& options() const { return options_; }
  size_t num_buckets() const { return num_buckets_; }
  void Reset();

 private:
  size_t BucketIndex(double v) const;

  QuantileHistogramOptions options_;
  size_t num_buckets_;
  double inv_log_growth_;
  // DC_LOCK_FREE: per-cell relaxed fetch_adds: cells are commutative
  // sums read at snapshot time after writers quiesce; cell/count/sum are not updated
  // atomically together, which a quiesced snapshot cannot observe.
  // Layout: [0] underflow, [1..num_buckets_] in-range, [num_buckets_+1]
  // overflow. unique_ptr keeps the atomics at a stable address.
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
  // DC_LOCK_FREE: relaxed integer/double sums, exact once quiesced.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // DC_LOCK_FREE: relaxed count of non-finite observations; kept out of
  // count_/sum_ so NaN/Inf can never poison the distribution.
  std::atomic<uint64_t> invalid_{0};
};

/// RAII wall-clock latency recorder. When metrics are disabled the
/// constructor is one predicted branch -- no clock read, no allocation
/// -- and the destructor does nothing.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(QuantileHistogram* hist) {
    if (!internal::MetricsEnabled()) return;
    hist_ = hist;
    start_ns_ = MonotonicNowNs();
  }
  ~LatencyRecorder() {
    if (hist_ == nullptr) return;
    hist_->ObserveAlways(static_cast<double>(MonotonicNowNs() - start_ns_) *
                         1e-9);
  }
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

 private:
  QuantileHistogram* hist_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace deltaclus::obs

#endif  // DELTACLUS_OBS_QUANTILE_HISTOGRAM_H_
